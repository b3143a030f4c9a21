"""The verify suites share one solved battery within a `run_suite` call."""

import logging
import re
from collections import Counter

import numpy as np
import pytest

from kstensor import verify
from kstensor.functionals import biler_check, interaction_integral, second_moment
from kstensor.potential import solve_potential_fast
from kstensor.verify import density_suite, run_suite, solved_battery

SUB_SUITES = ("potential-oracle", "biler", "gradv-bound", "moment-identity")


def rows(results):
    return [(r.suite, r.name, r.margin, r.passed) for r in results]


@pytest.fixture
def solves(monkeypatch):
    """Count verify's fast solves by grid size: the functionals take them, never solve."""
    counts = Counter()

    def counted(u):
        counts[u.grid.n_cells] += 1
        return solve_potential_fast(u)

    monkeypatch.setattr(verify, "solve_potential_fast", counted)
    return counts


def test_all_equals_suites_run_one_by_one():
    together = rows(run_suite("all"))
    one_by_one = [row for sub in SUB_SUITES for row in rows(run_suite(sub))]
    # the margins are bitwise equal: the shared solves are the same solves
    assert together == one_by_one
    assert len(together) == 49


def test_all_logs_one_line(caplog):
    with caplog.at_level(logging.INFO, logger="kstensor.verify"):
        run_suite("all")
    lines = [r.getMessage() for r in caplog.records if r.name == "kstensor.verify"]
    assert len(lines) == 1
    assert re.fullmatch(r"suite all: 49 cases run, 49 passed, \d+\.\d ms", lines[0])


def test_all_solves_each_density_once(solves):
    run_suite("all")
    # potential-oracle: 3 at 16^3 and 1 at 64^3; moment-identity: 4 at 16^3;
    # the shared 32^3 battery: 12 (the parent made 52 solves in all)
    assert solves == {16: 7, 32: 12, 64: 1}


@pytest.mark.parametrize(
    "name, expected",
    [("biler", {32: 12}), ("gradv-bound", {32: 12}), ("moment-identity", {16: 4, 32: 12})],
)
def test_suite_on_its_own_solves_its_battery(solves, name, expected):
    run_suite(name)
    assert solves == expected


def test_battery_builds_only_what_it_needs():
    full = density_suite(n_cells=16)
    part = solved_battery(n_cells=16, count=4)
    assert [name for name, _, _ in part] == [name for name, _ in full[:4]]
    for (_, u, pot), (_, ref) in zip(part, full):
        assert np.array_equal(u.values, ref.values)
        assert np.array_equal(pot.v, solve_potential_fast(ref).v)


def test_biler_check_takes_solved_potential():
    # J in the right side is the interaction integral of the potential passed in
    for _, u in density_suite(n_cells=16):
        pot = solve_potential_fast(u)
        _, rhs, _ = biler_check(u, pot=pot)
        assert rhs == interaction_integral(u, pot) * (2.0 * second_moment(u)) ** 0.5
