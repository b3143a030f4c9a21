"""Fast self-tests of the benchmark: python3 -m pytest perfbench/tests -q"""

import dataclasses
import json
import math
import types

import numpy as np
import pytest

import child
import run
import tracer as tr
import workloads as wl
from kstensor import matrixflux, solver, thresholds


def test_self_times_of_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    spans = [
        tr.Span("root", 0.0, 10.0, -1),
        tr.Span("a", 1.0, 4.0, 0),
        tr.Span("b", 5.0, 9.0, 0),
        tr.Span("c", 6.0, 7.0, 2),
        tr.Span("a", 11.0, 13.0, -1),
    ]
    assert tr.self_times(spans) == [3.0, 3.0, 3.0, 1.0, 2.0]
    stats = tr.aggregate(spans, ["root", "a", "b", "c", "never"])
    assert (stats["a"].calls, stats["a"].self_s, stats["a"].ms_p50) == (2, 5.0, 2500.0)
    assert (stats["b"].calls, stats["b"].self_s) == (1, 3.0)
    assert (stats["never"].calls, stats["never"].self_s, stats["never"].ms_p50) == (0, 0.0, 0.0)
    # self times partition the root spans' wall time
    assert sum(s.self_s for s in stats.values()) == 12.0


def test_tracer_records_nesting_only_while_enabled():
    ticks = iter(range(100))
    tracer = tr.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4 and tracer.spans == []
    tracer.enabled = True
    assert outer(1) == 4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 3.0, -1),
        ("inner", 1.0, 2.0, 0),
    ]


def test_install_wraps_every_binding_and_logs_missing(capsys):
    def solve(x):
        return x * 3

    class Flux:
        @classmethod
        def build(cls, x):
            return (cls, x)

    core = types.ModuleType("pkg.core")
    core.solve, core.Flux = solve, Flux
    user = types.ModuleType("pkg.user")
    user.solve = solve  # imported by name, as solver imports the gradient solve
    user.run = lambda x: user.solve(x) + 1
    tracer = tr.Tracer()
    missing = tr.install(
        tracer, ["core.solve", "core.Flux.build", "core.gone", "absent.f"], "pkg", [core, user]
    )
    assert missing == ["core.gone", "absent.f"]
    assert "pkg.core.gone not found" in capsys.readouterr().err
    tracer.enabled = True
    assert user.run(2) == 7 and core.solve(1) == 3
    assert Flux.build(5) == (Flux, 5)
    assert [s.name for s in tracer.spans] == ["core.solve", "core.solve", "core.Flux.build"]


def test_layer_metrics_are_the_ones_benchmark_json_declares():
    layers = {name: [10, 0.5, 2.0] for name in child.TRACED}
    traced = [{"layers": layers, "steps": 40, "run_s": [1.1], "coverage": 0.9, "missing": []}]
    untraced = [{"run_s": [1.0], "steps": 40, "cells_per_step": 8}]
    metrics = run.layer_metrics(untraced, traced)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert metrics["potential.solves_per_step"] == 0.5
    assert metrics["solver.cell_updates_per_s"] == 320.0
    assert metrics["trace.overhead_frac"] == pytest.approx(0.1)


def test_flux_batch_known_answers():
    cases = wl.flux_batch(seed=7, count=120)
    assert {c.expected_ok for c in cases} == {True, False}
    assert {c.matrix.shape[0] for c in cases} == {3, 4, 5, 6}
    for c in cases:
        flux = matrixflux.FluxTensor.from_matrix(c.matrix)
        ok, margin = matrixflux.check_hypothesis(c.matrix)
        assert flux.hypothesis_ok == ok == c.expected_ok
        assert flux.kappa == pytest.approx(c.expected_kappa, abs=wl.KAPPA_ATOL)
        assert margin == pytest.approx(c.expected_kappa, abs=wl.KAPPA_ATOL)
        assert np.allclose(np.linalg.eigvalsh(flux.p), np.sort(c.s_eigs), rtol=1e-12)
        if ok:
            c_bl = thresholds.blowup_constant(flux, c.chi, flux.n)
            assert c_bl == pytest.approx(
                wl.expected_blowup_constant(c.s_eigs, c.expected_kappa, c.chi), rel=wl.C_BL_RTOL
            )
    again = wl.flux_batch(seed=7, count=120)
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(cases, again))
    other = wl.flux_batch(seed=8, count=120)
    assert not all(np.array_equal(a.matrix, b.matrix) for a, b in zip(cases, other))


def differing_fields(a: solver.SimConfig, b: solver.SimConfig) -> list[str]:
    return [
        f.name for f in dataclasses.fields(solver.SimConfig)
        if not np.array_equal(getattr(a, f.name), getattr(b, f.name))
    ]


def test_collapse64_seed0_is_the_blowup_preset():
    preset = solver.load_config(str(wl.BLOWUP_PRESET))
    assert differing_fields(wl.collapse64_config(0), preset) == []
    # the jittered seeds derive A and chi the way the preset was calibrated
    assert np.allclose(matrixflux.rotation_z(math.pi / 4), preset.matrix, rtol=0, atol=1e-15)
    assert wl.calibrated_chi(preset.matrix, preset.initial) == pytest.approx(preset.chi, rel=1e-12)


def test_collapse64_jitter_keeps_the_half_threshold_calibration():
    preset = solver.load_config(str(wl.BLOWUP_PRESET))
    config = wl.collapse64_config(3)
    assert differing_fields(config, preset) == ["matrix", "chi", "initial"]
    assert dataclasses.replace(config.initial, center=preset.initial.center) == preset.initial
    ini = config.initial
    m0 = ini.mass * (sum(s * s for s in ini.sigma) + sum(c * c for c in ini.center))
    c_bl = thresholds.blowup_constant(matrixflux.FluxTensor.from_matrix(config.matrix), config.chi)
    assert m0 == pytest.approx(c_bl * ini.mass**3 / 2.0, rel=1e-12)
    cells = np.array(ini.center) / config.grid.h
    assert np.array_equal(cells, np.round(cells)) and np.abs(cells).max() <= wl.CENTER_SHIFT_CELLS


def test_heat64_takes_large_step_diffusion(tmp_path):
    config = wl.heat64_config(5, str(tmp_path))
    assert config.chi == 0.0
    assert config.dt_max > config.grid.h**2 / 6.0
    assert differing_fields(config, wl.heat64_config(5, str(tmp_path))) == []
    assert differing_fields(config, wl.heat64_config(6, str(tmp_path))) == ["initial"]


def test_calibration_oracle_matches_calibrate_cn():
    _, samples = thresholds.calibrate_cn(aspect_ratios=(1.0, 2.0), n_cells=32)
    for rho, ratio in samples:
        assert ratio == pytest.approx(wl.gaussian_calibration_ratio(rho), rel=wl.CALIBRATE_RTOL)
