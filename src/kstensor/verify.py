"""Named verification suites behind the `verify` CLI subcommand.

Each suite runs a fixed-seed battery of the package's structural checks and
returns per-case (name, margin, passed) rows; margins are printed so a
drifting build shows up as shrinking slack before it fails outright.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import functionals as fn
from .matrixflux import FluxTensor, rotation_z
from .potential import (
    DensityField,
    Grid3,
    PotentialField,
    ball_values,
    gaussian_values,
    solve_potential_direct,
    solve_potential_fast,
)

logger = logging.getLogger(__name__)
_HALF_WIDTH = 4.0

# (name, density, its fast-solved potential) for each density of a battery
Battery = list[tuple[str, DensityField, PotentialField]]


@dataclass
class CaseResult:
    suite: str
    name: str
    margin: float  # positive means slack remained
    passed: bool


def density_suite(n_cells: int = 32, count: int | None = None) -> list[tuple[str, DensityField]]:
    """The stock 12-density battery on [-4, 4]^3: Gaussians, balls, bumps, random fields.

    ``count`` builds only the first ``count`` densities.
    """
    grid = Grid3(n_cells, _HALF_WIDTH)
    r2 = grid.radius_squared()

    def smooth_random(seed):
        rng_l = np.random.default_rng(seed)
        raw = rng_l.random((n_cells, n_cells, n_cells))
        # heavy smoothing + compact envelope keeps the field grid-resolved
        for _ in range(12):
            sm = raw.copy()
            for ax in range(3):
                sm += 0.5 * (np.roll(raw, 1, axis=ax) + np.roll(raw, -1, axis=ax))
            raw = sm / 4.0
        envelope = np.exp(-r2 / (2.0 * (_HALF_WIDTH / 3.5) ** 2))
        return raw * envelope

    def shell():
        return np.exp(-((np.sqrt(r2) - 1.0) ** 2) / (2 * 0.3**2))

    makers = [
        ("gaussian_s0.5", lambda: gaussian_values(grid, 1.0, 0.5)),
        ("gaussian_s1.0", lambda: gaussian_values(grid, 1.0, 1.0)),
        ("gaussian_s1.5_m2", lambda: gaussian_values(grid, 2.0, 1.5 * 0.6)),
        ("aniso_gaussian", lambda: gaussian_values(grid, 1.0, (0.5, 0.7, 1.0))),
        ("strong_aniso", lambda: gaussian_values(grid, 1.0, (0.3, 0.3, 1.5))),
        ("offset_gaussian", lambda: gaussian_values(grid, 1.0, 0.6, (0.5, -0.3, 0.2))),
        ("ball_r1", lambda: ball_values(grid, 1.0, 1.0)),
        ("ball_r1.5_m0.5", lambda: ball_values(grid, 0.5, 1.5)),
        ("two_bump", lambda: gaussian_values(grid, 0.6, 0.4, (0.8, 0, 0))
         + gaussian_values(grid, 0.4, 0.4, (-0.8, 0, 0))),
        ("smooth_random_1", lambda: smooth_random(1)),
        ("smooth_random_2", lambda: smooth_random(2)),
        ("gaussian_shell", shell),
    ]
    return [(name, DensityField(grid, make())) for name, make in makers[:count]]


def solved_battery(n_cells: int = 32, count: int | None = None) -> Battery:
    """`density_suite` with each density's fast-solved potential: (name, u, pot)."""
    return [(name, u, solve_potential_fast(u)) for name, u in density_suite(n_cells, count)]


def suite_potential_oracle(seeds: int = 3) -> list[CaseResult]:
    """Fast vs direct solver agreement plus the closed-form Gaussian test."""
    out = []
    grid = Grid3(16, 2.0)
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        u = DensityField(grid, rng.random((16, 16, 16)))
        fast = solve_potential_fast(u)
        direct = solve_potential_direct(u)
        g_fast, g_direct = (np.sqrt(p.gradient_squared()) for p in (fast, direct))
        rel = max(
            float(np.max(np.abs(fast.v - direct.v)) / np.max(np.abs(direct.v))),
            float(np.max(np.abs(g_fast - g_direct)) / np.max(g_direct)),
        )
        out.append(CaseResult("potential-oracle", f"fast_vs_direct_seed{seed}", 1e-10 - rel, rel <= 1e-10))

    sigma, m_tot = 1.0, 1.0
    ggrid = Grid3(64, 8.0 * sigma)
    r = np.sqrt(ggrid.radius_squared())
    u = DensityField(ggrid, gaussian_values(ggrid, m_tot, sigma))
    pot = solve_potential_fast(u)
    x, inv = np.unique(r / (sigma * math.sqrt(2)), return_inverse=True)  # erf once per distinct r
    erf = np.array([math.erf(t) for t in x])[inv].reshape(r.shape)
    v_exact = m_tot * erf / (4 * math.pi * r)
    menc = m_tot * (erf - math.sqrt(2 / math.pi) * (r / sigma) * np.exp(-(r**2) / (2 * sigma**2)))
    g_exact = menc / (4 * math.pi * r**2)
    ev = float(np.max(np.abs(pot.v - v_exact)) / v_exact.max())
    eg = float(np.max(np.abs(np.sqrt(pot.gradient_squared()) - g_exact)) / g_exact.max())
    out.append(CaseResult("potential-oracle", "gaussian_closed_form_v", 1e-2 - ev, ev <= 1e-2))
    out.append(CaseResult("potential-oracle", "gaussian_closed_form_grad", 1e-2 - eg, eg <= 1e-2))
    return out


def suite_biler(battery: Battery) -> list[CaseResult]:
    """Mass-moment-interaction inequality over the stock density battery."""
    out = []
    for name, u, pot in battery:
        lhs, rhs, ok = fn.biler_check(u, pot=pot)
        out.append(CaseResult("biler", name, rhs / lhs - 1.0, ok))
    return out


def suite_gradv_bound(battery: Battery) -> list[CaseResult]:
    """Measured max |grad v| never exceeds the optimized analytic bound."""
    out = []
    for name, u, pot in battery:
        measured = math.sqrt(pot.gradient_squared().max())
        bound, _ = fn.gradv_sup_bound(u)
        out.append(CaseResult("gradv-bound", name, bound / measured - 1.0, measured <= bound))
    return out


def suite_moment_identity(battery: Battery) -> list[CaseResult]:
    """Identity vs symmetrized direct sum, and the identity-to-bound chain."""
    out = []
    flux_rot = FluxTensor.from_matrix(rotation_z(math.pi / 4))
    flux_id = FluxTensor.from_matrix(np.eye(3))
    chi = 1.0

    # identity route equals the symmetrized double-sum route (exchange of x, y)
    for name, u, pot in solved_battery(n_cells=16, count=4):
        ident = fn.moment_rhs_identity(u, flux_rot, chi, pot=pot)
        adv_direct = fn.interaction_symmetrized_direct(u, flux_rot.u_orth)
        direct = 2.0 * flux_rot.trace_pinv * u.mass + chi * adv_direct
        rel = abs(ident - direct) / max(abs(direct), 1e-300)
        out.append(CaseResult("moment-identity", f"symmetrized_{name}", 1e-2 - rel, rel <= 1e-2))

    # with U = I the advective term collapses to -chi J / (n omega_n)
    for name, u, pot in battery[:4]:
        ident = fn.moment_rhs_identity(u, flux_id, chi, pot=pot)
        collapsed = 6.0 * u.mass - chi / (4.0 * math.pi) * fn.interaction_integral(u, pot=pot)
        rel = abs(ident - collapsed) / max(abs(collapsed), 1e-300)
        out.append(CaseResult("moment-identity", f"collapsed_{name}", 1e-2 - rel, rel <= 1e-2))

    # inequality chain: identity <= bound within discretization slack
    for name, u, pot in battery:
        w = fn.weighted_moment(u, flux_rot.p_inv)
        ident = fn.moment_rhs_identity(u, flux_rot, chi, pot=pot)
        bound = fn.moment_rhs_bound(w, u.mass, flux_rot, chi)
        slack = 0.02 * max(abs(ident), abs(bound))
        out.append(CaseResult("moment-identity", f"chain_{name}", (bound + slack) - ident, ident <= bound + slack))
    return out


_BATTERY_SUITES = {
    "biler": suite_biler,
    "gradv-bound": suite_gradv_bound,
    "moment-identity": suite_moment_identity,
}
SUITES = ("potential-oracle", *_BATTERY_SUITES, "all")


def run_suite(name: str) -> list[CaseResult]:
    """Run one named suite ("all" runs each); logs one INFO line with its case counts and wall time.

    The suites that read the 32^3 battery share one solve of it.
    """
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    t0 = time.perf_counter()
    results = suite_potential_oracle() if name in ("potential-oracle", "all") else []
    if name != "potential-oracle":
        # solved only now: the battery (about 16 MB) must not be alive
        # during the oracle's 64^3 solve, which sets the peak memory
        battery = solved_battery()
        for sub, suite in _BATTERY_SUITES.items():
            if name in (sub, "all"):
                results.extend(suite(battery))
    logger.info(
        "suite %s: %d cases run, %d passed, %.1f ms",
        name, len(results), sum(res.passed for res in results),
        1e3 * (time.perf_counter() - t0),
    )
    return results
