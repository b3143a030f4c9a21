"""Acceptance criteria, one test per numbered criterion, and the blow-up time's certificate.

Each test prints a single `ACCEPTANCE <k> <PASS|FAIL>` line (run pytest with
-s or check captured output). The three dichotomy experiments run once per
session via module fixtures; their wall-clock budgets are asserted.
"""

import math
import time

import numpy as np
import pytest
from pathlib import Path

from grid_meshes import meshes
from kstensor import functionals as fn
from kstensor import thresholds as th
from kstensor.matrixflux import FluxTensor, rotation_z
from kstensor.potential import DensityField, Grid3, gaussian_values, solve_potential_fast
from kstensor.solver import InitialData, load_config, make_initial_data, run
from kstensor.verify import solved_battery, suite_biler, suite_gradv_bound, suite_potential_oracle
from sphere_oracle import sphere_min, sphere_table

PRESETS = Path(__file__).resolve().parent.parent / "presets"
RUN_BUDGET_SECONDS = 900.0


def report(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


@pytest.fixture(scope="module")
def blowup_outcome():
    config = load_config(str(PRESETS / "blowup.cfg"))
    start = time.monotonic()
    outcome = run(config)
    return outcome, time.monotonic() - start, config


@pytest.fixture(scope="module")
def global_outcome():
    config = load_config(str(PRESETS / "global.cfg"))
    start = time.monotonic()
    outcome = run(config)
    return outcome, time.monotonic() - start, config


@pytest.fixture(scope="module")
def control_outcome():
    config = load_config(str(PRESETS / "diffusion.cfg"))
    start = time.monotonic()
    outcome = run(config)
    return outcome, time.monotonic() - start, config


def test_criterion_1_matrix_suite():
    rng = np.random.default_rng(101)
    spheres = {n: sphere_table(n, seed=1000 + n) for n in (3, 4, 5, 6)}
    start = time.monotonic()
    flux_s = oracle_s = 0.0
    worst_recon = worst_orth = 0.0
    agree = 0
    total = 1000
    for _ in range(total):
        n = int(rng.integers(3, 7))
        while True:
            a = rng.uniform(-2.0, 2.0, size=(n, n))
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[-1] < 1e-3 * sv[0]:
                continue  # near-singular: resample
            t0 = time.monotonic()
            flux = FluxTensor.from_matrix(a)
            flux_s += time.monotonic() - t0
            margin = min(
                [math.cos(t) for t in flux.angles] + list(flux.real_eigs) + [1.0]
            )
            if abs(margin) < 2e-2:
                continue  # hypothesis boundary: a finite sample cannot decide the sign
            break
        worst_recon = max(
            worst_recon,
            np.linalg.norm(flux.p @ flux.u_orth - a) / np.linalg.norm(a),
        )
        worst_orth = max(
            worst_orth, np.linalg.norm(flux.u_orth.T @ flux.u_orth - np.eye(n))
        )
        t0 = time.monotonic()
        oracle_min = sphere_min(spheres[n], flux.u_orth)
        oracle_s += time.monotonic() - t0
        agree += flux.hypothesis_ok == (oracle_min > 0.0)
    elapsed = time.monotonic() - start
    ok = worst_recon <= 1e-12 and worst_orth <= 1e-12 and agree == total and elapsed < 10.0
    report(
        1,
        ok,
        f"1000 matrices: recon {worst_recon:.2e}, orth {worst_orth:.2e}, "
        f"oracle agreement {agree}/{total}, {elapsed:.1f}s "
        f"(from_matrix {flux_s:.2f}s, oracle {oracle_s:.2f}s)",
    )


def test_criterion_2_potential_oracle():
    start = time.monotonic()
    cases = suite_potential_oracle(seeds=20)
    elapsed = time.monotonic() - start
    # each margin is the case's bound minus its error
    worst = max(1e-10 - c.margin for c in cases if c.name.startswith("fast_vs_direct"))
    err = {c.name: 1e-2 - c.margin for c in cases if c.name.startswith("gaussian")}
    ok = all(c.passed for c in cases) and elapsed < 60.0
    report(
        2,
        ok,
        f"fast-vs-direct {worst:.2e} (20 seeds), gaussian v "
        f"{err['gaussian_closed_form_v']:.2e} grad {err['gaussian_closed_form_grad']:.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_biler_inequality():
    start = time.monotonic()
    all_hold = all(c.passed for c in suite_biler(solved_battery()))
    # Monte-Carlo oracle for the Gaussian interaction integral, 1e7 samples
    rng = np.random.default_rng(777)
    acc = 0.0
    n_samples = 10_000_000
    chunk = 1_000_000
    for _ in range(n_samples // chunk):
        xs = rng.standard_normal((chunk, 3))
        ys = rng.standard_normal((chunk, 3))
        acc += float(np.sum(1.0 / np.linalg.norm(xs - ys, axis=1)))
    j_mc = acc / n_samples
    grid = Grid3(64, 8.0)
    u = DensityField(grid, gaussian_values(grid, 1.0, 1.0))
    j_grid = fn.interaction_integral(u, solve_potential_fast(u))
    rel = abs(j_grid - j_mc) / j_mc
    elapsed = time.monotonic() - start
    ok = all_hold and rel <= 1e-2 and elapsed < 120.0
    report(
        3,
        ok,
        f"12-density suite holds, J_grid={j_grid:.6f} vs J_mc={j_mc:.6f} "
        f"(1/sqrt(pi)={1 / math.sqrt(math.pi):.6f}), rel {rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_4_threshold_arithmetic():
    ident = FluxTensor.from_matrix(np.eye(3))
    c1 = th.blowup_constant(ident, 1.0, 3)
    exact = 1.0 / (1152 * math.pi**2)
    digits_ok = abs(c1 - exact) <= 1e-12 * exact
    c2 = th.blowup_constant(ident, 2.0, 3)
    homogeneity_ok = abs(c2 - 4 * c1) <= 1e-12 * c2
    rot = FluxTensor.from_matrix(rotation_z(math.pi / 3))
    c3 = th.blowup_constant(rot, 1.0, 3)
    rotation_ok = abs(c3 - 0.25 * c1) <= 1e-12 * c1
    ok = digits_ok and homogeneity_ok and rotation_ok
    report(
        4,
        ok,
        f"C_Bl = {c1:.15e} (= 1/(1152 pi^2) to 12 digits), chi-doubling x4, "
        f"rot(pi/3) x0.25",
    )


def test_criterion_5_blowup_experiment(blowup_outcome):
    outcome, elapsed, config = blowup_outcome
    flux = FluxTensor.from_matrix(config.matrix)
    # preset calibration: m0 is half the small-moment threshold
    u0 = make_initial_data(config.initial, config.grid)
    m0 = fn.second_moment(u0)
    threshold = th.blowup_constant(flux, config.chi, 3) * u0.mass ** 3
    calibrated = abs(m0 - 0.5 * threshold) <= 1e-3 * threshold
    status_ok = outcome.status == "NumericalBlowup"
    w = np.array([r.w for r in outcome.records])
    monotone = bool(np.all(np.diff(w) < 0.0))
    dwm = np.array([r.dwdt_measured for r in outcome.records])
    bound = np.array([r.dwdt_bound for r in outcome.records])
    slack = 0.05 * np.maximum(np.abs(dwm), np.abs(bound))
    inequality = bool(np.all(dwm <= bound + slack))
    ok = calibrated and status_ok and monotone and inequality and elapsed < RUN_BUDGET_SECONDS
    report(
        5,
        ok,
        f"status={outcome.status} at t={outcome.t_final:.5f} "
        f"(growth {outcome.sup_growth_factor:.0f}x), w decreasing over "
        f"{len(w)} records, dw/dt within (E2)+5%, {elapsed:.0f}s",
    )


def test_criterion_6_global_experiment(global_outcome):
    outcome, elapsed, _ = global_outcome
    status_ok = outcome.status == "CompletedToTEnd" and abs(outcome.t_final - 10.0) < 1e-9
    linf = np.array([r.linf for r in outcome.records])
    bounded = linf[-1] <= linf[0]
    lq = np.array([r.lq for r in outcome.records])
    monotone = bool(np.all(np.diff(lq) <= 1e-6 * lq[0]))
    ok = status_ok and bounded and monotone and elapsed < RUN_BUDGET_SECONDS
    report(
        6,
        ok,
        f"status={outcome.status} t_final={outcome.t_final:.1f}, "
        f"linf {linf[0]:.4e} -> {linf[-1]:.4e}, L^(3/2) non-increasing, {elapsed:.0f}s",
    )


def test_blowup_ends_inside_its_certificate(blowup_outcome, global_outcome):
    # beside criterion 5: the admissibility verdict's t_upper bounds the blow-up run's end, and
    # the global preset gets no certificate
    verdicts = []
    for *_, config in (blowup_outcome, global_outcome):
        u0 = make_initial_data(config.initial, config.grid)
        flux = FluxTensor.from_matrix(config.matrix)
        verdicts.append(th.admissibility(fn.second_moment(u0), u0.mass, flux, config.chi, 3))
    blowup, global_ = verdicts
    assert blowup.admissible and blowup_outcome[0].t_final < blowup.t_upper
    assert not global_.admissible


def test_criterion_7_conservation_and_positivity(
    blowup_outcome, global_outcome, control_outcome
):
    details = []
    ok = True
    for label, (outcome, _, _) in (
        ("blowup", blowup_outcome),
        ("global", global_outcome),
        ("control", control_outcome),
    ):
        masses = np.array([r.mass for r in outcome.records])
        drift = float(np.max(np.abs(masses - masses[0])) / masses[0])
        ok &= drift <= 1e-8 and outcome.min_density >= 0.0
        details.append(f"{label}: drift {drift:.1e}, min u {outcome.min_density:.1e}")
    report(7, ok, "; ".join(details))


def test_criterion_8_moment_identity(control_outcome, global_outcome):
    control, _, _ = control_outcome
    first, last = control.records[0], control.records[-1]
    slope = (last.m2 - first.m2) / (last.t - first.t)
    control_ok = abs(slope - 6.0 * first.mass) <= 1e-2 * 6.0 * first.mass
    glob, _, _ = global_outcome
    recs = glob.records[1:-1]  # interior records use centered differences
    rel = max(abs(r.dwdt_measured - r.dwdt_rhs) / abs(r.dwdt_rhs) for r in recs)
    identity_ok = rel <= 5e-2
    ok = control_ok and identity_ok
    report(
        8,
        ok,
        f"chi=0: dm/dt = {slope:.5f} vs 6M = {6 * first.mass:.5f}; "
        f"chi>0 identity max deviation {rel:.2%}",
    )


def test_criterion_9_gradient_bound():
    grid = Grid3(16, 1.0)
    x, y, z = meshes(grid)
    inside = (np.abs(x) <= 0.5) & (np.abs(y) <= 0.5) & (np.abs(z) <= 0.5)
    box = DensityField(grid, np.where(inside, 1.0, 0.0))  # M = 1, linf = 1
    _, gamma = fn.gradv_sup_bound(box)
    gamma_ok = abs(gamma - (1 / (2 * math.pi)) ** (1 / 3)) <= 1e-10
    cases = suite_gradv_bound(solved_battery())
    dominated = all(c.passed for c in cases)
    margin = 1.0 + min(c.margin for c in cases)  # each margin is bound / measured - 1
    ok = gamma_ok and dominated
    report(
        9,
        ok,
        f"gamma* = {gamma:.10f} (= (1/2pi)^(1/3) to 10 digits), bound dominates "
        f"12-density suite (min ratio {margin:.2f})",
    )


def test_criterion_10_rescaling():
    flux = FluxTensor.from_matrix(np.eye(3))
    chi, sigma = 1.0, 1.0
    u0 = make_initial_data(
        InitialData(kind="gaussian", mass=1.0, sigma=(sigma,) * 3), Grid3(64, 8.0)
    )
    m0 = fn.second_moment(u0)
    before = th.admissibility(m0, u0.mass, flux, chi, 3)
    eps = th.rescale_epsilon(m0, u0.mass, flux, chi, 3)
    rescaled = make_initial_data(
        InitialData(kind="gaussian", mass=1.0, sigma=(sigma,) * 3),
        Grid3(64, 8.0 * sigma * eps),
        epsilon=eps,
    )
    after = th.admissibility(fn.second_moment(rescaled), rescaled.mass, flux, chi, 3)
    mass_ok = abs(rescaled.mass - u0.mass) <= 1e-6
    ok = (not before.admissible) and after.admissible and mass_ok
    report(
        10,
        ok,
        f"eps = {eps:.6f}: inadmissible (m0={m0:.3f}) -> admissible "
        f"(m0={fn.second_moment(rescaled):.3e}), mass preserved to "
        f"{abs(rescaled.mass - u0.mass):.1e}",
    )
