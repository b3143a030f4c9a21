"""Inputs, timed operations and output checks of the benchmark's workloads.

Every input is a pure function of the workload seed, and the workloads reach
the package only through its public API. Modules are referenced as
`solver.run`, not imported by name, so the tracer's wrappers are the ones
called in a traced run.

* collapse64 - `presets/blowup.cfg` to its NumericalBlowup verdict; the
  heaviest path through the drift solve.
* heat64 - a chi = 0 run on the diffusion preset's grid with steps above
  h^2/6, so every step takes large-step diffusion and no drift solve.
* analysis - the verify battery, a batch of flux matrices with known
  verdicts, admissibility on the passing ones, and calibrate_cn.
"""

from __future__ import annotations

import dataclasses
import math
import os
from pathlib import Path

import numpy as np

from kstensor import matrixflux, potential, solver, thresholds, verify

ROOT = Path(__file__).resolve().parents[1]
BLOWUP_PRESET = ROOT / "presets" / "blowup.cfg"
DIFFUSION_PRESET = ROOT / "presets" / "diffusion.cfg"

# collapse64 jitter for seeds other than 0, kept small so that seeds stay
# comparable: +-0.02 rad moves the step count from 113 to 112..115. The
# centre moves by whole cells, so the Gaussian stays centred on a cell
# corner as in the preset; a fractional shift puts the peak in one cell,
# and the sup-norm trigger then fires after about 40 steps instead of 113.
ANGLE_JITTER = 0.02  # radians around pi/4
CENTER_SHIFT_CELLS = 1  # per axis

# heat64: dt above h^2/6 = 0.0319 (h = 28/64) takes large-step diffusion
HEAT_DT = 0.05
HEAT_SNAPSHOTS = (0.5, 1.0, 1.5)
HEAT_RECORD_EVERY = 10

MASS_RTOL = 1e-8
HEAT_M2_RTOL = 1e-2
MATRIX_BATCH = 3000
MATRIX_ANGLE_GAP = 0.05  # verdict-defining angles stay this far from pi/2 and pi
CALIBRATE_RTOL = 1e-2
C_BL_RTOL = 1e-9
KAPPA_ATOL = 1e-9


# ---------------------------------------------------------------------------
# simulation configs
# ---------------------------------------------------------------------------


def calibrated_chi(matrix: np.ndarray, initial) -> float:
    """chi with m0 = C_Bl(A, chi, 3) M^3 / 2 for a Gaussian, as blowup.cfg states.

    m0 = M (sum sigma_i^2 + |center|^2); C_Bl scales as chi^2 in 3-D.
    """
    flux = matrixflux.FluxTensor.from_matrix(matrix)
    c1 = thresholds.blowup_constant(flux, 1.0)
    m = initial.mass
    m0 = m * (sum(s * s for s in initial.sigma) + sum(c * c for c in initial.center))
    return math.sqrt(2.0 * m0 / (m**3 * c1))


def collapse64_config(seed: int) -> solver.SimConfig:
    base = solver.load_config(str(BLOWUP_PRESET))
    if seed == 0:
        return base
    rng = np.random.default_rng(seed)
    matrix = matrixflux.rotation_z(math.pi / 4 + ANGLE_JITTER * rng.uniform(-1.0, 1.0))
    shift = rng.integers(-CENTER_SHIFT_CELLS, CENTER_SHIFT_CELLS + 1, 3)
    center = tuple(float(c) for c in base.grid.h * shift)
    initial = dataclasses.replace(base.initial, center=center)
    return dataclasses.replace(
        base, matrix=matrix, chi=calibrated_chi(matrix, initial), initial=initial
    )


def heat64_config(seed: int, output_dir: str) -> solver.SimConfig:
    base = solver.load_config(str(DIFFUSION_PRESET))
    rng = np.random.default_rng(seed)
    sigma = tuple(float(s) for s in rng.uniform(0.8, 1.25, 3))
    center = tuple(float(c) for c in rng.uniform(-1.0, 1.0, 3))
    initial = dataclasses.replace(base.initial, sigma=sigma, center=center)
    return dataclasses.replace(
        base,
        initial=initial,
        dt_max=HEAT_DT,
        diagnostics_every=HEAT_RECORD_EVERY,
        snapshot_times=HEAT_SNAPSHOTS,
        output_dir=output_dir,
    )


def setup_simulation(config: solver.SimConfig) -> float:
    """The user-visible set-up of a run: flux, initial data, kernel tables.

    Returns the initial mass.
    """
    matrixflux.FluxTensor.from_matrix(config.matrix)
    u = solver.make_initial_data(config.initial, config.grid, config.epsilon)
    potential.solve_potential_fast(u)
    return u.mass


def check_collapse(outcome: solver.SimOutcome, mass0: float) -> list[str]:
    errors = []
    if outcome.status != "NumericalBlowup":
        errors.append(f"status {outcome.status}, expected NumericalBlowup")
    drift = max(abs(r.mass - mass0) for r in outcome.records) / mass0
    if drift > MASS_RTOL:
        errors.append(f"mass drift {drift:.2e} > {MASS_RTOL:g}")
    if outcome.min_density < 0.0:
        errors.append(f"min density {outcome.min_density:.3e} < 0")
    w = [r.w for r in outcome.records]
    rises = [i for i in range(1, len(w)) if not w[i] < w[i - 1]]
    if rises:
        errors.append(f"w does not decrease at samples {rises}")
    return errors


def check_heat(outcome: solver.SimOutcome, config: solver.SimConfig) -> list[str]:
    errors = []
    if outcome.status != "CompletedToTEnd":
        errors.append(f"status {outcome.status}, expected CompletedToTEnd")
    if outcome.min_density < 0.0:
        errors.append(f"min density {outcome.min_density:.3e} < 0")
    first = outcome.records[0]
    for r in outcome.records[1:]:
        if r.boundary_mass_fraction > 1e-4:
            continue
        expected = 6.0 * first.mass * r.t
        rel = abs((r.m2 - first.m2) - expected) / expected
        if rel > HEAT_M2_RTOL:
            errors.append(f"t={r.t:.3f}: m2 growth off 6Mt by {rel:.2e}")
    out = config.output_dir
    snaps = [f for f in os.listdir(out) if f.startswith("u_t") and f.endswith(".bin")]
    if len(snaps) != len(config.snapshot_times):
        errors.append(f"{len(snaps)} snapshots written, expected {len(config.snapshot_times)}")
    with open(os.path.join(out, "diagnostics.csv"), encoding="utf-8") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != len(outcome.records):
        errors.append(f"diagnostics.csv has {rows} rows, expected {len(outcome.records)}")
    return errors


# ---------------------------------------------------------------------------
# analysis battery
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class FluxCase:
    """A = S Q with S symmetric positive definite and Q orthogonal.

    The polar factors are then P = S and U = Q, so the hypothesis verdict,
    kappa and C_Bl follow from how Q and S were built.
    """

    matrix: np.ndarray
    expected_ok: bool
    expected_kappa: float
    s_eigs: np.ndarray  # eigenvalues of S = P
    chi: float
    mass: float
    m0_over_threshold: float  # 0.5 or 2.0: admissible or not, by construction
    m0: float  # initial moment at that share of C_Bl M^(n/(n-2))


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def expected_blowup_constant(s_eigs: np.ndarray, kappa: float, chi: float) -> float:
    """C_Bl from the known spectrum of P = S and kappa, independent of the package."""
    n = len(s_eigs)
    lam = 1.0 / s_eigs  # eigenvalues of P^(-1)
    omega = math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    bracket = (
        2.0 ** (1.0 - n / 2.0) * chi * kappa * lam.min() ** (n / 2.0 - 1.0)
        / (2.0 * lam.sum() * lam.max() ** (n / 2.0 - 1.0) * n * omega)
    )
    return bracket ** (2.0 / (n - 2.0))


def flux_batch(seed: int, count: int = MATRIX_BATCH) -> list[FluxCase]:
    """Matrices in 3..6 dimensions, half passing the hypothesis by construction.

    A failing matrix has one rotation angle past pi/2, or (odd n) a -1
    eigenvalue. Verdict-defining angles keep MATRIX_ANGLE_GAP from pi/2 and
    from pi, so neither route sits on a tolerance boundary.
    """
    rng = np.random.default_rng([seed, 1])
    gap = MATRIX_ANGLE_GAP
    cases = []
    for _ in range(count):
        n = int(rng.integers(3, 7))
        passing = bool(rng.integers(2))
        angles = rng.uniform(gap, math.pi / 2 - gap, n // 2)
        real = [1.0] * (n % 2)
        if not passing:
            if real and rng.integers(2):
                real = [-1.0]
            else:
                angles[0] = rng.uniform(math.pi / 2 + gap, math.pi - gap)
        canon = np.zeros((n, n))
        for j, a in enumerate(angles):
            c, s = math.cos(a), math.sin(a)
            canon[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[c, -s], [s, c]]
        if real:
            canon[-1, -1] = real[0]
        v = _random_orthogonal(rng, n)
        q = v @ canon @ v.T
        s_eigs = rng.uniform(0.5, 2.0, n)
        w = _random_orthogonal(rng, n)
        s = (w * s_eigs) @ w.T
        kappa = min([math.cos(a) for a in angles] + real + [1.0])
        chi = float(rng.uniform(0.5, 2.0))
        mass = float(rng.uniform(0.5, 2.0))
        share = float(rng.choice([0.5, 2.0]))
        m0 = (
            share * expected_blowup_constant(s_eigs, kappa, chi) * mass ** (n / (n - 2.0))
            if passing else 1.0
        )
        cases.append(FluxCase(s @ q, passing, kappa, s_eigs, chi, mass, share, m0))
    return cases


def gaussian_calibration_ratio(rho: float) -> float:
    """Closed form of ||u||_{3/2} / (M (M/m)^(1/2)) for widths (1, 1, rho)."""
    sig = (1.0, 1.0, rho)
    return (2.0 / 3.0) / math.sqrt(2.0 * math.pi) * math.sqrt(sum(s * s for s in sig)) / rho ** (1.0 / 3.0)


def run_analysis(cases: list[FluxCase]):
    """The timed battery; returns raw results for `check_analysis`."""
    suite = verify.run_suite("all")
    fluxes, verdicts = [], []
    for case in cases:
        fluxes.append(matrixflux.FluxTensor.from_matrix(case.matrix))
        verdicts.append(matrixflux.check_hypothesis(case.matrix))
    admissible = {
        i: thresholds.admissibility(case.m0, case.mass, flux, case.chi, flux.n)
        for i, (case, flux) in enumerate(zip(cases, fluxes))
        if flux.hypothesis_ok
    }
    calibration = thresholds.calibrate_cn()
    return suite, fluxes, verdicts, admissible, calibration


def check_analysis(cases: list[FluxCase], results) -> tuple[int, list[str]]:
    """Returns (operations attempted, one message per failed operation).

    Operations are the verify cases, the matrices, the admissibility calls
    and the calibration samples.
    """
    suite, fluxes, verdicts, admissible, (_, samples) = results
    errors = [f"verify {c.suite}/{c.name}: margin {c.margin:.3e}" for c in suite if not c.passed]
    for i, (case, flux, (ok, margin)) in enumerate(zip(cases, fluxes, verdicts)):
        if flux.hypothesis_ok != case.expected_ok or ok != case.expected_ok:
            errors.append(f"matrix {i}: verdicts {flux.hypothesis_ok}/{ok}, built {case.expected_ok}")
        elif max(abs(flux.kappa - case.expected_kappa), abs(margin - case.expected_kappa)) > KAPPA_ATOL:
            errors.append(f"matrix {i}: kappa {flux.kappa:.12g}/{margin:.12g}, built {case.expected_kappa:.12g}")
    for i, verdict in admissible.items():
        case = cases[i]
        if not case.expected_ok:
            continue  # the verdict mismatch is already counted
        c_bl = expected_blowup_constant(case.s_eigs, case.expected_kappa, case.chi)
        if verdict.admissible != (case.m0_over_threshold < 1.0) or abs(verdict.c_bl / c_bl - 1.0) > C_BL_RTOL:
            errors.append(
                f"admissibility {i}: admissible {verdict.admissible} at m0/threshold "
                f"{case.m0_over_threshold}, C_Bl {verdict.c_bl:.15g} vs {c_bl:.15g}"
            )
    for rho, ratio in samples:
        rel = abs(ratio / gaussian_calibration_ratio(rho) - 1.0)
        if rel > CALIBRATE_RTOL:
            errors.append(f"calibrate_cn rho={rho}: ratio off the closed form by {rel:.2e}")
    attempted = len(suite) + len(cases) + len(admissible) + len(samples)
    return attempted, errors
