"""Time integration of the tensorial chemotaxis system on a 3-D grid.

Each step splits the dynamics:

1. solve the free-space potential v of the current density (a step right
   after a diagnostics record reuses that record's potential, so each step
   costs one solve) and difference it into the drift b = chi * A grad(v) on
   the cell faces;
2. conservative first-order upwind advection of u by b (flux form, closed
   box walls);
3. diffusion over dt by the explicit 7-point stencil with reflecting walls.
   A step with nu = dt/h^2 above 1/6 is split into ceil(6 nu) equal
   sub-steps, so every application keeps nu <= 1/6: each one is exactly
   conservative and maps non-negative data to non-negative data, with no
   clamp. The CFL-limited steps of a collapse run take a single sub-step.

`step` and `run` share one drift kernel and one advance, so a single step
runs the code of a run's step. The step size adapts to the advective CFL
limit; runs stop at t_end, on the sup-norm blow-up trigger, or when dt
collapses below dt_min (both of the latter report NumericalBlowup with
evidence attached).
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, CflViolation, ConfigInvalid, SupportTooLarge
from .functionals import (
    DiagnosticsRecord,
    _require_finite,
    boundary_mass_fraction,
    compute_record,
    fill_dwdt_measured,
    write_csv,
)
from .matrixflux import FluxTensor, load_matrix, parse_matrix_inline
from .potential import (
    FAST_MIN_CELLS,
    DensityField,
    Grid3,
    _centered,
    ball_values,
    gaussian_values,
    load_field,
    save_field,
    solve_potential_fast,
    solve_potential_v,
)

logger = logging.getLogger(__name__)

# a step that would stop this close to t_end or to a snapshot time (relative
# to t_end) ends on it: the time accumulated by t += dt is off by round-off
_T_END_SNAP = 1e-12

_FLOAT_FIELDS = (
    "chi", "half_width", "t_end", "cfl", "dt_max", "dt_min", "blowup_factor", "epsilon",
)


@dataclass(frozen=True)
class InitialData:
    """Descriptor for the initial density: gaussian, ball, or snapshot file."""

    kind: str  # "gaussian" | "ball" | "file"
    mass: float = 1.0
    sigma: tuple[float, float, float] = (1.0, 1.0, 1.0)
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    radius: float = 1.0
    path: str | None = None


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description."""

    matrix: np.ndarray
    chi: float
    n_cells: int
    half_width: float
    initial: InitialData
    t_end: float
    epsilon: float | None = None
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-8
    blowup_factor: float = 1e3
    diagnostics_every: int = 10
    output_dir: str | None = None
    snapshot_times: tuple[float, ...] = ()

    def validate(self) -> None:
        ini = self.initial
        numbers = {name: getattr(self, name) for name in _FLOAT_FIELDS}
        numbers.update(matrix=self.matrix, snapshot_times=self.snapshot_times)
        numbers.update(mass=ini.mass, sigma=ini.sigma, center=ini.center, radius=ini.radius)
        for name, value in numbers.items():
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigInvalid(f"{name} must be finite, got {value}")
        if self.chi < 0.0:
            raise ConfigInvalid(f"chi must be >= 0, got {self.chi}")
        if not (self.t_end > 0.0):
            raise ConfigInvalid(f"t_end must be positive, got {self.t_end}")
        if not (0.0 < self.cfl < 1.0):
            raise ConfigInvalid(f"cfl must lie in (0, 1), got {self.cfl}")
        if not (self.dt_min < self.dt_max):
            raise ConfigInvalid(f"need dt_min < dt_max, got {self.dt_min} >= {self.dt_max}")
        if not (self.blowup_factor > 1.0):
            raise ConfigInvalid(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        if self.diagnostics_every < 1:
            raise ConfigInvalid("diagnostics_every must be >= 1")
        if ini.kind not in ("gaussian", "ball", "file"):
            raise ConfigInvalid(f"unknown initial data kind {ini.kind!r}")
        if ini.kind == "file" and ini.path is None:
            raise ConfigInvalid("init = file needs an init_file")
        if self.epsilon is not None and self.epsilon <= 0.0:
            raise ConfigInvalid(f"epsilon must be positive, got {self.epsilon}")
        shape = np.shape(self.matrix)
        if shape != (3, 3):
            raise ConfigInvalid(f"matrix must be 3x3 for a grid run, got shape {shape}")
        outside = [t for t in self.snapshot_times if not 0.0 < t <= self.t_end]
        if outside:
            raise ConfigInvalid(f"snapshot times must lie in (0, t_end], got {outside}")
        if self.n_cells < FAST_MIN_CELLS:
            raise ConfigInvalid(f"n_cells must be >= {FAST_MIN_CELLS}, got {self.n_cells}")
        try:
            Grid3(self.n_cells, self.half_width)
        except ValueError as exc:
            raise ConfigInvalid(str(exc)) from exc

    @property
    def grid(self) -> Grid3:
        return Grid3(self.n_cells, self.half_width)


@dataclass
class SimOutcome:
    """Result of a run: terminal status, final time, and diagnostics."""

    status: str  # "CompletedToTEnd" | "NumericalBlowup" | "Aborted"
    t_final: float
    records: list[DiagnosticsRecord]
    steps: int
    dt_at_stop: float
    sup_growth_factor: float
    min_density: float = 0.0  # smallest cell value seen across all steps
    message: str = ""
    # time of the first record whose moments are not trusted (moments_valid)
    moments_invalid_t: float | None = None
    # steps whose dt each limit set (dt_max, b_l1, rate, land), wall s per phase
    dt_limits: dict[str, int] = field(default_factory=dict)
    phase_s: dict[str, float] = field(default_factory=dict)


def make_initial_data(
    initial: InitialData, grid: Grid3, epsilon: float | None = None
) -> DensityField:
    """Sample the initial density at cell centers.

    A rescale factor applies eps^(-3) u0(x/eps) by analytic re-evaluation of
    the descriptor (widths, radius and center scale by eps); snapshot files
    cannot be rescaled this way.
    """
    if initial.kind == "file":
        if epsilon is not None:
            raise ConfigInvalid("epsilon rescaling is not supported for file initial data")
        vals, fgrid, _ = load_field(initial.path)
        if fgrid.n_cells != grid.n_cells or abs(fgrid.half_width - grid.half_width) > 1e-12:
            raise ConfigInvalid(
                f"snapshot grid ({fgrid.n_cells}, {fgrid.half_width}) does not match "
                f"configured grid ({grid.n_cells}, {grid.half_width})"
            )
    else:
        if initial.mass <= 0.0:
            raise ConfigInvalid(f"initial mass must be positive, got {initial.mass}")
        eps = 1.0 if epsilon is None else epsilon
        center = np.asarray(initial.center, dtype=float) * eps
        if initial.kind == "gaussian":
            sig = np.asarray(initial.sigma, dtype=float) * eps
            if np.any(sig <= 0.0):
                raise ConfigInvalid(f"gaussian widths must be positive, got {tuple(sig)}")
            vals = gaussian_values(grid, initial.mass, sig, center)
        else:  # ball
            rad = initial.radius * eps
            if rad <= 0.0:
                raise ConfigInvalid(f"ball radius must be positive, got {rad}")
            vals = ball_values(grid, initial.mass, rad, center)
    u = DensityField(grid, vals)
    frac = boundary_mass_fraction(u)
    if frac >= 1e-6:
        raise SupportTooLarge(
            f"initial data leaks into the boundary shell (fraction {frac:.3e} >= 1e-6); "
            "enlarge the box or shrink the data"
        )
    return u


def _drift(
    v: np.ndarray | None, flux: FluxTensor, chi: float, h: float
) -> tuple[list[np.ndarray] | None, float, float]:
    """Face velocities of b = chi A grad(v), the largest |b|_1, and the outflow rate.

    On a face normal to axis ax, D_ax v is the compact difference across it
    and each other D_o v the mean of the two cells' centred differences
    (Chertock & Kurganov, Numer. Math. 111, 2008). A cell's speed on an axis
    is the mean of its two faces, a wall face being 0. With chi = 0 there is
    no drift (v may be None): no faces, both rates 0.
    """
    if chi == 0.0:
        return None, 0.0, 0.0
    a, grad = flux.a, [_centered(v, o, h) for o in range(3)]
    bfaces, speed = [], np.zeros_like(v)  # speed: twice the summed |cell speed|
    for ax in range(3):
        vm, sm = np.moveaxis(v, ax, 0), np.moveaxis(speed, ax, 0)
        bf = (chi * a[ax, ax] / h) * (vm[1:] - vm[:-1])
        for o in np.flatnonzero(a[ax]):  # zero entries of A are skipped
            if o != ax:
                gm = np.moveaxis(grad[o], ax, 0)
                bf += (0.5 * chi * a[ax, o]) * (gm[1:] + gm[:-1])
        sm[1:-1] += np.abs(bf[1:] + bf[:-1])
        sm[0] += np.abs(bf[0])
        sm[-1] += np.abs(bf[-1])
        bfaces.append(bf)
    return bfaces, 0.5 * float(speed.max()), _outflow_rate(bfaces, v.shape)


def _outflow_rate(bfaces: list[np.ndarray], shape: tuple[int, ...]) -> float:
    """Max over cells of the summed outgoing face speeds (exact positivity rate)."""
    out = np.zeros(shape)
    for ax, bf in enumerate(bfaces):
        om = np.moveaxis(out, ax, 0)
        om[:-1] += np.maximum(bf, 0.0)  # outflow through the right face
        om[1:] += np.maximum(-bf, 0.0)  # outflow through the left face
    return float(out.max())


def _advect(u: np.ndarray, bfaces: list[np.ndarray], dt: float, h: float) -> np.ndarray:
    """Flux-form upwind transport; wall faces carry no flux, so mass telescopes."""
    un = u.copy()
    for ax, bf in enumerate(bfaces):
        ua = np.moveaxis(u, ax, 0)
        flux = np.where(bf > 0.0, ua[:-1], ua[1:]) * bf
        duo = np.moveaxis(un, ax, 0)
        duo[:-1] -= flux * (dt / h)
        duo[1:] += flux * (dt / h)
    return un


def _diffuse(values: np.ndarray, grid: Grid3, dt: float) -> np.ndarray:
    """Heat flow over dt by explicit 7-point sub-steps, each with nu <= 1/6."""
    h = grid.h
    nu = dt / (h * h)
    substeps = max(1, math.ceil(6.0 * nu))
    if nu / substeps > 1.0 / 6.0:  # 6.0 * nu rounded down to an integer
        substeps += 1
    nu /= substeps
    for _ in range(substeps):
        lap = -6.0 * values
        for ax in range(3):
            ua = np.moveaxis(values, ax, 0)
            la = np.moveaxis(lap, ax, 0)
            la[1:] += ua[:-1]
            la[0] += ua[0]
            la[:-1] += ua[1:]
            la[-1] += ua[-1]
        values = values + nu * lap
    return values


def _advance(
    values: np.ndarray, bfaces: list[np.ndarray] | None, grid: Grid3, dt: float
) -> np.ndarray:
    """Upwind advection by the drift faces (None: no drift), then diffusion, over dt."""
    adv = values if bfaces is None else _advect(values, bfaces, dt, grid.h)
    return _diffuse(adv, grid, dt)


def step(u: DensityField, flux: FluxTensor, chi: float, dt: float) -> DensityField:
    """One advection-diffusion step of size dt, by the kernel that `run` uses.

    Raises CflViolation when dt exceeds the exact positivity limit of the
    upwind update (summed outgoing face speeds per cell times dt above h).
    """
    if not 0.0 < dt < math.inf:
        raise CflViolation(f"dt must be positive and finite, got {dt}")
    _require_finite(chi=chi)
    if flux.a.shape != (3, 3):
        raise BadParameter(f"flux must be 3x3 for a grid step, got shape {flux.a.shape}")
    h = u.grid.h
    bfaces, _, rate = _drift(None if chi == 0.0 else solve_potential_v(u), flux, chi, h)
    if dt * rate > h:
        raise CflViolation(
            f"dt = {dt:.3e} exceeds the advective limit {h / rate:.3e} (cfl 1.0)"
        )
    return DensityField(u.grid, _advance(u.values, bfaces, u.grid, dt))


def run(config: SimConfig) -> SimOutcome:
    """Integrate the configured experiment; write artifacts if output_dir is set."""
    config.validate()
    flux = FluxTensor.from_matrix(config.matrix)
    grid = config.grid
    h = grid.h
    u = make_initial_data(config.initial, grid, config.epsilon)
    sup0 = float(u.values.max())
    if sup0 <= 0.0:
        raise ConfigInvalid("initial data is identically zero")

    records: list[DiagnosticsRecord] = []
    pending_snapshots = sorted(config.snapshot_times)
    t = 0.0
    steps = 0
    dt = config.dt_max
    status = "CompletedToTEnd"
    message = ""
    min_density = float(u.values.min())
    dt_limits = dict.fromkeys(("dt_max", "b_l1", "rate", "land"), 0)
    phase_s = dict.fromkeys(("potential", "drift", "advance", "record", "output"), 0.0)
    lap_start = time.perf_counter()

    def _lap(phase: str) -> None:  # charge the time since the last lap to phase
        nonlocal lap_start
        now = time.perf_counter()
        phase_s[phase] += now - lap_start
        lap_start = now

    def _record(state: DensityField, at: float) -> np.ndarray:
        pot = solve_potential_fast(state)
        records.append(compute_record(state, flux, config.chi, at, pot=pot))
        _lap("record")
        return pot.v

    if config.output_dir:
        os.makedirs(config.output_dir, exist_ok=True)
    # the potential of the state last recorded; the next drift reuses it
    v = _record(u, t)
    logger.info(
        "run start: %d^3 grid, h=%.4g, chi=%.6g, sup0=%.6g, mass=%.12g",
        grid.n_cells, h, config.chi, sup0, u.mass,
    )

    while t < config.t_end:
        if v is None and config.chi != 0.0:
            v = solve_potential_v(u)
        _lap("potential")
        bfaces, b_l1, rate = _drift(v, flux, config.chi, h)
        _lap("drift")
        # a zero speed sets no limit; of equal limits the first is counted
        limits = {"dt_max": config.dt_max}
        for name, speed in (("b_l1", b_l1), ("rate", rate)):
            if speed > 0.0:
                limits[name] = config.cfl * h / speed
        limit = min(limits, key=limits.get)
        dt = limits[limit]
        if dt < config.dt_min:
            status = "NumericalBlowup"
            message = f"time step collapsed below dt_min ({dt:.3e} < {config.dt_min:.3e})"
            break
        # the step ends on the next snapshot time, or on t_end, if it reaches it
        stop = pending_snapshots[0] if pending_snapshots else config.t_end
        remaining = stop - t
        land = dt >= remaining - _T_END_SNAP * config.t_end
        if land:
            dt, limit = remaining, "land"

        vals = _advance(u.values, bfaces, grid, dt)
        if not np.all(np.isfinite(vals)):
            status = "Aborted"
            message = "non-finite values detected in the density field"
            logger.error("aborting at t=%.6g: %s", t, message)
            break
        u = DensityField(grid, vals)
        v = None
        min_density = min(min_density, float(vals.min()))
        t = stop if land else t + dt
        steps += 1
        dt_limits[limit] += 1
        _lap("advance")

        while pending_snapshots and t >= pending_snapshots[0]:
            if config.output_dir:
                path = os.path.join(config.output_dir, f"u_t{t:.6f}.bin")
                save_field(u.values, grid, path, "u", t)
            pending_snapshots.pop(0)
        _lap("output")
        if steps % config.diagnostics_every == 0:
            v = _record(u, t)
        sup = float(u.values.max())
        if sup >= config.blowup_factor * sup0:
            status = "NumericalBlowup"
            message = (
                f"sup norm reached {sup / sup0:.1f} x initial "
                f"(threshold {config.blowup_factor:g})"
            )
            break

    if not records or records[-1].t < t:
        _record(u, t)
    fill_dwdt_measured(records)
    growth = float(u.values.max()) / sup0
    outcome = SimOutcome(
        status=status,
        t_final=t,
        records=records,
        steps=steps,
        dt_at_stop=dt,
        sup_growth_factor=growth,
        min_density=min_density,
        message=message,
        moments_invalid_t=next((r.t for r in records if not r.moments_valid), None),
        dt_limits=dt_limits,
        phase_s=phase_s,
    )
    logger.info(
        "run end: %s at t=%.6g after %d steps (growth %.1fx, dt %.3e; dt limits %s)",
        status, t, steps, growth, dt, " ".join(f"{k}={c}" for k, c in dt_limits.items()),
    )
    if config.output_dir:
        write_csv(records, os.path.join(config.output_dir, "diagnostics.csv"))
        _lap("output")
        write_outcome(outcome, os.path.join(config.output_dir, "outcome.txt"))
    return outcome


def write_outcome(outcome: SimOutcome, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"status={outcome.status}\n")
        fh.write(f"t_final={outcome.t_final:.12e}\n")
        fh.write(f"steps={outcome.steps}\n")
        fh.write(f"dt_at_stop={outcome.dt_at_stop:.12e}\n")
        fh.write(f"sup_growth_factor={outcome.sup_growth_factor:.12e}\n")
        if outcome.message:
            fh.write(f"message={outcome.message}\n")
        if outcome.moments_invalid_t is not None:
            fh.write(f"moments_invalid_t={outcome.moments_invalid_t:.12e}\n")
        fh.writelines(f"dt_limit_{key}={count}\n" for key, count in outcome.dt_limits.items())
        fh.writelines(f"phase_{key}_s={secs:.6f}\n" for key, secs in outcome.phase_s.items())


# ---------------------------------------------------------------------------
# flat key=value config files ('#' comments); unknown keys are rejected
# ---------------------------------------------------------------------------

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


# the converter of each optional key; a key left out takes the dataclass default
_INITIAL_KEYS = {"mass": float, "radius": float, "sigma": _floats, "center": _floats}
_SIM_KEYS = {
    **dict.fromkeys(_FLOAT_FIELDS, float), "n_cells": int, "diagnostics_every": int,
    "output_dir": str, "snapshot_times": _floats,
}
_CONFIG_KEYS = {"matrix", "matrix_file", "init", "init_file", *_INITIAL_KEYS, *_SIM_KEYS}
_REQUIRED_KEYS = ("init", "chi", "n_cells", "half_width", "t_end")


def parse_config(text: str, base_dir: str = ".") -> SimConfig:
    kv: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigInvalid(f"line {lineno}: expected key=value, got {stripped!r}")
        key, val = stripped.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigInvalid(f"line {lineno}: unknown key {key!r}")
        kv[key] = val.strip()

    try:
        if "matrix" in kv:
            matrix = parse_matrix_inline(kv["matrix"])
        elif "matrix_file" in kv:
            matrix = load_matrix(os.path.join(base_dir, kv["matrix_file"]))
        else:
            raise ConfigInvalid("config needs 'matrix' or 'matrix_file'")
        for key in _REQUIRED_KEYS:
            if key not in kv:
                raise ConfigInvalid(f"missing required key {key!r}")
        ini = {key: conv(kv[key]) for key, conv in _INITIAL_KEYS.items() if key in kv}
        if "sigma" in ini:
            if len(ini["sigma"]) == 1:
                ini["sigma"] *= 3
            elif len(ini["sigma"]) != 3:
                raise ConfigInvalid("sigma must have 1 or 3 components")
        if "center" in ini and len(ini["center"]) != 3:
            raise ConfigInvalid("center must have 3 components")
        if "init_file" in kv:
            ini["path"] = os.path.join(base_dir, kv["init_file"])
        fields = {key: conv(kv[key]) for key, conv in _SIM_KEYS.items() if key in kv}
        config = SimConfig(matrix=matrix, initial=InitialData(kind=kv["init"], **ini), **fields)
    except (ValueError, KeyError, OSError) as exc:  # OSError: an unreadable matrix_file
        raise ConfigInvalid(str(exc)) from exc
    config.validate()
    return config


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))
