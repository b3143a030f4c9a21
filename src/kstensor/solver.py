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

`step` and `run` share one drift kernel, one advection and one diffusion,
so a step runs a run's code. Each cuts the grid along axis 0, a block per usable
CPU (one below a size floor), and a block runs every axis for its own rows,
reading a halo row of its read-only inputs at each cut: one hand-off to the pool
per kernel, two for the drift, and the same bits for any block count.
The step size adapts to the advective CFL limit; runs stop at t_end, on the
sup-norm blow-up trigger, or when dt collapses below dt_min (both of the
latter report NumericalBlowup with evidence attached).
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
from .matrixflux import FluxTensor, read_matrix
from .potential import (
    FAST_MIN_CELLS,
    DensityField,
    Grid3,
    _centered,
    _in_blocks,
    _step_blocks,
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

    def __post_init__(self) -> None:
        if self.kind not in ("gaussian", "ball", "file"):
            raise ConfigInvalid(f"unknown initial data kind {self.kind!r}")
        if self.kind == "file" and self.path is None:
            raise ConfigInvalid("init = file needs an init_file")
        for name in ("mass", "sigma", "center", "radius"):  # whatever the kind
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise ConfigInvalid(f"{name} must be finite, got {value}")
            if name in ("sigma", "center") and np.shape(value) != (3,):
                raise ConfigInvalid(f"{name} must have 3 components, got {value}")
            if name != "center" and not np.all(np.greater(value, 0.0)):
                raise ConfigInvalid(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class SimConfig:
    """Full experiment description; an invalid one cannot be built (ConfigInvalid)."""

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

    def __post_init__(self) -> None:
        for name in (*_FLOAT_FIELDS, "matrix", "snapshot_times"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ConfigInvalid(f"{name} must be finite, got {value}")
        if self.chi < 0.0:
            raise ConfigInvalid(f"chi must be >= 0, got {self.chi}")
        if not (self.t_end > 0.0):
            raise ConfigInvalid(f"t_end must be positive, got {self.t_end}")
        if not (0.0 < self.cfl < 1.0):
            raise ConfigInvalid(f"cfl must lie in (0, 1), got {self.cfl}")
        if not (0.0 < self.dt_min < self.dt_max):
            raise ConfigInvalid(f"need 0 < dt_min < dt_max, got {self.dt_min} and {self.dt_max}")
        if not (self.blowup_factor > 1.0):
            raise ConfigInvalid(f"blowup_factor must exceed 1, got {self.blowup_factor}")
        if self.diagnostics_every < 1:
            raise ConfigInvalid("diagnostics_every must be >= 1")
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
    # steps whose dt each limit set (dt_max, rate, land), wall s per phase
    dt_limits: dict[str, int] = field(default_factory=dict)
    phase_s: dict[str, float] = field(default_factory=dict)
    dt_stats: dict[str, float] = field(default_factory=dict)  # over the steps taken


def make_initial_data(
    initial: InitialData, grid: Grid3, epsilon: float | None = None
) -> DensityField:
    """Sample the initial density at cell centers; the descriptor checked its values when built.

    A rescale factor 0 < eps < inf applies eps^(-3) u0(x/eps) by analytic re-evaluation of
    the descriptor (widths, radius and center scale by eps); snapshot files cannot be
    rescaled this way. Raises ConfigInvalid for a snapshot on another grid or a sampled mass
    not positive and finite, and SupportTooLarge for data that leaks into the boundary shell.
    """
    if epsilon is not None and not 0.0 < epsilon < math.inf:
        raise ConfigInvalid(f"epsilon must be positive and finite, got {epsilon}")
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
        eps = 1.0 if epsilon is None else epsilon
        center = np.asarray(initial.center, dtype=float) * eps
        if initial.kind == "gaussian":
            sig = np.asarray(initial.sigma, dtype=float) * eps
            vals = gaussian_values(grid, initial.mass, sig, center)
        else:  # ball
            vals = ball_values(grid, initial.mass, initial.radius * eps, center)
    u = DensityField(grid, vals)
    with np.errstate(over="ignore"):  # a sum past the float range reads inf, rejected here
        mass = u.mass
    if not 0.0 < mass < math.inf:
        raise ConfigInvalid(f"initial data must have a positive finite mass on the grid, got {mass}")
    frac = boundary_mass_fraction(u)
    if frac >= 1e-6:
        raise SupportTooLarge(
            f"initial data leaks into the boundary shell (fraction {frac:.3e} >= 1e-6); "
            "enlarge the box or shrink the data"
        )
    return u


def _drift(
    v: np.ndarray | None, flux: FluxTensor, chi: float, h: float
) -> tuple[list[np.ndarray] | None, float]:
    """Face velocities of b = chi A grad(v) and the outflow (exact positivity) rate.

    On a face normal to axis ax, D_ax v is the compact difference across it
    and each other D_o v the mean of the two cells' centred differences
    (Chertock & Kurganov, Numer. Math. 111, 2008). With chi = 0 there is no
    drift (v may be None): no faces, rate 0.
    """
    if chi == 0.0:
        return None, 0.0
    a, grad, out, n = flux.a, [np.empty_like(v) for _ in range(3)], np.zeros_like(v), len(v)
    bfaces = [np.empty_like(np.moveaxis(v, ax, 0)[1:]) for ax in range(3)]  # face axis first

    def centred(lo: int, hi: int) -> None:
        _centered(v, 0, h, grad[0], lo, hi)
        for o in (1, 2):
            _centered(v[lo:hi], o, h, grad[o][lo:hi])

    def speeds(ax: int, lo: int, hi: int, bm: np.ndarray) -> np.ndarray:  # faces normal to ax
        np.multiply(chi * a[ax, ax] / h, np.diff(np.moveaxis(v[lo:hi], ax, 0), axis=0), out=bm)
        for o in np.flatnonzero(a[ax]):  # zero entries of A are skipped
            if o != ax:
                gm = np.moveaxis(grad[o][lo:hi], ax, 0)
                bm += (0.5 * chi * a[ax, o]) * (gm[1:] + gm[:-1])
        return bm

    def faces(lo: int, hi: int) -> float:
        last = min(hi, n - 1)  # x faces lo..last-1 are this block's; face lo-1 is the one before's
        out[lo:last] += np.maximum(speeds(0, lo, last + 1, bfaces[0][lo:last]), 0.0)  # right face
        if lo > 0:
            out[lo] += np.maximum(-speeds(0, lo - 1, lo + 1, np.empty_like(v[:1]))[0], 0.0)
        out[lo + 1 : hi] += np.maximum(-bfaces[0][lo : hi - 1], 0.0)  # and the left face
        for ax in (1, 2):
            bm, om = speeds(ax, lo, hi, bfaces[ax][:, lo:hi]), np.moveaxis(out[lo:hi], ax, 0)
            om[:-1] += np.maximum(bm, 0.0)
            om[1:] += np.maximum(-bm, 0.0)
        return out[lo:hi].max()

    _in_blocks(centred, n, _step_blocks(v.size))
    return bfaces, float(max(_in_blocks(faces, n, _step_blocks(v.size))))


def _advect(u: np.ndarray, bfaces: list[np.ndarray] | None, dt: float, h: float) -> np.ndarray:
    """Flux-form upwind transport; wall faces carry no flux, so mass telescopes.

    With no drift faces (None) u is returned as it is.
    """
    if bfaces is None:
        return u
    un, n = np.empty_like(u), len(u)

    def transport(lo: int, hi: int) -> None:
        un[lo:hi] = u[lo:hi]
        first, last = max(lo - 1, 0), min(hi, n - 1)  # x faces first..last-1 touch rows lo..hi-1
        passes = [(u[first : last + 1], bfaces[0][first:last], un[lo:last], un[max(lo, 1) : hi])]
        for ax in (1, 2):
            ua, duo = np.moveaxis(u[lo:hi], ax, 0), np.moveaxis(un[lo:hi], ax, 0)
            passes.append((ua, bfaces[ax][:, lo:hi], duo[:-1], duo[1:]))
        for ua, bf, right, left in passes:  # a cell loses its right face's flux, gains its left's
            flux = np.where(bf > 0.0, ua[:-1], ua[1:]) * bf * (dt / h)
            right -= flux[len(flux) - len(right) :]
            left += flux[: len(left)]

    _in_blocks(transport, n, _step_blocks(u.size))
    return un


def _diffuse(values: np.ndarray, grid: Grid3, dt: float) -> np.ndarray:
    """Heat flow over dt by explicit 7-point sub-steps, each with nu <= 1/6."""
    h, n = grid.h, grid.n_cells
    nu = dt / (h * h)
    substeps = max(1, math.ceil(6.0 * nu))
    if nu / substeps > 1.0 / 6.0:  # 6.0 * nu rounded down to an integer
        substeps += 1
    nu /= substeps

    def heat(lo: int, hi: int) -> None:
        ua, la = values[lo:hi], np.multiply(values[lo:hi], -6.0, out=lap[lo:hi])
        for ax in range(3):  # x neighbours across the cuts: rows lo-1, hi; a wall row is its own
            ub, lb = np.moveaxis(ua, ax, 0), np.moveaxis(la, ax, 0)
            lb[1:] += ub[:-1]
            lb[0] += values[max(lo - 1, 0)] if ax == 0 else ub[0]
            lb[:-1] += ub[1:]
            lb[-1] += values[min(hi, n - 1)] if ax == 0 else ub[-1]
        la *= nu  # lap becomes values + nu * lap, in place
        la += ua

    for _ in range(substeps):
        lap = np.empty_like(values)
        _in_blocks(heat, n, _step_blocks(values.size))
        values = lap
    return values


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
    bfaces, rate = _drift(None if chi == 0.0 else solve_potential_v(u), flux, chi, h)
    if dt * rate > h:
        raise CflViolation(
            f"dt = {dt:.3e} exceeds the advective limit {h / rate:.3e} (cfl 1.0)"
        )
    return DensityField(u.grid, _diffuse(_advect(u.values, bfaces, dt, h), u.grid, dt))


def run(config: SimConfig) -> SimOutcome:
    """Integrate the configured experiment; write artifacts if output_dir is set."""
    flux = FluxTensor.from_matrix(config.matrix)
    grid = config.grid
    h = grid.h
    u = make_initial_data(config.initial, grid, config.epsilon)
    sup0 = u.max_value

    records: list[DiagnosticsRecord] = []
    pending_snapshots = sorted(config.snapshot_times)
    t = 0.0
    dt, limit = config.dt_max, "dt_max"
    status = "CompletedToTEnd"
    message = ""
    min_density = u.min_value
    dt_limits, dts = dict.fromkeys(("dt_max", "rate", "land"), 0), []
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
        logger.info("record %d: step %d, t=%.6g, dt=%.3e (%s), growth %.3fx, %.3f s", len(records) - 1,
                    len(dts), at, dt, limit, state.max_value / sup0, sum(phase_s.values()))
        return pot.v

    if config.output_dir:
        os.makedirs(config.output_dir, exist_ok=True)
    logger.info(
        "run start: %d^3 grid, h=%.4g, chi=%.6g, sup0=%.6g, mass=%.12g, %d row blocks",
        grid.n_cells, h, config.chi, sup0, u.mass, _step_blocks(grid.n_cells ** 3),
    )
    # the potential of the state last recorded; the next drift reuses it
    v = _record(u, t)

    while t < config.t_end:
        if v is None and config.chi != 0.0:
            v = solve_potential_v(u)
        _lap("potential")
        bfaces, rate = _drift(v, flux, config.chi, h)
        _lap("drift")
        # cfl < 1 scales the exact positivity limit; a zero rate sets no limit
        dt, limit = config.dt_max, "dt_max"
        if rate > 0.0 and config.cfl * h / rate < dt:
            dt, limit = config.cfl * h / rate, "rate"
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

        vals = _diffuse(_advect(u.values, bfaces, dt, h), grid, dt)
        try:  # DensityField rejects a non-finite value (the step keeps u >= 0)
            u = DensityField(grid, vals)
        except ValueError as exc:
            status, message = "Aborted", str(exc)
            logger.error("aborting at t=%.6g: %s", t, message)
            break
        v = bfaces = None  # freed before a record's full solve
        min_density = min(min_density, u.min_value)
        t = stop if land else t + dt
        dt_limits[limit] += 1
        dts.append(dt)
        _lap("advance")

        while pending_snapshots and t >= pending_snapshots[0]:
            if config.output_dir:
                path = os.path.join(config.output_dir, f"u_t{t:.6f}.bin")
                save_field(u.values, grid, path, t)
            pending_snapshots.pop(0)
        _lap("output")
        if len(dts) % config.diagnostics_every == 0:
            v = _record(u, t)
        if u.max_value >= config.blowup_factor * sup0:
            status = "NumericalBlowup"
            message = (
                f"sup norm reached {u.max_value / sup0:.1f} x initial "
                f"(threshold {config.blowup_factor:g})"
            )
            break

    if records[-1].t < t:
        _record(u, t)
    fill_dwdt_measured(records)
    growth = u.max_value / sup0
    outcome = SimOutcome(
        status=status,
        t_final=t,
        records=records,
        steps=len(dts),
        dt_at_stop=dt,
        sup_growth_factor=growth,
        min_density=min_density,
        message=message,
        moments_invalid_t=next((r.t for r in records if not r.moments_valid), None),
        dt_limits=dt_limits,
        phase_s=phase_s,
        dt_stats=dict(zip(("dt_min", "dt_median", "dt_max"),
                          np.quantile(dts, [0, 0.5, 1]).tolist() if dts else ())),
    )
    logger.info(
        "run end: %s at t=%.6g after %d steps (growth %.1fx, dt %.3e; dt limits %s; %s)",
        status, t, len(dts), growth, dt, " ".join(f"{k}={c}" for k, c in dt_limits.items()),
        " ".join(f"{k}={x:.3e}" for k, x in outcome.dt_stats.items()),
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
        fh.writelines(f"{key}={dt:.12e}\n" for key, dt in outcome.dt_stats.items())


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
        path = kv.get("matrix_file")
        matrix = read_matrix(kv.get("matrix"), path and os.path.join(base_dir, path))
        for key in _REQUIRED_KEYS:
            if key not in kv:
                raise ConfigInvalid(f"missing required key {key!r}")
        ini = {key: conv(kv[key]) for key, conv in _INITIAL_KEYS.items() if key in kv}
        if len(ini.get("sigma", ())) == 1:  # one width for all three axes
            ini["sigma"] *= 3
        if "init_file" in kv:
            ini["path"] = os.path.join(base_dir, kv["init_file"])
        fields = {key: conv(kv[key]) for key, conv in _SIM_KEYS.items() if key in kv}
        return SimConfig(matrix=matrix, initial=InitialData(kind=kv["init"], **ini), **fields)
    except (ValueError, KeyError, OSError) as exc:  # OSError: an unreadable matrix_file
        raise ConfigInvalid(str(exc)) from exc


def load_config(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base_dir=os.path.dirname(os.path.abspath(path)))
