"""Scalar functionals of the density field used by the blow-up argument.

Everything here is a midpoint-rule cell sum over the grid: mass M, the
second moment m = integral of u |x|^2, the weighted moment
w = integral of u (x . P^(-1) x), the interaction integral
J = double integral of u(x) u(y) |x-y|^(2-n), Lebesgue norms, the measured
gradient bound, and the two sides of the moment-evolution inequality:

    dw/dt  =  2 Tr(P^(-1)) M + 2 chi * integral of x . (U grad v) u     (identity)
    dw/dt <=  2 Tr(P^(-1)) M - c(chi, kappa, M, n) lambda_min^(n/2-1) w^(1-n/2)

Records of all tracked quantities serialize as CSV rows with a fixed column
order so downstream tooling can rely on positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NonPositiveMoment, NotSPD, ZeroField
from .matrixflux import FluxTensor
from .potential import (
    DensityField,
    PotentialField,
    _displacements,
    _pair_blocks,
    solve_potential_fast,
    unit_ball_volume,
)

# analytic inequalities get a pure round-off allowance; chains that involve
# the discretized interaction term carry a separate few-percent slack in tests
ANALYTIC_SLACK = 1e-6


def _require_finite(**values: float) -> None:
    """BadParameter naming the first of `values` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise BadParameter(f"{name} must be finite, got {value}")


def weighted_moment(u: DensityField, b: np.ndarray) -> float:
    """Integral of u(x) (x . B x) for a symmetric positive-definite B."""
    b = np.asarray(b, dtype=float)
    if b.shape != (3, 3) or not np.isfinite(b).all() or (
        np.linalg.norm(b - b.T) > 1e-12 * max(np.linalg.norm(b), 1.0)
    ):
        raise NotSPD("weight matrix must be finite and symmetric 3x3")
    eigs = np.linalg.eigvalsh(0.5 * (b + b.T))
    if eigs[0] <= 0.0:
        raise NotSPD(f"weight matrix must be positive definite (min eig {eigs[0]:.3e})")
    x, y, z = u.grid.meshes()
    quad = (
        b[0, 0] * x * x + b[1, 1] * y * y + b[2, 2] * z * z
        + 2.0 * (b[0, 1] * x * y + b[0, 2] * x * z + b[1, 2] * y * z)
    )
    return float(u.grid.cell_volume * np.sum(u.values * quad))


def second_moment(u: DensityField) -> float:
    """Integral of u(x) |x|^2 (weighted moment with B = I)."""
    return float(u.grid.cell_volume * np.sum(u.values * u.grid.radius_squared()))


def lq_norm(u: DensityField, q: float) -> float:
    """Lebesgue norm (h^3 sum u^q)^(1/q) for q >= 1."""
    if not 1.0 <= q < math.inf:
        raise BadParameter(f"q must be finite and >= 1, got {q}")
    return float((u.grid.cell_volume * np.sum(u.values**q)) ** (1.0 / q))


def boundary_mass_fraction(u: DensityField) -> float:
    """Mass in the outermost 2-cell shell divided by the total mass."""
    total = u.values.sum()
    if total <= 0.0:
        return 0.0
    interior = u.values[2:-2, 2:-2, 2:-2].sum()
    return float(max((total - interior) / total, 0.0))


def interaction_integral(u: DensityField, pot: PotentialField | None = None) -> float:
    """J = double integral of u(x) u(y) |x-y|^(2-n) via J = n(n-2) omega_n * (u, v).

    Uses the fast potential solver unless a solved PotentialField is supplied.
    """
    if pot is None:
        pot = solve_potential_fast(u)
    n = 3
    scale = n * (n - 2) * unit_ball_volume(n)
    return float(scale * u.grid.cell_volume * np.sum(u.values * pot.v))


def interaction_symmetrized_direct(u: DensityField, u_orth: np.ndarray) -> float:
    """Direct evaluation of -(1/(n omega_n)) * sum over pairs of d.U d / |d|^n * u u.

    This is the symmetrized (exchange x and y) form of the advective moment
    term, used to cross-check the identity route. Only the symmetric part of
    U contributes to the quadratic form. O(N^2); coarse grids only.
    """
    n = 3
    grid = u.grid
    uf = u.values.ravel()
    # pairs with a (near-)zero factor contribute nothing: restrict to support
    support = np.flatnonzero(uf > 1e-14 * uf.max())
    uf = uf[support]
    s_mat = 0.5 * (np.asarray(u_orth, dtype=float) + np.asarray(u_orth, dtype=float).T)
    # d . S d / |d|^3 on the displacement table: even under exchange, 0 at d = 0
    d, r = _displacements(grid.n_cells)
    table = np.einsum("ik,ij,jk->k", d, s_mat, d) / (grid.h * r**3)
    total = 0.0
    for s, e, blk in _pair_blocks(support, grid.n_cells, table):
        # the block's square holds both orders of its pairs, the rest one order
        rows = uf[s:e]
        total += 2.0 * float(rows @ (blk @ uf[s:])) - float(rows @ (blk[:, : e - s] @ rows))
    return -total * grid.cell_volume**2 / (n * unit_ball_volume(n))


def biler_check(
    u: DensityField, pot: PotentialField | None = None
) -> tuple[float, float, bool]:
    """Mass-moment-interaction inequality M^(n/2+1) <= J (2m)^(n/2-1), n = 3.

    Returns (lhs, rhs, ok) with ok allowing the analytic round-off slack.
    J comes from ``pot`` when a solved PotentialField is supplied.
    """
    m_tot = u.mass
    if m_tot <= 0.0:
        raise ZeroField("biler_check requires a nonzero density")
    n = 3
    j = interaction_integral(u, pot=pot)
    m2 = second_moment(u)
    lhs = m_tot ** (n / 2.0 + 1.0)
    rhs = j * (2.0 * m2) ** (n / 2.0 - 1.0)
    return lhs, rhs, bool(lhs <= rhs * (1.0 + ANALYTIC_SLACK))


def moment_rhs_identity(
    u: DensityField,
    flux: FluxTensor,
    chi: float,
    pot: PotentialField | None = None,
) -> float:
    """Exact evolution rate of the weighted moment:

    2 Tr(P^(-1)) M + 2 chi * integral of x . (U grad v) u.
    """
    m_tot = u.mass
    if pot is None:
        pot = solve_potential_fast(u)
    ux, uy, uz = flux.u_orth[0], flux.u_orth[1], flux.u_orth[2]
    rot_gx = ux[0] * pot.gx + ux[1] * pot.gy + ux[2] * pot.gz
    rot_gy = uy[0] * pot.gx + uy[1] * pot.gy + uy[2] * pot.gz
    rot_gz = uz[0] * pot.gx + uz[1] * pot.gy + uz[2] * pot.gz
    x, y, z = u.grid.meshes()
    advective = float(
        u.grid.cell_volume * np.sum(u.values * (x * rot_gx + y * rot_gy + z * rot_gz))
    )
    return 2.0 * flux.trace_pinv * m_tot + 2.0 * chi * advective


def aggregation_coefficient(flux: FluxTensor, chi: float, n: int = 3) -> float:
    """c = 2^(1-n/2) chi kappa lambda_min^(n/2-1) / (n omega_n).

    The aggregation term of the moment inequality is c M^(n/2+1) w^(1-n/2);
    the bound, the moment ODE rate and C_Bl all read it from here.
    """
    return (
        2.0 ** (1.0 - n / 2.0)
        * chi
        * flux.kappa
        * flux.lam_min ** (n / 2.0 - 1.0)
        / (n * unit_ball_volume(n))
    )


def moment_rhs_bound(w: float, m_tot: float, flux: FluxTensor, chi: float, n: int = 3) -> float:
    """Upper bound for dw/dt:

    2 Tr(P^(-1)) M - 2^(1-n/2) chi kappa M^(n/2+1) / (n omega_n)
                      * lambda_min^(n/2-1) * w^(1-n/2).
    """
    if not 0.0 < w < math.inf:
        raise NonPositiveMoment(f"weighted moment must be positive and finite, got {w}")
    if not 0.0 < m_tot < math.inf:
        raise NonPositiveMoment(f"mass must be positive and finite, got {m_tot}")
    aggregation = aggregation_coefficient(flux, chi, n) * m_tot ** (n / 2.0 + 1.0)
    return 2.0 * flux.trace_pinv * m_tot - aggregation * w ** (1.0 - n / 2.0)


def gradv_sup_bound(
    u: DensityField, gamma: float | None = None, n: int = 3
) -> tuple[float, float]:
    """Bound max |grad v| <= gamma ||u||_inf + gamma^(1-n) M / (n omega_n).

    gamma=None selects the minimizer gamma* = ((n-1) M / (n omega_n ||u||_inf))^(1/n).
    Returns (bound, gamma_used).
    """
    linf = float(u.values.max())
    m_tot = u.mass
    if linf <= 0.0 or m_tot <= 0.0:
        raise ZeroField("gradient bound requires a nonzero density")
    omega_n = unit_ball_volume(n)
    if gamma is None:
        gamma = ((n - 1.0) * m_tot / (n * omega_n * linf)) ** (1.0 / n)
    elif not 0.0 < gamma < math.inf:
        raise BadParameter(f"gamma must be positive and finite, got {gamma}")
    bound = gamma * linf + gamma ** (1.0 - n) * m_tot / (n * omega_n)
    return float(bound), float(gamma)


# ---------------------------------------------------------------------------
# diagnostics records
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "t",
    "mass",
    "m2",
    "w",
    "J",
    "linf",
    "lq",
    "gradv_sup",
    "dwdt_measured",
    "dwdt_rhs",
    "dwdt_bound",
    "boundary_mass_fraction",
)

# a record's moments are trusted only while truncation stays below this
BOUNDARY_VALID_LIMIT = 1e-4


@dataclass
class DiagnosticsRecord:
    """One time sample of every tracked functional."""

    t: float
    mass: float
    m2: float
    w: float
    J: float
    linf: float
    lq: float
    gradv_sup: float
    dwdt_measured: float  # filled after the run from adjacent samples
    dwdt_rhs: float
    dwdt_bound: float
    boundary_mass_fraction: float

    @property
    def moments_valid(self) -> bool:
        return self.boundary_mass_fraction <= BOUNDARY_VALID_LIMIT

    def csv_row(self) -> str:
        vals = [getattr(self, c) for c in CSV_COLUMNS]
        return ",".join(f"{v:.12e}" for v in vals)


def compute_record(
    u: DensityField,
    flux: FluxTensor,
    chi: float,
    t: float,
    pot: PotentialField | None = None,
) -> DiagnosticsRecord:
    """Populate a full diagnostics record from the current field state."""
    if pot is None:
        pot = solve_potential_fast(u)
    m_tot = u.mass
    m2 = second_moment(u)
    w = weighted_moment(u, flux.p_inv)
    j = interaction_integral(u, pot=pot)
    linf = float(u.values.max())
    lq = lq_norm(u, 1.5)
    grad_sup = float(pot.gradient_magnitude().max())
    rhs = moment_rhs_identity(u, flux, chi, pot=pot)
    if w > 0.0 and m_tot > 0.0:
        bound = moment_rhs_bound(w, m_tot, flux, chi)
    else:
        bound = math.nan
    return DiagnosticsRecord(
        t=t,
        mass=m_tot,
        m2=m2,
        w=w,
        J=j,
        linf=linf,
        lq=lq,
        gradv_sup=grad_sup,
        dwdt_measured=math.nan,
        dwdt_rhs=rhs,
        dwdt_bound=bound,
        boundary_mass_fraction=boundary_mass_fraction(u),
    )


def fill_dwdt_measured(records: list[DiagnosticsRecord]) -> None:
    """Finite-difference dw/dt over adjacent samples; one-sided at the ends."""
    k = len(records)
    if k < 2:
        return
    t = [r.t for r in records]
    w = [r.w for r in records]
    records[0].dwdt_measured = (w[1] - w[0]) / (t[1] - t[0])
    records[-1].dwdt_measured = (w[-1] - w[-2]) / (t[-1] - t[-2])
    for i in range(1, k - 1):
        records[i].dwdt_measured = (w[i + 1] - w[i - 1]) / (t[i + 1] - t[i - 1])


def write_csv(records: list[DiagnosticsRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
