"""Scalar functionals of the density field used by the blow-up argument.

Everything here is a midpoint-rule cell sum over the grid: mass M, the
second moment m = integral of u |x|^2, the weighted moment
w = integral of u (x . P^(-1) x), the interaction integral
J = double integral of u(x) u(y) |x-y|^(2-n), Lebesgue norms, the measured
gradient bound, and the two sides of the moment-evolution inequality:

    dw/dt  =  2 Tr(P^(-1)) M + 2 chi * integral of x . (U grad v) u     (identity)
    dw/dt <=  2 Tr(P^(-1)) M - c(chi, kappa, M, n) lambda_min^(n/2-1) w^(1-n/2)

The moments are contractions of two 3x3 moment matrices,
S_ij = integral of u x_i x_j and G_ij = integral of u x_i d_j v:
m = tr S, w = sum of (P^(-1))_ij S_ij, and the identity's advective integral
is sum of U_ij G_ij. A record forms each matrix once.

Records of all tracked quantities serialize as CSV rows with a fixed column
order so downstream tooling can rely on positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as record_fields

import numpy as np

from .errors import BadParameter, NonPositiveMoment, NotSPD, ZeroField
from .matrixflux import FluxTensor
from .potential import (
    DensityField,
    PotentialField,
    _displacements,
    _pair_blocks,
    _require_dimension,
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


def _solved(u: DensityField, pot: PotentialField) -> PotentialField:
    """``pot``, once it is checked to be solved on u's grid."""
    if pot.grid != u.grid:
        raise BadParameter(f"potential solved on {pot.grid}, density on {u.grid}")
    return pot


def _moment_matrix(u: DensityField, fields: tuple[np.ndarray, ...]) -> np.ndarray:
    """M_ij = h^3 sum of u x_i f_j over the cells, for three fields f_j that broadcast to u.

    Each field makes one product u f_j; its sum over the two axes other than
    i is dotted with the cell centres x_i, so no coordinate mesh is made. The
    y and z sums come from the product's (y, z) plane, summed over x once.
    """
    c = u.grid.axis_centers()
    m = np.empty((3, 3))
    for j, f in enumerate(fields):
        prod = u.values * f
        plane = prod.sum(axis=0)
        m[:, j] = prod.sum(axis=(1, 2)) @ c, plane.sum(axis=1) @ c, plane.sum(axis=0) @ c
    return u.grid.cell_volume * m


def _position_moments(u: DensityField) -> np.ndarray:
    """S_ij = integral of u x_i x_j, from the broadcast axis centres."""
    c = u.grid.axis_centers()
    return _moment_matrix(u, (c[:, None, None], c[None, :, None], c[None, None, :]))


def weighted_moment(u: DensityField, b: np.ndarray) -> float:
    """Integral of u(x) (x . B x) = sum of B_ij S_ij for a symmetric positive-definite B."""
    b = np.asarray(b, dtype=float)
    if b.shape != (3, 3) or not np.isfinite(b).all() or (
        np.linalg.norm(b - b.T) > 1e-12 * max(np.linalg.norm(b), 1.0)
    ):
        raise NotSPD("weight matrix must be finite and symmetric 3x3")
    eigs = np.linalg.eigvalsh(0.5 * (b + b.T))
    if eigs[0] <= 0.0:
        raise NotSPD(f"weight matrix must be positive definite (min eig {eigs[0]:.3e})")
    return float(np.sum(b * _position_moments(u)))


def second_moment(u: DensityField) -> float:
    """Integral of u(x) |x|^2 = tr S (weighted moment with B = I)."""
    return float(np.trace(_position_moments(u)))


def lq_norm(u: DensityField, q: float) -> float:
    """Lebesgue norm (h^3 sum u^q)^(1/q) for q >= 1, scaled by max u so u^q cannot underflow."""
    if not 1.0 <= q < math.inf:
        raise BadParameter(f"q must be finite and >= 1, got {q}")
    linf = u.max_value or 1.0  # a zero field keeps its norm 0
    scaled = u.values / linf
    scaled **= q  # in place: one grid temporary
    return linf * float((u.grid.cell_volume * np.sum(scaled)) ** (1.0 / q))


def boundary_mass_fraction(u: DensityField) -> float:
    """Mass in the outermost 2-cell shell divided by the total mass."""
    total = u.values.sum()
    if total <= 0.0:
        return 0.0
    interior = u.values[2:-2, 2:-2, 2:-2].sum()
    return float(max((total - interior) / total, 0.0))


def interaction_integral(u: DensityField, pot: PotentialField) -> float:
    """J = double integral of u(x) u(y) |x-y|^(2-n) via J = n(n-2) omega_n * (u, v),
    with v = ``pot.v`` solved on u's grid."""
    pot = _solved(u, pot)
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


def biler_check(u: DensityField, pot: PotentialField) -> tuple[float, float, bool]:
    """Mass-moment-interaction inequality M^(n/2+1) <= J (2m)^(n/2-1), n = 3.

    Returns (lhs, rhs, ok) with ok allowing the analytic round-off slack.
    J comes from ``pot``, u's solved potential.
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
    pot: PotentialField,
) -> float:
    """Exact evolution rate of the weighted moment:

    2 Tr(P^(-1)) M + 2 chi * integral of x . (U grad v) u,

    whose advective integral is the sum of U_ij G_ij.
    """
    pot = _solved(u, pot)
    advective = float(np.sum(flux.u_orth * _moment_matrix(u, (pot.gx, pot.gy, pot.gz))))
    return 2.0 * flux.trace_pinv * u.mass + 2.0 * chi * advective


def aggregation_coefficient(flux: FluxTensor, chi: float) -> float:
    """c = 2^(1-n/2) chi kappa lambda_min^(n/2-1) / (n omega_n), n = flux.n.

    The aggregation term of the moment inequality is c M^(n/2+1) w^(1-n/2);
    the bound, the moment ODE rate and C_Bl all read it from here.
    """
    n = flux.n
    _require_dimension(n)
    return (
        2.0 ** (1.0 - n / 2.0)
        * chi
        * flux.kappa
        * flux.lam_min ** (n / 2.0 - 1.0)
        / (n * unit_ball_volume(n))
    )


def moment_rhs_bound(w: float, m_tot: float, flux: FluxTensor, chi: float) -> float:
    """Upper bound for dw/dt, n = flux.n:

    2 Tr(P^(-1)) M - 2^(1-n/2) chi kappa M^(n/2+1) / (n omega_n)
                      * lambda_min^(n/2-1) * w^(1-n/2).
    """
    if not 0.0 < w < math.inf:
        raise NonPositiveMoment(f"weighted moment must be positive and finite, got {w}")
    if not 0.0 < m_tot < math.inf:
        raise NonPositiveMoment(f"mass must be positive and finite, got {m_tot}")
    aggregation = aggregation_coefficient(flux, chi) * m_tot ** (flux.n / 2.0 + 1.0)
    return 2.0 * flux.trace_pinv * m_tot - aggregation * w ** (1.0 - flux.n / 2.0)


def gradv_sup_bound(u: DensityField, gamma: float | None = None) -> tuple[float, float]:
    """Bound max |grad v| <= gamma ||u||_inf + gamma^(1-n) M / (n omega_n), n = 3.

    gamma=None selects the minimizer gamma* = ((n-1) M / (n omega_n ||u||_inf))^(1/n).
    Returns (bound, gamma_used).
    """
    n = 3
    linf = u.max_value
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

# a record's moments are trusted only while truncation stays below this
BOUNDARY_VALID_LIMIT = 1e-4


@dataclass
class DiagnosticsRecord:
    """One time sample of every tracked functional; the field order is the CSV column order."""

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


CSV_COLUMNS = tuple(f.name for f in record_fields(DiagnosticsRecord))


def compute_record(
    u: DensityField,
    flux: FluxTensor,
    chi: float,
    t: float,
    pot: PotentialField,
) -> DiagnosticsRecord:
    """Populate a full diagnostics record from the current field and its solved potential.

    S is formed once: m2 and w are its trace and its contraction with P^(-1).
    """
    m_tot = u.mass
    s = _position_moments(u)
    w = float(np.sum(flux.p_inv * s))
    return DiagnosticsRecord(
        t=t,
        mass=m_tot,
        m2=float(np.trace(s)),
        w=w,
        J=interaction_integral(u, pot=pot),
        linf=u.max_value,
        lq=lq_norm(u, 1.5),
        gradv_sup=math.sqrt(pot.gradient_squared().max()),
        dwdt_measured=math.nan,
        dwdt_rhs=moment_rhs_identity(u, flux, chi, pot=pot),
        dwdt_bound=moment_rhs_bound(w, m_tot, flux, chi) if w > 0.0 and m_tot > 0.0 else math.nan,
        boundary_mass_fraction=boundary_mass_fraction(u),
    )


def fill_dwdt_measured(records: list[DiagnosticsRecord]) -> None:
    """Finite-difference dw/dt over adjacent samples; one-sided at the ends."""
    if len(records) < 2:
        return
    last = len(records) - 1
    for i, rec in enumerate(records):
        lo, hi = records[max(i - 1, 0)], records[min(i + 1, last)]
        rec.dwdt_measured = (hi.w - lo.w) / (hi.t - lo.t)


def write_csv(records: list[DiagnosticsRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")
