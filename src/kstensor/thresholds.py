"""Explicit admissibility constants for the blow-up / global-existence dichotomy.

For a flux matrix passing the structural hypothesis, initial data with

    integral of u0 |x|^2  <=  C_Bl * M^(n/(n-2))

produces finite-time blow-up, with

    C_Bl = [ 2^(1-n/2) chi kappa lambda_min^(n/2-1)
             / (2 Tr(P^(-1)) lambda_max^(n/2-1) n omega_n) ]^(2/(n-2)).

The blow-up time is bounded by integrating the moment differential
inequality: with f(w) = 2 Tr(P^(-1)) M w^(n/2-1) - c, the condition
f(w0) < 0 forces w to vanish by (2/n) w0^(n/2) / |f(w0)|. We evaluate f at
the conservative endpoint w0 = lambda_max * m0 of the eigenvalue sandwich,
so the bound holds regardless of the actual weighted moment.

On the global side, smallness of ||u0||_{L^{n/2}} below delta(p, n)
guarantees boundedness; the Calderon-Zygmund and Gagliardo-Nirenberg
constants it involves are user-supplied inputs (no explicit values are
derivable here), defaulting to 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadExponent, BadParameter, HypothesisViolated, NonPositiveMoment, ZeroField
from .functionals import _require_finite, aggregation_coefficient, lq_norm, second_moment
from .matrixflux import FluxTensor
from .potential import DensityField, Grid3, gaussian_values

# round-off guard on the admissibility comparison: data re-measured from a
# grid may land on the threshold to within quadrature noise
ADMISSIBLE_RTOL = 1e-9


def blowup_constant(flux: FluxTensor, chi: float, n: int = 3) -> float:
    """The admissibility constant C_Bl(A, chi, n)."""
    _require_finite(chi=chi)
    if chi <= 0.0:
        raise BadParameter(f"chi must be positive, got {chi}")
    if n < 3:
        raise BadParameter(f"dimension must be >= 3, got {n}")
    if n != flux.n:
        raise BadParameter(f"dimension {n} does not match the {flux.n}x{flux.n} flux matrix")
    if not flux.hypothesis_ok or flux.kappa <= 0.0:
        raise HypothesisViolated(
            f"flux matrix fails the structural hypothesis (kappa = {flux.kappa:.6g})"
        )
    bracket = aggregation_coefficient(flux, chi, n) / (
        2.0 * flux.trace_pinv * flux.lam_max ** (n / 2.0 - 1.0)
    )
    return float(bracket ** (2.0 / (n - 2.0)))


def moment_ode_rate(w: float, m_tot: float, flux: FluxTensor, chi: float, n: int = 3) -> float:
    """f(w) = 2 Tr(P^(-1)) M w^(n/2-1) - 2^(1-n/2) chi kappa M^(n/2+1)
    lambda_min^(n/2-1) / (n omega_n); (2/n) d/dt w^(n/2) <= f(w)."""
    const = aggregation_coefficient(flux, chi, n) * m_tot ** (n / 2.0 + 1.0)
    return 2.0 * flux.trace_pinv * m_tot * w ** (n / 2.0 - 1.0) - const


@dataclass(frozen=True)
class BlowupVerdict:
    """Outcome of the small-moment admissibility test."""

    c_bl: float
    admissible: bool
    margin: float  # C_Bl M^(n/(n-2)) - m0
    t_upper: float | None  # upper bound on the blow-up time, when certified
    f_w0: float  # moment ODE rate at the conservative initial moment


def admissibility(m0: float, m_tot: float, flux: FluxTensor, chi: float, n: int = 3) -> BlowupVerdict:
    """Decide m0 <= C_Bl M^(n/(n-2)) and bound the blow-up time when it holds."""
    _require_finite(moment=m0, mass=m_tot)
    if m0 < 0.0:
        raise NonPositiveMoment(f"initial moment must be >= 0, got {m0}")
    if m_tot <= 0.0:
        raise NonPositiveMoment(f"mass must be positive, got {m_tot}")
    c_bl = blowup_constant(flux, chi, n)
    threshold = c_bl * m_tot ** (n / (n - 2.0))
    margin = threshold - m0
    admissible = m0 <= threshold * (1.0 + ADMISSIBLE_RTOL)
    w_hi = flux.lam_max * m0
    f_w0 = moment_ode_rate(w_hi, m_tot, flux, chi, n)
    t_upper = (2.0 / n) * w_hi ** (n / 2.0) / abs(f_w0) if f_w0 < 0.0 else None
    return BlowupVerdict(c_bl=c_bl, admissible=admissible, margin=margin, t_upper=t_upper, f_w0=f_w0)


def rescale_epsilon(m0: float, m_tot: float, flux: FluxTensor, chi: float, n: int = 3) -> float:
    """Largest eps such that eps^(-n) u0(x/eps) satisfies the small-moment condition.

    The rescaling preserves mass and scales the moment by eps^2, so
    eps = sqrt(C_Bl M^(n/(n-2)) / m0).
    """
    _require_finite(moment=m0, mass=m_tot)
    if m0 <= 0.0:
        raise NonPositiveMoment(f"initial moment must be positive, got {m0}")
    if m_tot <= 0.0:
        raise NonPositiveMoment(f"mass must be positive, got {m_tot}")
    c_bl = blowup_constant(flux, chi, n)
    return float(math.sqrt(c_bl * m_tot ** (n / (n - 2.0)) / m0))


def global_delta(
    p: float,
    n: int,
    chi: float,
    a_maxnorm: float,
    c_czi: float = 1.0,
    c_gns: float = 1.0,
) -> float:
    """Smallness threshold delta(p, n) for the global-existence criterion:

    (1 / (chi ||A||_max C_GNS^2)) * min(2 / (n C_CZI), 1 / (p C_CZI)).

    A single C_CZI is used for both exponents of the min; pass the larger of
    the two constants for a conservative threshold.
    """
    _require_finite(p=p, chi=chi, a_maxnorm=a_maxnorm, c_czi=c_czi, c_gns=c_gns)
    if p < max(1.0, n / 2.0 - 1.0):
        raise BadExponent(f"p must be >= max(1, n/2 - 1) = {max(1.0, n / 2.0 - 1.0)}, got {p}")
    if min(chi, a_maxnorm, c_czi, c_gns) <= 0.0:
        raise BadParameter("chi, ||A||_max, C_CZI, C_GNS must all be positive")
    return float(
        min(2.0 / (n * c_czi), 1.0 / (p * c_czi)) / (chi * a_maxnorm * c_gns**2)
    )


def compatibility_check(
    u0: DensityField, n: int = 3, c_n: float = 1.0
) -> tuple[float, float, bool]:
    """Lower bound of the L^(n/2) norm by the mass and moment:

    ||u0||_{L^{n/2}} >= C_n M (M / m0)^((n-2)/2).

    Returns (lhs, rhs, ok). Both sides are homogeneous of degree 2-n under
    u -> eps^(-n) u(x/eps); the implementation re-evaluates the ratio on an
    exactly rescaled twin grid and insists it is invariant to 1e-6.
    """
    if n != 3:
        raise BadParameter("gridded compatibility check supports n = 3 only")
    _require_finite(c_n=c_n)
    if c_n <= 0.0:
        raise BadParameter(f"c_n must be positive, got {c_n}")
    m_tot = u0.mass
    if m_tot <= 0.0:
        raise ZeroField("compatibility check requires a nonzero density")
    m0 = second_moment(u0)
    lhs = lq_norm(u0, n / 2.0)
    rhs = c_n * m_tot * (m_tot / m0) ** ((n - 2.0) / 2.0)

    # rescaling self-check: shrink the grid by eps and scale values by eps^(-3);
    # cell centers map exactly, so both sides rescale without interpolation
    eps = 0.5
    grid2 = Grid3(u0.grid.n_cells, eps * u0.grid.half_width)
    u2 = DensityField(grid2, u0.values * eps ** (-3))
    lhs2 = lq_norm(u2, n / 2.0)
    rhs2 = c_n * u2.mass * (u2.mass / second_moment(u2)) ** ((n - 2.0) / 2.0)
    ratio, ratio2 = lhs / rhs, lhs2 / rhs2
    if abs(ratio2 / ratio - 1.0) > 1e-6:
        raise AssertionError(
            f"compatibility ratio not rescaling-invariant: {ratio:.12g} vs {ratio2:.12g}"
        )
    return float(lhs), float(rhs), bool(lhs >= rhs)


def calibrate_cn(
    aspect_ratios: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0, 5.0),
    n_cells: int = 64,
) -> tuple[float, list[tuple[float, float]]]:
    """Estimate the Gaussian-family infimum of ||u||_{L^{3/2}} / (M (M/m)^(1/2)).

    Samples axis-aligned anisotropic Gaussians u with widths (1, 1, rho) on
    grids sized to keep truncation negligible. Returns (infimum, samples),
    where samples is a list of (rho, ratio). The ratio is scale-invariant, so
    only the aspect ratio matters.
    """
    samples = []
    for rho in aspect_ratios:
        grid = Grid3(n_cells, 7.0 * max(1.0, rho))
        u = DensityField(grid, gaussian_values(grid, 1.0, (1.0, 1.0, rho)))
        m_tot = u.mass
        ratio = lq_norm(u, 1.5) / (m_tot * (m_tot / second_moment(u)) ** 0.5)
        samples.append((float(rho), float(ratio)))
    inf_ratio = min(r for _, r in samples)
    return float(inf_ratio), samples
