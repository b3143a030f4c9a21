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
from .potential import DensityField, Grid3, _require_dimension, gaussian_values

# round-off guard on the admissibility comparison: data re-measured from a
# grid may land on the threshold to within quadrature noise
ADMISSIBLE_RTOL = 1e-9


def blowup_constant(flux: FluxTensor, chi: float, n: int = 3) -> float:
    """The admissibility constant C_Bl(A, chi, n)."""
    _require_finite(chi=chi)
    if chi <= 0.0:
        raise BadParameter(f"chi must be positive, got {chi}")
    _require_dimension(n)
    if n != flux.n:
        raise BadParameter(f"dimension {n} does not match the {flux.n}x{flux.n} flux matrix")
    if not flux.hypothesis_ok or flux.kappa <= 0.0:
        raise HypothesisViolated(
            f"flux matrix fails the structural hypothesis (kappa = {flux.kappa:.6g})"
        )
    bracket = aggregation_coefficient(flux, chi) / (
        2.0 * flux.trace_pinv * flux.lam_max ** (n / 2.0 - 1.0)
    )
    return float(bracket ** (2.0 / (n - 2.0)))


@dataclass(frozen=True)
class BlowupVerdict:
    """Outcome of the small-moment admissibility test."""

    c_bl: float
    admissible: bool
    margin: float  # C_Bl M^(n/(n-2)) - m0
    t_upper: float | None  # upper bound on the blow-up time, when certified
    f_w0: float  # moment ODE rate at the conservative initial moment


def _threshold(
    m0: float, m_tot: float, flux: FluxTensor, chi: float, n: int, strict: bool
) -> tuple[float, float]:
    """(C_Bl, C_Bl M^(n/(n-2))) once m0 >= 0 (> 0 if strict) and M > 0 are checked."""
    _require_finite(moment=m0, mass=m_tot)
    if m0 < 0.0 or (strict and m0 == 0.0):
        raise NonPositiveMoment(f"initial moment must be {'>' if strict else '>='} 0, got {m0}")
    if m_tot <= 0.0:
        raise NonPositiveMoment(f"mass must be positive, got {m_tot}")
    c_bl = blowup_constant(flux, chi, n)
    return c_bl, c_bl * m_tot ** (n / (n - 2.0))


def admissibility(m0: float, m_tot: float, flux: FluxTensor, chi: float, n: int = 3) -> BlowupVerdict:
    """Decide m0 <= C_Bl M^(n/(n-2)) and bound the blow-up time when it holds.

    f_w0 is the moment ODE rate f(w) = 2 Tr(P^(-1)) M w^(n/2-1) - c M^(n/2+1), with c the
    aggregation coefficient, at w = lambda_max m0: (2/n) d/dt w^(n/2) <= f(w).
    """
    m0, m_tot = float(m0), float(m_tot)  # a numpy m0 would make every field a numpy scalar
    c_bl, threshold = _threshold(m0, m_tot, flux, chi, n, strict=False)
    margin = threshold - m0
    admissible = m0 <= threshold * (1.0 + ADMISSIBLE_RTOL)
    w_hi = flux.lam_max * m0
    if w_hi == math.inf:  # m0 is finite, but lambda_max m0 may overflow
        raise NonPositiveMoment(f"weighted moment must be non-negative and finite, got {w_hi}")
    const = aggregation_coefficient(flux, chi) * m_tot ** (n / 2.0 + 1.0)
    f_w0 = 2.0 * flux.trace_pinv * m_tot * w_hi ** (n / 2.0 - 1.0) - const
    t_upper = (2.0 / n) * w_hi ** (n / 2.0) / abs(f_w0) if f_w0 < 0.0 else None
    return BlowupVerdict(c_bl=c_bl, admissible=admissible, margin=margin, t_upper=t_upper, f_w0=f_w0)


def rescale_epsilon(m0: float, m_tot: float, flux: FluxTensor, chi: float, n: int = 3) -> float:
    """Largest eps such that eps^(-n) u0(x/eps) satisfies the small-moment condition.

    The rescaling preserves mass and scales the moment by eps^2, so
    eps = sqrt(C_Bl M^(n/(n-2)) / m0).
    """
    return float(math.sqrt(_threshold(m0, m_tot, flux, chi, n, strict=True)[1] / m0))


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
    _require_dimension(n)
    if p < max(1.0, n / 2.0 - 1.0):
        raise BadExponent(f"p must be >= max(1, n/2 - 1) = {max(1.0, n / 2.0 - 1.0)}, got {p}")
    if min(chi, a_maxnorm, c_czi, c_gns) <= 0.0:
        raise BadParameter("chi, ||A||_max, C_CZI, C_GNS must all be positive")
    return float(
        min(2.0 / (n * c_czi), 1.0 / (p * c_czi)) / (chi * a_maxnorm * c_gns**2)
    )


def _compatibility_sides(u: DensityField, c_n: float) -> tuple[float, float]:
    """||u||_{L^{n/2}} and C_n M (M / m0)^((n-2)/2), n = 3."""
    n, m_tot = 3, u.mass
    return lq_norm(u, n / 2.0), c_n * m_tot * (m_tot / second_moment(u)) ** ((n - 2.0) / 2.0)


def compatibility_check(u0: DensityField, c_n: float = 1.0) -> tuple[float, float, bool]:
    """Lower bound of the L^(n/2) norm by the mass and moment, n = 3:

    ||u0||_{L^{n/2}} >= C_n M (M / m0)^((n-2)/2).

    Returns (lhs, rhs, ok). Both sides are homogeneous of degree 2-n under
    u -> eps^(-n) u(x/eps), so the verdict does not depend on the scale.
    """
    _require_finite(c_n=c_n)
    if c_n <= 0.0:
        raise BadParameter(f"c_n must be positive, got {c_n}")
    if u0.mass <= 0.0:
        raise ZeroField("compatibility check requires a nonzero density")
    lhs, rhs = _compatibility_sides(u0, c_n)
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
        lhs, rhs = _compatibility_sides(u, 1.0)
        samples.append((float(rho), float(lhs / rhs)))
    inf_ratio = min(r for _, r in samples)
    return float(inf_ratio), samples
