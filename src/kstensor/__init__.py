"""kstensor: the parabolic-elliptic Keller-Segel system with tensorial flux.

Numerics (3-D grids) and analysis (general dimension n >= 3) for

    du/dt = Laplace(u) - chi div(u A grad v),   -Laplace(v) = u  on R^n,

including the polar decomposition of A, the weighted-moment blow-up
machinery with its explicit admissibility constants, a free-space Poisson
solver, and a conservative positivity-preserving time integrator that
exhibits the finite-time blow-up / global existence dichotomy at desk scale.
"""

from .errors import (
    BadExponent,
    BadParameter,
    CflViolation,
    ConfigInvalid,
    GridTooSmall,
    HypothesisViolated,
    KSTensorError,
    NonPositiveMoment,
    NotOrthogonal,
    NotSPD,
    SingularMatrix,
    SupportTooLarge,
    TooLarge,
    ZeroField,
)
from .functionals import (
    DiagnosticsRecord,
    biler_check,
    boundary_mass_fraction,
    gradv_sup_bound,
    interaction_integral,
    lq_norm,
    moment_rhs_bound,
    moment_rhs_identity,
    second_moment,
    weighted_moment,
)
from .matrixflux import (
    FluxTensor,
    canonical_spectrum,
    check_hypothesis,
    polar_decompose,
    rotation_z,
)
from .potential import (
    DensityField,
    Grid3,
    PotentialField,
    solve_potential_direct,
    solve_potential_fast,
)
from .solver import InitialData, SimConfig, SimOutcome, make_initial_data, run, step
from .thresholds import (
    BlowupVerdict,
    admissibility,
    blowup_constant,
    compatibility_check,
    global_delta,
    rescale_epsilon,
)

__version__ = "0.1.0"
