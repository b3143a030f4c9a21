"""Exception types shared across the package.

Names follow the failure they signal rather than generic categories, so a
caller can react to e.g. a rejected flux matrix without string matching.
"""


class KSTensorError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrix(KSTensorError):
    """Flux matrix is singular or too ill-conditioned to factor."""


class NotOrthogonal(KSTensorError):
    """Matrix fails the orthogonality tolerance."""


class NotSPD(KSTensorError):
    """Matrix is not symmetric positive definite."""


class GridTooSmall(KSTensorError):
    """Grid resolution below the supported minimum."""


class TooLarge(KSTensorError):
    """Problem size exceeds a cost guard."""


class ZeroField(KSTensorError):
    """Operation requires a nonzero density field."""


class NonPositiveMoment(KSTensorError):
    """Moment or mass argument must be positive."""


class HypothesisViolated(KSTensorError):
    """Structural hypothesis on the flux matrix does not hold."""


class BadExponent(KSTensorError):
    """Exponent outside the admissible range."""


class BadParameter(KSTensorError):
    """Scalar parameter outside its admissible range."""


class ConfigInvalid(KSTensorError):
    """Simulation configuration failed validation."""


class SupportTooLarge(KSTensorError):
    """Initial data does not fit inside the computational box."""


class CflViolation(KSTensorError):
    """Time step exceeds the advective stability limit."""
