"""The quadratic-form minimum of an orthogonal matrix, for checking kappa.

The package reads kappa = min{cos alpha_j, 1} off the canonical spectrum of
U alone. For orthogonal U the same number is the smallest eigenvalue of U's
symmetric part, min over unit x of x . U x, a second route to compare with.
"""

import numpy as np


def symmetric_part_margin(u_orth) -> float:
    """Smallest eigenvalue of (U + U^T)/2, the quadratic-form minimum of U."""
    u_orth = np.asarray(u_orth, dtype=float)
    return float(np.linalg.eigvalsh(0.5 * (u_orth + u_orth.T))[0])
