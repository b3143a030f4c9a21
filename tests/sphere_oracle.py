"""Sampled minimum of x^T U x over the unit sphere: an eigen-free oracle.

x^T U x is linear in U's entries, so the monomials x_j x_k (j <= k) of a
fixed sample of unit vectors are tabulated once per dimension, and each
matrix then costs one matrix-vector product. A sample can only land above
the true minimum, never below it.
"""

import numpy as np


def sphere_table(n: int, seed: int, samples: int = 100_000):
    """Monomial table of `samples` random unit vectors in R^n."""
    pts = np.random.default_rng(seed).standard_normal((samples, n))
    x = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    rows, cols = np.triu_indices(n)
    return rows, cols, x[:, rows] * x[:, cols]


def sphere_min(table, u: np.ndarray) -> float:
    """Smallest sampled x^T u x over the table's unit vectors."""
    rows, cols, monomials = table
    coeffs = np.where(rows == cols, u[rows, cols], u[rows, cols] + u[cols, rows])
    return float(np.min(monomials @ coeffs))
