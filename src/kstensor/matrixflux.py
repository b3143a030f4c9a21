"""Flux matrix analysis: polar decomposition, canonical spectrum, hypothesis check.

The drift term of the model is u * A * grad(v) for a constant nonsingular
matrix A. Everything the blow-up thresholds need from A is derived here:
the symmetric positive-definite stretch P = (A A^T)^(1/2), the orthogonal
factor U = P^(-1) A, the rotation angles and +-1 eigenvalues of U's
block-diagonal canonical form, the attraction coefficient kappa, and the
extreme eigenvalues / trace of P^(-1).

The structural hypothesis gating the blow-up result is x^T U x > 0 for all
nonzero x, equivalently: all real eigenvalues of U equal +1 and every
rotation angle alpha_j satisfies cos(alpha_j) > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, NotOrthogonal, SingularMatrix

# Condition-number gate: smallest singular value must exceed this times the
# largest, otherwise A is rejected as numerically singular.
SINGULAR_RTOL = 1e-12
# Orthogonality tolerance for canonical_spectrum input (Frobenius).
ORTHO_TOL = 1e-10
# Eigenvalues of U within this of +-1 are snapped.
SNAP_TOL = 1e-8
# Margins below this are treated as the hypothesis boundary: reported not ok.
BOUNDARY_TOL = 1e-10


def _polar(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, u, sigma) of polar_decompose, with sigma the descending singular values."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise BadParameter(f"matrix entries must be finite, got {a.tolist()}")
    # factor a scaled by a power of two near its largest entry: the scaling is
    # exact, so results stay bitwise equal under power-of-two scaling of a
    exp = math.frexp(np.abs(a).max())[1]
    w, sigma, vt = np.linalg.svd(np.ldexp(a, -exp))
    if sigma[-1] <= SINGULAR_RTOL * sigma[0]:
        ratio = sigma[-1] / sigma[0] if sigma[0] > 0.0 else 0.0
        raise SingularMatrix(
            f"matrix is singular to working precision (sigma_min/sigma_max = {ratio:.3e})"
        )
    p = (w * sigma) @ w.T
    # enforce exact symmetry against round-off, halve, and undo the scaling
    return np.ldexp(p + p.T, exp - 1), w @ vt, np.ldexp(sigma, exp)


def polar_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a nonsingular matrix as a = p @ u with p SPD and u orthogonal.

    One SVD a = W diag(sigma) V^T gives p = W diag(sigma) W^T and u = W V^T,
    so u is orthogonal to round-off and sigma is accurate to eps * cond(a).

    Raises BadParameter when an entry is NaN or infinite, and SingularMatrix
    when the smallest singular value of ``a`` is at or below SINGULAR_RTOL
    times the largest.
    """
    return _polar(a)[:2]


def canonical_spectrum(u_orth: np.ndarray) -> tuple[list[float], list[float]]:
    """Angles and +-1 eigenvalues of the canonical form of an orthogonal matrix.

    Every real orthogonal matrix is orthogonally similar to a block diagonal
    matrix of 2x2 rotation blocks (angles alpha_j) and +-1 diagonal entries.
    Returns (angles, real_eigs) with angles in (0, pi) sorted ascending and
    real_eigs sorted descending; 2*len(angles) + len(real_eigs) == n.

    Eigenvalues within SNAP_TOL of +-1 are classified as real. LAPACK returns
    a real matrix's complex eigenvalues in exact conjugate pairs, so each pair
    gives one angle, from its member with positive imaginary part. Raises
    NotOrthogonal when ||u^T u - I||_F > ORTHO_TOL.
    """
    u_orth = np.asarray(u_orth, dtype=float)
    n = u_orth.shape[0]
    defect = np.linalg.norm(u_orth.T @ u_orth - np.eye(n))
    if defect > ORTHO_TOL:
        raise NotOrthogonal(f"orthogonality defect {defect:.3e} exceeds {ORTHO_TOL:.0e}")
    eigs = np.linalg.eigvals(u_orth)
    real_eigs = [s for lam in eigs for s in (1.0, -1.0) if abs(lam - s) <= SNAP_TOL]
    angles = [
        float(np.arctan2(lam.imag, lam.real)) for lam in eigs
        if lam.imag > 0.0 and min(abs(lam - 1.0), abs(lam + 1.0)) > SNAP_TOL
    ]
    if 2 * len(angles) + len(real_eigs) != n:
        raise NotOrthogonal(f"eigenvalues {eigs} do not pair into +-1 and conjugate pairs")
    return sorted(angles), sorted(real_eigs, reverse=True)


def check_hypothesis(a: np.ndarray) -> tuple[bool, float]:
    """Decide whether x^T (A A^T)^(-1/2) A x > 0 for all nonzero x.

    Returns (ok, margin): FluxTensor.from_matrix(a)'s hypothesis_ok and kappa.
    """
    flux = FluxTensor.from_matrix(a)
    return flux.hypothesis_ok, flux.kappa


@dataclass(frozen=True)
class FluxTensor:
    """A flux matrix together with its polar factors and spectral diagnostics.

    Immutable after construction, arrays included; safe to share across threads.
    """

    a: np.ndarray
    n: int
    p: np.ndarray
    u_orth: np.ndarray
    angles: list[float]
    real_eigs: list[float]
    kappa: float
    lam_min: float
    lam_max: float
    trace_pinv: float
    hypothesis_ok: bool

    @classmethod
    def from_matrix(cls, a: np.ndarray) -> "FluxTensor":
        """Factor A and decide the structural hypothesis.

        kappa and the verdict come from the canonical spectrum of U (all real
        eigenvalues +1 and cos(alpha_j) > 0). Exact boundary cases (kappa
        within BOUNDARY_TOL of zero) report not ok: the blow-up machinery is
        not claimed to apply there.
        """
        a = np.array(a, dtype=float)
        p, u, sigma = _polar(a)
        n = a.shape[0]
        angles, real_eigs = canonical_spectrum(u)
        kappa = float(min([np.cos(al) for al in angles] + list(real_eigs) + [1.0]))
        # eigenvalues of P^(-1) are reciprocals of the singular values of A
        lam_min = float(1.0 / sigma[0])
        lam_max = float(1.0 / sigma[-1])
        trace_pinv = float(np.sum(1.0 / sigma))
        ok = all(e > 0.0 for e in real_eigs) and kappa > BOUNDARY_TOL
        for arr in (a, p, u):  # a is a private copy; p and u are made here
            arr.flags.writeable = False
        return cls(
            a=a,
            n=n,
            p=p,
            u_orth=u,
            angles=angles,
            real_eigs=real_eigs,
            kappa=kappa,
            lam_min=lam_min,
            lam_max=lam_max,
            trace_pinv=trace_pinv,
            hypothesis_ok=ok,
        )

    @property
    def p_inv(self) -> np.ndarray:
        return np.linalg.inv(self.p)


def rotation_z(alpha: float) -> np.ndarray:
    """3x3 rotation by alpha about the z axis (the stock example matrix)."""
    c, s = np.cos(alpha), np.sin(alpha)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def parse_matrix(text: str) -> np.ndarray:
    """Parse the n-line whitespace-separated matrix text format.

    Dimension is inferred from the number of non-empty lines; each line must
    contain exactly that many decimal literals.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            rows.append([float(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: not a decimal literal ({exc})") from None
    if not rows:
        raise ValueError("no matrix rows found")
    n = len(rows)
    for i, row in enumerate(rows, start=1):
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, expected {n} (square matrix)")
    return np.array(rows, dtype=float)


def parse_matrix_inline(text: str) -> np.ndarray:
    """Parse a row-major comma-separated square matrix, e.g. '1,0,0,1' -> I2."""
    vals = [float(tok) for tok in text.split(",") if tok.strip()]
    n = round(len(vals) ** 0.5)
    if n * n != len(vals):
        raise ValueError(f"{len(vals)} entries do not form a square matrix")
    return np.array(vals, dtype=float).reshape(n, n)


def read_matrix(inline: str | None, path: str | None) -> np.ndarray:
    """Parse `inline` if given, else the matrix text file at `path`; ValueError if neither is."""
    if inline:
        return parse_matrix_inline(inline)
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_matrix(fh.read())
    raise ValueError("no matrix given: use --inline or --file, or a config's matrix or matrix_file")
