"""Free-space Newtonian potential on a 3-D grid.

Solves -Laplace(v) = u on all of R^3 restricted to a cube, via discrete
convolution with the kernel K(x) = 1/(4 pi |x|):

* fast path: zero-padded FFT convolution (domain doubled per axis, so the
  periodic product realizes the free-space sum exactly on the original box;
  the transforms run axis by axis and skip the lines that are all zero on
  the way in or cropped away on the way out);
* direct path: O(N^2) double sum, an independent oracle for the fast path.

Both paths share the same discretization: midpoint kernel samples, the
singular self-cell replaced by the analytic mean of K over one cell, and a
local Euler-Maclaurin defect correction (the kernel is harmonic away from
the origin, so the O(h^2) quadrature defect of the midpoint rule collapses
to terms proportional to u and grad u at the target point).

The gradient of v is convolved with grad K directly rather than obtained by
differencing v, keeping the advection velocity free of compounded error.
Analytic kernel evaluation supports general dimension n >= 3; gridded
fields are three-dimensional only.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import DomainError, GridTooSmall, TooLarge

# mean of 1/|x| over the unit cube centered at the origin:
# 2x the corner potential of the unit cube, 3*ln((1+sqrt(3))/sqrt(2)) - pi/4
CUBE_MEAN_INV_R = 6.0 * math.log((1.0 + math.sqrt(3.0)) / math.sqrt(2.0)) - math.pi / 2.0

# defect-correction coefficients (multiply h^2); see module docstring
_V_CORRECTION = 1.0 / 24.0
_G_CORRECTION = 1.0 / 24.0 + CUBE_MEAN_INV_R / (12.0 * math.pi)

DIRECT_MAX_CELLS = 24  # cost guard for the O(N^2) oracle
# pair entries per row block of the O(N^2) oracles: about 1 MB per float64
# buffer, so a block's working set stays in cache and below the allocator's
# mmap threshold
_BLOCK_PAIRS = 1 << 17
FAST_MIN_CELLS = 16

_FFT_WORKERS = -1  # scipy.fft uses all available cores


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def kernel_value(x, n: int = 3) -> float:
    """Newtonian kernel K_n(x) = |x|^(2-n) / (n (n-2) omega_n), omega_n = |B_1(0)|."""
    if n < 3:
        raise DomainError(f"kernel requires dimension n >= 3, got {n}")
    r = float(np.linalg.norm(np.asarray(x, dtype=float)))
    if r == 0.0:
        raise DomainError("kernel is singular at x = 0")
    return r ** (2 - n) / (n * (n - 2) * unit_ball_volume(n))


def grad_kernel(x, n: int = 3) -> np.ndarray:
    """Gradient of the Newtonian kernel: -x / (n omega_n |x|^n)."""
    if n < 3:
        raise DomainError(f"kernel requires dimension n >= 3, got {n}")
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        raise DomainError("kernel gradient is singular at x = 0")
    return -x / (n * unit_ball_volume(n) * r**n)


@dataclass(frozen=True)
class Grid3:
    """Uniform origin-centered cubic grid: cell centers at -L + (i + 1/2) h.

    n_cells must be a power of two (the convolution path doubles it).
    Simulation-grade grids use n_cells >= 16; the solvers enforce that gate.
    """

    n_cells: int
    half_width: float

    def __post_init__(self):
        n = self.n_cells
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_cells must be a power of two >= 2, got {n}")
        if not (self.half_width > 0.0):
            raise ValueError(f"half_width must be positive, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @property
    def cell_volume(self) -> float:
        return self.h**3

    def axis_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h - self.half_width

    def meshes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = self.axis_centers()
        return np.meshgrid(c, c, c, indexing="ij")

    def radius_squared(self) -> np.ndarray:
        c = self.axis_centers()
        return (
            (c**2)[:, None, None] + (c**2)[None, :, None] + (c**2)[None, None, :]
        )


def gaussian_values(grid: Grid3, mass: float, sigma, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Cell-centre values of the mass-M axis-aligned Gaussian.

    sigma is one width or three (per axis); center is a point in the box.
    """
    sig = np.asarray(sigma, dtype=float) * np.ones(3)
    c = np.asarray(center, dtype=float)
    x, y, z = grid.meshes()
    norm = mass / ((2.0 * math.pi) ** 1.5 * float(np.prod(sig)))
    return norm * np.exp(
        -0.5 * (((x - c[0]) / sig[0]) ** 2 + ((y - c[1]) / sig[1]) ** 2 + ((z - c[2]) / sig[2]) ** 2)
    )


def ball_values(grid: Grid3, mass: float, radius: float, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Cell-centre values of the mass-M uniform ball of the given radius."""
    c = np.asarray(center, dtype=float)
    x, y, z = grid.meshes()
    rho = mass / (4.0 / 3.0 * math.pi * radius**3)
    r2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
    return np.where(r2 <= radius * radius, rho, 0.0)


@dataclass
class DensityField:
    """Non-negative cell-centered density on a Grid3."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n_cells
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (n, n, n):
            raise ValueError(f"values shape {self.values.shape} != grid {(n, n, n)}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density contains non-finite values")
        if self.values.min() < 0.0:
            raise ValueError(f"density must be non-negative (min = {self.values.min():.3e})")

    @property
    def mass(self) -> float:
        return float(self.grid.cell_volume * self.values.sum())

    def copy(self) -> "DensityField":
        return DensityField(self.grid, self.values.copy())


@dataclass
class PotentialField:
    """Potential v and its gradient on the same grid as the source density."""

    grid: Grid3
    v: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    gz: np.ndarray

    def gradient_magnitude(self) -> np.ndarray:
        return np.sqrt(self.gx**2 + self.gy**2 + self.gz**2)


class _KernelTables:
    """Per-grid FFT kernel spectra, built once and shared read-only."""

    def __init__(self, grid: Grid3):
        n, h = grid.n_cells, grid.h
        m = 2 * n
        d = np.arange(m, dtype=float)
        d[d >= n] -= m  # cyclic displacement in cells
        d *= h
        dx = d[:, None, None]
        dy = d[None, :, None]
        dz = d[None, None, :]
        r = np.sqrt(dx**2 + dy**2 + dz**2)
        with np.errstate(divide="ignore"):
            k = 1.0 / (4.0 * math.pi * r)
        k[0, 0, 0] = CUBE_MEAN_INV_R / (4.0 * math.pi * h)
        with np.errstate(divide="ignore"):
            g = -1.0 / (4.0 * math.pi * r**3)
        g[0, 0, 0] = 0.0  # odd symmetry: the self cell contributes nothing
        self.k_hat = sfft.rfftn(k, workers=_FFT_WORKERS)
        self.g_hat = [
            sfft.rfftn(dd * g, workers=_FFT_WORKERS) for dd in (dx, dy, dz)
        ]


_tables_lock = threading.Lock()
_tables_cache: dict[tuple[int, float], _KernelTables] = {}


def _tables_for(grid: Grid3) -> _KernelTables:
    key = (grid.n_cells, grid.half_width)
    tab = _tables_cache.get(key)
    if tab is None:
        with _tables_lock:
            tab = _tables_cache.get(key)
            if tab is None:
                tab = _KernelTables(grid)
                _tables_cache[key] = tab
    return tab


def _pad_rfftn(values: np.ndarray, n: int) -> np.ndarray:
    """Spectrum of `values` zero-padded to (2n)^3, without forming the pad.

    One axis at a time, each pass transforms only the lines that can hold
    nonzero data: n^2 lines along z, n(n+1) along y, then 2n(n+1) along x.
    """
    m = 2 * n
    spec = sfft.rfft(values, n=m, axis=2, workers=_FFT_WORKERS)
    spec = sfft.fft(spec, n=m, axis=1, overwrite_x=True, workers=_FFT_WORKERS)
    return sfft.fft(spec, n=m, axis=0, overwrite_x=True, workers=_FFT_WORKERS)


def _crop_irfftn(spec: np.ndarray, n: int) -> np.ndarray:
    """First-octant (n^3) view of the inverse of a (2n)^3 rfftn spectrum.

    Crops after each axis, so later passes skip the lines that would be
    thrown away. Consumes `spec`: its contents are overwritten.
    """
    m = 2 * n
    out = sfft.ifft(spec, axis=0, overwrite_x=True, workers=_FFT_WORKERS)[:n]
    out = sfft.ifft(out, axis=1, overwrite_x=True, workers=_FFT_WORKERS)[:, :n]
    return sfft.irfft(out, n=m, axis=2, workers=_FFT_WORKERS)[:, :, :n]


def _grad_centered(u: np.ndarray, h: float) -> list[np.ndarray]:
    """Central differences, one-sided at the box faces."""
    out = []
    for ax in range(3):
        d = np.empty_like(u)
        ua = np.moveaxis(u, ax, 0)
        da = np.moveaxis(d, ax, 0)
        da[1:-1] = (ua[2:] - ua[:-2]) / (2.0 * h)
        da[0] = (ua[1] - ua[0]) / h
        da[-1] = (ua[-1] - ua[-2]) / h
        out.append(d)
    return out


def _solve_fast(u: DensityField, with_potential: bool):
    """Shared core of the FFT solvers: (v or None, [gx, gy, gz])."""
    grid = u.grid
    n, h = grid.n_cells, grid.h
    if n < FAST_MIN_CELLS:
        raise GridTooSmall(f"n_cells = {n} < {FAST_MIN_CELLS}")
    tab = _tables_for(grid)
    uh = _pad_rfftn(u.values, n)
    work = np.empty_like(uh)  # per call, so concurrent solves share nothing
    scale = grid.cell_volume

    def convolve(kernel_hat: np.ndarray) -> np.ndarray:
        np.multiply(uh, kernel_hat, out=work)
        return _crop_irfftn(work, n) * scale

    v = None
    if with_potential:
        v = convolve(tab.k_hat)
        v += (_V_CORRECTION * h * h) * u.values
    grads = []
    for g_hat, dui in zip(tab.g_hat, _grad_centered(u.values, h)):
        g = convolve(g_hat)
        g += (_G_CORRECTION * h * h) * dui
        grads.append(g)
    return v, grads


def solve_potential_fast(u: DensityField) -> PotentialField:
    """Free-space potential and gradient by zero-padded FFT convolution."""
    v, (gx, gy, gz) = _solve_fast(u, with_potential=True)
    return PotentialField(u.grid, v, gx, gy, gz)


def solve_potential_gradient(u: DensityField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradient-only fast solve (skips the potential transform); solver hot path.

    Bitwise equal to the gradient of `solve_potential_fast`.
    """
    _, (gx, gy, gz) = _solve_fast(u, with_potential=False)
    return gx, gy, gz


def _pair_blocks(coords: list[np.ndarray], n_work: int):
    """Row blocks of the pair geometry shared by the O(N^2) oracles.

    Yields (rows, d, r, work) per block of target rows: d[c] holds
    coords[c][rows, None] - coords[c][None, :], r = |d| with the self pair's
    distance set to inf (so 1/r is exactly 0 there), and work is n_work >= 1
    scratch planes of the same shape. All of them are views into buffers
    allocated once per call and overwritten by the next block.
    """
    ncells = coords[0].size
    nrows = max(1, min(ncells, _BLOCK_PAIRS // max(ncells, 1)))
    d_buf = np.empty((3, nrows, ncells))
    r_buf = np.empty((nrows, ncells))
    work_buf = np.empty((n_work, nrows, ncells))
    for s in range(0, ncells, nrows):
        e = min(s + nrows, ncells)
        d, r, work = d_buf[:, : e - s], r_buf[: e - s], work_buf[:, : e - s]
        sq = work[0]
        for c in range(3):
            np.subtract(coords[c][s:e, None], coords[c][None, :], out=d[c])
        np.multiply(d[0], d[0], out=r)
        np.multiply(d[1], d[1], out=sq)
        r += sq
        np.multiply(d[2], d[2], out=sq)
        r += sq
        np.sqrt(r, out=r)
        np.fill_diagonal(r[:, s:e], np.inf)
        yield slice(s, e), d, r, work


def solve_potential_direct(u: DensityField) -> PotentialField:
    """O(N^2) double-sum oracle; independent code path from the FFT solver."""
    grid = u.grid
    n, h = grid.n_cells, grid.h
    if n > DIRECT_MAX_CELLS:
        raise TooLarge(f"direct solver limited to {DIRECT_MAX_CELLS}^3 cells, got {n}^3")
    x, y, z = grid.meshes()
    coords = [x.ravel(), y.ravel(), z.ravel()]
    uf = u.values.ravel()
    ncells = uf.size
    v = np.empty(ncells)
    g = [np.empty(ncells) for _ in range(3)]
    self_k = CUBE_MEAN_INV_R / (4.0 * math.pi * h)
    inv4pi = 1.0 / (4.0 * math.pi)
    for rows, d, r, (inv_r, cube) in _pair_blocks(coords, 2):
        np.divide(1.0, r, out=inv_r)
        # the singular self pair (1/inf = 0 in inv_r) carries the analytic cell mean
        v[rows] = inv4pi * (inv_r @ uf) + self_k * uf[rows]
        np.multiply(inv_r, inv_r, out=cube)
        cube *= inv_r
        for c in range(3):
            d[c] *= cube
            g[c][rows] = -inv4pi * (d[c] @ uf)
    scale = grid.cell_volume
    shape = u.values.shape
    vv = v.reshape(shape) * scale + (_V_CORRECTION * h * h) * u.values
    du = _grad_centered(u.values, h)
    gg = [
        g[c].reshape(shape) * scale + (_G_CORRECTION * h * h) * du[c] for c in range(3)
    ]
    return PotentialField(grid, vv, gg[0], gg[1], gg[2])


# ---------------------------------------------------------------------------
# field snapshot I/O: raw little-endian float64, row-major with z fastest,
# plus a key=value text sidecar at <path>.meta
# ---------------------------------------------------------------------------


def save_field(values: np.ndarray, grid: Grid3, path: str, name: str, time: float) -> None:
    arr = np.ascontiguousarray(values, dtype="<f8")
    arr.tofile(path)
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"n_cells={grid.n_cells}\n")
        fh.write(f"half_width={grid.half_width!r}\n")
        fh.write(f"spacing={grid.h!r}\n")
        fh.write(f"time={time!r}\n")
        fh.write(f"field={name}\n")


def load_field(path: str) -> tuple[np.ndarray, Grid3, dict]:
    meta: dict = {}
    with open(path + ".meta", "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or "=" not in line:
                continue
            key, val = line.split("=", 1)
            meta[key.strip()] = val.strip()
    n = int(meta["n_cells"])
    grid = Grid3(n_cells=n, half_width=float(meta["half_width"]))
    values = np.fromfile(path, dtype="<f8")
    if values.size != n**3:
        raise ValueError(f"snapshot has {values.size} values, expected {n**3}")
    return values.reshape(n, n, n), grid, meta
