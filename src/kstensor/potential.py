"""Free-space Newtonian potential on a 3-D grid.

Solves -Laplace(v) = u on all of R^3 restricted to a cube, via discrete
convolution with the kernel K(x) = 1/(4 pi |x|):

* fast path: zero-padded FFT convolution (domain doubled per axis, so the
  periodic product realizes the free-space sum exactly on the original box;
  the transforms run axis by axis and skip the lines that are all zero on
  the way in or cropped away on the way out). The kernel spectra are real
  tables built once per n_cells from one octant by DCT-I/DST-I, free of the
  grid spacing, which enters as one scalar per inverse transform;
* direct path: O(N^2) double sum, an independent oracle for the fast path,
  visiting each pair of cells once over a table of the (2n-1)^3 integer
  displacements.

Both paths share the same discretization: midpoint kernel samples, the
singular self-cell replaced by the analytic mean of K over one cell, and a
local Euler-Maclaurin defect correction (the kernel is harmonic away from
the origin, so the O(h^2) quadrature defect of the midpoint rule collapses
to terms in u and, per gradient axis, the centred difference of u there).

For diagnostics records the gradient of v is convolved with grad K directly
rather than obtained by differencing v, free of compounded error; the time
stepper's drift differences v at the cell faces, from one inverse transform.
Analytic kernel evaluation supports general dimension n >= 3; gridded
fields are three-dimensional only.
"""

from __future__ import annotations

import logging
import math
import threading
import time
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
# table entries gathered per row block of the O(N^2) oracles: 1 MB of float64
# whatever the table's width. Larger buffers raise glibc's dynamic mmap
# threshold, and later calls then leave their blocks resident on the heap
_BLOCK_PAIRS = 1 << 17
FAST_MIN_CELLS = 16

_FFT_WORKERS = -1  # scipy.fft uses all available cores

logger = logging.getLogger(__name__)


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
        if not 0.0 < self.half_width < math.inf:
            raise ValueError(f"half_width must be positive and finite, got {self.half_width}")

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
    """Unit-spacing kernel spectra for one n_cells, built once and shared read-only.

    On the padded (2n)^3 grid K is even along every axis, so its spectrum is
    real and is the DCT-I of the (n+1)^3 octant of displacements 0..n. grad_x K
    is odd along x once the cyclic -n plane is dropped (no two cells of the
    box are n apart, so that plane never reaches the cropped output); its
    spectrum is i times a real table, the DST-I along x and DCT-I along y and
    z of the octant. The y and z tables are axis transposes of the x octant
    (Hockney & Eastwood, Computer Simulation Using Particles, 1988, sec. 6).

    Each table is a pair (lo, hi) of real arrays: lo holds the rows
    kx in [0, n], expanded along y to shape (n+1, 2n, n+1); hi holds the rows
    kx in [n+1, 2n), the x-mirror of lo. hi is a reversed view of lo, and a
    stored negated copy for the x table, which is odd in x. On a grid of
    spacing h the spectra are k_hat / h and i g_hat / h^2.
    """

    def __init__(self, n: int):
        d = np.arange(n + 1, dtype=float)
        r = np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
        with np.errstate(divide="ignore"):
            k = 1.0 / (4.0 * math.pi * r)
        k[0, 0, 0] = CUBE_MEAN_INV_R / (4.0 * math.pi)
        k_oct = sfft.dctn(k, type=1, workers=_FFT_WORKERS)
        del k
        # the DFT of an odd sequence is -i times its DST-I, and
        # grad_x K = -x / (4 pi r^3): the table transforms +x / (4 pi r^3)
        g = d[1:n, None, None] / (4.0 * math.pi * r[1:n] ** 3)
        gx_oct = np.zeros_like(k_oct)
        gx_oct[1:n] = sfft.dctn(
            sfft.dst(g, type=1, axis=0, workers=_FFT_WORKERS),
            type=1, axes=(1, 2), workers=_FFT_WORKERS,
        )
        del g, r
        self.k_hat = _unfold(k_oct, n)
        self.g_hat = [
            _unfold(gx_oct, n, odd_x=True),
            _unfold(gx_oct.transpose(1, 0, 2), n, odd_y=True),
            _unfold(gx_oct.transpose(2, 1, 0), n),
        ]
        # bytes held: the four lo tables and the one stored hi
        self.nbytes = sum(
            a.nbytes for pair in (self.k_hat, *self.g_hat) for a in pair if a.base is None
        )


def _unfold(octant: np.ndarray, n: int, odd_x: bool = False, odd_y: bool = False):
    """(lo, hi) table from an (n+1)^3 octant: lo expanded along y, hi its x-mirror."""
    lo = np.empty((n + 1, 2 * n, n + 1))
    lo[:, : n + 1] = octant
    np.multiply(octant[:, n - 1 : 0 : -1], -1.0 if odd_y else 1.0, out=lo[:, n + 1 :])
    hi = lo[n - 1 : 0 : -1]
    return lo, (-hi if odd_x else hi)


_tables_lock = threading.Lock()
_tables_cache: dict[int, _KernelTables] = {}


def _tables_for(n: int) -> _KernelTables:
    tab = _tables_cache.get(n)
    if tab is None:
        with _tables_lock:
            tab = _tables_cache.get(n)
            if tab is None:
                t0 = time.perf_counter()
                tab = _KernelTables(n)
                logger.info(
                    "kernel tables for n_cells=%d: %d bytes, built in %.1f ms",
                    n, tab.nbytes, 1e3 * (time.perf_counter() - t0),
                )
                _tables_cache[n] = tab
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


def _crop_irfftn(spec: np.ndarray, n: int, scale: complex) -> np.ndarray:
    """First-octant (n^3) view of the inverse of a (2n)^3 rfftn spectrum, times scale.

    Crops after each axis, so later passes skip the lines that would be
    thrown away; the scale multiplies the cropped (n, n, n+1) intermediate
    before the last pass. Consumes `spec`: its contents are overwritten.
    """
    m = 2 * n
    out = sfft.ifft(spec, axis=0, overwrite_x=True, workers=_FFT_WORKERS)[:n]
    out = sfft.ifft(out, axis=1, overwrite_x=True, workers=_FFT_WORKERS)[:, :n]
    out *= scale
    return sfft.irfft(out, n=m, axis=2, workers=_FFT_WORKERS)[:, :, :n]


def _centered(u: np.ndarray, ax: int, h: float) -> np.ndarray:
    """Central difference along axis ax, one-sided at the box faces."""
    d = np.empty_like(u)
    ua, da = np.moveaxis(u, ax, 0), np.moveaxis(d, ax, 0)
    da[1:-1] = (ua[2:] - ua[:-2]) / (2.0 * h)
    da[0] = (ua[1] - ua[0]) / h
    da[-1] = (ua[-1] - ua[-2]) / h
    return d


def _solve_fast(u: DensityField, with_gradient: bool = True):
    """Shared core of the FFT solvers: (v, [gx, gy, gz] or [])."""
    grid = u.grid
    n, h = grid.n_cells, grid.h
    if n < FAST_MIN_CELLS:
        raise GridTooSmall(f"n_cells = {n} < {FAST_MIN_CELLS}")
    tab = _tables_for(n)
    uh = _pad_rfftn(u.values, n)
    work = np.empty_like(uh)  # per call, so concurrent solves share nothing
    # rows kx in [0, n] meet a table's lo, rows kx in [n+1, 2n) its hi
    uh_lo, uh_hi, work_lo, work_hi = uh[: n + 1], uh[n + 1 :], work[: n + 1], work[n + 1 :]

    def convolve(table, scale: complex) -> np.ndarray:
        np.multiply(uh_lo, table[0], out=work_lo)
        np.multiply(uh_hi, table[1], out=work_hi)
        return _crop_irfftn(work, n, scale)

    # cell volume h^3 times the unit tables' 1/h (K) and i/h^2 (grad K); the
    # defect correction is the left operand, so the results are contiguous
    v = (_V_CORRECTION * h * h) * u.values
    v += convolve(tab.k_hat, h * h)
    grads = []
    for ax, g_hat in enumerate(tab.g_hat if with_gradient else []):
        g = (_G_CORRECTION * h * h) * _centered(u.values, ax, h)
        g += convolve(g_hat, 1j * h)
        grads.append(g)
    return v, grads


def solve_potential_fast(u: DensityField) -> PotentialField:
    """Free-space potential and gradient by zero-padded FFT convolution."""
    v, (gx, gy, gz) = _solve_fast(u)
    return PotentialField(u.grid, v, gx, gy, gz)


def solve_potential_v(u: DensityField) -> np.ndarray:
    """Potential-only fast solve for the drift, bitwise equal to `solve_potential_fast(u).v`."""
    return _solve_fast(u, with_gradient=False)[0]


def solve_potential_gradient(u: DensityField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradient of `solve_potential_fast(u)`."""
    pot = solve_potential_fast(u)
    return pot.gx, pot.gy, pot.gz


def _displacements(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer displacements of the (2n-1)^3 table, flattened in C order.

    Returns (d, r): d[c] is component c, from -(n-1) to n-1, and r = |d| with
    the zero displacement at inf, so 1/r and d/r^3 are exactly 0 there.
    """
    a = np.arange(1 - n, n, dtype=float)
    d = np.stack([c.ravel() for c in np.meshgrid(a, a, a, indexing="ij")])
    r = np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])
    r[r == 0.0] = np.inf
    return d, r


def _pair_blocks(cells: np.ndarray, n: int, table: np.ndarray):
    """Each unordered pair of `cells` once, with its entry of a displacement table.

    `cells` are flat indices into the n^3 grid; `table` has one row per
    displacement of `_displacements(n)`. Per block of rows [s, e), yields
    (s, e, vals): vals[a, b] is the table row at cell s+a minus cell s+b, over
    the upper-triangle columns [s, len(cells)). The block's own square is
    full; a pair beyond it appears only here, so a kernel even under exchange
    reaches the later cell by transpose, and an odd one with a sign flip
    (Allen & Tildesley, Computer Simulation of Liquids, 1987). A block holds
    at most _BLOCK_PAIRS table entries, or one row if that is more; its index
    and value buffers are allocated once per call and overwritten by the next
    block.
    """
    m = 2 * n - 1
    i, j, k = np.unravel_index(cells, (n, n, n))
    lin = (i * m + j) * m + k
    # the table's centre, the zero displacement, goes onto the row side
    lin_rows = lin + (n - 1) * (m * m + m + 1)
    ncells = lin.size
    pairs = max(1, _BLOCK_PAIRS // table[0].size)
    size = min(max(pairs, ncells), ncells * ncells)  # at least one full row
    idx_buf = np.empty(size, dtype=np.intp)
    vals_buf = np.empty((size,) + table.shape[1:])
    s = 0
    while s < ncells:
        cols = ncells - s
        e = min(ncells, s + max(1, pairs // cols))
        idx = idx_buf[: (e - s) * cols].reshape(e - s, cols)
        np.subtract(lin_rows[s:e, None], lin[None, s:], out=idx)
        vals = vals_buf[: idx.size].reshape(idx.shape + table.shape[1:])
        # mode="clip" never clips here; it spares the buffered copy of "raise"
        np.take(table, idx, axis=0, out=vals, mode="clip")
        yield s, e, vals
        s = e


def solve_potential_direct(u: DensityField) -> PotentialField:
    """O(N^2) double-sum oracle; independent code path from the FFT solver."""
    grid = u.grid
    n, h = grid.n_cells, grid.h
    if n > DIRECT_MAX_CELLS:
        raise TooLarge(f"direct solver limited to {DIRECT_MAX_CELLS}^3 cells, got {n}^3")
    # one row per displacement: K = 1/(4 pi |x|), even under exchange, then
    # grad K = -x/(4 pi |x|^3), odd; all 0 on the self pair, which carries the
    # analytic cell mean instead
    d, r = _displacements(n)
    table = np.empty((r.size, 4))
    table[:, 0] = 1.0 / (4.0 * math.pi * h * r)
    table[:, 1:] = (d / (-4.0 * math.pi * h * h * r**3)).T
    parity = np.array([1.0, -1.0, -1.0, -1.0])
    uf = u.values.ravel()
    sums = np.zeros((uf.size, 4))
    for s, e, blk in _pair_blocks(np.arange(uf.size), n, table):
        # rows [s, e) take every column from s on; the later cells take the
        # block's rows by transpose, with the odd grad K columns negated
        sums[s:e] += uf[s:] @ blk
        sums[e:] += (uf[s:e] @ blk[:, e - s :].reshape(e - s, -1)).reshape(-1, 4) * parity
    sums[:, 0] += (CUBE_MEAN_INV_R / (4.0 * math.pi * h)) * uf
    scale = grid.cell_volume
    shape = u.values.shape
    vv = sums[:, 0].reshape(shape) * scale + (_V_CORRECTION * h * h) * u.values
    gg = [
        sums[:, c + 1].reshape(shape) * scale + (_G_CORRECTION * h * h) * _centered(u.values, c, h)
        for c in range(3)
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
    for key in ("n_cells", "half_width"):
        if key not in meta:
            raise ValueError(f"{path}.meta has no {key!r} entry")
    n = int(meta["n_cells"])
    grid = Grid3(n_cells=n, half_width=float(meta["half_width"]))
    values = np.fromfile(path, dtype="<f8")
    if values.size != n**3:
        raise ValueError(f"snapshot has {values.size} values, expected {n**3}")
    return values.reshape(n, n, n), grid, meta
