"""Free-space Newtonian potential on a 3-D grid.

Solves -Laplace(v) = u on all of R^3 restricted to a cube, via discrete
convolution with the kernel K(x) = 1/(4 pi |x|):

* fast path: zero-padded FFT convolution, every transform numpy.fft's (domain
  doubled per axis, so the periodic product realizes the free-space sum exactly
  on the original box). The padded spectrum is never formed: after the z and y
  passes, slabs of ky rows are padded along x, transformed, multiplied by each
  real kernel table and transformed back, in lanes sharing a fixed buffer. The
  y inverse then keeps ky rows [0, n), and their z inverse is written into the
  rows it dropped. Every pass runs in the step kernels' blocks of x rows (the x
  pass in as many lanes), with the same bits for any count. The tables come
  from one octant by DCT-I/DST-I (rffts of its even and odd extensions) once
  per n_cells, free of the grid spacing, which enters as one scalar per inverse;
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
"""

from __future__ import annotations

import functools
import logging
import math
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, GridTooSmall, TooLarge

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
_SLAB_ROWS = 8  # ky rows per slab buffer, over all lanes of the x pass: 0.25 MB each at 32^3

_BLOCKS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_MIN_BLOCK_CELLS = 1 << 15  # cells per step-kernel block: 32^3 runs in one block, 64^3 in two+

logger = logging.getLogger(__name__)


@functools.lru_cache(maxsize=1)  # one pool per process id: a forked child builds its own
def _pool(pid: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(_BLOCKS - 1, thread_name_prefix="kstensor-blocks")


def _in_blocks(task, n: int, blocks: int, *args) -> list:
    """[task(lo, hi, *args) for each of min(blocks, n) contiguous blocks [lo, hi) of range(n)].

    The first block runs on the caller, the rest on the pool. A task writes only its block,
    by the same operations per element as one block, and never calls this helper. Every call
    takes `_step_blocks` blocks, one below the floor; a solve's x pass takes at most _SLAB_ROWS
    lanes. A step kernel and a solve's z/y forward and y/z inverses cut x rows, the step
    kernels' tasks reading read-only halo rows across each cut.
    """
    cuts = sorted({n * b // blocks for b in range(blocks + 1)})  # no empty block
    rest = [_pool(os.getpid()).submit(task, *lohi, *args) for lohi in zip(cuts[1:-1], cuts[2:])]
    return [task(cuts[0], cuts[1], *args)] + [f.result() for f in rest]


def _step_blocks(cells: int) -> int:  # one per CPU, none smaller than the floor
    return min(_BLOCKS, max(1, cells // _MIN_BLOCK_CELLS))


def unit_ball_volume(n: int) -> float:
    """Volume of the unit ball in R^n."""
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def _require_dimension(n: int) -> None:
    """BadParameter unless n >= 3, the dimensions the analysis layer covers."""
    if n < 3:
        raise BadParameter(f"dimension must be >= 3, got {n}")


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
        if not 0.0 < self.h * self.h * self.h < math.inf:  # the cell volume
            raise ValueError(f"half_width must give a finite h^3 > 0, got {self.half_width}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.n_cells

    @property
    def cell_volume(self) -> float:
        return self.h**3

    def axis_centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.h - self.half_width

    def radius_squared(self) -> np.ndarray:
        return _squared_offset(self)


def _squared_offset(grid: Grid3, center=(0.0, 0.0, 0.0), scale=(1.0, 1.0, 1.0)) -> np.ndarray:
    """Sum of ((x_i - center_i) / scale_i)^2 at the cell centres, broadcast from the axes."""
    c, x0 = grid.axis_centers(), np.asarray(center, dtype=float)
    d = [((c - x0[i]) / scale[i]) ** 2 for i in range(3)]
    return d[0][:, None, None] + d[1][None, :, None] + d[2][None, None, :]


def gaussian_values(grid: Grid3, mass: float, sigma, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Cell-centre values of the mass-M axis-aligned Gaussian.

    sigma is one width or three (per axis); center is a point in the box.
    """
    sig = np.asarray(sigma, dtype=float) * np.ones(3)
    norm = mass / ((2.0 * math.pi) ** 1.5 * float(np.prod(sig)))
    return norm * np.exp(-0.5 * _squared_offset(grid, center, sig))


def ball_values(grid: Grid3, mass: float, radius: float, center=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Cell-centre values of the mass-M uniform ball of the given radius."""
    rho = mass / (4.0 / 3.0 * math.pi * radius**3)
    return np.where(_squared_offset(grid, center) <= radius * radius, rho, 0.0)


@dataclass(frozen=True)
class DensityField:
    """Non-negative cell-centered density on a Grid3, a frozen value with its min and max."""

    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        n = self.grid.n_cells
        values = np.asarray(self.values, dtype=float)
        if values.shape != (n, n, n):
            raise ValueError(f"values shape {values.shape} != grid {(n, n, n)}")
        lo, hi = float(values.min()), float(values.max())
        if not np.isfinite((lo, hi)).all():  # NaN reaches both, inf one
            raise ValueError("non-finite values detected in the density field")
        if lo < 0.0:
            raise ValueError(f"density must be non-negative (min = {lo:.3e})")
        values.flags.writeable = False  # no copy: a rejected array stays writable
        for name, value in (("values", values), ("min_value", lo), ("max_value", hi)):
            object.__setattr__(self, name, value)

    @property
    def mass(self) -> float:
        return float(self.grid.cell_volume * self.values.sum())


@dataclass(frozen=True)
class PotentialField:
    """Potential v and its gradient on the same grid as the source density."""

    grid: Grid3
    v: np.ndarray
    gx: np.ndarray
    gy: np.ndarray
    gz: np.ndarray

    def gradient_squared(self) -> np.ndarray:
        """|grad v|^2 per cell, summed in place: two grid arrays at most."""
        sq = self.gx * self.gx
        sq += self.gy * self.gy
        sq += self.gz * self.gz
        return sq


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
        k_oct = _dct1(_dct1(_dct1(k, 0), 1), 2)
        del k
        # the DFT of an odd sequence is -i times its DST-I, and
        # grad_x K = -x / (4 pi r^3): the table transforms +x / (4 pi r^3)
        g = d[1:n, None, None] / (4.0 * math.pi * r[1:n] ** 3)
        gx_oct = np.zeros_like(k_oct)
        gx_oct[1:n] = _dct1(_dct1(_dct1(g, 0, odd=True), 1), 2)
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


def _dct1(a: np.ndarray, ax: int, odd: bool = False) -> np.ndarray:
    """DCT-I of `a` along ax, or its DST-I if odd: the real part of the rfft of the even
    extension, or minus the imaginary part of the rfft of the odd extension."""
    a = np.moveaxis(a, ax, 0)
    z = np.zeros_like(a[:1])
    f = np.fft.rfft(np.concatenate([z, a, z, -a[::-1]] if odd else [a, a[-2:0:-1]]), axis=0)
    return np.moveaxis(-f.imag[1:-1] if odd else f.real, 0, ax)


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
    with _tables_lock:
        tab = _tables_cache.get(n)
        if tab is None:
            t0 = time.perf_counter()
            tab = _tables_cache[n] = _KernelTables(n)
            logger.info("kernel tables for n_cells=%d: %d bytes, built in %.1f ms",
                        n, tab.nbytes, 1e3 * (time.perf_counter() - t0))
    return tab


def _x_pass(start: int, stop: int, half: np.ndarray, tables: list, outs: list, bufs: np.ndarray) -> None:
    """x transform of the ky rows of lanes [start, stop) of len(bufs), zero-padded, a whole slab of
    w rows at a time in bufs[start]; each table's product is inverted along x and cropped into its
    output. w and 2n are powers of two, so the lanes split the 2n / w slabs at whole slabs."""
    n, lanes, w = half.shape[0], len(bufs), bufs.shape[3]
    spec, prod = bufs[start]
    for j in range(w * (2 * n // w * start // lanes), w * (2 * n // w * stop // lanes), w):
        spec[:n] = half[:, j : j + w]
        spec[n:] = 0.0
        np.fft.fft(spec, axis=0, out=spec)
        for (lo, hi), out in zip(tables, outs):
            # rows kx in [0, n] meet a table's lo, rows kx in [n+1, 2n) its hi, cast to complex
            # by copy: a complex-by-real product would take a cast buffer per lane running at once
            prod[: n + 1], prod[n + 1 :] = lo[:, j : j + w], hi[:, j : j + w]
            np.multiply(spec, prod, out=prod)
            out[:, j : j + w] = np.fft.ifft(prod, axis=0, out=prod)[:n]


def _forward_rows(lo: int, hi: int, values: np.ndarray, half: np.ndarray) -> None:
    """z and y transforms of x rows [lo, hi) of `values` into `half`, padded along y by hand."""
    n, rows = len(values), half[lo:hi]
    np.fft.rfft(values[lo:hi], n=2 * n, axis=2, out=rows[:, :n])
    rows[:, n:] = 0.0
    np.fft.fft(rows, axis=1, out=rows)


def _inverse_rows(lo: int, hi: int, spec: np.ndarray, scale: complex) -> None:
    """y inverse of x rows [lo, hi) of `spec`, scaled after the y crop; the z inverse of the kept
    ky rows [0, n) goes by out= into the real view of ky rows [n, 2n), which the crop freed."""
    n, rows = len(spec), spec[lo:hi]
    np.fft.ifft(rows, axis=1, out=rows)
    rows[:, :n] *= scale
    np.fft.irfft(rows[:, :n], n=2 * n, axis=2, out=rows[:, n:].view(float)[:, :, : 2 * n])


def _inverse_yz(spec: np.ndarray, scale: complex, blocks: int) -> np.ndarray:
    """First octant of the y and z inverse of `spec`, scaled after the y crop: a view into `spec`,
    which it consumes. The caller adds it in one strided add: in the blocks, each add would hold
    a ufunc buffer of its own."""
    n = len(spec)
    _in_blocks(_inverse_rows, n, blocks, spec, scale)
    return spec[:, n:].view(float)[:, :, :n]


def _centered(u: np.ndarray, ax: int, h: float, d: np.ndarray | None = None,
              lo: int = 0, hi: float = math.inf) -> np.ndarray:
    """Central difference along ax, one-sided at the box faces, into rows lo:hi along ax of d."""
    d = np.empty_like(u) if d is None else d
    ua, da = np.moveaxis(u, ax, 0), np.moveaxis(d, ax, 0)
    a, b = max(lo, 1), min(hi, len(ua) - 1)  # the rows with a neighbour on each side
    np.divide(ua[a + 1 : b + 1] - ua[a - 1 : b - 1], 2.0 * h, out=da[a:b])
    if lo == 0:
        da[0] = (ua[1] - ua[0]) / h
    if hi >= len(ua):
        da[-1] = (ua[-1] - ua[-2]) / h
    return d


def _solve_fast(u: DensityField, with_gradient: bool = True):
    """Shared core of the FFT solvers: (v, gx, gy, gz), or (v,) without the gradient."""
    n, h = u.grid.n_cells, u.grid.h
    if n < FAST_MIN_CELLS:
        raise GridTooSmall(f"n_cells = {n} < {FAST_MIN_CELLS}")
    tab = _tables_for(n)
    # every pass in the step kernels' blocks: the z and y transforms of the n x rows that hold data
    blocks = _step_blocks(n ** 3)
    half = np.empty((n, 2 * n, n + 1), dtype=complex)
    _in_blocks(_forward_rows, n, blocks, u.values, half)
    # per call, so concurrent solves share nothing; the slab buffers come from this thread's heap
    # (a pool thread's arena keeps freed memory resident). A lane per block, all sharing _SLAB_ROWS
    tables = [*(tab.g_hat if with_gradient else []), tab.k_hat]
    specs = [np.empty_like(half) for _ in tables[1:]]
    lanes = min(blocks, _SLAB_ROWS)
    shape = (lanes, 2, 2 * n, _SLAB_ROWS // lanes, n + 1)
    _in_blocks(_x_pass, lanes, lanes, half, tables, specs + [half], np.empty(shape, dtype=complex))
    # cell volume h^3 times the unit tables' 1/h (K) and i/h^2 (grad K); the
    # defect correction is the left operand, so the results are contiguous
    grads = []
    for ax in range(len(specs)):
        g = (_G_CORRECTION * h * h) * _centered(u.values, ax, h)
        g += _inverse_yz(specs.pop(0), 1j * h, blocks)  # each spectrum freed once inverted
        grads.append(g)
    v = (_V_CORRECTION * h * h) * u.values
    v += _inverse_yz(half, h * h, blocks)
    return v, *grads


def solve_potential_fast(u: DensityField) -> PotentialField:
    """Free-space potential and gradient by zero-padded FFT convolution."""
    return PotentialField(u.grid, *_solve_fast(u))


def solve_potential_v(u: DensityField) -> np.ndarray:
    """Potential-only fast solve for the drift, bitwise equal to `solve_potential_fast(u).v`."""
    return _solve_fast(u, with_gradient=False)[0]


def solve_potential_gradient(u: DensityField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The gradient of `solve_potential_fast(u)`."""
    return _solve_fast(u)[1:]


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


def save_field(values: np.ndarray, grid: Grid3, path: str, time: float) -> None:
    arr = np.ascontiguousarray(values, dtype="<f8")
    arr.tofile(path)
    with open(path + ".meta", "w", encoding="utf-8") as fh:
        fh.write(f"n_cells={grid.n_cells}\n")
        fh.write(f"half_width={grid.half_width!r}\n")
        fh.write(f"spacing={grid.h!r}\n")
        fh.write(f"time={time!r}\n")
        fh.write("field=u\n")


def load_field(path: str) -> tuple[np.ndarray, Grid3, dict]:
    meta: dict = {}
    with open(path + ".meta", "r", encoding="utf-8") as fh:
        for line in fh:
            key, sep, val = line.partition("=")
            if sep:  # lines without a key=value pair are skipped
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
