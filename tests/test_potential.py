import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.special import erf

from kstensor import potential
from kstensor.errors import DomainError, GridTooSmall, TooLarge
from kstensor.potential import (
    CUBE_MEAN_INV_R,
    DensityField,
    Grid3,
    _crop_irfftn,
    _pad_rfftn,
    gaussian_values,
    grad_kernel,
    kernel_value,
    load_field,
    save_field,
    solve_potential_direct,
    solve_potential_fast,
    solve_potential_gradient,
    solve_potential_v,
)


def gaussian_field(grid, mass=1.0, sigma=1.0, center=(0.0, 0.0, 0.0)):
    return DensityField(grid, gaussian_values(grid, mass, sigma, center))


def gaussian_potential_exact(grid, mass=1.0, sigma=1.0):
    x, y, z = grid.meshes()
    r = np.sqrt(x * x + y * y + z * z)
    v = mass * erf(r / (sigma * math.sqrt(2))) / (4 * math.pi * r)
    menc = mass * (
        erf(r / (math.sqrt(2) * sigma))
        - math.sqrt(2 / math.pi) * (r / sigma) * np.exp(-(r**2) / (2 * sigma**2))
    )
    return r, v, menc / (4 * math.pi * r**2), menc


class TestKernel:
    def test_values_3d(self):
        assert abs(kernel_value([1.0, 0, 0]) - 1 / (4 * math.pi)) < 1e-15
        assert abs(kernel_value([0, 0, 2.0]) - 1 / (8 * math.pi)) < 1e-15

    def test_value_4d(self):
        assert abs(kernel_value([1.0, 0, 0, 0], n=4) - 1 / (4 * math.pi**2)) < 1e-15

    def test_gradient_values(self):
        g = grad_kernel([1.0, 0.0, 0.0])
        np.testing.assert_allclose(g, [-1 / (4 * math.pi), 0, 0], atol=1e-16)
        g = grad_kernel([0.0, 0.0, 2.0])
        np.testing.assert_allclose(g, [0, 0, -1 / (16 * math.pi)], atol=1e-16)

    def test_gradient_antisymmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(3)
            np.testing.assert_allclose(grad_kernel(-x), -grad_kernel(x), rtol=1e-14)

    def test_singular_at_origin(self):
        with pytest.raises(DomainError):
            kernel_value([0.0, 0.0, 0.0])
        with pytest.raises(DomainError):
            grad_kernel([0.0, 0.0, 0.0])

    def test_cube_mean_constant(self):
        # closed form for the cell-averaged singular kernel
        assert abs(CUBE_MEAN_INV_R - 2.380077363979553) < 1e-14


class TestGrid3:
    def test_centers_symmetric_about_origin(self):
        g = Grid3(16, 2.0)
        c = g.axis_centers()
        np.testing.assert_allclose(c, -c[::-1], atol=1e-15)
        assert abs(g.h - 0.25) < 1e-15

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid3(24, 1.0)

    def test_rejects_bad_half_width(self):
        with pytest.raises(ValueError):
            Grid3(16, 0.0)

    def test_rejects_infinite_half_width(self):
        with pytest.raises(ValueError, match=r"\bfinite"):
            Grid3(16, math.inf)


class TestDensityField:
    def test_rejects_negative(self):
        g = Grid3(4, 1.0)
        with pytest.raises(ValueError):
            DensityField(g, -np.ones((4, 4, 4)))

    def test_rejects_nan(self):
        g = Grid3(4, 1.0)
        vals = np.ones((4, 4, 4))
        vals[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            DensityField(g, vals)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityField(Grid3(4, 1.0), np.ones((4, 4, 5)))

    def test_mass(self):
        g = Grid3(4, 1.0)
        u = DensityField(g, np.ones((4, 4, 4)))
        assert abs(u.mass - 8.0) < 1e-14  # box volume (2L)^3


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_matches_direct(self, seed):
        grid = Grid3(16, 2.0)
        rng = np.random.default_rng(seed)
        u = DensityField(grid, rng.random((16, 16, 16)))
        fast = solve_potential_fast(u)
        direct = solve_potential_direct(u)
        assert np.max(np.abs(fast.v - direct.v)) <= 1e-10 * np.max(np.abs(direct.v))
        for a, b in ((fast.gx, direct.gx), (fast.gy, direct.gy), (fast.gz, direct.gz)):
            assert np.max(np.abs(a - b)) <= 1e-10 * max(np.max(np.abs(b)), 1e-300)

    def test_zero_field(self):
        grid = Grid3(16, 2.0)
        u = DensityField(grid, np.zeros((16, 16, 16)))
        pot = solve_potential_fast(u)
        assert np.all(pot.v == 0.0)
        assert np.all(pot.gradient_magnitude() == 0.0)

    def test_gradient_only_path_matches(self):
        grid = Grid3(16, 2.0)
        u = gaussian_field(grid, sigma=0.4)
        pot = solve_potential_fast(u)
        gx, gy, gz = solve_potential_gradient(u)
        np.testing.assert_array_equal(gx, pot.gx)
        np.testing.assert_array_equal(gz, pot.gz)

    @pytest.mark.parametrize("n", [16, 32])
    def test_potential_only_path_matches(self, n):
        grid = Grid3(n, 2.0)
        u = gaussian_field(grid, sigma=0.4, center=(0.3, -0.2, 0.1))
        np.testing.assert_array_equal(solve_potential_v(u), solve_potential_fast(u).v)

    def test_fast_solve_peak_memory_below_24_grids(self):
        # each centred difference of u for the defect correction lives only
        # through its own gradient convolution, not through all three
        u = gaussian_field(Grid3(32, 2.0), sigma=0.4)
        potential._tables_for(32)  # the cached tables are not the solve's
        tracemalloc.start()
        try:
            solve_potential_fast(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24 * u.values.nbytes


class TestDirectBlocks:
    # the O(N^2) oracle runs in bounded row blocks with buffers reused
    # across blocks, so its working set does not grow with the cell count

    def test_peak_memory_below_16mb(self):
        u = DensityField(Grid3(16, 2.0), np.random.default_rng(0).random((16, 16, 16)))
        tracemalloc.start()
        try:
            solve_potential_direct(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_small_blocks_match_default(self, monkeypatch):
        u = DensityField(Grid3(16, 2.0), np.random.default_rng(1).random((16, 16, 16)))
        ref = solve_potential_direct(u)
        # short first blocks, growing as the triangle's rows shorten; only
        # the summation order of the block products may change
        monkeypatch.setattr(potential, "_BLOCK_PAIRS", 3 * 16**3 + 5)
        got = solve_potential_direct(u)
        for name in ("v", "gx", "gy", "gz"):
            a, b = getattr(got, name), getattr(ref, name)
            assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)), name


def dense_direct(u):
    """The direct sum from all N x N coordinate differences at once: no blocks, no table."""
    grid = u.grid
    h = grid.h
    c = np.stack([m.ravel() for m in grid.meshes()])
    d = c[:, :, None] - c[:, None, :]
    r = np.sqrt(np.sum(d * d, axis=0))
    np.fill_diagonal(r, np.inf)
    uf = u.values.ravel()
    v = (1.0 / (4 * math.pi * r)) @ uf + CUBE_MEAN_INV_R / (4 * math.pi * h) * uf
    g = [(-d[k] / (4 * math.pi * r**3)) @ uf for k in range(3)]
    du = [potential._centered(u.values, k, h) for k in range(3)]
    shape = u.values.shape
    v = v.reshape(shape) * h**3 + potential._V_CORRECTION * h * h * u.values
    g = [g[k].reshape(shape) * h**3 + potential._G_CORRECTION * h * h * du[k] for k in range(3)]
    return v, *g


def sparse_random_field(n, seed):
    """Random density with about half its cells exactly zero."""
    rng = np.random.default_rng(seed)
    vals = rng.random((n, n, n))
    vals[rng.random((n, n, n)) < 0.5] = 0.0
    return DensityField(Grid3(n, 2.0), vals)


class TestPairWalk:
    # each unordered pair once over a displacement table, against the dense sum;
    # a small block size leaves pairs beyond each block's square, which reach
    # the later cell by transpose (with a sign flip for the odd gradient)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("split", [False, True])
    def test_direct_matches_dense_sum(self, monkeypatch, n, split):
        if split:
            monkeypatch.setattr(potential, "_BLOCK_PAIRS", 3 * n**3 + 1)
        u = sparse_random_field(n, seed=n)
        got = solve_potential_direct(u)
        for name, want in zip(("v", "gx", "gy", "gz"), dense_direct(u)):
            a = getattr(got, name)
            assert np.max(np.abs(a - want)) <= 1e-13 * np.max(np.abs(want)), name

    def test_blocks_cover_each_pair_once(self, monkeypatch):
        monkeypatch.setattr(potential, "_BLOCK_PAIRS", 10)  # blocks of 1, 2 and 3 rows
        n = 4
        cells = np.array([0, 5, 6, 17, 40, 63])
        d, _ = potential._displacements(n)
        table = np.arange(d.shape[1], dtype=float)
        c = np.stack(np.unravel_index(cells, (n, n, n)))
        seen = []
        for s, e, vals in potential._pair_blocks(cells, n, table):
            assert vals.shape == (e - s, cells.size - s)
            for a in range(e - s):
                for b in range(cells.size - s):
                    delta = d[:, int(vals[a, b])]
                    np.testing.assert_array_equal(delta, c[:, s + a] - c[:, s + b])
                    if b >= e - s or a <= b:
                        seen.append((s + a, s + b))
        assert sorted(seen) == [(a, b) for a in range(cells.size) for b in range(a, cells.size)]


class TestPrunedTransforms:
    """The axis-by-axis padded transforms against full (2n)^3 transforms."""

    @pytest.mark.parametrize("n", [16, 32])
    def test_pad_rfftn_matches_explicit_pad(self, n):
        values = np.random.default_rng(n).random((n, n, n))
        pad = np.zeros((2 * n,) * 3)
        pad[:n, :n, :n] = values
        ref = sfft.rfftn(pad)
        got = _pad_rfftn(values, n)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [16, 32])
    def test_crop_irfftn_matches_cropped_inverse(self, n):
        spec = sfft.rfftn(np.random.default_rng(n + 1).standard_normal((2 * n,) * 3))
        ref = sfft.irfftn(spec, s=(2 * n,) * 3)[:n, :n, :n]
        got = _crop_irfftn(spec.copy(), n, 1.0)
        assert got.shape == (n, n, n)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


def rfftn_tables(n):
    """Unit-spacing spectra of the padded kernel by full (2n)^3 rfftn.

    The construction the octant tables replace, kept as their oracle. The
    cyclic -n plane of each grad K component is zeroed, which makes its
    spectrum purely imaginary; no two cells of the box are n apart, so a
    solve never reads that plane.
    """
    m = 2 * n
    d = np.arange(m, dtype=float)
    d[d >= n] -= m
    dx, dy, dz = d[:, None, None], d[None, :, None], d[None, None, :]
    r = np.sqrt(dx**2 + dy**2 + dz**2)
    with np.errstate(divide="ignore"):
        k = 1.0 / (4.0 * math.pi * r)
        g = -1.0 / (4.0 * math.pi * r**3)
    k[0, 0, 0] = CUBE_MEAN_INV_R / (4.0 * math.pi)
    g[0, 0, 0] = 0.0
    grads = []
    for axis, dd in enumerate((dx, dy, dz)):
        gi = dd * g
        np.moveaxis(gi, axis, 0)[n] = 0.0
        grads.append(sfft.rfftn(gi))
    return sfft.rfftn(k), grads


def full_table(pair):
    lo, hi = pair
    return np.concatenate([lo, hi], axis=0)


class TestKernelTables:
    @pytest.mark.parametrize("n", [16, 32])
    def test_octant_tables_match_rfftn(self, n):
        tab = potential._KernelTables(n)
        k_ref, g_ref = rfftn_tables(n)
        got = full_table(tab.k_hat)
        assert got.shape == k_ref.shape
        assert np.max(np.abs(got - k_ref.real)) <= 1e-15 * np.max(np.abs(k_ref))
        for pair, ref in zip(tab.g_hat, g_ref):
            got = full_table(pair)
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref.imag)) <= 1e-15 * np.max(np.abs(ref))

    def test_mirrored_halves_share_storage(self):
        n = 16
        tab = potential._KernelTables(n)
        lo_bytes = (n + 1) * 2 * n * (n + 1) * 8
        # four lo tables plus the one stored (negated) hi, that of grad_x
        assert tab.nbytes == 4 * lo_bytes + (n - 1) * 2 * n * (n + 1) * 8
        assert tab.g_hat[0][1].base is None
        for lo, hi in (tab.k_hat, tab.g_hat[1], tab.g_hat[2]):
            assert hi.base is lo

    def test_one_cache_entry_per_grid_size(self, monkeypatch, caplog):
        monkeypatch.setattr(potential, "_tables_cache", {})
        caplog.set_level(logging.INFO, logger="kstensor.potential")
        rng = np.random.default_rng(5)
        values = rng.random((16, 16, 16))
        small = solve_potential_fast(DensityField(Grid3(16, 2.0), values))
        large = solve_potential_fast(DensityField(Grid3(16, 4.0), values))
        assert list(potential._tables_cache) == [16]
        built = [r.getMessage() for r in caplog.records if "kernel tables" in r.getMessage()]
        assert len(built) == 1 and "n_cells=16" in built[0]
        # doubling h scales v by 4 and grad v by 2 through the one table;
        # every scale here is a power of two, so the match is exact
        for name, factor in (("v", 4.0), ("gx", 2.0), ("gy", 2.0), ("gz", 2.0)):
            np.testing.assert_array_equal(getattr(large, name), factor * getattr(small, name))

    def test_build_peak_memory_below_40mb(self):
        tracemalloc.start()
        try:
            tab = potential._KernelTables(64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20
        assert tab.nbytes <= 24e6


class TestPointSource:
    def setup_method(self):
        self.grid = Grid3(32, 2.0)
        n, h = 32, self.grid.h
        vals = np.zeros((n, n, n))
        self.i0 = n // 2  # center at (+h/2, +h/2, +h/2)
        vals[self.i0, self.i0, self.i0] = 1.0 / h**3  # unit mass in one cell
        self.u = DensityField(self.grid, vals)
        self.pot = solve_potential_fast(self.u)

    def test_far_field_within_one_percent(self):
        x, y, z = self.grid.meshes()
        c = self.grid.axis_centers()[self.i0]
        r = np.sqrt((x - c) ** 2 + (y - c) ** 2 + (z - c) ** 2)
        mask = r >= 4 * self.grid.h
        exact = 1.0 / (4 * math.pi * r[mask])
        rel = np.abs(self.pot.v[mask] - exact) / exact
        assert np.max(rel) <= 1e-2

    def test_neighbor_cell_equals_kernel_entry(self):
        h = self.grid.h
        got = self.pot.v[self.i0 + 1, self.i0, self.i0]
        assert abs(got - 1.0 / (4 * math.pi * h)) < 1e-12 / h

    def test_two_symmetric_masses_give_symmetric_potential(self):
        n, h = 32, self.grid.h
        vals = np.zeros((n, n, n))
        vals[10, 16, 16] = 1.0 / h**3
        vals[21, 16, 16] = 1.0 / h**3  # mirror cell: centers at -+ same |x|
        u = DensityField(self.grid, vals)
        v = solve_potential_fast(u).v
        np.testing.assert_allclose(v, v[::-1, :, :], rtol=1e-12)


class TestGaussianClosedForm:
    def setup_method(self):
        self.sigma = 1.0
        self.grid = Grid3(64, 8.0 * self.sigma)
        self.u = gaussian_field(self.grid, sigma=self.sigma)
        self.pot = solve_potential_fast(self.u)
        self.r, self.v_exact, self.g_exact, self.menc = gaussian_potential_exact(
            self.grid, sigma=self.sigma
        )

    def test_potential_error_below_one_percent(self):
        err = np.max(np.abs(self.pot.v - self.v_exact)) / self.v_exact.max()
        assert err <= 1e-2

    def test_gradient_error_below_one_percent(self):
        gm = self.pot.gradient_magnitude()
        err = np.max(np.abs(gm - self.g_exact)) / self.g_exact.max()
        assert err <= 1e-2

    def test_gauss_law_radial_consistency(self):
        gm = self.pot.gradient_magnitude().ravel()
        r = self.r.ravel()
        menc = self.menc.ravel()
        mask = (r >= 2 * self.grid.h) & (r <= self.grid.half_width / 2)
        ratio = gm[mask] * 4 * math.pi * r[mask] ** 2 / menc[mask]
        assert np.max(np.abs(ratio - 1.0)) <= 1e-2

    def test_refinement(self):
        # potential error refines at second order; gradient error by >= 2.8x
        errs = {}
        for n in (32, 64):
            grid = Grid3(n, 8.0 * self.sigma)
            u = gaussian_field(grid, sigma=self.sigma)
            pot = solve_potential_fast(u)
            _, v_exact, g_exact, _ = gaussian_potential_exact(grid, sigma=self.sigma)
            errs[n] = (
                np.max(np.abs(pot.v - v_exact)) / v_exact.max(),
                np.max(np.abs(pot.gradient_magnitude() - g_exact)) / g_exact.max(),
            )
        assert math.log2(errs[32][0] / errs[64][0]) >= 1.8
        assert errs[32][1] / errs[64][1] >= 2.8

    def test_discrete_laplacian_residual(self):
        # -Lap_h v reproduces u in the interior at the scheme's accuracy
        v, u = self.pot.v, self.u.values
        h = self.grid.h
        lap = (
            v[2:, 1:-1, 1:-1] + v[:-2, 1:-1, 1:-1]
            + v[1:-1, 2:, 1:-1] + v[1:-1, :-2, 1:-1]
            + v[1:-1, 1:-1, 2:] + v[1:-1, 1:-1, :-2]
            - 6.0 * v[1:-1, 1:-1, 1:-1]
        ) / h**2
        resid = np.max(np.abs(-lap - u[1:-1, 1:-1, 1:-1])) / u.max()
        assert resid <= 2e-2


class TestLinearity:
    def test_superposition(self):
        grid = Grid3(16, 2.0)
        rng = np.random.default_rng(4)
        u1 = DensityField(grid, rng.random((16, 16, 16)))
        u2 = DensityField(grid, rng.random((16, 16, 16)))
        a, b = 0.7, 2.3
        combo = DensityField(grid, a * u1.values + b * u2.values)
        v_combo = solve_potential_fast(combo).v
        v_sum = a * solve_potential_fast(u1).v + b * solve_potential_fast(u2).v
        np.testing.assert_allclose(v_combo, v_sum, rtol=1e-12, atol=1e-15)


class TestGuards:
    def test_fast_rejects_tiny_grid(self):
        g = Grid3(8, 1.0)
        with pytest.raises(GridTooSmall):
            solve_potential_fast(DensityField(g, np.ones((8, 8, 8))))

    def test_direct_rejects_large_grid(self):
        g = Grid3(32, 1.0)
        with pytest.raises(TooLarge):
            solve_potential_direct(DensityField(g, np.ones((32, 32, 32))))


class TestFieldIO:
    def test_roundtrip(self, tmp_path):
        grid = Grid3(16, 1.5)
        rng = np.random.default_rng(9)
        vals = rng.random((16, 16, 16))
        path = str(tmp_path / "snap.bin")
        save_field(vals, grid, path, "u", 0.25)
        loaded, lgrid, meta = load_field(path)
        np.testing.assert_array_equal(loaded, vals)
        assert lgrid.n_cells == 16
        assert abs(lgrid.half_width - 1.5) < 1e-15
        assert meta["field"] == "u"
        assert abs(float(meta["time"]) - 0.25) < 1e-15

    def test_rejects_truncated(self, tmp_path):
        grid = Grid3(16, 1.5)
        path = str(tmp_path / "snap.bin")
        save_field(np.zeros((16, 16, 16)), grid, path, "u", 0.0)
        with open(path, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(ValueError):
            load_field(path)
