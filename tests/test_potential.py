import logging
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.fft as sfft
from scipy.special import erf

from grid_meshes import meshes
from kstensor import potential
from kstensor.errors import BadParameter, GridTooSmall, TooLarge
from kstensor.potential import (
    CUBE_MEAN_INV_R,
    DensityField,
    Grid3,
    ball_values,
    gaussian_values,
    load_field,
    save_field,
    solve_potential_direct,
    solve_potential_fast,
    solve_potential_gradient,
    solve_potential_v,
)
from traced_peak import traced_peak


def gaussian_field(grid, mass=1.0, sigma=1.0, center=(0.0, 0.0, 0.0)):
    return DensityField(grid, gaussian_values(grid, mass, sigma, center))


def gaussian_potential_exact(grid, mass=1.0, sigma=1.0):
    x, y, z = meshes(grid)
    r = np.sqrt(x * x + y * y + z * z)
    v = mass * erf(r / (sigma * math.sqrt(2))) / (4 * math.pi * r)
    menc = mass * (
        erf(r / (math.sqrt(2) * sigma))
        - math.sqrt(2 / math.pi) * (r / sigma) * np.exp(-(r**2) / (2 * sigma**2))
    )
    return r, v, menc / (4 * math.pi * r**2), menc


class TestCubeMeanInvR:
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
        for half_width in (0.0, 1e-200):  # 1e-200: h^3 underflows to 0
            with pytest.raises(ValueError):
                Grid3(16, half_width)

    def test_rejects_infinite_half_width(self):
        for half_width in (math.inf, 1e308, 1e200):  # h or h^3 overflows
            with pytest.raises(ValueError, match=r"\bfinite"):
                Grid3(16, half_width)


# reference samplers: the same formulas evaluated on full coordinate meshes


def mesh_gaussian_values(grid, mass, sigma, center=(0.0, 0.0, 0.0)):
    sig = np.asarray(sigma, dtype=float) * np.ones(3)
    c = np.asarray(center, dtype=float)
    x, y, z = meshes(grid)
    norm = mass / ((2.0 * math.pi) ** 1.5 * float(np.prod(sig)))
    return norm * np.exp(
        -0.5 * (((x - c[0]) / sig[0]) ** 2 + ((y - c[1]) / sig[1]) ** 2 + ((z - c[2]) / sig[2]) ** 2)
    )


def mesh_ball_values(grid, mass, radius, center=(0.0, 0.0, 0.0)):
    c = np.asarray(center, dtype=float)
    x, y, z = meshes(grid)
    rho = mass / (4.0 / 3.0 * math.pi * radius**3)
    r2 = (x - c[0]) ** 2 + (y - c[1]) ** 2 + (z - c[2]) ** 2
    return np.where(r2 <= radius * radius, rho, 0.0)


CENTERS = pytest.mark.parametrize(
    "center", [(0.0, 0.0, 0.0), (0.8, 0, 0), (1, 0, -1), (0.5, -0.3, 0.2), np.array([-0.25, 0.6, 0.1])]
)


class TestSamplers:
    grid = Grid3(32, 4.0)

    @CENTERS
    @pytest.mark.parametrize("sigma", [1.0, 0.4, (0.5, 0.7, 1.0), np.array([0.3, 0.3, 1.5])])
    def test_gaussian_bitwise_as_mesh(self, center, sigma):
        np.testing.assert_array_equal(
            gaussian_values(self.grid, 1.3, sigma, center),
            mesh_gaussian_values(self.grid, 1.3, sigma, center),
        )

    @CENTERS
    @pytest.mark.parametrize("radius", [0.3, 1.0, 1.5])
    def test_ball_bitwise_as_mesh(self, center, radius):
        np.testing.assert_array_equal(
            ball_values(self.grid, 0.7, radius, center),
            mesh_ball_values(self.grid, 0.7, radius, center),
        )

    def test_radius_squared_bitwise_as_mesh(self):
        x, y, z = meshes(self.grid)
        np.testing.assert_array_equal(self.grid.radius_squared(), x**2 + y**2 + z**2)

    def test_gaussian_peak_memory_below_three_grids(self):
        vals, peak = traced_peak(lambda: gaussian_values(self.grid, 1.0, (0.5, 0.7, 1.0), (0.8, 0, 0)))
        assert peak < 3 * vals.nbytes


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_each_non_finite_value_by_name(self, bad):
        # finiteness is read off the minimum and maximum: NaN reaches both, an infinity one
        vals = np.ones((4, 4, 4))
        vals[1, 2, 3] = bad
        with pytest.raises(ValueError, match="^non-finite values detected in the density field$"):
            DensityField(Grid3(4, 1.0), vals)

    def test_keeps_its_extremes(self):
        vals = np.random.default_rng(3).random((4, 4, 4))
        u = DensityField(Grid3(4, 1.0), vals)
        assert (u.min_value, u.max_value) == (vals.min(), vals.max())

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            DensityField(Grid3(4, 1.0), np.ones((4, 4, 5)))

    def test_values_are_read_only(self):
        u = DensityField(Grid3(4, 1.0), np.ones((4, 4, 4)))
        with pytest.raises(ValueError, match="read-only"):
            u.values[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            u.values *= 2.0
        assert (u.min_value, u.max_value) == (1.0, 1.0)

    @pytest.mark.parametrize("name", ["values", "min_value", "max_value", "grid"])
    def test_attributes_cannot_be_rebound(self, name):
        # a rebound array would leave the kept extremes stale and be writable
        u = DensityField(Grid3(16, 2.0), np.ones((16,) * 3))
        with pytest.raises(FrozenInstanceError):
            setattr(u, name, np.full((16,) * 3, 5.0))
        assert (u.min_value, u.max_value) == (1.0, 1.0) and not u.values.flags.writeable

    def test_freezes_the_callers_float64_array_without_a_copy(self):
        vals = np.random.default_rng(4).random((4, 4, 4))
        u = DensityField(Grid3(4, 1.0), vals)
        assert u.values is vals
        assert not vals.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, -1.0])
    def test_a_rejected_array_stays_writable(self, bad):
        vals = np.ones((4, 4, 4))
        vals[1, 2, 3] = bad
        with pytest.raises(ValueError):
            DensityField(Grid3(4, 1.0), vals)
        assert vals.flags.writeable
        vals[1, 2, 3] = 1.0  # the caller may repair it and build again
        assert DensityField(Grid3(4, 1.0), vals).max_value == 1.0

    def test_mass(self):
        g = Grid3(4, 1.0)
        u = DensityField(g, np.ones((4, 4, 4)))
        assert abs(u.mass - 8.0) < 1e-14  # box volume (2L)^3


class TestPotentialField:
    @pytest.mark.parametrize("name", ["grid", "v", "gx", "gy", "gz"])
    def test_attributes_cannot_be_rebound(self, name):
        pot = solve_potential_fast(gaussian_field(Grid3(16, 2.0), sigma=0.3))
        before = getattr(pot, name)
        with pytest.raises(FrozenInstanceError):
            setattr(pot, name, np.zeros((16,) * 3))
        assert getattr(pot, name) is before


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
        assert np.all(np.sqrt(pot.gradient_squared()) == 0.0)

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
        assert traced_peak(lambda: solve_potential_fast(u))[1] <= 24 * u.values.nbytes

    def test_potential_only_solve_peak_memory_below_9_grids(self):
        # the (n, 2n, n+1) half spectrum and v, or half plus two buffers of 8 ky rows for the
        # x pass; never (2n, 2n, n+1)
        u = gaussian_field(Grid3(32, 2.0), sigma=0.4)
        potential._tables_for(32)
        assert traced_peak(lambda: solve_potential_v(u))[1] <= 9 * u.values.nbytes

    @pytest.mark.parametrize("blocks", [4, 8, 16])
    def test_peak_memory_bounds_hold_for_any_cpu_count(self, cpus, blocks):
        # the x pass's lanes share one slab budget, so a pool thread per CPU adds no buffer
        cpus(blocks)
        self.test_fast_solve_peak_memory_below_24_grids()
        self.test_potential_only_solve_peak_memory_below_9_grids()

    def test_peak_memory_does_not_grow_with_cpu_count(self, cpus):
        # at 64^3 the x pass runs 2 lanes on 2 CPUs and 8 on 16, sharing 8 ky rows per slab
        # buffer, and the FFT passes 2 and 16 blocks; no pass takes a ufunc buffer per block
        u = gaussian_field(Grid3(64, 2.0), sigma=0.4)
        potential._tables_for(64)
        peaks = {}
        for blocks in (2, 16):
            cpus(blocks)
            for solve in (solve_potential_v, solve_potential_fast):
                peaks[solve, blocks] = traced_peak(lambda: solve(u))[1]
        for solve in (solve_potential_v, solve_potential_fast):
            assert peaks[solve, 16] - peaks[solve, 2] <= 0.25 * u.values.nbytes

    @pytest.mark.parametrize("blocks", [None, 16])  # this host's block count, then 16 CPUs'
    def test_potential_only_solve_at_64_peaks_below_6_grids(self, cpus, blocks):
        # the (n, 2n, n+1) half spectrum with v, or with the x pass's two 8-row slab buffers: the
        # z rfft writes into half, and the z inverse into half's ky rows [n, 2n), freed by the y
        # crop, so no (n, n, 2n) array is made
        if blocks:
            cpus(blocks)
        u = gaussian_field(Grid3(64, 2.0), sigma=0.4)
        potential._tables_for(64)
        assert traced_peak(lambda: solve_potential_v(u))[1] < 6 * u.values.nbytes


class TestDirectBlocks:
    # the O(N^2) oracle runs in bounded row blocks with buffers reused
    # across blocks, so its working set does not grow with the cell count

    def test_peak_memory_below_16mb(self):
        u = DensityField(Grid3(16, 2.0), np.random.default_rng(0).random((16, 16, 16)))
        assert traced_peak(lambda: solve_potential_direct(u))[1] < 16 * 2**20

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
    c = np.stack([m.ravel() for m in meshes(grid)])
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
    """The solves' pruned, slab-wise transforms against full (2n)^3 convolutions."""

    @staticmethod
    def assert_matches_explicit_convolution(u):
        pot = solve_potential_fast(u)
        ref = explicit_convolution(u)
        for name, want in zip(("v", "gx", "gy", "gz"), ref):
            got = getattr(pot, name)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [16, 32])
    def test_pad_rfftn_matches_explicit_pad(self, n):
        # data up to every face of the box, where the pad begins
        grid = Grid3(n, 2.0)
        self.assert_matches_explicit_convolution(
            DensityField(grid, np.random.default_rng(n).random((n, n, n)))
        )

    @pytest.mark.parametrize("n", [16, 32])
    def test_pad_rfftn_zeroes_its_own_pad(self, monkeypatch, n):
        # the solves zero-fill by hand: fill fresh float buffers with NaN so
        # that any pad entry they forget to write reaches the result
        grid = Grid3(n, 2.0)
        u = gaussian_field(grid, sigma=0.4, center=(0.3, -0.2, 0.1))
        clean_v, clean = solve_potential_v(u), solve_potential_fast(u)
        empty = np.empty

        def poisoned(*args, **kwargs):
            out = empty(*args, **kwargs)
            if np.issubdtype(out.dtype, np.inexact):
                out.fill(np.nan)
            return out

        monkeypatch.setattr(potential.np, "empty", poisoned)
        np.testing.assert_array_equal(solve_potential_v(u), clean_v)
        pot = solve_potential_fast(u)
        for name in ("v", "gx", "gy", "gz"):
            np.testing.assert_array_equal(getattr(pot, name), getattr(clean, name))

    @pytest.mark.parametrize("n", [16, 32])
    def test_crop_irfftn_matches_cropped_inverse(self, n):
        # mass in one corner: the far corner of the cropped output is the
        # displacement the periodic product must not wrap around
        values = np.zeros((n, n, n))
        values[: n // 4, : n // 4, : n // 4] = np.random.default_rng(n + 1).random((n // 4,) * 3)
        self.assert_matches_explicit_convolution(DensityField(Grid3(n, 2.0), values))


def explicit_convolution(u):
    """(v, gx, gy, gz) of u by full (2n)^3 rfftn and irfftn against `rfftn_tables`."""
    n, h = u.grid.n_cells, u.grid.h
    pad = np.zeros((2 * n,) * 3)
    pad[:n, :n, :n] = u.values
    spec = sfft.rfftn(pad)
    k_ref, g_ref = rfftn_tables(n)
    # cell volume h^3 times the unit spectra's 1/h (K) and 1/h^2 (grad K)
    v = (h * h) * sfft.irfftn(spec * k_ref, s=pad.shape)[:n, :n, :n]
    v += (potential._V_CORRECTION * h * h) * u.values
    grads = []
    for ax, g_hat in enumerate(g_ref):
        g = h * sfft.irfftn(spec * g_hat, s=pad.shape)[:n, :n, :n]
        g += (potential._G_CORRECTION * h * h) * potential._centered(u.values, ax, h)
        grads.append(g)
    return [v, *grads]


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

    @pytest.mark.parametrize("n", [16, 32])
    def test_octants_match_dct1_and_dst1(self, n):
        # the tables' own DCT-I and DST-I against scipy.fft's, an independent reference
        tab = potential._KernelTables(n)
        d = np.arange(n + 1, dtype=float)
        r = np.sqrt(d[:, None, None] ** 2 + d[None, :, None] ** 2 + d[None, None, :] ** 2)
        with np.errstate(divide="ignore"):
            k = 1.0 / (4.0 * math.pi * r)
        k[0, 0, 0] = CUBE_MEAN_INV_R / (4.0 * math.pi)
        gx = np.zeros_like(k)
        g = d[1:n, None, None] / (4.0 * math.pi * r[1:n] ** 3)
        gx[1:n] = sfft.dctn(sfft.dst(g, type=1, axis=0), type=1, axes=(1, 2))
        octants = (tab.k_hat[0][:, : n + 1], tab.g_hat[0][0][:, : n + 1])
        for got, ref in zip(octants, (sfft.dctn(k, type=1), gx)):
            assert got.shape == ref.shape == (n + 1,) * 3
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(got))

    def test_build_peak_memory_below_40mb(self):
        tab, peak = traced_peak(lambda: potential._KernelTables(64))
        assert peak < 40 * 2**20
        assert tab.nbytes <= 24e6


def test_package_runs_without_scipy():
    # numpy.fft does every transform: importing scipy.fft alone costs a process about 0.27 s
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import kstensor, kstensor.cli, kstensor.verify\n"
        "from kstensor.potential import DensityField, Grid3, solve_potential_fast\n"
        "kstensor.verify.run_suite('potential-oracle')\n"
        "solve_potential_fast(DensityField(Grid3(16, 2.0), np.ones((16, 16, 16))))\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(potential.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


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
        x, y, z = meshes(self.grid)
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
        gm = np.sqrt(self.pot.gradient_squared())
        err = np.max(np.abs(gm - self.g_exact)) / self.g_exact.max()
        assert err <= 1e-2

    def test_squared_is_sum_of_squares(self):
        sq = self.pot.gradient_squared()
        np.testing.assert_array_equal(sq, self.pot.gx**2 + self.pot.gy**2 + self.pot.gz**2)

    def test_gauss_law_radial_consistency(self):
        gm = np.sqrt(self.pot.gradient_squared()).ravel()
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
                np.max(np.abs(np.sqrt(pot.gradient_squared()) - g_exact)) / g_exact.max(),
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
        save_field(vals, grid, path, 0.25)
        loaded, lgrid, meta = load_field(path)
        np.testing.assert_array_equal(loaded, vals)
        assert lgrid.n_cells == 16
        assert abs(lgrid.half_width - 1.5) < 1e-15
        assert meta["field"] == "u"
        assert abs(float(meta["time"]) - 0.25) < 1e-15

    def test_rejects_truncated(self, tmp_path):
        grid = Grid3(16, 1.5)
        path = str(tmp_path / "snap.bin")
        save_field(np.zeros((16, 16, 16)), grid, path, 0.0)
        with open(path, "r+b") as fh:
            fh.truncate(100)
        with pytest.raises(ValueError):
            load_field(path)
