import math
import tracemalloc

import numpy as np
import pytest

from kstensor import functionals as fn
from kstensor import potential
from kstensor.errors import BadParameter, NonPositiveMoment, NotSPD, ZeroField
from kstensor.matrixflux import FluxTensor, rotation_z
from kstensor.potential import (
    DensityField,
    Grid3,
    gaussian_values,
    solve_potential_direct,
    solve_potential_fast,
)


def gaussian_field(grid, mass=1.0, sigma=1.0, center=(0.0, 0.0, 0.0)):
    return DensityField(grid, gaussian_values(grid, mass, sigma, center))


def rescaled_gaussian(grid, eps, mass=1.0, sigma=1.0):
    """eps^-3 u0(x/eps) for a centered Gaussian: width shrinks to eps*sigma."""
    return gaussian_field(grid, mass=mass, sigma=eps * sigma)


class TestMassAndMoments:
    def test_unit_gaussian_mass(self):
        u = gaussian_field(Grid3(64, 8.0), sigma=1.0)
        assert abs(u.mass - 1.0) < 1e-6

    def test_zero_field(self):
        u = DensityField(Grid3(16, 2.0), np.zeros((16, 16, 16)))
        assert u.mass == 0.0
        assert fn.second_moment(u) == 0.0

    def test_rescaling_preserves_mass(self):
        u = gaussian_field(Grid3(64, 8.0), sigma=1.0)
        u_eps = rescaled_gaussian(Grid3(64, 4.0), eps=0.5, sigma=1.0)
        assert abs(u_eps.mass - u.mass) < 1e-6

    def test_gaussian_second_moment(self):
        sigma = 0.8
        u = gaussian_field(Grid3(64, 8.0 * sigma), sigma=sigma)
        assert abs(fn.second_moment(u) - 3 * sigma**2) < 1e-2 * 3 * sigma**2

    def test_rescaling_scales_moment_by_eps_squared(self):
        sigma, eps = 1.0, 0.5
        m_full = fn.second_moment(gaussian_field(Grid3(64, 8.0), sigma=sigma))
        m_eps = fn.second_moment(rescaled_gaussian(Grid3(64, 4.0), eps,  sigma=sigma))
        assert abs(m_eps - eps**2 * m_full) < 1e-6 * m_full

    def test_weighted_equals_second_for_identity(self):
        u = gaussian_field(Grid3(32, 6.0), sigma=0.9)
        assert fn.weighted_moment(u, np.eye(3)) == pytest.approx(fn.second_moment(u), rel=1e-14)

    def test_weighted_moment_rejects_asymmetric(self):
        u = gaussian_field(Grid3(16, 4.0), sigma=0.7)
        with pytest.raises(NotSPD):
            fn.weighted_moment(u, np.array([[1, 0.5, 0], [0, 1, 0], [0, 0, 1.0]]))

    def test_weighted_moment_rejects_indefinite(self):
        u = gaussian_field(Grid3(16, 4.0), sigma=0.7)
        with pytest.raises(NotSPD):
            fn.weighted_moment(u, np.diag([1.0, 1.0, -1.0]))

    def test_eigenvalue_sandwich(self):
        rng = np.random.default_rng(31)
        u = gaussian_field(Grid3(32, 5.0), sigma=(0.6, 0.9, 1.2))
        m2 = fn.second_moment(u)
        for _ in range(10):
            a = rng.uniform(-2, 2, size=(3, 3))
            sv = np.linalg.svd(a, compute_uv=False)
            if sv[-1] < 0.05 * sv[0]:
                continue
            flux = FluxTensor.from_matrix(a)
            w = fn.weighted_moment(u, flux.p_inv)
            assert flux.lam_min * m2 - 1e-12 <= w <= flux.lam_max * m2 + 1e-12


class TestInteraction:
    def test_gaussian_closed_form(self):
        # J = M^2 / (sigma sqrt(pi)) for an isotropic Gaussian
        u = gaussian_field(Grid3(64, 8.0), sigma=1.0)
        assert fn.interaction_integral(u) == pytest.approx(1 / math.sqrt(math.pi), rel=1e-2)

    def test_zero_field(self):
        u = DensityField(Grid3(16, 2.0), np.zeros((16, 16, 16)))
        assert fn.interaction_integral(u) == 0.0

    def test_routes_agree(self):
        grid = Grid3(16, 2.0)
        rng = np.random.default_rng(12)
        u = DensityField(grid, rng.random((16, 16, 16)))
        a = fn.interaction_integral(u)
        b = fn.interaction_integral(u, pot=solve_potential_direct(u))
        assert abs(a - b) <= 1e-8 * abs(b)


class TestBiler:
    def test_gaussian_reference_values(self):
        u = gaussian_field(Grid3(64, 8.0), sigma=1.0)
        lhs, rhs, ok = fn.biler_check(u)
        assert ok
        assert lhs == pytest.approx(1.0, rel=1e-5)
        assert rhs == pytest.approx(math.sqrt(6.0) / math.sqrt(math.pi), rel=1e-2)

    def test_uniform_ball(self):
        # closed forms: J = (6/5) M^2 / R, m = (3/5) R^2 M; compare at the
        # sampled (staircase) mass, which J amplifies quadratically
        grid = Grid3(64, 4.0)
        x, y, z = grid.meshes()
        r2 = x * x + y * y + z * z
        rho = 1.0 / (4.0 / 3.0 * math.pi)
        u = DensityField(grid, np.where(r2 <= 1.0, rho, 0.0))
        lhs, rhs, ok = fn.biler_check(u)
        assert ok
        ms = u.mass
        assert rhs == pytest.approx(1.2 * ms**2 * math.sqrt(1.2 * ms), rel=2e-2)

    def test_strongly_anisotropic(self):
        u = gaussian_field(Grid3(64, 10.0), sigma=(0.3, 0.3, 1.5))
        _, _, ok = fn.biler_check(u)
        assert ok

    def test_zero_rejected(self):
        u = DensityField(Grid3(16, 2.0), np.zeros((16, 16, 16)))
        with pytest.raises(ZeroField):
            fn.biler_check(u)


class TestMomentRhs:
    def test_zero_field_identity(self):
        u = DensityField(Grid3(16, 2.0), np.zeros((16, 16, 16)))
        flux = FluxTensor.from_matrix(np.eye(3))
        assert fn.moment_rhs_identity(u, flux, chi=1.0) == 0.0

    def test_identity_flux_collapses_to_interaction(self):
        # with U = I the advective term equals -chi J / (4 pi)
        u = gaussian_field(Grid3(64, 8.0), sigma=1.0)
        flux = FluxTensor.from_matrix(np.eye(3))
        chi = 2.0
        got = fn.moment_rhs_identity(u, flux, chi)
        want = 6.0 * u.mass - chi / (4 * math.pi) * fn.interaction_integral(u)
        assert got == pytest.approx(want, rel=1e-2)

    def test_symmetrized_exchange_identity(self):
        u = gaussian_field(Grid3(16, 4.0), sigma=1.0)
        flux = FluxTensor.from_matrix(rotation_z(math.pi / 4))
        chi = 1.0
        ident = fn.moment_rhs_identity(u, flux, chi)
        sym = 2.0 * flux.trace_pinv * u.mass + chi * fn.interaction_symmetrized_direct(
            u, flux.u_orth
        )
        assert ident == pytest.approx(sym, rel=1e-2)

    def test_symmetrized_peak_memory_below_16mb(self):
        # fixed-size row blocks: the working set does not grow with the support
        u = DensityField(Grid3(16, 2.0), np.random.default_rng(0).random((16, 16, 16)) + 0.1)
        flux = FluxTensor.from_matrix(rotation_z(math.pi / 4))
        tracemalloc.start()
        try:
            fn.interaction_symmetrized_direct(u, flux.u_orth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_symmetrized_small_blocks_match_default(self, monkeypatch):
        u = gaussian_field(Grid3(16, 4.0), sigma=1.0)
        u_orth = FluxTensor.from_matrix(rotation_z(math.pi / 4)).u_orth
        ref = fn.interaction_symmetrized_direct(u, u_orth)
        # short first blocks, growing as the triangle's rows shorten; only
        # the summation order of the block products may change
        monkeypatch.setattr(potential, "_BLOCK_PAIRS", 3 * 16**3 + 5)
        assert fn.interaction_symmetrized_direct(u, u_orth) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("split", [False, True])
    def test_symmetrized_matches_dense_sum(self, monkeypatch, n, split):
        # zero cells exercise the support restriction, a small block size the
        # off-square pairs that count twice
        if split:
            monkeypatch.setattr(potential, "_BLOCK_PAIRS", 3 * n**3 + 1)
        rng = np.random.default_rng(n)
        vals = rng.random((n, n, n))
        vals[rng.random((n, n, n)) < 0.5] = 0.0
        grid = Grid3(n, 2.0)
        u = DensityField(grid, vals)
        u_orth = FluxTensor.from_matrix(rotation_z(math.pi / 3)).u_orth
        s_mat = 0.5 * (u_orth + u_orth.T)
        c = np.stack([m.ravel() for m in grid.meshes()])
        d = c[:, :, None] - c[:, None, :]
        r = np.sqrt(np.sum(d * d, axis=0))
        np.fill_diagonal(r, np.inf)
        quad = np.einsum("iab,ij,jab->ab", d, s_mat, d) / r**3
        uf = vals.ravel()
        want = -(uf @ quad @ uf) * grid.cell_volume**2 / (4 * math.pi)
        got = fn.interaction_symmetrized_direct(u, u_orth)
        assert abs(got - want) <= 1e-13 * abs(want)

    def test_bound_reference_value(self):
        flux = FluxTensor.from_matrix(np.eye(3))
        got = fn.moment_rhs_bound(3.0, 1.0, flux, chi=1.0)
        want = 6.0 - 2 ** -0.5 / (4 * math.pi) * 3 ** -0.5
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(5.96751263328193, rel=1e-11)

    def test_bound_limits(self):
        flux = FluxTensor.from_matrix(np.eye(3))
        assert fn.moment_rhs_bound(1e12, 1.0, flux, 1.0) == pytest.approx(6.0, abs=1e-5)
        assert fn.moment_rhs_bound(1e-12, 1.0, flux, 1.0) < -1e4

    def test_bound_rejects_bad_moment(self):
        flux = FluxTensor.from_matrix(np.eye(3))
        with pytest.raises(NonPositiveMoment):
            fn.moment_rhs_bound(0.0, 1.0, flux, 1.0)
        with pytest.raises(NonPositiveMoment):
            fn.moment_rhs_bound(1.0, 0.0, flux, 1.0)

    def test_identity_below_bound_on_gaussian(self):
        u = gaussian_field(Grid3(32, 5.0), sigma=0.8)
        flux = FluxTensor.from_matrix(rotation_z(math.pi / 4))
        chi = 1.0
        w = fn.weighted_moment(u, flux.p_inv)
        ident = fn.moment_rhs_identity(u, flux, chi)
        bound = fn.moment_rhs_bound(w, u.mass, flux, chi)
        assert ident <= bound + 0.02 * max(abs(ident), abs(bound))


class TestGradvBound:
    def test_optimal_gamma_value(self):
        u = gaussian_field(Grid3(32, 5.0), sigma=1.0)
        # normalize to M = 1, ||u||_inf = 1 analytically: use explicit numbers
        bound, gamma = fn.gradv_sup_bound(u)
        linf, m_tot = u.values.max(), u.mass
        expect = (2.0 * m_tot / (4 * math.pi * linf)) ** (1.0 / 3.0)
        assert gamma == pytest.approx(expect, rel=1e-12)

    def test_reference_gamma_star(self):
        # gamma*(M=1, linf=1, n=3) = (1/(2 pi))^(1/3)
        grid = Grid3(16, 1.0)
        vals = np.zeros((16, 16, 16))
        vals[8, 8, 8] = 1.0 / grid.cell_volume  # mass 1... but linf != 1
        # use the formula directly through a crafted field: M = linf = 1
        side = grid.cell_volume ** (-1 / 3)
        # a uniform box of edge 1 centered at origin: linf = 1, mass = 1
        x, y, z = grid.meshes()
        inside = (np.abs(x) <= 0.5) & (np.abs(y) <= 0.5) & (np.abs(z) <= 0.5)
        u = DensityField(grid, np.where(inside, 1.0, 0.0))
        assert abs(u.mass - 1.0) < 1e-12
        bound, gamma = fn.gradv_sup_bound(u)
        assert gamma == pytest.approx((1 / (2 * math.pi)) ** (1 / 3), rel=1e-10)

    def test_bound_dominates_measurement(self):
        for sigma in (0.5, 1.0):
            u = gaussian_field(Grid3(32, 8.0), sigma=sigma)
            pot = solve_potential_fast(u)
            bound, _ = fn.gradv_sup_bound(u)
            assert pot.gradient_magnitude().max() <= bound

    def test_doubling_gamma_worsens_bound(self):
        u = gaussian_field(Grid3(16, 4.0), sigma=1.0)
        b_star, g_star = fn.gradv_sup_bound(u)
        b2, _ = fn.gradv_sup_bound(u, gamma=2 * g_star)
        assert b2 > b_star

    def test_zero_rejected(self):
        u = DensityField(Grid3(16, 2.0), np.zeros((16, 16, 16)))
        with pytest.raises(ZeroField):
            fn.gradv_sup_bound(u)


class TestLqNorm:
    def test_unit_cube_indicator(self):
        grid = Grid3(16, 2.0)  # h = 0.25: the unit cube tiles 4x4x4 cells
        x, y, z = grid.meshes()
        inside = (np.abs(x) <= 0.5) & (np.abs(y) <= 0.5) & (np.abs(z) <= 0.5)
        u = DensityField(grid, np.where(inside, 1.0, 0.0))
        assert fn.lq_norm(u, 1.5) == pytest.approx(1.0, rel=1e-12)

    def test_gaussian_closed_form(self):
        sigma, mass, q = 0.7, 1.3, 1.5
        u = gaussian_field(Grid3(64, 8.0 * sigma), mass=mass, sigma=sigma)
        closed = mass * (2 * math.pi * sigma**2) ** (-3 * (q - 1) / (2 * q)) * q ** (
            -3 / (2 * q)
        )
        assert fn.lq_norm(u, q) == pytest.approx(closed, rel=1e-4)

    def test_rescaling_scales_by_inverse_eps(self):
        sigma, eps = 1.0, 0.5
        full = fn.lq_norm(gaussian_field(Grid3(64, 8.0), sigma=sigma), 1.5)
        shrunk = fn.lq_norm(rescaled_gaussian(Grid3(64, 4.0), eps, sigma=sigma), 1.5)
        assert shrunk == pytest.approx(full / eps, rel=1e-6)

    def test_rejects_q_below_one(self):
        u = gaussian_field(Grid3(16, 4.0), sigma=1.0)
        with pytest.raises(BadParameter):
            fn.lq_norm(u, 0.5)


class TestNonFinite:
    # a NaN or infinite parameter gets the error the function raises for a bad value

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_lq_norm_rejects_q(self, q):
        with pytest.raises(BadParameter, match=r"\bfinite"):
            fn.lq_norm(gaussian_field(Grid3(16, 4.0)), q)

    @pytest.mark.parametrize("gamma", [math.inf, math.nan])
    def test_gradv_sup_bound_rejects_gamma(self, gamma):
        with pytest.raises(BadParameter, match=r"\bfinite"):
            fn.gradv_sup_bound(gaussian_field(Grid3(16, 4.0)), gamma=gamma)

    @pytest.mark.parametrize(
        "b",
        [
            np.full((3, 3), math.nan),
            np.diag([math.inf, 1.0, 1.0]),
            [[1.0, math.nan, 0.0], [math.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
        ],
        ids=["nan", "inf_diagonal", "nan_pair"],
    )
    def test_weighted_moment_rejects_matrix(self, b):
        with pytest.raises(NotSPD, match=r"\bfinite"):
            fn.weighted_moment(gaussian_field(Grid3(16, 4.0)), b)

    @pytest.mark.parametrize(
        "w, m_tot", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_moment_rhs_bound_rejects(self, w, m_tot):
        flux = FluxTensor.from_matrix(np.eye(3))
        with pytest.raises(NonPositiveMoment, match=r"\bfinite"):
            fn.moment_rhs_bound(w, m_tot, flux, chi=1.0)


class TestDiagnostics:
    def test_csv_row_layout(self):
        u = gaussian_field(Grid3(16, 4.0), sigma=1.0)
        flux = FluxTensor.from_matrix(rotation_z(math.pi / 4))
        rec = fn.compute_record(u, flux, chi=1.0, t=0.5)
        row = rec.csv_row()
        parts = row.split(",")
        assert len(parts) == len(fn.CSV_COLUMNS) == 12
        assert float(parts[0]) == 0.5
        assert float(parts[1]) == pytest.approx(u.mass, rel=1e-12)
        assert math.isnan(float(parts[8]))  # dwdt_measured unfilled

    def test_fill_dwdt_measured(self):
        u = gaussian_field(Grid3(16, 4.0), sigma=1.0)
        flux = FluxTensor.from_matrix(np.eye(3))
        recs = [fn.compute_record(u, flux, 1.0, t) for t in (0.0, 0.1, 0.3)]
        recs[0].w, recs[1].w, recs[2].w = 1.0, 2.0, 2.5  # synthetic trajectory
        fn.fill_dwdt_measured(recs)
        assert recs[0].dwdt_measured == pytest.approx((2.0 - 1.0) / 0.1)
        assert recs[1].dwdt_measured == pytest.approx((2.5 - 1.0) / 0.3)
        assert recs[2].dwdt_measured == pytest.approx((2.5 - 2.0) / 0.2)

    def test_write_csv(self, tmp_path):
        u = gaussian_field(Grid3(16, 4.0), sigma=1.0)
        flux = FluxTensor.from_matrix(np.eye(3))
        recs = [fn.compute_record(u, flux, 1.0, t) for t in (0.0, 0.1)]
        fn.fill_dwdt_measured(recs)
        path = tmp_path / "diag.csv"
        fn.write_csv(recs, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(fn.CSV_COLUMNS)
        assert len(lines) == 3
        data = np.genfromtxt(str(path), delimiter=",", names=True)
        assert data["mass"].shape == (2,)

    def test_boundary_fraction_flags_leaky_field(self):
        grid = Grid3(16, 2.0)
        vals = np.ones((16, 16, 16))
        u = DensityField(grid, vals)
        frac = fn.boundary_mass_fraction(u)
        assert frac == pytest.approx(1.0 - (12 / 16) ** 3, rel=1e-12)
        rec_like = fn.compute_record(u, FluxTensor.from_matrix(np.eye(3)), 0.0, 0.0)
        assert not rec_like.moments_valid

    def test_boundary_fraction_zero_for_compact(self):
        u = gaussian_field(Grid3(32, 8.0), sigma=0.5)
        assert fn.boundary_mass_fraction(u) < 1e-10
