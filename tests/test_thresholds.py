import dataclasses
import json
import math

import numpy as np
import pytest

from kstensor import functionals as fn
from kstensor import thresholds as th
from kstensor.errors import (
    BadExponent,
    BadParameter,
    HypothesisViolated,
    NonPositiveMoment,
    ZeroField,
)
from kstensor.functionals import lq_norm, second_moment
from kstensor.matrixflux import FluxTensor, rotation_z
from kstensor.potential import DensityField, Grid3, gaussian_values
from kstensor.verify import density_suite

IDENTITY = FluxTensor.from_matrix(np.eye(3))


def gaussian_field(grid, mass=1.0, sigma=1.0):
    return DensityField(grid, gaussian_values(grid, mass, sigma))


class TestBlowupConstant:
    def test_identity_closed_form(self):
        got = th.blowup_constant(IDENTITY, chi=1.0, n=3)
        assert got == pytest.approx(1.0 / (1152 * math.pi**2), rel=1e-12)

    def test_chi_homogeneity(self):
        base = th.blowup_constant(IDENTITY, chi=1.0, n=3)
        assert th.blowup_constant(IDENTITY, chi=2.0, n=3) == pytest.approx(4 * base, rel=1e-12)

    def test_rotation_scales_by_kappa_power(self):
        base = th.blowup_constant(IDENTITY, chi=1.0, n=3)
        rot = FluxTensor.from_matrix(rotation_z(math.pi / 3))
        assert th.blowup_constant(rot, 1.0, 3) == pytest.approx(0.25 * base, rel=1e-12)

    def test_rejects_hypothesis_violation(self):
        bad = FluxTensor.from_matrix(rotation_z(2 * math.pi / 3))
        with pytest.raises(HypothesisViolated):
            th.blowup_constant(bad, 1.0, 3)

    def test_rejects_bad_chi(self):
        with pytest.raises(BadParameter):
            th.blowup_constant(IDENTITY, 0.0, 3)

    def test_higher_dimension_formula(self):
        # n = 4: exponent 2/(n-2) = 1, omega_4 = pi^2/2, Tr(P^-1) = 4
        got = th.blowup_constant(FluxTensor.from_matrix(np.eye(4)), chi=1.0, n=4)
        want = (2 ** (1 - 2.0) * 1.0) / (2 * 4.0 * 1.0 * 4 * math.pi**2 / 2)
        assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("size, n", [(2, 3), (3, 4), (3, 5), (4, 3)])
    def test_dimension_must_match_matrix(self, size, n):
        flux = FluxTensor.from_matrix(np.eye(size))
        with pytest.raises(BadParameter, match="does not match"):
            th.blowup_constant(flux, 1.0, n)
        for decide in (th.admissibility, th.rescale_epsilon):
            with pytest.raises(BadParameter, match="does not match"):
                decide(1e-5, 1.0, flux, 1.0, n)

    def test_orthogonal_congruence_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(3, 7))
            while True:
                a = rng.uniform(-2, 2, size=(n, n))
                sv = np.linalg.svd(a, compute_uv=False)
                if sv[-1] > 0.05 * sv[0]:
                    break
            flux = FluxTensor.from_matrix(a)
            if not flux.hypothesis_ok:
                continue
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            flux_q = FluxTensor.from_matrix(q @ a @ q.T)
            c1 = th.blowup_constant(flux, 1.0, n)
            c2 = th.blowup_constant(flux_q, 1.0, n)
            assert c2 == pytest.approx(c1, rel=1e-9)


class TestAdmissibility:
    def test_half_threshold_is_admissible_with_finite_time(self):
        c_bl = th.blowup_constant(IDENTITY, 1.0, 3)
        verdict = th.admissibility(0.5 * c_bl, 1.0, IDENTITY, 1.0, 3)
        assert verdict.admissible
        assert verdict.f_w0 < 0
        assert verdict.t_upper is not None and verdict.t_upper > 0
        # integrating the ODE bound: t_upper |f| = (2/n) w0^(n/2)
        w0 = IDENTITY.lam_max * 0.5 * c_bl
        assert verdict.t_upper * abs(verdict.f_w0) == pytest.approx((2 / 3) * w0**1.5, rel=1e-12)

    def test_zero_moment_degenerate(self):
        verdict = th.admissibility(0.0, 1.0, IDENTITY, 1.0, 3)
        assert verdict.admissible
        assert verdict.t_upper == 0.0

    def test_ten_times_threshold_rejected(self):
        c_bl = th.blowup_constant(IDENTITY, 1.0, 3)
        verdict = th.admissibility(10 * c_bl, 1.0, IDENTITY, 1.0, 3)
        assert not verdict.admissible
        assert verdict.margin < 0

    def test_exact_threshold_counts_as_admissible(self):
        c_bl = th.blowup_constant(IDENTITY, 1.0, 3)
        verdict = th.admissibility(c_bl, 1.0, IDENTITY, 1.0, 3)
        assert verdict.admissible

    def test_scale_consistency(self):
        c_bl = th.blowup_constant(IDENTITY, 1.0, 3)
        m0 = 0.9 * c_bl
        for eps in (1.0, 0.7, 0.3, 0.1):
            assert th.admissibility(eps**2 * m0, 1.0, IDENTITY, 1.0, 3).admissible

    def test_t_upper_monotone_in_moment(self):
        c_bl = th.blowup_constant(IDENTITY, 1.0, 3)
        uppers = [
            th.admissibility(frac * c_bl, 1.0, IDENTITY, 1.0, 3).t_upper
            for frac in (0.8, 0.4, 0.2, 0.1, 0.05)
        ]
        assert all(b < a for a, b in zip(uppers, uppers[1:]))

    def test_rejects_negative_moment(self):
        with pytest.raises(NonPositiveMoment):
            th.admissibility(-1.0, 1.0, IDENTITY, 1.0, 3)

    @pytest.mark.parametrize("mass", [-1.0, 0.0])
    def test_rejects_nonpositive_mass(self, mass):
        with pytest.raises(NonPositiveMoment, match=rf"^mass must be positive, got {mass}$"):
            th.admissibility(1e-5, mass, IDENTITY, 1.0, 3)


class TestMomentOdeRate:
    """admissibility's f_w0: the moment ODE rate at w = lambda_max m0."""

    def test_zero_moment_is_the_aggregation_term(self):
        # admissibility evaluates f at w = 0 when m0 = 0
        want = -fn.aggregation_coefficient(IDENTITY, 1.0) * 2.0**2.5
        assert th.admissibility(0.0, 2.0, IDENTITY, 1.0, 3).f_w0 == want

    def test_numpy_moment_gives_a_json_verdict(self):
        # a numpy-float m0 used to give numpy scalars that json.dumps rejects
        verdict = th.admissibility(np.float64(1e-5), 1.0, IDENTITY, 1.0, 3)
        json.dumps(dataclasses.asdict(verdict))
        for name, value in dataclasses.asdict(verdict).items():
            assert value is None or type(value) in (float, bool), name

    def test_overflowing_weighted_moment_rejected(self):
        # m0 is finite, but w = lambda_max m0 = 2e308 is not
        flux = FluxTensor.from_matrix(0.5 * np.eye(3))
        text = r"^weighted moment must be non-negative and finite, got inf$"
        with pytest.raises(NonPositiveMoment, match=text):
            th.admissibility(1e308, 1.0, flux, 1.0, 3)


class TestRescaleEpsilon:
    def test_at_threshold_epsilon_is_one(self):
        c_bl = th.blowup_constant(IDENTITY, 1.0, 3)
        assert th.rescale_epsilon(c_bl, 1.0, IDENTITY, 1.0, 3) == pytest.approx(1.0, rel=1e-12)

    def test_four_times_threshold_gives_half(self):
        c_bl = th.blowup_constant(IDENTITY, 1.0, 3)
        assert th.rescale_epsilon(4 * c_bl, 1.0, IDENTITY, 1.0, 3) == pytest.approx(0.5, rel=1e-12)

    def test_end_to_end_rescaled_gaussian_is_admissible(self):
        # measure an inadmissible Gaussian, rescale by the returned eps,
        # re-measure on the zoomed grid, and re-check admissibility
        from kstensor.solver import InitialData, make_initial_data

        sigma, mass, chi = 1.0, 1.0, 1.0
        u0 = gaussian_field(Grid3(64, 8.0 * sigma), mass=mass, sigma=sigma)
        m0 = second_moment(u0)
        assert not th.admissibility(m0, u0.mass, IDENTITY, chi, 3).admissible
        eps = th.rescale_epsilon(m0, u0.mass, IDENTITY, chi, 3)
        desc = InitialData(kind="gaussian", mass=mass, sigma=(sigma,) * 3)
        grid2 = Grid3(64, 8.0 * sigma * eps)
        u1 = make_initial_data(desc, grid2, epsilon=eps)
        verdict = th.admissibility(second_moment(u1), u1.mass, IDENTITY, chi, 3)
        assert verdict.admissible
        assert abs(u1.mass - u0.mass) < 1e-6

    def test_rejects_zero_moment(self):
        with pytest.raises(NonPositiveMoment):
            th.rescale_epsilon(0.0, 1.0, IDENTITY, 1.0, 3)


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteInput:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_blowup_constant_rejects_chi(self, value):
        with pytest.raises(BadParameter, match="chi"):
            th.blowup_constant(IDENTITY, value, 3)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["moment", "mass", "chi"])
    @pytest.mark.parametrize("decide", [th.admissibility, th.rescale_epsilon])
    def test_moment_functions_reject(self, decide, name, value):
        args = {"moment": 1e-5, "mass": 1.0, "chi": 1.0}
        args[name] = value
        with pytest.raises(BadParameter, match=name):
            decide(args["moment"], args["mass"], IDENTITY, args["chi"], 3)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", ["p", "chi", "a_maxnorm", "c_czi", "c_gns"])
    def test_global_delta_rejects(self, name, value):
        args = {"p": 2.0, "n": 3, "chi": 1.0, "a_maxnorm": 1.0}
        args[name] = value
        with pytest.raises(BadParameter, match=name):
            th.global_delta(**args)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_compatibility_rejects_c_n(self, value):
        with pytest.raises(BadParameter, match="c_n"):
            th.compatibility_check(gaussian_field(Grid3(16, 6.0)), c_n=value)


class TestGlobalDelta:
    def test_reference_arithmetic(self):
        assert th.global_delta(4, 3, 1.0, 1.0, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_min_switches_branch(self):
        # small p: the n-branch 2/(n C) is the minimum
        assert th.global_delta(1, 3, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_inverse_chi_scaling(self):
        assert th.global_delta(4, 3, 2.0, 1.0) == pytest.approx(0.125, rel=1e-14)

    def test_inverse_norm_scaling(self):
        assert th.global_delta(4, 3, 1.0, 4.0) == pytest.approx(0.0625, rel=1e-14)

    def test_rejects_small_exponent(self):
        with pytest.raises(BadExponent):
            th.global_delta(0.5, 3, 1.0, 1.0)

    def test_rejects_nonpositive_constants(self):
        with pytest.raises(BadParameter):
            th.global_delta(4, 3, 1.0, 0.0)

    @pytest.mark.parametrize("n", [2, 1, 0, -3])
    def test_rejects_dimension_below_3(self, n):
        # n = 0 used to divide by zero and n = -3 to return -2/3
        with pytest.raises(BadParameter, match="dimension must be >= 3"):
            th.global_delta(4, n, 1.0, 1.0)


class TestCompatibility:
    def test_ratio_is_scale_invariant(self):
        # the ratio must match between two widths of the same Gaussian family
        u1 = gaussian_field(Grid3(64, 8.0), sigma=1.0)
        u2 = gaussian_field(Grid3(64, 4.0), sigma=0.5)
        l1, r1, _ = th.compatibility_check(u1, c_n=0.4)
        l2, r2, _ = th.compatibility_check(u2, c_n=0.4)
        assert l1 / r1 == pytest.approx(l2 / r2, rel=1e-6)

    @pytest.mark.parametrize("u", [pytest.param(u, id=name) for name, u in density_suite(16)])
    def test_exact_twin_has_the_same_ratio(self, u):
        # eps^-3 u(x / eps) with eps = 1/2: the same cells on a box half as wide,
        # values x 8; cell centres halve exactly, so both sides double
        twin = DensityField(Grid3(u.grid.n_cells, 0.5 * u.grid.half_width), 8.0 * u.values)
        lhs, rhs, ok = th.compatibility_check(u, c_n=0.4)
        lhs2, rhs2, ok2 = th.compatibility_check(twin, c_n=0.4)
        assert lhs2 / rhs2 == pytest.approx(lhs / rhs, rel=1e-6)
        assert lhs2 == pytest.approx(2.0 * lhs, rel=1e-12)
        assert rhs2 == pytest.approx(2.0 * rhs, rel=1e-12)
        assert ok2 == ok

    def test_sides_evaluated_once(self, monkeypatch):
        calls = {"lq_norm": 0, "second_moment": 0}

        def counted(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return getattr(fn, name)(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(th, name, counted(name))
        th.compatibility_check(gaussian_field(Grid3(16, 6.0)), c_n=0.4)
        assert calls == {"lq_norm": 1, "second_moment": 1}

    def test_divergence_rate_matches(self):
        # shrinking sigma at fixed mass blows up both sides at the same rate
        lhs, rhs = [], []
        for sigma in (1.0, 0.25):
            u = gaussian_field(Grid3(64, 8.0 * sigma), sigma=sigma)
            l, r, _ = th.compatibility_check(u, c_n=0.4)
            lhs.append(l)
            rhs.append(r)
        assert lhs[1] / lhs[0] == pytest.approx(4.0, rel=1e-3)
        assert rhs[1] / rhs[0] == pytest.approx(4.0, rel=1e-3)

    def test_calibrated_constant_holds_across_widths(self):
        c_n, _ = th.calibrate_cn()
        for sigma in (0.5, 1.0, 1.5):
            u = gaussian_field(Grid3(64, 8.0 * sigma), sigma=sigma)
            _, _, ok = th.compatibility_check(u, c_n=c_n * (1 - 1e-9))
            assert ok

    def test_rejects_zero_field(self):
        u = DensityField(Grid3(16, 2.0), np.zeros((16, 16, 16)))
        with pytest.raises(ZeroField):
            th.compatibility_check(u, 1.0)


class TestCalibrateCn:
    def test_isotropic_is_the_infimum(self):
        inf_ratio, samples = th.calibrate_cn()
        by_rho = dict(samples)
        assert inf_ratio == by_rho[1.0]
        # closed form for the isotropic member: sqrt(3)/(1.5 sqrt(2 pi))
        assert inf_ratio == pytest.approx(math.sqrt(3) / (1.5 * math.sqrt(2 * math.pi)), rel=1e-3)
        assert all(r >= inf_ratio for _, r in samples)


class TestDichotomyCompatibility:
    def test_blowup_and_global_certificates_are_disjoint(self):
        # once the calibrated norm/moment inequality is enforced, data in the
        # small-moment (blow-up) region has L^{3/2} norm above delta
        c_n, _ = th.calibrate_cn()
        chi = 1.0
        delta = th.global_delta(4, 3, chi, float(np.abs(IDENTITY.a).max()))
        c_bl = th.blowup_constant(IDENTITY, chi, 3)
        for mass in (0.5, 1.0, 2.0):
            # most concentrated admissible Gaussian: m0 at the threshold
            lower = c_n * mass * (mass / (c_bl * mass**3)) ** 0.5
            assert lower > delta
