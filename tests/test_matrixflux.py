import math

import numpy as np
import pytest
from sphere_oracle import sphere_min, sphere_table

from kstensor.errors import BadParameter, NotOrthogonal, SingularMatrix
from kstensor.matrixflux import (
    FluxTensor,
    canonical_spectrum,
    check_hypothesis,
    parse_matrix,
    parse_matrix_inline,
    polar_decompose,
    rotation_z,
    symmetric_part_margin,
)


def random_nonsingular(rng, n, max_cond=1e3):
    while True:
        a = rng.uniform(-2.0, 2.0, size=(n, n))
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] < max_cond:
            return a


class TestPolarDecompose:
    def test_identity(self):
        p, u = polar_decompose(np.eye(3))
        np.testing.assert_allclose(p, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-14)

    def test_rotation_is_its_own_orthogonal_factor(self):
        a = rotation_z(math.pi / 4)
        p, u = polar_decompose(a)
        np.testing.assert_allclose(p, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(u, a, atol=1e-14)

    def test_scaled_rotation(self):
        a = 2.0 * rotation_z(math.pi / 4)
        p, u = polar_decompose(a)
        np.testing.assert_allclose(p, 2.0 * np.eye(3), atol=1e-13)
        np.testing.assert_allclose(u, rotation_z(math.pi / 4), atol=1e-14)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = rng.integers(3, 7)
            a = random_nonsingular(rng, n)
            p, u = polar_decompose(a)
            assert np.linalg.norm(p @ u - a) <= 1e-12 * np.linalg.norm(a)
            assert np.linalg.norm(u.T @ u - np.eye(n)) <= 1e-12
            assert np.linalg.norm(p - p.T) <= 1e-12 * np.linalg.norm(p)
            assert np.linalg.eigvalsh(p)[0] > 0

    def test_scaling_invariance(self):
        rng = np.random.default_rng(3)
        a = random_nonsingular(rng, 4)
        p1, u1 = polar_decompose(a)
        p2, u2 = polar_decompose(5.0 * a)
        np.testing.assert_allclose(p2, 5.0 * p1, rtol=1e-12)
        np.testing.assert_allclose(u2, u1, atol=1e-12)

    def test_singular_rejected(self):
        a = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(SingularMatrix):
            polar_decompose(a)

    def test_near_singular_rejected(self):
        a = np.diag([1.0, 1.0, 1e-13])
        with pytest.raises(SingularMatrix):
            polar_decompose(a)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            polar_decompose(np.ones((2, 3)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        a = np.eye(3)
        a[0, 0] = value
        for decide in (polar_decompose, FluxTensor.from_matrix, check_hypothesis):
            with pytest.raises(BadParameter, match="finite"):
                decide(a)

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_extreme_scaled_identity(self, scale):
        # a a^T of these overflows or underflows unless a is rescaled first
        p, u = polar_decompose(scale * np.eye(3))
        np.testing.assert_array_equal(p, scale * np.eye(3))
        np.testing.assert_array_equal(u, np.eye(3))

    @pytest.mark.parametrize("power", [600, -600])
    def test_power_of_two_scaling_keeps_verdict(self, power):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_nonsingular(rng, int(rng.integers(3, 7)))
            ref = FluxTensor.from_matrix(a)
            got = FluxTensor.from_matrix(np.ldexp(a, power))
            assert got.hypothesis_ok == ref.hypothesis_ok
            assert abs(got.kappa - ref.kappa) <= 1e-15
            np.testing.assert_array_equal(got.p, np.ldexp(ref.p, power))


class TestCanonicalSpectrum:
    def test_identity(self):
        angles, real_eigs = canonical_spectrum(np.eye(3))
        assert angles == []
        assert real_eigs == [1.0, 1.0, 1.0]

    def test_rotation_angle_read_off(self):
        angles, real_eigs = canonical_spectrum(rotation_z(math.pi / 3))
        assert len(angles) == 1
        assert abs(angles[0] - math.pi / 3) < 1e-12
        assert real_eigs == [1.0]

    def test_reflection(self):
        angles, real_eigs = canonical_spectrum(np.diag([1.0, 1.0, -1.0]))
        assert angles == []
        assert real_eigs == [1.0, 1.0, -1.0]

    def test_counts_balance(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 5, 6):
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            angles, real_eigs = canonical_spectrum(q)
            assert 2 * len(angles) + len(real_eigs) == n

    def test_rejects_non_orthogonal(self):
        with pytest.raises(NotOrthogonal):
            canonical_spectrum(np.diag([1.0, 2.0, 1.0]))


class TestCheckHypothesis:
    def test_rotation_quarter_turn(self):
        ok, margin = check_hypothesis(rotation_z(math.pi / 4))
        assert ok
        assert abs(margin - math.cos(math.pi / 4)) < 1e-12

    def test_identity(self):
        ok, margin = check_hypothesis(np.eye(3))
        assert ok
        assert abs(margin - 1.0) < 1e-12

    def test_obtuse_rotation_fails(self):
        ok, margin = check_hypothesis(rotation_z(2 * math.pi / 3))
        assert not ok
        assert abs(margin + 0.5) < 1e-12

    def test_spd_matrix_has_unit_margin(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            b = rng.standard_normal((3, 3))
            a = b @ b.T + 3.0 * np.eye(3)
            ok, margin = check_hypothesis(a)
            assert ok
            assert abs(margin - 1.0) < 1e-10

    def test_boundary_half_turn_reports_false(self):
        # cos(pi/2) = 0: hypothesis boundary, reported inapplicable
        ok, margin = check_hypothesis(rotation_z(math.pi / 2))
        assert not ok
        assert abs(margin) < 1e-12

    def test_reflection_fails(self):
        ok, margin = check_hypothesis(np.diag([1.0, 1.0, -1.0]))
        assert not ok
        assert abs(margin + 1.0) < 1e-12

    def test_routes_agree_randomly(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = rng.integers(3, 7)
            a = random_nonsingular(rng, n)
            _, u = polar_decompose(a)
            angles, real_eigs = canonical_spectrum(u)
            spectrum_min = min([math.cos(t) for t in angles] + real_eigs + [1.0])
            assert abs(spectrum_min - symmetric_part_margin(u)) < 1e-10


class TestSphereOracle:
    def test_oracle_never_beats_margin(self):
        rng = np.random.default_rng(17)
        table = sphere_table(4, seed=0, samples=20_000)
        for _ in range(5):
            a = random_nonsingular(rng, 4)
            _, u = polar_decompose(a)
            margin = symmetric_part_margin(u)
            assert sphere_min(table, u) >= margin - 1e-6

    def test_oracle_approaches_margin(self):
        sampled = sphere_min(sphere_table(3, seed=0), rotation_z(2 * math.pi / 3))
        assert abs(sampled - (-0.5)) < 1e-3


class TestFluxTensor:
    def test_fields_for_rotation(self):
        flux = FluxTensor.from_matrix(rotation_z(math.pi / 3))
        assert flux.n == 3
        assert flux.hypothesis_ok
        assert abs(flux.kappa - 0.5) < 1e-12
        assert abs(flux.lam_min - 1.0) < 1e-12
        assert abs(flux.lam_max - 1.0) < 1e-12
        assert abs(flux.trace_pinv - 3.0) < 1e-12

    def test_anisotropic_stretch(self):
        flux = FluxTensor.from_matrix(np.diag([2.0, 1.0, 0.5]))
        assert abs(flux.lam_min - 0.5) < 1e-12
        assert abs(flux.lam_max - 2.0) < 1e-12
        assert abs(flux.trace_pinv - 3.5) < 1e-12
        assert flux.trace_pinv >= flux.n * flux.lam_min
        assert abs(flux.a_maxnorm - 2.0) < 1e-15

    def test_invariants_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            a = random_nonsingular(rng, n)
            flux = FluxTensor.from_matrix(a)
            assert np.linalg.norm(flux.p @ flux.u_orth - a) <= 1e-12 * np.linalg.norm(a)
            assert np.linalg.norm(flux.u_orth.T @ flux.u_orth - np.eye(n)) <= 1e-12
            assert 0 < flux.lam_min <= flux.lam_max
            assert flux.trace_pinv >= n * flux.lam_min - 1e-12
            assert 2 * len(flux.angles) + len(flux.real_eigs) == n
            sym_min = symmetric_part_margin(flux.u_orth)
            assert abs(flux.kappa - sym_min) < 1e-10

    def test_kappa_scaling_invariance(self):
        rng = np.random.default_rng(29)
        a = random_nonsingular(rng, 5)
        f1 = FluxTensor.from_matrix(a)
        f2 = FluxTensor.from_matrix(0.1 * a)
        assert abs(f1.kappa - f2.kappa) < 1e-12
        np.testing.assert_allclose(f1.angles, f2.angles, atol=1e-10)


class TestMatrixText:
    def test_parse_identity(self):
        mat = parse_matrix("1 0 0\n0 1 0\n0 0 1\n")
        np.testing.assert_array_equal(mat, np.eye(3))

    def test_dimension_from_line_count(self):
        mat = parse_matrix("1 2\n3 4")
        assert mat.shape == (2, 2)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="expected"):
            parse_matrix("1 2 3\n4 5\n6 7 8")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_matrix("1 x\n2 3")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_matrix("  \n# only a comment\n")

    def test_inline_roundtrip(self):
        mat = parse_matrix_inline("1,2,3,4")
        np.testing.assert_array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])

    def test_inline_rejects_non_square(self):
        with pytest.raises(ValueError):
            parse_matrix_inline("1,2,3")
