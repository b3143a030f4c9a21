import math

import numpy as np
import pytest
from sphere_oracle import sphere_min, sphere_table
from symmetric_margin import symmetric_part_margin

from kstensor.errors import BadParameter, NotOrthogonal, SingularMatrix
from kstensor.matrixflux import (
    SNAP_TOL,
    FluxTensor,
    canonical_spectrum,
    check_hypothesis,
    parse_matrix,
    parse_matrix_inline,
    polar_decompose,
    read_matrix,
    rotation_z,
)


def random_nonsingular(rng, n, max_cond=1e3):
    while True:
        a = rng.uniform(-2.0, 2.0, size=(n, n))
        sv = np.linalg.svd(a, compute_uv=False)
        if sv[-1] > 0 and sv[0] / sv[-1] < max_cond:
            return a


def ill_conditioned(rng, cond):
    """A random 3x3 matrix with singular values (1, 0.5, 1/cond)."""
    q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return (q1 * (1.0, 0.5, 1.0 / cond)) @ q2.T


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

    def test_empty_rejected(self):
        for decide in (polar_decompose, FluxTensor.from_matrix, check_hypothesis):
            with pytest.raises(ValueError, match="nonempty square"):
                decide(np.zeros((0, 0)))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        a = np.eye(3)
        a[0, 0] = value
        for decide in (polar_decompose, FluxTensor.from_matrix, check_hypothesis):
            with pytest.raises(BadParameter, match="finite"):
                decide(a)

    @pytest.mark.parametrize("scale", [1e200, 1e-170])
    def test_extreme_scaled_identity(self, scale):
        # the power-of-two prescale maps these exactly onto a unit-scale copy
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


def paired_spectrum(u_orth):
    """Reference canonical spectrum: each complex eigenvalue searches for its conjugate partner."""
    eigs = np.linalg.eigvals(np.asarray(u_orth, dtype=float))
    angles, real_eigs = [], []
    used = np.zeros(len(eigs), dtype=bool)
    for i, lam in enumerate(eigs):
        if used[i]:
            continue
        used[i] = True
        if abs(lam - 1.0) <= 1e-8:
            real_eigs.append(1.0)
        elif abs(lam + 1.0) <= 1e-8:
            real_eigs.append(-1.0)
        else:
            partner = next(
                j for j in range(i + 1, len(eigs))
                if not used[j] and abs(eigs[j] - np.conj(lam)) <= 1e-8
            )
            used[partner] = True
            angles.append(float(np.arctan2(abs(lam.imag), lam.real)))
    return sorted(angles), sorted(real_eigs, reverse=True)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


class TestCanonicalSpectrum:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_random_orthogonal_bitwise_as_pairing(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            q = random_orthogonal(rng, n)
            assert canonical_spectrum(q) == paired_spectrum(q)

    @pytest.mark.parametrize(
        "u_orth",
        [rotation_z(1e-9), rotation_z(math.pi - 1e-9), np.diag([1.0, 1.0, -1.0])],
        ids=["rotation_1e-9", "rotation_pi_minus_1e-9", "reflection"],
    )
    def test_snapped_cases_bitwise_as_pairing(self, u_orth):
        assert canonical_spectrum(u_orth) == paired_spectrum(u_orth)

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

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_kappa_matches_margin_near_boundary(self, n):
        # kappa comes from the canonical spectrum alone; the symmetric part of U
        # must give the same number to 1e-10 at every angle the verdict turns on
        # (0, pi/2 and pi, each also at the SNAP_TOL edge) under a random stretch
        rng = np.random.default_rng(40 + n)
        for _ in range(100):
            r = np.diag(rng.choice([1.0, -1.0], size=n))
            for j in range(n // 2):
                t = rng.choice([0.0, math.pi / 2, math.pi]) + rng.choice([0.0, SNAP_TOL, -SNAP_TOL])
                r[2 * j:2 * j + 2, 2 * j:2 * j + 2] = rotation_z(t)[:2, :2]
            q, w = random_orthogonal(rng, n), random_orthogonal(rng, n)
            p = (w * np.exp(rng.uniform(-2.0, 2.0, size=n))) @ w.T
            flux = FluxTensor.from_matrix(p @ q @ r @ q.T)
            assert abs(flux.kappa - symmetric_part_margin(flux.u_orth)) < 1e-10


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

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-170])
    def test_pinv_spectrum_accurate_when_ill_conditioned(self, scale):
        # singular values (1e-5, 2e-5, 1, ...): the SVD of a keeps each to
        # eps * cond relative (about 1e-11 here), so lam_max and trace_pinv
        # hold well inside 1e-9; a route through a a^T would lose eps * cond^2
        rng = np.random.default_rng(31)
        for n in (3, 4, 5, 6):
            sv = np.ones(n)
            sv[:2] = (1e-5, 2e-5)
            q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
            q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
            flux = FluxTensor.from_matrix(scale * (q1 * sv) @ q2.T)
            assert flux.lam_min == pytest.approx(1.0 / scale, rel=1e-9)
            assert flux.lam_max == pytest.approx(1e5 / scale, rel=1e-9)
            assert flux.trace_pinv == pytest.approx(np.sum(1.0 / sv) / scale, rel=1e-9)

    @pytest.mark.parametrize("cond", [1e8, 1e9, 1e10, 1e11, 5e11])
    def test_ill_conditioned_inside_singular_gate(self, cond):
        # the gate admits condition numbers up to 1/SINGULAR_RTOL; the factors
        # stay accurate there, and lam_max = sigma_min^(-1) to eps * cond
        eps = np.finfo(float).eps
        rng = np.random.default_rng(41)
        for _ in range(20):
            a = ill_conditioned(rng, cond)
            flux = FluxTensor.from_matrix(a)
            assert np.linalg.norm(flux.p @ flux.u_orth - a) <= 1e-12 * np.linalg.norm(a)
            assert np.linalg.norm(flux.u_orth.T @ flux.u_orth - np.eye(3)) <= 1e-12
            assert flux.lam_min == pytest.approx(1.0, rel=1e-12)
            assert flux.lam_max == pytest.approx(cond, rel=1e3 * eps * cond)

    def test_beyond_singular_gate_rejected(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            with pytest.raises(SingularMatrix):
                FluxTensor.from_matrix(ill_conditioned(rng, 2e12))

    def test_kappa_scaling_invariance(self):
        rng = np.random.default_rng(29)
        a = random_nonsingular(rng, 5)
        f1 = FluxTensor.from_matrix(a)
        f2 = FluxTensor.from_matrix(0.1 * a)
        assert abs(f1.kappa - f2.kappa) < 1e-12
        np.testing.assert_allclose(f1.angles, f2.angles, atol=1e-10)

    @pytest.mark.parametrize("name", ["a", "p", "u_orth"])
    def test_arrays_are_read_only(self, name):
        # a write would leave kappa, the spectrum and the verdict stale
        flux = FluxTensor.from_matrix(rotation_z(math.pi / 4))
        with pytest.raises(ValueError, match="read-only"):
            getattr(flux, name)[:] = -np.eye(3)
        assert flux.hypothesis_ok == FluxTensor.from_matrix(flux.a).hypothesis_ok

    def test_callers_matrix_stays_writable(self):
        m = rotation_z(math.pi / 4)
        flux = FluxTensor.from_matrix(m)
        m[:] = -np.eye(3)
        assert flux.hypothesis_ok and np.array_equal(flux.a, rotation_z(math.pi / 4))


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

    def test_read_matrix_inline_before_file(self, tmp_path):
        mfile = tmp_path / "m.txt"
        mfile.write_text("0 -1 0\n1 0 0\n0 0 1\n")
        np.testing.assert_array_equal(read_matrix("1,2,3,4", str(mfile)), [[1.0, 2.0], [3.0, 4.0]])
        for inline in (None, ""):  # an empty inline text gives way to the file
            np.testing.assert_array_equal(read_matrix(inline, str(mfile)), [[0, -1, 0], [1, 0, 0], [0, 0, 1]])

    @pytest.mark.parametrize("inline, path", [(None, None), ("", ""), (None, "")])
    def test_read_matrix_needs_a_source(self, inline, path):
        with pytest.raises(ValueError, match="^no matrix given"):
            read_matrix(inline, path)
