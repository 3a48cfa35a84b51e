import math

import numpy as np
import pytest

from finsler_iso import linalg as la
from finsler_iso.errors import MismatchError, ZeroVectorError

R, C = la.Field.REAL, la.Field.COMPLEX


def test_inner_orthogonal_basis_vectors():
    assert la.inner(la.vector([1, 0]), la.vector([0, 1])) == 0.0


def test_inner_norm_square_complex():
    v = la.vector([1, 1j], C)
    assert la.inner(v, v) == pytest.approx(2.0)


def test_inner_convention_conjugates_second_slot():
    assert la.inner(la.vector([1, 0], C), la.vector([1j, 0], C)) == pytest.approx(-1j)


def test_inner_rejects_mismatches():
    with pytest.raises(MismatchError):
        la.inner(la.vector([1, 0]), la.vector([1, 0, 0]))
    with pytest.raises(MismatchError):
        la.inner(la.vector([1, 0]), la.vector([1, 0], C))


def test_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        la.vector([1.0, float("nan")])
    with pytest.raises(ValueError):
        la.vector([float("inf"), 0.0])


def test_norm_examples():
    assert la.norm(la.vector([3, 4, 0])) == pytest.approx(5.0)
    assert la.norm(la.zero_vector(3)) == 0.0
    assert la.norm(la.vector([1j, 1], C)) == pytest.approx(math.sqrt(2))


def test_norm_consistent_with_inner():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = la.random_gaussian_vector(4, C, rng)
        assert la.norm(v) ** 2 == pytest.approx(la.inner(v, v).real, abs=1e-12)
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert la.norm(la.scale(c, v)) == pytest.approx(abs(c) * la.norm(v), abs=1e-12)


def test_acute_angle_examples():
    assert la.acute_angle(la.basis_vector(2, 0), la.basis_vector(2, 1)) == pytest.approx(math.pi / 2)
    assert la.acute_angle(la.vector([1, 0]), la.vector([1, 1])) == pytest.approx(math.pi / 4)
    assert la.acute_angle(la.vector([1, 0], C), la.vector([1j, 0], C)) == pytest.approx(0.0)
    # a 1e-9 angle is below arccos's resolution near 1; atan2(q, p) resolves it
    assert la.acute_angle(la.vector([1, 0]), la.vector([1, 1e-9])) == pytest.approx(1e-9, rel=1e-12)


def test_acute_angle_zero_vector():
    with pytest.raises(ZeroVectorError):
        la.acute_angle(la.zero_vector(2), la.vector([1, 0]))


def test_acute_angle_scalar_invariance():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        g = la.random_gaussian_vector(3, C, rng)
        h = la.random_gaussian_vector(3, C, rng)
        c = complex(rng.standard_normal(), rng.standard_normal()) or 1.0
        d = complex(rng.standard_normal(), rng.standard_normal()) or 1.0
        assert la.acute_angle(la.scale(c, g), la.scale(d, h)) == pytest.approx(
            la.acute_angle(g, h), abs=1e-10)


def test_canonical_invariants_examples():
    assert la.canonical_invariants(la.vector([2, 0]), la.vector([0, 3])) == pytest.approx((2, 0, 6))
    assert la.canonical_invariants(la.vector([1, 0]), la.vector([1, 0])) == pytest.approx((1, 1, 0))
    assert la.canonical_invariants(la.vector([1, 0]), la.vector([1, 1])) == pytest.approx((1, 1, 1))


def test_canonical_invariants_pythagoras():
    rng = np.random.default_rng(2)
    for _ in range(300):
        g = la.random_gaussian_vector(4, C, rng)
        h = la.random_gaussian_vector(4, C, rng)
        r, p, q = la.canonical_invariants(g, h)
        assert p * p + q * q == pytest.approx((r * la.norm(h)) ** 2, rel=1e-10)


def test_canonical_invariants_unitary_invariance():
    # (r, p, q) is a complete invariant of the pair: unitaries must fix it
    rng = np.random.default_rng(3)
    for i in range(1000):
        dim = int(rng.integers(2, 6))
        field = R if i % 2 else C
        g = la.random_gaussian_vector(dim, field, rng)
        h = la.random_gaussian_vector(dim, field, rng)
        u = la.random_unitary(dim, field, int(rng.integers(2 ** 31)))
        a = la.canonical_invariants(g, h)
        b = la.canonical_invariants(la.apply_map(u, g), la.apply_map(u, h))
        assert a == pytest.approx(b, abs=1e-10)


def test_canonical_isometry_identity_case():
    u = la.build_canonical_isometry(la.vector([1, 0]), la.vector([0, 1]),
                                    la.basis_vector(2, 0), la.basis_vector(2, 1))
    assert np.allclose(u.entries, np.eye(2), atol=1e-12)


def test_canonical_isometry_collinear_case():
    g = la.vector([0, 2])
    u = la.build_canonical_isometry(g, g, la.basis_vector(2, 0), la.basis_vector(2, 1))
    assert np.allclose(u.entries @ g.entries, [2, 0], atol=1e-12)
    assert np.allclose(u.entries.T @ u.entries, np.eye(2), atol=1e-12)


def test_canonical_isometry_random_complex_pairs():
    rng = np.random.default_rng(4)
    e, f = la.basis_vector(4, 0, C), la.basis_vector(4, 1, C)
    for _ in range(100):
        g = la.random_gaussian_vector(4, C, rng)
        h = la.random_gaussian_vector(4, C, rng)
        u = la.build_canonical_isometry(g, h, e, f)
        ug, uh = la.apply_map(u, g), la.apply_map(u, h)
        assert abs(la.inner(uh, ug) - la.inner(h, g)) <= 1e-12
        assert abs(la.norm(uh) - la.norm(h)) <= 1e-12
        assert np.allclose(ug.entries, la.norm(g) * e.entries, atol=1e-12)
        # image of h stays in the coordinate plane of (e, f)
        assert np.max(np.abs(uh.entries[2:])) <= 1e-12
        assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(4))) <= 1e-12


def test_canonical_isometry_preserves_probe_norms():
    rng = np.random.default_rng(5)
    g = la.random_gaussian_vector(5, C, rng)
    h = la.random_gaussian_vector(5, C, rng)
    u = la.build_canonical_isometry(g, h, la.basis_vector(5, 0, C), la.basis_vector(5, 1, C))
    for _ in range(100):
        v = la.random_gaussian_vector(5, C, rng)
        assert la.norm(la.apply_map(u, v)) == pytest.approx(la.norm(v), abs=1e-10)


def test_canonical_isometry_rejects_bad_frame():
    g, h = la.vector([1, 0]), la.vector([0, 1])
    with pytest.raises(ValueError):
        la.build_canonical_isometry(g, h, la.vector([1, 1]), la.vector([0, 1]))
    with pytest.raises(MismatchError):
        la.build_canonical_isometry(la.vector([1]), la.vector([1]),
                                    la.vector([1]), la.vector([1]))


@pytest.mark.parametrize("field", [R, C])
def test_random_unitary_is_unitary(field):
    for seed in range(10):
        dim = 1 + seed % 5
        u = la.random_unitary(dim, field, seed)
        assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(dim))) <= 1e-12
        assert abs(abs(np.linalg.det(u.entries)) - 1.0) <= 1e-10


def test_random_unitary_dim1_real_is_sign():
    vals = {float(la.random_unitary(1, R, s).entries[0, 0]) for s in range(20)}
    assert vals <= {1.0, -1.0}


def test_random_unitary_deterministic():
    a = la.random_unitary(4, C, 42)
    b = la.random_unitary(4, C, 42)
    assert np.array_equal(a.entries, b.entries)


def test_random_unitary_stream_is_kept():
    # values drawn before random_unitary became random_unitaries' one-matrix case
    assert la.random_unitary(3, R, 0).entries[0].tolist() == pytest.approx(
        [0.09566758570650524, -0.33463852249636405, 0.9374778783024902], rel=1e-12)
    assert la.random_unitary(2, C, 7).entries[1].tolist() == pytest.approx(
        [-0.5130611247305239 + 0.11256141313725435j, -0.15267846993532344 + 0.8371305127523442j],
        rel=1e-12)


@pytest.mark.parametrize("field", [R, C])
def test_random_unitaries_are_unitary(field):
    U = la.random_unitaries(50, 3, field, np.random.default_rng(0))
    assert U.shape == (50, 3, 3) and U.dtype == field.dtype
    assert np.max(np.abs(U.conj().transpose(0, 2, 1) @ U - np.eye(3))) <= 1e-12


def test_stacked_unitaries_equal_one_at_a_time():
    # over R one (n, dim, dim) draw is n consecutive (1, dim, dim) draws
    stacked = la.random_unitaries(20, 4, R, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    single = [la.random_unitaries(1, 4, R, rng)[0] for _ in range(20)]
    assert np.allclose(stacked, single, rtol=0.0, atol=1e-14)


def test_random_rotation():
    for seed in range(10):
        rot = la.random_rotation(3, seed)
        assert np.linalg.det(rot.entries) == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rot.entries.T @ rot.entries - np.eye(3))) <= 1e-12
    with pytest.raises(MismatchError):
        la.random_rotation(3, 0, field=C)


def test_singular_values():
    assert la.singular_values(la.identity_map(3)) == pytest.approx([1, 1, 1])
    assert la.singular_values(la.linear_map([[2, 0], [0, 1]])) == pytest.approx([2, 1])
    rank1 = la.linear_map([[1, 2], [2, 4]])
    assert la.singular_values(rank1)[1] <= 1e-12


def test_singular_values_of_congruence():
    rng = np.random.default_rng(6)
    for seed in range(50):
        c = float(rng.uniform(0.1, 5.0))
        u = la.random_unitary(4, C, seed)
        sv = la.singular_values(la.LinearMap(c * u.entries, C))
        assert np.max(np.abs(sv - c)) <= 1e-10
