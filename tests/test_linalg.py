import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from finsler_iso import linalg as la
from finsler_iso.errors import (InvalidArgumentError, MismatchError, OutOfDomainError,
                                ZeroVectorError)

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


def test_real_vector_takes_complex_entries_only_with_zero_imaginary_parts():
    v = la.vector([1 + 0j, 2], R)
    assert v.field is R and v.entries.dtype == np.float64 and v.entries.tolist() == [1.0, 2.0]
    with pytest.raises(MismatchError, match="real vector cannot have complex entries"):
        la.vector([1 + 1j], R)


def test_norm_examples():
    assert la.norm(la.vector([3, 4, 0])) == pytest.approx(5.0)
    assert la.norm(la.vector([0, 0, 0])) == 0.0
    assert la.norm(la.vector([1j, 1], C)) == pytest.approx(math.sqrt(2))


def test_norm_consistent_with_inner():
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = la.random_gaussian_vector(4, C, rng)
        assert la.norm(v) ** 2 == pytest.approx(la.inner(v, v).real, abs=1e-12)
        c = complex(rng.standard_normal(), rng.standard_normal())
        assert la.norm(la.vector(c * v.entries)) == pytest.approx(abs(c) * la.norm(v), abs=1e-12)


def test_acute_angle_examples():
    assert la.acute_angle(la.basis_vector(2, 0), la.basis_vector(2, 1)) == pytest.approx(math.pi / 2)
    assert la.acute_angle(la.vector([1, 0]), la.vector([1, 1])) == pytest.approx(math.pi / 4)
    assert la.acute_angle(la.vector([1, 0], C), la.vector([1j, 0], C)) == pytest.approx(0.0)
    # a 1e-9 angle is below arccos's resolution near 1; atan2(q, p) resolves it
    assert la.acute_angle(la.vector([1, 0]), la.vector([1, 1e-9])) == pytest.approx(1e-9, rel=1e-12)


def test_acute_angle_zero_vector():
    with pytest.raises(ZeroVectorError):
        la.acute_angle(la.vector([0, 0]), la.vector([1, 0]))


@pytest.mark.parametrize("field", [R, C])
def test_acute_angle_of_an_h_whose_norm_under_or_overflows_is_out_of_domain(field):
    # (1, 0) against (1e200, 1e200) once gave pi/2 without an error
    g = la.vector([1.0, 0.0], field)
    for h, word in (([1e200, 1e200], "|h| overflows"), ([1e-170, 1e-170], "|h| underflows")):
        with pytest.raises(OutOfDomainError, match=re.escape(word)):
            la.acute_angle(g, la.vector(h, field))
    with pytest.raises(ZeroVectorError, match="h != 0"):
        la.acute_angle(g, la.vector([0.0, 0.0], field))


def test_acute_angle_scalar_invariance():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        g = la.random_gaussian_vector(3, C, rng)
        h = la.random_gaussian_vector(3, C, rng)
        c = complex(rng.standard_normal(), rng.standard_normal()) or 1.0
        d = complex(rng.standard_normal(), rng.standard_normal()) or 1.0
        assert la.acute_angle(la.vector(c * g.entries), la.vector(d * h.entries)) == pytest.approx(
            la.acute_angle(g, h), abs=1e-10)


def test_canonical_invariants_examples():
    assert la.canonical_invariants(la.vector([2, 0]), la.vector([0, 3])) == pytest.approx((2, 0, 6))
    assert la.canonical_invariants(la.vector([1, 0]), la.vector([1, 0])) == pytest.approx((1, 1, 0))
    assert la.canonical_invariants(la.vector([1, 0]), la.vector([1, 1])) == pytest.approx((1, 1, 1))


@pytest.mark.parametrize("field", [R, C])
def test_canonical_invariants_at_a_g_whose_norm_under_or_overflows(field):
    h = la.vector([0.0, 1.0], field)
    for g, word in (([1e-170, 0.0], "underflows"), ([1e200, 0.0], "overflows")):
        with pytest.raises(OutOfDomainError, match=word):
            la.canonical_invariants(la.vector(g, field), h)
    with pytest.raises(ZeroVectorError, match="g != 0"):
        la.canonical_invariants(la.vector([0.0, 0.0], field), h)


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


def _assert_canonical(g, h, e, f):
    """The properties of build_canonical_isometry(g, h, e, f) to 1e-12."""
    u = la.build_canonical_isometry(g, h, e, f)
    ug, uh = la.apply_map(u, g), la.apply_map(u, h)
    assert abs(la.inner(uh, ug) - la.inner(h, g)) <= 1e-12
    assert abs(la.norm(uh) - la.norm(h)) <= 1e-12
    assert np.max(np.abs(ug.entries - la.norm(g) * e.entries)) <= 1e-12
    frame = np.stack([e.entries, f.entries], axis=1)
    assert np.max(np.abs(uh.entries - frame @ (frame.conj().T @ uh.entries))) <= 1e-12
    assert np.max(np.abs(u.entries.conj().T @ u.entries - np.eye(g.dim))) <= 1e-12


def test_canonical_isometry_random_complex_pairs():
    rng = np.random.default_rng(4)
    e, f = la.basis_vector(4, 0, C), la.basis_vector(4, 1, C)
    for _ in range(100):
        g = la.random_gaussian_vector(4, C, rng)
        h = la.random_gaussian_vector(4, C, rng)
        _assert_canonical(g, h, e, f)


@pytest.mark.parametrize("dim", range(3, 7))
def test_canonical_isometry_real_pairs_use_completion_columns(dim):
    # in dim >= 3 the frames are completed beyond span{g, h} and span{e, f};
    # one pair in three is collinear, where span{g, h} is a line
    rng = np.random.default_rng(dim)
    for k in range(30):
        g, h = (la.random_gaussian_vector(dim, R, rng) for _ in range(2))
        if k % 3 == 0:
            h = la.Vector(float(rng.standard_normal()) * g.entries, R)
        u = la.random_unitary(dim, R, k)
        _assert_canonical(g, h, la.Vector(u.entries[:, 0], R), la.Vector(u.entries[:, 1], R))


def test_canonical_isometry_complex_collinear_pairs():
    rng = np.random.default_rng(6)
    for k in range(60):
        dim = 3 + k % 4
        g = la.random_gaussian_vector(dim, C, rng)
        h = la.Vector(complex(*rng.standard_normal(2)) * g.entries, C)
        u = la.random_unitary(dim, C, k)
        _assert_canonical(g, h, la.Vector(u.entries[:, 0], C), la.Vector(u.entries[:, 1], C))


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
    with pytest.raises(InvalidArgumentError, match=r"^\(e, f\) must be an orthonormal pair$"):
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


def test_singular_values():
    assert la.singular_values(la.linear_map(np.eye(3))) == pytest.approx([1, 1, 1])
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


# ---------------------------------------------------------------------------
# The scalar forms against the numpy forms they replace, bit for bit

def _squared_norm(v):
    """|v|^2 as np.vdot forms it over R; over C the real dot of the
    interleaved parts (re_0, im_0, re_1, im_1, ...) of a contiguous copy."""
    x = np.ascontiguousarray(v).view(np.float64)
    return np.vdot(x, x)


def _numpy_norm(v):
    """The reference |v|: np.linalg.norm over R, sqrt(_squared_norm) over C."""
    return float(np.linalg.norm(v)) if v.dtype.kind == "f" else math.sqrt(_squared_norm(v))


def _numpy_pair_invariants(g, h, r):
    """pair_invariants as it was written with numpy scalars: the reference."""
    ip = np.vdot(g.entries, h.entries)
    perp = h.entries - (ip / (r * r)) * g.entries
    q = r * math.sqrt(_squared_norm(perp))
    return (float(ip.real) if g.field is la.Field.REAL else complex(ip)), q


def _bits(x) -> bytes:
    return np.complex128(x).tobytes() if isinstance(x, complex) else np.float64(x).tobytes()


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("dim", range(1, 9))
def test_norm_and_pair_invariants_equal_the_numpy_forms_bit_for_bit(field, dim):
    rng = np.random.default_rng([dim, field is C])
    scales = 10.0 ** np.arange(-150.0, 151.0, 15.0)
    for sg in scales:
        for sh in scales[rng.permutation(len(scales))[:6]]:
            g, h = (la.Vector(la.random_gaussian_rows(1, dim, field, rng)[0] * s, field)
                    for s in (sg, sh))
            near = la.Vector(g.entries * (sh / sg) * (1.0 + 1e-12) + 1e-9 * h.entries, field)
            r = la.norm(g)
            assert _bits(r) == _bits(_numpy_norm(g.entries))
            assert _bits(la.norm(h)) == _bits(_numpy_norm(h.entries))
            for other in (h, near):  # generic, and nearly collinear with g
                got, want = la.pair_invariants(g, other, r), _numpy_pair_invariants(g, other, r)
                assert [type(x) for x in got] == [type(x) for x in want]
                assert [_bits(x) for x in got] == [_bits(x) for x in want]


@pytest.mark.parametrize("dim", range(1, 9))
def test_complex_norms_are_one_dot_of_the_interleaved_parts(dim):
    # over C, |g|^2 is the real dot of (re_0, im_0, re_1, im_1, ...): row_norms
    # equals norm row by row, both equal that dot bit for bit, and a strided
    # column gives the bits of its contiguous copy
    rng = np.random.default_rng([dim, 29])
    scales = 10.0 ** np.arange(-150.0, 151.0, 15.0)
    G = la.random_gaussian_rows(len(scales) * 8, dim, C, rng) * scales.repeat(8)[:, None]
    want = [math.sqrt(np.vdot(x, x)) for x in G.view(np.float64)]
    assert la.row_norms(G).tolist() == want
    assert [la.norm(la.Vector(g, C)) for g in G] == want
    M = np.ascontiguousarray(G.T)  # row k of G as column k, a strided view
    assert dim == 1 or M[:, 0].strides[-1] != M.itemsize
    assert [la.norm(la.Vector(M[:, k], C)) for k in range(len(G))] == want
    assert la.row_norms(M.T).tolist() == want


@pytest.mark.parametrize("n,dim", [(1, 1), (40, 3), (1000, 3), (4000, 5), (7, 8)])
def test_complex_gaussian_rows_are_the_two_part_draw(n, dim):
    # the real parts, then the imaginary parts, over sqrt(2): the same bits
    # and the same stream position as (A + 1j B) / sqrt(2)
    rng, ref = np.random.default_rng(n * dim), np.random.default_rng(n * dim)
    got = la.random_gaussian_rows(n, dim, C, rng)
    A, B = ref.standard_normal((n, dim)), ref.standard_normal((n, dim))
    want = (A + 1j * B) / np.sqrt(2.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.standard_normal(3).tobytes() == ref.standard_normal(3).tobytes()


def test_norm_overflows_and_underflows_without_warnings():
    # the error filter of the test configuration turns a RuntimeWarning into a failure
    for field in (R, C):
        assert la.norm(la.vector([1e200, 0.0], field)) == math.inf
        assert la.norm(la.vector([1e-200, 1e-200], field)) == 0.0


def test_a_complex_g_below_the_inverse_square_bound_has_invariants():
    # r^2 is subnormal exactly below _R_MIN = sqrt(smallest normal), and over C
    # 1/r^2 overflows a little further down; there (r, p, q) come from
    # (g/r, h), and they scale with g as the invariants of (g * 1e155, h) do
    below = math.nextafter(la._R_MIN, 0.0)
    assert la._R_MIN * la._R_MIN == np.finfo(float).tiny > below * below
    g, h = np.array([3 + 1j, 2j]) * 1e-155, np.array([1, 0.5j])
    r, p, q = la.canonical_invariants(la.Vector(g, C), la.Vector(h, C))
    want = la.canonical_invariants(la.Vector(g * 1e155, C), la.Vector(h, C))
    assert [r * 1e155, p * 1e155, q * 1e155] == pytest.approx(want, rel=1e-12)
    ip, q_rows = la.pair_invariants_rows(g[None], h[None], np.array([r]))
    assert q_rows[0] == q and ip[0] == la.pair_invariants(la.Vector(g, C), la.Vector(h, C), r)[0]


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("scale", [1e-160, 5e-155])
def test_a_tiny_g_has_the_invariants_of_its_unit_scale_pair(field, scale):
    # at 1e-160 |g|^2 is subnormal, at 5e-155 r^2 is: r, p and q still scale
    # with g, on the scalar path and the rows path alike
    g1 = np.array([3.0, -4.0] if field is R else [3 + 1j, 2j], field.dtype)
    h = la.Vector(np.array([1.0, 0.5], field.dtype), field)
    want = la.canonical_invariants(la.Vector(g1, field), h)
    got = la.canonical_invariants(la.Vector(g1 * scale, field), h)
    assert [x / scale for x in got] == pytest.approx(want, rel=1e-15)
    G = np.stack([g1 * scale, g1])
    r = la.row_norms(G)
    assert r.tolist() == [got[0], want[0]]
    ip, q = la.pair_invariants_rows(G, np.stack([h.entries] * 2), r)
    assert [abs(ip[0]), q[0]] == list(got[1:]) and [abs(ip[1]), q[1]] == list(want[1:])


def _exact_q_squared(g, h) -> Fraction:
    """q^2 = sum over i < j of |g_i h_j - g_j h_i|^2 (Binet-Cauchy), exact in Fractions."""
    g = [(Fraction(z.real), Fraction(z.imag)) for z in np.asarray(g, complex).tolist()]
    h = [(Fraction(z.real), Fraction(z.imag)) for z in np.asarray(h, complex).tolist()]
    total = Fraction(0)
    for i, j in itertools.combinations(range(len(g)), 2):
        (a, b), (c, d), (e, f), (k, m) = g[i], h[j], g[j], h[i]
        re, im = a * c - b * d - e * k + f * m, a * d + b * c - e * m - f * k
        total += re * re + im * im
    return total


@pytest.mark.parametrize("field", [R, C])
def test_q_holds_to_an_exact_reference_on_nearly_collinear_pairs(field):
    # h = c g + eps w with eps = 10^U(-15, -3): q is mostly cancelled away, and
    # both forms hold it to 4 eps |g||h| absolute.  Not relative: the
    # orthogonal-component form's error relative to q can reach several percent.
    rng = np.random.default_rng(21)
    for dim in range(2, 6):
        G, W = (la.random_gaussian_rows(75, dim, field, rng) for _ in range(2))
        c = rng.standard_normal(75)
        if field is C:
            c = c * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 75))
        H = c[:, None] * G + (10.0 ** rng.uniform(-15.0, -3.0, 75))[:, None] * W
        r = la.row_norms(G)
        _, q_rows = la.pair_invariants_rows(G, H, r)
        for g, h, rk, qk in zip(G, H, r.tolist(), q_rows.tolist()):
            q = la.pair_invariants(la.Vector(g, field), la.Vector(h, field), rk)[1]
            bound = Fraction(4.0 * np.finfo(float).eps * rk * np.linalg.norm(h))
            exact = _exact_q_squared(g, h)
            for got in (Fraction(q), Fraction(qk)):
                low = max(got - bound, Fraction(0))
                assert low * low <= exact <= (got + bound) ** 2, (dim, got, float(exact) ** 0.5)


@pytest.mark.parametrize("field", [R, C])
def test_pair_invariants_rows_fast_case_equals_the_masked_divide(field):
    # all r > 0 skips the masked divide; a row with r = 0 appended takes it
    rng = np.random.default_rng(4)
    G, H = (la.random_gaussian_rows(40, 5, field, rng) * 10.0 ** rng.uniform(-3, 3, (40, 1))
            for _ in range(2))
    G[7] = H[7] * (1.0 + 1e-13)  # nearly collinear
    r = la.row_norms(G)
    fast = la.pair_invariants_rows(G, H, r)
    Gz, Hz = np.vstack([G, np.zeros((1, 5), G.dtype)]), np.vstack([H, H[:1]])
    general = la.pair_invariants_rows(Gz, Hz, la.row_norms(Gz))
    for a, b in zip(fast, general):
        assert a.dtype == b.dtype and a.tobytes() == b[:-1].tobytes()
        assert b[-1] == 0.0
    # and each row equals the scalar form
    for k in range(40):
        g, h = la.Vector(G[k], field), la.Vector(H[k], field)
        ip, q = la.pair_invariants(g, h, la.norm(g))
        assert r[k] == la.norm(g) and fast[0][k] == ip and fast[1][k] == q


@pytest.mark.parametrize("field", [R, C])
def test_a_row_at_g_zero_has_q_zero_where_its_h_squared_overflows(field):
    # q = r |h - c g| with r = 0 was 0 * inf = NaN once |h|^2 overflowed
    with np.errstate(over="ignore"):
        ip, q = la.pair_invariants_rows(np.zeros((1, 2), field.dtype),
                                        np.array([[1e200, 1e200]], field.dtype), np.array([0.0]))
    assert ip.tolist() == [0.0] and q.tolist() == [0.0]


@pytest.mark.parametrize("g,h", [
    ([1.0, 1.0, 1.0], [1.7e308, -1.7e308, -1.7e308]),  # h - c g overflows
    ([0.3, 0.0], [1e308, 0.0]),  # <h,g>/|g|^2 overflows, and inf * 0 is NaN
    ([1e-160, 0.0], [1e308, 1e308]),  # a tiny |g|, and |h_perp|^2 overflows
    ([2 - 0.7j, 1e-200 + 1.5j, 2 + 0.5j, -1, -1 + 1.5j],  # <h, g> is inf + inf i
     [0.5 + 1e308j, 1 + 2j, 1 + 2j, 1.5, 0.3])])
def test_pair_invariants_at_the_edge_warn_nowhere_and_equal_the_rows_form(g, h):
    # the test configuration makes a numpy warning an error; q is inf or NaN,
    # bit for bit the rows form's
    g, h = la.vector(g), la.vector(h)
    r = la.norm(g)
    ip, q = la.pair_invariants(g, h, r)
    with np.errstate(over="ignore", invalid="ignore"):
        ip_rows, q_rows = la.pair_invariants_rows(g.entries[None], h.entries[None], np.array([r]))
    assert not math.isfinite(q)
    assert np.array([ip, q]).tobytes() == np.array([ip_rows[0], q_rows[0]]).tobytes()


@pytest.mark.parametrize("field", [R, C])
def test_vecdot_rows_equal_vdot_bit_for_bit(field):
    # np.vecdot is the package's one row-wise inner product: row i of
    # np.vecdot(A, B) is np.vdot(A[i], B[i]), which conjugates A[i], to the bit
    rng = np.random.default_rng(12)
    for dim in range(1, 9):
        A, B = (la.random_gaussian_rows(64, dim, field, rng)
                * 10.0 ** rng.uniform(-150, 150, (64, 1)) for _ in range(2))
        B[::4] = A[::4] * (1.0 + 1e-13) + 1e-9 * B[::4]  # nearly collinear pairs
        W = la.random_gaussian_rows(64, 2 * dim, field, rng)
        pairs = [(A, B), (B, A), (A, A), (W[:, ::2], W[:, 1::2])]  # the last two strided
        if field is C:
            pairs += [(A.real, A.real), (A.imag, A.imag), (A.real, B.imag)]
        for X, Y in pairs:
            got = np.vecdot(X, Y)
            want = np.array([np.vdot(x, y) for x, y in zip(X, Y)])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (dim, X.strides)
        assert la.row_norms(A).tolist() == [la.norm(la.Vector(a, field)) for a in A]
