import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import MismatchError, OutOfDomainError, ZeroVectorError
from finsler_iso.expressions import EvalError, evaluate, parse
from helpers import POS, battery, expression_texts, family_specs, sample_pair

R, C = la.Field.REAL, la.Field.COMPLEX


# ---------------------------------------------------------------------------
# Radius domains

def test_domain_membership():
    d = mm.RadiusDomain(((0.0, 1.0), (2.0, math.inf)), includes_zero=True)
    assert d.contains(0.0) and d.contains(0.5) and d.contains(3.0)
    assert not d.contains(1.0) and not d.contains(1.5) and not d.contains(2.0)


def test_domain_rejects_overlap_and_negatives():
    with pytest.raises(ValueError):
        mm.RadiusDomain(((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        mm.RadiusDomain(((-1.0, 2.0),))
    with pytest.raises(ValueError):
        mm.RadiusDomain(((2.0, 2.0),))


def test_specs_and_domains_compare_and_hash_by_value():
    split = mm.RadiusDomain(((2, 3), (0, 1)))
    assert split == mm.RadiusDomain(((0.0, 1.0), (2.0, 3.0)))  # intervals sorted, as floats
    assert hash(split) == hash(mm.RadiusDomain(((0.0, 1.0), (2.0, 3.0))))
    assert split != mm.RadiusDomain(split.intervals, includes_zero=True)
    assert mm.euclidean(3) == mm.euclidean(3) and hash(mm.euclidean(3)) == hash(mm.euclidean(3))
    assert mm.euclidean(3) not in (mm.euclidean(4), mm.euclidean(3, C), mm.fubini_study(3),
                                   mm.Euclidean(3, R, split))
    theta = mm.theta_profile("1")
    assert {mm.FromTheta(3, R, POS, theta), mm.FromTheta(3, R, POS, theta)} == {
        mm.FromTheta(3, R, POS, theta)}
    assert mm.FromTheta(3, R, POS, theta) == mm.FromTheta(3, R, POS, mm.theta_profile("1"))
    assert hash(mm.FromTheta(3, R, POS, theta)) == hash(
        mm.FromTheta(3, R, POS, mm.theta_profile("1")))
    assert mm.FromLambda(3, R, POS, theta) != mm.FromLambda(3, R, POS, theta, alpha=2.0)
    phi, psi = mm.fubini_study_profile()  # a RiemannProfile is a named tuple
    assert (phi, psi) == (mm.fubini_study(2).profile.phi, mm.fubini_study(2).profile.psi)


# ---------------------------------------------------------------------------
# Finsler evaluation

def test_euclidean_eval():
    spec = mm.euclidean(3)
    assert mm.eval_finsler(spec, la.vector([1, 0, 0]), la.vector([3, 4, 0])) == pytest.approx(5.0)


def test_fubini_study_eval():
    spec = mm.fubini_study(2)
    # sqrt(|h|^2/|g|^2 - |<h,g>|^2/|g|^4) at g=(1,0), h=(0,2)
    assert mm.eval_finsler(spec, la.vector([1, 0]), la.vector([0, 2])) == pytest.approx(2.0)


def test_zero_extension():
    spec = mm.zero_extended(3.0, mm.euclidean(2))
    assert mm.eval_finsler(spec, la.vector([0, 0]), la.vector([1, 0])) == pytest.approx(3.0)
    assert mm.eval_finsler(spec, la.vector([1, 1]), la.vector([1, 0])) == pytest.approx(1.0)
    with pytest.raises(OutOfDomainError):
        mm.eval_finsler(mm.euclidean(2), la.vector([0, 0]), la.vector([1, 0]))


def test_eval_finsler_refuses_a_vector_of_another_dimension_or_field():
    spec = mm.euclidean(3)
    g, h = la.vector([1, 0, 0]), la.vector([0, 1, 0])
    for args in ((la.vector([1, 0]), h), (g, la.vector([0, 1, 0, 0]))):
        with pytest.raises(MismatchError, match="vector dimension [24] != spec dimension 3"):
            mm.eval_finsler(spec, *args)
    for args in ((la.vector([1, 0, 0], C), h), (g, la.vector([0, 1, 0], C))):
        with pytest.raises(MismatchError, match="vector field complex != spec field real"):
            mm.eval_finsler(spec, *args)


def test_eval_finsler_at_zero_needs_an_extension_even_when_the_domain_holds_0():
    spec = mm.Euclidean(2, R, mm.RadiusDomain(((0.0, math.inf),), includes_zero=True))
    g, h = la.vector([0, 0]), la.vector([1, 0])
    with pytest.raises(OutOfDomainError, match="base point g = 0 is outside the metric's domain"):
        mm.eval_finsler(spec, g, h)
    assert mm.eval_batch(spec, g.entries[None], h.entries[None])[1].tolist() == [False]


@pytest.mark.parametrize("inner", [mm.euclidean(3), mm.euclidean(2, C),
                                   mm.Euclidean(2, R, mm.RadiusDomain(((1.0, 2.0),))),
                                   mm.Custom(2, R, mm.RadiusDomain(((0.0, math.inf),), True),
                                             fn=lambda g, h: 1.0)],
                         ids=["dim", "field", "intervals", "zero"])
def test_a_zero_extension_shares_its_inner_specs_dim_field_and_intervals(inner):
    # eval_finsler checks the extension only, so the inner spec must agree with it
    with pytest.raises(ValueError, match="must have the dimension, field and radius intervals"):
        mm.ZeroExtended(2, R, mm.RadiusDomain(((0.0, math.inf),), includes_zero=True), 1.0, inner)


def test_constant_theta_profile_gives_norm():
    spec = mm.FromTheta(3, R, POS, lambda r, tau: 1.0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        g, h = sample_pair(spec, rng)
        assert mm.eval_finsler(spec, g, h) == pytest.approx(la.norm(h), rel=1e-12)
    assert mm.eval_finsler(spec, la.vector([1, 0, 0]), la.vector([0, 0, 0])) == 0.0
    tau_spec = mm.FromTheta(2, R, POS, mm.theta_profile("tau"))
    value = mm.eval_finsler(tau_spec, la.vector([1, 0]), la.vector([1, 1e-9]))
    assert value == pytest.approx(1e-9, rel=1e-12)


@pytest.mark.parametrize("profile, names, args, want", [
    (mm.theta_profile("1+cos(tau)"), "r, tau", (1.0, 0.5), 1.0 + math.cos(0.5)),
    (mm.lambda_profile("sqrt(p^2+q^2)"), "r, p, q", (1.0, 3.0, 4.0), 5.0),
    (mm.riemann_profile("1/r", "-1/(r^2)").phi, "r", (2.0,), 0.5),
    (mm.vartheta_profile("2"), "tau", (0.5,), 2.0)],
    ids=["theta", "lambda", "riemann-phi", "constant-vartheta"])
def test_a_profile_takes_exactly_its_arguments(profile, names, args, want):
    # the scalar profile and its array form, one column per argument
    columns = tuple(np.full(2, x) for x in args)
    assert profile(*args) == want and profile.rows(*columns).tolist() == [want, want]
    for wrong in (args[:-1], args + (99.0,)):
        with pytest.raises(TypeError, match=re.escape(f"({names}), got {len(wrong)}")):
            profile(*wrong)
        with pytest.raises(TypeError, match=re.escape(f"({names}), got {len(wrong)}")):
            profile.rows(*(np.full(2, x) for x in wrong))


def test_out_of_domain_is_an_error():
    spec = mm.Euclidean(2, R, mm.RadiusDomain(((1.0, 2.0),)))
    with pytest.raises(OutOfDomainError):
        mm.eval_finsler(spec, la.vector([3, 0]), la.vector([1, 0]))


def test_area_requires_dim2():
    with pytest.raises(ValueError):
        mm.AreaDim2(3, R, POS, 1.0)


def test_area_value_is_parallelogram_area():
    spec = mm.area_dim2(2.0)
    rng = np.random.default_rng(1)
    for _ in range(50):
        g, h = sample_pair(spec, rng)
        det = abs(g.entries[0] * h.entries[1] - g.entries[1] * h.entries[0])
        assert mm.eval_finsler(spec, g, h) == pytest.approx(2.0 * det, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("field", [R, C])
def test_scaling_law(field):
    rng = np.random.default_rng(2)
    for name, spec in battery(3, field):
        for _ in range(40):
            g, h = sample_pair(spec, rng)
            base = mm.eval_finsler(spec, g, h)
            if name == "nonsym":
                t = float(rng.uniform(0.0, 3.0))
            else:
                t = rng.standard_normal()
                if field is C:
                    ang = rng.uniform(0, 2 * math.pi)
                    t = t * complex(math.cos(ang), math.sin(ang))
            got = mm.eval_finsler(spec, g, la.vector(t * h.entries, h.field))
            assert got == pytest.approx(abs(t) * base, abs=1e-10 * (1 + abs(base)))


@pytest.mark.parametrize("field", [R, C])
def test_isometry_invariance_sampled(field):
    rng = np.random.default_rng(3)
    for name, spec in battery(3, field):
        for _ in range(50):
            g, h = sample_pair(spec, rng)
            u = la.random_unitary(3, field, int(rng.integers(2 ** 31)))
            a = mm.eval_finsler(spec, g, h)
            b = mm.eval_finsler(spec, la.apply_map(u, g), la.apply_map(u, h))
            assert abs(a - b) <= 1e-9 * (1 + abs(a)), name


# ---------------------------------------------------------------------------
# Batched evaluation

def _batch_pairs(dim, field, rng):
    """Seeded pairs: generic, near-collinear, near-orthogonal."""
    G, H = [], []
    for k in range(30):
        g = la.random_gaussian_vector(dim, field, rng).entries
        noise = la.random_gaussian_vector(dim, field, rng).entries
        if k % 3 == 0:
            h = noise
        elif k % 3 == 1:
            h = complex(*rng.standard_normal(2)) * g if field is C else rng.standard_normal() * g
            h = h + 10.0 ** -rng.uniform(4, 9) * noise
        else:
            h = noise - (np.vdot(g, noise) / np.vdot(g, g)) * g + 1e-7 * g
        G.append(g)
        H.append(h)
    return np.array(G), np.array(H)


@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("field", [R, C])
def test_eval_batch_rows_equal_eval_finsler(dim, field):
    rng = np.random.default_rng(40 + dim)
    G, H = _batch_pairs(dim, field, rng)
    for spec in family_specs(dim, field):
        rows_g, rows_h = G, H
        if spec.family == "zero-extended":  # the row at g = 0 takes rho_0(h) = b |h|
            rows_g, rows_h = np.vstack([G, np.zeros((1, dim), field.dtype)]), np.vstack([H, H[:1]])
        values, inside = mm.eval_batch(spec, rows_g, rows_h)
        assert inside.all(), spec.family
        for g, h, got in zip(rows_g, rows_h, values):
            want = mm.eval_finsler(spec, la.Vector(g, field), la.Vector(h, field))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), spec.family


def test_every_profile_with_text_batches(monkeypatch):
    # a spec that serializes has its profile as text: none may reach the row
    # default, which only a Custom metric's callable takes
    monkeypatch.setattr(mm.Custom, "_values", lambda *args: pytest.fail("row default"))
    G, H = _batch_pairs(3, C, np.random.default_rng(5))
    G[0] = 0.0  # the zero extension's rho_0 row
    batched = 0
    for spec in family_specs(3, C) + [mm.induced_finsler(mm.fubini_study_profile(), 3, C)]:
        try:
            mm.spec_to_json(spec)
        except ValueError:  # a Custom metric or a profile given as a callable
            continue
        mm.eval_batch(spec, G, H)
        batched += 1
    assert batched == 14


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("field", [R, C])
def test_zero_extensions_batch_as_their_inner_spec(dim, field):
    # rho_0(h) = b |h| on the g = 0 rows and the inner spec's rows form on the
    # others, which agree with eval_finsler as every family's rows do
    G, H = _batch_pairs(dim, field, np.random.default_rng(44))
    G[::7] = 0.0
    for inner in (s for s in family_specs(dim, field) if s.family != "zero-extended"):
        spec = mm.zero_extended(1.5, inner)
        values, inside = mm.eval_batch(spec, G, H)
        assert inside.all(), inner.family
        for g, h, got in zip(G, H, values):
            want = mm.eval_finsler(spec, la.Vector(g, field), la.Vector(h, field))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300), inner.family
        assert values[0] == 1.5 * la.norm(la.Vector(H[0], field))


def test_sample_pairs_draw_inside_the_domain():
    # (0.5, 1) is drawn uniformly in (0.505, 0.995); (3, inf) log-uniformly in (3.03, 12.12)
    domain = mm.RadiusDomain(((0.5, 1.0), (3.0, math.inf)))
    for field in (R, C):
        spec = mm.Euclidean(4, field, domain)
        G, H = mm.sample_pairs(spec, 400, np.random.default_rng(0))
        assert G.shape == H.shape == (400, 4) and G.dtype == H.dtype == field.dtype
        r = la.row_norms(G)
        low, high = (0.505 - 1e-12 < r) & (r < 0.995 + 1e-12), (3.03 - 1e-12 < r) & (r < 12.12 + 1e-12)
        assert (low | high).all() and low.sum() > 150 and high.sum() > 150
        again = mm.sample_pairs(spec, 400, np.random.default_rng(0))
        assert np.array_equal(G, again[0]) and np.array_equal(H, again[1])


def test_eval_batch_skips_the_profile_where_h_is_zero():
    # at h = 0 the scalar forms return 0 without calling theta or vartheta,
    # which here would divide by tau = atan2(0, 0) = 0
    G = np.array([[1.0, 0.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    H = np.array([[0.0, 0.0, 0.0], [1.0, -1.0, 1.0], [0.0, 0.0, 0.0]])
    for spec in (mm.FromTheta(3, R, POS, mm.theta_profile("1/tau")),
                 mm.spec_from_json({"family": "congruence-invariant", "dim": 3, "field": "real",
                                    "params": {"vartheta": "1/tau"}})):
        values, _ = mm.eval_batch(spec, G, H)
        want = [mm.eval_finsler(spec, la.vector(g), la.vector(h)) for g, h in zip(G, H)]
        assert values[0] == values[2] == 0.0 and values.tolist() == pytest.approx(want, rel=1e-12)


def test_eval_batch_overflows_as_the_scalar_path_does():
    # a finite profile value times |h| (or over |g|) overflows to inf, with no
    # numpy warning (tier-1 makes one an error)
    G = np.array([[1.0, 0.0], [1.0, 0.0], [0.5, 0.0]])
    H = np.array([[0.0, 10.0], [10.0, 0.0], [1.0, 1.0]])
    for spec in (mm.FromTheta(2, R, POS, mm.theta_profile("1e308")),
                 mm.spec_from_json({"family": "congruence-invariant", "dim": 2, "field": "real",
                                    "params": {"vartheta": "1e308"}}),
                 mm.FromRiemann(2, R, POS, mm.riemann_profile("1e308", "0"))):
        values, _ = mm.eval_batch(spec, G, H)
        want = [mm.eval_finsler(spec, la.vector(g), la.vector(h)) for g, h in zip(G, H)]
        assert np.isinf(values).any(), spec
        np.testing.assert_array_equal(values, want)
    # on the second row phi|h|^2 and psi p^2 overflow to opposite infinities:
    # inf - inf is undefined, so both paths raise
    spec = mm.FromRiemann(2, R, POS, mm.riemann_profile("1e308", "-1e308"))
    with pytest.raises(EvalError, match="undefined"):
        mm.eval_batch(spec, G, H)
    with pytest.raises(EvalError, match="undefined"):
        mm.eval_finsler(spec, la.vector(G[1]), la.vector(H[1]))
    assert mm.eval_finsler(spec, la.vector(G[0]), la.vector(H[0])) == math.inf


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("build", [mm.euclidean, mm.fubini_study, mm.norm_quotient])
def test_eval_batch_overflows_in_the_pair_invariants_as_the_scalar_path_does(build, field):
    # |h - (<h,g>/r^2) g|^2 overflows, so q is inf: inf with no numpy warning
    spec = build(2, field)
    G, H = np.array([[1, 0]], field.dtype), np.array([[0, 1e200]], field.dtype)
    values, inside = mm.eval_batch(spec, G, H)
    assert inside.tolist() == [True] and values.tolist() == [math.inf]
    assert mm.eval_finsler(spec, la.Vector(G[0], field), la.Vector(H[0], field)) == math.inf


# A complex <h, g> that is inf + inf i, so q is NaN (dim 5), and one whose
# parts are finite but whose modulus overflows, which Python's abs raises on (dim 2)
EDGE_PAIRS = [(np.array([2 - 0.7j, 1e-200 + 1.5j, 2 + 0.5j, -1, -1 + 1.5j]),
               np.array([0.5 + 1e308j, 1 + 2j, 1 + 2j, 1.5, 0.3])),
              (np.array([1 + 1j, 0]), np.array([1.5e308, 0], complex))]


def _outcome(evaluate):
    """evaluate()'s value, or the type of the exception it raises."""
    try:
        return float(evaluate())
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("g,h", EDGE_PAIRS, ids=["dim5", "dim2"])
def test_eval_batch_overflows_to_inf_or_raises_as_the_scalar_path_does(g, h):
    # every family: the same inf or the same exception from both paths, never
    # NaN, and no numpy warning (the test configuration raises one); a bare
    # callable's own OverflowError, which abs(p) ** 2 raises, passes through both
    for spec in family_specs(len(g), C):
        batch = _outcome(lambda: mm.eval_batch(spec, g[None], h[None])[0][0])
        scalar = _outcome(lambda: mm.eval_finsler(spec, la.Vector(g, C), la.Vector(h, C)))
        assert batch == scalar and batch in (math.inf, EvalError, OverflowError), (spec, batch)


@pytest.mark.parametrize("build", [mm.euclidean, mm.fubini_study])
def test_a_complex_g_whose_inverse_square_norm_overflows_has_a_value(build):
    # |g| = 3.7e-155 is in the domain, but 1/|g|^2 overflows, so <h,g>/|g|^2
    # was inf and q NaN; rho_{t g}(h) = rho_g(h) / t^k with k = 0 and 1 here
    spec, k = build(2, C), 0 if build is mm.euclidean else 1
    g, h = np.array([3 + 1j, 2j]) * 1e-155, np.array([1, 0.5j])
    want = mm.eval_finsler(spec, la.Vector(g * 1e155, C), la.Vector(h, C)) * 1e155 ** k
    assert mm.eval_finsler(spec, la.Vector(g, C), la.Vector(h, C)) == pytest.approx(want, rel=1e-12)
    # rows below the bound and rows above it in one batch: those keep the bits they have alone
    G = np.array([g, [1, 1j], g * 1e150, [3e-160, 0]])
    H = np.array([h, [2, 1], h, h])
    values, inside = mm.eval_batch(spec, G, H)
    assert inside.tolist() == [True] * 4 and np.isfinite(values).all()
    assert values[0] == pytest.approx(want, rel=1e-12)
    for i in (1, 2):
        assert values[i] == mm.eval_batch(spec, G[i:i + 1], H[i:i + 1])[0][0]
    for gi, hi, v in zip(G, H, values.tolist()):
        assert mm.eval_finsler(spec, la.Vector(gi, C), la.Vector(hi, C)) == pytest.approx(v, rel=1e-12)


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("scale", [1e-160, 5e-155])
def test_euclidean_at_a_tiny_g_is_the_norm_of_h(field, scale):
    # at 1e-160 |g|^2 is subnormal, at 5e-155 r^2 is; at 1e-160 the value
    # once read 1.1180389676
    spec = mm.euclidean(2, field)
    g, h = la.vector([scale, 0.0], field), la.vector([1.0, 0.5], field)
    want = math.sqrt(1.25)
    assert mm.eval_finsler(spec, g, h) == pytest.approx(want, rel=1e-15)
    values, inside = mm.eval_batch(spec, np.stack([g.entries, h.entries]),
                                   np.stack([h.entries, h.entries]))
    assert inside.all() and values[0] == pytest.approx(want, rel=1e-15)


@pytest.mark.parametrize("field", [R, C])
def test_riemann_rows_and_scalars_agree_on_overflowing_invariants(field):
    # a zero coefficient makes its term 0 where |h|^2 or p^2 overflows; a term
    # that overflows alone gives inf; row values equal the scalar ones
    G = np.array([[1, 0], [1, 0], [1, 0]], field.dtype)
    H = np.array([[0, 1e200], [1e200, 0], [3, 4]], field.dtype)
    for phi, psi, want in (("0", "1", [0.0, math.inf, 3.0]), ("1", "0", [math.inf, math.inf, 5.0])):
        spec = mm.FromRiemann(2, field, POS, mm.riemann_profile(phi, psi))
        values, _ = mm.eval_batch(spec, G, H)
        scalars = [mm.eval_finsler(spec, la.Vector(g, field), la.Vector(h, field))
                   for g, h in zip(G, H)]
        assert values.tolist() == scalars == want, (phi, psi)


def test_eval_batch_mask_on_a_bounded_domain():
    domain = mm.RadiusDomain(((1.0, 2.0),))
    rng = np.random.default_rng(7)
    radii = [0.0, 0.5, 1.0, 1.5, 1.9, 2.0, 3.0] + list(rng.uniform(0.5, 2.5, 20))
    G = np.array([r * la.random_vector_with_norm(3, R, 1.0, rng).entries for r in radii])
    H = rng.standard_normal((len(radii), 3))
    for spec in (mm.Euclidean(3, R, domain), mm.FromTheta(3, R, domain, mm.theta_profile("2+cos(tau)"))):
        values, inside = mm.eval_batch(spec, G, H)
        assert inside.tolist() == [domain.contains(r) for r in la.row_norms(G)]
        for g, h, ok, got in zip(G, H, inside, values):
            if ok:
                assert got == pytest.approx(mm.eval_finsler(spec, la.vector(g), la.vector(h)),
                                            rel=1e-12)
            else:
                assert got == 0.0
                with pytest.raises(OutOfDomainError):
                    mm.eval_finsler(spec, la.vector(g), la.vector(h))
    # g = 0 lies in this domain, but only a zero extension is defined there
    with_zero = mm.RadiusDomain(((0.0, math.inf),), includes_zero=True)
    G0, H0 = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.ones((2, 3))
    assert mm.eval_batch(mm.Euclidean(3, R, with_zero), G0, H0)[1].tolist() == [False, True]


def test_eval_batch_rejects_wrong_dim_or_dtype():
    spec = mm.euclidean(3)
    for G, H in ((np.ones((4, 2)), np.ones((4, 2))),
                 (np.ones((4, 3)), np.ones((5, 3))),
                 (np.ones(3), np.ones(3)),
                 (np.ones((4, 3), complex), np.ones((4, 3), complex)),
                 (np.ones((4, 3), int), np.ones((4, 3), int))):
        with pytest.raises(MismatchError):
            mm.eval_batch(spec, G, H)
    with pytest.raises(MismatchError):
        mm.eval_batch(mm.euclidean(3, C), np.ones((4, 3)), np.ones((4, 3)))


def test_eval_batch_propagates_eval_error():
    spec = mm.FromLambda(2, R, POS, mm.lambda_profile("1/q"))
    G = np.array([[1.0, 0.0], [1.0, 0.0]])
    H = np.array([[0.0, 1.0], [2.0, 0.0]])  # the second row is collinear: q = 0
    with pytest.raises(EvalError):
        mm.eval_batch(spec, G, H)


# ---------------------------------------------------------------------------
# Sesquilinear forms

def riemann(profile, dim=3, field=C, domain=POS):
    """The FromRiemann spec of a profile, without induced_finsler's sign probe."""
    return mm.FromRiemann(dim, field, domain, profile)


def test_sesquilinear_identity_profile():
    prof = riemann(mm.riemann_profile("1", "0"))
    rng = np.random.default_rng(4)
    for _ in range(20):
        g = la.random_gaussian_vector(3, C, rng)
        f = la.random_gaussian_vector(3, C, rng)
        h = la.random_gaussian_vector(3, C, rng)
        assert mm.eval_sesquilinear(prof, g, f, h) == pytest.approx(la.inner(f, h), abs=1e-12)


def test_sesquilinear_fubini_study_values():
    prof = mm.fubini_study(2)
    g = la.vector([1, 0])
    f = h = la.vector([0, 1])
    assert mm.eval_sesquilinear(prof, g, f, h) == pytest.approx(1.0)
    assert mm.eval_sesquilinear(prof, g, g, g) == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("field", [R, C])
def test_sesquilinear_is_one_row_of_the_rows_form(field):
    prof = riemann(mm.congruence_invariant_riemann(0.7, -0.3), 3, field)
    rng = np.random.default_rng(6)
    G, F, H = (la.random_gaussian_rows(50, 3, field, rng) for _ in range(3))
    rows = mm.eval_sesquilinear_rows(prof, G, F, H)
    for g, f, h, want in zip(G, F, H, rows):
        got = mm.eval_sesquilinear(prof, *(la.Vector(v, field) for v in (g, f, h)))
        assert type(got) is (float if field is R else complex) and got == want
    with pytest.raises(MismatchError):
        mm.eval_sesquilinear(prof, la.vector([1.0, 0.0]), la.vector([1.0, 0.0, 0.0]),
                             la.vector([1.0, 0.0]))
    with pytest.raises(MismatchError):  # three vectors of one size, not the metric's
        mm.eval_sesquilinear_rows(prof, G[:, :2], F[:, :2], H[:, :2])
    with pytest.raises(MismatchError):  # three vectors of one field, not the metric's
        other = C if field is R else R
        mm.eval_sesquilinear_rows(prof, *(la.random_gaussian_rows(2, 3, other, rng)
                                          for _ in range(3)))
    with pytest.raises(ValueError, match="no sesquilinear form"):
        mm.eval_sesquilinear_rows(mm.euclidean(3, field), G, F, H)


@pytest.mark.parametrize("field", [R, C])
def test_sesquilinear_at_a_g_whose_norm_under_or_overflows_is_out_of_domain(field):
    # no RuntimeWarning either: the test configuration turns one into a failure
    prof = mm.fubini_study(2, field)
    f = h = la.vector([0.0, 1.0], field)
    for g, word in (([1e-170, 0.0], "underflows"), ([1e200, 0.0], "overflows")):
        g = la.vector(g, field)
        with pytest.raises(OutOfDomainError, match=word):
            mm.eval_sesquilinear(prof, g, f, h)
        G = np.stack([[1.0, 0.0], g.entries]).astype(field.dtype)
        with pytest.raises(OutOfDomainError, match=word):
            mm.eval_sesquilinear_rows(prof, G, G, G)
    with pytest.raises(ZeroVectorError, match="g = 0"):
        mm.eval_sesquilinear(prof, la.vector([0.0, 0.0], field), f, h)


@pytest.mark.parametrize("field", [R, C])
def test_an_undefined_sigma_is_an_eval_error(field):
    # phi <f,h> and psi <f,g><g,h> overflow to opposite infinities on the second
    # row: no NaN and no RuntimeWarning (the test configuration turns one into a
    # failure).  A sigma that overflows to one infinity is still a value, over C
    # too: phi scales the parts of <f,h> = inf + 0j apart, with no 0 * inf
    prof = mm.fubini_study(2, field)
    G = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=field.dtype)
    F = np.array([[0.0, 1.0], [1e200, 0.0]], dtype=field.dtype)
    with pytest.raises(EvalError, match="sigma is undefined"):
        mm.eval_sesquilinear_rows(prof, G, F, F)
    with pytest.raises(EvalError, match="sigma is undefined"):
        mm.eval_sesquilinear(prof, *(la.Vector(v, field) for v in (G[1], F[1], F[1])))
    big = np.array([[0.0, 1e200]], dtype=field.dtype)
    sigma = mm.eval_sesquilinear_rows(prof, G[:1], big, big)[0]
    assert sigma == math.inf and sigma.imag == 0.0


def test_sesquilinear_conjugate_symmetry_and_linearity():
    prof = riemann(mm.congruence_invariant_riemann(0.7, -0.3))
    rng = np.random.default_rng(5)
    for _ in range(1000):
        g = la.random_gaussian_vector(3, C, rng)
        f1 = la.random_gaussian_vector(3, C, rng)
        f2 = la.random_gaussian_vector(3, C, rng)
        h = la.random_gaussian_vector(3, C, rng)
        a = mm.eval_sesquilinear(prof, g, f1, h)
        b = mm.eval_sesquilinear(prof, g, h, f1)
        assert abs(a - np.conj(b)) <= 1e-10 * (1 + abs(a))
        c = complex(rng.standard_normal(), rng.standard_normal())
        lhs = mm.eval_sesquilinear(prof, g, la.vector(c * f1.entries + f2.entries), h)
        rhs = c * a + mm.eval_sesquilinear(prof, g, f2, h)
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(rhs))


BOUNDED = mm.RadiusDomain(((1.0, 2.0),))


@pytest.mark.parametrize("field", [R, C])
def test_sigma_and_criteria_refuse_outside_a_bounded_domain(field):
    # |g| in (1, 2): sigma refuses the rows eval_batch marks outside, the
    # criteria the samples |g|^2 outside (1, 4); inside, each returns the
    # values of the same spec on the positive radii, bit for bit
    rng = np.random.default_rng(46)
    G, F, H = (la.random_gaussian_rows(40, 3, field, rng) for _ in range(3))
    G *= (np.linspace(0.5, 2.5, 40) / la.row_norms(G))[:, None]
    prof = mm.riemann_profile("1+r", "1/r")
    r2 = [1.21, 2.25, 3.61]
    for spec, unbounded in ((riemann(prof, 3, field, BOUNDED), riemann(prof, 3, field)),
                            (mm.FubiniStudy(3, field, BOUNDED), mm.fubini_study(3, field))):
        _, inside = mm.eval_batch(spec, G, H)
        assert 0 < inside.sum() < len(G)
        want = mm.eval_sesquilinear_rows(unbounded, G, F, H)
        assert np.array_equal(mm.eval_sesquilinear_rows(spec, G[inside], F[inside], H[inside]),
                              want[inside])
        j = int(np.argmax(inside))  # one row inside, beside each row outside
        for k in range(len(G)):
            vecs = [la.Vector(A[k], field) for A in (G, F, H)]
            if inside[k]:
                assert mm.eval_sesquilinear(spec, *vecs) == want[k]
                continue
            with pytest.raises(OutOfDomainError, match="outside the radius domain"):
                mm.eval_sesquilinear(spec, *vecs)
            with pytest.raises(OutOfDomainError, match="outside the radius domain"):
                mm.eval_sesquilinear_rows(spec, G[[j, k]], F[[j, k]], H[[j, k]])
        assert mm.check_positive_definite(spec, r2) == mm.check_positive_definite(unbounded, r2)
        assert mm.check_kaehler(spec, r2) == mm.check_kaehler(unbounded, r2)
        for r in (0.81, 4.41, 1.0, 4.0, -2.25):
            with pytest.raises(OutOfDomainError, match="outside the radius domain"):
                mm.check_positive_definite(spec, [2.25, r])
            with pytest.raises(ValueError, match="outside the radius domain or closer than"):
                mm.check_kaehler(spec, [2.25, r])


def test_riemann_json_keeps_a_bounded_domain_and_probes_inside_it():
    # sqrt(3-r) raises at |g|^2 > 3, which |g| in (0.3, 1.7) never reaches, so
    # the sign probe of the spec built from JSON samples inside its domain
    domain = mm.RadiusDomain(((0.3, 1.7),))
    for field in ("real", "complex"):
        obj = {"family": "riemann", "dim": 3, "field": field, "domain": mm.domain_to_json(domain),
               "params": {"phi": "sqrt(3-r)", "psi": "0"}}
        with warnings.catch_warnings():  # the probe finds no negative value
            warnings.simplefilter("error", RuntimeWarning)
            spec = mm.spec_from_json(obj)
            back = mm.spec_from_json(mm.spec_to_json(spec))
        assert spec.domain.intervals == back.domain.intervals == ((0.3, 1.7),)
        assert mm.spec_to_json(back) == mm.spec_to_json(spec)
        with pytest.raises(EvalError):  # on the positive radii the probe reaches |g|^2 > 3
            mm.spec_from_json({**obj, "domain": mm.domain_to_json(POS)})


INDEFINITE = "sesquilinear profile takes negative values; induced metric uses sign(v) sqrt|v|"


def test_induced_finsler_euclidean_profile():
    spec = mm.induced_finsler(mm.riemann_profile("1", "0"), 3)
    rng = np.random.default_rng(6)
    for _ in range(20):
        g, h = sample_pair(spec, rng)
        assert mm.eval_finsler(spec, g, h) == pytest.approx(la.norm(h), rel=1e-12)


def test_induced_finsler_negative_profile_signs_and_warns():
    with pytest.warns(RuntimeWarning, match=re.escape(INDEFINITE)):
        spec = mm.induced_finsler(mm.riemann_profile("-1", "0"), 2)
    assert mm.eval_finsler(spec, la.vector([1, 1]), la.vector([1, 0])) == pytest.approx(-1.0)


def test_the_indefinite_warning_is_no_part_of_a_specs_identity():
    # induced_finsler warns, and so does spec_from_json, which builds the spec;
    # building it directly does not, yet it is the same metric, and so is one
    # built from newly compiled texts
    p = mm.riemann_profile("-1", "0")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        direct = mm.FromRiemann(2, R, POS, p)
    with pytest.warns(RuntimeWarning) as caught:
        induced = mm.induced_finsler(p, 2)
        back = mm.spec_from_json(mm.spec_to_json(direct))
    assert [str(w.message) for w in caught] == [INDEFINITE] * 2
    assert induced == direct and hash(induced) == hash(direct)
    assert back == direct and hash(back) == hash(direct)
    assert mm.spec_to_json(back) == mm.spec_to_json(direct)
    assert induced == mm.FromRiemann(2, R, POS, mm.riemann_profile("-1", "0"))


def test_induced_fubini_study_vanishes_on_the_line():
    # the generic phi/psi path cancels to eps before the sqrt, so the induced
    # value on the degenerate line carries sqrt(eps)-level noise
    spec = mm.induced_finsler(mm.fubini_study_profile(), 2)
    g = la.vector([1.3, 0.4])
    assert abs(mm.eval_finsler(spec, g, g)) <= 1e-7
    # the dedicated family evaluates through the canonical invariants and is exact
    assert abs(mm.eval_finsler(mm.fubini_study(2), g, g)) <= 1e-12


# ---------------------------------------------------------------------------
# Positive definiteness and the eigenvalue oracle

def test_pd_examples():
    pd = mm.check_positive_definite
    assert pd(riemann(mm.riemann_profile("1", "0")), [0.5, 1.0, 7.0]) == [mm.PDVerdict.POSITIVE_DEFINITE] * 3
    assert pd(mm.fubini_study(2), [0.5, 1.0, 2.0]) == [mm.PDVerdict.SEMI_DEFINITE_DEGENERATE] * 3
    assert pd(riemann(mm.riemann_profile("1", "-2/r")), [1.0]) == [mm.PDVerdict.INDEFINITE]
    with pytest.raises(ValueError, match="no sesquilinear form"):
        pd(mm.euclidean(2), [1.0])


def test_pd_verdicts_do_not_change_with_the_profile_scale():
    # sigma = 1e-9 <f,h> is PD, and phi + r psi = -1e-9 is indefinite: each
    # reads as its unscaled profile does, with m measured against the scale
    pd = mm.check_positive_definite
    for c in ("1", "1e-9", "1e9"):
        assert pd(riemann(mm.riemann_profile(c, "0")), [0.5, 2.0]) == [mm.PDVerdict.POSITIVE_DEFINITE] * 2
        assert pd(riemann(mm.riemann_profile(c, f"-2*{c}/r")), [0.5, 2.0]) == [mm.PDVerdict.INDEFINITE] * 2
        assert pd(riemann(mm.riemann_profile(f"{c}/r", f"-{c}/(r^2)")), [0.5, 2.0]) == \
            [mm.PDVerdict.SEMI_DEFINITE_DEGENERATE] * 2
    # a zero profile is degenerate, not PD
    assert pd(riemann(mm.riemann_profile("0", "0")), [1.0]) == [mm.PDVerdict.SEMI_DEFINITE_DEGENERATE]


def gram_min_eigenvalue(spec, r2, seed):
    """Independent oracle: smallest eigenvalue of the Gram matrix of sigma_g
    on a random orthonormal basis, with |g|^2 = r2."""
    dim, field = spec.dim, spec.field
    u = la.random_unitary(dim, field, seed)
    cols = [la.Vector(np.ascontiguousarray(u.entries[:, i]), field) for i in range(dim)]
    rng = np.random.default_rng(seed + 1)
    g = la.random_vector_with_norm(dim, field, math.sqrt(r2), rng)
    m = np.array([[mm.eval_sesquilinear(spec, g, ci, cj) for cj in cols] for ci in cols])
    return float(np.linalg.eigvalsh(m).min())


@pytest.mark.parametrize("field", [R, C])
def test_pd_criterion_matches_eigenvalue_oracle(field):
    rng = np.random.default_rng(8)
    for case in range(40):
        dim = int(rng.integers(2, 7))
        r2 = float(rng.uniform(0.3, 3.0))
        if case % 4 == 0:
            s = float(rng.uniform(0.5, 2.0))
            profile = mm.congruence_invariant_riemann(s, -s)  # degenerate family
        else:
            a, b = rng.uniform(-2, 2, size=2)
            profile = mm.RiemannProfile(lambda r, a=a: a, lambda r, b=b: b)
        spec = riemann(profile, dim, field)
        verdict = mm.check_positive_definite(spec, [r2])[0]
        eig = gram_min_eigenvalue(spec, r2, 100 + case)
        if eig > 1e-8:
            assert verdict is mm.PDVerdict.POSITIVE_DEFINITE
        elif eig >= -1e-8:
            assert verdict is mm.PDVerdict.SEMI_DEFINITE_DEGENERATE
        else:
            assert verdict is mm.PDVerdict.INDEFINITE


# ---------------------------------------------------------------------------
# Kaehler criterion

def test_kaehler_examples():
    assert all(mm.check_kaehler(mm.fubini_study(2, C), [0.5, 1.0, 2.0, 5.0]))
    assert all(mm.check_kaehler(riemann(mm.riemann_profile("1", "0")), [1.0, 2.0]))
    assert not any(mm.check_kaehler(riemann(mm.riemann_profile("1", "1")), [1.0, 2.0]))


def test_kaehler_near_boundary_rejected():
    # |g| in (1, sqrt 2): |g|^2 in (1, 2)
    spec = riemann(mm.RiemannProfile(lambda r: r, lambda r: 1.0),
                   domain=mm.RadiusDomain(((1.0, math.sqrt(2.0)),)))
    with pytest.raises(ValueError):
        mm.check_kaehler(spec, [1.0 + 1e-9])


def test_an_infinite_kaehler_sample_is_outside_the_domain_without_a_warning():
    # |g| = 1e200 squares to inf, whose r - step is NaN: in no domain, and no numpy warning
    with pytest.raises(ValueError, match=r"^sample \|g\|\^2 = inf is outside the radius domain"):
        mm.check_kaehler(mm.fubini_study(2, C), [4.0, 1e200 * 1e200])


def test_congruence_invariant_kaehler_iff_opposite():
    assert all(mm.check_kaehler(riemann(mm.congruence_invariant_riemann(1.3, -1.3)), [0.5, 1.0, 3.0]))
    assert not any(mm.check_kaehler(riemann(mm.congruence_invariant_riemann(1.0, -0.5)),
                                    [0.5, 1.0, 3.0]))


# ---------------------------------------------------------------------------
# Homothety invariance

def test_homothety_congruence_invariant_passes():
    v = mm.check_homothety_invariance(mm.norm_quotient(3), 2.0, 100, seed=0)
    assert v.invariant and v.max_deviation <= 1e-10 and v.witness is None


def test_homothety_log_periodic_theta_passes():
    prof = mm.theta_profile("(2+sin(2*3.141592653589793*log(r)/log(2)))/r")
    spec = mm.FromTheta(3, R, POS, prof)
    v = mm.check_homothety_invariance(spec, 2.0, 100, seed=1, tol=1e-10)
    assert v.invariant, v.max_deviation


def test_homothety_euclidean_fails_with_witness():
    v = mm.check_homothety_invariance(mm.euclidean(3), 2.0, 100, seed=2)
    assert not v.invariant and v.witness is not None
    g, h = v.witness
    # scaling doubles the value |h|, so the worst relative deviation is |h| / (1 + |h|)
    assert v.max_deviation == pytest.approx(la.norm(h) / (1.0 + la.norm(h)), rel=1e-9)


@pytest.mark.parametrize("c", ["1", "1e6", "1e8"])
def test_homothety_verdict_does_not_change_with_the_metric_scale(c):
    # rho = |h| c (2 + sin^2 tau) / r is homothety-invariant for every c
    spec = mm.FromTheta(3, R, POS, mm.theta_profile(f"{c}*(2+sin(tau)^2)/r"))
    v = mm.check_homothety_invariance(spec, 3.0)
    assert v.invariant and v.witness is None, v.max_deviation


def test_homothety_skips_and_rejects_bad_alpha():
    spec = mm.Euclidean(2, R, mm.RadiusDomain(((1.0, 2.0),)))
    with pytest.raises(ValueError, match="all samples skipped"):
        mm.check_homothety_invariance(spec, 10.0, 50, seed=0)
    with pytest.raises(ValueError):
        mm.check_homothety_invariance(spec, 1.0)


# ---------------------------------------------------------------------------
# Profile validation

def test_validate_profile_pass():
    spec = mm.FromLambda(2, R, POS, mm.lambda_profile("sqrt(p^2+q^2)/r"))
    report = mm.validate_profile(spec)
    assert report.ok and report.worst_homogeneity <= 1e-9 and report.worst_evenness <= 1e-9
    # on a bounded domain the grid stays inside it: a profile undefined
    # outside (1, 2) is read at r = 1.2, 1.4, 1.6 and 1.8 only
    radii = set()

    def inside_only(r, p, q):
        if not 1.0 < r < 2.0:
            raise ValueError(f"undefined at r = {r}")
        radii.add(r)
        return math.hypot(p, q)
    report = mm.validate_profile(mm.FromLambda(2, R, mm.RadiusDomain(((1.0, 2.0),)), inside_only))
    assert report.ok and report.checked == 48
    assert sorted(radii) == pytest.approx([1.2, 1.4, 1.6, 1.8], rel=1e-15)


def test_validate_profile_evenness_violation():
    spec = mm.FromLambda(2, R, POS, mm.lambda_profile("p+q"))
    report = mm.validate_profile(spec)
    assert not report.ok and report.worst_evenness > 1e-3


def test_validate_profile_homogeneity_violation():
    spec = mm.FromLambda(2, R, POS, mm.lambda_profile("p^2+q^2"), alpha=1.0)
    report = mm.validate_profile(spec)
    assert not report.ok and report.worst_homogeneity > 1e-3


def test_validate_profile_fails_where_one_side_only_is_infinite():
    # lambda = inf on the grid's circle p^2 + q^2 = 9, and 1.5 at half of each
    # of its points: the deviation |1.5 - inf / 2| / (1 + inf / 2) is NaN, and counts as inf
    spec = mm.FromLambda(2, R, POS, mm.lambda_profile(
        "sqrt(p^2+q^2)*max(1,exp(1000*(sqrt(p^2+q^2)-2)))"))
    report = mm.validate_profile(spec)
    assert not report.ok and report.worst_homogeneity == math.inf and report.checked == 48


def test_validate_nonsym_profile():
    spec = mm.FromNonSymLambda(2, C, POS, mm.nonsym_lambda_profile("sqrt(pre^2+pim^2+q^2)+pre", C))
    report = mm.validate_profile(spec)
    assert report.ok


def test_validate_profile_refuses_a_family_without_a_lambda_profile():
    # it has no homogeneity or evenness hypothesis to test, so no verdict
    for spec in (mm.euclidean(3), mm.fubini_study(3, C)):
        with pytest.raises(ValueError, match=spec.family):
            mm.validate_profile(spec)


# ---------------------------------------------------------------------------
# Seminorm null-space trichotomy

def classify_null_set(fn, r):
    grid = np.linspace(-2, 2, 9)
    zero_p_axis = all(abs(fn(r, p, 0.0)) < 1e-12 for p in grid)   # lambda vanishes on the p-axis
    zero_q_axis = all(abs(fn(r, 0.0, q)) < 1e-12 for q in grid)
    zero_generic = all(abs(fn(r, p, q)) < 1e-12 for p in grid for q in grid if p and q)
    if zero_generic and zero_p_axis and zero_q_axis:
        return "all"
    if zero_p_axis and not zero_generic:
        return "p-axis"
    if zero_q_axis and not zero_generic:
        return "q-axis"
    return "origin"


def test_seminorm_null_space_trichotomy():
    cases = {
        "q-axis": lambda r, p, q: abs(p),   # vanishes where p = 0
        "p-axis": lambda r, p, q: abs(q),
        "origin": lambda r, p, q: math.hypot(p, q),
    }
    for expected, fn in cases.items():
        for r in (0.5, 1.0, 2.0):
            assert classify_null_set(fn, r) == expected


# ---------------------------------------------------------------------------
# Serialization

def spec_cases():
    yield mm.euclidean(3, C)
    yield mm.fubini_study(2)
    yield mm.norm_quotient(3)
    yield mm.FromLambda(3, R, POS, mm.lambda_profile("sqrt(p^2+q^2)/r"))
    yield mm.FromTheta(3, R, POS, mm.theta_profile("1+cos(tau)^2"))
    yield mm.FromNonSymLambda(2, C, POS, mm.nonsym_lambda_profile("sqrt(pre^2+pim^2+q^2)+pre", C))
    yield mm.induced_finsler(mm.riemann_profile("1/r", "-1/(r^2)"), 3)
    yield mm.area_dim2(2.5)
    yield mm.zero_extended(1.5, mm.euclidean(2))


@pytest.mark.parametrize("spec", [*spec_cases(), pytest.param(
    mm.induced_finsler(mm.fubini_study_profile(), 3), id="riemann-fubini-study")],
    ids=lambda s: s.family)
def test_spec_json_roundtrip(spec):
    obj = mm.spec_to_json(spec)
    back = mm.spec_from_json(obj)
    assert mm.spec_to_json(back) == obj
    assert back.family == spec.family
    assert back.dim == spec.dim and back.field is spec.field
    rng = np.random.default_rng(9)
    for _ in range(20):
        g, h = sample_pair(spec, rng)
        assert mm.eval_finsler(back, g, h) == pytest.approx(
            mm.eval_finsler(spec, g, h), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("field", [R, C])
def test_a_spec_read_back_from_json_equals_the_spec(field):
    # a profile compares by its names and its text's canonical form, so the
    # specs of one text are one key
    for dim in (2, 3):
        for spec in family_specs(dim, field):
            try:
                obj = mm.spec_to_json(spec)
            except ValueError:  # a profile given as a bare callable
                continue
            back = mm.spec_from_json(obj)
            assert back == spec and hash(back) == hash(spec), spec.family
            assert {spec: 1}[back] == 1


def test_a_profile_compares_by_its_canonical_text():
    a, b = mm.theta_profile("1+cos(tau)"), mm.theta_profile("1 + cos( tau )")
    assert a == b and hash(a) == hash(b)
    assert a == mm.theta_profile("(1.0)+(cos(tau))")
    assert a != mm.theta_profile("cos(tau)+1")  # operands are not reordered
    assert a.text == "1+cos(tau)" and b.text == "1 + cos( tau )"  # the text as given
    assert mm.vartheta_profile("1") != mm.theta_profile("1")  # other names
    lam = "sqrt(pre^2+pim^2+q^2)+pre"
    assert mm.nonsym_lambda_profile(lam, C) == mm.nonsym_lambda_profile(f" {lam} ", C)
    assert mm.nonsym_lambda_profile(lam, C) != mm.nonsym_lambda_profile(f"{lam}+1", C)
    assert mm.nonsym_lambda_profile("p+q", R) == mm.lambda_profile("p+q")  # one text, one names


def test_zero_extended_json_includes_zero():
    spec = mm.zero_extended(2.0, mm.euclidean(2))
    back = mm.spec_from_json(mm.spec_to_json(spec))
    assert mm.eval_finsler(back, la.vector([0, 0]), la.vector([1, 0])) == pytest.approx(2.0)


@pytest.mark.parametrize("obj,words", [
    ({"family": "theta", "dim": 2, "field": "real"}, "key 'theta'"),
    ({"family": "euclidean"}, "key 'dim'"),
    ({"family": "theta", "dim": 2, "field": "real", "params": {"theta": 5}}, "text, not int"),
    ([1, 2], "JSON object, not list"),
    ({"family": "euclidean", "dim": [2], "field": "real"}, "wrong type"),
    ({"family": "area", "dim": 2, "field": "real", "params": [1]}, "params is a JSON object"),
    # a value of the wrong JSON type is refused, not coerced
    ({"family": "euclidean", "dim": 2.7, "field": "real"}, "dim has the wrong type: float, not an integer"),
    ({"family": "euclidean", "dim": True, "field": "real"}, "dim has the wrong type: bool, not an integer"),
    ({"family": "euclidean", "dim": 2, "field": "real",
      "domain": {"intervals": [[0, None]], "includes_zero": "no"}},
     "includes_zero has the wrong type: str, not a boolean"),
    ({"family": "euclidean", "dim": 2, "field": "real", "domain": {"intervals": [["0", None]]}},
     "an interval end has the wrong type: str, not a number"),
    ({"family": "euclidean", "dim": 2, "field": "real", "domain": {"intervals": [[0, True]]}},
     "an interval end has the wrong type: bool, not a number"),
    ({"family": "area", "dim": 2, "field": "real", "params": {"b": "2"}},
     "b has the wrong type: str, not a number"),
    ({"family": "zero-extended", "dim": 2, "field": "real",
      "params": {"b": False, "inner": {"family": "euclidean", "dim": 2, "field": "real"}}},
     "b has the wrong type: bool, not a number"),
    ({"family": "lambda", "dim": 2, "field": "real", "params": {"lam": "p", "alpha": "2"}},
     "alpha has the wrong type: str, not a number"),
    # a NaN or infinite coefficient would give NaN values (inf * 0); a negative one is valid
    *(({"family": "area", "dim": 2, "field": "real", "params": {"b": b}},
       "b must be finite") for b in (math.nan, math.inf, -math.inf)),
    *(({"family": "zero-extended", "dim": 2, "field": "real",
        "domain": {"intervals": [[0, None]], "includes_zero": True},
        "params": {"b": b, "inner": {"family": "euclidean", "dim": 2, "field": "real"}}},
       "b must be finite") for b in (math.nan, math.inf)),
    # a NaN degree evaluated, and check homothety echoed it as null
    *(({"family": "lambda", "dim": 3, "field": "real",
        "params": {"lam": "sqrt(p^2+q^2)", "alpha": alpha}},
       "alpha must be finite") for alpha in (math.nan, math.inf, -math.inf)),
])
def test_a_malformed_spec_is_a_value_error(obj, words):
    with pytest.raises(ValueError, match=words):
        mm.spec_from_json(obj)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_a_non_finite_degree_is_a_value_error(alpha):
    with pytest.raises(ValueError, match="alpha must be finite"):
        mm.FromLambda(3, R, POS, lambda r, p, q: math.hypot(p, q), alpha)
    with pytest.raises(ValueError, match="alpha must be finite"):
        mm.Custom(3, R, POS, fn=lambda g, h: 0.0, alpha=alpha)


def test_callable_profile_not_serializable():
    spec = mm.FromTheta(3, R, POS, lambda r, tau: 1.0)
    with pytest.raises(ValueError):
        mm.spec_to_json(spec)
    with pytest.raises(ValueError):
        mm.spec_to_json(mm.Custom(3, R, POS, fn=lambda g, h: 0.0))


@pytest.mark.parametrize("spec", [
    mm.FromLambda(3, R, POS, lambda r, p, q: math.hypot(p, q) / r),
    mm.FromTheta(3, R, POS, lambda r, tau: 1.0),
    mm.FromNonSymLambda(3, C, POS, lambda r, p, q: math.hypot(abs(p), q) / r),
    mm.CongruenceInvariant(3, R, POS, lambda tau: 1.0)], ids=lambda s: s.family)
def test_a_bare_callable_profile_is_not_serializable(spec):
    # without the .text of a profile built from text there is nothing to write
    with pytest.raises(ValueError, match="not expression-backed"):
        mm.spec_to_json(spec)


def test_congruence_invariant_family_b_zero():
    prof = riemann(mm.congruence_invariant_riemann(1.0, 0.0))
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = la.random_gaussian_vector(3, C, rng)
        f = la.random_gaussian_vector(3, C, rng)
        h = la.random_gaussian_vector(3, C, rng)
        want = la.inner(f, h) / la.norm(g) ** 2
        assert mm.eval_sesquilinear(prof, g, f, h) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# Profile builders against the expression evaluator

def _nonsym_complex(text):
    fn = mm.nonsym_lambda_profile(text, C)
    return lambda r, pre, pim, q: fn(r, complex(pre, pim), q)


def _vartheta(text):
    obj = {"family": "congruence-invariant", "dim": 3, "field": "real",
           "params": {"vartheta": text}}
    return mm.spec_from_json(obj).vartheta


# builder -> (its variables in argument order, text -> callable over them)
PROFILE_BUILDERS = {
    "lambda": (("r", "p", "q"), mm.lambda_profile),
    "theta": (("r", "tau"), mm.theta_profile),
    "nonsym-real": (("r", "p", "q"), lambda text: mm.nonsym_lambda_profile(text, R)),
    "nonsym-complex": (("r", "pre", "pim", "q"), _nonsym_complex),
    "phi": (("r",), lambda text: mm.riemann_profile(text, "0").phi),
    "psi": (("r",), lambda text: mm.riemann_profile("0", text).psi),
    "vartheta": (("tau",), _vartheta),
}

@st.composite
def _profile_cases(draw):
    kind = draw(st.sampled_from(sorted(PROFILE_BUILDERS)))
    names, _ = PROFILE_BUILDERS[kind]
    text = draw(expression_texts(names))
    values = draw(st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * len(names)))
    return kind, text, values


@settings(max_examples=400, deadline=None, database=None)
@given(_profile_cases())
def test_profile_builders_match_evaluate(case):
    kind, text, values = case
    names, build = PROFILE_BUILDERS[kind]
    fn = build(text)
    try:
        want = evaluate(parse(text, names), dict(zip(names, values)))
    except EvalError:
        with pytest.raises(EvalError):
            fn(*values)
        return
    got = fn(*values)
    assert not math.isnan(got) and got == want


# ---------------------------------------------------------------------------
# Fast cases of the batch path against its general case

_DOMAINS = [
    mm.RadiusDomain.positive(),
    mm.RadiusDomain(((0.5, 3.0),)),
    mm.RadiusDomain(((0.5, 1.0), (2.0, 3.0))),  # bounded, two intervals
    mm.RadiusDomain(((0.0, math.inf),), includes_zero=True),
    mm.RadiusDomain(((0.5, 1.0), (2.0, 3.0)), includes_zero=True),
]


@pytest.mark.parametrize("domain", _DOMAINS)
def test_contains_takes_a_radius_or_an_array(domain):
    # a single interval without 0 takes the fast case; the others the general one
    rng = np.random.default_rng(3)
    edges = [0.0, -0.0, 0.5, 1.0, 2.0, 3.0, np.nextafter(0.5, 1), np.nextafter(3.0, 0),
             1e-320, math.inf, math.nan]
    r = np.concatenate([edges, rng.uniform(0.0, 4.0, 60)])
    want = [x == 0.0 and domain.includes_zero or any(lo < x < hi for lo, hi in domain.intervals)
            for x in r.tolist()]
    got = domain.contains(r)
    assert got.dtype == bool and got.shape == r.shape and got.tolist() == want
    singles = [domain.contains(x) for x in r.tolist()]
    assert all(type(x) is bool for x in singles) and singles == want
    assert [bool(domain.contains(x)) for x in r] == want  # numpy float64 radii
    general = mm.RadiusDomain(domain.intervals, includes_zero=True).contains(r)
    assert (got == general)[r != 0.0].all()


@pytest.mark.parametrize("field", [R, C])
def test_eval_batch_all_inside_equals_the_scatter(field):
    # with every row inside, eval_batch returns the family's values directly;
    # one more row outside (|g| past the domain, or g = 0) takes the scatter
    rng = np.random.default_rng(11)
    G, H = _batch_pairs(3, field, rng)
    G *= 1.5 / la.row_norms(G)[:, None]  # inside (0.5, 3) as well
    bounded = mm.RadiusDomain(((0.5, 1.0), (1.2, 3.0)))
    specs = family_specs(3, field) + [mm.Euclidean(3, field, bounded),
                                      mm.FromTheta(3, field, bounded, mm.theta_profile("2+cos(tau)"))]
    scattered = set()
    for k, spec in enumerate(specs):
        values, inside = mm.eval_batch(spec, G, H)
        assert inside.all() and values.dtype == np.float64, spec.family
        for outside in (4.0 * G[:1], np.zeros((1, 3), field.dtype)):
            if mm.eval_batch(spec, outside, H[:1])[1][0]:
                continue  # |g| = 6 lies in the positive domain, g = 0 in a zero extension
            more, mask = mm.eval_batch(spec, np.vstack([G, outside]), np.vstack([H, H[:1]]))
            assert mask.tolist() == [True] * len(G) + [False], spec.family
            assert more[:-1].tobytes() == values.tobytes() and more[-1] == 0.0, spec.family
            scattered.add(k)
    assert len(scattered) == len(specs) - 1  # all but the zero extension


# ---------------------------------------------------------------------------
# |g| under- and overflow

def test_a_non_zero_g_whose_norm_underflows_is_out_of_domain():
    spec = mm.zero_extended(3.0, mm.euclidean(2))
    tiny, h = la.vector([1e-200, 0.0]), la.vector([0.0, 1.0])
    assert la.norm(tiny) == 0.0
    with pytest.raises(OutOfDomainError, match="underflows"):  # not b|h| = 3, as g = 0 gives
        mm.eval_finsler(spec, tiny, h)
    assert mm.eval_finsler(spec, la.vector([0, 0]), h) == 3.0
    with pytest.raises(OutOfDomainError, match="underflows"):
        mm.eval_finsler(mm.euclidean(2), tiny, h)
    with pytest.raises(OutOfDomainError, match="outside the radius domain"):
        mm.eval_finsler(mm.euclidean(2), la.vector([0, 0]), h)
    # a custom metric sees the vectors, so it still takes such a g
    custom = mm.Custom(2, R, mm.RadiusDomain(((0.0, math.inf),), includes_zero=True),
                       fn=lambda g, h: float(np.abs(g.entries).sum()))
    assert mm.eval_finsler(custom, tiny, h) == 1e-200


@pytest.mark.parametrize("field", [R, C])
def test_a_g_whose_norm_overflows_is_out_of_domain_without_a_warning(field):
    # the error filter of the test configuration turns a RuntimeWarning into a failure
    huge = la.vector([1e200, 0.0], field)
    for spec in (mm.euclidean(2, field), mm.zero_extended(1.0, mm.fubini_study(2, field)),
                 mm.FromTheta(2, field, POS, mm.theta_profile("1+cos(tau)"))):
        with pytest.raises(OutOfDomainError, match="overflows"):
            mm.eval_finsler(spec, huge, huge)


@pytest.mark.parametrize("field", [R, C])
def test_eval_batch_marks_under_and_overflowing_rows_outside(field):
    G = np.array([[1e-200, 0.0], [0.0, 0.0], [1.0, 0.0], [1e200, 0.0], [0.0, -1e-170]], field.dtype)
    H = np.array([[0.0, 1.0]] * 5, field.dtype)
    custom = mm.Custom(2, field, mm.RadiusDomain(((0.0, math.inf),), includes_zero=True),
                       fn=lambda g, h: float(np.abs(g.entries).sum()))
    cases = [(mm.zero_extended(3.0, mm.euclidean(2, field)), [False, True, True, False, False]),
             (mm.euclidean(2, field), [False, False, True, False, False]),
             (custom, [True, True, True, False, True])]
    for spec, want in cases:
        values, inside = mm.eval_batch(spec, G, H)
        assert inside.tolist() == want, spec.family
        for g, h, ok, got in zip(G, H, inside, values):
            if ok:
                assert got == mm.eval_finsler(spec, la.Vector(g, field), la.Vector(h, field))
            else:
                assert got == 0.0
                with pytest.raises(OutOfDomainError):
                    mm.eval_finsler(spec, la.Vector(g, field), la.Vector(h, field))


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("c", ["0", "-1", "2.5"])
def test_a_constant_profile_gives_the_rows_of_its_varying_form(field, c):
    # a constant vartheta or theta skips the angle; the rows are those of
    # c+0*tau, signed zeros included, with 0 on the h = 0 rows
    G, H = mm.sample_pairs(mm.euclidean(4, field), 300, np.random.default_rng(8))
    H[1::7] = -2.0 * G[1::7]  # collinear: tau = 0
    H[::5] = 0.0
    pairs = [(mm.CongruenceInvariant, mm.vartheta_profile), (mm.FromTheta, mm.theta_profile)]
    for family, profile in pairs:
        constant, varying = profile(c), profile(f"{c}+0*tau")
        assert (constant.rows.constant, varying.rows.constant) == (float(c), None)
        got, inside = mm.eval_batch(family(4, field, POS, constant), G, H)
        want, _ = mm.eval_batch(family(4, field, POS, varying), G, H)
        assert inside.all() and got.tobytes() == want.tobytes()
        assert (got[::5] == 0.0).all() and not np.signbit(got[::5]).any()
        # with h = 0 on every row the profile is never evaluated, as before
        zero, _ = mm.eval_batch(family(4, field, POS, constant), G, 0.0 * H)
        assert zero.tobytes() == np.zeros(len(G)).tobytes()


def test_a_constant_profile_is_not_evaluated_on_the_rows():
    def vartheta(tau):
        raise AssertionError("the scalar form is not called")

    def rows(tau):
        raise AssertionError("a constant profile needs no angle column")
    vartheta.rows, rows.constant = rows, 2.5
    G, H = mm.sample_pairs(mm.euclidean(3), 50, np.random.default_rng(9))
    got, _ = mm.eval_batch(mm.CongruenceInvariant(3, R, POS, vartheta), G, H)
    want, _ = mm.eval_batch(mm.CongruenceInvariant(3, R, POS, mm.vartheta_profile("2.5")), G, H)
    assert got.tobytes() == want.tobytes()


def test_a_constant_text_that_raises_keeps_its_errors():
    # log(0) has no value: no constant, and the rows raise on every row with h != 0
    G, H = mm.sample_pairs(mm.euclidean(3), 20, np.random.default_rng(10))
    for family, profile in [(mm.CongruenceInvariant, mm.vartheta_profile),
                            (mm.FromTheta, mm.theta_profile)]:
        fn = profile("log(0)")
        assert fn.rows.constant is None
        spec = family(3, R, POS, fn)
        with pytest.raises(EvalError, match="log of non-positive argument"):
            mm.eval_batch(spec, G, H)
        assert mm.eval_batch(spec, G, 0.0 * H)[0].tolist() == [0.0] * 20
