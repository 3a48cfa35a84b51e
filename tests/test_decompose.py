import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from finsler_iso import decompose as dc
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import MismatchError, OutOfDomainError
from helpers import POS, battery, family_specs, near_pair, nonsym_lambda, pair_cases, theta_angular

R, C = la.Field.REAL, la.Field.COMPLEX


def test_extract_lambda_euclidean():
    lam = dc.extract_lambda(mm.euclidean(3))
    for r, p, q in [(2.0, 0.0, 3.0), (1.0, 1.0, 1.0), (0.5, 0.3, 0.4)]:
        assert lam(r, p, q) == pytest.approx(math.hypot(p, q) / r, rel=1e-12)


def test_extract_lambda_norm_product_oracle():
    spec = mm.Custom(3, R, POS, fn=lambda g, h: la.norm(g) * la.norm(h))
    lam = dc.extract_lambda(spec)
    assert lam(2.0, 3.0, 4.0) == pytest.approx(5.0, rel=1e-12)


def test_extract_lambda_fubini_study():
    lam = dc.extract_lambda(mm.fubini_study(3))
    for r, p, q in [(2.0, 1.0, 1.0), (1.0, 0.0, 2.0), (0.7, 0.2, 0.9)]:
        assert lam(r, p, q) == pytest.approx(q / r ** 2, rel=1e-12, abs=1e-15)


def test_extract_theta_values():
    assert dc.extract_theta(mm.euclidean(3))(1.7, 0.4) \
        == pytest.approx(1.0, rel=1e-12)
    cos_spec = mm.FromLambda(3, R, POS, mm.lambda_profile("p/r"))
    th = dc.extract_theta(cos_spec)
    for tau in (0.0, 0.4, 1.2):
        assert th(2.0, tau) == pytest.approx(math.cos(tau), rel=1e-12, abs=1e-15)
    fs = dc.extract_theta(mm.fubini_study(3))
    for r, tau in [(1.0, 0.5), (2.0, 1.0)]:
        assert fs(r, tau) == pytest.approx(math.sin(tau) / r, rel=1e-12)


def _black_box(spec, alpha=1.0):
    """The spec as a Custom metric of the given degree: rows loop over eval_finsler."""
    return mm.Custom(spec.dim, spec.field, spec.domain,
                     functools.partial(mm.eval_finsler, spec), alpha)


def test_extract_theta_requires_degree_one():
    with pytest.raises(ValueError, match="degree-1"):
        dc.extract_theta(_black_box(mm.euclidean(3), alpha=2.0))


def test_a_spec_carries_its_degree():
    spec = mm.FromLambda(3, R, POS, mm.lambda_profile("p^2+q^2"), 2.0)
    assert spec.alpha == 2.0 and _black_box(spec, 2.0).alpha == 2.0
    assert mm.euclidean(3).alpha == mm.FromNonSymLambda(3, R, POS, nonsym_lambda).alpha == 1.0
    assert mm.Custom(3, R, POS, fn=la.inner).alpha == 1.0
    lam = dc.extract_lambda(spec)  # validates the declared degree on samples
    for r, p, q in [(2.0, 0.0, 3.0), (1.0, 1.0, 1.0), (0.5, 0.3, 0.4)]:
        assert lam(r, p, q) == pytest.approx(p * p + q * q, rel=1e-12)
    assert dc.roundtrip_check(spec, mm.FromLambda(3, R, POS, lam, 2.0), 100, seed=1).passed
    with pytest.raises(ValueError, match="degree-1"):
        dc.extract_theta(spec)
    obj = mm.spec_to_json(spec)  # the degree is the spec's, and is written and read back
    assert obj["params"] == {"lam": "p^2+q^2", "alpha": 2.0}
    assert mm.spec_from_json(obj).alpha == 2.0 and mm.spec_to_json(mm.spec_from_json(obj)) == obj


def test_alpha_validation_rejects_wrong_degree():
    with pytest.raises(ValueError, match="homogeneity"):
        dc.extract_lambda(_black_box(mm.euclidean(3), alpha=2.0))


def test_extraction_needs_dim2():
    spec = mm.Custom(1, R, POS, fn=lambda g, h: la.norm(h))
    with pytest.raises(MismatchError):
        dc.extract_lambda(spec)


def test_extract_phi_psi_cases():
    ident = dc.SesquiOracle(lambda g, f, h: la.inner(f, h), 3, C, POS)
    prof = dc.extract_phi_psi(ident)
    assert prof.phi(2.0) == pytest.approx(1.0) and prof.psi(2.0) == pytest.approx(0.0, abs=1e-12)

    fs = dc.extract_phi_psi(dc.sesqui_oracle_from_spec(mm.fubini_study(3)))
    for r in (0.5, 1.0, 2.0):
        assert fs.phi(r) == pytest.approx(1.0 / r, rel=1e-12)
        assert fs.psi(r) == pytest.approx(-1.0 / r ** 2, rel=1e-12)

    scaled = dc.SesquiOracle(lambda g, f, h: la.norm(g) ** 2 * la.inner(f, h), 3, R, POS)
    prof = dc.extract_phi_psi(scaled)
    assert prof.phi(2.0) == pytest.approx(2.0) and prof.psi(2.0) == pytest.approx(0.0, abs=1e-12)


def test_phi_psi_rejects_asymmetric_oracle():
    bad = dc.SesquiOracle(lambda g, f, h: la.inner(f, h) + 0.1j, 3, C, POS)
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        dc.extract_phi_psi(bad)


def test_roundtrip_euclidean():
    spec = mm.euclidean(3)
    rebuilt = mm.FromLambda(3, R, POS, dc.extract_lambda(spec))
    report = dc.roundtrip_check(spec, rebuilt, 500, seed=0, tol=1e-10)
    assert report.passed, report.max_relative_deviation


def test_roundtrip_fubini_study_sesquilinear():
    orc = dc.sesqui_oracle_from_spec(mm.fubini_study(3))
    rebuilt = mm.induced_finsler(dc.extract_phi_psi(orc), 3)
    report = dc.roundtrip_check(orc, rebuilt, 500, seed=1, tol=1e-10)
    assert report.passed, report.max_relative_deviation


def test_roundtrip_flags_non_invariant_oracle():
    # depends on the base point's direction, so the canonical form cannot match
    spec = mm.Custom(3, R, POS, fn=lambda g, h: abs(float(h.entries[0])))
    rebuilt = mm.FromLambda(3, R, POS, dc.extract_lambda(spec, check_alpha=False))
    report = dc.roundtrip_check(spec, rebuilt, 200, seed=2)
    assert not report.passed
    assert report.max_relative_deviation > 0.1
    assert report.witness is not None


@pytest.mark.parametrize("field", [R, C])
def test_roundtrip_battery(field):
    for name, spec in battery(3, field):
        lam = dc.extract_lambda(spec, check_alpha=False)
        rebuilt = (mm.FromNonSymLambda if name == "nonsym" else mm.FromLambda)(3, field, POS, lam)
        report = dc.roundtrip_check(spec, rebuilt, 300, seed=3, tol=1e-9)
        assert report.passed, (name, report.max_relative_deviation)


def test_extracted_lambda_satisfies_profile_hypotheses():
    for name, spec in battery(3, R):
        if name == "nonsym":
            continue
        lam = dc.extract_lambda(spec, check_alpha=False)
        report = mm.validate_profile(mm.FromLambda(3, R, POS, lam), grid_size=3, tol=1e-9)
        assert report.ok, (name, report)


def test_basis_independence_under_rotations():
    grid = [(r, p, q) for r in (0.5, 1.0, 2.0) for p, q in ((1.0, 0.0), (0.6, 0.8), (0.0, 1.0))]
    for name, spec in battery(3, R):
        if name == "nonsym":
            continue
        lam0 = dc.extract_lambda(spec, check_alpha=False)
        for seed in range(20):
            rot = la.random_rotation(3, seed)
            frame = (la.apply_map(rot, la.basis_vector(3, 0)),
                     la.apply_map(rot, la.basis_vector(3, 1)))
            lam1 = dc.extract_lambda(spec, frame=frame, check_alpha=False)
            for r, p, q in grid:
                a, b = lam0(r, p, q), lam1(r, p, q)
                assert abs(a - b) <= 1e-9 * (1 + abs(a)), name


def test_nonsym_extraction_keeps_direction():
    spec = mm.FromNonSymLambda(2, C, POS,
                               mm.nonsym_lambda_profile("sqrt(pre^2+pim^2+q^2)+pre", C))
    lam = dc.extract_lambda(spec, check_alpha=False)
    assert lam(1.0, 1.0, 0.0) == pytest.approx(2.0, rel=1e-12)
    assert lam(1.0, -1.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert lam(1.0, 1j, 0.0) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("field", [R, C])
def test_the_names_kept_for_the_benchmark_add_nothing(field):
    # perfbench's sweep still calls oracle_from_spec and extract_nonsym_lambda
    spec = mm.FromNonSymLambda(3, field, POS, nonsym_lambda)
    assert dc.oracle_from_spec(spec) is spec
    rng = np.random.default_rng(3)
    r, q = rng.uniform(0.1, 3.0, 20), rng.uniform(-2.0, 2.0, 20)
    p = la.random_gaussian_rows(20, 1, field, rng)[:, 0]
    np.testing.assert_array_equal(dc.extract_nonsym_lambda(spec).rows(r, p, q),
                                  dc.extract_lambda(spec, check_alpha=False).rows(r, p, q))


def test_tabulation_rows():
    th = dc.extract_theta(mm.euclidean(2))
    rows = dc.tabulate_theta(th, [1.0, 2.0], [0.0, 0.5])
    assert len(rows) == 4 and rows[0] == pytest.approx((1.0, 0.0, 1.0))
    pp = dc.extract_phi_psi(dc.sesqui_oracle_from_spec(mm.fubini_study(2)))
    rows = dc.tabulate_phi_psi(pp, [2.0])
    assert rows[0] == pytest.approx((2.0, 0.5, -0.25))


def test_checks_of_nothing_raise():
    spec = mm.euclidean(3)
    rebuilt = mm.FromLambda(3, R, POS, dc.extract_lambda(spec))
    with pytest.raises(ValueError, match="round-trip needs at least one sample"):
        dc.roundtrip_check(spec, rebuilt, 0)
    with pytest.raises(ValueError, match="homogeneity check needs at least one sample"):
        dc.validate_alpha(spec, n_samples=0)
    with pytest.raises(ValueError, match="symmetry check needs at least one sample"):
        dc._validate_conjugate_symmetry(dc.sesqui_oracle_from_spec(mm.fubini_study(3)), 0)


@pytest.mark.parametrize("field", [R, C])
def test_extracted_profiles_refuse_radii_outside_the_domain(field):
    # r e with r <= 0 would stand at the radius |r|: every extracted rows form
    # refuses such an r, and one outside a bounded domain, before any arithmetic
    spec = mm.FromTheta(2, field, POS, mm.theta_profile("r"))
    theta = dc.extract_theta(spec)
    lam = dc.extract_lambda(spec)
    nonsym = dc.extract_lambda(mm.FromNonSymLambda(2, field, POS, nonsym_lambda), check_alpha=False)
    riemann = dc.extract_phi_psi(dc.sesqui_oracle_from_spec(mm.fubini_study(2, field)))
    bounded = dc.extract_lambda(mm.Euclidean(2, field, mm.RadiusDomain(((1.0, 2.0),))))
    assert theta(2.0, 0.3) == pytest.approx(2.0, rel=1e-12)
    one, bad = np.ones(2), np.array([1.0, -1.0])  # at 1.5 + bad, 2.5 leaves (1, 2)
    calls = [lambda r: theta(r, 0.3), lambda r: lam(r, 1.0, 1.0),
             lambda r: nonsym(r, 1.0, 1.0), riemann.phi, riemann.psi]
    for call in calls:
        for r in (-1.0, 0.0, math.nan):
            with pytest.raises(OutOfDomainError, match="outside the extracted profile's domain"):
                call(r)
    for rows in (lambda r: theta.rows(r, one), lambda r: lam.rows(r, one, one),
                 lambda r: nonsym.rows(r, one, one), riemann.phi_rows, riemann.psi_rows,
                 lambda r: bounded.rows(r + 1.5, one, one)):
        with pytest.raises(OutOfDomainError, match=r"r = (-1\.0|2\.5) is outside"):
            rows(bad)


def test_spec_rows_reject_rows_outside_the_domain():
    bounded = mm.Euclidean(3, R, mm.RadiusDomain(((1.0, 2.0),)))
    H = np.ones((2, 3))
    assert dc._rows(bounded, np.array([[1.5, 0, 0], [0, 1.2, 0]]), H).tolist() == pytest.approx(
        [math.sqrt(3.0)] * 2)
    with pytest.raises(OutOfDomainError, match="outside the metric's domain"):
        dc._rows(bounded, np.array([[1.5, 0, 0], [0, 3.0, 0]]), H)


# ---------------------------------------------------------------------------
# Batched extraction, round-trips and lengths against the scalar loops they replace

def _fn_only(metric):
    """The same metric without its rows form: rows go through a loop over
    eval_finsler, or over a sesquilinear oracle's fn."""
    if isinstance(metric, dc.SesquiOracle):
        return dc.SesquiOracle(metric.fn, metric.dim, metric.field, metric.domain)
    return _black_box(metric, metric.alpha)


def _roundtrip_cases(field):
    """(name, metric, rebuilt spec) for every extraction, over metrics and
    sesquilinear oracles with and without a rows form, and two non-invariant
    custom metrics."""
    nonsym_text = "sqrt(p^2+q^2)+0.5*p" if field is R else "sqrt(pre^2+pim^2+q^2)+0.5*pre"
    cases = []
    for spec in (mm.FromTheta(3, field, POS, mm.theta_profile("1+cos(tau)")),
                 mm.FromTheta(3, field, POS, theta_angular)):
        for o in (spec, _fn_only(spec)):
            cases.append(("theta", o, mm.FromTheta(3, field, POS, dc.extract_theta(o))))
            cases.append(("lambda", o, mm.FromLambda(3, field, POS, dc.extract_lambda(o))))
    for spec in (mm.FromNonSymLambda(3, field, POS, mm.nonsym_lambda_profile(nonsym_text, field)),
                 mm.FromNonSymLambda(3, field, POS, nonsym_lambda)):
        for o in (spec, _fn_only(spec)):
            cases.append(("nonsym", o, mm.FromNonSymLambda(
                3, field, POS, dc.extract_lambda(o, check_alpha=False))))
    for spec in (mm.fubini_study(3, field), mm.induced_finsler(mm.riemann_profile("1+r", "1"), 3, field)):
        orc = dc.sesqui_oracle_from_spec(spec)
        for o in (orc, _fn_only(orc)):
            cases.append(("phi-psi", o, mm.FromRiemann(3, field, POS, dc.extract_phi_psi(o))))
    ident = dc.SesquiOracle(lambda g, f, h: la.inner(f, h), 3, field, POS)
    cases.append(("phi-psi fn-only", ident, mm.FromRiemann(3, field, POS, dc.extract_phi_psi(ident))))
    custom = mm.Custom(3, field, POS, fn=lambda g, h: abs(complex(h.entries[0])))
    cases.append(("custom", custom, mm.FromLambda(
        3, field, POS, dc.extract_lambda(custom, check_alpha=False))))
    # many samples tie at the largest deviation, and the witness is the first
    step = mm.Custom(3, field, POS, fn=lambda g, h: 0.5 * (g.entries[0].real > 0))
    cases.append(("step", step, mm.FromLambda(3, field, POS, mm.lambda_profile("0"))))
    return cases


def _scalar_roundtrip(metric, rebuilt, rows, tol):
    """The per-sample round-trip loop over given rows: (passed, worst, witness index)."""
    worst, k = 0.0, None
    for i, row in enumerate(zip(*rows)):
        vecs = [la.Vector(v, metric.field) for v in row]
        if isinstance(metric, dc.SesquiOracle):
            got = metric.fn(*vecs)
            want = mm.eval_sesquilinear(mm.sesquilinear_profile(rebuilt), *vecs)
        else:
            got = mm.eval_finsler(metric, *vecs)
            want = mm.eval_finsler(rebuilt, *vecs)
        dev = abs(got - want) / (1.0 + abs(got))
        if dev > worst:
            worst, k = dev, i
    return worst <= tol, worst, None if worst <= tol else k


@pytest.mark.parametrize("field", [R, C])
def test_batched_roundtrips_equal_the_scalar_loop(field):
    for i, (name, metric, rebuilt) in enumerate(_roundtrip_cases(field)):
        rows = dc._roundtrip_rows(metric, 200, np.random.default_rng(i))
        passed, worst, k = _scalar_roundtrip(metric, rebuilt, rows, 1e-9)
        report = dc.roundtrip_check(metric, rebuilt, 200, seed=i, tol=1e-9)
        assert (report.passed, report.samples) == (passed, 200), name
        assert passed == (name not in ("custom", "step")), name
        # on a passing round-trip the deviation is rounding noise, held to 1e-14 absolute
        assert report.max_relative_deviation == pytest.approx(worst, rel=1e-12, abs=1e-14), name
        if k is None:
            assert report.witness is None, name
        else:
            assert len(report.witness) == len(rows), name
            for v, arr in zip(report.witness, rows):
                assert np.array_equal(v.entries, arr[k]), name


def test_rebuilt_specs_batch(monkeypatch):
    # a spec rebuilt from an extracted profile never reaches the row default
    monkeypatch.setattr(mm.MetricSpec, "_values", lambda *args: pytest.fail("row default"))
    for field in (R, C):
        G, H = mm.sample_pairs(mm.euclidean(3, field), 50, np.random.default_rng(0))
        text = "sqrt(p^2+q^2)+0.5*p" if field is R else "sqrt(pre^2+pim^2+q^2)+0.5*pre"
        theta = mm.FromTheta(3, field, POS, mm.theta_profile("1+cos(tau)"))
        nonsym = mm.FromNonSymLambda(3, field, POS, mm.nonsym_lambda_profile(text, field))
        phi_psi = dc.extract_phi_psi(dc.sesqui_oracle_from_spec(mm.fubini_study(3, field)))
        for spec in (mm.FromTheta(3, field, POS, dc.extract_theta(theta)),
                     mm.FromLambda(3, field, POS, dc.extract_lambda(theta)),
                     mm.FromNonSymLambda(3, field, POS, dc.extract_lambda(nonsym, check_alpha=False)),
                     mm.FromRiemann(3, field, POS, phi_psi), mm.induced_finsler(phi_psi, 3, field)):
            values, inside = mm.eval_batch(spec, G, H)
            assert inside.all() and np.isfinite(values).all(), spec.family


def test_roundtrip_strata():
    for field in (R, C):
        G, H = dc._roundtrip_rows(mm.euclidean(4, field), 40, np.random.default_rng(0))
        ip, q = la.pair_invariants_rows(G, H, la.row_norms(G))
        scale = la.row_norms(G) * la.row_norms(H)
        assert (q[::10] <= 1e-12 * scale[::10]).all()           # h collinear with g
        assert (np.abs(ip[5::10]) <= 1e-12 * scale[5::10]).all()  # h orthogonal to g
        generic = np.arange(40) % 5 != 0
        assert (q[generic] > 1e-3 * scale[generic]).all()


@pytest.mark.parametrize("field", [R, C])
def test_extracted_rows_equal_their_scalar_fn(field):
    rng = np.random.default_rng(7)
    r, tau = rng.uniform(0.1, 3.0, 50), rng.uniform(0.0, 0.5 * math.pi, 50)
    p, q = rng.uniform(-2.0, 2.0, 50), rng.uniform(-2.0, 2.0, 50)
    pc = p * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 50)) if field is C else p
    for name, _, rebuilt in _roundtrip_cases(field):
        if name == "step":  # not an extracted profile
            continue
        if name.startswith("phi-psi"):
            forms = [(rebuilt.profile.phi, (r,)), (rebuilt.profile.psi, (r,))]
        elif name == "theta":
            forms = [(rebuilt.theta, (r, tau))]
        else:
            forms = [(rebuilt.lam, (r, pc if name == "nonsym" else np.abs(p), q))]
        for fn, args in forms:
            want = [fn(*row) for row in zip(*(a.tolist() for a in args))]
            assert fn.rows(*args).tolist() == pytest.approx(want, rel=1e-12, abs=1e-300), name


# ---------------------------------------------------------------------------
# The profile determines the metric, on generated pairs

def _rebuild(spec):
    """The spec rebuilt from the profile extracted from it: (phi, psi) for the
    Riemann family, lambda for the lambda families and theta for the other
    degree-1 families."""
    args = (spec.dim, spec.field, spec.domain)
    if spec.family == "riemann":
        return mm.FromRiemann(*args, dc.extract_phi_psi(dc.sesqui_oracle_from_spec(spec)))
    if spec.family == "lambda":
        return mm.FromLambda(*args, dc.extract_lambda(spec))
    if spec.family == "nonsym-lambda":
        return mm.FromNonSymLambda(*args, dc.extract_lambda(spec, check_alpha=False))
    return mm.FromTheta(*args, dc.extract_theta(spec))


@functools.cache
def _expression_rebuilds(dim, field):
    """(spec, rebuilt) for every serializable spec of family_specs but the
    zero extension, whose value at g = 0 no profile of r > 0 holds."""
    out = []
    for spec in family_specs(dim, field):
        try:
            mm.spec_to_json(spec)
        except ValueError:  # a custom metric or a profile given as a callable
            continue
        if spec.family == "zero-extended":
            continue
        try:
            out.append((spec, _rebuild(spec)))
        except ValueError as exc:  # the lambda text that is not of degree 1 in (p, q)
            assert spec.family == "lambda" and "homogeneity" in str(exc)
    assert len(out) == 11 + (dim == 2)
    return out


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("dim", [2, 3])
@settings(max_examples=40, deadline=None, database=None)
@given(pair_cases(-12.0, -2.0))
def test_the_extracted_profile_determines_the_metric(dim, field, case):
    g, h = near_pair(dim, field, *case)
    for spec, rebuilt in _expression_rebuilds(dim, field):
        want = mm.eval_finsler(spec, la.Vector(g, field), la.Vector(h, field))
        got = mm.eval_finsler(rebuilt, la.Vector(g, field), la.Vector(h, field))
        rows, _ = mm.eval_batch(rebuilt, g[None, :], h[None, :])
        for value in (got, float(rows[0])):
            assert value == want or abs(value - want) <= 1e-9 * (1.0 + abs(want)), \
                (spec.family, case, want, value)


def _infinite_beyond_two(g, h):
    """The Euclidean rho for |g| <= 2, inf beyond."""
    return math.inf if la.norm(g) > 2.0 else la.norm(h)


def test_roundtrip_fails_where_one_side_only_is_infinite():
    spec = mm.Custom(3, R, POS, fn=_infinite_beyond_two)
    report = dc.roundtrip_check(spec, mm.euclidean(3), 200, seed=0)
    assert not report.passed and report.max_relative_deviation == math.inf
    assert la.norm(report.witness[0]) > 2.0
    # the same infinity on both sides deviates by 0
    same = dc.roundtrip_check(spec, mm.Custom(3, R, POS, fn=_infinite_beyond_two), 200, seed=0)
    assert same.passed and same.max_relative_deviation == 0.0


def test_conjugate_symmetry_fails_on_opposite_infinities():
    # sigma(g, f, h) = +inf and sigma(g, h, f) = -inf for |g| > 2: |inf - (-inf)| is
    # not above tol * (1 + inf), but the two sides are different infinities
    lopsided = dc.SesquiOracle(
        lambda g, f, h: (math.copysign(math.inf, la.norm(f) - la.norm(h)) if la.norm(g) > 2.0
                         else la.inner(f, h)), 3, R, POS)
    with pytest.raises(ValueError, match="conjugate-symmetric"):
        dc.extract_phi_psi(lopsided)
    both = dc.SesquiOracle(
        lambda g, f, h: math.inf if la.norm(g) > 2.0 else la.inner(f, h), 3, R, POS)
    dc._validate_conjugate_symmetry(both)  # inf against the same inf passes
