import copy
import inspect
import math
import re
import warnings

import numpy as np
import pytest

from finsler_iso import geometry as ge
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import (MismatchError, NonPositiveMetricError, OutOfDomainError,
                                 ZeroVectorError)
from finsler_iso.expressions import EvalError
from helpers import OVERFLOWING_THETA, POS, battery, family_specs

R, C = la.Field.REAL, la.Field.COMPLEX
HALF_PI = 0.5 * math.pi


def test_segment_length_euclidean():
    spec = mm.euclidean(3)
    seg = ge.segment_curve(la.vector([1, 0, 0]), la.vector([2, 0, 0]))
    assert ge.curve_length(spec, seg, 1001) == pytest.approx(1.0, abs=1e-9)


def test_quarter_circle_lengths():
    quarter = ge.circle_arc(3)
    assert ge.curve_length(mm.euclidean(3), quarter, 10001) == pytest.approx(HALF_PI, abs=1e-6)
    assert ge.curve_length(mm.fubini_study(3), quarter, 10001) == pytest.approx(HALF_PI, abs=1e-6)


def test_on_sphere_curve_has_zero_length_for_radial_profile():
    spec = mm.FromLambda(3, R, POS, mm.lambda_profile("p/r"))
    assert abs(ge.curve_length(spec, ge.circle_arc(3), 1001)) <= 1e-9


def test_simpson_node_validation():
    seg = ge.segment_curve(la.vector([1, 0]), la.vector([2, 0]))
    with pytest.raises(ValueError):
        ge.curve_length(mm.euclidean(2), seg, 2)
    with pytest.raises(ValueError):
        ge.curve_length(mm.euclidean(2), seg, 100)
    for bad in (11.0, "11", np.float64(11.0)):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            ge.curve_length(mm.euclidean(2), seg, bad)
    assert ge.curve_length(mm.euclidean(2), seg, np.int64(11)) == ge.curve_length(
        mm.euclidean(2), seg, 11)


def test_negative_metric_warns_but_integrates():
    with pytest.warns(RuntimeWarning):
        spec = mm.induced_finsler(mm.riemann_profile("-1", "0"), 2)
    seg = ge.segment_curve(la.vector([1.0, 0.0]), la.vector([2.0, 0.0]))
    with pytest.warns(RuntimeWarning):
        value = ge.curve_length(spec, seg, 101)
    assert value == pytest.approx(-1.0, abs=1e-9)


def test_a_radial_polyline_measures_the_log_of_its_radii():
    spec = mm.norm_quotient(2)
    poly = ge.Polyline(np.array([[1.0, 0.0], [2.0, 0.0]]))
    # one segment: the integral of |h| / |g| from 1 to 2 is log 2, to the
    # kernel's error on 4 chunks (a midpoint rule read 1 / 1.5)
    assert abs(ge.curve_length(spec, poly) - math.log(2.0)) <= 5e-7


def test_a_refused_polyline_segment_raises_as_in_the_descent():
    # a negative node value, with no warning; a pass through the origin, and
    # a node outside a bounded domain
    negative = mm.FromLambda(2, R, POS, mm.lambda_profile("0-sqrt(p^2+q^2)/r"))
    bounded = mm.FromTheta(2, R, mm.RadiusDomain(((0.5, 3.0),)), mm.theta_profile("1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveMetricError):
            ge.curve_length(negative, ge.Polyline(np.array([[1.0, 0.0], [1.0, 1.0]])))
        for spec, verts in ((mm.euclidean(2), [[1.0, 0.0], [-1.0, 0.0]]),
                            (mm.euclidean(2), [[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]),
                            (bounded, [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0]])):
            with pytest.raises(OutOfDomainError):
                ge.curve_length(spec, ge.Polyline(np.array(verts)))
        # the scales the descent refuses as ends: a |v| that overflows, a chord
        # that does, and one below _R_MIN, where the kernel's invariants underflow
        with pytest.raises(OutOfDomainError, match="vertex 1"):
            ge.curve_length(mm.euclidean(2), ge.Polyline(np.array([[1.0, 0.0], [1e160, 0.0]])))
        with pytest.raises(ValueError, match="overflows"):
            ge.curve_length(mm.euclidean(2), ge.Polyline(np.array([[1e154, 0.0], [-1e154, 0.0]])))
        with pytest.raises(ValueError, match="too small"):
            ge.curve_length(mm.euclidean(2), ge.Polyline(np.array([[1e-160, 0.0], [0.0, 1e-160]])))


def test_a_polyline_of_the_wrong_shape_or_dtype_is_a_mismatch():
    square = np.array([[1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    for spec, verts in ((mm.euclidean(3), square), (mm.euclidean(2), square.astype(complex)),
                        (mm.euclidean(2, C), square), (mm.euclidean(2), square.astype(int))):
        with pytest.raises(MismatchError):
            ge.curve_length(spec, ge.Polyline(verts))
    assert ge.curve_length(mm.euclidean(2), ge.Polyline(square)) == 2.0


def test_a_closed_polyline_around_the_origin_measures_its_angle():
    # Fubini-Study over R measures the angle swept: 2 pi around the loop, whose
    # chord is 0, so the longest segment sets the node floor
    loop = np.array([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, 0)], dtype=float)
    assert abs(ge.curve_length(mm.fubini_study(2), ge.Polyline(loop)) - 2.0 * math.pi) <= 1e-12


def test_a_descent_path_measures_the_descent_distance():
    # curve_length measures a polyline with the descent's own kernel and floor
    for field in (R, C):
        for dim in (2, 3, 4, 5):
            rng = np.random.default_rng([dim, field is C])
            for k, spec in enumerate(family_specs(dim, field)):
                g = la.random_gaussian_vector(dim, field, rng)
                h = la.random_gaussian_vector(dim, field, rng)
                res = ge.geodesic_distance(spec, g, h, n_iterations=10, seed=k)
                assert ge.curve_length(spec, res.path) == res.distance, (spec.family, dim, field)


def _scalar_simpson(spec, curve, n_nodes):
    """The per-node Simpson sum through point(t) and velocity(t)."""
    ts = np.linspace(curve.a, curve.b, n_nodes)
    values = np.array([mm.eval_finsler(spec, curve.point(t), curve.velocity(t)) for t in ts])
    weights = np.ones(n_nodes)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return float((curve.b - curve.a) / (n_nodes - 1) / 3.0 * np.dot(weights, values))


@pytest.mark.parametrize("field", [R, C])
def test_batched_lengths_equal_the_scalar_sums(field):
    g = la.vector([1.0, 0.5, -0.25], field)
    h = la.vector([0.2, 1.5, 0.75], field)
    quarter = ge.circle_arc(3, field)
    curves = [quarter, ge.segment_curve(g, h), ge.circle_arc(3, field, 2.0, 0.3, 2.0)]
    verts = la.random_gaussian_rows(9, 3, field, np.random.default_rng(3))
    poly = ge.Polyline(verts)
    for spec in family_specs(3, field):
        for curve in curves:
            ts = np.linspace(curve.a, curve.b, 21)
            for t, p, v in zip(ts, curve.points(ts), curve.velocities(ts)):
                assert np.array_equal(p, curve.point(t).entries)
                assert np.array_equal(v, curve.velocity(t).entries)
            assert ge.curve_length(spec, curve, 101) == pytest.approx(
                _scalar_simpson(spec, curve, 101), rel=1e-12), spec.family
        # the polyline: its segments measured one call each at its own floor
        lengths = np.linalg.norm(verts[1:] - verts[:-1], axis=1)
        ell0 = max(np.linalg.norm(verts[-1] - verts[0]) / 32.0, lengths.max() / ge._CHUNK_CAP)
        want = sum(ge._segment_length(spec, verts[k:k + 1], verts[k + 1:k + 2], ell0)[0][0]
                   for k in range(len(verts) - 1))
        assert ge.curve_length(spec, poly) == want, spec.family


def _counted_length(spec, curve, n_nodes=None):
    """curve_length and the number of Simpson nodes it evaluated, counted as
    the calls of a black box whose fn is the spec's eval_finsler: a per-node
    path calls fn once per node, and so would a batched one, once per row."""
    calls = []

    def counting(g, h):
        calls.append(None)
        return mm.eval_finsler(spec, g, h)
    counted = mm.Custom(spec.dim, spec.field, spec.domain, counting, spec.alpha)
    return ge.curve_length(counted, curve, n_nodes), len(calls)


def _simpson_reference(spec, curve, n_nodes=20001):
    """Simpson on a fine fixed grid, every node in one eval_batch call."""
    ts = np.linspace(curve.a, curve.b, n_nodes)
    values, inside = mm.eval_batch(spec, curve.points(ts), curve.velocities(ts))
    assert inside.all()
    weights = np.ones(n_nodes)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return float((curve.b - curve.a) / (n_nodes - 1) / 3.0 * np.dot(weights, values))


# Every family the sweep benchmark integrates along circle_arc, with its
# rho_{e1}(e2): along the arc r = 1, p = 0, q = 1 and tau = pi/2, so by
# isometry invariance the integrand is that constant.
SWEEP_ARCS = [
    ("theta", {"theta": "1+cos(tau)"}, None, 1.0),
    ("theta", {"theta": "(2+sin(tau)^2)/r"}, None, 3.0),
    ("lambda", {"lam": "sqrt(p^2+2*q^2)"}, None, math.sqrt(2.0)),
    ("lambda", {"lam": "sqrt(p^2+q^2)/(r^2)"}, None, 1.0),
    ("congruence-invariant", {"vartheta": "1+sin(tau)^2"}, None, 2.0),
    ("congruence-invariant", {"vartheta": "2+cos(tau)"}, None, 2.0),
    ("riemann", {"phi": "1+r", "psi": "1"}, None, math.sqrt(2.0)),
    ("riemann", {"phi": "1/r", "psi": "1/(r^2)"}, None, 1.0),
    ("nonsym-lambda", {"lam": "sqrt(p^2+q^2)+p"}, {"lam": "sqrt(pre^2+pim^2+q^2)+pre"}, 1.0),
    ("nonsym-lambda", {"lam": "(sqrt(p^2+q^2)+p/2)/(r^2)"},
     {"lam": "(sqrt(pre^2+pim^2+q^2)+pre/2)/(r^2)"}, 1.0),
]


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("family,params,complex_params,rho", SWEEP_ARCS)
def test_default_simpson_stops_at_65_nodes_on_the_sweep_arcs(family, params, complex_params,
                                                              rho, field):
    for dim in (3, 5):
        spec = mm.spec_from_json({"family": family, "dim": dim, "field": field.value,
                                  "params": complex_params if field is C and complex_params
                                  else params})
        length, calls = _counted_length(spec, ge.circle_arc(dim, field))
        assert calls == 65
        assert length == pytest.approx(HALF_PI * rho, abs=1e-9)


def _spiral(field):
    def rows(ts):
        P = np.zeros((len(ts), 3), dtype=field.dtype)
        P[:, 0] = np.exp(0.25 * ts) * np.cos(ts)
        P[:, 1] = np.exp(0.25 * ts) * np.sin(ts)
        P[:, 2] = 0.3 * ts
        return P
    return ge.ParametricCurve(rows, 0.0, 3.0)


@pytest.mark.parametrize("field", [R, C])
def test_default_simpson_converges_on_smooth_curves(field):
    # <g, g'> > 0 along both curves, so p never changes sign and every
    # profile of the battery is smooth along them
    curves = [ge.segment_curve(la.vector([1.0, 0.5, -0.25], field),
                               la.vector([2.2, 1.5, 0.75], field)), _spiral(field)]
    for name, spec in battery(3, field):
        for curve in curves:
            length, calls = _counted_length(spec, curve)
            want = _simpson_reference(spec, curve)
            assert length == pytest.approx(want, rel=1e-9), name
            assert calls < 1025, name


def test_default_simpson_stops_at_the_cap_on_a_kink():
    # tau is the acute angle, so 1 + cos(tau) has a kink where p = 0 along the
    # segment, and Simpson's error falls only as the step squared
    spec = mm.FromTheta(3, R, POS, mm.theta_profile("1+cos(tau)"))
    kink = ge.segment_curve(la.vector([1, 0.2, -0.3]), la.vector([-0.5, 1.4, 0.8]))
    with pytest.warns(RuntimeWarning, match="the 1025-node cap") as caught:
        length, calls = _counted_length(spec, kink)
    assert calls == 1025 and len(caught) == 1
    assert _counted_length(spec, kink, 1025) == (length, 1025)  # an explicit grid never warns
    want = _simpson_reference(spec, kink)
    assert abs(length - want) <= 1e-6
    assert abs(ge.curve_length(spec, kink, 1001) - want) <= 1e-6


@pytest.mark.parametrize("field", [R, C])
def test_default_simpson_warns_once_when_it_stops_unconverged(field):
    # a fast-growing theta along the spiral and a max/min lambda along a
    # segment: neither has two levels agree below the cap
    seg = ge.segment_curve(la.vector([1, 0.5, -0.25], field), la.vector([0.2, 1.5, 0.75], field))
    for spec, curve in [
            (mm.FromTheta(3, field, POS, mm.theta_profile(OVERFLOWING_THETA)), _spiral(field)),
            (mm.FromLambda(3, field, POS, mm.lambda_profile("max(p,q)+min(p,q)^2/(p+q+r)")), seg)]:
        with pytest.warns(RuntimeWarning) as caught:
            length, calls = _counted_length(spec, curve)
        assert calls == 1025 and [str(w.message) for w in caught] == [
            "Simpson quadrature stopped at the 1025-node cap before two levels agreed; "
            "the length may be inaccurate"]
        assert _counted_length(spec, curve, 1025) == (length, 1025)  # an explicit grid never warns


@pytest.mark.parametrize("field", [R, C])
def test_explicit_nodes_are_one_fixed_simpson_sum(field):
    curve = ge.circle_arc(3, field, 2.0, 0.3, 2.0)
    for spec in (mm.fubini_study(3, field), mm.FromTheta(3, field, POS, mm.theta_profile(
            "(2+sin(tau)^3)*exp(0-r)"))):
        for n_nodes in (3, 11, 101, 1001):
            ts = np.linspace(curve.a, curve.b, n_nodes)
            values = np.array([mm.eval_finsler(spec, la.Vector(p, field), la.Vector(d, field))
                               for p, d in zip(curve.points(ts), curve.velocities(ts))])
            weights = np.ones(n_nodes)
            weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
            want = float((curve.b - curve.a) / (n_nodes - 1) / 3.0 * np.dot(weights, values))
            assert _counted_length(spec, curve, n_nodes) == (want, n_nodes)


def test_negative_metric_warns_once_on_the_default_rule():
    with pytest.warns(RuntimeWarning):
        spec = mm.induced_finsler(mm.riemann_profile("-1", "0"), 2)
    seg = ge.segment_curve(la.vector([1.0, 0.0]), la.vector([2.0, 0.0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = ge.curve_length(spec, seg)
    assert [str(w.message) for w in caught] == [
        "metric takes negative values along the curve; the integral is signed"]
    assert value == pytest.approx(-1.0, abs=1e-9)


def test_length_reversal_invariance():
    quarter = ge.circle_arc(3)
    reverse = ge.ParametricCurve(lambda ts: quarter.points(HALF_PI - ts), 0.0, HALF_PI)
    for spec in (mm.euclidean(3), mm.fubini_study(3)):
        a = ge.curve_length(spec, quarter, 2001)
        b = ge.curve_length(spec, reverse, 2001)
        assert a == pytest.approx(b, abs=1e-9)


def test_length_isometry_invariance():
    rng = np.random.default_rng(0)
    quarter = ge.circle_arc(3)
    for seed in range(5):
        u = la.random_unitary(3, R, seed)
        moved = ge.ParametricCurve(lambda ts: quarter.points(ts) @ u.entries.T, 0.0, HALF_PI)
        for spec in (mm.euclidean(3), mm.fubini_study(3)):
            assert ge.curve_length(spec, moved, 2001) == pytest.approx(
                ge.curve_length(spec, quarter, 2001), abs=1e-9)


# ---------------------------------------------------------------------------
# Pseudodistances

def test_delta_values():
    e1, e2 = la.basis_vector(3, 0), la.basis_vector(3, 1)
    assert ge.delta1(e1, e2) == pytest.approx(1.0)
    assert ge.delta2(e1, e2) == pytest.approx(math.sqrt(2.0))
    assert ge.delta1(e1, e1) == 0.0
    assert ge.delta2(e1, e1) <= 1e-7
    g = la.vector([1, 0], C)
    h = la.vector([1j, 0], C)
    assert ge.delta1(g, h) <= 1e-7 and ge.delta2(g, h) <= 1e-7


def test_delta_scalar_invariance():
    rng = np.random.default_rng(1)
    for _ in range(200):
        g = la.random_gaussian_vector(3, C, rng)
        h = la.random_gaussian_vector(3, C, rng)
        c = complex(*rng.standard_normal(2))
        d = complex(*rng.standard_normal(2))
        cg, dh = la.vector(c * g.entries), la.vector(d * h.entries)
        assert ge.delta1(cg, dh) == pytest.approx(ge.delta1(g, h), abs=1e-10)
        assert ge.delta2(cg, dh) == pytest.approx(ge.delta2(g, h), abs=1e-10)


def test_delta_zero_vector_errors():
    for g, h in (([0, 0], [1, 0]), ([1, 0], [0, 0])):
        for fn in (ge.delta1, ge.delta2):
            with pytest.raises(ZeroVectorError):
                fn(la.vector(g), la.vector(h))


@pytest.mark.parametrize("field", [R, C])
def test_delta_of_a_vector_whose_norm_under_or_overflows_is_out_of_domain(field):
    # once the norm path gave 0.0 or 1.0 and 1.414 here without an error, and
    # an underflowing h was called a zero vector
    cases = (([1e200, 1e200], [1e200, 0.0], "|h| overflows"),
             ([1.0, 0.0], [1e200, 1e200], "|h| overflows"),
             ([1.0, 0.0], [1e-170, 1e-170], "|h| underflows"),
             ([1e-170, 0.0], [1.0, 1.0], "|g| underflows"),
             ([1e200, 0.0], [1.0, 1.0], "|g| overflows"))
    for g, h, message in cases:
        for fn in (ge.delta1, ge.delta2):
            with pytest.raises(OutOfDomainError, match=re.escape(message)):
                fn(la.vector(g, field), la.vector(h, field))


def test_delta_keeps_the_bits_of_the_norm_and_inner_forms():
    # at unit scale the values equal the forms the pseudodistances had before
    # they read canonical_invariants: q / (|g| |h|) and the chord of
    # |<h, g>| / (|g| |h|)
    rng = np.random.default_rng(8)
    for field in (R, C):
        for _ in range(200):
            g, h = (la.random_gaussian_vector(4, field, rng) for _ in range(2))
            nh = la.norm(h)
            q = la.canonical_invariants(g, h)[2]
            c = min(1.0, abs(la.inner(h, g)) / (la.norm(g) * nh))
            assert ge.delta1(g, h) == min(1.0, q / (la.norm(g) * nh))
            assert ge.delta2(g, h) == math.sqrt(max(0.0, 2.0 - 2.0 * c))


def test_delta_identity_and_inequality():
    # delta2^2 = 2 - 2 sqrt(1 - delta1^2) and delta2 <= sqrt(2) delta1
    rng = np.random.default_rng(2)
    for _ in range(10000):
        g = la.random_gaussian_vector(3, C, rng)
        h = la.random_gaussian_vector(3, C, rng)
        d1, d2 = ge.delta1(g, h), ge.delta2(g, h)
        assert d2 ** 2 == pytest.approx(2.0 - 2.0 * math.sqrt(1.0 - d1 ** 2), abs=1e-12)
        assert d2 <= math.sqrt(2.0) * d1 + 1e-12


def test_delta2_complex_phase_minimization():
    # delta2 equals the infimum of |e^{it} g/|g| - e^{is} h/|h|| over phases
    rng = np.random.default_rng(3)
    for _ in range(50):
        g = la.random_gaussian_vector(2, C, rng)
        h = la.random_gaussian_vector(2, C, rng)
        gu, hu = g.entries / la.norm(g), h.entries / la.norm(h)
        best = min(np.linalg.norm(gu - np.exp(1j * s) * hu)
                   for s in np.linspace(0.0, 2.0 * math.pi, 4001))
        assert ge.delta2(g, h) == pytest.approx(best, abs=1e-6)


def test_polygonal_delta_lengths_quarter_circle():
    quarter = ge.circle_arc(3)
    assert ge.polygonal_delta_length("delta1", quarter, 10000) == pytest.approx(HALF_PI, abs=1e-3)
    assert ge.polygonal_delta_length("delta2", quarter, 10000) == pytest.approx(HALF_PI, abs=1e-3)


def test_polygonal_delta_constant_curve():
    const = ge.ParametricCurve(lambda ts: np.ones((len(ts), 2)), 0.0, 1.0)
    assert ge.polygonal_delta_length("delta1", const, 100) <= 1e-12
    with pytest.raises(ValueError):
        ge.polygonal_delta_length("delta3", const, 10)


@pytest.mark.parametrize("n_segments", [0, -3])
def test_polygonal_delta_refuses_fewer_than_one_segment(n_segments):
    with pytest.raises(ValueError, match="n_segments"):
        ge.polygonal_delta_length("delta1", ge.circle_arc(2), n_segments)


@pytest.mark.parametrize("t0,t1", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0)])
def test_a_curve_refuses_an_end_that_is_not_finite(t0, t1):
    # refused when the curve is built, before a length samples NaN points
    with pytest.raises(ValueError, match="finite a < b"):
        ge.curve_length(mm.euclidean(2), ge.circle_arc(2, t0=t0, t1=t1), 11)
    with pytest.raises(ValueError, match="finite a < b"):
        ge.polygonal_delta_length("delta1", ge.circle_arc(2, t0=t0, t1=t1), 4)


# ---------------------------------------------------------------------------
# Intrinsification

def test_intrinsification_unit_circle():
    table = ge.intrinsification_ratio(ge.circle_arc(2), 0.0, [1e-1, 1e-2, 1e-3, 1e-4])
    assert table.sigma_value == pytest.approx(1.0, abs=1e-9)
    assert not table.degenerate
    r1 = [row[1] for row in table.rows]
    r2 = [row[2] for row in table.rows]
    assert all(a <= b + 1e-15 for a, b in zip(r1, r1[1:]))  # monotone convergence
    assert all(a <= b + 1e-15 for a, b in zip(r2, r2[1:]))
    assert abs(r1[-1] - table.sigma_value) <= 1e-3
    assert abs(r2[-1] - table.sigma_value) <= 1e-3


@pytest.mark.parametrize("t,steps", [
    (5.0, [1e-2]), (-0.1, [1e-2]), (0.0, [1e-2, 0.0]), (0.0, [-1e-2]), (0.0, [math.nan]),
    (0.7, [2.0])], ids=["t-past-b", "t-before-a", "zero-step", "negative-step", "nan-step",
                        "step-past-both-ends"])
def test_intrinsification_refuses_points_off_the_curve(t, steps):
    with pytest.raises(ValueError):
        ge.intrinsification_ratio(ge.circle_arc(2), t, steps)


def test_intrinsification_radial_curve_vanishes():
    radial = ge.ParametricCurve(lambda ts: np.stack([1.0 + ts, 0.0 * ts], axis=1), -0.5, 0.5)
    table = ge.intrinsification_ratio(radial, 0.0, [1e-2, 1e-3, 1e-4])
    assert table.sigma_value <= 1e-9
    assert abs(table.rows[-1][1]) <= 1e-3 and abs(table.rows[-1][2]) <= 1e-3


def test_intrinsification_sphere_curve_matches_sesquilinear():
    def points(ts):
        return np.stack([np.cos(ts), np.sin(ts) * np.cos(0.5 * ts),
                         np.sin(ts) * np.sin(0.5 * ts)], axis=1)
    curve = ge.ParametricCurve(points, 0.0, 1.5)
    t0 = 0.7
    table = ge.intrinsification_ratio(curve, t0, [1e-2, 1e-3, 1e-4])
    sigma = mm.eval_sesquilinear(mm.fubini_study(3), curve.point(t0),
                                 curve.velocity(t0), curve.velocity(t0))
    assert table.sigma_value == pytest.approx(math.sqrt(sigma), abs=1e-6)
    r, _, q = la.canonical_invariants(curve.point(t0), curve.velocity(t0))
    assert table.sigma_value == q / (r * r)  # the canonical Fubini-Study value, bit for bit
    assert abs(table.rows[-1][1] - table.sigma_value) <= 1e-3
    assert abs(table.rows[-1][2] - table.sigma_value) <= 1e-3


# ---------------------------------------------------------------------------
# Geodesic distance

def test_geodesic_euclidean_is_chord():
    g, h = la.vector([1.0, 0.0, 0.0]), la.vector([2.0, 1.0, 0.0])
    res = ge.geodesic_distance(mm.euclidean(3), g, h, seed=0)
    assert res.distance == pytest.approx(math.sqrt(2.0), abs=1e-3)
    assert res.initial_length == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert res.stop_reason == "step-floor" and res.iterations == 17


def test_geodesic_stop_reasons():
    # Fubini-Study e1 -> e2 starts on its exact geodesic, so no sweep moves a
    # vertex; the chord through the origin starts on a lifted chord and moves
    fs = ge.geodesic_distance(mm.fubini_study(3), la.basis_vector(3, 0),
                              la.basis_vector(3, 1), seed=0)
    assert fs.stop_reason == "step-floor" and fs.iterations == 17
    lifted = ge.geodesic_distance(mm.euclidean(3), la.vector([1.0, 0.0, 0.0]),
                                  la.vector([-1.0, 0.0, 0.0]), seed=0)
    assert lifted.stop_reason == "iteration-cap" and lifted.iterations == 150
    g = la.vector([1.0, 2.0])
    same = ge.geodesic_distance(mm.euclidean(2), g, g, seed=0)
    assert same.stop_reason == "zero-chord" and same.iterations == 0 and same.distance == 0.0


def test_geodesic_fubini_study_quarter():
    res = ge.geodesic_distance(mm.fubini_study(3), la.basis_vector(3, 0),
                               la.basis_vector(3, 1), seed=0, n_iterations=120)
    assert res.distance == pytest.approx(HALF_PI, abs=1e-2)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_a_move_must_beat_the_quadrature_error_on_an_exact_start(dim):
    # Fubini-Study e1 -> e2 starts on its exact geodesic, whose length does not
    # depend on the radius: a move could only lower the quadrature's error.
    # With a margin of 1e-15, dim 2 ran 87 sweeps and ended 7.7e-7 below pi/2
    res = ge.geodesic_distance(mm.fubini_study(dim), la.basis_vector(dim, 0),
                               la.basis_vector(dim, 1))
    assert (res.stop_reason, res.iterations) == ("step-floor", 17)
    assert res.distance == res.initial_length == pytest.approx(HALF_PI, rel=1e-7)


def test_geodesic_radial_log_distance():
    res = ge.geodesic_distance(mm.norm_quotient(3), la.vector([1.0, 0.0, 0.0]),
                               la.vector([2.0, 0.0, 0.0]), seed=0, n_iterations=120)
    assert res.distance == pytest.approx(math.log(2.0), abs=1e-3)


def test_geodesic_monotone_improvement():
    res = ge.geodesic_distance(mm.fubini_study(3), la.vector([1.0, 0.2, 0.0]),
                               la.vector([0.1, 1.3, 0.4]), seed=3, n_iterations=60)
    assert all(a >= b - 1e-12 for a, b in zip(res.history, res.history[1:]))
    assert res.distance <= res.initial_length + 1e-12


# Specs homogeneous under (g, h) -> (s g, s h), with their degree: rho_{sg}(sh) = s^deg rho_g(h).
HOMOGENEOUS_SPECS = [
    (mm.euclidean(3), 1), (mm.fubini_study(3), 0), (mm.fubini_study(3, C), 0),
    (mm.norm_quotient(3), 0), (mm.FromTheta(3, R, POS, mm.theta_profile("1+cos(tau)")), 1),
    (mm.CongruenceInvariant(3, R, POS, mm.vartheta_profile("1+0.5*sin(tau)^2")), 0)]


@pytest.mark.parametrize("spec, degree", HOMOGENEOUS_SPECS, ids=[
    "euclidean", "fubini-study-real", "fubini-study-complex", "norm-quotient", "theta",
    "vartheta"])
def test_geodesic_distance_scales_exactly_under_powers_of_two(spec, degree):
    # scaling by 2^k is exact in floating point, so a descent whose thresholds
    # are all relative takes the same steps at every scale, bit for bit
    rng = np.random.default_rng(11)
    g, h = (la.random_gaussian_vector(3, spec.field, rng) for _ in range(2))
    want = ge.geodesic_distance(spec, g, h, n_iterations=60, seed=0).distance
    for k in (-400, -100, -40, 100, 400):
        g_k, h_k = (la.Vector(math.ldexp(1.0, k) * v.entries, spec.field) for v in (g, h))
        got = ge.geodesic_distance(spec, g_k, h_k, n_iterations=60, seed=0).distance
        assert got == math.ldexp(want, k * degree), k


@pytest.mark.parametrize("kwargs", [{"n_iterations": -1}, {"n_vertices": 2}])
def test_geodesic_refuses_runs_that_cannot_do_anything(kwargs):
    with pytest.raises(ValueError):
        ge.geodesic_distance(mm.euclidean(2), la.vector([1.0, 0.0]), la.vector([0.0, 1.0]),
                             **kwargs)


@pytest.mark.parametrize("spec,g,h", [
    (mm.euclidean(2), la.vector([1.0, 0.0]), la.vector([1.0, 0.0], C)),  # equal values
    (mm.euclidean(2), la.vector([1.0, 0.0]), la.vector([1.0, 0.0, 0.0])),
    (mm.euclidean(3), la.vector([1.0, 0.0]), la.vector([0.0, 1.0]))],
    ids=["field", "g-h-dimension", "spec-dimension"])
def test_geodesic_refuses_vectors_that_do_not_match_the_spec(spec, g, h):
    with pytest.raises(MismatchError, match="^vector (dimension|field) .* != spec"):
        ge.geodesic_distance(spec, g, h)


def test_geodesic_refuses_negative_metric():
    with pytest.warns(RuntimeWarning):
        spec = mm.induced_finsler(mm.riemann_profile("-1", "0"), 2)
    with pytest.raises(NonPositiveMetricError):
        ge.geodesic_distance(spec, la.vector([1.0, 0.0]), la.vector([2.0, 0.0]), seed=0)


def test_geodesic_refuses_a_metric_negative_only_off_the_chord():
    # negative only where g_1 > 0.5: the chord (g_1 <= 0.1) resolves, but the
    # log-polar arc passes near (0, 1), and a negative segment on any start
    # measured refuses the metric
    spec = mm.Custom(2, R, POS, fn=lambda g, h: la.norm(h) * (0.5 - g.entries[1]))
    g, h = la.vector([1.0, 0.0]), la.vector([-1.0, 0.1])
    chord = ge._segment_rows(g.entries, h.entries, np.linspace(0.0, 1.0, 13))
    _, status = ge._segment_length(spec, chord[:-1], chord[1:], float(np.linalg.norm(h.entries - g.entries)) / 48)
    assert not status.any()
    with pytest.raises(NonPositiveMetricError):
        ge.geodesic_distance(spec, g, h)


@pytest.mark.parametrize("field", [R, C])
def test_geodesic_from_or_to_zero_finds_no_start(field):
    # every start from or to 0 has a segment of gap 0, which is refused; the
    # arcs, which divide by the ends' norms, are not built, so no warning
    spec = mm.zero_extended(1.0, mm.fubini_study(2, field))
    zero, e1 = la.vector([0.0, 0.0], field), la.vector([1.0, 0.0], field)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for g, h in ((zero, e1), (e1, zero)):
            with pytest.raises(ValueError, match="^no valid initialization"):
                ge.geodesic_distance(spec, g, h)


def test_geodesic_initialization_avoids_forbidden_origin():
    # the straight chord passes through 0; the optimizer must lift around it
    g, h = la.vector([1.0, 0.0, 0.0]), la.vector([-1.0, 0.0, 0.0])
    res = ge.geodesic_distance(mm.euclidean(3), g, h, seed=1, n_iterations=60)
    assert res.distance >= 2.0 - 1e-9
    assert res.distance <= 2.2  # close to the infimum despite the detour


def test_geodesic_from_an_endpoint_outside_the_domain_names_it():
    spec = mm.FromTheta(3, R, mm.RadiusDomain(((0.5, 3.0),)), mm.theta_profile("1+cos(tau)"))
    with pytest.raises(OutOfDomainError, match=r"^endpoint h is outside .* \(\|h\| = 4\.0\)$"):
        ge.geodesic_distance(spec, la.vector([1.0, 0.0, 0.0]), la.vector([0.0, 4.0, 0.0]))
    # endpoints on the domain's open boundary: every chunk midpoint is inside
    res = ge.geodesic_distance(spec, la.vector([0.5, 0.0, 0.0]), la.vector([0.0, 3.0, 0.0]),
                               n_iterations=3)
    assert res.distance > 0.0


@pytest.mark.parametrize("field", [R, C])
def test_geodesic_names_an_endpoint_whose_norm_under_or_overflows(field):
    spec = mm.fubini_study(2, field)
    for big, want in ((1e300, "inf"), (1e-300, "0.0")):
        g, h = la.vector([big, 0.0], field), la.vector([0.0, big], field)
        message = rf"^endpoint g is outside the metric's domain \(\|g\| = {want}\)$"
        with pytest.raises(OutOfDomainError, match=message):
            ge.geodesic_distance(spec, g, h)
    # g = h is a zero chord only inside the domain
    zero = la.vector([0.0, 0.0], field)
    with pytest.raises(OutOfDomainError, match=r"^endpoint g is outside"):
        ge.geodesic_distance(spec, zero, zero)


@pytest.mark.parametrize("field", [R, C])
def test_geodesic_refuses_a_chord_that_under_or_overflows(field):
    spec = mm.fubini_study(2, field)
    # both endpoints inside the domain, g != h, |h - g| overflows or underflows;
    # or max(|g|, |h|) is below linalg._R_MIN, where the chunk invariants
    # underflow (euclidean gave 0 and 1.2975e-160 for chords of 5e-162 and 1.41e-160)
    chord = r"^the chord \|h - g\| {} although g != h$"
    scale = r"^the scale max\(\|g\|, \|h\|\) = {} is below 1\.492e-154, too small to measure$"
    cases = (([1e154, 0.0], [-1e154, 1.0], chord.format("overflows to inf")),
             ([1.0, 0.0], [1.0, 1e-170], chord.format("underflows to 0")),
             ([1e-100, 0.0], [1e-100, 1e-170], chord.format("underflows to 0")),
             ([2.5e-162, 1e-163], [-2.5e-162, 1e-163],
              scale.format(r"2\.50199920063936\d*e-162")),  # the complex norm's last digit differs
             ([1e-160, 0.0], [0.0, 1e-160], scale.format("1e-160")))
    for g, h, message in cases:
        with pytest.raises(ValueError, match=message):
            ge.geodesic_distance(spec, la.vector(g, field), la.vector(h, field))
    # just inside the range the descent runs
    res = ge.geodesic_distance(spec, la.vector([1e153, 0.0], field),
                               la.vector([-1e153, 1.0], field), n_iterations=5)
    assert math.isfinite(res.distance) and res.stop_reason == "iteration-cap"


def test_the_phase_aligned_start_splits_its_legs_without_overflow():
    # the phase-aligned arc's first leg, about 1.68e154, squares past the float
    # range, though both ends are in the domain and the chord, 1.00004e154, is
    # finite: its split between the legs must come with no warning
    g, h = la.vector([1e154, 0.0], C), la.vector([-4.16e149 + 9.09e149j, 1e150], C)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fubini_study = ge.geodesic_distance(mm.fubini_study(2, C), g, h)
        euclidean = ge.geodesic_distance(mm.euclidean(2, C), g, h)
    want = _closed_form("fubini-study", g.entries, h.entries)
    assert fubini_study.distance == pytest.approx(want, abs=1e-5)
    chord = _closed_form("euclidean", g.entries, h.entries)
    assert chord <= euclidean.distance <= chord * (1.0 + 1e-4)


def test_geodesic_triangle_sanity_fubini_study():
    rng = np.random.default_rng(4)
    spec = mm.fubini_study(3)

    def dist(a, b):
        return ge.geodesic_distance(spec, a, b, n_vertices=9, n_iterations=60,
                                    seed=5).distance

    for _ in range(3):
        pts = [la.random_vector_with_norm(3, R, 1.0, rng) for _ in range(3)]
        d_gh = dist(pts[0], pts[2])
        d_gk = dist(pts[0], pts[1])
        d_kh = dist(pts[1], pts[2])
        assert d_gh <= d_gk + d_kh + 2e-2


def test_path_rows_and_export_shape():
    res = ge.geodesic_distance(mm.euclidean(2), la.vector([1.0, 0.0]),
                               la.vector([2.0, 1.0]), n_vertices=5, seed=0,
                               n_iterations=20)
    rows = ge.path_rows(res.path)
    assert len(rows) == 5 and len(rows[0]) == 3
    assert rows[0][1:] == pytest.approx([1.0, 0.0])
    assert rows[-1][1:] == pytest.approx([2.0, 1.0])


def test_a_polyline_sits_on_uniform_parameters():
    # vertex i of n is at t = i/(n-1), and path_rows writes those parameters
    poly = ge.Polyline(np.array([[float(i), float(i * i)] for i in range(7)]))
    assert "params" not in inspect.signature(ge.Polyline).parameters
    assert [row[0] for row in ge.path_rows(poly)] == [i / 6 for i in range(7)]


@pytest.mark.parametrize("vertices", [
    np.zeros((1, 2)), np.zeros(3), np.zeros((2, 2, 2)),
    (la.vector([1.0, 0.0]), la.vector([2.0, 0.0])), [[1.0, 0.0], [2.0, 0.0]]],
    ids=["one-row", "1-d", "3-d", "tuple-of-vectors", "list"])
def test_a_polyline_is_an_array_of_at_least_two_rows(vertices):
    with pytest.raises(ValueError, match="polyline"):
        ge.Polyline(vertices)


def test_geodesic_nonsym_metric_is_directional():
    fn = mm.nonsym_lambda_profile("(sqrt(p^2+q^2)+0.5*p)/r", R)
    spec = mm.FromNonSymLambda(2, R, POS, fn)
    g, h = la.vector([1.0, 0.0]), la.vector([2.0, 0.0])
    fwd = ge.geodesic_distance(spec, g, h, n_iterations=40, seed=6).distance
    bwd = ge.geodesic_distance(spec, h, g, n_iterations=40, seed=6).distance
    # radially outward p > 0, inward p < 0: forward costs 1.5x, backward 0.5x
    assert fwd == pytest.approx(1.5, abs=2e-2)
    assert bwd == pytest.approx(0.5, abs=2e-2)


# ---------------------------------------------------------------------------
# The batched descent against the scalar kernel and closed forms

GAUSS_NODES = (0.5 - 0.5 / math.sqrt(3.0), 0.5 + 0.5 / math.sqrt(3.0))


def _scalar_path_length(spec, path):
    """The descent's quadrature redone one node at a time through eval_finsler:
    per segment m = max(2, ceil(max(length/ell0, 16 length/gap) / 2)) chunks,
    each with its two Gauss-Legendre nodes of weight 1/2."""
    verts = path.vertices
    ell0 = np.linalg.norm(verts[-1] - verts[0]) / (4.0 * (len(verts) - 1))
    total = 0.0
    for u, v in zip(verts, verts[1:]):
        d = v - u
        length = np.linalg.norm(d)
        t_star = min(1.0, max(0.0, -np.vdot(d, u).real / length ** 2))
        gap = np.linalg.norm(u + t_star * d)
        m = max(2, math.ceil(0.5 * max(length / ell0, 16.0 * length / gap)))
        step = la.Vector(d / m, spec.field)
        total += 0.5 * sum(mm.eval_finsler(spec, la.Vector(u + (j + x) / m * d, spec.field), step)
                           for j in range(m) for x in GAUSS_NODES)
    return total


@pytest.mark.parametrize("field", [R, C])
def test_descent_distance_is_the_scalar_quadrature_of_its_path(field):
    rng = np.random.default_rng(11)
    specs = [mm.euclidean(3, field), mm.fubini_study(3, field), mm.norm_quotient(3, field),
             mm.FromTheta(3, field, POS, mm.theta_profile("1+cos(tau)"))]
    for k, spec in enumerate(specs):
        g = la.random_gaussian_vector(3, field, rng)
        h = la.random_gaussian_vector(3, field, rng)
        res = ge.geodesic_distance(spec, g, h, n_vertices=7, n_iterations=20, seed=k)
        assert res.distance == pytest.approx(_scalar_path_length(spec, res.path), rel=1e-12)


def _real_angle(g, h):
    c = np.vdot(g, h).real / (np.linalg.norm(g) * np.linalg.norm(h))
    return math.acos(min(1.0, max(-1.0, c)))


def _closed_form(name, g, h):
    """Chord; Fubini-Study: the real angle over R, the angle between the complex
    lines over C; norm quotient: sqrt(log(|h|/|g|)^2 + real angle^2)."""
    if name == "euclidean":
        return float(np.linalg.norm(h - g))
    if name == "fubini-study":
        if np.iscomplexobj(g):
            c = abs(np.vdot(g, h)) / (np.linalg.norm(g) * np.linalg.norm(h))
            return math.acos(min(1.0, c))
        return _real_angle(g, h)
    return math.hypot(math.log(np.linalg.norm(h) / np.linalg.norm(g)), _real_angle(g, h))


BELOW_CLOSED_FORM = 1e-5  # how far below the distance quadrature may let a descent go


@pytest.mark.parametrize("field", [R, C])
def test_descent_is_an_upper_bound_on_closed_form_distances(field):
    # Norm-quotient solves may still stop short of criterion 7's tolerance (a
    # 13-vertex polyline's error); only the upper bound is asserted for them.
    rng = np.random.default_rng(12)
    builders = {"euclidean": mm.euclidean, "fubini-study": mm.fubini_study,
                "norm-quotient": mm.norm_quotient}
    tolerance = {"euclidean": 1e-3, "fubini-study": 1e-2}  # criterion 7
    for dim in range(2, 6):
        for name, build in builders.items():
            g = la.random_gaussian_vector(dim, field, rng)
            h = la.random_gaussian_vector(dim, field, rng)
            want = _closed_form(name, g.entries, h.entries)
            res = ge.geodesic_distance(build(dim, field), g, h, seed=dim)
            assert res.distance >= want * (1.0 - BELOW_CLOSED_FORM), (name, dim)
            if name in tolerance:
                assert res.distance == pytest.approx(want, abs=tolerance[name]), (name, dim)


def test_one_segment_of_a_fubini_study_arc_measures_its_angle():
    # [1, 0] -> [-1, 1] sweeps 3 pi/4 of the circle past the origin; the
    # midpoint rule was 3.6e-5 off
    U, V = np.array([[1.0, 0.0]]), np.array([[-1.0, 1.0]])
    lengths, status = ge._segment_length(mm.fubini_study(2), U, V, math.sqrt(5.0) / 48)
    assert status.tolist() == [ge._RESOLVED]
    assert lengths[0] == pytest.approx(0.75 * math.pi, abs=1e-7)


@pytest.mark.parametrize("field", [R, C])
def test_the_start_measures_the_closed_form_distance(field):
    # the chord for euclidean; the log-polar arc over R and the phase-aligned
    # arc over C for Fubini-Study, whose straight segments lie on its geodesic
    rng = np.random.default_rng(14)
    for dim in range(2, 6):
        for _ in range(5):
            g, h = (la.random_vector_with_norm(dim, field, float(rng.uniform(0.5, 2.0)), rng)
                    for _ in range(2))
            for name, build in (("euclidean", mm.euclidean), ("fubini-study", mm.fubini_study)):
                res = ge.geodesic_distance(build(dim, field), g, h, n_iterations=0)
                want = _closed_form(name, g.entries, h.entries)
                assert res.initial_length == pytest.approx(want, rel=1e-6), (name, dim)


@pytest.mark.parametrize("field", [R, C])
def test_descent_over_specs_that_read_vectors(field):
    # a Custom spec reads vectors, so the segment kernel also gives it chunk
    # rows: a custom |h| is the euclidean metric.  No chunk sits at 0, where
    # alone a zero extension differs from the metric it wraps, so its descent
    # is its inner spec's, distance and history, bit for bit
    rng = np.random.default_rng(13)
    g, h = (la.random_vector_with_norm(3, field, rng.uniform(0.6, 2.0), rng) for _ in range(2))
    custom = mm.Custom(3, field, POS, fn=lambda g, h: la.norm(h))
    res = ge.geodesic_distance(custom, g, h, n_vertices=5, n_iterations=30)
    assert res.distance == pytest.approx(_closed_form("euclidean", g.entries, h.entries),
                                         rel=BELOW_CLOSED_FORM)
    for name, build in (("norm-quotient", mm.norm_quotient), ("fubini-study", mm.fubini_study)):
        extended = ge.geodesic_distance(mm.zero_extended(2.0, build(3, field)), g, h,
                                        n_vertices=5, n_iterations=30)
        inner = ge.geodesic_distance(build(3, field), g, h, n_vertices=5, n_iterations=30)
        assert extended.distance >= _closed_form(name, g.entries, h.entries) * (
            1.0 - BELOW_CLOSED_FORM)
        assert (extended.distance, extended.history) == (inner.distance, inner.history), name


# ---------------------------------------------------------------------------
# The segment kernel: chunk rows, refinement rules and statuses

SEGMENTS = [  # (U, V) in R^3 and the status each gets; the first two take no chunk
    ((1.5, 0, 0), (1.5, 0, 0), ge._RESOLVED),      # zero length
    ((1, 0, 0), (-1, 1e-9, 0), ge._LEFT_DOMAIN),   # refused: passes 5e-10 from 0
    ((2, 0, 0), (4, 0, 0), ge._LEFT_DOMAIN),       # leaves the domain at r = 3
    ((0.8, 0, 0), (0, 0.9, 0), ge._NEGATIVE),      # stays inside the unit sphere
    ((0.7, 0, 0), (3.5, 0, 0), ge._NEGATIVE),      # negative before it leaves
    ((3.5, 0, 0), (0.7, 0, 0), ge._LEFT_DOMAIN),   # leaves before it is negative
    ((1.5, 0, 0), (0, 2, 0), ge._RESOLVED),
]


def _counted_rows(monkeypatch, spec):
    """The row count of each call that the spec's family kernel, the _values of
    its class, gets from here on: one call per geometry._segment_length, over
    every chunk of the batch whose midpoint lies in the domain."""
    rows = []
    values = type(spec)._values

    def counting(self, r, ip, q, G, H):
        rows.append(len(r))
        return values(self, r, ip, q, G, H)

    monkeypatch.setattr(type(spec), "_values", counting)
    return rows


def _kernel_segments(field):
    phase = 1.0 if field is R else np.exp(0.3j)  # a complex multiple of each real segment
    U = np.array([u for u, _, _ in SEGMENTS], dtype=field.dtype) * phase
    V = np.array([v for _, v, _ in SEGMENTS], dtype=field.dtype) * phase
    return U, V


@pytest.mark.parametrize("field", [R, C])
def test_each_segment_measures_alone_as_inside_any_batch(field, monkeypatch):
    # theta = r - 1 on 0.5 < r < 3: negative inside the unit sphere
    spec = mm.FromTheta(3, field, mm.RadiusDomain(((0.5, 3.0),)), mm.theta_profile("r-1"))
    U, V = _kernel_segments(field)
    rows = _counted_rows(monkeypatch, spec)
    alone = [ge._segment_length(spec, U[k:k + 1], V[k:k + 1], 0.05) for k in range(len(U))]
    assert [status[0] for _, status in alone] == [s for _, _, s in SEGMENTS]
    assert rows[:2] == [0, 0] and min(rows[2:]) >= 4
    assert alone[0][0][0] == 0.0 and alone[-1][0][0] > 0.0
    rng = np.random.default_rng(1)
    for _ in range(20):  # batches in any order, with repeats
        pick = rng.integers(len(U), size=int(rng.integers(1, 3 * len(U))))
        lengths, status = ge._segment_length(spec, U[pick], V[pick], 0.05)
        assert lengths.tobytes() == np.concatenate([alone[k][0] for k in pick]).tobytes()
        assert status.tolist() == [alone[k][1][0] for k in pick]


@pytest.mark.parametrize("field", [R, C])
def test_a_spec_that_reads_vectors_gets_the_chunk_rows_inside_the_domain(field):
    # |h| (|g| - 1) read from the chunk rows is theta = r - 1 read from the
    # invariants: the same statuses, and the same lengths up to rounding
    domain = mm.RadiusDomain(((0.5, 3.0),))
    theta = mm.FromTheta(3, field, domain, mm.theta_profile("r-1"))
    custom = mm.Custom(3, field, domain, fn=lambda g, h: la.norm(h) * (la.norm(g) - 1.0))
    U, V = _kernel_segments(field)
    want, want_status = ge._segment_length(theta, U, V, 0.05)
    got, status = ge._segment_length(custom, U, V, 0.05)
    assert status.tolist() == want_status.tolist() == [s for _, _, s in SEGMENTS]
    resolved = status == ge._RESOLVED
    assert got[resolved] == pytest.approx(want[resolved], rel=1e-12)


@pytest.mark.parametrize("field", [R, C])
def test_a_batch_without_chunks_has_float_lengths(field):
    spec = mm.fubini_study(3, field)
    empty = np.zeros((0, 3), dtype=field.dtype)
    lengths, status = ge._segment_length(spec, empty, empty, 0.1)
    assert lengths.dtype == np.float64 and lengths.shape == status.shape == (0,)
    still = np.ones((2, 3), dtype=field.dtype)  # two segments of length 0
    lengths, status = ge._segment_length(spec, still, still, 0.1)
    assert lengths.dtype == np.float64 and lengths.tolist() == [0.0, 0.0]
    assert status.tolist() == [ge._RESOLVED] * 2


def _kernel_cases(dim, field, rng):
    """(U, V) rows at unit scale: generic segments, segments that pass the
    origin at a gap of |D|/200 with t* inside (0, 1), segments that move away
    from the origin (t* clamped to 0) and towards it (t* clamped to 1), and a
    nearly radial one."""
    def unit():
        return la.random_vector_with_norm(dim, field, 1.0, rng).entries

    def unit_orthogonal(d):
        w = unit()
        w = w - np.vdot(d, w) * d
        return w / np.linalg.norm(w)

    pairs = [(rng.uniform(0.5, 2.0) * unit(), rng.uniform(0.5, 2.0) * unit()) for _ in range(4)]
    for _ in range(3):
        d = unit()
        length, s = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.8)
        P = (length / 200.0) * unit_orthogonal(d)
        pairs.append((P - s * length * d, P + (1.0 - s) * length * d))
    for _ in range(2):
        u = unit()
        away = rng.uniform(1.2, 2.0) * u + rng.uniform(0.2, 1.0) * unit_orthogonal(u)
        pairs += [(u, away), (away, u)]
    u = unit()
    pairs.append((u, 2.0 * u + 1e-9 * unit_orthogonal(u)))
    U, V = (np.array(side) for side in zip(*pairs))
    return U, V


def _rows_lengths(spec, U, V, ell0):
    """The segment kernel's lengths and node counts redone on node rows: one
    eval_batch call on the nodes U + ((j + x)/m) D of each chunk j, for both
    Gauss-Legendre nodes x, and steps D/m, summed per segment with weight 1/2,
    with the kernel's refinement rules; every node must lie in the domain.
    The rows are placed from U, not from the kernel's tau."""
    D = V - U
    length = la.row_norms(D)
    t_star = np.minimum(np.maximum(-np.vecdot(D, U).real / (length * length), 0.0), 1.0)
    gap = la.row_norms(U + t_star[:, None] * D)
    m = np.maximum(np.ceil(0.5 * np.maximum(length / ell0, 16.0 * length / gap)),
                   2.0).astype(np.intp)
    m_rows, steps = m.repeat(2 * m)[:, None], D.repeat(2 * m, axis=0)
    j = (np.arange(len(steps)) - (2 * m.cumsum() - 2 * m).repeat(2 * m)) // 2
    x = j + np.resize(GAUSS_NODES, len(steps))
    values, inside = mm.eval_batch(spec, U.repeat(2 * m, axis=0) + (x[:, None] / m_rows) * steps,
                                   steps / m_rows)
    assert inside.all() and (values >= 0.0).all()
    return (0.5 * np.bincount(np.arange(len(m)).repeat(2 * m), weights=values), t_star,
            length / gap)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("field", [R, C])
def test_the_kernel_measures_from_invariants_what_chunk_rows_measure(field, dim):
    # the kernel's chunk invariants are exact functions of the segment's; the
    # rows' rounding grows as |D|/gap, and a nearly radial Fubini-Study length
    # (about 5e-10 here) is good to about 1e-16 absolute in either form, so the
    # bound is 1e-12 |D|/gap at unit scale, relative only where rho is large
    rng = np.random.default_rng([dim, field is C])
    U, V = _kernel_cases(dim, field, rng)
    for spec in family_specs(dim, field):
        want, t_star, conditioning = _rows_lengths(spec, U, V, 0.05)
        assert t_star[7:].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0]  # clamped, then radial
        assert ((0.0 < t_star[4:7]) & (t_star[4:7] < 1.0)).all()  # near the origin
        got, status = ge._segment_length(spec, U, V, 0.05)
        assert (status == ge._RESOLVED).all(), spec.family
        bound = 1e-12 * conditioning * np.maximum(1.0, np.abs(want))
        assert ((got == want) | (np.abs(got - want) <= bound)).all(), (
            spec.family, np.abs(got - want).tolist())


@pytest.mark.parametrize("spec, want", [
    (mm.fubini_study(3, C), (17, "step-floor", 2, 9326)),
    (mm.FromTheta(3, C, POS, mm.theta_profile("1+cos(tau)")), (150, "iteration-cap", 298, 249528))],
    ids=["fubini-study", "theta"])
def test_a_seeded_solve_makes_the_same_eval_batch_calls_and_rows(monkeypatch, spec, want):
    # one call for the starts; one screen call per window of sweeps, the whole
    # step ladder before the first sweep and 1, 2, 4, ... after a failed one,
    # that measures single moves only; two calls per sweep that runs in full
    # (one that a screen passes or that follows a move), its odd vertices'
    # candidates and then its even vertices': a rewrite of the kernel may
    # neither add a call nor skip a row.  Fubini-Study starts on its exact
    # geodesic and no vertex moves, so its 17 sweeps take one screen and no
    # full sweep
    rows = _counted_rows(monkeypatch, spec)
    screens = _recorded_screens(monkeypatch)
    rng = np.random.default_rng(5)
    g, h = la.random_gaussian_vector(3, C, rng), la.random_gaussian_vector(3, C, rng)
    res = ge.geodesic_distance(spec, g, h, seed=3)
    assert (res.iterations, res.stop_reason, len(rows), sum(rows)) == want
    # a screen's sweeps fail up to the first that a single passes, which runs in full
    failed = sum(not runs for _, settled in screens for runs in settled)
    assert len(rows) == 1 + len(screens) + 2 * (res.iterations - failed)


def _reference_segment_length(spec, U, V, ell0):
    """The segment kernel as it ran in two functions, with midpoint lengths
    meaningful only where status is _RESOLVED, kept verbatim as the reference
    for its statuses."""
    _CHUNK_CAP, _LEFT_DOMAIN, _NEGATIVE = ge._CHUNK_CAP, ge._LEFT_DOMAIN, ge._NEGATIVE
    row_norms, _refuse_nan = la.row_norms, mm._refuse_nan
    D = V - U
    length = row_norms(D)
    moving = length > 0.0
    t_star = np.minimum(np.maximum(
        -np.vecdot(D, U).real / np.where(moving, length * length, 1.0), 0.0), 1.0)
    P = U + t_star[:, None] * D  # the point of the segment nearest to the origin
    origin_gap = row_norms(P)
    # chunk <= gap/16 keeps the midpoint bias of a near-origin sweep below
    # ~5e-4 even when the descent adversarially seeks quadrature error
    needed = np.maximum(length / ell0, 16.0 * length / np.maximum(origin_gap, 1e-300))
    refused = needed > _CHUNK_CAP
    # a segment that is not refused needs at most _CHUNK_CAP chunks
    m = np.where(moving & ~refused, np.maximum(np.ceil(needed), 4.0), 0.0).astype(np.intp)
    seg = np.arange(len(m)).repeat(m)
    values, inside = _reference_chunk_values(spec, P, D, origin_gap, length, t_star, m)
    # bincount adds each segment's chunks in order, from 0 for a segment without
    # any; it gives int zeros when no segment has a chunk
    lengths = np.bincount(seg, weights=values, minlength=len(m)).astype(float, copy=False)
    status = refused * _LEFT_DOMAIN  # _RESOLVED = 0 elsewhere
    if not inside.all() or not (values >= 0.0).all():  # a NaN value fails here too
        _refuse_nan(values)
        failed = np.flatnonzero(~inside | (values < 0.0))
        segs, first = np.unique(seg[failed], return_index=True)
        status[segs] = np.where(inside[failed[first]], _NEGATIVE, _LEFT_DOMAIN)
    return lengths, status


def _reference_chunk_values(spec, P, D, gap, length, t_star, m):
    """The chunk stage of _reference_segment_length, kept verbatim."""
    pair_invariants_rows, _where_nonzero = la.pair_invariants_rows, mm._where_nonzero
    m_rows = m.astype(float).repeat(m)
    tau = (np.arange(0.5, len(m_rows)) - (m.cumsum() - m).repeat(m)) / m_rows - t_star.repeat(m)
    # the invariants, r and rho overflow to inf silently; a NaN raises in _segment_length
    with np.errstate(over="ignore", invalid="ignore"):
        c0, q0 = pair_invariants_rows(P, D, gap)
        tau_c = tau * (length * length).repeat(m)
        r = np.sqrt((gap * gap).repeat(m) + tau * ((2.0 * c0.real).repeat(m) + tau_c))
        ip = (c0.repeat(m) + tau_c) / m_rows
        q = q0.repeat(m) / m_rows
        inside = spec.domain.contains(r)
        rows = (r, ip, q)
        if spec.reads_vectors:  # the chunk rows
            H = D.repeat(m, axis=0)
            rows += (P.repeat(m, axis=0) + tau[:, None] * H, H / m_rows[:, None])
        return _where_nonzero(inside, lambda r, ip, q, G=None, H=None: spec._values(
            r, ip, q, G, H), *rows), inside


def _sweep_batches(field):
    """A seeded sweep's two half batches (180 segments for the odd vertices,
    150 for the even ones against their odd neighbours' first moves), built as
    the descent builds them from a 13-vertex chord in dimension 3."""
    rng = np.random.default_rng(7)
    g, h = (la.random_vector_with_norm(3, field, r, rng).entries for r in (1.0, 1.5))
    verts = ge._segment_rows(g, h, np.linspace(0.0, 1.0, 13))
    chord = float(np.linalg.norm(h - g))
    P = ge._sweep_positions(verts, chord / 12, rng, field)
    batches = []
    for i in (np.arange(1, 12, 2), np.arange(2, 12, 2)):
        cands = P[i - 1, 1:].reshape(-1, 3)
        batches.append((np.concatenate([verts[i - 1].repeat(15, axis=0), cands]),
                        np.concatenate([cands, verts[i + 1].repeat(15, axis=0)])))
        verts = verts.copy()
        verts[i] = P[i - 1, 1]  # the half's first moves, taken
    return batches, chord / 48


def _fine_lengths(spec, U, V, ell0):
    """Fine-grid lengths from the reference's chunk stage: midpoint sums on 8
    and 16 times the reference's chunks, combined as (4 M_16 - M_8)/3, which
    cancels the midpoint rule's h^2 term.  Only for segments it resolves."""
    D = V - U
    length = la.row_norms(D)
    t_star = np.minimum(np.maximum(-np.vecdot(D, U).real / np.where(
        length > 0.0, length * length, 1.0), 0.0), 1.0)
    P = U + t_star[:, None] * D
    gap = la.row_norms(P)
    needed = np.maximum(length / ell0, 16.0 * length / gap)
    m = np.where(length > 0.0, np.maximum(np.ceil(needed), 4.0), 0.0).astype(np.intp)
    coarse, fine = (np.bincount(np.arange(len(m)).repeat(k * m), minlength=len(m), weights=(
        _reference_chunk_values(spec, P, D, gap, length, t_star, k * m)[0])) for k in (8, 16))
    return (4.0 * fine - coarse) / 3.0


def _kernel_reference_cases():
    """(spec, U, V, ell0, fine) for every case the kernel is held to: fine is
    true where its resolved lengths are held to _fine_lengths, on the segments
    a descent measures and on SEGMENTS; the other cases' lengths are held to
    their node rows in test_the_kernel_measures_from_invariants_what_chunk_rows_measure."""
    for field in (R, C):
        domain = mm.RadiusDomain(((0.5, 3.0),))
        custom = mm.Custom(3, field, domain, fn=lambda g, h: la.norm(h) * (la.norm(g) - 1.0))
        U, V = _kernel_segments(field)
        for spec in (mm.FromTheta(3, field, domain, mm.theta_profile("r-1")), custom,
                     mm.zero_extended(2.0, custom)):
            yield spec, U, V, 0.05, True
        for dim in (2, 3):
            U, V = _kernel_cases(dim, field, np.random.default_rng([dim, field is C]))
            for spec in family_specs(dim, field):
                yield spec, U, V, 0.05, False
        batches, ell0 = _sweep_batches(field)
        for spec in (mm.fubini_study(3, field), mm.norm_quotient(3, field),
                     mm.zero_extended(1.0, mm.fubini_study(3, field))):
            for U, V in batches:
                yield spec, U, V, ell0, True


def test_the_kernel_keeps_the_reference_statuses_and_measures_inf_where_unresolved():
    # the reference's statuses, inf on every unresolved segment and, on the
    # fine cases, resolved lengths within 1e-6 of the fine grid (the midpoint
    # reference was up to 2.5e-4 off it); the SEGMENTS cases give every status
    seen = set()
    for spec, U, V, ell0, fine in _kernel_reference_cases():
        _, want_status = _reference_segment_length(spec, U, V, ell0)
        got, status = ge._segment_length(spec, U, V, ell0)
        assert status.tolist() == want_status.tolist(), spec.family
        resolved = status == ge._RESOLVED
        assert np.isfinite(got[resolved]).all() and (got[~resolved] == math.inf).all()
        if fine:
            want = _fine_lengths(spec, U[resolved], V[resolved], ell0)
            assert (np.abs(got[resolved] - want) <= 1e-6 * want).all(), spec.family
        seen.update(status.tolist())
    assert seen == {ge._RESOLVED, ge._LEFT_DOMAIN, ge._NEGATIVE}


# ---------------------------------------------------------------------------
# The per-sweep descent against the per-vertex descent it replaced

def _direction(rng, dim, field):
    """A seeded random unit direction in F^dim, one draw at a time: the
    reference for geometry._directions.  |d| is the sqrt of the real dot of
    d's float64 view, over C its interleaved (re, im) parts."""
    if field is R:
        d = rng.standard_normal(dim)
    else:
        d = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v = d.view(np.float64)
    return d / math.sqrt(np.vdot(v, v))


def _per_vertex_descend(spec, g, h, n_vertices, n_iterations, rng):
    """The geodesic descent one vertex visit at a time, the reference: each
    sweep draws every vertex's two directions first, in vertex order, then
    visits the odd interior vertices and then the even ones, and each visit
    measures its remaining candidates from the current vertex, one
    _segment_length call per accepted move and one more."""
    _RESOLVED, _segment_length = ge._RESOLVED, ge._segment_length
    Polyline, GeodesicResult = ge.Polyline, ge.GeodesicResult
    field = spec.field
    chord_len = float(np.linalg.norm(h.entries - g.entries))
    if chord_len == 0.0:
        line = Polyline(np.stack([g.entries] * (n_vertices - 1) + [h.entries]))
        return GeodesicResult(0.0, line, 0.0, 0, (0.0,), "zero-chord")
    ell0 = chord_len / (4.0 * (n_vertices - 1))
    verts, seglen = ge._initial_vertices(spec, g, h, n_vertices, rng, ell0)
    total = sum(seglen)
    initial = total
    history = [total]
    step = chord_len / (n_vertices - 1)
    step_floor = 1e-6 * chord_len
    stop_reason = "iteration-cap"

    for _ in range(n_iterations):
        improved = False
        # Candidates draw nothing, so every direction can be drawn first.
        dirs = {i: [_direction(rng, spec.dim, field) for _ in range(2)]
                for i in range(1, n_vertices - 1)}
        for i in [*range(1, n_vertices - 1, 2), *range(2, n_vertices - 1, 2)]:
            local = seglen[i - 1] + seglen[i]
            moves = np.array([sgn * step * d for d in dirs[i] for sgn in (1.0, -1.0)])
            k = 0
            while k < len(moves):
                # The remaining candidates, measured from the current vertex:
                # segments prev -> cand in the first half, cand -> next in the second.
                cands = verts[i] + moves[k:]
                n = len(cands)
                lengths, status = _segment_length(
                    spec, np.concatenate([verts[i - 1:i].repeat(n, axis=0), cands]),
                    np.concatenate([cands, verts[i + 1:i + 2].repeat(n, axis=0)]), ell0)
                resolved = (status[:n] == _RESOLVED) & (status[n:] == _RESOLVED)
                a, b = lengths[:n].tolist(), lengths[n:].tolist()
                for c in range(n):
                    if resolved[c] and ge._shortens(a[c] + b[c], local):
                        verts[i] = cands[c]
                        seglen[i - 1], seglen[i] = a[c], b[c]
                        local = a[c] + b[c]
                        improved = True
                        k += c + 1
                        break
                else:
                    break
        total = sum(seglen)
        history.append(total)
        if not improved:
            step *= 0.5
            if step < step_floor:
                stop_reason = "step-floor"
                break

    return GeodesicResult(total, Polyline(verts), initial, len(history) - 1, tuple(history),
                          stop_reason)


def _per_vertex_distance(spec, g, h, n_vertices=13, n_iterations=150, seed=0):
    """geodesic_distance over the reference descent: the same start seed."""
    return _per_vertex_descend(spec, g, h, n_vertices, n_iterations,
                               np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0]))


def _outcome(solve, *args, **kwargs):
    """A solve's every float, bit for bit, or the error it raised."""
    try:
        res = solve(*args, **kwargs)
    except Exception as exc:  # both descents must raise alike
        return type(exc).__name__, str(exc)
    return (res.distance, res.history, res.iterations, res.stop_reason, res.initial_length,
            res.path.vertices.tobytes())


def _assert_same_descent(spec, g, h, **kwargs):
    want = _outcome(_per_vertex_distance, spec, g, h, **kwargs)
    assert _outcome(ge.geodesic_distance, spec, g, h, **kwargs) == want, (spec.family, kwargs)
    return want


@pytest.mark.parametrize("n_vertices", [3, 7, 25])
@pytest.mark.parametrize("dim", [2, 3, 5])
@pytest.mark.parametrize("field", [R, C])
def test_sweep_descent_equals_the_per_vertex_descent(field, dim, n_vertices):
    # 5 specs in each of 18 settings: 90 solves, each compared bit for bit
    rng = np.random.default_rng([dim, n_vertices, field is C])
    specs = [mm.euclidean(dim, field), mm.fubini_study(dim, field), mm.norm_quotient(dim, field),
             mm.FromTheta(dim, field, mm.RadiusDomain(((0.5, 3.0),)),
                          mm.theta_profile("1+cos(tau)")),
             mm.FromLambda(dim, field, POS, mm.lambda_profile("sqrt(p^2+2*q^2)"))]
    moved = False
    for k, spec in enumerate(specs):
        g = la.random_vector_with_norm(dim, field, float(rng.uniform(0.6, 2.5)), rng)
        h = la.random_vector_with_norm(dim, field, float(rng.uniform(0.6, 2.5)), rng)
        want = _assert_same_descent(spec, g, h, n_vertices=n_vertices, n_iterations=30, seed=k)
        moved |= want[1][-1] < want[1][0]
    assert moved  # some descent moved vertices, so accepted moves were compared too


def test_sweep_descent_equals_the_per_vertex_descent_at_the_edges():
    # the chord through the origin takes the lifted initialisation
    g, h = la.vector([1.0, 0.5, 0.0]), la.vector([-1.0, -0.5, 0.0])
    lifted = _assert_same_descent(mm.euclidean(3), g, h, seed=1, n_iterations=40)
    assert lifted[4] > float(np.linalg.norm(h.entries - g.entries))
    # a step-floor stop
    floor = _assert_same_descent(mm.euclidean(2), la.vector([1.0, 0.0]), la.vector([2.0, 1.0]),
                                 n_vertices=5, seed=0)
    assert floor[3] == "step-floor"
    with pytest.warns(RuntimeWarning):
        negative = mm.induced_finsler(mm.riemann_profile("-1", "0"), 2)
    assert _assert_same_descent(negative, la.vector([1.0, 0.0]), la.vector([2.0, 0.0]))[0] \
        == "NonPositiveMetricError"


def _gaussian_pair(seed):
    rng = np.random.default_rng(seed)
    return la.random_gaussian_vector(3, R, rng), la.random_gaussian_vector(3, R, rng)


# a theta solve whose start is no geodesic of the metric, cut at 20 sweeps:
# the spec, g, h and the solve's arguments.  It fails 8 sweeps, then moves at
# 1/256 of the first step, by more than the acceptance margin
_REWOUND = (mm.FromTheta(3, R, POS, mm.theta_profile("1+cos(tau)")), *_gaussian_pair(40),
            {"n_vertices": 13, "n_iterations": 20, "seed": 0})


def _recorded_screens(monkeypatch):
    """(window, whether each sweep it settles runs in full) per _screen call."""
    screens, screen = [], ge._screen

    def recorded(*args):
        out = screen(*args)
        screens.append((args[-1], list(out)))
        return out
    monkeypatch.setattr(ge, "_screen", recorded)
    return screens


def test_screened_sweeps_equal_the_per_vertex_descent_at_the_window_edges(monkeypatch):
    screens = _recorded_screens(monkeypatch)
    # the euclidean chord, which no move shortens: every sweep is screened, in
    # one window of the whole step ladder, cut by n_iterations and by the step
    # floor, which the 17th sweep reaches
    g, h = _gaussian_pair(11)
    for n_iterations in (0, 1, 2, 3, 4, 5, 17, 18):
        screens.clear()
        got = _assert_same_descent(mm.euclidean(3), g, h, n_iterations=n_iterations)
        assert len(set(got[1])) == 1  # no vertex moved
        assert got[3] == ("step-floor" if n_iterations >= 17 else "iteration-cap")
        assert screens == ([(n_iterations, [False] * min(n_iterations, 17))]
                           if n_iterations else []), n_iterations
    # the theta solve: its ladder fails 8 sweeps and passes at the 9th, so the
    # stream is rewound over the 17 sweeps drawn, the 8 failed draws are
    # replayed, and the moves that follow draw from there; the full sweep
    # after a failed one is screened alone
    spec, g, h, kwargs = _REWOUND
    screens.clear()
    history = _assert_same_descent(spec, g, h, **kwargs)[1]
    assert screens[0] == (20, [False] * 8 + [True]) and screens[1][0] == 1
    assert len(set(history[:9])) == 1 and sum(b < a for a, b in zip(history, history[1:])) >= 5
    # a real Fubini-Study solve at 3 vertices, one of the 90 above, whose
    # ladder moves at once; after its last move the windows double, 1, 2, 4
    # and 8 failed sweeps, and the last is cut at n_iterations
    rng = np.random.default_rng([2, 3, False])
    _, _, g, h = (la.random_vector_with_norm(2, R, float(rng.uniform(0.6, 2.5)), rng)
                  for _ in range(4))
    screens.clear()
    _assert_same_descent(mm.fubini_study(2), g, h, n_vertices=3, n_iterations=30, seed=1)
    assert [window for window, _ in screens] == [30, 1, 2, 4, 8, 13]
    assert screens[0][1] == [True] and not any(screens[-1][1] + screens[-2][1])


def _recorded_windows(monkeypatch):
    """(the path as screened, ell0, the tables of the sweeps it draws) per
    _screen call, the tables replayed one sweep at a time by _sweep_positions
    from the stream as the screen finds it."""
    windows, screen = [], ge._screen

    def recorded(spec, verts, seglen, step, step_floor, rng, ell0, window):
        replay = np.random.default_rng()
        replay.bit_generator.state = rng.bit_generator.state
        tables, s = [ge._sweep_positions(verts, step, replay, spec.field)], step
        while len(tables) < window and 0.5 * s >= step_floor:
            s *= 0.5
            tables.append(ge._sweep_positions(verts, s, replay, spec.field))
        windows.append((verts.copy(), ell0, tables))
        return screen(spec, verts, seglen, step, step_floor, rng, ell0, window)
    monkeypatch.setattr(ge, "_screen", recorded)
    return windows


def _nan_shell(spec, segment, ell0):
    """A copy of spec whose family kernel is NaN on a shell 1e-12 thin around
    the radius of one node of segment (a (start, end) pair of rows), and
    spec's own, bit for bit, everywhere else."""
    radii = []
    ge._segment_length(mm.FromLambda(3, R, POS, lambda r, p, q: radii.append(r) or 1.0),
                       *(row[None] for row in segment), ell0)
    r0 = radii[len(radii) // 2]
    values = type(spec)._values

    class Shell(type(spec)):
        def _values(self, r, ip, q, G, H):
            return np.where(np.abs(r - r0) < 1e-12 * r0, np.nan, values(self, r, ip, q, G, H))
    shell = copy.copy(spec)
    shell.__class__ = Shell
    with pytest.raises(EvalError):  # the segment meets the shell
        ge._segment_length(shell, *(row[None] for row in segment), ell0)
    return shell


def test_a_nan_only_at_a_screened_but_untaken_single_move_raises(monkeypatch):
    # the theta solve whose ladder passes at its 9th sweep: the single moves
    # of the 8 sweeps drawn after it, at 1/512 ... 1/65536 of the first step
    # on the unmoved path, are measured but never taken, since the stream is
    # rewound over their draws.  A NaN on one of their segments raises, though
    # the vertex-at-a-time descent, which never draws them, does not meet it
    spec, g, h, kwargs = _REWOUND
    windows = _recorded_windows(monkeypatch)
    ge.geodesic_distance(spec, g, h, **kwargs)
    verts, ell0, tables = windows[0]
    assert len(tables) == 17
    k = 5  # vertex k + 1's first single move in the ladder's last sweep, from vertex k
    shell = _nan_shell(spec, (verts[k], tables[-1][k, 1]), ell0)
    want = _outcome(_per_vertex_distance, shell, g, h, **kwargs)
    assert want == _outcome(_per_vertex_distance, spec, g, h, **kwargs)
    with pytest.raises(EvalError, match=r"^metric value is undefined here"):
        ge.geodesic_distance(shell, g, h, **kwargs)


def test_a_nan_only_at_a_failed_sweeps_multi_move_does_not_raise(monkeypatch):
    # the euclidean chord, where every sweep fails: the first sweep's
    # position with moves 0 and 2 (row 5 of a vertex's block), replayed from
    # the stream, is never measured, so a NaN on its segment from the left
    # neighbour, which a tabulated sweep would meet, leaves the solve equal to
    # the vertex-at-a-time descent's, which never measures it either
    g, h = _gaussian_pair(11)
    windows = _recorded_windows(monkeypatch)
    ge.geodesic_distance(mm.euclidean(3), g, h, n_iterations=17)
    verts, ell0, tables = windows[0]
    k = 5
    shell = _nan_shell(mm.euclidean(3), (verts[k], tables[0][k, 5]), ell0)
    got = _assert_same_descent(shell, g, h, n_iterations=17)
    assert got[3] == "step-floor" and len(set(got[1])) == 1  # 17 failed sweeps, no raise


@pytest.mark.parametrize("field", [R, C])
def test_a_screen_draws_and_rewinds_as_per_sweep_draws_do(monkeypatch, field):
    # the euclidean chord at 13 vertices, with vertex 6's two segments given
    # 1e-4 of their length more than they measure: a single move passes once
    # the step is small enough that it lengthens them by less, a few sweeps
    # down the ladder.  The screen's single moves equal the rows of drawing
    # one sweep at a time by _sweep_positions, bit for bit, and it leaves the
    # stream before the passing sweep's draws, so the table the loop then
    # builds is that sweep's; with the path's own lengths no sweep passes,
    # and the stream ends after every sweep's draws
    rng = np.random.default_rng(3)
    g, h = (la.random_vector_with_norm(3, field, r, rng).entries for r in (1.0, 1.5))
    verts = ge._segment_rows(g, h, np.linspace(0.0, 1.0, 13))
    chord = float(np.linalg.norm(h - g))
    seglen = ge._segment_length(mm.euclidean(3, field), verts[:-1], verts[1:], chord / 48)[0]
    singles, measure = [], ge._segment_length

    def recorded(spec, U, V, ell0):
        singles.append(V[:len(V) // 2].copy())
        return measure(spec, U, V, ell0)
    monkeypatch.setattr(ge, "_segment_length", recorded)
    for bump, passing in ((1e-4, True), (0.0, False)):
        lengths = seglen.tolist()
        lengths[5] += bump * lengths[5]
        singles.clear()
        rng, replay = np.random.default_rng(9), np.random.default_rng(9)
        out = ge._screen(mm.euclidean(3, field), verts, lengths, chord / 12, 1e-6 * chord,
                         rng, chord / 48, 20)
        tables, states = [], [replay.bit_generator.state]  # the floor cuts 20 at 17 sweeps
        for s in range(17):
            tables.append(ge._sweep_positions(verts, chord / 12 * 0.5 ** s, replay, field))
            states.append(replay.bit_generator.state)
        assert len(singles) == 1
        assert singles[0].tobytes() == np.stack([P[:, [1, 2, 4, 8]] for P in tables]).tobytes()
        if passing:
            j = len(out) - 1  # the sweep that runs in full
            assert 0 < j < 16 and out == [False] * j + [True]
            assert rng.bit_generator.state == states[j]
            table = ge._sweep_positions(verts, chord / 12 * 0.5 ** j, rng, field)
            assert table.tobytes() == tables[j].tobytes()
        else:
            assert out == [False] * 17 and rng.bit_generator.state == states[17]


@pytest.mark.parametrize("field", [R, C])
def test_a_solve_that_never_moves_makes_two_kernel_calls(monkeypatch, field):
    # the starts, then one screen of the whole ladder of 17 sweeps, 88 single
    # moves' segments each at 13 vertices, down to the step floor
    calls, measure = [], ge._segment_length

    def counted(spec, U, V, ell0):
        calls.append(len(U))
        return measure(spec, U, V, ell0)
    monkeypatch.setattr(ge, "_segment_length", counted)
    g, h = _gaussian_pair(11)
    solves = [(mm.euclidean(3, field), la.vector(g.entries, field), la.vector(h.entries, field))]
    solves += [(mm.fubini_study(dim, field), la.basis_vector(dim, 0, field),
                la.basis_vector(dim, 1, field)) for dim in (2, 3, 5)]
    for spec, g, h in solves:
        calls.clear()
        res = ge.geodesic_distance(spec, g, h)
        assert (res.stop_reason, res.iterations, len(set(res.history))) == ("step-floor", 17, 1)
        assert len(calls) == 2 and calls[1] == 17 * 88, (spec.family, spec.dim)


def test_only_a_sweep_that_runs_in_full_builds_its_table(monkeypatch):
    # a screen measures moves and builds no table: the never-moving solves of
    # the two-call test build none, and the _REWOUND theta solve builds one
    # per sweep that runs in full (every sweep but a screened failure), the
    # first at the 9th sweep's step, 1/256 of the first
    steps, build = [], ge._sweep_positions

    def counted(verts, step, rng, field):
        steps.append(step)
        return build(verts, step, rng, field)
    monkeypatch.setattr(ge, "_sweep_positions", counted)
    screens = _recorded_screens(monkeypatch)
    g, h = _gaussian_pair(11)
    for field in (R, C):
        solves = [(mm.euclidean(3, field), la.vector(g.entries, field),
                   la.vector(h.entries, field))]
        solves += [(mm.fubini_study(dim, field), la.basis_vector(dim, 0, field),
                    la.basis_vector(dim, 1, field)) for dim in (2, 3, 5)]
        for spec, a, b in solves:
            assert ge.geodesic_distance(spec, a, b).iterations == 17
    assert steps == []
    spec, g, h, kwargs = _REWOUND
    screens.clear()
    res = ge.geodesic_distance(spec, g, h, **kwargs)
    failed = sum(not runs for _, settled in screens for runs in settled)
    assert len(steps) == res.iterations - failed >= 5
    assert steps[0] == 0.5 ** 8 * float(np.linalg.norm(h.entries - g.entries)) / 12


@pytest.mark.parametrize("field", [R, C])
def test_sweep_direction_draw_is_the_stacked_per_vertex_draws(field):
    sweep, per_vertex = np.random.default_rng(5), np.random.default_rng(5)
    D = ge._directions(sweep, 14, 4, field)
    want = np.stack([_direction(per_vertex, 4, field) for _ in range(14)])
    assert D.tobytes() == want.tobytes()
    assert sweep.standard_normal() == per_vertex.standard_normal()  # the same stream position


def test_a_nan_value_is_the_one_eval_error_on_every_path():
    # a bare callable's NaN (whose length was NaN) and riemann terms that
    # overflow to opposite infinities: the segment kernel, the Simpson nodes
    # and a polyline raise eval_batch's EvalError, with no numpy warning
    nan_lambda = mm.FromLambda(2, R, POS, lambda r, p, q: math.nan)
    opposite = mm.FromRiemann(2, R, POS, mm.riemann_profile("1e308", "-1e308"))
    g, h = la.vector([10.0, 0.0]), la.vector([30.0, 0.0])
    for spec in (nan_lambda, opposite):
        for measure in (lambda: ge.geodesic_distance(spec, g, h, n_vertices=3, n_iterations=2),
                        lambda: ge.curve_length(spec, ge.segment_curve(g, h), 5),
                        lambda: ge.curve_length(spec, ge.Polyline(np.stack([g.entries, h.entries])))):
            with pytest.raises(EvalError, match=r"^metric value is undefined here"):
                measure()
