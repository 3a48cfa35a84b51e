import math

import numpy as np
import pytest

from finsler_iso import geometry as ge
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import NonPositiveMetricError, ZeroVectorError
from helpers import POS, family_specs

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


def test_negative_metric_warns_but_integrates():
    with pytest.warns(RuntimeWarning):
        spec = mm.induced_finsler(mm.riemann_profile("-1", "0"), 2)
    seg = ge.segment_curve(la.vector([1.0, 0.0]), la.vector([2.0, 0.0]))
    with pytest.warns(RuntimeWarning):
        value = ge.curve_length(spec, seg, 101)
    assert value == pytest.approx(-1.0, abs=1e-9)


def test_polyline_length_is_midpoint_sum():
    spec = mm.norm_quotient(2)
    poly = ge.Polyline((la.vector([1.0, 0.0]), la.vector([2.0, 0.0])))
    # single segment: |delta| / |midpoint| = 1 / 1.5
    assert ge.curve_length(spec, poly) == pytest.approx(1.0 / 1.5, rel=1e-12)


def test_negative_polyline_warns_but_integrates():
    spec = mm.FromLambda(2, R, POS, mm.lambda_profile("0-sqrt(p^2+q^2)/r"))
    poly = ge.Polyline((la.vector([1.0, 0.0]), la.vector([1.0, 1.0])))
    with pytest.warns(RuntimeWarning, match="negative"):
        value = ge.curve_length(spec, poly)
    assert value == pytest.approx(-1.0, rel=1e-12)  # sqrt(p^2 + q^2) / r = |h|


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
    curves = [quarter, ge.segment_curve(g, h), ge.circle_arc(3, field, 2.0, 0.3, 2.0),
              ge.ParametricCurve(lambda t: quarter.fn(HALF_PI - t), 0.0, HALF_PI)]  # bare fn
    rng = np.random.default_rng(3)
    verts = tuple(la.Vector(v, field) for v in la.random_gaussian_rows(9, 3, field, rng))
    poly = ge.Polyline(verts)
    for spec in family_specs(3, field):
        for curve in curves:
            ts = np.linspace(curve.a, curve.b, 21)
            for t, p, v in zip(ts, curve.points(ts), curve.velocities(ts)):
                assert np.array_equal(p, curve.point(t).entries)
                assert np.array_equal(v, curve.velocity(t).entries)
            assert ge.curve_length(spec, curve, 101) == pytest.approx(
                _scalar_simpson(spec, curve, 101), rel=1e-12), spec.family
        want = sum(mm.eval_finsler(spec, la.Vector(0.5 * (u.entries + v.entries), field),
                                   la.Vector(v.entries - u.entries, field))
                   for u, v in zip(verts, verts[1:]))
        assert ge.curve_length(spec, poly) == pytest.approx(want, rel=1e-12), spec.family


def test_length_reversal_invariance():
    quarter = ge.circle_arc(3)
    reverse = ge.ParametricCurve(lambda t: quarter.fn(HALF_PI - t), 0.0, HALF_PI)
    for spec in (mm.euclidean(3), mm.fubini_study(3)):
        a = ge.curve_length(spec, quarter, 2001)
        b = ge.curve_length(spec, reverse, 2001)
        assert a == pytest.approx(b, abs=1e-9)


def test_length_isometry_invariance():
    rng = np.random.default_rng(0)
    quarter = ge.circle_arc(3)
    for seed in range(5):
        u = la.random_unitary(3, R, seed)
        moved = ge.ParametricCurve(lambda t: la.apply_map(u, quarter.fn(t)), 0.0, HALF_PI)
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
        assert ge.delta1(la.scale(c, g), la.scale(d, h)) == pytest.approx(ge.delta1(g, h), abs=1e-10)
        assert ge.delta2(la.scale(c, g), la.scale(d, h)) == pytest.approx(ge.delta2(g, h), abs=1e-10)


def test_delta_zero_vector_errors():
    with pytest.raises(ZeroVectorError):
        ge.delta1(la.zero_vector(2), la.vector([1, 0]))
    with pytest.raises(ZeroVectorError):
        ge.delta2(la.vector([1, 0]), la.zero_vector(2))


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
    const = ge.ParametricCurve(lambda t: la.vector([1.0, 1.0]), 0.0, 1.0)
    assert ge.polygonal_delta_length("delta1", const, 100) <= 1e-12
    with pytest.raises(ValueError):
        ge.polygonal_delta_length("delta3", const, 10)


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


def test_intrinsification_radial_curve_vanishes():
    radial = ge.ParametricCurve(lambda t: la.vector([1.0 + t, 0.0]), -0.5, 0.5)
    table = ge.intrinsification_ratio(radial, 0.0, [1e-2, 1e-3, 1e-4])
    assert table.sigma_value <= 1e-9
    assert abs(table.rows[-1][1]) <= 1e-3 and abs(table.rows[-1][2]) <= 1e-3


def test_intrinsification_sphere_curve_matches_sesquilinear():
    def fn(t):
        return la.vector([math.cos(t), math.sin(t) * math.cos(0.5 * t),
                          math.sin(t) * math.sin(0.5 * t)])
    curve = ge.ParametricCurve(fn, 0.0, 1.5)
    t0 = 0.7
    table = ge.intrinsification_ratio(curve, t0, [1e-2, 1e-3, 1e-4])
    sigma = mm.eval_sesquilinear(mm.fubini_study_profile(), curve.point(t0),
                                 curve.velocity(t0), curve.velocity(t0))
    assert table.sigma_value == pytest.approx(math.sqrt(sigma), abs=1e-6)
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
    fs = ge.geodesic_distance(mm.fubini_study(3), la.basis_vector(3, 0),
                              la.basis_vector(3, 1), seed=0)
    assert fs.stop_reason == "iteration-cap" and fs.iterations == 150
    g = la.vector([1.0, 2.0])
    same = ge.geodesic_distance(mm.euclidean(2), g, g, seed=0)
    assert same.stop_reason == "zero-chord" and same.iterations == 0 and same.distance == 0.0


def test_geodesic_fubini_study_quarter():
    res = ge.geodesic_distance(mm.fubini_study(3), la.basis_vector(3, 0),
                               la.basis_vector(3, 1), seed=0, n_iterations=120)
    assert res.distance == pytest.approx(HALF_PI, abs=1e-2)


def test_geodesic_radial_log_distance():
    res = ge.geodesic_distance(mm.norm_quotient(3), la.vector([1.0, 0.0, 0.0]),
                               la.vector([2.0, 0.0, 0.0]), seed=0, n_iterations=120)
    assert res.distance == pytest.approx(math.log(2.0), abs=1e-3)


def test_geodesic_monotone_improvement():
    res = ge.geodesic_distance(mm.fubini_study(3), la.vector([1.0, 0.2, 0.0]),
                               la.vector([0.1, 1.3, 0.4]), seed=3, n_iterations=60)
    assert all(a >= b - 1e-12 for a, b in zip(res.history, res.history[1:]))
    assert res.distance <= res.initial_length + 1e-12


def test_geodesic_refuses_negative_metric():
    with pytest.warns(RuntimeWarning):
        spec = mm.induced_finsler(mm.riemann_profile("-1", "0"), 2)
    with pytest.raises(NonPositiveMetricError):
        ge.geodesic_distance(spec, la.vector([1.0, 0.0]), la.vector([2.0, 0.0]), seed=0)


def test_geodesic_initialization_avoids_forbidden_origin():
    # the straight chord passes through 0; the optimizer must lift around it
    g, h = la.vector([1.0, 0.0, 0.0]), la.vector([-1.0, 0.0, 0.0])
    res = ge.geodesic_distance(mm.euclidean(3), g, h, seed=1, n_iterations=60)
    assert res.distance >= 2.0 - 1e-9
    assert res.distance <= 2.2  # close to the infimum despite the detour


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

def _scalar_path_length(spec, path):
    """The descent's quadrature redone one chunk at a time through eval_finsler:
    per segment max(4, length/ell0, 16 length/gap) midpoint chunks."""
    verts = [v.entries for v in path.vertices]
    ell0 = np.linalg.norm(verts[-1] - verts[0]) / (4.0 * (len(verts) - 1))
    total = 0.0
    for u, v in zip(verts, verts[1:]):
        d = v - u
        length = np.linalg.norm(d)
        t_star = min(1.0, max(0.0, -np.vdot(d, u).real / length ** 2))
        gap = np.linalg.norm(u + t_star * d)
        m = max(4, math.ceil(max(length / ell0, 16.0 * length / gap)))
        step = la.Vector(d / m, spec.field)
        total += sum(mm.eval_finsler(spec, la.Vector(u + (j + 0.5) / m * d, spec.field), step)
                     for j in range(m))
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


MIDPOINT_BIAS = 5e-4  # the relative quadrature slack documented in geometry._segment_length


@pytest.mark.parametrize("field", [R, C])
def test_descent_is_an_upper_bound_on_closed_form_distances(field):
    # Fubini-Study and norm-quotient solves may still stop short of their
    # oracle's tolerance; only the upper bound is asserted for them.
    rng = np.random.default_rng(12)
    builders = {"euclidean": mm.euclidean, "fubini-study": mm.fubini_study,
                "norm-quotient": mm.norm_quotient}
    for dim in range(2, 6):
        for name, build in builders.items():
            g = la.random_gaussian_vector(dim, field, rng)
            h = la.random_gaussian_vector(dim, field, rng)
            want = _closed_form(name, g.entries, h.entries)
            res = ge.geodesic_distance(build(dim, field), g, h, seed=dim)
            assert res.distance >= want * (1.0 - MIDPOINT_BIAS), (name, dim)
            if name == "euclidean":
                assert res.distance == pytest.approx(want, abs=1e-3), dim
