import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler_iso import decompose as dc
from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import InvalidArgumentError, MismatchError
from helpers import (OVERFLOWING_THETA, POS, family_specs, near_pair, pair_cases,
                     probe_battery, theta_angular)

R, C = la.Field.REAL, la.Field.COMPLEX


def test_unitary_is_symmetry_of_euclidean():
    u = la.random_unitary(3, R, 0)
    v = iv.is_symmetry(u, mm.euclidean(3), 100, seed=1)
    assert v.is_symmetry and v.max_deviation <= 1e-10 and v.witness is None


def test_stretch_is_not_a_symmetry():
    t = la.linear_map(np.diag([2.0, 1.0, 1.0]))
    v = iv.is_symmetry(t, mm.euclidean(3), 100, seed=1)
    assert not v.is_symmetry and v.witness is not None and v.max_deviation > 1e-3


def test_congruence_is_symmetry_of_norm_quotient():
    u = la.random_unitary(4, C, 5)
    t = la.LinearMap(3.0 * u.entries, C)
    v = iv.is_symmetry(t, mm.norm_quotient(4, C), 100, seed=2)
    assert v.is_symmetry, v.max_deviation


def test_domain_violation_fails_the_verdict():
    spec = mm.Euclidean(2, R, mm.RadiusDomain(((0.5, 2.0),)))
    t = la.linear_map([[10.0, 0.0], [0.0, 10.0]])  # pushes radii out of (0.5, 2)
    v = iv.is_symmetry(t, spec, 50, seed=0)
    assert not v.is_symmetry and v.skipped >= 1 and v.max_deviation == math.inf


def test_is_symmetry_dimension_guard():
    with pytest.raises(MismatchError):
        iv.is_symmetry(la.linear_map(np.eye(2)), mm.euclidean(3))


def test_classify_congruence_cases():
    u = la.random_unitary(4, C, 7)
    assert iv.classify_congruence(u).kind == "isometry"
    got = iv.classify_congruence(la.LinearMap(3.0 * u.entries, C))
    assert got.kind == "congruence" and got.c == pytest.approx(3.0, abs=1e-9)
    got = iv.classify_congruence(la.linear_map([[2.0, 0.0], [0.0, 1.0]]))
    assert got.kind == "not-congruence" and got.sv_ratio == pytest.approx(2.0)
    zero = iv.classify_congruence(la.linear_map(np.zeros((2, 2))))
    assert zero.kind == "not-congruence" and math.isinf(zero.sv_ratio)


def test_classify_congruence_soundness():
    rng = np.random.default_rng(11)
    for i in range(1000):
        dim = int(rng.integers(2, 6))
        field = R if i % 2 else C
        c = float(rng.uniform(0.05, 10.0))
        u = la.random_unitary(dim, field, int(rng.integers(2 ** 31)))
        got = iv.classify_congruence(la.LinearMap(c * u.entries, field))
        assert got.kind in ("congruence", "isometry")
        assert abs(got.c - c) <= 1e-9 * max(1.0, c)
    rejected = 0
    for i in range(200):
        m = rng.standard_normal((4, 4))
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] / sv[-1] >= 1.01:
            assert iv.classify_congruence(la.linear_map(m)).kind == "not-congruence"
            rejected += 1
    assert rejected > 150


def test_symmetries_compose():
    # monoid closure at matching tolerances, on the same seed's samples
    spec = mm.FromTheta(3, C, POS, theta_angular)
    t1 = la.random_unitary(3, C, 21)
    t2 = la.random_unitary(3, C, 22)
    tol = 1e-10
    assert iv.is_symmetry(t1, spec, 100, seed=3, tol=tol).is_symmetry
    assert iv.is_symmetry(t2, spec, 100, seed=3, tol=tol).is_symmetry
    t12 = la.linear_map(t1.entries @ t2.entries)
    assert iv.is_symmetry(t12, spec, 100, seed=3, tol=3 * tol).is_symmetry


def test_singular_maps_fail_nonzero_specs():
    rng = np.random.default_rng(13)
    for name, spec in probe_battery(3, R):
        u = la.random_unitary(3, R, 31).entries
        v = la.random_unitary(3, R, 32).entries
        t = la.LinearMap(u @ np.diag([1.3, 0.7, 0.0]) @ v, R)
        verdict = iv.is_symmetry(t, spec, 100, seed=int(rng.integers(2 ** 31)))
        assert not verdict.is_symmetry, name


def test_theorem_probe_euclidean_and_fs():
    for spec in (mm.euclidean(3), mm.fubini_study(3)):
        report = iv.congruence_theorem_probe(spec, n_maps=25, n_samples=30, seed=17, n_controls=25)
        assert not report.vacuous
        assert report.all_failed and report.weakest_deviation > 1e-3
        assert report.controls_passed, report.control_worst_deviation


def test_theorem_probe_scaled_identity_passes_for_fs():
    t = la.LinearMap(2.0 * np.eye(3), R)
    assert iv.is_symmetry(t, mm.fubini_study(3), 100, seed=4).is_symmetry
    assert not iv.is_symmetry(t, mm.euclidean(3), 100, seed=4).is_symmetry


def test_theorem_probe_requires_dim3():
    with pytest.raises(ValueError):
        iv.congruence_theorem_probe(mm.euclidean(2))


def test_theorem_probe_rejects_zero_maps():
    with pytest.raises(InvalidArgumentError, match="^n_maps: got 0, need at least 1$"):
        iv.congruence_theorem_probe(mm.euclidean(3), n_maps=0)


def test_checks_of_nothing_raise():
    spec = mm.euclidean(3)
    for check_of_no_sample in (
            lambda: iv.is_symmetry(la.linear_map(np.eye(3)), spec, 0),
            lambda: iv.congruence_theorem_probe(spec, n_samples=0),
            lambda: iv.dim2_exception_check(1.0, [iv.random_unimodular(0)], n_samples=0),
            lambda: iv.rotation_sufficiency_check(spec, n_samples=0)):
        with pytest.raises(InvalidArgumentError, match="^n_samples: got 0, need at least 1$"):
            check_of_no_sample()
    with pytest.raises(InvalidArgumentError, match="^n_unitaries: got 0, need at least 1$"):
        iv.invariance_suite(spec, 0)
    with pytest.raises(InvalidArgumentError, match="^maps: got 0, need at least 1$"):
        iv.dim2_exception_check(1.0, [])
    with pytest.raises(InvalidArgumentError, match="^n_rotations: got 0, need at least 1$"):
        iv.rotation_sufficiency_check(spec, 0)
    with pytest.raises(InvalidArgumentError, match="^n_samples: got 0, need at least 1$"):
        mm.check_homothety_invariance(spec, 2.0, 0)


@pytest.mark.parametrize("tol", [math.nan, -1.0, -math.inf])
def test_a_nan_or_negative_tolerance_raises(tol):
    # no deviation is <= a NaN or negative tol, so such a tol failed every
    # verdict whatever the deviations, where it should be refused
    spec = mm.euclidean(3)
    for name, check in (
            ("tol", lambda: iv.is_symmetry(la.linear_map(np.eye(3)), spec, 5, tol=tol)),
            ("tol", lambda: iv.invariance_suite(spec, 5, tol=tol)),
            ("deviation_threshold",
             lambda: iv.congruence_theorem_probe(spec, 2, 5, deviation_threshold=tol)),
            ("control_tol", lambda: iv.congruence_theorem_probe(spec, 2, 5, control_tol=tol)),
            ("tol", lambda: iv.dim2_exception_check(1.0, [iv.random_unimodular(0)], 5, tol=tol)),
            ("tol", lambda: iv.rotation_sufficiency_check(spec, 2, 5, tol=tol)),
            ("tol", lambda: mm.check_homothety_invariance(spec, 2.0, 5, tol=tol))):
        with pytest.raises(ValueError, match=f"^{name} must be a number >= 0"):
            check()


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, 0.0, -2.0, 1.0])
def test_a_homothety_alpha_not_finite_positive_raises(alpha):
    # a NaN or infinite alpha skipped every sample and was reported as that
    with pytest.raises(ValueError, match="alpha must be a finite positive number != 1"):
        mm.check_homothety_invariance(mm.norm_quotient(3), alpha, 5)


def test_theorem_probe_vacuous_spec_reported():
    spec = mm.Custom(3, R, POS, fn=lambda g, h: 0.0)
    report = iv.congruence_theorem_probe(spec, n_maps=5, n_samples=10, seed=0, n_controls=5)
    assert report.vacuous and report.maps_tested == 0


_TESTS_NOTHING = re.escape("the metric is 0 (|rho| <= 1e-12) on every sampled pair and its "
                           "image, so the check tests nothing")


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("dim", [2, 3])
def test_a_symmetry_test_of_a_zero_metric_tests_nothing(dim, field):
    # every compared value is 0, on the samples and their images: no verdict
    zero = mm.Custom(dim, field, POS, fn=lambda g, h: 0.0)
    u = la.random_unitary(dim, field, 1)
    for check in (lambda: iv.invariance_suite(zero, 20),
                  lambda: iv.is_symmetry(u, zero, 20),
                  lambda: iv.is_symmetry(la.LinearMap(2.0 * u.entries, field), zero, 20),
                  lambda: mm.check_homothety_invariance(zero, 2.0, 20)):
        with pytest.raises(InvalidArgumentError, match=_TESTS_NOTHING):
            check()
    if dim == 2 and field is R:
        maps = [iv.random_unimodular(k) for k in range(3)]
        with pytest.raises(InvalidArgumentError, match=_TESTS_NOTHING):
            iv.dim2_exception_check(0.0, maps, 20)


def test_an_image_that_leaves_the_domain_tests_something():
    # 0 inside [1, 2], but 2g leaves the domain: the map fails, as it does
    # for any metric on that domain, and is not refused as testing nothing
    zero = mm.Custom(3, R, mm.RadiusDomain(((1.0, 2.0),)), fn=lambda g, h: 0.0)
    v = iv.is_symmetry(la.linear_map(2.0 * np.eye(3)), zero, 20)
    assert not v.is_symmetry and v.skipped == 20 and v.max_deviation == math.inf


def test_a_probe_is_vacuous_only_where_its_own_pairs_are_all_zero(monkeypatch):
    # max(0, p - 4q) is 0 on most pairs, but not on all of the probe's own
    # 4000 at seed 0: a separate draw of 32 pairs saw only zeros there; 25
    # maps see only zeros on their own 40 pairs, so 75 are tested
    spec = mm.FromLambda(3, R, POS, mm.lambda_profile("max(0,p-4*q)"))
    report = iv.congruence_theorem_probe(spec, seed=0)
    assert not report.vacuous and report.maps_tested == 75
    calls = []
    monkeypatch.setattr(iv, "eval_batch", lambda *args: calls.append(args) or mm.eval_batch(*args))
    zero = mm.Custom(3, R, POS, fn=lambda g, h: 0.0)
    assert iv.congruence_theorem_probe(zero, n_maps=5, n_samples=10, n_controls=5).vacuous
    assert len(calls) == 1  # rho_g(h) on the probe's pairs, and no mapped side


@pytest.mark.parametrize("n_maps,n_controls,vacuous,maps_tested,controls_tested", [
    (2, 4, True, 0, 0),  # the controls' last two blocks are not 0, but no map tests anything
    (4, 2, False, 2, 0),  # the maps' last two blocks test; no control does, so none passes
])
def test_a_block_of_zeros_tests_nothing(monkeypatch, n_maps, n_controls, vacuous, maps_tested,
                                        controls_tested):
    # rho read as 0 on the first two blocks of 5 rows of rho_g(h) and of the
    # controls' side: the maps and controls there test nothing, and those
    # controls deviate by 0
    calls = []

    def first_two_blocks_zero(*args):
        values, inside = mm.eval_batch(*args)
        if len(calls) != 1:  # rho_g(h), then the maps' side, then the controls'
            values[:10] = 0.0
        calls.append(args)
        return values, inside

    monkeypatch.setattr(iv, "eval_batch", first_two_blocks_zero)
    report = iv.congruence_theorem_probe(mm.euclidean(3), n_maps=n_maps, n_samples=5,
                                         n_controls=n_controls)
    assert (report.vacuous, report.maps_tested, report.controls_tested) == (
        vacuous, maps_tested, controls_tested)
    if not vacuous:  # the maps tested fail; every control is within its tolerance
        assert report.all_failed and report.control_worst_deviation <= 1e-9
        assert not report.controls_passed


def test_dim2_exception_members():
    stretch = la.linear_map([[2.0, 0.0], [0.0, 0.5]])
    shear = la.linear_map([[1.0, 1.0], [0.0, 1.0]])
    report = iv.dim2_exception_check(1.0, [stretch, shear], 150, seed=5)
    assert report.all_passed, report.max_deviation


def test_dim2_exception_rejects_nonunimodular_and_scaling_fails():
    double = la.linear_map([[2.0, 0.0], [0.0, 2.0]])
    with pytest.raises(ValueError, match="non-unimodular"):
        iv.dim2_exception_check(1.0, [double], 50, seed=6)
    v = iv.is_symmetry(double, mm.area_dim2(1.0), 50, seed=6)
    assert not v.is_symmetry and v.max_deviation > 0.1
    g, h = la.vector([1.0, 0.0]), la.vector([0.0, 1.0])
    spec = mm.area_dim2(1.0)
    assert mm.eval_finsler(spec, la.apply_map(double, g), la.apply_map(double, h)) \
        == pytest.approx(4.0 * mm.eval_finsler(spec, g, h))  # values scale by det = 4


def test_dim2_exception_names_the_first_non_unimodular_map():
    maps = [iv.random_unimodular(k) for k in range(4)]
    maps[2] = la.linear_map([[3.0, 0.0], [0.0, 1.0]])
    maps[3] = la.linear_map([[0.5, 0.0], [0.0, 1.0]])
    d = abs(float(np.linalg.det(maps[2].entries)))  # 3 up to rounding
    message = f"non-unimodular map supplied: |det| = {d}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        iv.dim2_exception_check(1.0, maps, 10)


def test_dim2_exception_random_unimodular_suite():
    maps = [iv.random_unimodular(seed) for seed in range(25)]
    report = iv.dim2_exception_check(1.0, maps, 100, seed=7, tol=1e-9)
    assert report.all_passed, report.max_deviation


def test_rotation_sufficiency_matches_full_group():
    for spec in (mm.euclidean(3),
                 mm.FromTheta(4, R, POS, theta_angular)):
        report = iv.rotation_sufficiency_check(spec, 25, 10, seed=8)
        assert report.consistent and report.rotations_pass and report.orthogonals_pass
        assert report.rotation_max_deviation <= 1e-10


def test_rotation_sufficiency_flags_non_invariant():
    spec = mm.Custom(3, R, POS, fn=lambda g, h: abs(float(h.entries[0])))
    report = iv.rotation_sufficiency_check(spec, 25, 10, seed=9)
    assert report.consistent
    assert not report.rotations_pass and not report.orthogonals_pass


def test_invariance_suite_aggregates():
    verdict = iv.invariance_suite(mm.fubini_study(4, C), 100, seed=10)
    assert verdict.is_symmetry and verdict.samples_used == 100


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_the_suite_images_keep_the_invariants(dim, field, monkeypatch):
    # the pairs and their images as the suite evaluates them: |g|, <h, g> and
    # q are kept to 1e-13 relative, and the frames are orthonormal
    sides = []

    def recording(spec, G, H):
        sides.append((G, H))
        return mm.eval_batch(spec, G, H)

    monkeypatch.setattr(iv, "eval_batch", recording)
    assert iv.invariance_suite(mm.euclidean(dim, field), 500, seed=3).is_symmetry
    (G, H), (UG, UH) = sides
    invariants = []
    for A, B in ((G, H), (UG, UH)):
        r = la.row_norms(A)
        invariants.append((r, *la.pair_invariants_rows(A, B, r)))
    (r, ip, q), (ur, uip, uq) = invariants
    scale = np.hypot(np.abs(ip), q)  # r |h|
    assert np.abs(ur - r).max() <= 1e-13 * r.min()
    assert (np.abs(uip - ip) / scale).max() <= 1e-13
    assert (np.abs(uq - q) / scale).max() <= 1e-13
    u1, u2 = iv._haar_frames(500, dim, field, np.random.default_rng(4))
    assert np.abs(la.row_norms(u1) - 1.0).max() <= 1e-15
    if dim == 1:
        assert u2 is None
    else:
        assert np.abs(la.row_norms(u2) - 1.0).max() <= 1e-15
        assert np.abs(np.vecdot(u1, u2)).max() <= 1e-15


@pytest.mark.parametrize("field", [R, C])
def test_haar_frames_have_the_haar_moments(field):
    # each column of a Haar unitary is uniform on the unit sphere: over 20,000
    # rows at dim 3, E u_i is 0 and E |u_i|^2 is 1/3, each within 0.02
    u1, u2 = iv._haar_frames(20_000, 3, field, np.random.default_rng(8))
    for u in (u1, u2):
        assert np.abs(u.mean(axis=0)).max() <= 0.02
        assert np.abs((np.abs(u) ** 2).mean(axis=0) - 1.0 / 3.0).max() <= 0.02


class _Draws:
    """A generator stand-in: standard_normal returns the given arrays in turn."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        out = self.arrays.pop(0)
        assert out.shape == shape
        return out


def test_haar_frames_draw_a_degenerate_row_again():
    # X's row 0 is 0 and Y's row 1 is parallel to X's: each row is drawn again
    draws = _Draws(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]), np.array([[0.0, 0.0, 2.0]]),
                   np.array([[1.0, 0.0, 0.0], [2.0, 4.0, 6.0]]), np.array([[0.0, 1.0, 0.0]]))
    u1, u2 = iv._haar_frames(2, 3, R, draws)
    assert not draws.arrays
    e = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    w = np.array([0.0, 1.0, 0.0]) - 2.0 / math.sqrt(14.0) * e
    np.testing.assert_allclose(u1, [[0.0, 0.0, 1.0], e], rtol=0, atol=1e-15)
    np.testing.assert_allclose(u2, [[1.0, 0.0, 0.0], w / np.linalg.norm(w)], rtol=0, atol=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", [R, C])
def test_the_suite_passes_in_dim_1_without_a_warning(field):
    # in dim 1 there is no second frame vector: U h = (<h, g>/r) u1
    verdict = iv.invariance_suite(mm.euclidean(1, field))
    assert verdict.is_symmetry and verdict.max_deviation <= 1e-15


@pytest.mark.parametrize("field", [R, C])
def test_the_suite_holds_a_few_sample_arrays_at_dim_5000(field):
    # the suite never builds a unitary: at dim 5000 its traced peak is at most
    # 16 arrays of (samples, dim) entries, where 200 unitaries would take 40 GB or more
    n, dim = 200, 5000
    tracemalloc.start()
    try:
        verdict = iv.invariance_suite(mm.euclidean(dim, field), n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_symmetry
    assert peak <= 16 * n * dim * field.dtype.itemsize, peak


@pytest.mark.parametrize("field", [R, C])
def test_the_probe_holds_a_few_sample_arrays(field):
    # the probe tests all its rows in one pass: at 100 maps and 100 controls
    # of 200 samples in dim 20 its traced peak is at most 8 (rows, dim) arrays
    n_maps, n, dim = 100, 200, 20
    tracemalloc.start()
    try:
        report = iv.congruence_theorem_probe(mm.euclidean(dim, field), n_maps, n,
                                             n_controls=n_maps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_failed and report.controls_passed
    assert peak <= 8 * n_maps * n * dim * field.dtype.itemsize, peak


# ---------------------------------------------------------------------------
# Batched checks against the per-pair loops they replace

def _one_row(spec, g, h):
    """rho_g(h) as eval_batch gives it on that one row: the loops below check
    the batched verdict, exit and witness logic, and rows against eval_finsler
    are test_metrics's test_eval_batch_rows_equal_eval_finsler."""
    return mm.eval_batch(spec, g[None], h[None])[0].item()


def _scalar_symmetry(spec, G, H, TG, TH, tol):
    """The per-pair symmetry loop over given rows, reading every row:
    (verdict, max deviation, witness rows, samples used, skipped).  A row
    whose image base point leaves the domain deviates by inf."""
    vec = lambda row: la.Vector(row, spec.field)  # noqa: E731
    max_dev, witness, skipped = 0.0, None, 0
    for g, h, tg, th in zip(G, H, TG, TH):
        if spec.domain.contains(la.norm(vec(tg))):
            base = _one_row(spec, g, h)
            dev = abs(_one_row(spec, tg, th) - base) / (1.0 + abs(base))
        else:
            dev, skipped = math.inf, skipped + 1
        if dev > max_dev:
            max_dev, witness = dev, (g, h)
    ok = max_dev <= tol
    return ok, max_dev, None if ok else witness, len(G), skipped


def _scalar_homothety(spec, G, H, alpha, tol):
    vec = lambda row: la.Vector(row, spec.field)  # noqa: E731
    max_dev, witness, used = 0.0, None, 0
    for g, h in zip(G, H):
        if not spec.domain.contains(la.norm(vec(alpha * g))):
            continue
        base = _one_row(spec, g, h)
        dev = abs(_one_row(spec, alpha * g, alpha * h) - base) / (1.0 + abs(base))
        if dev > max_dev:
            max_dev, witness = dev, (g, h)
        used += 1
    ok = max_dev <= tol
    return ok, max_dev, None if ok else witness, used, len(G) - used


def _assert_same(verdict, want, name):
    ok, max_dev, witness, used, skipped = want
    got_ok = verdict.invariant if isinstance(verdict, mm.HomothetyVerdict) else verdict.is_symmetry
    assert (got_ok, verdict.samples_used, verdict.skipped) == (ok, used, skipped), name
    # on a symmetry the deviation is rounding noise, held to 1e-14 absolute
    assert verdict.max_deviation == pytest.approx(max_dev, rel=1e-12, abs=1e-14), name
    if witness is None:
        assert verdict.witness is None, name
    else:
        assert np.array_equal(verdict.witness[0].entries, witness[0]), name
        assert np.array_equal(verdict.witness[1].entries, witness[1]), name


def _maps(dim, field, seed):
    u = la.random_unitary(dim, field, seed)
    stretch = np.diag(np.linspace(1.0, 1.02, dim))  # deviations near 1e-2
    return {"unitary": u, "2-unitary": la.LinearMap(2.0 * u.entries, field),
            "1.3-unitary": la.LinearMap(1.3 * u.entries, field),  # leaves (1, 2) part way
            "stretch": la.LinearMap(u.entries @ stretch, field)}


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("dim", [2, 3])
def test_batched_checks_equal_the_scalar_loop(dim, field):
    bounded = mm.RadiusDomain(((1.0, 2.0),))
    # a step metric: many rows tie at the largest deviation, and the witness is the first
    step = mm.Custom(dim, field, POS, fn=lambda g, h: 0.005 * float(g.entries[0].real > 0))
    quotient = mm.CongruenceInvariant(dim, field, bounded, mm.norm_quotient(dim, field).vartheta)
    specs = family_specs(dim, field) + [mm.Euclidean(dim, field, bounded), quotient, step]
    for i, spec in enumerate(specs):
        name = f"{spec.family}#{i}"
        for label, T in _maps(dim, field, 100 + i).items():
            for tol in (1e-9, 1e-5):
                G, H = mm.sample_pairs(spec, 30, np.random.default_rng(i))
                M = T.entries.T
                want = _scalar_symmetry(spec, G, H, G @ M, H @ M, tol)
                _assert_same(iv.is_symmetry(T, spec, 30, seed=i, tol=tol), want, (name, label, tol))
        # the suite's own draw: pairs, then a Haar 2-frame per pair, which
        # carries g to r u1 and h to (<h, g>/r) u1 + (q/r) u2
        rng = np.random.default_rng(i)
        G, H = mm.sample_pairs(spec, 20, rng)
        u1, u2 = iv._haar_frames(20, dim, field, rng)
        r = la.row_norms(G)
        ip, q = la.pair_invariants_rows(G, H, r)
        UG, UH = r[:, None] * u1, (ip / r)[:, None] * u1 + (q / r)[:, None] * u2
        want = _scalar_symmetry(spec, G, H, UG, UH, 1e-9)
        _assert_same(iv.invariance_suite(spec, 20, seed=i), want, (name, "suite"))
        G, H = mm.sample_pairs(spec, 30, np.random.default_rng(i))
        want = _scalar_homothety(spec, G, H, 1.5, 1e-10)
        _assert_same(mm.check_homothety_invariance(spec, 1.5, 30, seed=i), want, (name, "homothety"))


def test_a_verdicts_witness_owns_its_rows():
    # a failed check's witness rows are copies, so a verdict does not keep its
    # whole sample arrays alive: 200 rows for a symmetry or homothety check
    # at their defaults, 1000 for a round-trip
    verdicts = [iv.is_symmetry(la.LinearMap(2.0 * np.eye(3), R), mm.euclidean(3)),
                mm.check_homothety_invariance(mm.euclidean(3), 1.5),
                dc.roundtrip_check(mm.euclidean(3), mm.norm_quotient(3))]
    for v in verdicts:
        assert v.witness is not None and all(w.entries.base is None for w in v.witness), v


def test_batched_checks_cover_domain_exits_and_skips():
    # the cases the comparison above must include, checked directly
    bounded = mm.RadiusDomain(((1.0, 2.0),))
    quotient = mm.CongruenceInvariant(3, R, bounded, mm.norm_quotient(3, R).vartheta)
    v = iv.is_symmetry(la.LinearMap(1.3 * np.eye(3), R), quotient, 30, seed=1)
    assert 1 < v.skipped < 30 and v.samples_used == 30 and v.max_deviation == math.inf
    h = mm.check_homothety_invariance(mm.Euclidean(3, R, bounded), 1.5, 30, seed=1)
    assert 0 < h.skipped < 30 and h.samples_used + h.skipped == 30
    # rows above 1000x the tolerance before the largest one: every row is read
    T = _maps(3, R, 100)["stretch"]
    stretch = iv.is_symmetry(T, mm.euclidean(3), 30, seed=1, tol=1e-5)
    G, H = mm.sample_pairs(mm.euclidean(3), 30, np.random.default_rng(1))
    base, _ = mm.eval_batch(mm.euclidean(3), G, H)
    mapped, _ = mm.eval_batch(mm.euclidean(3), G @ T.entries.T, H @ T.entries.T)
    dev = mm.deviations(mapped, base, base)
    assert np.flatnonzero(dev > 1e-2)[0] < dev.argmax()
    assert stretch.samples_used == 30 and stretch.max_deviation == dev.max()
    assert not stretch.is_symmetry


def test_checks_pass_over_rows_where_rho_is_infinite():
    # rho = inf at g and at Ug gives a NaN deviation, which does not fail a symmetry
    spec = mm.FromTheta(3, R, POS, mm.theta_profile(OVERFLOWING_THETA))
    G, H = mm.sample_pairs(spec, 200, np.random.default_rng(0))
    values, _ = mm.eval_batch(spec, G, H)
    assert 10 < np.isinf(values).sum() < 190
    u = la.random_unitary(3, R, 5)
    v = iv.is_symmetry(u, spec, 200, seed=0)
    assert v.is_symmetry and v.samples_used == 200 and v.max_deviation <= 1e-9
    assert iv.invariance_suite(spec, 50, seed=0).is_symmetry
    assert not iv.is_symmetry(la.LinearMap(2.0 * u.entries, R), spec, 200, seed=0).is_symmetry
    report = iv.congruence_theorem_probe(spec, n_maps=5, n_samples=40, seed=0, n_controls=5)
    assert report.controls_passed and report.all_failed


def test_a_verdict_reads_every_sample():
    # the first sample deviates by 0.485; every one of the 40 by more than
    # 1e-6, and the largest by 1.747
    T = la.linear_map(np.random.default_rng(3).standard_normal((3, 3)))
    v = iv.is_symmetry(T, mm.euclidean(3), 40, seed=0)
    assert (v.max_deviation, v.samples_used, v.skipped) == (1.7466785816883044, 40, 0)
    assert not v.is_symmetry


def _permuting(n, seed):
    """sample_pairs with the rows of each block of n permuted, the same
    permutation in G and H; a draw that is not whole blocks is left alone."""
    def draw(spec, count, rng):
        G, H = mm.sample_pairs(spec, count, rng)
        if count % n:
            return G, H
        order = np.random.default_rng(seed).permuted(np.arange(count).reshape(-1, n), axis=1)
        return G[order.ravel()], H[order.ravel()]
    return draw


@pytest.mark.parametrize("field", [R, C])
def test_permuting_each_maps_samples_changes_no_verdict(field, monkeypatch):
    # each map's largest deviation, skipped count and witness pair do not
    # depend on the order of its samples; the maps pass, fail by a little or
    # by much, or leave the domain on some rows
    bounded = mm.CongruenceInvariant(3, field, mm.RadiusDomain(((1.0, 2.0),)),
                                     mm.norm_quotient(3, field).vartheta)
    u = la.random_unitary(3, field, 4).entries
    cases = [(bounded, u), (bounded, 1.3 * u), (bounded, u @ np.diag([1.0, 1.0, 1.0 + 3e-6])),
             (mm.euclidean(3, field), u @ np.diag([1.0, 1.1, 1.3])),
             (mm.euclidean(3, field), la.random_gaussian_rows(3, 3, field,
                                                              np.random.default_rng(5)))]
    n = 40
    plain = [iv.is_symmetry(la.LinearMap(M, field), spec, n, seed=i)
             for i, (spec, M) in enumerate(cases)]
    assert [v.is_symmetry for v in plain] == [True, False, False, False, False]
    assert [v.skipped > 0 for v in plain] == [False, True, False, False, False]
    probe = iv.congruence_theorem_probe(mm.euclidean(3, field), n_maps=8, n_samples=n,
                                        n_controls=8)
    for seed in range(3):
        monkeypatch.setattr(iv, "sample_pairs", _permuting(n, seed))
        for i, ((spec, M), want) in enumerate(zip(cases, plain)):
            got = iv.is_symmetry(la.LinearMap(M, field), spec, n, seed=i)
            assert (got.is_symmetry, got.max_deviation, got.skipped) \
                == (want.is_symmetry, want.max_deviation, want.skipped), (seed, i)
            if want.skipped:  # many rows tie at inf: the witness is one of them
                image = la.Vector(M @ got.witness[0].entries, field)
                assert not spec.domain.contains(la.norm(image)), (seed, i)
            elif want.witness is None:
                assert got.witness is None
            else:
                for a, b in zip(got.witness, want.witness):
                    assert np.array_equal(a.entries, b.entries), (seed, i)
        got = iv.congruence_theorem_probe(mm.euclidean(3, field), n_maps=8, n_samples=n,
                                          n_controls=8)
        assert (got.weakest_deviation, got.control_worst_deviation) \
            == (probe.weakest_deviation, probe.control_worst_deviation), seed
        monkeypatch.undo()


def test_a_min_sv_ratio_the_maps_cannot_reach_raises():
    # a ratio that is not a finite number >= 1 is refused; one that Gaussian
    # maps do not reach ends after the capped draw rounds, naming the ratio
    for ratio in (math.nan, math.inf, 0.5, -1.0):
        with pytest.raises(ValueError, match="min_sv_ratio must be a finite number >= 1"):
            iv.congruence_theorem_probe(mm.euclidean(3), n_maps=1, n_samples=2,
                                        min_sv_ratio=ratio)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="ratio >= 1000000000000.0 in 1000 draw rounds"):
        iv.congruence_theorem_probe(mm.euclidean(3), n_maps=3, n_samples=2, min_sv_ratio=1e12)
    assert time.perf_counter() - started < 10.0  # about 0.05 s on a 2-core machine
    report = iv.congruence_theorem_probe(mm.euclidean(3), n_maps=3, n_samples=2, min_sv_ratio=1.0)
    assert report.maps_tested == 3 and report.all_failed


@pytest.mark.parametrize("field", [R, C])
def test_a_stacked_verdict_equals_is_symmetry_on_the_same_rows(field):
    # maps whose images leave the domain on some rows or on none, in a stack
    # and in a shorter second stack on the same rows, which ends mid-way
    spec = mm.CongruenceInvariant(3, field, mm.RadiusDomain(((1.0, 2.0),)),
                                  mm.norm_quotient(3, field).vartheta)
    u = la.random_unitary(3, field, 4).entries
    maps = [u, 1.3 * u, u @ np.diag([1.0, 1.0, 1.0 + 3e-6]), u @ np.diag([1.0, 1.0, 2.0]),
            u @ np.diag([1.0, 1.0, 1.0 + 1e-8]), 1.2 * u]
    n = 40
    pairs = [mm.sample_pairs(spec, n, np.random.default_rng(seed)) for seed in range(len(maps))]
    G, H = (np.concatenate(rows) for rows in zip(*pairs))
    short = [maps[3], maps[1], maps[0]]  # its map i also reads rows i*n ..
    base, _ = mm.eval_batch(spec, G, H)
    stacks = iv._symmetry_deviations(spec, G, H, base, [np.stack(maps), np.stack(short)])
    alone, alone_short = ([iv.is_symmetry(la.LinearMap(m, field), spec, n, seed=seed, tol=1e-9)
                           for seed, m in enumerate(stack)] for stack in (maps, short))
    for (dev, leaves), want_stack in zip(stacks, (alone, alone_short)):
        assert dev.shape == leaves.shape == (len(want_stack), n)
        for i, want in enumerate(want_stack):
            rows = slice(i * n, (i + 1) * n)
            ok, largest, witness = mm.verdict(dev[i], 1e-9, (G[rows], H[rows]), field)
            assert (ok, largest, n, int(leaves[i].sum())) \
                == (want.is_symmetry, want.max_deviation, want.samples_used, want.skipped), i
            if want.witness is None:
                assert witness is None, i
            else:
                for a, b in zip(witness, want.witness):
                    assert a.field is b.field and np.array_equal(a.entries, b.entries), i
    # the cases the stack must hold: a pass, domain exits on some rows only,
    # and small failures without one
    assert alone[0].is_symmetry and alone[0].samples_used == n
    assert [v.skipped > 0 for v in alone] == [False, True, False, True, False, True]
    assert all(1 < v.skipped < n and v.max_deviation == math.inf for v in alone if v.skipped)
    assert not alone[2].is_symmetry and alone[2].max_deviation < 1e-5
    assert not alone[4].is_symmetry and alone[4].max_deviation < 1e-7


def _reference_deviation(spec, M, G, H):
    """One map's largest deviation on its own rows, with plain eval_batch
    calls; inf where an image base point leaves the domain."""
    base, _ = mm.eval_batch(spec, G, H)
    mapped, inside = mm.eval_batch(spec, G @ M.T, H @ M.T)
    dev = mm.deviations(mapped, base, base)
    dev[~inside] = math.inf
    return float(dev.max())


@pytest.mark.parametrize("n_maps, n_controls", [(12, 5), (8, 8), (5, 12)])
@pytest.mark.parametrize("field", [R, C])
def test_the_probe_reads_one_draw_and_control_i_reads_map_i_rows(field, n_maps, n_controls):
    # the map stream replayed by hand: the maps, then max(n_maps, n_controls)
    # * n pairs; the controls' unitaries and scales come from the third stream
    spec, n, seed = mm.norm_quotient(3, field), 30, 11
    _, map_ss, control_ss = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(map_ss)
    maps = iv._random_noncongruences(n_maps, 3, field, rng, 1.1)
    G, H = mm.sample_pairs(spec, max(n_maps, n_controls) * n, rng)
    rng = np.random.default_rng(control_ss)
    controls = la.random_unitaries(n_controls, 3, field, rng)
    controls *= np.exp(rng.uniform(-np.log(2.0), np.log(2.0), n_controls))[:, None, None]
    rows = lambda i: slice(i * n, (i + 1) * n)  # noqa: E731
    found = [_reference_deviation(spec, M, G[rows(i)], H[rows(i)]) for i, M in enumerate(maps)]
    checked = [_reference_deviation(spec, M, G[rows(i)], H[rows(i)])
               for i, M in enumerate(controls)]
    report = iv.congruence_theorem_probe(spec, n_maps=n_maps, n_samples=n, seed=seed,
                                         n_controls=n_controls)
    weakest = int(np.argmin(found))
    assert report.weakest_deviation == found[weakest]
    assert np.array_equal(report.weakest_map.entries, maps[weakest])
    assert report.control_worst_deviation == max(checked)
    assert report.all_failed and report.controls_passed


def test_probes_evaluate_one_batch_per_side(monkeypatch):
    rows = []

    def counting(spec, G, H):
        rows.append(len(G))
        return mm.eval_batch(spec, G, H)

    monkeypatch.setattr(iv, "eval_batch", counting)
    iv.congruence_theorem_probe(mm.euclidean(3), seed=1)  # 100 maps, 100 controls, 40 samples
    # rho_g(h), which is also the zero-metric test, then the maps and the controls
    assert rows == [4000] * 3
    rows.clear()
    iv.rotation_sufficiency_check(mm.euclidean(3), 100, 20)
    # rho_g(h) once, then the rotations and the orthogonal maps
    assert rows == [2000] * 3
    rows.clear()
    iv.dim2_exception_check(1.0, [iv.random_unimodular(k) for k in range(30)], 40, seed=2)
    assert rows == [1200, 1200]
    rows.clear()
    iv.invariance_suite(mm.euclidean(3))  # 200 pairs and their images
    assert rows == [200, 200]
    rows.clear()
    iv.invariance_suite(mm.euclidean(3), 4200)
    assert rows == [4200, 4200]
    rows.clear()
    iv.congruence_theorem_probe(mm.euclidean(3), n_maps=150, n_samples=40, n_controls=120)
    assert rows == [6000, 6000, 4800]  # the controls read the first 120 maps' rows


def test_is_symmetry_fails_a_map_whose_image_is_finite_where_rho_is_infinite():
    # |h|/|g| is unchanged, bit for bit, when g and h are halved; rho = inf for
    # |g| > 2, so a pair with 2 < |g| <= 4 maps from inf to a finite value
    spec = mm.Custom(3, R, POS,
                     fn=lambda g, h: math.inf if la.norm(g) > 2.0 else la.norm(h) / la.norm(g))
    v = iv.is_symmetry(la.LinearMap(0.5 * np.eye(3), R), spec, 200, seed=0)
    assert not v.is_symmetry and v.max_deviation == math.inf and v.skipped == 0
    assert 2.0 < la.norm(v.witness[0]) <= 4.0


# ---------------------------------------------------------------------------
# Invariance and homogeneity on generated pairs

# The one family_specs entry not homogeneous of degree 1 in h; Custom is left
# out of both properties, since its metric depends on g's first coordinate.
NOT_DEGREE_ONE = "max(p,q)+min(p,q)^2/(p+q+r)+exp(0-r)*log(1+q)*tan(0.5)"


@pytest.mark.parametrize("field", [R, C])
@pytest.mark.parametrize("dim", [2, 3, 5])
@settings(max_examples=30, deadline=None, database=None)
@given(pair_cases(-12.0, -4.0), st.floats(0.01, 100.0))
def test_invariance_and_homogeneity_on_generated_pairs(dim, field, case, t):
    """rho_{Ug}(Uh) = rho_g(h) for a Haar unitary U and rho_g(t h) = t rho_g(h)
    for t > 0, within 1e-9 (1 + |rho|), on generic, near-collinear and
    near-orthogonal pairs."""
    g, h = near_pair(dim, field, *case)
    u = la.random_unitary(dim, field, case[0]).entries
    G, H = np.stack([g, u @ g, g]), np.stack([h, u @ h, t * h])
    for spec in family_specs(dim, field):
        if spec.family == "custom":
            continue
        values, inside = mm.eval_batch(spec, G, H)
        with np.errstate(over="ignore"):  # rho near the largest double, times t
            want = values[0] * np.array([1.0, t])
        moved, scaled = mm.deviations(values[1:], want, want)
        assert inside.all() and moved <= 1e-9, (spec.family, case)
        if not (spec.family == "lambda" and getattr(spec.lam, "text", None) == NOT_DEGREE_ONE):
            assert scaled <= 1e-9, (spec.family, case, t)
