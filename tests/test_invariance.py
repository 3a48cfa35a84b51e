import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import MismatchError
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
    with pytest.raises(ValueError, match="at least one map"):
        iv.congruence_theorem_probe(mm.euclidean(3), n_maps=0)


def test_checks_of_nothing_raise():
    spec = mm.euclidean(3)
    with pytest.raises(ValueError, match="at least one sample"):
        iv.is_symmetry(la.linear_map(np.eye(3)), spec, 0)
    with pytest.raises(ValueError, match="at least one unitary"):
        iv.invariance_suite(spec, 0)
    with pytest.raises(ValueError, match="at least one map"):
        iv.dim2_exception_check(1.0, [])
    with pytest.raises(ValueError, match="at least one rotation"):
        iv.rotation_sufficiency_check(spec, 0)
    with pytest.raises(ValueError, match="homothety check needs at least one sample"):
        mm.check_homothety_invariance(spec, 2.0, 0)


def test_theorem_probe_vacuous_spec_reported():
    spec = mm.Custom(3, R, POS, fn=lambda g, h: 0.0)
    report = iv.congruence_theorem_probe(spec, n_maps=5, n_samples=10, seed=0, n_controls=5)
    assert report.vacuous and report.maps_tested == 0


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


def test_probe_report_serializes():
    t = la.linear_map([[2.0, 0.0], [0.0, 1.0]])
    v = iv.is_symmetry(t, mm.euclidean(2), 20, seed=11)
    obj = iv.verdict_to_json(v, {"family": "euclidean"})
    assert obj["verdict"] == "not-symmetry"
    assert obj["witness"] is not None



# ---------------------------------------------------------------------------
# Batched checks against the per-pair loops they replace

def _scalar_symmetry(spec, G, H, TG, TH, tol, exit_early):
    """The per-pair symmetry loop over given rows: (verdict, max deviation,
    witness rows, samples used, skipped)."""
    vec = lambda row: la.Vector(row, spec.field)  # noqa: E731
    max_dev, witness, used, skipped = 0.0, None, 0, 0
    for g, h, tg, th in zip(G, H, TG, TH):
        base = mm.eval_finsler(spec, vec(g), vec(h))
        used += 1
        if not spec.domain.contains(la.norm(vec(tg))):
            max_dev, witness, skipped = math.inf, (g, h), 1
            break
        dev = abs(mm.eval_finsler(spec, vec(tg), vec(th)) - base) / (1.0 + abs(base))
        if dev > max_dev:
            max_dev, witness = dev, (g, h)
        if exit_early and dev > 1e3 * tol:
            break
    ok = skipped == 0 and max_dev <= tol
    return ok, max_dev, None if ok else witness, used, skipped


def _scalar_homothety(spec, G, H, alpha, tol):
    vec = lambda row: la.Vector(row, spec.field)  # noqa: E731
    max_dev, witness, used = 0.0, None, 0
    for g, h in zip(G, H):
        if not spec.domain.contains(la.norm(vec(alpha * g))):
            continue
        base = mm.eval_finsler(spec, vec(g), vec(h))
        dev = abs(mm.eval_finsler(spec, vec(alpha * g), vec(alpha * h)) - base)
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
    stretch = np.diag(np.linspace(1.0, 1.02, dim))  # deviations near 1e-2: exits at tol 1e-5
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
                want = _scalar_symmetry(spec, G, H, G @ M, H @ M, tol, exit_early=True)
                _assert_same(iv.is_symmetry(T, spec, 30, seed=i, tol=tol), want, (name, label, tol))
        rng = np.random.default_rng(i)  # the suite's own draw: unitaries, then pairs
        U = la.random_unitaries(20, dim, field, rng)
        G, H = mm.sample_pairs(spec, 20, rng)
        want = _scalar_symmetry(spec, G, H, (U @ G[:, :, None])[:, :, 0],
                                (U @ H[:, :, None])[:, :, 0], 1e-9, exit_early=False)
        _assert_same(iv.invariance_suite(spec, 20, seed=i), want, (name, "suite"))
        G, H = mm.sample_pairs(spec, 30, np.random.default_rng(i))
        want = _scalar_homothety(spec, G, H, 1.5, 1e-10)
        _assert_same(mm.check_homothety_invariance(spec, 1.5, 30, seed=i), want, (name, "homothety"))


def test_batched_checks_cover_domain_exits_and_skips():
    # the cases the comparison above must include, checked directly
    bounded = mm.RadiusDomain(((1.0, 2.0),))
    quotient = mm.CongruenceInvariant(3, R, bounded, mm.norm_quotient(3, R).vartheta)
    v = iv.is_symmetry(la.LinearMap(1.3 * np.eye(3), R), quotient, 30, seed=1)
    assert v.skipped == 1 and v.samples_used > 1 and v.max_deviation == math.inf
    h = mm.check_homothety_invariance(mm.Euclidean(3, R, bounded), 1.5, 30, seed=1)
    assert 0 < h.skipped < 30 and h.samples_used + h.skipped == 30
    stretch = iv.is_symmetry(_maps(3, R, 100)["stretch"], mm.euclidean(3), 30, seed=1, tol=1e-5)
    assert 1 < stretch.samples_used < 30 and not stretch.is_symmetry


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


def test_probe_report_counts_samples():
    report = iv.congruence_theorem_probe(mm.euclidean(3), n_maps=10, n_samples=20, seed=3,
                                         n_controls=5)
    assert (report.map_samples, report.control_samples) == (173, 100)
    vacuous = iv.congruence_theorem_probe(mm.Custom(3, R, POS, fn=lambda g, h: 0.0), n_maps=5)
    assert (vacuous.map_samples, vacuous.control_samples) == (0, 0)


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


@pytest.mark.parametrize("block_rows", [iv._BLOCK_ROWS, 80])
@pytest.mark.parametrize("field", [R, C])
def test_a_stacked_verdict_equals_is_symmetry_on_the_same_rows(field, block_rows,
                                                                   monkeypatch):
    # one stack, maps that exit at different rows or not at all; at 80 rows a
    # block holds two maps' samples, so blocks split the stack
    monkeypatch.setattr(iv, "_BLOCK_ROWS", block_rows)
    spec = mm.CongruenceInvariant(3, field, mm.RadiusDomain(((1.0, 2.0),)),
                                  mm.norm_quotient(3, field).vartheta)
    u = la.random_unitary(3, field, 4).entries
    maps = [u, 1.3 * u, u @ np.diag([1.0, 1.0, 1.0 + 3e-6]), u @ np.diag([1.0, 1.0, 2.0]),
            u @ np.diag([1.0, 1.0, 1.0 + 1e-8]), 1.2 * u]
    n = 40
    pairs = [mm.sample_pairs(spec, n, np.random.default_rng(seed)) for seed in range(len(maps))]
    G, H = (np.concatenate(rows) for rows in zip(*pairs))
    stacked = iv._symmetry_verdicts(spec, np.stack(maps), G, H, 1e-9)
    alone = [iv.is_symmetry(la.LinearMap(m, field), spec, n, seed=seed, tol=1e-9)
             for seed, m in enumerate(maps)]
    for i, (got, want) in enumerate(zip(stacked, alone)):
        assert (got.is_symmetry, got.max_deviation, got.samples_used, got.skipped) \
            == (want.is_symmetry, want.max_deviation, want.samples_used, want.skipped), i
        if want.witness is None:
            assert got.witness is None, i
        else:
            for a, b in zip(got.witness, want.witness):
                assert a.field is b.field and np.array_equal(a.entries, b.entries), i
    # the cases the stack must hold: no exit, domain exits and deviation exits
    # at different rows, and a failure with no exit
    assert alone[0].is_symmetry and alone[0].samples_used == n
    assert [v.skipped for v in alone] == [0, 1, 0, 0, 0, 1]
    assert alone[1].samples_used > 1 and alone[1].max_deviation == math.inf
    assert 1 < alone[2].samples_used < n and alone[2].max_deviation > 1e-6
    assert alone[3].samples_used == 1 and alone[3].max_deviation > 1e-6
    assert not alone[4].is_symmetry and alone[4].samples_used == n


def test_probes_evaluate_one_batch_per_side_per_block(monkeypatch):
    rows = []

    def counting(spec, G, H):
        rows.append(len(G))
        return mm.eval_batch(spec, G, H)

    monkeypatch.setattr(iv, "eval_batch", counting)
    iv.congruence_theorem_probe(mm.euclidean(3), seed=1)  # 100 maps, 100 controls, 40 samples
    # the zero-metric test, then 4 blocks of 25 maps each for the maps and the controls
    assert rows == [32] + [1000] * 16
    rows.clear()
    iv.dim2_exception_check(1.0, [iv.random_unimodular(k) for k in range(30)], 40, seed=2)
    assert rows == [1000, 1000, 200, 200]


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
