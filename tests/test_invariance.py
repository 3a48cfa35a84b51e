import math

import numpy as np
import pytest

from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.errors import MismatchError
from helpers import POS, probe_battery, theta_angular

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
        iv.is_symmetry(la.identity_map(2), mm.euclidean(3))


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
    spec = mm.FromTheta(3, C, POS, mm.ThetaProfile(theta_angular))
    t1 = la.random_unitary(3, C, 21)
    t2 = la.random_unitary(3, C, 22)
    tol = 1e-10
    assert iv.is_symmetry(t1, spec, 100, seed=3, tol=tol).is_symmetry
    assert iv.is_symmetry(t2, spec, 100, seed=3, tol=tol).is_symmetry
    assert iv.is_symmetry(la.compose(t1, t2), spec, 100, seed=3, tol=3 * tol).is_symmetry


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
        iv.is_symmetry(la.identity_map(3), spec, 0)
    with pytest.raises(ValueError, match="at least one unitary"):
        iv.invariance_suite(spec, 0)
    with pytest.raises(ValueError, match="at least one unitary"):
        iv.invariance_suite(spec, 5, unitaries=[])
    with pytest.raises(ValueError, match="at least one map"):
        iv.dim2_exception_check(1.0, [])
    with pytest.raises(ValueError, match="at least one rotation"):
        iv.rotation_sufficiency_check(spec, 0)


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
                 mm.FromTheta(4, R, POS, mm.ThetaProfile(theta_angular))):
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

