"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest

from finsler_iso import decompose as dc
from finsler_iso import geometry as ge
from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from finsler_iso.expressions import ParseError, evaluate, parse, to_string
from helpers import POS, battery, knn_graph_distance, probe_battery, sample_pair

R, C = la.Field.REAL, la.Field.COMPLEX
HALF_PI = 0.5 * math.pi


def report(n, message):
    print(f"\n[criterion {n}] PASS — {message}")


# ---------------------------------------------------------------------------

def test_criterion_1_isometry_invariance_suite():
    started = time.time()
    worst = 0.0
    combos = 0
    for dim in (2, 3, 5):
        for field in (R, C):
            unitaries = [la.random_unitary(dim, field, 1000 * dim + seed)
                         for seed in range(500)]
            rng = np.random.default_rng(dim)
            for name, spec in battery(dim, field):
                combos += 1
                for u in unitaries:
                    g, h = sample_pair(spec, rng)
                    base = mm.eval_finsler(spec, g, h)
                    mapped = mm.eval_finsler(spec, la.apply_map(u, g), la.apply_map(u, h))
                    dev = abs(mapped - base) / (1.0 + abs(base))
                    assert dev <= 1e-9, (name, dim, field, dev)
                    worst = max(worst, dev)
                    if name == "fubini-study":
                        # second form: the sesquilinear values themselves
                        f = la.random_gaussian_vector(dim, field, rng)
                        s0 = mm.eval_sesquilinear(spec, g, f, h)
                        s1 = mm.eval_sesquilinear(spec, la.apply_map(u, g),
                                                  la.apply_map(u, f), la.apply_map(u, h))
                        dev = abs(s1 - s0) / (1.0 + abs(s0))
                        assert dev <= 1e-9, ("fubini-study sesquilinear", dim, field, dev)
                        worst = max(worst, dev)
    elapsed = time.time() - started
    assert elapsed <= 10.0, f"invariance suite took {elapsed:.1f}s"
    report(1, f"isometry invariance: {combos} spec/dim/field combos x 500 unitaries, "
              f"max deviation {worst:.2e} ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------

def _roundtrip_spec(name, spec):
    lam = dc.extract_lambda(spec, check_alpha=False)
    if name == "nonsym":
        return mm.FromNonSymLambda(spec.dim, spec.field, POS, lam)
    # reconstruct through the canonical lambda form: the theta form loses the
    # stable orthogonal component exactly at the collinear edge pairs
    return mm.FromLambda(spec.dim, spec.field, POS, lam)


def test_criterion_2_decomposition_roundtrips():
    started = time.time()
    worst = 0.0
    for field in (R, C):
        for name, spec in battery(3, field):
            rebuilt = _roundtrip_spec(name, spec)
            rep = dc.roundtrip_check(spec, rebuilt,
                                     n_samples=1000, seed=101, tol=1e-9)
            assert rep.passed, (name, field, rep.max_relative_deviation)
            worst = max(worst, rep.max_relative_deviation)
        # Fubini-Study second form: (phi, psi) extraction against sigma triples
        sesq = dc.sesqui_oracle_from_spec(mm.fubini_study(3, field))
        rebuilt = mm.induced_finsler(dc.extract_phi_psi(sesq), 3, field)
        rep = dc.roundtrip_check(sesq, rebuilt, n_samples=1000, seed=102, tol=1e-9)
        assert rep.passed, ("fubini-study sesquilinear", field, rep.max_relative_deviation)
        worst = max(worst, rep.max_relative_deviation)

    # theta extraction agrees with closed forms on a grid
    th = dc.extract_theta(mm.fubini_study(3))
    for r in (0.5, 1.0, 2.0):
        for tau in np.linspace(0.0, HALF_PI, 7):
            assert th(r, float(tau)) == pytest.approx(math.sin(tau) / r,
                                                         rel=1e-9, abs=1e-12)

    # basis independence: rotated extraction frames give the same profiles
    grid = [(r, 0.8 * math.cos(a), 0.8 * math.sin(a))
            for r in (0.5, 1.0, 2.0) for a in np.linspace(0.0, HALF_PI, 5)]
    frame_worst = 0.0
    for field in (R, C):
        for name, spec in battery(3, field):
            if name == "nonsym":
                continue
            lam0 = dc.extract_lambda(spec, check_alpha=False)
            for seed in range(20):
                rot = la.random_rotation(3, seed)
                rot_entries = rot.entries.astype(field.dtype)
                e = la.Vector(np.ascontiguousarray(rot_entries[:, 0]), field)
                f = la.Vector(np.ascontiguousarray(rot_entries[:, 1]), field)
                lam1 = dc.extract_lambda(spec, frame=(e, f), check_alpha=False)
                for r, p, q in grid:
                    a, b = lam0(r, p, q), lam1(r, p, q)
                    dev = abs(a - b) / (1.0 + abs(a))
                    assert dev <= 1e-9, (name, field, seed, dev)
                    frame_worst = max(frame_worst, dev)
    elapsed = time.time() - started
    report(2, f"decomposition round-trips at 1e-9 (worst {worst:.2e}); basis "
              f"independence over 20 rotations (worst {frame_worst:.2e}) ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------

def test_criterion_3_pd_criterion_vs_eigenvalue_oracle():
    started = time.time()
    rng = np.random.default_rng(33)
    agreements = 0
    for case in range(200):
        dim = int(rng.integers(2, 7))
        field = R if case % 2 else C
        r2 = float(rng.uniform(0.3, 3.0))
        if case % 5 == 0:
            s = float(rng.uniform(0.5, 2.0))
            profile = mm.congruence_invariant_riemann(s, -s)  # degenerate boundary
        else:
            a, b = (float(x) for x in rng.uniform(-2.0, 2.0, size=2))
            profile = mm.RiemannProfile(lambda r, a=a: a, lambda r, b=b: b)
        spec = mm.FromRiemann(dim, field, POS, profile)
        verdict = mm.check_positive_definite(spec, [r2], tol=1e-8)[0]
        u = la.random_unitary(dim, field, 7000 + case)
        cols = [la.Vector(np.ascontiguousarray(u.entries[:, i]), field) for i in range(dim)]
        g = la.random_vector_with_norm(dim, field, math.sqrt(r2), rng)
        gram = np.array([[mm.eval_sesquilinear(spec, g, ci, cj) for cj in cols]
                         for ci in cols])
        eig = float(np.linalg.eigvalsh(gram).min())
        if eig > 1e-8:
            expected = mm.PDVerdict.POSITIVE_DEFINITE
        elif eig >= -1e-8:
            expected = mm.PDVerdict.SEMI_DEFINITE_DEGENERATE
        else:
            expected = mm.PDVerdict.INDEFINITE
        assert verdict is expected, (case, verdict, eig)
        agreements += 1
    report(3, f"positive-definiteness criterion matches the Gram eigenvalue "
              f"oracle in {agreements}/200 cases ({time.time() - started:.1f}s)")


# ---------------------------------------------------------------------------

def test_criterion_4_kaehler_checks():
    started = time.time()
    fs = mm.fubini_study(2, C)
    r_samples = [float(r) for r in np.linspace(0.3, 4.0, 50)]
    results = mm.check_kaehler(fs, r_samples, tol=1e-6)
    assert all(results)

    # no metric in the congruence-invariant family is both PD and Kaehler
    grid = np.linspace(-2.0, 2.0, 41)
    probe_rs = [0.5, 1.0, 2.0]
    both = 0
    for a in grid:
        for b in grid:
            spec = mm.FromRiemann(2, C, POS, mm.congruence_invariant_riemann(float(a), float(b)))
            pd = all(v is mm.PDVerdict.POSITIVE_DEFINITE
                     for v in mm.check_positive_definite(spec, probe_rs))
            if not pd:
                continue
            if all(mm.check_kaehler(spec, probe_rs)):
                both += 1
    assert both == 0
    report(4, f"Fubini-Study satisfies the derivative criterion at 50 radii within "
              f"1e-6; PD-and-Kaehler empty over the 41x41 grid ({time.time() - started:.1f}s)")


# ---------------------------------------------------------------------------

def test_criterion_5_congruence_theorem_probe():
    started = time.time()
    weakest = math.inf
    control_worst = 0.0
    seed = 51
    for dim in (3, 4, 5):
        for field in (R, C):
            for name, spec in probe_battery(dim, field):
                seed += 1
                rep = iv.congruence_theorem_probe(spec, n_maps=100, n_samples=40, seed=seed,
                                            min_sv_ratio=1.1, deviation_threshold=1e-3,
                                            n_controls=100, control_tol=1e-9)
                assert not rep.vacuous, (name, dim, field)
                assert rep.all_failed and rep.weakest_deviation > 1e-3, \
                    (name, dim, field, rep.weakest_deviation)
                assert rep.controls_passed, (name, dim, field, rep.control_worst_deviation)
                weakest = min(weakest, rep.weakest_deviation)
                control_worst = max(control_worst, rep.control_worst_deviation)

    # dimension-2 exception
    maps = [iv.random_unimodular(9000 + k) for k in range(100)]
    d2 = iv.dim2_exception_check(1.0, maps, n_samples=80, seed=52, tol=1e-9)
    assert d2.all_passed, d2.max_deviation
    doubled = la.LinearMap(2.0 * np.eye(2), R)
    assert not iv.is_symmetry(doubled, mm.area_dim2(1.0), 50, seed=53).is_symmetry

    elapsed = time.time() - started
    assert elapsed <= 30.0, f"theorem probe took {elapsed:.1f}s"
    report(5, f"all sampled non-congruence maps fail (weakest deviation {weakest:.2e} "
              f"> 1e-3), congruence controls pass (worst {control_worst:.2e}); dim-2 "
              f"area exception holds under 100 unimodular maps ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------

def test_criterion_6_lengths():
    started = time.time()
    quarter = ge.circle_arc(3)
    euclid_len = ge.curve_length(mm.euclidean(3), quarter, 10001)
    fs_len = ge.curve_length(mm.fubini_study(3), quarter, 10001)
    assert euclid_len == pytest.approx(HALF_PI, abs=1e-6)
    assert fs_len == pytest.approx(HALF_PI, abs=1e-6)

    degenerate = mm.FromLambda(3, R, POS, mm.lambda_profile("p/r"))
    on_sphere = abs(ge.curve_length(degenerate, quarter, 10001))
    assert on_sphere <= 1e-9

    d1 = ge.polygonal_delta_length("delta1", quarter, 10000)
    d2 = ge.polygonal_delta_length("delta2", quarter, 10000)
    assert d1 == pytest.approx(HALF_PI, abs=1e-3)
    assert d2 == pytest.approx(HALF_PI, abs=1e-3)

    table = ge.intrinsification_ratio(ge.circle_arc(2), 0.0, [1e-1, 1e-2, 1e-3, 1e-4])
    assert table.rows[-1][0] == 1e-4
    assert abs(table.rows[-1][1] - table.sigma_value) <= 1e-3
    assert abs(table.rows[-1][2] - table.sigma_value) <= 1e-3

    report(6, f"quarter-circle lengths {euclid_len:.9f} (Euclidean) and {fs_len:.9f} "
              f"(Fubini-Study) within 1e-6 of pi/2; degenerate on-sphere length "
              f"{on_sphere:.1e}; polygonal and intrinsification limits within "
              f"tolerance ({time.time() - started:.1f}s)")


# ---------------------------------------------------------------------------

def test_criterion_7_geodesics():
    started = time.time()
    rng = np.random.default_rng(71)
    spec3 = mm.euclidean(3)
    worst_chord = 0.0
    for k in range(20):
        g = la.random_vector_with_norm(3, R, float(rng.uniform(0.5, 2.0)), rng)
        h = la.random_vector_with_norm(3, R, float(rng.uniform(0.5, 2.0)), rng)
        chord = float(np.linalg.norm(h.entries - g.entries))
        if chord < 0.2:
            continue
        res = ge.geodesic_distance(spec3, g, h, n_vertices=11, n_iterations=80, seed=700 + k)
        worst_chord = max(worst_chord, abs(res.distance - chord))
        assert res.distance == pytest.approx(chord, abs=1e-3)

    fs_res = ge.geodesic_distance(mm.fubini_study(3), la.basis_vector(3, 0),
                                  la.basis_vector(3, 1), n_vertices=13,
                                  n_iterations=120, seed=72)
    graph = knn_graph_distance(n_points=2000, k=56, seed=73)
    assert fs_res.distance == pytest.approx(HALF_PI, abs=1e-2)
    assert fs_res.distance == pytest.approx(graph, abs=1e-2)

    radial = ge.geodesic_distance(mm.norm_quotient(3), la.vector([1.0, 0.0, 0.0]),
                                  la.vector([2.0, 0.0, 0.0]), n_vertices=13,
                                  n_iterations=120, seed=74)
    assert radial.distance == pytest.approx(math.log(2.0), abs=1e-3)

    elapsed = time.time() - started
    assert elapsed <= 60.0, f"geodesic suite took {elapsed:.1f}s"
    report(7, f"Euclidean optimizer within 1e-3 of the chord on 20 pairs (worst "
              f"{worst_chord:.1e}); Fubini-Study distance {fs_res.distance:.4f} vs "
              f"pi/2 and graph oracle {graph:.4f}; radial distance "
              f"{radial.distance:.6f} vs log 2 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------

def test_criterion_8_parser():
    started = time.time()
    vars_ = {"r", "p", "q", "tau"}
    exact = {
        "2+3*4": 14.0, "2*3+4": 10.0, "(2+3)*4": 20.0, "2-3-4": -5.0,
        "12/3/2": 2.0, "2^3^2": 512.0, "-2^2": -4.0, "2^-1": 0.5,
        "min(1,2)+max(3,4)": 5.0, "--2": 2.0, "2*-3": -6.0,
    }
    for text, expected in exact.items():
        assert evaluate(parse(text, vars_), {}) == expected, text

    rng = np.random.default_rng(88)
    alphabet = "pqr tau+-*/^()., 0123456789esincoabqlmx"
    crashes = 0
    for _ in range(100_000):
        n = int(rng.integers(0, 12))
        s = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
        try:
            parse(s, vars_)
        except ParseError as err:
            assert isinstance(err.offset, int)
        except Exception:
            crashes += 1
    assert crashes == 0

    cases = ["p^2+q^2", "-p*q/r", "sin(tau)^2+cos(tau)^2", "sqrt(abs(p))+max(q,r)",
             "2.5e-3*p-(q+r)^2", "min(p,q)/(1+r^2)", "exp(-(r-1)^2)"]
    for text in cases:
        expr = parse(text, vars_)
        again = parse(to_string(expr), vars_)
        for _ in range(100):
            b = {v: float(rng.uniform(0.1, 3.0)) for v in vars_}
            assert abs(evaluate(again, b) - evaluate(expr, b)) <= 1e-12

    report(8, f"parser precedence exact, 100000-string fuzz clean, pretty-print "
              f"round-trips within 1e-12 ({time.time() - started:.1f}s)")
