"""The benchmark's oracles on the acceptance suite's hand cases, and its checks."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
import workloads
from finsler_iso import geometry as ge
from finsler_iso import linalg as la
from finsler_iso import metrics as mm

E1, E2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])


def test_geodesic_oracle_hand_cases():
    assert oracles.geodesic_oracle("fubini-study", E1, E2) == pytest.approx(math.pi / 2, abs=1e-15)
    assert oracles.geodesic_oracle("fubini-study", E1 + 0j, 1j * E2) == pytest.approx(math.pi / 2)
    assert oracles.geodesic_oracle("norm-quotient", E1, 2 * E1) == pytest.approx(math.log(2.0))
    assert oracles.geodesic_oracle("euclidean", E1, E2) == pytest.approx(math.sqrt(2.0))


def test_geodesic_oracle_complex_cases():
    g = np.array([1.0, 0.0]) + 0j
    # same complex line: Fubini-Study distance 0, real angle pi/2 for the norm quotient
    assert oracles.geodesic_oracle("fubini-study", g, 1j * g) == pytest.approx(0.0, abs=1e-7)
    assert oracles.geodesic_oracle("norm-quotient", g, 1j * g) == pytest.approx(math.pi / 2)
    # over R the antipode is at angle pi
    assert oracles.geodesic_oracle("fubini-study", E1, -E1) == pytest.approx(math.pi)


def test_arc_length_oracle_is_quarter_circle():
    assert oracles.arc_length_oracle(1.0) == pytest.approx(math.pi / 2)
    length = ge.curve_length(mm.euclidean(3), ge.circle_arc(3))
    assert oracles.check_close("arc", length, oracles.arc_length_oracle(1.0), oracles.ARC_REL_TOL) == []


def test_check_geodesic_verdicts():
    want = math.pi / 2
    assert oracles.check_geodesic("fubini-study", want + 1e-3, want) == []
    assert oracles.check_geodesic("fubini-study", want * (1 - 4e-4), want) == []
    (below,) = oracles.check_geodesic("fubini-study", want * (1 - 6e-4), want)
    assert below.startswith(oracles.MISS) and "below" in below
    (far,) = oracles.check_geodesic("norm-quotient", want + 2e-3, want)
    assert far.startswith(oracles.MISS)
    (bad,) = oracles.check_geodesic("euclidean", math.nan, want)
    assert not bad.startswith(oracles.MISS)


def test_program_meets_oracles_on_hand_cases():
    fs = ge.geodesic_distance(mm.fubini_study(3), la.vector(E1), la.vector(E2),
                              n_vertices=13, n_iterations=120, seed=72)
    assert oracles.check_geodesic("fubini-study", fs.distance,
                                  oracles.geodesic_oracle("fubini-study", E1, E2)) == []
    nq = ge.geodesic_distance(mm.norm_quotient(3), la.vector(E1), la.vector(2 * E1),
                              n_vertices=13, n_iterations=120, seed=74)
    assert oracles.check_geodesic("norm-quotient", nq.distance,
                                  oracles.geodesic_oracle("norm-quotient", E1, 2 * E1)) == []


@pytest.mark.parametrize("entry", [e for pool in workloads.SWEEP_POOL.values() for e in pool],
                         ids=lambda e: e.text)
def test_sweep_closed_forms(entry):
    for field in (la.Field.REAL, la.Field.COMPLEX):
        spec = workloads.build_spec(entry.for_field(field), 3, field)
        e1, e2 = la.basis_vector(3, 0, field), la.basis_vector(3, 1, field)
        assert mm.eval_finsler(spec, e1, e2) == pytest.approx(entry.rho_e1_e2, rel=1e-12)
        verdict = mm.check_homothety_invariance(spec, 2.0, n_samples=20)
        assert verdict.invariant == entry.homothety_invariant


def test_strict_json_rejects_nan_and_infinity():
    assert oracles.parse_strict_json('{"value":5}\n') == {"value": 5}
    for text in ('{"value":NaN}', '{"weakest_deviation":Infinity}', '{"x":-Infinity}'):
        with pytest.raises(ValueError):
            oracles.parse_strict_json(text)


def test_cli_csv_and_json_checks():
    header = "r,tau,theta_value\n" + "".join(f"1,0,1\n" for _ in range(25))
    assert oracles.expect_theta_table(header, {}) == []
    assert oracles.expect_theta_table(header.replace("theta_value", "theta"), {}) != []
    assert oracles.expect_json(value=5.0)('{"value":5}', {}) == []
    assert oracles.expect_json(value=5.0)('{"value":5.1}', {}) != []


def test_probe_report_check():
    good = SimpleNamespace(vacuous=False, maps_tested=10, controls_tested=10, all_failed=True,
                           weakest_deviation=0.5, controls_passed=True, control_worst_deviation=0.0)
    assert oracles.check_probe_report(good) == []
    assert oracles.check_probe_report(SimpleNamespace(**{**vars(good), "vacuous": True})) != []
    assert oracles.check_probe_report(SimpleNamespace(**{**vars(good), "weakest_deviation": 1e-4})) != []
    assert oracles.check_probe_report(SimpleNamespace(**{**vars(good), "controls_passed": False})) != []
