"""Independent oracles and output checks for the benchmark's tasks.

Nothing here imports finsler_iso: every expected value is a closed form
computed with numpy/math from the task's inputs, so a defect in the package
cannot hide itself by also breaking its oracle.

Each check returns a list of problems (empty when the output passes).  A
problem is a short string; problems that start with MISS are accuracy misses
against an oracle's tolerance, the rest are contract violations (an
exception, an invalid value, a wrong exit code, non-identical bytes).  Both
count as a failed task.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

MISS = "miss: "

# Acceptance criterion 7: absolute tolerance of the descent against its oracle.
GEODESIC_TOL = {"euclidean": 1e-3, "norm-quotient": 1e-3, "fubini-study": 1e-2}
# Relative midpoint bias the package documents in geometry._segment_length:
# a descent result is an upper bound on the distance up to this slack.
MIDPOINT_BIAS = 5e-4
ARC_REL_TOL = 1e-6
HALF_PI = 0.5 * math.pi


# ---------------------------------------------------------------------------
# Closed forms

def real_angle(g: np.ndarray, h: np.ndarray) -> float:
    """Angle in [0, pi] between g and h read as vectors of R^n (or R^2n over C)."""
    c = float(np.real(np.vdot(g, h))) / (float(np.linalg.norm(g)) * float(np.linalg.norm(h)))
    return math.acos(min(1.0, max(-1.0, c)))


def geodesic_oracle(metric: str, g: np.ndarray, h: np.ndarray) -> float:
    """Exact geodesic distance between g and h for the three built-in metrics.

    Euclidean: the chord.  Fubini-Study (q/r^2, degenerate along the F-line
    through the base point): the real angle over R, the angle between the
    complex lines over C.  Norm quotient |h|/|g| (a flat cylinder in
    log-polar coordinates): sqrt(log(|h|/|g|)^2 + angle^2) with the real
    angle.
    """
    ng, nh = float(np.linalg.norm(g)), float(np.linalg.norm(h))
    if metric == "euclidean":
        return float(np.linalg.norm(h - g))
    if metric == "fubini-study":
        if np.iscomplexobj(g):
            return math.acos(min(1.0, abs(complex(np.vdot(g, h))) / (ng * nh)))
        return real_angle(g, h)
    if metric == "norm-quotient":
        return math.hypot(math.log(nh / ng), real_angle(g, h))
    raise ValueError(f"no geodesic oracle for {metric!r}")


def check_geodesic(metric: str, value, oracle: float) -> list[str]:
    """The descent result is finite, an upper bound up to the midpoint bias,
    and within criterion 7's tolerance of the closed form."""
    if not isinstance(value, float) or not math.isfinite(value) or value < 0.0:
        return [f"invalid distance {value!r}"]
    problems = []
    if value < oracle * (1.0 - MIDPOINT_BIAS):
        problems.append(f"{MISS}{metric} distance {value:.9g} below oracle {oracle:.9g} "
                        f"by more than the {MIDPOINT_BIAS:g} midpoint bias")
    if abs(value - oracle) > GEODESIC_TOL[metric]:
        problems.append(f"{MISS}{metric} distance {value:.9g} vs oracle {oracle:.9g} "
                        f"outside tolerance {GEODESIC_TOL[metric]:g}")
    return problems


def arc_length_oracle(rho_e1_e2: float) -> float:
    """Length of the quarter unit circle from e1 to e2 under an invariant metric.

    Along t -> (cos t, sin t, 0, ...) the base point has norm 1 and the
    velocity is a unit vector orthogonal to it, so by isometry invariance
    the integrand is the constant rho_{e1}(e2).
    """
    return HALF_PI * rho_e1_e2


def check_close(what: str, value, want: float, rel_tol: float) -> list[str]:
    if not isinstance(value, float) or not math.isfinite(value):
        return [f"{what}: invalid value {value!r}"]
    if abs(value - want) > rel_tol * max(1.0, abs(want)):
        return [f"{what}: {value:.12g} vs oracle {want:.12g} (tol {rel_tol:g})"]
    return []


# ---------------------------------------------------------------------------
# Report checks

def check_probe_report(report) -> list[str]:
    """Acceptance criterion 5: not vacuous, every non-congruence map fails,
    every congruence control passes."""
    problems = []
    if report.vacuous:
        problems.append("probe was vacuous")
    if report.maps_tested < 1 or report.controls_tested < 1:
        problems.append(f"probe tested {report.maps_tested} maps, {report.controls_tested} controls")
    if not (report.all_failed and report.weakest_deviation > 1e-3):
        problems.append(f"a non-congruence map passed (weakest deviation {report.weakest_deviation:g})")
    if not report.controls_passed:
        problems.append(f"a control failed (worst deviation {report.control_worst_deviation:g})")
    return problems


# ---------------------------------------------------------------------------
# CLI output checks

def _reject_constant(token: str):
    raise ValueError(f"non-JSON constant {token}")


def parse_strict_json(text: str) -> dict:
    """One JSON object per line of output; NaN and Infinity are rejected."""
    lines = text.splitlines()
    if len(lines) != 1:
        raise ValueError(f"expected one line of JSON, got {len(lines)}")
    obj = json.loads(lines[0], parse_constant=_reject_constant)
    if not isinstance(obj, dict):
        raise ValueError("output is not a JSON object")
    return obj


def parse_csv(text: str) -> tuple[list[str], list[list[float]]]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty CSV")
    return rows[0], [[float(x) for x in row] for row in rows[1:]]


def expect_json(**want):
    """Check that the JSON output has these key/value pairs; floats compare at 1e-9."""
    def check(stdout: str, files: dict) -> list[str]:
        obj = parse_strict_json(stdout)
        problems = []
        for key, value in want.items():
            got = obj.get(key)
            if isinstance(value, float):
                ok = isinstance(got, (int, float)) and abs(got - value) <= 1e-9 * max(1.0, abs(value))
            else:
                ok = got == value
            if not ok:
                problems.append(f"{key}: got {got!r}, want {value!r}")
        return problems
    return check


def expect_theta_table(stdout: str, files: dict) -> list[str]:
    """decompose --metric euclidean: theta(r, tau) = 1 on the default 5 x 5 grid."""
    header, rows = parse_csv(stdout)
    if header != ["r", "tau", "theta_value"]:
        return [f"CSV header {header!r}"]
    if len(rows) != 25:
        return [f"{len(rows)} CSV rows, want 25"]
    bad = [row for row in rows if abs(row[2] - 1.0) > 1e-9]
    return [f"theta != 1 at {bad[0]}"] if bad else []


def expect_phi_psi_table(stdout: str, files: dict) -> list[str]:
    """decompose --metric fubini-study: phi = 1/r, psi = -1/r^2 with r = |g|^2."""
    header, rows = parse_csv(stdout)
    if header != ["r", "phi", "psi"]:
        return [f"CSV header {header!r}"]
    if len(rows) != 5:
        return [f"{len(rows)} CSV rows, want 5"]
    bad = [row for row in rows
           if abs(row[1] - 1.0 / row[0]) > 1e-9 or abs(row[2] + 1.0 / row[0] ** 2) > 1e-9]
    return [f"phi/psi off the Fubini-Study profile at {bad[0]}"] if bad else []


def expect_pd_degenerate(stdout: str, files: dict) -> list[str]:
    """riemann:1/r;-1/(r^2) has phi + r psi = 0: semi-definite at every sample."""
    obj = parse_strict_json(stdout)
    verdicts = obj.get("verdicts") or []
    if obj.get("passed") is not False or not verdicts or set(verdicts) != {"PSD-degenerate"}:
        return [f"pd verdicts {verdicts!r}, passed {obj.get('passed')!r}"]
    return []


def expect_homothety_witness(stdout: str, files: dict) -> list[str]:
    """Euclidean is not homothety-invariant: a failed verdict with a witness."""
    obj = parse_strict_json(stdout)
    if obj.get("passed") is not False or not obj.get("witness"):
        return [f"homothety report {obj!r}"]
    return []


def expect_distance(dim: int, oracle: float, vertices: int = 13):
    """distance: value within the Fubini-Study tolerance of the oracle, and the
    --path-out CSV has its header and runs from g to h."""
    def check(stdout: str, files: dict) -> list[str]:
        obj = parse_strict_json(stdout)
        problems = check_geodesic("fubini-study", float(obj.get("value", math.nan)), oracle)
        text = files.get("path.csv")
        if text is None:
            return problems + ["--path-out file missing"]
        header, rows = parse_csv(text)
        if header != ["t"] + [f"x{i + 1}" for i in range(dim)]:
            problems.append(f"path CSV header {header!r}")
        elif len(rows) != vertices:
            problems.append(f"path CSV has {len(rows)} rows, want {vertices}")
        return problems
    return check
