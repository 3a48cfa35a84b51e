"""The tracer patches every namespace, counts recursion once and leaves nothing behind."""

import json
import sys

import numpy as np

import finsler_iso
import run
import tracer
import workloads
from finsler_iso import cli, expressions, geometry, metrics as mm
from finsler_iso import linalg as la


def _snapshot():
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if mod is not None and name.startswith("finsler_iso")
            for attr, value in vars(mod).items()}


def _tasks(seen):
    e1, e2 = la.basis_vector(2, 0), la.basis_vector(2, 1)

    def solve():
        seen.append(tracer.installed_wrappers())
        return geometry.geodesic_distance(mm.fubini_study(2), e1, e2, n_iterations=2)

    theta = workloads.build_spec("theta:1+cos(tau)", 2, la.Field.REAL)
    return [workloads.Task("solve", solve, lambda out: []),
            workloads.Task("arc", lambda: geometry.curve_length(theta, geometry.circle_arc(2), 11),
                           lambda out: [])]


def test_untraced_pass_installs_no_wrapper(monkeypatch):
    def refuse(self):
        raise AssertionError("an untraced run installed the tracer")
    monkeypatch.setattr(tracer.Tracer, "install", refuse)
    before, seen = _snapshot(), []
    tally = run.Tally()
    run.run_pass(_tasks(seen), tally)
    assert tally.failed == 0
    assert seen == [[]]
    assert _snapshot() == before


def test_traced_pass_restores_every_wrapper():
    before, seen = _snapshot(), []
    t = tracer.Tracer()
    with t:
        assert geometry.eval_finsler is mm.eval_finsler is finsler_iso.eval_finsler
        assert getattr(geometry.eval_finsler, "perfbench_wrapper", False)
        run.run_pass(_tasks(seen), run.Tally(), t)
    assert "finsler_iso.geometry.eval_finsler" in seen[0]
    assert "finsler_iso.invariance.eval_finsler" in seen[0]
    assert tracer.installed_wrappers() == []
    assert _snapshot() == before
    agg = t.aggregate()
    assert agg["geometry.geodesic_distance.calls"] == 1
    assert agg["geometry.curve_length.calls"] == 1
    assert agg["metrics.eval_finsler.theta.calls"] == 11
    assert agg["expressions.evaluate.calls"] == 11


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        with t:
            run.run_pass(_tasks([]), run.Tally(), t)
        counts.append({k: v for k, v in t.aggregate().items() if not k.endswith("self_s")})
    assert counts[0] == counts[1]


def test_recursive_functions_count_top_level_calls_only():
    expr = expressions.parse("1+2*sin(3-r)/(4+r^2)", {"r"})
    t = tracer.Tracer()
    with t:
        expressions.evaluate(expr, {"r": 0.5})
        cli.render_json({"a": [1, 2, {"b": 3.0}], "c": None})
    agg = t.aggregate()
    assert agg["expressions.evaluate.calls"] == 1
    assert agg["cli.render_json.calls"] == 1
    assert tracer.installed_wrappers() == []


def test_self_time_excludes_children_and_layer_metrics_are_complete():
    t = tracer.Tracer()
    with t:
        spec = mm.fubini_study(3)
        geometry.geodesic_distance(spec, la.basis_vector(3, 0), la.basis_vector(3, 1), n_iterations=2)
    agg = t.aggregate()
    total = sum(v for k, v in agg.items() if k.endswith(".self_s"))
    durations = np.frombuffer(t.end_col) - np.frombuffer(t.start_col)
    assert abs(total - durations[0]) < 1e-9
    metrics = tracer.layer_metrics(agg, {name: 0.0 for name, _ in tracer.DERIVED[4:]})
    assert list(metrics) == [name for name, _ in tracer.catalogue()]
    assert metrics["geometry.geodesic_distance.cap_ratio"]["value"] == 1.0


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.catalogue()
