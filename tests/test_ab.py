"""bench/ab.py on a fake runner: the alternation, the summary and the JSON it writes."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "bench" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = {"wall_s": {"better": "lower", "bound": 0.25},
           "task_p50_s": {"better": "lower", "bound": 0.25}}


def _fake(values, calls):
    """A runner whose side's wall_s at seed s is values[side][s], recording each call."""
    def run(side, seed):
        calls.append((side, seed))
        wall = values[side][seed]
        return {"correct": side == "change" or seed != 3, "attempted": 20,
                "failed": 4 if side == "change" else seed % 2,
                "metrics": {"wall_s": {"value": wall, "unit": "s"},
                            "task_p50_s": {"value": wall / 10, "unit": "s"},
                            "peak_rss_mb": {"value": 40.0, "unit": "MB"}}}
    return run


def test_seeds_read_numbers_and_inclusive_ranges():
    assert ab.parse_seeds("1-9,7349") == [1, 2, 3, 4, 5, 6, 7, 8, 9, 7349]
    assert ab.parse_seeds(" 5 ") == [5]
    for bad in ("", "1-", "a", "3,3", "1-3,2"):
        with pytest.raises(ValueError):
            ab.parse_seeds(bad)


def test_the_sides_alternate_which_runs_first_per_seed():
    calls = []
    seeds = [1, 2, 3, 7349]
    values = {side: dict.fromkeys(seeds, 1.0) for side in ab.SIDES}
    pairs = ab.run_pairs(seeds, _fake(values, calls), list(METRICS))
    assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                     ("parent", 3), ("change", 3), ("change", 7349), ("parent", 7349)]
    assert [p["first"] for p in pairs] == ["parent", "change", "parent", "change"]
    assert pairs[0]["parent"] == {"correct": True, "attempted": 20, "failed": 1,
                                  "wall_s": 1.0, "task_p50_s": 0.1}


def test_each_sides_tree_is_compiled_once_before_its_first_run(monkeypatch):
    calls = []
    monkeypatch.setattr(ab, "compile_tree", lambda tree: calls.append(("compile", tree.name)))
    trees = {side: pathlib.Path(side) for side in ab.SIDES}
    seeds = [1, 2, 3]
    values = {side: dict.fromkeys(seeds, 1.0) for side in ab.SIDES}
    ab.run_pairs(seeds, ab.compiled_first(trees, _fake(values, calls)), list(METRICS))
    assert calls == [("compile", "parent"), ("parent", 1), ("compile", "change"), ("change", 1),
                     ("change", 2), ("parent", 2), ("parent", 3), ("change", 3)]


def test_compiling_a_tree_writes_its_sources_bytecode(tmp_path, monkeypatch):
    # whatever PYTHONDONTWRITEBYTECODE says, as the runs that read it may set it
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("X = 1\n")
    ab.compile_tree(tmp_path)
    assert [p.name.split(".")[0] for p in (package / "__pycache__").glob("*.pyc")] == ["__init__"]


def test_quartiles_medians_wins_and_the_claim():
    seeds = list(range(1, 11))
    parent = {s: float(s) for s in seeds}  # 1..10: quartiles 3.25, 5.5, 7.75
    change = {s: float(s) - 4.0 for s in seeds}
    change[10] = 11.0  # one pair the change loses
    doc = ab.compare("geodesic", seeds, _fake({"parent": parent, "change": change}, []),
                     METRICS, "wall_s")
    s = doc["summary"]["wall_s"]
    assert s["parent"] == {"q1": 3.25, "median": 5.5, "q3": 7.75}
    assert s["parent_iqr"] == 4.5 and s["change_better_in"] == 9 and s["pairs"] == 10
    assert s["change"]["median"] == 1.5
    assert doc["claim"]["wins"] == 9 and doc["claim"]["median_gap"] == 4.0
    assert doc["claim"]["met"] is False  # a gap of 4.0 is inside the parent's IQR of 4.5
    change = {s: v - 5.0 for s, v in parent.items()}
    change[9] = change[10] = 20.0  # better in 8 of 10: too few, whatever the gap
    doc = ab.compare("geodesic", seeds, _fake({"parent": parent, "change": change}, []),
                     METRICS, "wall_s")
    assert doc["claim"]["wins"] == 8 and doc["claim"]["met"] is False
    change = {s: v - 5.0 for s, v in parent.items()}
    change[10] = 10.0  # a tie counts for neither side
    doc = ab.compare("geodesic", seeds, _fake({"parent": parent, "change": change}, []),
                     METRICS, "wall_s")
    assert doc["claim"]["wins"] == 9 and doc["claim"]["met"] is True


def test_a_higher_is_better_metric_wins_where_the_change_is_higher():
    pairs = [{"seed": s, "parent": {"rate": 1.0}, "change": {"rate": 2.0}} for s in (1, 2, 3)]
    summary = ab.summarize(pairs, {"rate": {"better": "higher", "bound": 0.1}})
    assert summary["rate"]["change_better_in"] == 3
    assert summary["rate"]["regression"] == "within bound"
    assert ab.claim(summary, "rate", "higher")["median_gap"] == 1.0
    assert ab.regression([2.0, 2.0, 2.0], [1.0, 1.0, 1.0], "higher", 0.1) == "worse"


def test_the_regression_verdict_reads_the_bound_and_the_parents_spread():
    seeds = list(range(1, 11))

    def verdict(parent, change):
        doc = ab.compare("geodesic", seeds, _fake({"parent": dict(zip(seeds, parent)),
                                                   "change": dict(zip(seeds, change))}, []),
                         METRICS)
        return doc["summary"]["wall_s"]["regression"]
    tight = [10.0 + 0.01 * s for s in seeds]  # an IQR of 0.045 on a median of 10.055
    wide = [float(s) for s in seeds]  # an IQR of 4.5 on a median of 5.5: over the bound
    assert verdict(tight, [v * 1.3 for v in tight]) == "worse"  # 30% over a 25% bound
    assert verdict(tight, [v * 1.2 for v in tight]) == "within bound"
    assert verdict(wide, [v * 1.3 for v in wide]) == "worse"  # worse wins over unresolved
    assert verdict(wide, wide) == "unresolved"
    assert verdict(wide, [0.5] * 10) == "within bound"  # every change run beats every parent run
    assert verdict(wide, [0.5] * 9 + [1.0]) == "unresolved"  # a tie with the best parent run


def test_the_document_holds_every_pair_and_round_trips_through_json():
    seeds = [1, 2, 3]
    values = {"parent": {1: 2.0, 2: 2.5, 3: 3.0}, "change": {1: 1.0, 2: 1.5, 3: 1.0}}
    doc = ab.compare("geodesic", seeds, _fake(values, []), METRICS)
    assert set(doc) == {"workload", "seeds", "method", "failed_per_seed",
                        "correct_everywhere", "summary", "pairs"}  # no claim asked for
    assert doc["failed_per_seed"] == {"1": {"parent": 1, "change": 4},
                                      "2": {"parent": 0, "change": 4},
                                      "3": {"parent": 1, "change": 4}}
    assert doc["correct_everywhere"] is False  # the parent's run at seed 3
    assert [p["seed"] for p in doc["pairs"]] == seeds
    assert set(doc["summary"]) == set(METRICS)
    assert json.loads(json.dumps(doc)) == doc


def test_the_machine_names_its_cpu_count_and_platform():
    info = ab.machine()
    assert set(info) == {"cpu", "logical_cpus", "platform"}
    assert isinstance(info["cpu"], str) and info["logical_cpus"] >= 1


def test_an_unknown_revision_is_a_usage_error(capsys):
    # exit 2 naming it, as argparse reports a usage error, before anything is exported
    before = sorted(ab.ROOT.glob("BENCH_*.json"))
    with pytest.raises(SystemExit) as exit_info:
        ab.main(["--parent", "no-such-rev", "--workload", "geodesic", "--seeds", "1-2"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "no commit 'no-such-rev'" in err and "Traceback" not in err
    assert sorted(ab.ROOT.glob("BENCH_*.json")) == before


@pytest.mark.parametrize("claim, where", [(None, ".perfbench_out"), ("wall_s", ".")])
def test_only_a_claim_writes_its_document_at_the_checkout_root(tmp_path, monkeypatch, capsys,
                                                               claim, where):
    # main on a fake checkout: the revisions, the exports and the runs are stubbed
    bench = {"run_seconds": 1, "workloads": [{"name": "geodesic"}],
             "end_to_end": [{"name": name, **m} for name, m in METRICS.items()]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))
    monkeypatch.setattr(ab, "ROOT", tmp_path)
    monkeypatch.setattr(ab, "git", lambda *args: "0" * 40)
    monkeypatch.setattr(ab, "export", lambda rev, into: into.mkdir())
    compiled = []
    monkeypatch.setattr(ab, "compile_tree", lambda tree: compiled.append(tree.name))
    values = {"parent": {1: 2.0, 2: 2.5}, "change": {1: 1.0, 2: 1.5}}
    monkeypatch.setattr(ab, "tree_runner", lambda trees, workload, seconds: _fake(values, []))
    argv = ["--parent", "HEAD", "--workload", "geodesic", "--seeds", "1-2", "--slug", "s"]
    assert ab.main(argv + (["--claim", claim] if claim else [])) == 0
    assert compiled == ["parent", "change"]  # the parent runs first at the first seed
    out = tmp_path / where / "BENCH_s.json"
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("BENCH_*.json")) \
        == [out.relative_to(tmp_path)]
    assert json.loads(out.read_text())["workload"] == "geodesic"
    assert ("claim" in json.loads(out.read_text())) is (claim is not None)
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
