"""A/B runs of the benchmark: a parent revision against HEAD, into BENCH_<slug>.json.

    python3 bench/ab.py --parent REV --workload W --seeds 1-9,7349 \\
        [--claim METRIC] [--slug SLUG]

Exports the parent and the change, HEAD, with `git archive REV |
tar -x -C DIR` into one temporary directory and runs each tree's own
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds: one parent
and one change run per seed, alternating which side goes first.  Each
tree's run.py imports its own src/, which `python -m compileall -q` compiles
before that tree's first run, so no run pays for compiling the package, even
where PYTHONDONTWRITEBYTECODE keeps the runs from writing bytecode.  Writes
BENCH_<slug>.json (the slug defaults to the workload) with the machine, the
Python and numpy versions, both revisions, every pair's end-to-end metrics,
each metric's quartiles per side, the parent's interquartile range, the
change's win count, a regression verdict and `failed` per seed.  With
--claim, it also records whether that metric meets the rule for claiming a
gain: the change is better in at least nine tenths of the pairs (ties count
for neither) and the medians differ by more than the parent's interquartile
range.  A run with --claim writes its file at the root of this checkout,
to be committed; any other run writes it under the gitignored
.perfbench_out/.  It writes nothing else outside its temporary directory.

The regression verdict reads the metric's bound in BENCHMARK.json as a
fraction of the parent's median: `worse` when the change's median is worse
than the parent's by more than the bound; `unresolved` when the parent's
interquartile range exceeds the bound, so a regression of that size cannot
be told from noise, unless every change run beats every parent run; and
`within bound` otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")

# run(side, seed) -> run.py's result: {"correct", "attempted", "failed", "metrics"}
Runner = Callable[[str, int], dict]


def parse_seeds(text: str) -> list[int]:
    """Seeds from a list of numbers and inclusive ranges: '1-9,7349'."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.strip().partition("-")
        try:
            seeds += range(int(lo), int(hi) + 1) if dash else [int(lo)]
        except ValueError:
            raise ValueError(f"not a seed or a range of seeds: {part!r}") from None
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct and at least one: {text!r}")
    return seeds


def run_pairs(seeds: list[int], run: Runner, metrics: list[str]) -> list[dict]:
    """One run of each side per seed, the parent first at the 1st, 3rd, ... seed."""
    pairs = []
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run(side, seed) for side in order}
        pairs.append({"seed": seed, "first": order[0], **{side: {
            "correct": results[side]["correct"], "attempted": results[side]["attempted"],
            "failed": results[side]["failed"],
            **{m: results[side]["metrics"][m]["value"] for m in metrics}} for side in SIDES}})
    return pairs


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The regression verdict in the module docstring, on each side's runs."""
    p = quartiles(parent)
    worse, beats_all = quartiles(change)["median"] - p["median"], max(change) < min(parent)
    if better != "lower":
        worse, beats_all = -worse, min(change) > max(parent)
    if worse > bound * abs(p["median"]):
        return "worse"
    if p["q3"] - p["q1"] > bound * abs(p["median"]) and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    """Per metric (name -> its BENCHMARK.json entry: "better", "lower" or
    "higher", and "bound"): each side's quartiles, the parent's IQR, the
    median change, the change's wins and the regression verdict."""
    summary = {}
    for m, entry in metrics.items():
        runs = {side: [p[side][m] for p in pairs] for side in SIDES}
        sides = {side: quartiles(runs[side]) for side in SIDES}
        sign = 1.0 if entry["better"] == "lower" else -1.0
        summary[m] = {**sides, "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
                      "median_change_pct": 100.0 * (sides["change"]["median"]
                                                    / sides["parent"]["median"] - 1.0),
                      "change_better_in": sum(sign * (p["change"][m] - p["parent"][m]) < 0.0
                                              for p in pairs),
                      "pairs": len(pairs), "bound": entry["bound"],
                      "regression": regression(runs["parent"], runs["change"], entry["better"],
                                               entry["bound"])}
    return summary


def claim(summary: dict, metric: str, better: str) -> dict:
    """Whether the change's gain on metric meets the rule in the module docstring."""
    s = summary[metric]
    gap = s["parent"]["median"] - s["change"]["median"]
    if better != "lower":
        gap = -gap
    return {"metric": metric,
            "rule": "the change is better in at least 9 of 10 pairs, ties counting for "
                    "neither, and the medians differ by more than the parent's IQR",
            "wins": s["change_better_in"], "pairs": s["pairs"],
            "parent_median": s["parent"]["median"], "change_median": s["change"]["median"],
            "median_gap": gap, "parent_iqr": s["parent_iqr"],
            "met": 10 * s["change_better_in"] >= 9 * s["pairs"] and gap > s["parent_iqr"]}


def compare(workload: str, seeds: list[int], run: Runner, metrics: dict[str, dict],
            claimed: str | None = None) -> dict:
    """The pairs and their summary, as BENCH_<slug>.json holds them after the
    provenance that main adds."""
    pairs = run_pairs(seeds, run, list(metrics))
    summary = summarize(pairs, metrics)
    doc = {"workload": workload, "seeds": seeds,
           "method": "one parent and one change run per seed, alternating which side "
                     "runs first",
           "failed_per_seed": {str(p["seed"]): {side: p[side]["failed"] for side in SIDES}
                               for p in pairs},
           "correct_everywhere": all(p[side]["correct"] for p in pairs for side in SIDES),
           "summary": summary, "pairs": pairs}
    if claimed is not None:
        doc["claim"] = claim(summary, claimed, metrics[claimed]["better"])
    return doc


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"cpu": model, "logical_cpus": os.cpu_count(), "platform": platform.platform()}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """git archive rev | tar -x -C into."""
    into.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")


def compile_tree(tree: Path) -> None:
    """python -m compileall -q tree/src."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")], check=True)


def compiled_first(trees: dict[str, Path], run: Runner) -> Runner:
    """run, with each side's tree compiled (compile_tree) before its first run."""
    compiled = set()

    def first(side: str, seed: int) -> dict:
        if side not in compiled:
            compile_tree(trees[side])
            compiled.add(side)
        return run(side, seed)
    return first


def tree_runner(trees: dict[str, Path], workload: str, seconds: float) -> Runner:
    """Runs a side's own perfbench/run.py and reads the result from its last line."""
    def run(side: str, seed: int) -> dict:
        tree = trees[side]
        res = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"),
                              "--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"],
                             cwd=tree, capture_output=True, text=True)
        if res.returncode != 0:
            raise RuntimeError(f"{side} run at seed {seed} exited {res.returncode}:\n"
                               f"{res.stderr}")
        return json.loads(res.stdout.splitlines()[-1])
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--claim", help="the end-to-end metric the change claims a gain on")
    parser.add_argument("--slug", help="names the output BENCH_<slug>.json; the workload by default")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        parser.error(f"no workload {args.workload!r} in BENCHMARK.json")
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"no end-to-end metric {args.claim!r} in BENCHMARK.json")
    revisions = {}
    for side, rev in zip(SIDES, (args.parent, "HEAD")):
        try:
            revisions[side] = git("rev-parse", "--verify", f"{rev}^{{commit}}")
        except subprocess.CalledProcessError:
            parser.error(f"no commit {rev!r} in this repository")
    import numpy
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side in SIDES:
            export(revisions[side], trees[side])
        run = tree_runner(trees, args.workload, bench["run_seconds"])
        doc = compare(args.workload, args.seeds, compiled_first(trees, run), metrics,
                      args.claim)
    doc = {"machine": machine(), "python": platform.python_version(),
           "numpy": numpy.__version__, "revisions": revisions,
           "command": f"perfbench/run.py --workload {args.workload} --seed SEED --seconds "
                      f"{bench['run_seconds']} --trace 0, from each revision's exported tree",
           **doc}
    # a claim is committed with the change; any other run is kept out of the checkout
    out_dir = ROOT if args.claim else ROOT / ".perfbench_out"
    out = out_dir / f"BENCH_{args.slug or args.workload}.json"
    out_dir.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for m, s in doc["summary"].items():
        print(f"{m:12s} parent {s['parent']['median']:.6g}  change {s['change']['median']:.6g}"
              f"  ({s['median_change_pct']:+.1f}%)  better in {s['change_better_in']}"
              f"/{s['pairs']}  parent IQR {s['parent_iqr']:.3g}  {s['regression']}")
    if "claim" in doc:
        print(f"claim on {args.claim}: {'met' if doc['claim']['met'] else 'not met'}")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
