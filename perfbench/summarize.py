"""Summarize benchmark records across seeds.

    python3 perfbench/summarize.py [--records DIR] [--out FILE]

Reads the run records run.py writes to .perfbench_out/ (one per workload,
seed and trace flag).  For each workload and end-to-end metric it prints
the median, the quartiles and the spread: the interquartile distance as a
share of the median, from statistics.quantiles(values, n=4).  For traced
records it reports the per-layer metrics of the lowest seed and says
whether the counts of records at the same seed agree.  --out writes all of
it, with the provenance of one record, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=Path, default=ROOT / ".perfbench_out")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    plain, traced = defaultdict(list), defaultdict(list)
    for path in sorted(args.records.glob("*-seed*-trace*.json")):
        rec = json.loads(path.read_text())
        (traced if rec["trace"] else plain)[rec["workload"]].append(rec)

    summary: dict = {"end_to_end": {}, "per_layer": {}}
    for workload, recs in plain.items():
        recs.sort(key=lambda r: r["provenance"]["seed"])
        summary["provenance"] = recs[0]["provenance"]
        row = {"seeds": [r["provenance"]["seed"] for r in recs],
               "correct": all(r["correct"] for r in recs),
               "attempted": [r["attempted"] for r in recs],
               "failed": [r["failed"] for r in recs],
               "fail_ratio": spread([r["failed"] / r["attempted"] for r in recs]),
               "task_tail_percentile": [r["details"]["task_tail_percentile"] for r in recs]}
        for metric in recs[0]["metrics"]:
            row[metric] = spread([r["metrics"][metric]["value"] for r in recs])
            print(f"{workload:9s} {metric:12s} median {row[metric]['median']:10.4f} "
                  f"spread {row[metric]['spread']:.3f}")
        print(f"{workload:9s} fail ratio {row['fail_ratio']['median']:.3f}, "
              f"correct {row['correct']}, attempted {row['attempted']}")
        summary["end_to_end"][workload] = row
    for workload, recs in traced.items():
        recs.sort(key=lambda r: r["provenance"]["seed"])
        seed = recs[0]["provenance"]["seed"]
        same_seed = [r for r in recs if r["provenance"]["seed"] == seed]
        counts = [{m: v["value"] for m, v in r["metrics"].items() if m.endswith(".calls")}
                  for r in same_seed]
        summary["per_layer"][workload] = {
            "seed": seed, "correct": recs[0]["correct"],
            "runs_at_seed": len(same_seed),
            "counts_repeat": all(c == counts[0] for c in counts),
            "metrics": {m: v["value"] for m, v in recs[0]["metrics"].items()},
        }
        print(f"{workload:9s} traced seed {seed}: {len(same_seed)} runs, counts repeat "
              f"{summary['per_layer'][workload]['counts_repeat']}, overhead "
              f"{recs[0]['metrics']['trace.overhead_ratio']['value']:.2f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
