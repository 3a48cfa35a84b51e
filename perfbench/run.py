"""Benchmark for finsler_iso.

    python3 perfbench/run.py --workload geodesic|probe|sweep|cli|all \\
        --seed N --seconds S --trace 0|1

Builds nothing: the package is imported from src/ next to this directory,
and the run fails (exit code 2, no result) when it is not there.

--trace 0 measures the end-to-end metrics: set-up in fresh interpreters,
then the workload's fixed task list, passes 0..P-1, each task once.  P is
a whole number of the workload's periods, as many as S seconds hold at its
nominal pace; it depends on S alone, never on how fast the program runs.
Every time is read at the reference pace of pace.py, from a fixed kernel
sampled all through it, and every output is checked against an independent
oracle.  --trace 1 runs pass 0 untraced and then traced, in turns until S
seconds have gone, and reports the per-layer metrics from the first traced
pass.  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.  `correct` is false when an
output broke the package's contract (an exception, an invalid value, a wrong
exit code, output that is not byte-identical); accuracy misses against an
oracle's tolerance count in `failed` without making the run incorrect.
Details (per-task times, problems, provenance) go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"

NAMES = ("geodesic", "probe", "sweep", "cli")
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # the tail percentile has this many samples beyond it
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
             "peak_rss_mb": "MB"}


class Tally:
    """Per-task times at the reference pace, and the problems of one run."""

    def __init__(self):
        self.names: list[str] = []
        self.times: list[float] = []
        self.raw_times: list[float] = []  # wall time, less the pace interrupts
        self.speeds: list[float] = []     # every pace sample of every task
        self.failed = 0
        self.violations = 0
        self.problems: list[str] = []

    def record(self, name: str, meter, problems: list[str]) -> None:
        import oracles
        self.names.append(name)
        self.times.append(meter.seconds)
        self.raw_times.append(meter.raw_s)
        self.speeds.extend(meter.speeds)
        if problems:
            self.failed += 1
            if any(not p.startswith(oracles.MISS) for p in problems):
                self.violations += 1
            self.problems.extend(f"{name}: {p}" for p in problems)

    def pace_ms(self) -> float:
        """The median kernel time over the run, in ms."""
        import pace
        return 1e3 * pace.REF_S / statistics.median(self.speeds)


def run_pass(tasks, tally: Tally, tracer=None) -> range:
    """Run and check each task once, timed at the reference pace; return
    the indices of its tasks in the tally."""
    import pace
    meter = pace.Meter()
    first = len(tally.times)
    for task in tasks:
        try:
            out = meter.run(task.run if tracer is None
                            else lambda: tracer.span("bench.task", task.run))
            problems = None
        except Exception as exc:  # a raising task is a failed task, never a crash
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems is None:
            try:
                problems = task.check(out)
            except Exception as exc:
                problems = [f"output check raised {type(exc).__name__}: {exc}"]
        tally.record(task.name, meter, problems)
    return range(first, len(tally.times))


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(name: str, seed: int, workdir: Path, env: dict) -> list[dict]:
    """SETUP_REPEATS fresh interpreters; each one's times at the reference pace."""
    import workloads
    runs = []
    for _ in range(SETUP_REPEATS):
        res = workloads.run_child([sys.executable, str(BENCH / "child.py"), "setup", name, str(seed)],
                                  workdir, env)
        if res.returncode != 0:
            raise RuntimeError(f"set-up child failed: {res.stderr.decode(errors='replace')}")
        info = json.loads(res.stdout.decode().splitlines()[-1])
        if not Path(info["package_file"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up child imported {info['package_file']}, not src/")
        runs.append(info)
    return runs


def provenance(seed: int) -> dict:
    import numpy as np
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
    }


def untraced(wl, name: str, seconds: float, setups: list[dict]) -> tuple[dict, Tally, dict]:
    """The fixed task list, each task once; wall_s is the time it took."""
    import workloads
    tally = Tally()
    passes = workloads.pass_count(seconds, wl.period, wl.period_s)
    ranges = [run_pass(wl.make_pass(k), tally) for k in range(passes)]
    times = tally.times
    walls = [sum(times[i] for i in r) for r in ranges]
    if name == "cli":
        rss_kb = wl.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tail_s, tail_pct, n = tail(times)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": sum(walls),
        "task_p50_s": statistics.median(times),
        "task_tail_s": tail_s,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    details = {"passes": passes, "pass_walls_s": walls,
               "raw_wall_s": sum(tally.raw_times),
               "pace_ms": tally.pace_ms(),
               "task_tail_percentile": tail_pct, "tasks": n,
               "fail_ratio": tally.failed / n}
    return {m: {"value": v, "unit": E2E_UNITS[m]} for m, v in values.items()}, tally, details


def traced_pass(wl, name: str, tally: Tally, spans: Path | None) -> tuple[range, dict]:
    """Pass 0 under the tracer; library workloads in this process, cli in
    traced children.  Returns its tasks' indices and the mergeable aggregate."""
    import tracer as tr
    if name != "cli":
        t = tr.Tracer()
        with t:
            tasks = run_pass(wl.make_pass(0), tally, t)
        if spans is not None:
            t.dump(spans)
        return tasks, t.aggregate()
    wl.trace_dir = TMP / f"trace-{os.getpid()}"
    wl.trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = run_pass(wl.make_pass(0), tally)
        agg = {}
        for f in sorted(wl.trace_dir.glob("cli-*.json")):
            tr.merge(agg, json.loads(f.read_text())["aggregate"])
        if spans is not None:
            spans.mkdir(exist_ok=True)
            for f in wl.trace_dir.glob("cli-*.npz"):
                shutil.copy(f, spans / f.name)
    finally:
        shutil.rmtree(wl.trace_dir)
        wl.trace_dir = None
    return tasks, agg


def traced(name: str, seed: int, seconds: float, setups: list[dict],
           workdir: Path, env: dict) -> tuple[dict, Tally, dict]:
    import tracer as tr
    import workloads
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    # Spec building is traced too, so parse and induced_finsler show.
    with tr.Tracer() as t:
        wl = workloads.make(name, seed, workdir, env)
    build = t.aggregate()
    plain, traced_, aggs = [], [], []
    started = perf_counter()
    while not aggs or perf_counter() - started < seconds:
        plain.append(run_pass(wl.make_pass(0), tally))
        spans = None if aggs else OUT / (f"spans-{name}" + ("" if name == "cli" else ".npz"))
        tasks, agg = traced_pass(wl, name, tally, spans)
        traced_.append(tasks)
        aggs.append(agg)
    times = tally.times
    walls_plain = [sum(times[i] for i in r) for r in plain]
    walls_traced = [sum(times[i] for i in r) for r in traced_]
    counts = [{k: v for k, v in a.items() if not k.endswith("self_s")} for a in aggs]
    if any(c != counts[0] for c in counts[1:]):
        tally.problems.append("trace: per-layer counts differ between traced runs of pass 0")
        tally.violations += 1
    extra = {
        "setup.numpy_import_s": statistics.median(s["numpy_import_s"] for s in setups),
        "setup.package_import_s": statistics.median(s["package_import_s"] for s in setups),
        "trace.overhead_ratio": statistics.median(walls_traced) / statistics.median(walls_plain),
        "bench.fail_ratio": tally.failed / len(times),
        "bench.pace_ms": tally.pace_ms(),
    }
    details = {"plain_walls_s": walls_plain, "traced_walls_s": walls_traced}
    return tr.layer_metrics(tr.merge(build, aggs[0]), extra), tally, details


def run_all(args) -> int:
    """Every workload in its own interpreter, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One process, one task at a time: no BLAS thread pool spinning beside it.
    # Set before numpy loads; children inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    # One CPU for the run and its children, so the pace kernel runs on the CPU
    # the work runs on, also while a cli child runs (see pace.py).
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    if not (SRC / "finsler_iso" / "__init__.py").is_file():
        sys.stderr.write(f"error: no finsler_iso package under {SRC}\n")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    os.environ.pop("FINSLER_ISO_THREADS", None)  # one task at a time, sequential probes
    import finsler_iso
    if not Path(finsler_iso.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"error: imported {finsler_iso.__file__}, not the package under src/\n")
        return 2
    import workloads

    workdir = TMP / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env()
        setups = measure_setup(args.workload, args.seed, workdir, env)
        if args.trace:
            metrics, tally, details = traced(args.workload, args.seed, args.seconds, setups,
                                             workdir, env)
        else:
            wl = workloads.make(args.workload, args.seed, workdir, env)
            metrics, tally, details = untraced(wl, args.workload, args.seconds, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    result = {"correct": tally.violations == 0, "attempted": len(tally.raw_times),
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = {"workload": args.workload, "trace": args.trace, "provenance": provenance(args.seed),
              "setup_runs": setups, "details": details, "problems": tally.problems,
              "task_names": tally.names, "task_times_s": tally.times,
              "raw_task_times_s": tally.raw_times, **result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for m, v in metrics.items():
        print(f"{args.workload:9s} {m:55s} {v['value']:14.6g} {v['unit']}")
    for key in ("passes", "tasks", "task_tail_percentile", "fail_ratio", "raw_wall_s", "pace_ms"):
        if key in details:
            print(f"{args.workload:9s} {key:55s} {details[key]:14.6g}")
    for p in tally.problems[:20]:
        print(f"{args.workload:9s} problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
