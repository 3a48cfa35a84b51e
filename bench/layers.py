"""Layer costs from the package's own calls: python bench/layers.py > BENCH_layers.json

One JSON object: the machine, the Python and numpy versions and the tables
src_lines, import_time, segment_kernel, solves, expression_rows, simpson and
probe.
Counts and timed batches are captured by wrapping package functions while the
package runs; times ("us") are medians of raw runs.  Writes no file."""

import contextlib
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.dont_write_bytecode = True  # no __pycache__ in the checkout
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import numpy as np  # noqa: E402
from ab import machine  # noqa: E402
from finsler_iso import geometry as ge, invariance as iv, linalg as la, metrics as mm  # noqa: E402
from finsler_iso.expressions import compile_rows  # noqa: E402

R, C = la.Field.REAL, la.Field.COMPLEX


@contextlib.contextmanager
def captured(owner, name):
    """The arguments of every call of owner.name inside the block, each call still made."""
    calls, original = [], getattr(owner, name)
    setattr(owner, name, lambda *args: calls.append(args) or original(*args))
    try:
        yield calls
    finally:
        setattr(owner, name, original)


def median_s(runs, call, before=lambda: None):
    """The median seconds of runs calls, each after an untimed before()."""
    times = []
    for _ in range(runs):
        before()
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def counted(spec, call):
    """call(), the _segment_length calls it makes and the chunk rows spec's kernel takes."""
    with captured(ge, "_segment_length") as calls, captured(type(spec), "_values") as values:
        out = call()
    return out, calls, sum(len(a[1]) for a in values)


def capture() -> dict:
    """Each timed table's rows, counts only, with their timings: (row, runs, call[, before])."""
    tables = {"segment_kernel": [], "solves": [], "expression_rows": [], "simpson": [],
              "probe": []}
    for field in (R, C):
        rng = np.random.default_rng(7)
        g, h = (la.random_vector_with_norm(3, field, r, rng) for r in (1.0, 1.5))
        fs = mm.fubini_study(3, field)
        theta = mm.FromTheta(3, field, mm.RadiusDomain.positive(), mm.theta_profile("1+cos(tau)"))
        # a never-moving solve's start and ladder, a moving one's first two halves
        batches = counted(fs, lambda: ge.geodesic_distance(fs, g, h))[1][:2]
        batches += counted(theta, lambda: ge.geodesic_distance(theta, g, h))[1][2:4]
        for name, spec in (("fubini_study(3)", fs),
                           ("norm_quotient(3)", mm.norm_quotient(3, field)),
                           ("zero_extended(1.0, fubini_study(3))", mm.zero_extended(1.0, fs))):
            for batch, args in zip(("start", "ladder", "odd half", "even half"), batches):
                call = functools.partial(ge._segment_length, spec, *args[1:])
                row = {"spec": name, "field": field.value, "batch": batch,
                       "segments": len(args[1]), "chunk_rows": counted(spec, call)[2]}
                tables["segment_kernel"].append((row, 300, call))
    rng = np.random.default_rng(5)
    g, h = (la.random_gaussian_vector(3, C, rng) for _ in range(2))
    for name, spec, g, h, seed in (
            ("fubini_study(3) complex, seed 3", mm.fubini_study(3, C), g, h, 3),
            ("fubini_study(2) real e1 -> e2, seed 0", mm.fubini_study(2), la.basis_vector(2, 0),
             la.basis_vector(2, 1), 0)):
        solve = functools.partial(ge.geodesic_distance, spec, g, h, seed=seed)
        res, calls, rows = counted(spec, solve)
        row = {"solve": name, "sweeps": res.iterations, "stop_reason": res.stop_reason,
               "calls": len(calls), "segments": [len(c[1]) for c in calls], "chunk_rows": rows}
        tables["solves"].append((row, 5, solve))
    rng = np.random.default_rng(7)
    for text, names in (("sqrt(p^2+2*q^2)", ("r", "p", "q")), ("1+sin(tau)^2", ("tau",))):
        columns = [rng.uniform(0.5, 2.0, 4000) for _ in names]
        tables["expression_rows"].append(({"call": "compile_rows", "profile": text}, 2000,
                                          lambda f=compile_rows(text, names), c=columns: f(*c)))
    G, H = (la.random_gaussian_rows(4000, 5, C, rng) for _ in range(2))
    Mt, r = la.random_unitaries(100, 5, C, rng).transpose(0, 2, 1), la.row_norms(G)
    for name, call in (("row_norms", lambda: la.row_norms(G)),
                       ("pair_invariants_rows", lambda: la.pair_invariants_rows(G, H, r))):
        # each after the stacked matmul invariance._symmetry_verdicts runs first
        tables["expression_rows"].append(({"call": name, "rows": "complex 4000 x 5"}, 500, call,
                                          lambda: G.reshape(100, 40, 5) @ Mt))
    theta = mm.FromTheta(3, R, mm.RadiusDomain.positive(), mm.theta_profile("1+cos(tau)"))
    arc, kink = ge.circle_arc(3), ge.segment_curve(la.vector([1, 0.2, -0.3]),
                                                   la.vector([-0.5, 1.4, 0.8]))
    for name, spec, curve in (("fubini_study(3) on circle_arc(3)", mm.fubini_study(3), arc),
                              ("theta:1+cos(tau) on circle_arc(3)", theta, arc),
                              ("theta:1+cos(tau) on the kink segment", theta, kink)):
        with captured(ge, "eval_finsler") as nodes, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ge.curve_length(spec, curve)
        row = {"case": name, "nodes": len(nodes),
               "converged": not any("node cap" in str(w.message) for w in caught)}
        tables["simpson"].append((row, 30, lambda s=spec, c=curve: ge.curve_length(s, c)))
    for name, spec in (("euclidean real 3", mm.euclidean(3)),
                       ("fubini_study complex 4", mm.fubini_study(4, C)),
                       ("riemann:1+r;1 real 3",
                        mm.induced_finsler(mm.riemann_profile("1+r", "1"), 3, R))):
        probe = functools.partial(iv.congruence_theorem_probe, spec, seed=0)  # its defaults
        with captured(iv, "eval_batch") as evals, captured(iv, "sample_pairs") as draws:
            probe()
        row = {"spec": name, "eval_batch_calls": len(evals),
               "eval_batch_rows": sum(len(a[1]) for a in evals),
               "sample_pairs_rows": sum(a[1] for a in draws)}
        tables["probe"].append((row, 30, probe))
    return tables


def import_time() -> list:
    """-X importtime's [module, self us, cumulative us] per finsler_iso or dataclasses line.
    The expression language comes last: no other module loads it at import."""
    code = "import " + ", ".join("finsler_iso." + m for m in ("cli", "decompose", "invariance",
                                                             "geometry", "expressions"))
    with tempfile.TemporaryDirectory() as src:  # a copy without src/'s __pycache__; -B writes none
        shutil.copytree(ROOT / "src" / "finsler_iso", Path(src) / "finsler_iso",
                        ignore=shutil.ignore_patterns("__pycache__"))
        err = subprocess.run([sys.executable, "-B", "-X", "importtime", "-c", code], text=True,
                             env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             check=True).stderr
    rows = [line.split("|") for line in err.splitlines() if line.startswith("import time:")]
    return [[name.strip(), int(own.split(":")[1]), int(total)] for own, total, name in rows
            if "finsler_iso" in name or "dataclasses" in name]


def main() -> None:
    lines = {p.name: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((ROOT / "src" / "finsler_iso").glob("*.py"))}
    doc = {"machine": machine(), "python": platform.python_version(), "numpy": np.__version__,
           "src_lines": {**lines, "total": sum(lines.values())}, "import_time": import_time()}
    warnings.simplefilter("ignore", RuntimeWarning)  # the Simpson cap's, recorded by capture
    for table, rows in capture().items():
        doc[table] = [{**row, "us": round(1e6 * median_s(*timing), 1)} for row, *timing in rows]
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
