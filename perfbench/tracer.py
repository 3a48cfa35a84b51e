"""Outside-in tracer: spans around calls into the package's public functions.

The tracer wraps each function named in TARGETS in every finsler_iso module
namespace that holds it (the defining module and each module that bound it
through ``from .x import``), and puts the originals back on exit.  Spans are
kept in memory as columns (name, parent, start, end); self time is a span's
duration minus the time its child spans cover.  Functions traced in "count"
mode only bump a counter, because they are called too often for a span.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "finsler_iso"

SPAN, TOP, FAMILY, COUNT = "span", "top", "family", "count"

# (module, function, mode, reported stats).  TOP records only calls that are
# not nested in a call of the same function (evaluate and render_json recurse).
TARGETS = [
    ("linalg", "canonical_invariants", SPAN, ("calls", "self_s", "us_per_call")),
    ("linalg", "acute_angle", SPAN, ("calls", "self_s")),
    ("linalg", "apply_map", SPAN, ("calls", "self_s")),
    ("linalg", "random_unitary", SPAN, ("calls", "self_s")),
    ("linalg", "random_vector_with_norm", SPAN, ("calls", "self_s")),
    ("linalg", "random_gaussian_vector", SPAN, ("calls", "self_s")),
    ("linalg", "norm", COUNT, ("calls",)),
    ("linalg", "inner", COUNT, ("calls",)),
    ("expressions", "evaluate", TOP, ("calls", "self_s", "us_per_call", "raised")),
    ("expressions", "parse", SPAN, ("calls", "self_s")),
    ("metrics", "eval_finsler", FAMILY, ("calls", "self_s", "us_per_call", "raised")),
    ("metrics", "eval_sesquilinear", SPAN, ("calls", "self_s")),
    ("metrics", "check_homothety_invariance", SPAN, ("calls", "self_s")),
    ("metrics", "induced_finsler", SPAN, ("calls", "self_s")),
    ("decompose", "roundtrip_check", SPAN, ("calls", "self_s")),
    ("decompose", "validate_alpha", SPAN, ("calls", "self_s")),
    ("invariance", "is_symmetry", SPAN, ("calls", "self_s", "us_per_call")),
    ("invariance", "congruence_theorem_probe", SPAN, ("calls", "self_s")),
    ("invariance", "invariance_suite", SPAN, ("calls", "self_s")),
    ("invariance", "dim2_exception_check", SPAN, ("calls", "self_s")),
    ("geometry", "_segment_length", SPAN, ("calls", "self_s", "us_per_call", "raised")),
    ("geometry", "geodesic_distance", SPAN, ("calls", "self_s")),
    ("geometry", "curve_length", SPAN, ("calls", "self_s")),
    ("cli", "metric_from_args", SPAN, ("calls", "self_s")),
    ("cli", "render_json", TOP, ("calls", "self_s")),
    ("cli", "main", SPAN, ("calls", "self_s")),
]

FAMILIES = ("euclidean", "fubini-study", "congruence-invariant", "theta", "lambda",
            "nonsym-lambda", "riemann", "area")

STAT_UNITS = {"calls": "count", "self_s": "s", "us_per_call": "us", "raised": "count"}

# Metrics derived from counters and span links rather than one span name.
DERIVED = [
    ("invariance.is_symmetry.samples_used_ratio", "ratio"),
    ("geometry._segment_length.evals_per_call", "count"),
    ("geometry.geodesic_distance.iterations", "count"),
    ("geometry.geodesic_distance.cap_ratio", "ratio"),
    ("setup.numpy_import_s", "s"),
    ("setup.package_import_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("bench.fail_ratio", "ratio"),
    ("bench.pace_ms", "ms"),
]


def span_names() -> list[tuple[str, tuple[str, ...]]]:
    out = []
    for module, func, mode, stats in TARGETS:
        if mode == FAMILY:
            out.extend((f"{module}.{func}.{fam}", stats) for fam in FAMILIES)
        else:
            out.append((f"{module}.{func}", stats))
    return out


def catalogue() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in reporting order."""
    out = [(f"{name}.{stat}", STAT_UNITS[stat]) for name, stats in span_names() for stat in stats]
    return out + DERIVED


class Tracer:
    """Install with ``with Tracer() as t:``; read ``t.aggregate()`` afterwards."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("q")
        self.parent_col = array("q")
        self.start_col = array("d")
        self.end_col = array("d")
        self._stack: list[int] = []
        self._depth = Counter()
        self.counts = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name (used for the benchmark's task roots)."""
        return self._call(self.name_id(name), name, fn, args, kwargs)

    def _call(self, nid, name, fn, args, kwargs):
        i = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.start_col.append(0.0)
        self.end_col.append(0.0)
        self._stack.append(i)
        self.start_col[i] = perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.counts[f"{name}.raised"] += 1
            raise
        finally:
            self.end_col[i] = perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str, mode: str):
        tracer = self
        if mode == COUNT:
            key = f"{name}.calls"

            def counted(*args, **kwargs):
                tracer.counts[key] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        elif mode == FAMILY:
            def by_family(spec, *args, **kwargs):
                full = f"{name}.{spec.family}"
                return tracer._call(tracer.name_id(full), full, fn, (spec,) + args, kwargs)
            wrapper = by_family
        elif mode == TOP:
            nid = self.name_id(name)

            def top_level(*args, **kwargs):
                if tracer._depth[name]:
                    return fn(*args, **kwargs)
                tracer._depth[name] += 1
                try:
                    return tracer._call(nid, name, fn, args, kwargs)
                finally:
                    tracer._depth[name] -= 1
            wrapper = top_level
        else:
            nid = self.name_id(name)
            post = _POST_HOOKS.get(name)
            signature = inspect.signature(fn) if post else None

            def spanned(*args, **kwargs):
                result = tracer._call(nid, name, fn, args, kwargs)
                if post is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    post(tracer.counts, bound.arguments, result)
                return result
            wrapper = spanned
        wrapper.__wrapped__ = fn
        wrapper.perfbench_wrapper = True
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for module, func, mode, _ in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            if mod is None:
                continue
            original = getattr(mod, func)
            wrappers[id(original)] = (original, self._wrap(original, f"{module}.{func}", mode))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -------------------------------------------------------------

    def aggregate(self) -> dict:
        """Mergeable raw sums: counters plus per-name calls and self time."""
        agg = dict(self.counts)
        n = len(self.start_col)
        if n == 0:
            return agg
        names = np.frombuffer(self.name_col, dtype=np.int64)
        parents = np.frombuffer(self.parent_col, dtype=np.int64)
        dur = np.frombuffer(self.end_col, dtype=np.float64) - np.frombuffer(self.start_col, dtype=np.float64)
        has_parent = parents >= 0
        child_time = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_time = dur - child_time
        calls = np.bincount(names, minlength=len(self.names))
        self_sum = np.bincount(names, weights=self_time, minlength=len(self.names))
        for nid, name in enumerate(self.names):
            if calls[nid]:
                agg[f"{name}.calls"] = agg.get(f"{name}.calls", 0) + int(calls[nid])
                agg[f"{name}.self_s"] = agg.get(f"{name}.self_s", 0.0) + float(self_sum[nid])
        seg = self._ids.get("geometry._segment_length")
        if seg is not None:
            evals = {self._ids[f"metrics.eval_finsler.{fam}"] for fam in FAMILIES
                     if f"metrics.eval_finsler.{fam}" in self._ids}
            in_segment = np.isin(names, list(evals)) & has_parent
            in_segment[in_segment] = names[parents[in_segment]] == seg
            agg["geometry._segment_length.evals"] = int(in_segment.sum())
        return agg

    def dump(self, path: Path) -> None:
        """Write the spans out: one row per span, names indexed into `names`."""
        np.savez(path, names=np.array(json.dumps(self.names)),
                 name=np.frombuffer(self.name_col, dtype=np.int64),
                 parent=np.frombuffer(self.parent_col, dtype=np.int64),
                 start=np.frombuffer(self.start_col, dtype=np.float64),
                 end=np.frombuffer(self.end_col, dtype=np.float64))


def _post_is_symmetry(counts, arguments, result) -> None:
    counts["invariance.is_symmetry.samples_used"] += result.samples_used
    counts["invariance.is_symmetry.samples_requested"] += arguments["n_samples"]


def _post_geodesic(counts, arguments, result) -> None:
    counts["geometry.geodesic_distance.iterations_total"] += result.iterations
    counts["geometry.geodesic_distance.capped"] += int(result.iterations >= arguments["n_iterations"])


_POST_HOOKS = {
    "invariance.is_symmetry": _post_is_symmetry,
    "geometry.geodesic_distance": _post_geodesic,
}


def merge(into: dict, agg: dict) -> dict:
    for key, value in agg.items():
        into[key] = into.get(key, 0) + value
    return into


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(agg: dict, extra: dict) -> dict:
    """The per-layer metrics of the catalogue from an aggregate; extra holds
    the setup, overhead and fail-ratio values measured outside the tracer."""
    out = {}
    for name, stats in span_names():
        calls = agg.get(f"{name}.calls", 0)
        self_s = agg.get(f"{name}.self_s", 0.0)
        values = {"calls": calls, "self_s": self_s, "raised": agg.get(f"{name}.raised", 0),
                  "us_per_call": 1e6 * _ratio(self_s, calls)}
        for stat in stats:
            out[f"{name}.{stat}"] = values[stat]
    out["invariance.is_symmetry.samples_used_ratio"] = _ratio(
        agg.get("invariance.is_symmetry.samples_used", 0),
        agg.get("invariance.is_symmetry.samples_requested", 0))
    out["geometry._segment_length.evals_per_call"] = _ratio(
        agg.get("geometry._segment_length.evals", 0), agg.get("geometry._segment_length.calls", 0))
    solves = agg.get("geometry.geodesic_distance.calls", 0)
    out["geometry.geodesic_distance.iterations"] = _ratio(
        agg.get("geometry.geodesic_distance.iterations_total", 0), solves)
    out["geometry.geodesic_distance.cap_ratio"] = _ratio(
        agg.get("geometry.geodesic_distance.capped", 0), solves)
    out.update(extra)
    units = dict(catalogue())
    return {name: {"value": out[name], "unit": units[name]} for name, _ in catalogue()}


def installed_wrappers() -> list[str]:
    """Names of package attributes that currently hold a tracer wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        found.extend(f"{mod_name}.{attr}" for attr, value in vars(mod).items()
                     if getattr(value, "perfbench_wrapper", False))
    return found
