"""The benchmark's workloads: seeded inputs, the timed program calls, their checks.

A workload builds its specs once (the set-up the benchmark times in a fresh
interpreter) and then yields passes: pass k is a fixed task list whose
inputs depend only on (seed, k).  A run is a whole number of periods of
passes; how many depends only on --seconds, never on how fast the program
runs, so every commit times the same task list.  A task is one program
call that the benchmark times, plus a check against an independent oracle
that it does not time.  Load comes from one process, one task at a time.
"""

from __future__ import annotations

import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from finsler_iso import decompose as dc
from finsler_iso import geometry as ge
from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm

import oracles

R, C = la.Field.REAL, la.Field.COMPLEX
POS = mm.RadiusDomain.positive()
HALF_PI = 0.5 * math.pi
CHILD = Path(__file__).resolve().with_name("child.py")


def pass_count(seconds: float, period: int, period_s: float) -> int:
    """Passes in a run: whole periods, as many as `seconds` holds at the
    nominal pace period_s (seconds per period at the first baseline)."""
    return period * max(1, round(seconds / period_s))


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _rng(seed: int, k: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, k, salt])


def _random_vector(rng: np.random.Generator, dim: int, field: la.Field, norm: float) -> la.Vector:
    if field is R:
        v = rng.standard_normal(dim)
    else:
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return la.vector(v * (norm / np.linalg.norm(v)), field)


def build_spec(text: str, dim: int, field: la.Field) -> mm.MetricSpec:
    """A spec from a named metric or a family:expression string, as the CLI reads them."""
    name, _, payload = text.partition(":")
    if name == "euclidean":
        return mm.euclidean(dim, field)
    if name == "fubini-study":
        return mm.fubini_study(dim, field)
    if name == "norm-quotient":
        return mm.norm_quotient(dim, field)
    if name == "theta":
        return mm.FromTheta(dim, field, POS, mm.theta_profile(payload))
    if name == "lambda":
        return mm.FromLambda(dim, field, POS, mm.lambda_profile(payload))
    if name == "vartheta":
        return mm.spec_from_json({"family": "congruence-invariant", "dim": dim,
                                  "field": field.value, "params": {"vartheta": payload}})
    if name == "nonsym-lambda":
        return mm.FromNonSymLambda(dim, field, POS, mm.nonsym_lambda_profile(payload, field))
    if name == "riemann":
        phi, psi = payload.split(";")
        return mm.induced_finsler(mm.riemann_profile(phi, psi), dim, field)
    raise ValueError(f"unknown metric {text!r}")


# ---------------------------------------------------------------------------
# geodesic: geometry.geodesic_distance at the distance command's defaults

GEODESIC_METRICS = ("euclidean", "fubini-study", "norm-quotient")
# The real angle between g and h sets how close a solve's path runs to the
# excluded origin, and so how many chunks its segments take: a drawn angle
# would make the work of a run depend on the seed.  Solve t of a run takes
# the midpoint of stratum 7t mod 20 of [0, pi] instead, so every run covers
# the same angles, near-antipodal ones included.
ANGLE_STRATA = 20


def _pair_at_angle(rng: np.random.Generator, dim: int, field: la.Field,
                   angle: float) -> tuple[la.Vector, la.Vector]:
    """g, h at real angle `angle` (over R^n or R^2n), |g|, |h| uniform in [0.5, 2]."""
    g = _random_vector(rng, dim, field, 1.0).entries
    w = _random_vector(rng, dim, field, 1.0).entries
    w = w - np.real(np.vdot(g, w)) * g
    w = w / np.linalg.norm(w)
    h = math.cos(angle) * g + math.sin(angle) * w
    return (la.vector(g * float(rng.uniform(0.5, 2.0)), field),
            la.vector(h * float(rng.uniform(0.5, 2.0)), field))


class Geodesic:
    """Per pass, one Euclidean solve (field alternating between passes) and
    one Fubini-Study and one norm-quotient solve over each field.  Each slot
    cycles through dims 2..5 from pass to pass, so every seed runs the same
    mix and angle set; orientations, norms and solver seeds come from the
    seed.  A period of 4 passes solves every (metric, field, dim) once and
    covers every angle stratum once: 20 solves."""

    period, period_s = 4, 34.0

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = {(m, d, f): build_spec(m, d, f)
                      for m in GEODESIC_METRICS for d in range(2, 6) for f in (R, C)}

    def make_pass(self, k: int) -> list[Task]:
        rng = _rng(self.seed, k, 1)
        runs = [("euclidean", R if k % 2 == 0 else C)]
        runs += [(m, f) for m in GEODESIC_METRICS[1:] for f in (R, C)]
        tasks = []
        for j, (metric, field) in enumerate(runs):
            dim = 2 + (k + j) % 4
            stratum = 7 * (len(runs) * k + j) % ANGLE_STRATA
            g, h = _pair_at_angle(rng, dim, field, math.pi * (stratum + 0.5) / ANGLE_STRATA)
            solver_seed = int(rng.integers(2 ** 31))
            spec = self.specs[(metric, dim, field)]
            oracle = oracles.geodesic_oracle(metric, g.entries, h.entries)
            tasks.append(Task(
                f"{metric}/{field.value}/dim{dim}",
                lambda spec=spec, g=g, h=h, s=solver_seed: ge.geodesic_distance(spec, g, h, seed=s),
                lambda res, metric=metric, oracle=oracle: oracles.check_geodesic(
                    metric, res.distance, oracle)))
        return tasks


# ---------------------------------------------------------------------------
# probe: invariance.congruence_theorem_probe plus the dimension-2 exception

PROBE_SPECS = ("euclidean", "fubini-study", "norm-quotient", "theta:1+cos(tau)",
               "lambda:sqrt(p^2+2*q^2)", "vartheta:1+sin(tau)^2", "riemann:1+r;1")
# The documented traffic: congruence_theorem_probe at its defaults (100
# maps, 100 controls, 40 samples), as README's `probe-main --maps 100`
# runs it, and `probe-main --metric area --sl2 100` for dimension 2.
DIM2_MAPS = 100
DIM2_SAMPLES = 40


def _unimodular(rng: np.random.Generator) -> la.LinearMap:
    while True:
        m = rng.standard_normal((2, 2))
        d = abs(np.linalg.det(m))
        if d > 0.05:
            return la.linear_map(m / math.sqrt(d), R)


class Probe:
    """Each spec once per pass, its dimension cycling through 3..5 and its
    field alternating from pass to pass, then one dimension-2 exception
    check; the maps and sample seeds come from the seed.  A period of 3
    passes runs each dimension 7 times: 24 tasks."""

    period, period_s = 3, 9.0

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = {(t, d, f): build_spec(t, d, f)
                      for t in PROBE_SPECS for d in range(3, 6) for f in (R, C)}

    def make_pass(self, k: int) -> list[Task]:
        rng = _rng(self.seed, k, 2)
        tasks = []
        for i, text in enumerate(PROBE_SPECS):
            field = R if (k + i) % 2 == 0 else C
            dim = 3 + (k + i) % 3
            spec = self.specs[(text, dim, field)]
            probe_seed = int(rng.integers(2 ** 31))
            tasks.append(Task(
                f"{text}/{field.value}/dim{dim}",
                lambda spec=spec, s=probe_seed: iv.congruence_theorem_probe(spec, seed=s),
                oracles.check_probe_report))
        maps = [_unimodular(rng) for _ in range(DIM2_MAPS)]
        d2_seed, doubled_seed = (int(x) for x in rng.integers(2 ** 31, size=2))
        doubled = la.linear_map(2.0 * np.eye(2), R)

        def dim2():
            return (iv.dim2_exception_check(1.0, maps, n_samples=DIM2_SAMPLES, seed=d2_seed,
                                            tol=1e-9),
                    iv.is_symmetry(doubled, mm.area_dim2(1.0), 50, seed=doubled_seed))

        def check_dim2(out) -> list[str]:
            report, verdict = out
            problems = []
            if not report.all_passed or report.maps_tested != DIM2_MAPS:
                problems.append(f"unimodular maps: {report}")
            if verdict.is_symmetry:
                problems.append("2*I reported as a symmetry of the area metric")
            return problems

        tasks.append(Task("area/real/dim2", dim2, check_dim2))
        return tasks


# ---------------------------------------------------------------------------
# sweep: every expression family through extraction, lengths and checks

@dataclass(frozen=True)
class SweepSpec:
    family: str
    text: str                 # real-field text; complex text for nonsym-lambda below
    rho_e1_e2: float          # closed form of rho_{e1}(e2)
    homothety_invariant: bool  # analytic verdict for rho_{2g}(2h) = rho_g(h)
    complex_text: str | None = None

    def for_field(self, field: la.Field) -> str:
        return self.complex_text if field is C and self.complex_text else self.text


# rho_{e1}(e2) has r = 1, p = 0, q = 1 and tau = pi/2; under (g, h) -> (2g, 2h)
# r doubles while p and q scale by 4, and sesquilinear arguments r = |g|^2 by 4.
SWEEP_POOL = {
    "theta": (
        SweepSpec("theta", "theta:1+cos(tau)", 1.0 + math.cos(HALF_PI), False),
        SweepSpec("theta", "theta:(2+sin(tau)^2)/r", 3.0, True),
    ),
    "lambda": (
        SweepSpec("lambda", "lambda:sqrt(p^2+2*q^2)", math.sqrt(2.0), False),
        SweepSpec("lambda", "lambda:sqrt(p^2+q^2)/(r^2)", 1.0, True),
    ),
    "congruence-invariant": (
        SweepSpec("congruence-invariant", "vartheta:1+sin(tau)^2", 2.0, True),
        SweepSpec("congruence-invariant", "vartheta:2+cos(tau)", 2.0 + math.cos(HALF_PI), True),
    ),
    "riemann": (
        SweepSpec("riemann", "riemann:1+r;1", math.sqrt(2.0), False),
        SweepSpec("riemann", "riemann:1/r;1/(r^2)", 1.0, True),
    ),
    "nonsym-lambda": (
        SweepSpec("nonsym-lambda", "nonsym-lambda:sqrt(p^2+q^2)+p", 1.0, False,
                  "nonsym-lambda:sqrt(pre^2+pim^2+q^2)+pre"),
        SweepSpec("nonsym-lambda", "nonsym-lambda:(sqrt(p^2+q^2)+p/2)/(r^2)", 1.0, True,
                  "nonsym-lambda:(sqrt(pre^2+pim^2+q^2)+pre/2)/(r^2)"),
    ),
}
SWEEP_DIMS = (3, 5)
ROUNDTRIP_SAMPLES = 1000


def _roundtrip(spec: mm.MetricSpec, seed: int):
    """extract_* for the spec's family, then roundtrip_check at tol 1e-9;
    sesquilinear (phi, psi) extraction for the Riemann-backed families."""
    if spec.family in ("riemann", "fubini-study"):
        oracle = dc.sesqui_oracle_from_spec(spec)
        rebuilt = mm.FromRiemann(spec.dim, spec.field, spec.domain, dc.extract_phi_psi(oracle))
    else:
        oracle = dc.oracle_from_spec(spec)
        if spec.family == "lambda":
            rebuilt = mm.FromLambda(spec.dim, spec.field, spec.domain, dc.extract_lambda(oracle))
        elif spec.family == "nonsym-lambda":
            rebuilt = mm.FromNonSymLambda(spec.dim, spec.field, spec.domain,
                                          dc.extract_nonsym_lambda(oracle))
        else:
            rebuilt = mm.FromTheta(spec.dim, spec.field, spec.domain, dc.extract_theta(oracle))
    return dc.roundtrip_check(oracle, rebuilt, ROUNDTRIP_SAMPLES, seed, 1e-9)


class Sweep:
    """Every family in dims 3 and 5 over both fields; the pool entry
    alternates from pass to pass and the sample seeds come from the seed.
    A period of 2 passes runs both pool entries in every slot: 40 tasks."""

    period, period_s = 2, 7.5

    def __init__(self, seed: int):
        self.seed = seed
        self.specs = {(e.for_field(f), d, f): build_spec(e.for_field(f), d, f)
                      for pool in SWEEP_POOL.values() for e in pool
                      for d in SWEEP_DIMS for f in (R, C)}

    def make_pass(self, k: int) -> list[Task]:
        rng = _rng(self.seed, k, 3)
        tasks = []
        for i, pool in enumerate(SWEEP_POOL.values()):
            for j, (dim, field) in enumerate((d, f) for d in SWEEP_DIMS for f in (R, C)):
                entry = pool[(k + i + j) % len(pool)]
                seeds = [int(x) for x in rng.integers(2 ** 31, size=4)]
                spec = self.specs[(entry.for_field(field), dim, field)]
                tasks.append(Task(f"{entry.for_field(field)}/{field.value}/dim{dim}",
                                  lambda spec=spec, seeds=seeds: _sweep_run(spec, seeds),
                                  lambda out, entry=entry: _sweep_check(entry, out)))
        return tasks


def _sweep_run(spec: mm.MetricSpec, seeds: list[int]) -> dict:
    out = {
        "roundtrip": _roundtrip(spec, seeds[0]),
        "length": ge.curve_length(spec, ge.circle_arc(spec.dim, spec.field)),
        "invariance": iv.invariance_suite(spec, seed=seeds[1]),
        "homothety": mm.check_homothety_invariance(spec, 2.0, seed=seeds[2]),
    }
    if spec.family == "riemann":
        out["fs_roundtrip"] = _roundtrip(mm.fubini_study(spec.dim, spec.field), seeds[3])
    return out


def _sweep_check(entry: SweepSpec, out: dict) -> list[str]:
    problems = []
    for key in ("roundtrip", "fs_roundtrip"):
        rt = out.get(key)
        if rt is not None and not (rt.passed and rt.samples == ROUNDTRIP_SAMPLES):
            problems.append(f"{key} deviation {rt.max_relative_deviation:g}")
    problems += oracles.check_close("Simpson arc length", out["length"],
                                    oracles.arc_length_oracle(entry.rho_e1_e2), oracles.ARC_REL_TOL)
    if not out["invariance"].is_symmetry:
        problems.append(f"invariance suite deviation {out['invariance'].max_deviation:g}")
    if out["homothety"].invariant != entry.homothety_invariant:
        problems.append(f"homothety verdict {out['homothety'].invariant}, "
                        f"analytically {entry.homothety_invariant}")
    return problems


# ---------------------------------------------------------------------------
# cli: the README's examples, verbatim, one subprocess each

CLI_EXAMPLES = (
    (["eval", "--metric", "euclidean", "--dim", "3", "--g", "1,0,0", "--h", "0,3,4"],
     0, oracles.expect_json(value=5.0)),
    (["eval", "--metric", "fubini-study", "--dim", "2", "--g", "1,0", "--h", "0,2"],
     0, oracles.expect_json(value=2.0)),
    (["eval", "--metric", "fubini-study", "--dim", "2", "--g", "1,0", "--h", "0,1", "--f", "0,1"],
     0, oracles.expect_json(value=1.0)),
    (["decompose", "--metric", "euclidean", "--dim", "3"], 0, oracles.expect_theta_table),
    (["decompose", "--metric", "fubini-study", "--dim", "3"], 0, oracles.expect_phi_psi_table),
    (["check", "invariance", "--metric", "euclidean", "--dim", "4", "--samples", "500"],
     0, oracles.expect_json(passed=True, samples=500)),
    (["check", "kaehler", "--metric", "fubini-study", "--dim", "2"],
     0, oracles.expect_json(passed=True)),
    (["check", "pd", "--metric", "riemann:1/r;-1/(r^2)", "--dim", "2"],
     1, oracles.expect_pd_degenerate),
    (["check", "homothety", "--alpha", "2", "--metric", "euclidean", "--dim", "3"],
     1, oracles.expect_homothety_witness),
    (["probe-main", "--metric", "euclidean", "--dim", "3", "--maps", "100"],
     0, oracles.expect_json(passed=True, maps_tested=100, vacuous=False,
                            all_non_congruences_failed=True, controls_passed=True)),
    (["probe-main", "--metric", "area", "--dim", "2", "--sl2", "100"],
     0, oracles.expect_json(passed=True, maps_tested=100)),
    (["distance", "--metric", "fubini-study", "--dim", "3", "--g", "1,0,0", "--h", "0,1,0",
      "--path-out", "path.csv"],
     0, oracles.expect_distance(3, HALF_PI)),
)
# The console script finsler-iso runs exactly this.
ENTRY = "import sys\nfrom finsler_iso.cli import entry\nsys.exit(entry())"
CHILD_TIMEOUT_S = 120.0


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], cwd: Path, env: dict) -> ChildResult:
    """Run argv to completion; time it and read its own peak RSS via wait4."""
    out_path, err_path = cwd / "child.stdout", cwd / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(proc.returncode, wall, usage.ru_maxrss,
                       out_path.read_bytes(), err_path.read_bytes())


class Cli:
    """The twelve README examples per pass, in a seeded order; stdout of each
    example must be byte-identical across passes and traced/untraced runs."""

    period, period_s = 1, 5.0

    def __init__(self, seed: int, workdir: Path, env: dict):
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.first_stdout: dict[int, bytes] = {}
        self.peak_rss_kb = 0
        self.trace_dir: Path | None = None

    def make_pass(self, k: int) -> list[Task]:
        order = list(range(len(CLI_EXAMPLES)))
        random.Random(self.seed * 1_000_003 + k).shuffle(order)
        return [Task(" ".join(CLI_EXAMPLES[i][0][:2]), lambda i=i: self._run(i),
                     lambda out, i=i: self._check(i, out)) for i in order]

    def _run(self, i: int) -> ChildResult:
        args = CLI_EXAMPLES[i][0]
        (self.workdir / "path.csv").unlink(missing_ok=True)
        if self.trace_dir is None:
            argv = [sys.executable, "-c", ENTRY, *args]
        else:
            argv = [sys.executable, str(CHILD), "cli", str(self.trace_dir / f"cli-{i}"), "--", *args]
        res = run_child(argv, self.workdir, self.env)
        self.peak_rss_kb = max(self.peak_rss_kb, res.maxrss_kb)
        return res

    def _check(self, i: int, res: ChildResult) -> list[str]:
        _, want_code, check = CLI_EXAMPLES[i]
        problems = []
        if res.returncode != want_code:
            problems.append(f"exit code {res.returncode}, want {want_code}: "
                            f"{res.stderr.decode(errors='replace')[-300:]}")
        first = self.first_stdout.setdefault(i, res.stdout)
        if res.stdout != first:
            problems.append("stdout differs from the first run of this example")
        files = {}
        path_csv = self.workdir / "path.csv"
        if path_csv.exists():
            files["path.csv"] = path_csv.read_text(encoding="utf-8")
        try:
            problems += check(res.stdout.decode("utf-8"), files)
        except ValueError as exc:
            problems.append(f"unreadable output: {exc}")
        return problems


NAMES = ("geodesic", "probe", "sweep", "cli")


def make(name: str, seed: int, workdir: Path, env: dict):
    """The workload called name, with its specs built."""
    if name == "cli":
        return Cli(seed, workdir, env)
    return {"geodesic": Geodesic, "probe": Probe, "sweep": Sweep}[name](seed)
