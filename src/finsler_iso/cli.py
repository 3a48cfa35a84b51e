"""Command-line front end.

Subcommands: eval, decompose, check, probe-main, distance.  Output is
machine-readable: JSON objects with sorted keys and 17-significant-digit
floats, non-finite ones as null (byte-identical across runs for identical
flags and seed), or RFC-4180 CSV with a header row.

Exit codes: 0 success/pass, 1 property violated, 2 usage or parse error,
3 numeric/domain error.
"""

from __future__ import annotations

# The package modules load before argparse and json: in the other order a
# child whose bytecode is compiled afresh peaks about 0.2 MB higher in RSS.
# They are imported dotted, which -X importtime reports on lines of their own,
# and each command imports the one further module it runs (metrics loads the
# expression language with the first profile text, _write_csv loads csv).
import numpy as np

import finsler_iso.metrics as mm

from .errors import (EvalError, InvalidArgumentError, MismatchError, NonPositiveMetricError,
                     OutOfDomainError, ParseError, ZeroVectorError, check_finite)
from .linalg import Field, Vector

import argparse
import json
import math
import sys
import warnings


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Deterministic JSON rendering

def _fmt_float(x: float) -> str:
    return format(x, ".17g") if math.isfinite(x) else "null"  # JSON has no inf or NaN


def render_json(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{render_json(v)}" for k, v in sorted(obj.items()))
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot render {type(obj).__name__}")


def _emit(obj) -> None:
    sys.stdout.write(render_json(obj) + "\n")


def vector_json(v: Vector) -> list:
    if v.field is Field.REAL:
        return [float(x) for x in v.entries]
    return [[float(x.real), float(x.imag)] for x in v.entries]


def witness_json(witness: tuple[Vector, Vector] | None) -> dict | None:
    return None if witness is None else {"g": vector_json(witness[0]),
                                         "h": vector_json(witness[1])}


def verdict_to_json(verdict, spec_obj) -> dict:
    """A SymmetryVerdict of the invariance module as the report's JSON fields."""
    return {
        "spec": spec_obj,
        "verdict": "symmetry" if verdict.is_symmetry else "not-symmetry",
        "max_deviation": verdict.max_deviation,
        "witness": witness_json(verdict.witness),
    }


# ---------------------------------------------------------------------------
# Argument parsing helpers

def parse_vector(text: str, dim: int, field: Field) -> Vector:
    """Comma-separated entries; complex entries as re:im pairs."""
    parts = text.split(",")
    if len(parts) != dim:
        raise UsageError(f"expected {dim} vector entries, got {len(parts)}")
    entries = []
    for part in parts:
        part = part.strip()
        try:
            if ":" in part:
                if field is Field.REAL:
                    raise UsageError(f"complex entry {part!r} in a real vector")
                re_s, im_s = part.split(":", 1)
                entry = complex(float(re_s), float(im_s))
            else:
                entry = complex(float(part), 0.0) if field is Field.COMPLEX else float(part)
        except ValueError:
            raise UsageError(f"cannot parse vector entry {part!r}") from None
        if not (math.isfinite(entry.real) and math.isfinite(entry.imag)):
            raise UsageError(f"vector entry {part!r} is not finite")
        entries.append(entry)
    return Vector(np.array(entries, dtype=field.dtype), field)


def metric_from_args(args) -> mm.MetricSpec:
    """Build the MetricSpec from --metric, reporting parse errors."""
    raw = args.metric
    try:
        if raw.startswith("@"):
            with open(raw[1:], encoding="utf-8") as fh:
                obj = json.load(fh)
            spec = mm.spec_from_json(obj)
            if args.dim is not None and args.dim != spec.dim:
                raise UsageError(f"--dim {args.dim} conflicts with spec dim {spec.dim}")
            if args.field is not None and Field(args.field) is not spec.field:
                raise UsageError(f"--field {args.field} conflicts with the spec's field")
            return spec
        return _named_metric(raw, args)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read metric spec: {exc}") from None
    except EvalError:
        raise  # undefined on a sampled pair while being built (riemann's sign probe): exit 3
    except (ParseError, ValueError) as exc:
        raise UsageError(f"bad metric spec: {exc}") from None


def _named_metric(raw: str, args) -> mm.MetricSpec:
    """NAME[:PAYLOAD] with --dim/--field, built by spec_from_json."""
    field = Field(args.field) if args.field is not None else Field.REAL
    if args.dim is None:
        raise UsageError("--dim is required with a named metric")
    name, colon, payload = raw.partition(":")
    if name in ("euclidean", "fubini-study", "norm-quotient"):
        if colon:
            raise UsageError(f"metric {name!r} takes no payload, got {raw!r}")
        if name == "norm-quotient":  # its vartheta = 1 without the expression language
            return mm.norm_quotient(args.dim, field)
        params = {}
    elif name == "area":
        params = {"b": float(payload) if payload else 1.0}
    elif name in ("lambda", "nonsym-lambda"):
        params = {"lam": payload}
    elif name == "theta":
        params = {"theta": payload}
    elif name == "vartheta":
        name, params = "congruence-invariant", {"vartheta": payload}
    elif name == "riemann":
        phi, semicolon, psi = payload.partition(";")
        if not semicolon:
            raise UsageError("riemann metric needs 'riemann:PHI;PSI'")
        params = {"phi": phi, "psi": psi}
    else:
        raise UsageError(f"unknown metric {raw!r}")
    return mm.spec_from_json({"family": name, "dim": args.dim, "field": field.value,
                              "params": params})


def _write_csv(rows, header, path) -> None:
    """Header and rows as CSV, floats in .17g, to the file at path or to stdout."""
    import csv

    try:
        out = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    try:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows([format(x, ".17g") for x in row] for row in rows)
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# Commands

def cmd_eval(args) -> int:
    spec = metric_from_args(args)
    g = parse_vector(args.g, spec.dim, spec.field)
    h = parse_vector(args.h, spec.dim, spec.field)
    if args.f is not None:
        f = parse_vector(args.f, spec.dim, spec.field)
        value = mm.eval_sesquilinear(spec, g, f, h)
        _emit({"value": [value.real, value.imag] if isinstance(value, complex) else value})
    else:
        _emit({"value": mm.eval_finsler(spec, g, h)})
    return 0


def cmd_decompose(args) -> int:
    import finsler_iso.decompose as dc

    check_finite(r_min=args.r_min, r_max=args.r_max)
    for flag, steps in (("--r-steps", args.r_steps), ("--tau-steps", args.tau_steps)):
        if steps < 1:
            raise UsageError(f"{flag} must be >= 1, got {steps}: a table of no rows shows nothing")
    spec = metric_from_args(args)
    r_values = [float(r) for r in np.linspace(args.r_min, args.r_max, args.r_steps)]
    if args.form == "riemann" or (args.form == "auto" and isinstance(spec, mm.RIEMANN_BACKED)):
        extracted = dc.extract_phi_psi(dc.sesqui_oracle_from_spec(spec))
        _write_csv(dc.tabulate_phi_psi(extracted, r_values), ["r", "phi", "psi"], args.output)
    else:
        theta = dc.extract_theta(spec)
        tau_values = [float(t) for t in np.linspace(0.0, 0.5 * math.pi, args.tau_steps)]
        _write_csv(dc.tabulate_theta(theta, r_values, tau_values),
                   ["r", "tau", "theta_value"], args.output)
    return 0


def cmd_check(args) -> int:
    if args.which in ("pd", "kaehler"):  # the table's radii, refused before the metric is built
        check_finite(r_min=args.r_min, r_max=args.r_max,  # then |g|^2, which may overflow
                     r_min_squared=args.r_min * args.r_min, r_max_squared=args.r_max * args.r_max)
    spec = metric_from_args(args)
    spec_obj = mm.spec_to_json(spec)
    if args.samples < 1:
        raise UsageError(f"--samples must be >= 1: check {args.which} of no samples tests nothing")
    if args.which == "invariance":
        import finsler_iso.invariance as iv

        verdict = iv.invariance_suite(spec, args.samples, args.seed, args.tol)
        report = verdict_to_json(verdict, spec_obj)
        report.update({"check": "invariance", "samples": verdict.samples_used,
                       "passed": verdict.is_symmetry})
        _emit(report)
        return 0 if verdict.is_symmetry else 1
    if args.which == "homothety":
        verdict = mm.check_homothety_invariance(spec, args.homothety_alpha, args.samples,
                                                args.seed, args.tol)
        _emit({"check": "homothety", "alpha": args.homothety_alpha, "spec": spec_obj,
               "max_deviation": verdict.max_deviation, "passed": verdict.invariant,
               "skipped": verdict.skipped, "witness": witness_json(verdict.witness)})
        return 0 if verdict.invariant else 1
    r2 = [r * r for r in np.linspace(args.r_min, args.r_max, args.samples).tolist()]
    if args.which == "pd":
        verdicts = mm.check_positive_definite(spec, r2)
        passed = all(v is mm.PDVerdict.POSITIVE_DEFINITE for v in verdicts)
        _emit({"check": "pd", "spec": spec_obj, "r_squared": r2,
               "verdicts": [v.value for v in verdicts], "passed": passed})
        return 0 if passed else 1
    # kaehler
    results = mm.check_kaehler(spec, r2)
    passed = all(results)
    report = {"check": "kaehler", "spec": spec_obj, "r_squared": r2,
              "results": results, "passed": passed}
    if spec.family == "fubini-study":
        report["potential"] = "2*log(norm(g))"  # informational; not verified
    _emit(report)
    return 0 if passed else 1


def cmd_probe_main(args) -> int:
    import finsler_iso.invariance as iv

    spec = metric_from_args(args)
    spec_obj = mm.spec_to_json(spec)
    if spec.dim < 3:
        if args.sl2 is None:
            raise UsageError("the theorem probe requires dim >= 3 "
                             "(use --sl2 N for the dim-2 area exception)")
        if not isinstance(spec, mm.AreaDim2):
            raise UsageError("--sl2 applies to the dim-2 area metric")
        # The check builds the real area metric b*q on the whole punctured plane.
        if spec.field is not Field.REAL or spec.domain != mm.RadiusDomain.positive():
            raise UsageError("--sl2 tests the real area metric on the positive radius "
                             "domain; this spec is not that metric")
        maps = [iv.random_unimodular(args.seed + k) for k in range(args.sl2)]
        report = iv.dim2_exception_check(spec.b, maps, args.samples, args.seed, args.tol)
        _emit({"probe": "dim2-exception", "spec": spec_obj, "maps_tested": report.maps_tested,
               "max_deviation": report.max_deviation, "passed": report.all_passed})
        return 0 if report.all_passed else 1
    report = iv.congruence_theorem_probe(spec, n_maps=args.maps, n_samples=args.samples,
                                         seed=args.seed, min_sv_ratio=args.min_sv_ratio,
                                         control_tol=args.tol)
    if report.vacuous:
        raise UsageError("the metric is 0 on every map's sampled pairs, so no map can fail: "
                         "a probe of it tests nothing")
    ok = report.all_failed and report.controls_passed
    _emit({"probe": "theorem-main", "spec": spec_obj, "maps_tested": report.maps_tested,
           "all_non_congruences_failed": report.all_failed,
           "weakest_deviation": report.weakest_deviation,
           "controls_tested": report.controls_tested,
           "controls_passed": report.controls_passed,
           "control_worst_deviation": report.control_worst_deviation,
           # always false here (a vacuous probe is a usage error above); kept
           # while the benchmark's cli oracle expects it, see FOUND in CHANGES.md
           "vacuous": report.vacuous, "passed": ok})
    return 0 if ok else 1


def cmd_distance(args) -> int:
    import finsler_iso.geometry as ge

    spec = metric_from_args(args)
    g = parse_vector(args.g, spec.dim, spec.field)
    h = parse_vector(args.h, spec.dim, spec.field)
    result = ge.geodesic_distance(spec, g, h, n_vertices=args.vertices,
                                  n_iterations=args.iterations, seed=args.seed)
    if args.path_out:
        header = ["t"] + [f"x{i + 1}" for i in range(spec.dim)]
        if spec.field is Field.COMPLEX:
            header += [f"y{i + 1}" for i in range(spec.dim)]
        _write_csv(ge.path_rows(result.path), header, args.path_out)
    _emit({"value": result.distance, "iterations": result.iterations,
           "initial_length": result.initial_length, "stop_reason": result.stop_reason})
    return 0


# ---------------------------------------------------------------------------
# Parser assembly

def _add_metric(p: argparse.ArgumentParser) -> None:
    p.add_argument("--metric", required=True,
                   help="named metric, family:expr constructor, or @file.json")
    p.add_argument("--dim", type=int)
    p.add_argument("--field", choices=["real", "complex"])


def _seed(text: str) -> int:
    """A --seed value: an integer >= 0, as numpy's SeedSequence takes it."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {seed}")
    return seed


def _add_seed(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0)


def _add_seed_tol(p: argparse.ArgumentParser) -> None:
    _add_seed(p)
    p.add_argument("--tol", type=float, default=1e-9)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finsler-iso",
        description="Isometry-invariant metrics: evaluation, decomposition, "
                    "invariance checks, theorem probes and geodesic distances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate rho_g(h), or sigma_g(f,h) with --f")
    _add_metric(p)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--f", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("decompose", help="extract theta(r,tau) or (phi,psi) as CSV")
    _add_metric(p)
    p.add_argument("--as", dest="form", choices=["auto", "finsler", "riemann"], default="auto")
    units = ("|g| under --as finsler, |g|^2 under --as riemann "
             "(auto's form for a Riemann-backed metric)")
    p.add_argument("--r-min", type=float, default=0.5, help=f"first r of the table: {units}")
    p.add_argument("--r-max", type=float, default=2.0, help=f"last r of the table: {units}")
    p.add_argument("--r-steps", type=int, default=5)
    p.add_argument("--tau-steps", type=int, default=5)
    p.add_argument("--output", help="CSV output path (default stdout)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check", help="invariance / pd / kaehler / homothety checks")
    p.set_defaults(func=cmd_check)
    modes = p.add_subparsers(dest="which", required=True)
    for which in ("invariance", "pd", "kaehler", "homothety"):
        p = modes.add_parser(which)
        _add_metric(p)
        p.add_argument("--samples", type=int, default=200)
        if which in ("pd", "kaehler"):
            p.add_argument("--r-min", type=float, default=0.5)
            p.add_argument("--r-max", type=float, default=2.0)
        else:
            _add_seed_tol(p)
    modes.choices["homothety"].add_argument("--alpha", dest="homothety_alpha", type=float,
                                            required=True, help="homothety coefficient")

    p = sub.add_parser("probe-main", help="falsification probe: symmetries are congruences")
    _add_metric(p)
    _add_seed_tol(p)
    p.add_argument("--maps", type=int, default=100)
    p.add_argument("--samples", type=int, default=40)
    p.add_argument("--min-sv-ratio", type=float, default=1.1)
    p.add_argument("--sl2", type=int, default=None,
                   help="dim-2 exception: number of random unimodular maps")
    p.set_defaults(func=cmd_probe_main)

    p = sub.add_parser("distance", help="geodesic distance by polyline descent")
    _add_metric(p)
    _add_seed(p)
    p.add_argument("--g", required=True)
    p.add_argument("--h", required=True)
    p.add_argument("--vertices", type=int, default=13)
    p.add_argument("--iterations", type=int, default=150)
    p.add_argument("--path-out", help="write the optimized path as CSV")
    p.set_defaults(func=cmd_distance)

    return parser


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as the CLI prints it: one line, without the source location."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own usage errors
        return int(exc.code or 0)
    # Only the format changes: the warnings filters (an "error" filter
    # included) and any recording of warnings act as before.
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return args.func(args)
    except (UsageError, ParseError, MismatchError, InvalidArgumentError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OutOfDomainError, NonPositiveMetricError, ZeroVectorError, EvalError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    finally:
        warnings.formatwarning = formatwarning


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
