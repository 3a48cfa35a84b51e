import ast
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import warnings

import pytest
from hypothesis import example, given, settings

from finsler_iso import cli
from finsler_iso import invariance as iv
from finsler_iso import linalg as la
from finsler_iso import metrics as mm
from helpers import cli_cases


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_euclidean(capsys):
    code, out, _ = run(capsys, "eval", "--metric", "euclidean", "--dim", "3",
                       "--g", "1,0,0", "--h", "0,3,4")
    assert code == 0
    assert out == '{"value":5}\n'


def test_eval_fubini_study(capsys):
    code, out, _ = run(capsys, "eval", "--metric", "fubini-study", "--dim", "2",
                       "--g", "1,0", "--h", "0,2")
    assert code == 0 and json.loads(out)["value"] == 2


def test_eval_dimension_mismatch_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--metric", "euclidean", "--dim", "2",
                       "--g", "1,0", "--h", "1")
    assert code == 2 and "2 vector entries" in err


def test_eval_out_of_domain_is_exit_3(capsys):
    code, _, err = run(capsys, "eval", "--metric", "euclidean", "--dim", "2",
                       "--g", "0,0", "--h", "1,0")
    assert code == 3 and "domain" in err


def test_eval_at_a_g_whose_norm_under_or_overflows_is_exit_3(capsys):
    # |g| = 0 for a g != 0 is named as an underflow, not read as g = 0; |g| = inf
    # as an overflow, with no numpy warning on stderr (the test configuration
    # also turns one into an error); for rho and, with --f, for sigma
    for g, h, word in (("1e-200,0", "0,1e-200", "underflows"), ("1e200,0", "1e200,0", "overflows")):
        for extra in ([], ["--f", "1,0"]):
            code, out, err = run(capsys, "eval", "--metric", "fubini-study", "--dim", "2",
                                 "--g", g, "--h", h, *extra)
            assert code == 3 and out == "" and word in err and "Warning" not in err, (g, extra)


def test_eval_undefined_expression_is_exit_3(capsys):
    for metric in ("theta:exp(1000)-exp(1000)", "theta:sin(exp(1000))"):
        code, out, err = run(capsys, "eval", "--metric", metric, "--dim", "2",
                             "--g", "1,0", "--h", "0,1")
        assert code == 3 and out == "" and "error" in err, metric


def test_eval_of_an_undefined_riemann_value_is_exit_3(capsys):
    # phi|h|^2 and psi p^2 overflow to opposite infinities: no value, not null
    code, out, err = run(capsys, "eval", "--metric", "riemann:1e308;-1e308", "--dim", "2",
                         "--g", "1,0", "--h", "10,0")
    assert code == 3 and out == "" and "undefined" in err


@pytest.mark.parametrize("metric,field,g,h,value", [
    # phi = 0 makes phi|h|^2 = 0 although |h|^2 overflows, as in sigma; psi p^2 = 0
    ("riemann:0;1", "real", "1,0", "0,1e200", "0"),
    # |h|^2 = p^2 overflows to one infinity: a value, printed as null
    ("riemann:1;0", "real", "1,0", "1e200,0", "null"),
    ("riemann:1;0", "complex", "1:0,0:0", "1e200:0,0:0", "null")])
def test_eval_of_a_riemann_value_with_overflowing_invariants(capsys, metric, field, g, h, value):
    code, out, err = run(capsys, "eval", "--metric", metric, "--dim", "2", "--field", field,
                         "--g", g, "--h", h)
    assert (code, out, err) == (0, f'{{"value":{value}}}\n', "")


def test_eval_of_an_undefined_sigma_is_exit_3(capsys):
    # phi <f,h> and psi <f,g><g,h> overflow to opposite infinities: no value and
    # no numpy warning, not null
    code, out, err = run(capsys, "eval", "--metric", "fubini-study", "--dim", "2",
                         "--g", "1,0", "--h", "1e200,0", "--f", "1e200,0")
    assert code == 3 and out == "" and "sigma is undefined" in err and "Warning" not in err


@pytest.mark.parametrize("field,g,f,h", [
    ("real", "1e150,0", "1e200,0", "1e-100,0"),
    ("complex", "1e150:0,0:0", "1e200:0,0:0", "1e-100:0,0:0")])
def test_eval_of_a_sigma_with_a_zero_coefficient(capsys, field, g, f, h):
    # psi(|g|^2) = -1/|g|^4 underflows to 0 while <f,g> overflows: a zero
    # coefficient makes its term 0, not 0 * inf = NaN, so sigma is phi <f,h>
    code, out, err = run(capsys, "eval", "--metric", "fubini-study", "--dim", "2",
                         "--field", field, "--g", g, "--f", f, "--h", h)
    value = json.loads(out)["value"]
    assert code == 0 and err == ""
    assert (value if field == "real" else value[0]) == pytest.approx(1e-200, rel=1e-12)
    assert field == "real" or value[1] == 0.0


def test_eval_too_deep_expression_is_exit_2(capsys):
    for text in ("(" * 500 + "1" + ")" * 500, "+".join(["r"] * 3000)):
        code, out, err = run(capsys, "eval", "--metric", f"theta:{text}", "--dim", "2",
                             "--g", "1,0", "--h", "0,1")
        assert code == 2 and out == "" and "deeper than" in err and "offset" in err


def test_eval_complex_entries(capsys):
    code, out, _ = run(capsys, "eval", "--metric", "euclidean", "--dim", "2",
                       "--field", "complex", "--g", "1:0,0:0", "--h", "0:1,1:0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.sqrt(2.0))


def test_eval_sesquilinear_flag(capsys):
    code, out, _ = run(capsys, "eval", "--metric", "fubini-study", "--dim", "2",
                       "--g", "1,0", "--h", "0,1", "--f", "0,1")
    assert code == 0 and json.loads(out)["value"] == 1
    code, _, err = run(capsys, "eval", "--metric", "euclidean", "--dim", "2",
                       "--g", "1,0", "--h", "0,1", "--f", "0,1")
    assert code == 2 and "Riemann" in err


@pytest.mark.parametrize("family,params,value", [("fubini-study", {}, 1 / 2.25),
                                                  ("riemann", {"phi": "1", "psi": "0"}, 1.0)])
def test_sigma_and_criteria_refuse_outside_a_bounded_domain(capsys, tmp_path, family, params,
                                                             value):
    # |g| in (1, 2): sigma at |g| = 3 and the criteria at |g|^2 = 0.01, 6.5025
    # and 25 are out of domain for a fubini-study spec as for a riemann one
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": family, "dim": 2, "field": "real",
                                "domain": {"intervals": [[1, 2]]}, "params": params}))
    metric = f"@{path}"
    grid = ["--r-min", "0.1", "--r-max", "5", "--samples", "3"]
    for argv in (["eval", "--metric", metric, "--g", "3,0", "--h", "0,1", "--f", "0,1"],
                 ["eval", "--metric", metric, "--g", "3,0", "--h", "0,1"],
                 ["check", "pd", "--metric", metric, *grid],
                 ["check", "kaehler", "--metric", metric, *grid]):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == "" and "domain" in err, argv
    code, out, _ = run(capsys, "eval", "--metric", metric, "--g", "1.5,0", "--h", "0,1",
                       "--f", "0,1")
    assert code == 0 and json.loads(out)["value"] == value
    code, out, _ = run(capsys, "check", "pd", "--metric", metric, "--r-min", "1.1",
                       "--r-max", "1.9", "--samples", "3")
    verdict = "PSD-degenerate" if family == "fubini-study" else "PD"
    assert (code, json.loads(out)["verdicts"]) == (int(verdict != "PD"), [verdict] * 3)


def test_eval_expression_metrics(capsys):
    # the Euclidean profile: rho = sqrt(p^2+q^2)/r = |h| for any base point
    code, out, _ = run(capsys, "eval", "--metric", "lambda:sqrt(p^2+q^2)/r",
                       "--dim", "2", "--g", "2,0", "--h", "0,3")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(3.0)
    code, out, _ = run(capsys, "eval", "--metric", "riemann:1/r;-1/(r^2)",
                       "--dim", "2", "--g", "1,0", "--h", "0,2")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(2.0)
    code, out, _ = run(capsys, "eval", "--metric", "vartheta:1", "--dim", "2",
                       "--g", "2,0", "--h", "0,3")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(1.5)


def test_bad_expression_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--metric", "lambda:p+*q", "--dim", "2",
                       "--g", "1,0", "--h", "0,1")
    assert code == 2 and "offset" in err


def test_unknown_metric_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--metric", "hyperbolic", "--dim", "2",
                       "--g", "1,0", "--h", "0,1")
    assert code == 2 and "unknown metric" in err


def test_metric_from_json_file(capsys, tmp_path):
    spec = {"family": "zero-extended", "dim": 2, "field": "real",
            "domain": {"intervals": [[0, None]], "includes_zero": True},
            "params": {"b": 3.0,
                       "inner": {"family": "euclidean", "dim": 2, "field": "real",
                                 "domain": {"intervals": [[0, None]], "includes_zero": False},
                                 "params": {}}}}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "eval", "--metric", f"@{path}", "--g", "0,0", "--h", "1,0")
    assert code == 0 and json.loads(out)["value"] == 3


def test_a_named_metric_needs_dim(capsys):
    code, out, err = run(capsys, "eval", "--metric", "euclidean", "--g", "1,0", "--h", "0,1")
    assert (code, out, err) == (2, "", "error: --dim is required with a named metric\n")


def test_an_unreadable_spec_file_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--metric", f"@{tmp_path / 'missing.json'}",
                         "--g", "1,0", "--h", "0,1")
    assert code == 2 and out == "" and err.startswith("error: cannot read metric spec: ")


def test_riemann_constructor_needs_a_semicolon(capsys):
    code, _, err = run(capsys, "eval", "--metric", "riemann:1/r", "--dim", "2",
                       "--g", "1,0", "--h", "0,1")
    assert (code, err) == (2, "error: riemann metric needs 'riemann:PHI;PSI'\n")


@pytest.mark.parametrize("option,value,message", [
    ("--dim", "3", "--dim 3 conflicts with spec dim 2"),
    ("--field", "complex", "--field complex conflicts with the spec's field")])
def test_dim_or_field_conflicting_with_a_spec_file_is_usage_error(capsys, tmp_path, option,
                                                                   value, message):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "euclidean", "dim": 2, "field": "real"}))
    code, _, err = run(capsys, "eval", "--metric", f"@{path}", option, value,
                       "--g", "1,0", "--h", "0,1")
    assert (code, err) == (2, f"error: {message}\n")


def test_decompose_as_riemann_needs_a_sesquilinear_form(capsys):
    code, out, err = run(capsys, "decompose", "--metric", "euclidean", "--dim", "2",
                         "--as", "riemann")
    assert (code, out, err) == (
        2, "", "error: family 'euclidean' has no sesquilinear form: it is not Riemann-backed\n")


def test_check_pd_needs_a_riemann_backed_metric(capsys):
    code, out, err = run(capsys, "check", "pd", "--metric", "euclidean", "--dim", "2")
    assert (code, out, err) == (
        2, "", "error: family 'euclidean' has no sesquilinear form: it is not Riemann-backed\n")


@pytest.mark.parametrize("text", [
    '{"family":"theta","dim":2,"field":"real"}',
    '{"family":"euclidean"}',
    '{"family":"theta","dim":2,"field":"real","params":{"theta":5}}',
    '[1,2]',
    # a NaN b printed a null value at g = 0
    '{"family":"zero-extended","dim":2,"field":"real","domain":{"intervals":[[0,null]],'
    '"includes_zero":true},"params":{"b":NaN,"inner":{"family":"euclidean","dim":2,'
    '"field":"real"}}}',
    # a NaN degree evaluated; check homothety echoed it as null and decompose exited 3
    '{"family":"lambda","dim":2,"field":"real","params":{"lam":"sqrt(p^2+q^2)","alpha":NaN}}',
    '{"family":"lambda","dim":2,"field":"real","params":{"lam":"sqrt(p^2+q^2)",'
    '"alpha":Infinity}}',
])
def test_malformed_json_spec_is_usage_error(capsys, tmp_path, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    code, out, err = run(capsys, "eval", "--metric", f"@{path}", "--g", "1,0", "--h", "0,1")
    assert code == 2 and out == "" and "bad metric spec" in err


@pytest.mark.parametrize("command", ["eval", "distance"])
def test_a_non_finite_area_coefficient_is_usage_error(capsys, command):
    # they printed null values: NaN everywhere, or inf * 0 at collinear pairs
    for metric in ("area:nan", "area:inf"):
        code, out, err = run(capsys, command, "--metric", metric, "--dim", "2",
                             "--g", "1,0", "--h", "0,1")
        assert code == 2 and out == "" and "bad metric spec" in err and "finite" in err
    code, out, _ = run(capsys, "eval", "--metric", "area:-2", "--dim", "2",
                       "--g", "1,0", "--h", "0,1")
    assert code == 0 and json.loads(out)["value"] == -2  # a negative b stays valid


def test_json_output_is_deterministic(capsys):
    args = ("check", "invariance", "--metric", "fubini-study", "--dim", "3",
            "--samples", "50", "--seed", "7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_check_invariance_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "invariance", "--metric", "euclidean",
                       "--dim", "4", "--samples", "100")
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, err = run(capsys, "check", "invariance", "--metric", "euclidean",
                         "--dim", "4", "--samples", "0")  # tests nothing: no verdict
    assert code == 2 and out == "" and "--samples" in err


def test_check_kaehler_fubini_study(capsys):
    code, out, _ = run(capsys, "check", "kaehler", "--metric", "fubini-study",
                       "--dim", "2", "--samples", "20")
    report = json.loads(out)
    assert code == 0 and report["passed"] is True
    assert report["potential"] == "2*log(norm(g))"
    code, out, _ = run(capsys, "check", "kaehler", "--metric", "riemann:1;1",
                       "--dim", "2", "--samples", "10")
    assert code == 1


def test_check_pd(capsys):
    code, out, _ = run(capsys, "check", "pd", "--metric", "riemann:1;0",
                       "--dim", "2", "--samples", "10")
    assert code == 0
    code, out, _ = run(capsys, "check", "pd", "--metric", "fubini-study",
                       "--dim", "2", "--samples", "10")
    report = json.loads(out)
    assert code == 1 and set(report["verdicts"]) == {"PSD-degenerate"}


def test_check_homothety(capsys):
    code, out, _ = run(capsys, "check", "homothety", "--alpha", "2",
                       "--metric", "euclidean", "--dim", "3", "--samples", "50")
    report = json.loads(out)
    assert code == 1 and report["witness"] is not None
    code, _, _ = run(capsys, "check", "homothety", "--alpha", "2",
                     "--metric", "norm-quotient", "--dim", "3", "--samples", "50")
    assert code == 0
    code, _, err = run(capsys, "check", "homothety", "--metric", "euclidean",
                       "--dim", "3")
    assert code == 2 and "alpha" in err


def test_check_alpha_is_not_the_lambda_degree(capsys):
    code, out, _ = run(capsys, "check", "homothety", "--alpha", "2",
                       "--metric", "lambda:sqrt(p^2+q^2)", "--dim", "3", "--samples", "20")
    report = json.loads(out)
    assert report["alpha"] == 2 and report["spec"]["params"]["alpha"] == 1


def test_check_homothety_of_no_samples_is_usage_error(capsys):
    code, out, err = run(capsys, "check", "homothety", "--alpha", "2",
                         "--metric", "norm-quotient", "--dim", "3", "--samples", "0")
    assert code == 2 and out == "" and "--samples" in err
    # every check mode: pd and kaehler would test one radius at --r-min
    for mode, metric, samples in (("pd", "fubini-study", "0"), ("kaehler", "fubini-study", "-3"),
                                  ("invariance", "euclidean", "-3"),
                                  ("homothety", "norm-quotient", "-3")):
        alpha = ("--alpha", "2") if mode == "homothety" else ()
        code, out, err = run(capsys, "check", mode, *alpha, "--metric", metric, "--dim", "2",
                             "--samples", samples)
        assert code == 2 and out == "" and "tests nothing" in err, mode


def test_decompose_theta_csv(capsys):
    code, out, _ = run(capsys, "decompose", "--metric", "euclidean", "--dim", "3",
                       "--r-steps", "3", "--tau-steps", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].rstrip("\r") == "r,tau,theta_value"
    assert len(lines) == 10
    for line in lines[1:]:
        assert float(line.rstrip("\r").split(",")[2]) == pytest.approx(1.0, rel=1e-9)


def test_decompose_riemann_csv(capsys):
    code, out, _ = run(capsys, "decompose", "--metric", "fubini-study", "--dim", "3",
                       "--r-steps", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].rstrip("\r") == "r,phi,psi"
    row = lines[1].rstrip("\r").split(",")
    r, phi, psi = (float(x) for x in row)
    assert phi == pytest.approx(1.0 / r, rel=1e-9)
    assert psi == pytest.approx(-1.0 / r ** 2, rel=1e-9)


@pytest.mark.parametrize("option", ["--r-steps", "--tau-steps"])
def test_decompose_of_no_steps_is_a_usage_error(capsys, option):
    for value in ("0", "-1"):
        code, out, err = run(capsys, "decompose", "--metric", "euclidean", "--dim", "3",
                             option, value)
        assert code == 2 and out == "" and f"{option} must be >= 1, got {value}" in err, value


def test_decompose_dim1_is_a_mismatch(capsys):
    # the library's refusal (decompose's frame check), not one of the CLI's own
    code, out, err = run(capsys, "decompose", "--metric", "euclidean", "--dim", "1")
    assert code == 2 and out == "" and err == "error: extraction needs dimension >= 2\n"


def test_probe_report_serializes():
    t = la.linear_map([[2.0, 0.0], [0.0, 1.0]])
    v = iv.is_symmetry(t, mm.euclidean(2), 20, seed=11)
    obj = cli.verdict_to_json(v, {"family": "euclidean"})
    assert obj["verdict"] == "not-symmetry"
    assert obj["witness"] is not None


def test_decompose_writes_file(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "decompose", "--metric", "euclidean", "--dim", "2",
                     "--r-steps", "2", "--tau-steps", "2", "--output", str(path))
    assert code == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0].rstrip("\r") == "r,tau,theta_value" and len(lines) == 5


def test_unwritable_output_path_is_usage_error(capsys, tmp_path):
    path = str(tmp_path / "missing" / "x.csv")
    for argv in (["decompose", "--metric", "euclidean", "--dim", "2", "--output", path],
                 ["distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "0,1",
                  "--iterations", "2", "--path-out", path]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and path in err, argv[0]


def test_probe_main_exit_codes(capsys):
    code, out, _ = run(capsys, "probe-main", "--metric", "euclidean", "--dim", "3",
                       "--maps", "10", "--samples", "20")
    assert code == 0 and json.loads(out)["passed"] is True
    code, _, err = run(capsys, "probe-main", "--metric", "euclidean", "--dim", "2")
    assert code == 2 and "dim >= 3" in err
    code, out, _ = run(capsys, "probe-main", "--metric", "area", "--dim", "2",
                       "--sl2", "10", "--samples", "50")
    assert code == 0 and json.loads(out)["probe"] == "dim2-exception"
    code, _, err = run(capsys, "probe-main", "--metric", "euclidean", "--dim", "2",
                       "--sl2", "5")
    assert code == 2 and "area" in err


def test_probe_main_rejects_zero_maps(capsys):
    # a probe of no maps or no samples tests nothing, so it gives no verdict
    # (the library refuses each, naming its own parameter)
    for argv, param in ((("euclidean", "--dim", "3", "--maps", "0"), "n_maps"),
                        (("euclidean", "--dim", "3", "--samples", "0"), "n_samples"),
                        (("area", "--dim", "2", "--sl2", "0"), "maps"),
                        (("area", "--dim", "2", "--sl2", "5", "--samples", "0"), "n_samples"),
                        # a ratio the maps must reach: nan would turn the filter off,
                        # inf would redraw forever, one below 1 filters nothing
                        *((("euclidean", "--dim", "3", "--min-sv-ratio", ratio), "min_sv_ratio")
                          for ratio in ("nan", "inf", "0.5", "-2"))):
        code, out, err = run(capsys, "probe-main", "--metric", *argv)
        assert code == 2 and out == "" and err.startswith(f"error: {param}"), argv


NOT_RIEMANN = "family 'euclidean' has no sesquilinear form: it is not Riemann-backed"


@pytest.mark.parametrize("argv,message", [
    (("eval", "--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "0,1", "--f", "0,1"),
     NOT_RIEMANN),
    (("decompose", "--metric", "euclidean", "--dim", "2", "--as", "riemann"), NOT_RIEMANN),
    (("check", "pd", "--metric", "euclidean", "--dim", "2"), NOT_RIEMANN),
    (("check", "kaehler", "--metric", "euclidean", "--dim", "2"), NOT_RIEMANN),
    (("probe-main", "--metric", "euclidean", "--dim", "3", "--maps", "0"),
     "n_maps: got 0, need at least 1"),
    (("probe-main", "--metric", "euclidean", "--dim", "3", "--samples", "-1"),
     "n_samples: got -1, need at least 1"),
    (("probe-main", "--metric", "area", "--dim", "2", "--sl2", "0"),
     "maps: got 0, need at least 1"),
    (("probe-main", "--metric", "area", "--dim", "2", "--sl2", "5", "--samples", "0"),
     "n_samples: got 0, need at least 1"),
    (("probe-main", "--metric", "euclidean", "--dim", "3", "--min-sv-ratio", "0.5"),
     "min_sv_ratio must be a finite number >= 1, got 0.5"),
    (("distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "0,1",
      "--vertices", "2"), "n_vertices: got 2, need at least 3"),
    (("distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "0,1",
      "--iterations", "-1"), "n_iterations: got -1, need at least 0"),
])
def test_the_library_refusals_are_usage_errors_with_its_message(capsys, argv, message):
    # the CLI does not check these itself: the library's InvalidArgumentError
    # exits 2 and its message is the one printed
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_probe_main_of_an_unreachable_min_sv_ratio_is_exit_3(capsys):
    # Gaussian maps never reach the ratio: the redraws stop, naming it
    code, out, err = run(capsys, "probe-main", "--metric", "euclidean", "--dim", "3",
                         "--maps", "1", "--samples", "2", "--min-sv-ratio", "1e9")
    assert code == 3 and out == "" and "ratio >= 1000000000.0" in err


def test_probe_main_of_a_zero_metric_is_usage_error(capsys):
    # theta:0 is 0 on every pair, so no map can fail: the probe tests 0 maps
    code, out, err = run(capsys, "probe-main", "--metric", "theta:0", "--dim", "3",
                         "--maps", "10")
    assert code == 2 and out == "" and "tests nothing" in err


@pytest.mark.parametrize("argv", [
    ("check", "invariance", "--metric", "lambda:0*p", "--dim", "3"),
    ("check", "homothety", "--metric", "lambda:0*p", "--dim", "3", "--alpha", "2"),
    ("probe-main", "--metric", "area:0", "--dim", "2", "--sl2", "3"),
])
def test_a_check_of_a_zero_metric_is_usage_error(capsys, argv):
    # rho is 0 on every sample and on its image, so no map can fail the check
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: the metric is 0 (|rho| <= 1e-12) on every "
                                       "sampled pair and its image, so the check tests nothing\n")


def test_distance_measures_a_chord_whose_square_is_subnormal(capsys):
    # |h - g|^2 = 1e-320 and each step's square is subnormal too: measured
    # again, not read 9.6% short by a descent that squeezes steps to 0
    code, out, _ = run(capsys, "distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0",
                       "--h", "1,1e-160")
    value = json.loads(out)["value"]
    assert code == 0 and 1e-160 <= value <= 1e-160 * (1.0 + 1e-12)
    code, out, err = run(capsys, "distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0",
                         "--h", "1,1e-161")
    assert (code, out) == (3, "") and "their lengths underflow to 0" in err


def test_probe_main_counts_only_the_maps_that_tested_something(capsys):
    # max(0, p - 4q) is 0 on every one of 24 maps' 40 pairs at seed 1: such a
    # map cannot fail, and its deviation of 0 once read as a counterexample
    code, out, _ = run(capsys, "probe-main", "--metric", "lambda:max(0,p-4*q)", "--dim", "3",
                       "--seed", "1")
    obj = json.loads(out)
    assert code == 0 and obj["passed"] and obj["maps_tested"] == 76
    assert obj["weakest_deviation"] == pytest.approx(0.0888, abs=1e-4)
    assert obj["controls_tested"] == 76 and obj["controls_passed"]


def test_probe_main_reports_the_probe(capsys):
    # every key, each from the probe's report; a map's deviation is its
    # largest over all its samples, so the key set has no sample counts
    code, out, _ = run(capsys, "probe-main", "--metric", "euclidean", "--dim", "3",
                       "--maps", "10", "--samples", "20", "--seed", "3")
    report = iv.congruence_theorem_probe(mm.euclidean(3), n_maps=10, n_samples=20, seed=3)
    obj = json.loads(out)
    assert code == 0 and obj == {
        "probe": "theorem-main", "spec": mm.spec_to_json(mm.euclidean(3)),
        "maps_tested": 10, "all_non_congruences_failed": True,
        "weakest_deviation": report.weakest_deviation, "controls_tested": 100,
        "controls_passed": True, "control_worst_deviation": report.control_worst_deviation,
        "vacuous": False, "passed": True}


def test_probe_main_tol_is_the_controls_tolerance(capsys):
    # the controls' deviations are rounding, about 1e-16: they pass at the
    # default 1e-9 and fail at 1e-20, as congruence_theorem_probe's control_tol
    argv = ("probe-main", "--metric", "fubini-study", "--dim", "3", "--maps", "5",
            "--samples", "10")
    for tol, passed in (("1e-9", True), ("1e-20", False)):
        code, out, _ = run(capsys, *argv, "--tol", tol)
        report = iv.congruence_theorem_probe(mm.fubini_study(3), n_maps=5, n_samples=10,
                                             control_tol=float(tol))
        obj = json.loads(out)
        assert obj["controls_passed"] is report.controls_passed is passed, tol
        assert obj["control_worst_deviation"] == report.control_worst_deviation
        assert code == (0 if passed else 1)


@pytest.mark.parametrize("argv,option,name", [
    *[(("check", "invariance", "--metric", "euclidean", "--dim", "3"), f"--tol={tol}", "tol")
      for tol in ("nan", "-1")],
    # the controls' tolerance: nan reported "controls_passed": false
    (("probe-main", "--metric", "euclidean", "--dim", "3", "--maps", "5"), "--tol=nan",
     "control_tol"),
    (("probe-main", "--metric", "area", "--dim", "2", "--sl2", "2"), "--tol=-1e-9", "tol"),
    (("check", "homothety", "--alpha", "2", "--metric", "norm-quotient", "--dim", "3"),
     "--tol=nan", "tol"),
    # nan and inf skipped every sample and exited 3, reported as that
    *[(("check", "homothety", "--metric", "norm-quotient", "--dim", "3"), f"--alpha={alpha}",
       "alpha") for alpha in ("nan", "inf", "-inf", "0", "-2", "1")],
])
def test_a_nan_or_negative_tolerance_or_a_bad_alpha_is_usage_error(capsys, argv, option, name):
    code, out, err = run(capsys, *argv, option)
    assert code == 2 and out == "" and err.startswith(f"error: {name} must be a ")


@pytest.mark.parametrize("argv", [
    ("distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "0,1"),
    ("check", "invariance", "--metric", "euclidean", "--dim", "3"),
    ("check", "homothety", "--alpha", "2", "--metric", "norm-quotient", "--dim", "3"),
    ("probe-main", "--metric", "euclidean", "--dim", "3", "--maps", "5")],
    ids=["distance", "check-invariance", "check-homothety", "probe-main"])
def test_a_negative_seed_is_a_usage_error_naming_it(capsys, argv):
    # numpy's "expected non-negative integer" exited 3
    for seed in ("-1", "-7349"):
        code, out, err = run(capsys, *argv, "--seed", seed)
        assert code == 2 and out == "" and f"argument --seed: must be >= 0, got {seed}" in err
    code, out, err = run(capsys, *argv, "--seed", "1.5")
    assert code == 2 and out == "" and "argument --seed: invalid int value: '1.5'" in err


def test_probe_main_sl2_tests_only_the_real_positive_area_metric(capsys, tmp_path):
    # the dim-2 check builds the real area metric on the positive domain, so a
    # complex or domain-restricted spec would pass untested
    code, out, err = run(capsys, "probe-main", "--metric", "area", "--dim", "2",
                         "--field", "complex", "--sl2", "5")
    assert code == 2 and out == "" and "--sl2" in err
    path = tmp_path / "area.json"
    path.write_text(json.dumps({"family": "area", "dim": 2, "field": "real",
                                "domain": {"intervals": [[1, 2]]}, "params": {"b": 1.0}}))
    code, out, err = run(capsys, "probe-main", "--metric", f"@{path}", "--sl2", "5")
    assert code == 2 and out == "" and "--sl2" in err
    path.write_text(json.dumps({"family": "area", "dim": 2, "field": "real",
                                "domain": {"intervals": [[0, None]]}, "params": {"b": 2.0}}))
    code, out, _ = run(capsys, "probe-main", "--metric", f"@{path}", "--sl2", "5")
    assert code == 0 and json.loads(out)["passed"] is True


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_non_finite_values_print_as_null(capsys, tmp_path):
    assert cli.render_json([math.inf, -math.inf, math.nan, 1.5]) == "[null,null,null,1.5]"
    code, out, _ = run(capsys, "eval", "--metric", "theta:exp(1000)", "--dim", "2",
                       "--g", "1,0", "--h", "0,1")
    assert code == 0 and _strict_json(out) == {"value": None}
    # every non-congruence pushes a radius out of (1, 1.1): is_symmetry reports inf
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "euclidean", "dim": 3, "field": "real",
                                "domain": {"intervals": [[1, 1.1]]}, "params": {}}))
    code, out, _ = run(capsys, "probe-main", "--metric", f"@{path}")
    report = _strict_json(out)
    assert code == 0 and report["passed"] is True and report["weakest_deviation"] is None


@pytest.mark.parametrize("metric", ["euclidean:x", "fubini-study:x", "norm-quotient:x"])
def test_named_metrics_take_no_payload(capsys, metric):
    code, out, err = run(capsys, "eval", "--metric", metric, "--dim", "2",
                         "--g", "1,0", "--h", "0,1")
    assert code == 2 and out == "" and "takes no payload" in err


def test_area_metric_needs_dim_2(capsys):
    code, out, err = run(capsys, "eval", "--metric", "area", "--dim", "3",
                         "--g", "1,0", "--h", "0,1")
    assert code == 2 and out == "" and "dimension 2" in err


POSITIVE = {"intervals": [[0.0, None]], "includes_zero": False}

# Each constructor the README lists, with the JSON object that builds the same metric.
README_CONSTRUCTORS = [
    (["euclidean"], "euclidean", {}),
    (["fubini-study"], "fubini-study", {}),
    (["norm-quotient"], "congruence-invariant", {"vartheta": "1"}),
    (["area"], "area", {"b": 1.0}),
    (["area:2.5"], "area", {"b": 2.5}),
    (["lambda:sqrt(p^2+q^2)/r"], "lambda", {"lam": "sqrt(p^2+q^2)/r", "alpha": 1.0}),
    # the constructor declares degree 1, whatever the text's degree; a spec file sets another
    (["lambda:p^2+q^2"], "lambda", {"lam": "p^2+q^2", "alpha": 1.0}),
    (["theta:1+cos(tau)^2"], "theta", {"theta": "1+cos(tau)^2"}),
    (["vartheta:1+cos(tau)"], "congruence-invariant", {"vartheta": "1+cos(tau)"}),
    (["riemann:1/r;-1/(r^2)"], "riemann", {"phi": "1/r", "psi": "-1/(r^2)"}),
    (["nonsym-lambda:sqrt(p^2+q^2)+p"], "nonsym-lambda", {"lam": "sqrt(p^2+q^2)+p"}),
]


@pytest.mark.parametrize("metric,family,params", README_CONSTRUCTORS)
def test_cli_specs_equal_their_json_form(metric, family, params):
    args = cli.build_parser().parse_args(["eval", "--metric", *metric, "--dim", "2",
                                          "--g", "1,0", "--h", "0,1"])
    want = {"family": family, "dim": 2, "field": "real", "domain": POSITIVE, "params": params}
    assert mm.spec_to_json(cli.metric_from_args(args)) == want
    assert mm.spec_to_json(mm.spec_from_json(want)) == want


def test_a_spec_file_carries_the_lambda_degree(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "lambda", "dim": 3, "field": "real",
                                "params": {"lam": "p^2+q^2", "alpha": 2.0}}))
    args = cli.build_parser().parse_args(["eval", "--metric", f"@{path}",
                                          "--g", "1,0,0", "--h", "0,1,0"])
    assert cli.metric_from_args(args).alpha == 2.0
    code, out, err = run(capsys, "decompose", "--metric", f"@{path}")
    assert code == 2 and out == "" and "degree-1" in err


def test_distance_command(capsys, tmp_path):
    code, out, _ = run(capsys, "distance", "--metric", "euclidean", "--dim", "3",
                       "--g", "1,0,0", "--h", "1,1,0", "--iterations", "30")
    report = json.loads(out)
    assert code == 0
    assert report["value"] == pytest.approx(1.0, abs=1e-3)
    assert set(report) == {"value", "iterations", "initial_length", "stop_reason"}
    assert report["stop_reason"] in ("step-floor", "iteration-cap")
    path = tmp_path / "path.csv"
    code, out, _ = run(capsys, "distance", "--metric", "fubini-study", "--dim", "2",
                       "--g", "1,0", "--h", "0,1", "--iterations", "30",
                       "--vertices", "7", "--path-out", str(path))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(math.pi / 2, abs=1e-2)
    lines = path.read_text().strip().splitlines()
    assert lines[0].rstrip("\r") == "t,x1,x2" and len(lines) == 8


def test_complex_distance_path_has_real_and_imaginary_columns(capsys, tmp_path):
    path = tmp_path / "path.csv"
    code, _, _ = run(capsys, "distance", "--metric", "fubini-study", "--dim", "2",
                     "--field", "complex", "--g", "1:0,0:0", "--h", "0:0.5,1:0",
                     "--iterations", "5", "--vertices", "5", "--path-out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,y1,y2" and len(lines) == 6
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert rows[0][1:] == [1.0, 0.0, 0.0, 0.0] and rows[-1][1:] == [0.0, 1.0, 0.5, 0.0]


def test_complex_homothety_witness_is_re_im_pairs(capsys):
    code, out, _ = run(capsys, "check", "homothety", "--alpha", "2", "--metric", "euclidean",
                       "--dim", "2", "--field", "complex", "--samples", "20")
    witness = json.loads(out)["witness"]
    verdict = mm.check_homothety_invariance(mm.euclidean(2, la.Field.COMPLEX), 2.0, 20)
    assert code == 1 and witness == {
        name: [[v.real, v.imag] for v in vec.entries.tolist()]
        for name, vec in zip("gh", verdict.witness)}


def test_distance_nonpositive_metric_exit_3(capsys):
    with pytest.warns(RuntimeWarning):
        code, _, err = run(capsys, "distance", "--metric", "riemann:-1;0",
                           "--dim", "2", "--g", "1,0", "--h", "2,0")
    assert code == 3 and "negative" in err


def _cli_process(*argv, **env):
    """The console command in a process of its own, with the given variables
    set on top of the environment: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), **env)
    proc = subprocess.run([sys.executable, "-m", "finsler_iso.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_a_warning_is_one_line_without_its_source():
    argv = ("distance", "--metric", "riemann:-1;0", "--dim", "2", "--g", "1,0", "--h", "2,0")
    assert _cli_process(*argv, PYTHONWARNINGS="default") == (
        3, "", "warning: sesquilinear profile takes negative values; induced metric uses "
               "sign(v) sqrt|v|\nerror: metric is negative along the path\n")
    # an "error" filter still turns the warning into an exception
    code, out, err = _cli_process(*argv, PYTHONWARNINGS="error::RuntimeWarning")
    assert code == 1 and out == "" and err.splitlines()[-1] == (
        "RuntimeWarning: sesquilinear profile takes negative values; induced metric uses "
        "sign(v) sqrt|v|")


def test_distance_from_an_endpoint_outside_the_domain_names_it(capsys):
    code, out, err = run(capsys, "distance", "--metric", "fubini-study", "--dim", "3",
                         "--g", "0,0,0", "--h", "0,1,0")
    assert (code, out, err) == (3, "", "error: endpoint g is outside the metric's domain "
                                       "(|g| = 0.0)\n")


@pytest.mark.parametrize("g,h,message", [
    ("1e300,0", "0,1e300", "endpoint g is outside the metric's domain (|g| = inf)"),
    ("1e-300,0", "0,1e-300", "endpoint g is outside the metric's domain (|g| = 0.0)"),
    ("1e154,0", "-1e154,1", "the chord |h - g| overflows to inf although g != h"),
    ("1,0", "1,1e-170", "the chord |h - g| underflows to 0 although g != h"),
    ("2.5e-162,1e-163", "-2.5e-162,1e-163", "the scale max(|g|, |h|) = 2.501999200639361e-162"
                                            " is below 1.492e-154, too small to measure"),
    ("1e-160,0", "0,1e-160",
     "the scale max(|g|, |h|) = 1e-160 is below 1.492e-154, too small to measure"),
])
def test_distance_names_a_norm_or_chord_that_under_or_overflows(capsys, g, h, message):
    # one error line, no numpy warning before it
    code, out, err = run(capsys, "distance", "--metric", "fubini-study", "--dim", "2",
                         f"--g={g}", f"--h={h}")
    assert (code, out, err) == (3, "", f"error: {message}\n")


NOT_FINITE = ["nan", "inf", "-inf", "1e400"]


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("command,option", [("eval", "--g"), ("eval", "--h"), ("eval", "--f"),
                                            ("distance", "--g"), ("distance", "--h")])
def test_a_vector_entry_that_is_not_finite_is_usage_error(capsys, command, option, field):
    one, zero = ("1", "0") if field == "real" else ("1:0", "0:0")
    entries = NOT_FINITE if field == "real" else (
        [f"{x}:0" for x in NOT_FINITE] + [f"0:{x}" for x in NOT_FINITE])  # either part
    for entry in entries:
        vectors = {"--g": f"{one},{zero}", "--h": f"{zero},{one}"}
        if option == "--f":
            vectors["--f"] = f"{zero},{one}"
        vectors[option] = f"{entry},{zero}"
        code, out, err = run(capsys, command, "--dim", "2", "--field", field, "--metric",
                             "fubini-study" if option == "--f" else "euclidean",
                             *(f"{flag}={value}" for flag, value in vectors.items()))
        assert code == 2 and out == "" and f"vector entry '{entry}' is not finite" in err, entry


def test_eval_of_a_complex_sigma_that_overflows_to_one_infinity(capsys):
    # phi scales <f,h> = inf + 0j part by part: the value of the real case, not NaN
    code, out, err = run(capsys, "eval", "--metric", "fubini-study", "--dim", "2",
                         "--field", "complex", "--g", "1:0,0:0", "--h", "0:0,1e200:0",
                         "--f", "0:0,1e200:0")
    assert (code, out, err) == (0, '{"value":[null,0]}\n', "")
    code, out, err = run(capsys, "eval", "--metric", "fubini-study", "--dim", "2",
                         "--g", "1,0", "--h", "0,1e200", "--f", "0,1e200")
    assert (code, out, err) == (0, '{"value":null}\n', "")


def test_decompose_below_radius_0_is_a_domain_error(capsys):
    for form in ("finsler", "riemann"):
        metric = "theta:r" if form == "finsler" else "fubini-study"
        code, out, err = run(capsys, "decompose", "--metric", metric, "--dim", "2", "--as", form,
                             "--r-min", "-1", "--r-steps", "2")
        assert code == 3 and out == "" and err == (
            "error: r = -1.0 is outside the extracted profile's domain\n"), form


@pytest.mark.parametrize("option,value,param", [("--iterations", "-3", "n_iterations"),
                                                ("--vertices", "2", "n_vertices")])
def test_distance_that_cannot_run_is_usage_error(capsys, option, value, param):
    # the library refuses each, naming its own parameter
    code, out, err = run(capsys, "distance", "--metric", "euclidean", "--dim", "2",
                         "--g", "1,0", "--h", "0,1", option, value)
    assert code == 2 and out == "" and err.startswith(f"error: {param}: got {value}")


def test_distance_of_no_iterations_reports_the_initial_path(capsys):
    code, out, _ = run(capsys, "distance", "--metric", "euclidean", "--dim", "2",
                       "--g", "1,0", "--h", "0,1", "--iterations", "0")
    report = json.loads(out)
    assert code == 0 and report["iterations"] == 0 and report["value"] == report["initial_length"]


# Options that a command (or check mode) would not read, and --config, a second
# spelling of --metric @FILE: argparse refuses each of them.
DELETED_OPTIONS = [
    *[("eval", flag) for flag in ("--config", "--seed", "--tol", "--alpha")],
    *[("decompose", flag) for flag in ("--config", "--seed", "--tol", "--alpha")],
    *[("check " + mode, "--config") for mode in ("invariance", "homothety", "pd", "kaehler")],
    *[("check invariance", flag) for flag in ("--alpha", "--r-min", "--r-max")],
    *[("check homothety", flag) for flag in ("--r-min", "--r-max")],
    *[("check " + mode, flag) for mode in ("pd", "kaehler")
      for flag in ("--seed", "--tol", "--alpha")],
    *[("probe-main", flag) for flag in ("--config", "--alpha")],
    *[("distance", flag) for flag in ("--config", "--tol", "--alpha")],
]
VALID_ARGS = {
    "eval": ["--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "0,1"],
    "decompose": ["--metric", "euclidean", "--dim", "2"],
    "check invariance": ["--metric", "euclidean", "--dim", "3", "--samples", "5"],
    "check homothety": ["--alpha", "2", "--metric", "euclidean", "--dim", "3", "--samples", "5"],
    "check pd": ["--metric", "fubini-study", "--dim", "2"],
    "check kaehler": ["--metric", "fubini-study", "--dim", "2"],
    "probe-main": ["--metric", "euclidean", "--dim", "3", "--maps", "2", "--samples", "5"],
    "distance": ["--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "0,1",
                 "--iterations", "1"],
}


@pytest.mark.parametrize("command,option", DELETED_OPTIONS)
def test_an_option_the_command_does_not_read_is_refused(capsys, tmp_path, command, option):
    value = str(tmp_path / "spec.json") if option == "--config" else "2"
    code, out, err = run(capsys, *command.split(), *VALID_ARGS[command], option, value)
    assert code == 2 and out == "" and f"unrecognized arguments: {option}" in err


def test_argparse_usage_exit_2(capsys):
    assert cli.main(["eval"]) == 2  # missing required --g/--h
    capsys.readouterr()


def test_missing_metric_is_usage_error(capsys):
    code, _, err = run(capsys, "eval", "--dim", "2", "--g", "1,0", "--h", "0,1")
    assert code == 2 and "metric" in err


def test_nonsym_lambda_constructor(capsys):
    code, out, _ = run(capsys, "eval", "--metric", "nonsym-lambda:sqrt(p^2+q^2)+p",
                       "--dim", "2", "--g", "1,0", "--h=-1,0")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(0.0, abs=1e-12)
    code, out, _ = run(capsys, "eval", "--metric",
                       "nonsym-lambda:sqrt(pre^2+pim^2+q^2)+pre", "--dim", "2",
                       "--field", "complex", "--g", "1:0,0:0", "--h", "0:1,0:0")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(1.0)


def test_area_payload_sets_constant(capsys):
    code, out, _ = run(capsys, "eval", "--metric", "area:2.5", "--dim", "2",
                       "--g", "1,0", "--h", "0,1")
    assert code == 0 and json.loads(out)["value"] == pytest.approx(2.5)


def test_theta_constructor_roundtrips_homothety(capsys):
    code, _, _ = run(capsys, "check", "homothety", "--alpha", "2", "--metric",
                     "theta:(2+sin(6.283185307179586*log(r)/log(2)))/r",
                     "--dim", "3", "--samples", "60")
    assert code == 0


def test_decompose_rejects_nonsym(capsys):
    code, _, err = run(capsys, "decompose", "--metric", "nonsym-lambda:sqrt(p^2+q^2)+p",
                       "--dim", "2")
    assert code == 2 and "non-symmetric" in err


# Which of the optional modules each README command loads: the start-up of
# finsler_iso.cli loads cli, metrics, linalg and errors only, and no module of
# the package loads dataclasses.  Each command loads the one further module it
# runs, and the expression language only where a metric is given as text or
# Fubini-Study's sigma is read: these four of the README's examples.
EXPRESSION_COMMANDS = {"eval --metric fubini-study --dim 2 --g 1,0 --h 0,1 --f 0,1",
                       "decompose --metric fubini-study --dim 3",
                       "check kaehler --metric fubini-study --dim 2",
                       "check pd --metric riemann:1/r;-1/(r^2) --dim 2"}
COMMAND_MODULES = {("eval",): set(), ("check", "pd"): set(), ("check", "kaehler"): set(),
                   ("check", "invariance"): {"invariance"}, ("check", "homothety"): set(),
                   ("probe-main",): {"invariance"}, ("decompose",): {"decompose"},
                   ("distance",): {"geometry"}}
CHILD = """import sys
from finsler_iso import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(repr((sorted(m for m in sys.modules if m.startswith("finsler_iso.")),
                        "dataclasses" in sys.modules)) + "\\n")
sys.exit(code)
"""


def readme_commands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("finsler-iso ")]


def test_each_readme_command_loads_only_its_own_module(tmp_path):
    commands = readme_commands()
    assert len(commands) == 12
    assert EXPRESSION_COMMANDS <= {" ".join(argv) for argv in commands}
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))

    def loads(code: str) -> dict[str, bool]:
        names = ("dataclasses", "csv", "cmath", "finsler_iso.expressions")
        out = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\n"
                              f"print({{m: m in sys.modules for m in {names!r}}})"],
                             cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
                             check=True).stdout
        return ast.literal_eval(out)
    # a site hook of the environment may load one of them before the package does
    bare = loads("pass")
    assert loads("import finsler_iso.cli") == bare
    assert loads("import finsler_iso.decompose, finsler_iso.invariance, "
                 "finsler_iso.geometry")["dataclasses"] == bare["dataclasses"]
    for argv in commands:
        key = tuple(argv[:2]) if argv[0] == "check" else (argv[0],)
        proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode in (0, 1), (argv, proc.stderr)
        modules, dataclasses = ast.literal_eval(proc.stderr.splitlines()[-1])
        loaded = {m.split(".")[1] for m in modules}
        expressions = {"expressions"} if " ".join(argv) in EXPRESSION_COMMANDS else set()
        want = {"cli", "metrics", "linalg", "errors"} | expressions | COMMAND_MODULES[key]
        assert loaded == want, argv
        assert dataclasses == bare["dataclasses"], argv


# The package's own warnings; any other warning, such as numpy's "overflow
# encountered in ...", breaks the contract at any exit code.
PACKAGE_WARNINGS = ("sesquilinear profile takes negative values",
                    "metric takes negative values along the curve",
                    "Simpson quadrature stopped")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def _run_main(argv, out_file):
    """cli.main(argv) in-process, from a fresh @OUT file: its return, stdout,
    stderr, the @OUT file's text (None when it was not written) and the
    warnings it raised (recorded: the test configuration would raise them,
    where the console script prints each as a line)."""
    out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv)
    written = out_file.read_text(encoding="utf-8") if out_file.exists() else None
    return code, out.getvalue(), err.getvalue(), written, [str(w.message) for w in caught]


def _assert_csv(text):
    """A header and at least one row, each row of the header's width, every
    entry a number that is not NaN."""
    header, *rows = csv.reader(io.StringIO(text))
    assert rows and all(len(row) == len(header) for row in rows), text
    assert not any(math.isnan(float(x)) for row in rows for x in row), text


# Edge cases with their outcome pinned, by argv: the exit code and a pattern
# that the whole of stdout matches.  Each is an example of the contract test.
EDGE_OUTCOMES = {
    # a complex <h, g> that is inf and a q that is NaN: inf prints as null, with no warning
    ("eval", "--metric", "euclidean", "--dim", "5", "--field", "complex",
     "--g", "2:-0.7,1e-200:1.5,2:0.5,-1,-1:1.5", "--h", "0.5:1e308,1:2,1:2,1.5,0.3"):
        (0, re.escape('{"value":null}') + "\n"),
    # |<h, g>| overflows, though its parts do not: no OverflowError, and inf - inf is undefined
    ("eval", "--metric", "riemann:1;-0.5/r", "--dim", "2", "--field", "complex",
     "--g", "1:1,0", "--h", "1.5e308,0"): (3, ""),
    # non-symmetric metrics: refused by validate_alpha's sign flips
    ("decompose", "--metric", "nonsym-lambda:sqrt(p^2+q^2)+p", "--dim", "3"): (2, ""),
    ("decompose", "--metric", "nonsym-lambda:(sqrt(p^2+q^2)+p/2)/(r^2)", "--dim", "3"): (2, ""),
    # a chord through the origin whose node count overflows: refused without a warning
    ("distance", "--metric", "norm-quotient", "--dim", "2", "--g", "1e153,0",
     "--h=-1e153,0"): (0, r"\{.+\}\n"),
    # a phase-aligned start whose first leg squares past the float range, no warning
    ("distance", "--metric", "euclidean", "--dim", "2", "--field", "complex",
     "--g", "1e154:0,0", "--h=-4.16e149:9.09e149,1e150"): (0, r"\{.+\}\n"),
    # a metric that overflows on every start: stopped before the first sweep,
    # without a warning, its inf printed as null
    ("distance", "--metric", "theta:exp(exp(2*r))", "--dim", "4",
     "--g=0.14,-0.151,0.742,0.105", "--h=-2.1,0.47,1.6,4"):
        (0, re.escape('{"initial_length":null,"iterations":0,'
                      '"stop_reason":"infinite-start","value":null}') + "\n"),
    # a Hilbert-scale dimension: the suite draws 2-frames, never a (dim, dim) unitary
    ("check", "invariance", "--metric", "euclidean", "--dim", "5000", "--samples", "200"):
        (0, r'\{.*"passed":true.*\}\n'),
    # a metric that is 0 on every sample and its image: the check tests nothing
    ("check", "invariance", "--metric", "lambda:0*p", "--dim", "3"): (2, ""),
    ("check", "homothety", "--metric", "lambda:0*p", "--dim", "3", "--alpha", "2"): (2, ""),
    ("probe-main", "--metric", "area:0", "--dim", "2", "--sl2", "3"): (2, ""),
    # 2 of 200 base values are not 0 at seed 0: enough to test something
    ("check", "invariance", "--metric", "lambda:max(0,p-4*q)", "--dim", "3"):
        (0, r'\{.*"passed":true.*\}\n'),
    # a chord whose |h - g|^2 is subnormal is measured as it is, and one whose
    # steps' squares underflow to 0 is refused
    ("distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "1,1e-160"):
        (0, r"\{.+\}\n"),
    ("distance", "--metric", "euclidean", "--dim", "2", "--g", "1,0", "--h", "1,1e-161"): (3, ""),
}


def _edge_examples(test):
    """test with each argv of EDGE_OUTCOMES as an example, in the table's order."""
    for argv in reversed(EDGE_OUTCOMES):
        test = example((list(argv), None))(test)
    return test


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cli_cases())
@_edge_examples
# a radius bound that is not finite: exit 2 naming it, not a NaN radius grid
@example((["check", "kaehler", "--metric", "fubini-study", "--dim", "2", "--samples", "3",
           "--r-min", "inf", "--r-max", "0"], None))
@example((["check", "pd", "--metric", "riemann:1+r;1", "--dim", "2", "--r-min", "nan",
           "--r-max", "2"], None))
@example((["decompose", "--metric", "fubini-study", "--dim", "2", "--r-min", "1",
           "--r-max", "inf"], None))
# a finite radius bound whose square overflows: exit 2 naming it, not |g|^2 = inf outside
@example((["check", "pd", "--metric", "riemann:1+r;1", "--dim", "2", "--samples", "3",
           "--r-min", "2", "--r-max", "1e200"], None))
# a distance from 0 under a zero extension: no start resolves, exit 3 without a warning
@example((["distance", "--metric", "@SPEC", "--g", "0,0", "--h", "1,0"],
          {"family": "zero-extended", "dim": 2, "field": "real",
           "domain": {"intervals": [[0, None]], "includes_zero": True},
           "params": {"b": 1.0, "inner": {"family": "fubini-study", "dim": 2, "field": "real",
                                          "domain": {"intervals": [[0, None]],
                                                     "includes_zero": False},
                                          "params": {}}}}))
def test_the_cli_contract_holds_at_the_edges(tmp_path_factory, case):
    # exit 0-3; output, on stdout or in the --path-out or --output file, exactly
    # when the code is 0 or 1, and then JSON or CSV that parses; no exception out
    # of main (a Traceback from the console script); at any exit code, no
    # warning but the package's own; a second run of the same argv gives the
    # same bytes; a radius bound that is not finite, or of check whose square
    # overflows, is exit 2, naming it; decompose of a non-symmetric metric is
    # exit 2; an argv of EDGE_OUTCOMES has its pinned exit code and stdout
    argv, spec = case
    base = tmp_path_factory.getbasetemp()
    out_file = base / "cli_contract_out.csv"
    if spec is not None:
        path = base / "cli_contract_spec.json"
        path.write_text(json.dumps(spec))
    argv = [f"@{path}" if a == "@SPEC" else str(out_file) if a == "@OUT" else a for a in argv]
    code, out, err, written, caught = first = _run_main(argv, out_file)
    assert code in (0, 1, 2, 3), (code, err)
    if code in (0, 1):
        to_file = "@OUT" in case[0]
        if to_file:
            _assert_csv(written)
        if argv[0] != "decompose":
            json.loads(out, parse_constant=_reject_constant)
        elif to_file:
            assert out == "", out
        else:
            _assert_csv(out)
    else:
        assert out == "" and written is None, (out, written)
    assert "Traceback" not in err
    stray = [m for m in caught if not m.startswith(PACKAGE_WARNINGS)]
    assert not stray, (code, stray)
    if tuple(case[0]) in EDGE_OUTCOMES:
        want, pattern = EDGE_OUTCOMES[tuple(case[0])]
        assert code == want and re.fullmatch(pattern, out), (code, out, err)
    radii = [(flag[2:].replace("-", "_"), float(argv[argv.index(flag) + 1]))
             for flag in ("--r-min", "--r-max") if flag in argv]
    bad = [(name, r) for name, r in radii if not math.isfinite(r)]
    squares = [(name, r) for name, r in radii if math.isinf(r * r)]
    if bad:
        assert (code, err) == (2, f"error: {bad[0][0]} must be a finite number, got {bad[0][1]}\n")
    elif squares and argv[0] == "check":
        assert (code, err) == (2, f"error: {squares[0][0]}_squared must be a finite number, got inf\n")
    if argv[0] == "decompose" and any(a.startswith("nonsym-lambda:") for a in argv):
        assert code == 2, err
    assert _run_main(argv, out_file) == first
