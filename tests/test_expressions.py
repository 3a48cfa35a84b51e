import math

import numpy as np
import pytest

from finsler_iso.expressions import (
    EvalError,
    ParseError,
    evaluate,
    parse,
    to_string,
    variables,
)

VARS = {"r", "p", "q", "tau", "x", "y"}


def ev(text, **bindings):
    return evaluate(parse(text, VARS), bindings)


@pytest.mark.parametrize("text,expected", [
    ("2+3*4", 14.0),
    ("2*3+4", 10.0),
    ("(2+3)*4", 20.0),
    ("2-3-4", -5.0),
    ("12/3/2", 2.0),
    ("2^3^2", 512.0),      # right-associative
    ("-2^2", -4.0),        # ^ binds tighter than unary minus
    ("2^-1", 0.5),
    ("min(1,2)+max(3,4)", 5.0),
    ("abs(-3)*2", 6.0),
    ("--2", 2.0),
])
def test_precedence_suite(text, expected):
    assert ev(text) == expected


def test_eval_examples():
    assert ev("p^2+q^2", p=3, q=4) == 25.0
    assert ev("sin(tau)", tau=math.pi / 2) == pytest.approx(1.0, abs=1e-15)
    assert ev("sqrt(p^2+q^2)/r", p=3, q=4, r=2) == 2.5


def test_unary_minus_precedence_vs_mul():
    assert ev("-x^2", x=3) == -9.0
    assert ev("(-x)^2", x=3) == 9.0


@pytest.mark.parametrize("text,offset", [
    ("p+*q", 2),
    ("p+", 2),
    ("(p", 2),
    ("p)", 1),
    ("", 0),
    ("p $ q", 2),
])
def test_syntax_error_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text, VARS)
    assert err.value.offset == offset


def test_unknown_variable_reports_name():
    with pytest.raises(ParseError, match="unknown variable 'z'"):
        parse("p+z", VARS)


def test_unknown_function_and_arity():
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(p)", VARS)
    with pytest.raises(ParseError, match="expects 1 argument"):
        parse("sin(p,q)", VARS)
    with pytest.raises(ParseError, match="expects 2 argument"):
        parse("min(p)", VARS)


def test_domain_errors():
    with pytest.raises(EvalError, match="log"):
        ev("log(r)", r=-1.0)
    with pytest.raises(EvalError, match="log"):
        ev("log(r)", r=0.0)
    with pytest.raises(EvalError, match="sqrt"):
        ev("sqrt(r)", r=-1.0)
    with pytest.raises(EvalError, match="division"):
        ev("p/q", p=1, q=0)
    with pytest.raises(EvalError, match="power"):
        ev("p^q", p=-2.0, q=0.5)
    assert ev("p^q", p=-2.0, q=2.0) == 4.0


def test_undefined_results_raise_instead_of_nan():
    for text in ("exp(1000)-exp(1000)", "0*exp(1000)", "exp(1000)/exp(1000)", "p"):
        with pytest.raises(EvalError, match="NaN"):
            ev(text, p=math.nan)
    for text in ("sin(exp(1000))", "cos(-exp(1000))", "tan(exp(p))"):
        with pytest.raises(EvalError, match="domain error"):
            ev(text, p=1000.0)
    assert ev("exp(1000)") == math.inf
    assert ev("1/exp(1000)") == 0.0


def test_missing_binding():
    expr = parse("p+q", VARS)
    with pytest.raises(EvalError, match="missing binding"):
        evaluate(expr, {"p": 1.0})


def test_variables():
    assert variables(parse("p*sin(tau)+2", VARS)) == {"p", "tau"}


ROUNDTRIP_CASES = [
    "p^2+q^2",
    "-p*q/r",
    "sin(tau)^2+cos(tau)^2",
    "sqrt(abs(p))+max(q,r)",
    "2.5e-3*p-(q+r)^2",
    "min(p,q)/(1+r^2)",
    "-(p-q)^3",
    "exp(-(r-1)^2)",
]


@pytest.mark.parametrize("text", ROUNDTRIP_CASES)
def test_pretty_print_roundtrip(text):
    expr = parse(text, VARS)
    again = parse(to_string(expr), VARS)
    rng = np.random.default_rng(0)
    for _ in range(100):
        b = {name: float(rng.uniform(0.1, 3.0)) for name in VARS}
        assert evaluate(again, b) == pytest.approx(evaluate(expr, b), abs=1e-12)


def test_fuzz_never_crashes():
    # smaller companion of the acceptance fuzz run
    rng = np.random.default_rng(7)
    alphabet = "pqr txy+-*/^()., 0123456789esincoabml"
    for _ in range(2000):
        n = int(rng.integers(0, 12))
        s = "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), size=n))
        try:
            expr = parse(s, VARS)
        except ParseError as err:
            assert isinstance(err.offset, int)
        else:
            assert expr is not None
