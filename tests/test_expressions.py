import math
import operator
import struct
import sys
from typing import Mapping

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finsler_iso import expressions
from finsler_iso.expressions import (
    MAX_DEPTH,
    BinOp,
    EvalError,
    Expr,
    Neg,
    Num,
    ParseError,
    Var,
    _exp,
    _pow,
    compile_positional,
    compile_rows,
    evaluate,
    parse,
    to_string,
)
from helpers import expression_texts

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


@pytest.mark.parametrize("value", [5, 2.5, None, ["p"]])
def test_parse_rejects_non_text(value):
    with pytest.raises(ParseError, match=f"text, not {type(value).__name__}"):
        parse(value, VARS)


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
    for q in (math.inf, -math.inf):  # no integer, so a domain error, not an OverflowError
        with pytest.raises(EvalError, match="power"):
            ev("p^q", p=-2.0, q=q)


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


@pytest.mark.parametrize("text", [
    "(" * 500 + "1" + ")" * 500,
    "-" * 500 + "r",
    "^".join(["r"] * 500),             # right-associative
    "+".join(["r"] * 3000),            # flat, so a left-deep tree
    "sin(" * 150 + "r" + ")" * 150,
], ids=["parentheses", "unary-minus", "power-chain", "sum-chain", "calls"])
def test_deep_expressions_are_parse_errors(text):
    with pytest.raises(ParseError, match="deeper than") as err:
        parse(text, ("r",))
    assert isinstance(err.value.offset, int) and 0 <= err.value.offset < len(text)


@pytest.mark.parametrize("text", [
    "+".join(["r"] * MAX_DEPTH),
    "-" * (MAX_DEPTH - 1) + "r",
    "^".join(["1"] * MAX_DEPTH),
    "(sin(" * (MAX_DEPTH - 1) + "r" + "))" * (MAX_DEPTH - 1),
], ids=["sum-chain", "unary-minus", "power-chain", "parenthesized-calls"])
def test_the_deepest_accepted_tree_evaluates_everywhere(text):
    expr = parse(text, ("r",))
    want = evaluate(expr, {"r": 0.5})
    assert compile_positional(text, ("r",))(0.5) == want
    assert compile_rows(text, ("r",))(np.array([0.5, 0.5])).tolist() == [want, want]
    assert evaluate(parse(to_string(expr), ("r",)), {"r": 0.5}) == want
    # one level more is refused
    with pytest.raises(ParseError, match="deeper than"):
        parse("-" + text, ("r",))


_ALPHABET = "pqr txy+-*/^()., 0123456789esincoabml"


@st.composite
def _parser_texts(draw):
    """Text over the grammar's alphabet, or a deep or long chain of one
    construct around such text."""
    core = draw(st.text(_ALPHABET, max_size=30))
    n = draw(st.integers(0, 2000))
    kind = draw(st.sampled_from(("plain", "parens", "minus", "pow", "plus", "call")))
    if kind == "parens":
        return "(" * n + core + ")" * draw(st.integers(0, n))
    if kind == "minus":
        return "-" * n + core
    if kind in ("pow", "plus"):
        return ("^" if kind == "pow" else "+").join([core or "p"] * (n + 1))
    if kind == "call":
        return "sin(" * n + core + ")" * n
    return core


@settings(max_examples=300, deadline=None, database=None)
@given(_parser_texts())
def test_parse_returns_or_raises_parse_error(text):
    try:
        expr = parse(text, VARS)
    except ParseError as err:
        assert isinstance(err.offset, int)
    else:
        assert expr is not None


# ---------------------------------------------------------------------------
# Array evaluation against a tree walk with numpy's functions

@st.composite
def _row_cases(draw):
    names = draw(st.sampled_from([("r",), ("r", "tau"), ("r", "p", "q"), ("r", "pre", "pim", "q")]))
    text = draw(expression_texts(names))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(*[finite] * len(names)), min_size=1, max_size=6))
    return text, names, rows


def _one_element(fn):
    """fn over Python floats, run as numpy's array loop on one element, as
    compile_rows runs it: on two Python floats np.power takes another loop,
    which can round differently."""
    return lambda *xs: float(fn(*(np.array([x]) for x in xs))[0])


def _numpy_pow(x, y):
    if x < 0.0 and not y.is_integer():
        raise EvalError("non-integer power of a negative base")
    if x == 0.0 and y < 0.0:
        raise EvalError("zero raised to a negative power")
    return _one_element(np.power)(x, y)


def _numpy_trig(fn):
    def value(x):
        if math.isinf(x):
            raise EvalError("trigonometric function of an infinity")
        return _one_element(fn)(x)
    return value


def _numpy_log(x):
    if x <= 0.0:
        raise EvalError("log of a non-positive argument")
    return _one_element(np.log)(x)


_NUMPY_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": expressions._divide, "^": _numpy_pow}
_NUMPY_CALLS = {
    "sin": _numpy_trig(np.sin), "cos": _numpy_trig(np.cos), "tan": _numpy_trig(np.tan),
    "exp": _one_element(np.exp), "log": _numpy_log, "sqrt": expressions._sqrt,
    "abs": abs, "min": min, "max": max,
}


def _numpy_tree_walk(expr, bindings):
    """evaluate's walk over one row of Python floats, its operators and its
    domain rules, with numpy's exp, log, power, sin, cos and tan in place of
    math's: the reference compile_rows is held to."""
    walk = expressions._compile(expr, lambda value: lambda b: value,
                                lambda name: lambda b: float(b[name]), _NUMPY_OPS, _NUMPY_CALLS)
    with np.errstate(all="ignore"):
        value = walk(bindings)
    if value != value:
        raise EvalError("expression is undefined here (evaluates to NaN)")
    return value


@settings(max_examples=400, deadline=None, database=None)
@given(_row_cases())
@example(("min(1,sin(exp(1000)))", ("r",), [(0.5,), (2.0,)]))
@example(("min(1,exp(1000)-exp(1000))", ("r",), [(0.5,), (2.0,)]))
@example(("max(exp(1000)-exp(1000),1)", ("r",), [(0.5,)]))
@example(("(0-2)^exp(1000)", ("r",), [(1.0,)]))
@example(("(0-10)^r", ("r",), [(309.0,), (2.0,)]))
@example(("log(r)", ("r",), [(2.0,), (-1.0,), (3.0,)]))
def test_compile_rows_matches_evaluate(case):
    """Element i equals the numpy-function tree walk of row i bit for bit (so
    within any relative tolerance), and the call raises EvalError exactly
    when some row does."""
    text, names, rows = case
    expr = parse(text, names)
    want, raised = [], False
    for row in rows:
        try:
            want.append(_numpy_tree_walk(expr, dict(zip(names, row))))
        except EvalError:
            raised = True
    columns = [np.array(col) for col in zip(*rows)]
    if raised:
        with pytest.raises(EvalError):
            compile_rows(text, names)(*columns)
        return
    got = compile_rows(text, names)(*columns)
    assert got.shape == (len(rows),)
    assert got.tolist() == want


def test_negative_bases_overflow_to_minus_infinity_on_both_paths():
    cases = [("(0-10)^r", 309.0), ("(0-0.1)^r", -309.0), ("min(1,(0-10)^r)", 309.0)]
    for text, r in cases:
        assert ev(text, r=r) == -math.inf, text
        assert compile_rows(text, ("r",))(np.array([r])).tolist() == [-math.inf], text
    assert ev("(0-10)^r", r=310.0) == math.inf  # an even power stays positive


def _ulps(a, b):
    """Units in the last place between two arrays of doubles, elementwise,
    counted on the doubles' ordering as integers (+0 and -0 coincide)."""
    bits = [np.asarray(v, dtype=float).view(np.int64) for v in (a, b)]
    ordered = [np.where(i < 0, -(i & np.int64(2**63 - 1)), i) for i in bits]
    return np.abs(ordered[0] - ordered[1])


def _math_rows(fn, *arrays):
    return np.array([fn(*v) for v in zip(*(a.tolist() for a in arrays))])


def test_numpy_functions_are_within_one_ulp_of_math():
    """The bound the rows contract states: compile_rows's six functions against
    evaluate's, over the arguments the domain rules admit."""
    rng = np.random.default_rng(19)
    angles = np.concatenate([rng.uniform(-50.0, 50.0, 40_000),
                             np.arange(-31, 32) * (math.pi / 2), [0.0, -0.0]])
    exponents = np.concatenate([rng.uniform(-745.0, 710.0, 40_000), [0.0, -0.0, 709.8, 720.0]])
    magnitudes = np.exp(rng.uniform(-700.0, 700.0, 40_000))
    bases = np.concatenate([np.exp(rng.uniform(-50.0, 50.0, 20_000)),       # any real power
                            -np.exp(rng.uniform(-50.0, 50.0, 20_000)),      # integer powers
                            rng.uniform(-3.0, 3.0, 20_000), np.zeros(100)])  # integer powers, 0
    powers = np.concatenate([rng.uniform(-20.0, 20.0, 20_000),
                             np.round(rng.uniform(-40.0, 40.0, 40_000)),
                             rng.uniform(0.0, 5.0, 100)])
    cases = [(np.sin, math.sin, angles), (np.cos, math.cos, angles), (np.tan, math.tan, angles),
             (np.exp, _exp, exponents), (np.log, math.log, magnitudes),
             (np.power, _pow, bases, powers)]
    with np.errstate(all="ignore"):
        for ufunc, fn, *args in cases:
            assert _ulps(ufunc(*args), _math_rows(fn, *args)).max() <= 1, ufunc.__name__


def test_compile_rows_makes_no_call_per_element():
    text = "1+sin(tau)^2+exp(tau)-log(2+tau)+tan(tau)*cos(tau)"
    rows = compile_rows(text, ("tau",))
    counts = []
    for n in (10, 1000):
        tau = np.linspace(0.0, 1.0, n)
        rows(tau)  # count a second call, not a first one that may import or cache
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            rows(tau)
        finally:
            sys.setprofile(None)
        counts.append(sum(event in ("call", "c_call") for event in events))
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# The compiled scalar evaluator against the tree walk it replaced

def _tree_walk_evaluate(expr, bindings):
    """evaluate as it was before it compiled trees: the reference."""
    try:
        value = _evaluate(expr, bindings)
    except EvalError:
        raise
    except ValueError as exc:  # math.sin/cos/tan of an infinite argument
        raise EvalError(f"expression is undefined here ({exc})") from None
    if math.isnan(value):
        raise EvalError("expression is undefined here (evaluates to NaN)")
    return value


def _evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Var):
        try:
            return float(bindings[expr.name])
        except KeyError:
            raise EvalError(f"missing binding for variable {expr.name!r}") from None
    if isinstance(expr, Neg):
        return -_evaluate(expr.operand, bindings)
    if isinstance(expr, BinOp):
        a = _evaluate(expr.left, bindings)
        b = _evaluate(expr.right, bindings)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        if expr.op == "/":
            if b == 0.0:
                raise EvalError(f"division by zero ({a} / {b})")
            return a / b
        return _pow(a, b)
    args = [_evaluate(a, bindings) for a in expr.args]
    name = expr.name
    if name == "log":
        if args[0] <= 0.0:
            raise EvalError(f"log of non-positive argument {args[0]}")
        return math.log(args[0])
    if name == "sqrt":
        if args[0] < 0.0:
            raise EvalError(f"sqrt of negative argument {args[0]}")
        return math.sqrt(args[0])
    if name == "exp":
        return _exp(args[0])
    if name == "sin":
        return math.sin(args[0])
    if name == "cos":
        return math.cos(args[0])
    if name == "tan":
        return math.tan(args[0])
    if name == "abs":
        return abs(args[0])
    if name == "min":
        return min(args)
    return max(args)


@st.composite
def _scalar_cases(draw):
    names = draw(st.sampled_from([("r",), ("r", "tau"), ("r", "p", "q"), ("r", "pre", "pim", "q")]))
    text = draw(expression_texts(names))
    values = (st.floats() | st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, 710.0))
              | st.integers(-3, 3) | st.floats(-10, 10).map(np.float64))  # each is read as a float
    rows = draw(st.lists(st.tuples(*[values] * len(names)), min_size=1, max_size=4))
    return text, names, rows


@settings(max_examples=500, deadline=None, database=None)
@given(_scalar_cases())
@example(("min(1,sin(exp(1000)))", ("r",), [(0.5,), (2.0,)]))
@example(("min(1,exp(1000)-exp(1000))", ("r",), [(0.5,), (2.0,)]))
@example(("max(exp(1000)-exp(1000),1)", ("r",), [(0.5,)]))
@example(("(0-2)^exp(1000)", ("r",), [(1.0,)]))
@example(("(0-10)^r", ("r",), [(309.0,), (2.0,)]))
@example(("log(r)", ("r",), [(2.0,), (-1.0,), (3.0,)]))
@example(("exp(r)*exp(r)-exp(2*r)", ("r",), [(400.0,), (710.0,), (-800.0,)]))
@example(("log(p)+sqrt(q)", ("r", "p", "q"), [(1.0, 0.0, 1.0), (1.0, -0.0, 1.0), (1.0, 1.0, -0.0)]))
@example(("p/(q-r)+r/0", ("r", "p", "q"), [(1.0, 2.0, 1.0), (1.0, 0.0, 2.0)]))
@example(("min(p,q)-max(q,p)", ("r", "p", "q"), [(0.0, -0.0, 0.0), (0.0, 1.0, -1.0)]))
@example(("tan(r)^(0-1)+0^r", ("r",), [(0.0,), (-1.0,), (1.5707963267948966,)]))
def test_compiled_evaluate_equals_the_tree_walk(case):
    """The same float, bit for bit, or an EvalError with the same message,
    on the first (compiling) call and on the cached ones after it."""
    text, names, rows = case
    expr = parse(text, names)
    for row in rows:
        bindings = dict(zip(names, row))
        try:
            want = _tree_walk_evaluate(expr, bindings)
        except EvalError as err:
            with pytest.raises(EvalError) as got:
                evaluate(expr, bindings)
            assert str(got.value) == str(err)
            continue
        got = evaluate(expr, bindings)
        assert type(got) is float and struct.pack("<d", got) == struct.pack("<d", want)


def test_missing_binding_names_the_variable_on_every_call():
    expr = parse("sin(p)+q", VARS)
    for _ in range(2):
        with pytest.raises(EvalError, match="missing binding for variable 'q'"):
            evaluate(expr, {"p": 1.0})
    assert evaluate(expr, {"p": 0.0, "q": 2}) == 2.0


def test_compiled_trees_are_cached_by_identity_and_bounded():
    trees = [parse(f"r+{k}", ("r",)) for k in range(300)]
    assert [evaluate(t, {"r": 0.5}) for t in trees] == [0.5 + k for k in range(300)]
    assert len(expressions._compiled) <= 256
    again = parse("r+299", ("r",))  # an equal tree is another entry
    assert evaluate(again, {"r": 1.0}) == 300.0
    assert id(again) in expressions._compiled and expressions._compiled[id(again)][0] is again
