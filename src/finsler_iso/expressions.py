"""A small arithmetic expression language for profile functions.

Profiles can be supplied as text on the CLI and in JSON metric specs.  The
grammar covers numbers, a declared variable set, unary minus, + - * / ^
(with ^ binding tightest and right-associative, then unary minus, then * /,
then + -), parentheses, and calls to sin cos tan exp log sqrt abs min max.
A tree evaluates on one binding (evaluate, compile_positional) or on
equal-shape arrays of bindings at once (compile_rows), with equal results.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

import numpy as np


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Missing binding, or a domain error such as log of a negative number."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]


Expr = Union[Num, Var, Neg, BinOp, Call]

FUNCTION_ARITY = {
    "sin": 1, "cos": 1, "tan": 1, "exp": 1, "log": 1,
    "sqrt": 1, "abs": 1, "min": 2, "max": 2,
}

# lbp/rbp pairs: equal powers make ^ right-associative, lbp+1 makes the rest
# left-associative.
_BINDING = {"+": (10, 11), "-": (10, 11), "*": (20, 21), "/": (20, 21), "^": (40, 40)}
_UNARY_BP = 30

_TOKEN_RE = re.compile(
    r"(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# The deepest tree parse accepts; deeper text is a ParseError, so neither the
# parser nor an evaluator meets Python's recursion limit.  Parsing may nest
# twice as deep, so that to_string's rendering of every accepted tree parses.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; every parse method returns (tree, tree depth)."""

    def __init__(self, tokens, allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_vars
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, off = self.peek()
        if kind != "op" or val != value:
            raise ParseError(f"expected {value!r}", off)
        self.advance()

    @staticmethod
    def deeper(depth: int, off: int) -> int:
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression deeper than {MAX_DEPTH} levels", off)
        return depth + 1

    def parse_expression(self, min_bp: int) -> tuple[Expr, int]:
        self.nesting += 1
        if self.nesting > 2 * MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {2 * MAX_DEPTH} levels",
                             self.peek()[2])
        lhs, depth = self.parse_atom()
        while True:
            kind, val, off = self.peek()
            if kind != "op" or val not in _BINDING:
                break
            lbp, rbp = _BINDING[val]
            if lbp < min_bp:
                break
            self.advance()
            rhs, rdepth = self.parse_expression(rbp)
            lhs, depth = BinOp(val, lhs, rhs), self.deeper(max(depth, rdepth), off)
        self.nesting -= 1
        return lhs, depth

    def parse_atom(self) -> tuple[Expr, int]:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val)), 1
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                return self.parse_call(val, off)
            if val not in self.allowed:
                raise ParseError(f"unknown variable {val!r}", off)
            return Var(val), 1
        if kind == "op":
            if val == "-":
                operand, depth = self.parse_expression(_UNARY_BP)
                return Neg(operand), self.deeper(depth, off)
            if val == "(":
                inner = self.parse_expression(0)
                self.expect(")")
                return inner
            raise ParseError(f"unexpected token {val!r}", off)
        raise ParseError("unexpected end of input", off)

    def parse_call(self, name: str, off: int) -> tuple[Expr, int]:
        if name not in FUNCTION_ARITY:
            raise ParseError(f"unknown function {name!r}", off)
        self.expect("(")
        args = [self.parse_expression(0)]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.parse_expression(0))
        self.expect(")")
        if len(args) != FUNCTION_ARITY[name]:
            raise ParseError(
                f"{name} expects {FUNCTION_ARITY[name]} argument(s), got {len(args)}", off)
        return Call(name, tuple(a for a, _ in args)), self.deeper(max(d for _, d in args), off)


def parse(text: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse text into an Expr whose variables all lie in allowed_vars and
    whose depth is at most MAX_DEPTH."""
    parser = _Parser(_tokenize(text), frozenset(allowed_vars))
    expr, _ = parser.parse_expression(0)
    kind, val, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {val!r}", off)
    return expr


def compile_positional(text: str, names: tuple[str, ...]) -> Callable[..., float]:
    """Parse text over one to four variables once; the callable evaluates it with
    its arguments bound to names in order (a dict display: dict(zip) costs more)."""
    expr = parse(text, names)
    if len(names) == 1:
        (a,) = names
        return lambda x: evaluate(expr, {a: x})
    if len(names) == 2:
        a, b = names
        return lambda x, y: evaluate(expr, {a: x, b: y})
    if len(names) == 3:
        a, b, c = names
        return lambda x, y, z: evaluate(expr, {a: x, b: y, c: z})
    a, b, c, d = names
    return lambda x, y, z, w: evaluate(expr, {a: x, b: y, c: z, d: w})


def _pow(x: float, y: float) -> float:
    if x < 0.0 and not y.is_integer():  # an infinite y is no integer either
        raise EvalError(f"non-integer power {y} of negative base {x}")
    if x == 0.0 and y < 0.0:
        raise EvalError(f"zero raised to negative power {y}")
    return _pow_value(x, y)


def _pow_value(x: float, y: float) -> float:
    try:
        return math.pow(x, y)
    except OverflowError:
        return math.inf


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """IEEE double evaluation: a value that is never NaN, or an EvalError.

    Undefined forms the domain rules do not name (inf - inf, sin(inf)) are
    caught once, here, and not at every node.
    """
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


@functools.lru_cache(maxsize=256)
def compile_rows(text: str, names: tuple[str, ...]) -> Callable[..., np.ndarray]:
    """Parse text once into a closure over equal-shape float arrays bound to
    names in order; element i of its result is evaluate(expr, bindings of
    element i) exactly.  Cached: a profile's text compiles on its first
    batch and is looked up after that.

    Every domain rule is a mask over the elements, and the call raises
    EvalError when any element would raise in evaluate.  Arithmetic is
    numpy's (IEEE doubles, as Python floats); exp, log, ^ and the
    trigonometric functions call math element by element, because numpy's
    own may differ from it in the last bits.
    """
    node = _compile_rows(parse(text, names), names)

    def rows(*columns):
        cols = tuple(np.asarray(c, dtype=float) for c in columns)
        with np.errstate(all="ignore"):  # inf and NaN are handled as evaluate does
            out = node(cols)
        if np.isnan(out).any():
            raise EvalError("expression is undefined here (evaluates to NaN)")
        return out
    return rows


def _compile_rows(expr: Expr, names: tuple[str, ...]) -> Callable[[tuple], np.ndarray]:
    if isinstance(expr, Num):
        value = expr.value
        return lambda cols: np.full(cols[0].shape, value)
    if isinstance(expr, Var):
        i = names.index(expr.name)
        return lambda cols: cols[i]
    if isinstance(expr, Neg):
        operand = _compile_rows(expr.operand, names)
        return lambda cols: -operand(cols)
    if isinstance(expr, BinOp):
        left, right, op = (_compile_rows(expr.left, names), _compile_rows(expr.right, names),
                           _ROW_OPS[expr.op])
        return lambda cols: op(left(cols), right(cols))
    fn, args = _ROW_CALLS[expr.name], [_compile_rows(a, names) for a in expr.args]
    if len(args) == 1:
        (arg,) = args
        return lambda cols: fn(arg(cols))
    first, second = args
    return lambda cols: fn(first(cols), second(cols))


def _require(bad: np.ndarray, message: str, *values: np.ndarray) -> None:
    """EvalError naming the first bad element's values, if any element is bad."""
    if bad.any():
        k = int(np.argmax(bad))
        raise EvalError(message.format(*(v.flat[k] for v in values)))


def _elementwise(fn: Callable[..., float], *arrays: np.ndarray) -> np.ndarray:
    out = np.fromiter(map(fn, *(a.ravel().tolist() for a in arrays)), float, arrays[0].size)
    return out.reshape(arrays[0].shape)


def _divide_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _require(b == 0.0, "division by zero ({} / {})", a, b)
    return a / b


def _pow_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    integer = np.isfinite(y) & (np.floor(y) == y)
    _require((x < 0.0) & ~integer, "non-integer power {1} of negative base {0}", x, y)
    _require((x == 0.0) & (y < 0.0), "zero raised to negative power {1}", x, y)
    return _elementwise(_pow_value, x, y)


def _log_rows(x: np.ndarray) -> np.ndarray:
    _require(x <= 0.0, "log of non-positive argument {}", x)
    return _elementwise(math.log, x)


def _sqrt_rows(x: np.ndarray) -> np.ndarray:
    _require(x < 0.0, "sqrt of negative argument {}", x)
    return np.sqrt(x)


def _trig_rows(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    def rows(x):
        _require(np.isinf(x), f"expression is undefined here ({fn.__name__} of {{}})", x)
        return _elementwise(fn, x)
    return rows


_ROW_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide_rows, "^": _pow_rows}

# min and max keep their first argument unless the second is strictly
# smaller (larger), as Python's do; np.minimum would pick a NaN instead.
_ROW_CALLS = {
    "sin": _trig_rows(math.sin), "cos": _trig_rows(math.cos), "tan": _trig_rows(math.tan),
    "exp": lambda x: _elementwise(_exp, x), "log": _log_rows, "sqrt": _sqrt_rows,
    "abs": np.abs,
    "min": lambda a, b: np.where(b < a, b, a),
    "max": lambda a, b: np.where(b > a, b, a),
}


def to_string(expr: Expr) -> str:
    """Fully parenthesized rendering; re-parses to an equivalent tree."""
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{to_string(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({to_string(expr.left)}{expr.op}{to_string(expr.right)})"
    return f"{expr.name}({','.join(to_string(a) for a in expr.args)})"
