"""A small arithmetic expression language for profile functions.

Profiles can be supplied as text on the CLI and in JSON metric specs.  The
grammar covers numbers, a declared variable set, unary minus, + - * / ^
(with ^ binding tightest and right-associative, then unary minus, then * /,
then + -), parentheses, and calls to sin cos tan exp log sqrt abs min max.
A tree evaluates on one binding with math's functions (evaluate,
compile_positional), or on equal-shape arrays of bindings at once with
numpy's (compile_rows), under the same domain rules.  Both compile each tree
once, by one walk, into closures, one per node: evaluate on the tree's first
call, compile_rows on the text's first use.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from typing import Callable, Iterable, Mapping, NamedTuple, Union

import numpy as np

from .errors import EvalError, ParseError


class Num(NamedTuple):
    value: float


class Var(NamedTuple):
    name: str


class Neg(NamedTuple):
    operand: "Expr"


class BinOp(NamedTuple):
    op: str
    left: "Expr"
    right: "Expr"


class Call(NamedTuple):
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
    if not isinstance(text, str):
        raise ParseError(f"an expression is text, not {type(text).__name__}", 0)
    parser = _Parser(_tokenize(text), frozenset(allowed_vars))
    expr, _ = parser.parse_expression(0)
    kind, val, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {val!r}", off)
    return expr


class _Positional:
    """compile_positional's callable.  Two compare equal, with equal hashes,
    when their names and the canonical forms of their texts, to_string of
    the tree, are equal: whitespace, redundant parentheses and 1 against 1.0
    do not count, operand order does.  Nothing is cached, so equality never
    depends on what was compiled before."""

    def __init__(self, text: str, names: tuple[str, ...]):
        self._expr, self.names = parse(text, names), names
        self.text, self.rows = text, compile_rows(text, names)
        self._key = (names, to_string(self._expr))

    def __call__(self, *args):
        if len(args) != len(self.names):  # zip would drop an extra one or leave a name unbound
            raise _arity_error(self.text, self.names, len(args))
        return evaluate(self._expr, dict(zip(self.names, args)))

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key)


def compile_positional(text: str, names: tuple[str, ...]) -> Callable[..., float]:
    """Parse text once; the callable evaluates it with its arguments bound to
    names in order, and raises TypeError unless it gets one per name.  It
    carries its text as .text and its array form, compile_rows(text, names),
    as .rows, and compares by value (see _Positional)."""
    return _Positional(text, names)


def _arity_error(text: str, names: tuple[str, ...], got: int) -> TypeError:
    """The error for a profile call with got arguments (or columns), not one per name."""
    return TypeError(f"profile {text!r} takes {len(names)} argument(s) ({', '.join(names)}), "
                     f"got {got}")


def _pow(x: float, y: float) -> float:
    if x < 0.0 and not y.is_integer():  # an infinite y is no integer either
        raise EvalError(f"non-integer power {y} of negative base {x}")
    if x == 0.0 and y < 0.0:
        raise EvalError(f"zero raised to negative power {y}")
    try:
        return math.pow(x, y)
    except OverflowError:  # a negative x to an odd y overflows to -inf
        return -math.inf if x < 0.0 and y % 2.0 == 1.0 else math.inf


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def evaluate(expr: Expr, bindings: Mapping[str, float]) -> float:
    """IEEE double evaluation: a value that is never NaN, or an EvalError.

    The tree is compiled to closures on its first evaluation.  Undefined
    forms the domain rules do not name (inf - inf, sin(inf)) are caught
    once, here, and not at every node.
    """
    entry = _compiled.get(id(expr))
    if entry is None:
        if len(_compiled) >= 256:  # bounded as compile_rows is; the oldest goes
            del _compiled[next(iter(_compiled))]
        closure = _compile(expr, lambda value: lambda b: value,
                           lambda name: lambda b: float(b[name]), _OPS, _CALLS)
        entry = _compiled[id(expr)] = (expr, closure)
    try:
        value = entry[1](bindings)
    except EvalError:
        raise
    except ValueError as exc:  # math.sin/cos/tan of an infinite argument
        raise EvalError(f"expression is undefined here ({exc})") from None
    except KeyError as exc:
        raise EvalError(f"missing binding for variable {exc.args[0]!r}") from None
    if value != value:
        raise EvalError("expression is undefined here (evaluates to NaN)")
    return value


# id(tree) -> (tree, closure), keyed by identity: a tree's hash walks the whole
# tree every call.  Holding the tree keeps its id from being reused.
_compiled: dict[int, tuple[Expr, Callable[[Mapping[str, float]], float]]] = {}


def _compile(expr: Expr, num: Callable, var: Callable, ops: Mapping[str, Callable],
             calls: Mapping[str, Callable]) -> Callable:
    """The tree as closures over one binding b, a mapping for evaluate and a
    tuple of columns for compile_rows: num(value) and var(name) make the
    leaves, ops and calls give the operators and functions.  One closure per
    node, the left operand evaluated before the right, the domain rules raised
    as they meet."""
    def walk(e: Expr) -> Callable:
        if isinstance(e, Num):
            return num(e.value)
        if isinstance(e, Var):
            return var(e.name)
        if isinstance(e, Neg):
            operand = walk(e.operand)
            return lambda b: -operand(b)
        if isinstance(e, BinOp):
            left, right, op = walk(e.left), walk(e.right), ops[e.op]
            return lambda b: op(left(b), right(b))
        fn, args = calls[e.name], [walk(a) for a in e.args]
        if len(args) == 1:
            (arg,) = args
            return lambda b: fn(arg(b))
        first, second = args
        return lambda b: fn(first(b), second(b))
    return walk(expr)


def _divide(a: float, b: float) -> float:
    if b == 0.0:
        raise EvalError(f"division by zero ({a} / {b})")
    return a / b


def _log(x: float) -> float:
    if x <= 0.0:
        raise EvalError(f"log of non-positive argument {x}")
    return math.log(x)


def _sqrt(x: float) -> float:
    if x < 0.0:
        raise EvalError(f"sqrt of negative argument {x}")
    return math.sqrt(x)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _pow}

# min and max of two floats keep the first unless the second is strictly
# smaller (larger).
_CALLS = {
    "sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": _exp, "log": _log,
    "sqrt": _sqrt, "abs": abs, "min": min, "max": max,
}


@functools.lru_cache(maxsize=256)
def compile_rows(text: str, names: tuple[str, ...]) -> Callable[..., np.ndarray]:
    """Parse text once into a closure over equal-shape float arrays bound to
    names in order, raising compile_positional's TypeError unless it gets one
    array per name.  Cached: a profile's text compiles once, when
    compile_positional builds the profile, and is looked up after that.

    Element i of its result is, bit for bit, the tree walk of element i
    with numpy's exp, log, power, sin, cos and tan in place of math's, and
    the call raises EvalError exactly when that walk raises on some element:
    every domain rule is a mask over the elements.  + - * /, sqrt, abs, min
    and max are the same IEEE operations as evaluate's, and numpy's six
    functions are within 1 ulp of math's.  The closure's .constant is the
    value of a text without a variable, and None for any other text.
    """
    tree = parse(text, names)
    read: list[str] = []  # the variables the walk meets

    def column(name: str) -> Callable:
        read.append(name)
        return operator.itemgetter(names.index(name))
    node = _compile(tree, lambda value: lambda cols: np.full(cols[0].shape, value),
                    column, _ROW_OPS, _ROW_CALLS)

    def rows(*columns):
        if len(columns) != len(names):  # an extra column would be ignored, a missing one unread
            raise _arity_error(text, names, len(columns))
        cols = tuple(np.asarray(c, dtype=float) for c in columns)
        with np.errstate(all="ignore"):  # inf and NaN are handled as evaluate does
            out = node(cols)
        if np.isnan(out).any():
            raise EvalError("expression is undefined here (evaluates to NaN)")
        return out
    rows.constant = None  # a tree without a variable carries its value: callers need no column
    if not read and names:
        try:  # such a tree reads only a column's shape
            rows.constant = float(rows(*[np.zeros(1)] * len(names))[0])
        except EvalError:  # no value: every non-empty call raises
            pass
    return rows


def _require(bad: np.ndarray, message: str, *values: np.ndarray) -> None:
    """EvalError naming the first bad element's values, if any element is bad."""
    if bad.any():
        k = int(np.argmax(bad))
        raise EvalError(message.format(*(v.flat[k] for v in values)))


def _divide_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _require(b == 0.0, "division by zero ({} / {})", a, b)
    return a / b


def _pow_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    integer = np.isfinite(y) & (np.floor(y) == y)
    _require((x < 0.0) & ~integer, "non-integer power {1} of negative base {0}", x, y)
    _require((x == 0.0) & (y < 0.0), "zero raised to negative power {1}", x, y)
    return np.power(x, y)


def _log_rows(x: np.ndarray) -> np.ndarray:
    _require(x <= 0.0, "log of non-positive argument {}", x)
    return np.log(x)


def _sqrt_rows(x: np.ndarray) -> np.ndarray:
    _require(x < 0.0, "sqrt of negative argument {}", x)
    return np.sqrt(x)


def _trig_rows(fn: np.ufunc) -> Callable[[np.ndarray], np.ndarray]:
    def rows(x):
        _require(np.isinf(x), f"expression is undefined here ({fn.__name__} of {{}})", x)
        return fn(x)
    return rows


_ROW_OPS = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": _divide_rows, "^": _pow_rows}

# min and max keep their first argument unless the second is strictly
# smaller (larger), as Python's do; np.minimum would pick a NaN instead.
_ROW_CALLS = {
    "sin": _trig_rows(np.sin), "cos": _trig_rows(np.cos), "tan": _trig_rows(np.tan),
    "exp": np.exp, "log": _log_rows, "sqrt": _sqrt_rows,
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
