"""A small arithmetic expression language for profile functions.

Profiles can be supplied as text on the CLI and in JSON metric specs.  The
grammar covers numbers, a declared variable set, unary minus, + - * / ^
(with ^ binding tightest and right-associative, then unary minus, then * /,
then + -), parentheses, and calls to sin cos tan exp log sqrt abs min max.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Union


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


class _Parser:
    def __init__(self, tokens, allowed_vars: frozenset[str]):
        self.tokens = tokens
        self.pos = 0
        self.allowed = allowed_vars

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

    def parse_expression(self, min_bp: int) -> Expr:
        lhs = self.parse_atom()
        while True:
            kind, val, _ = self.peek()
            if kind != "op" or val not in _BINDING:
                break
            lbp, rbp = _BINDING[val]
            if lbp < min_bp:
                break
            self.advance()
            rhs = self.parse_expression(rbp)
            lhs = BinOp(val, lhs, rhs)
        return lhs

    def parse_atom(self) -> Expr:
        kind, val, off = self.advance()
        if kind == "num":
            return Num(float(val))
        if kind == "ident":
            if self.peek()[:2] == ("op", "("):
                return self.parse_call(val, off)
            if val not in self.allowed:
                raise ParseError(f"unknown variable {val!r}", off)
            return Var(val)
        if kind == "op":
            if val == "-":
                return Neg(self.parse_expression(_UNARY_BP))
            if val == "(":
                inner = self.parse_expression(0)
                self.expect(")")
                return inner
            raise ParseError(f"unexpected token {val!r}", off)
        raise ParseError("unexpected end of input", off)

    def parse_call(self, name: str, off: int) -> Expr:
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
        return Call(name, tuple(args))


def parse(text: str, allowed_vars: Iterable[str]) -> Expr:
    """Parse text into an Expr whose variables all lie in allowed_vars."""
    parser = _Parser(_tokenize(text), frozenset(allowed_vars))
    expr = parser.parse_expression(0)
    kind, val, off = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected trailing token {val!r}", off)
    return expr


def _pow(x: float, y: float) -> float:
    if x < 0.0 and y != math.floor(y):
        raise EvalError(f"non-integer power {y} of negative base {x}")
    if x == 0.0 and y < 0.0:
        raise EvalError(f"zero raised to negative power {y}")
    try:
        return math.pow(x, y)
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
        try:
            return math.exp(args[0])
        except OverflowError:
            return math.inf
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


def variables(expr: Expr) -> frozenset[str]:
    if isinstance(expr, Var):
        return frozenset({expr.name})
    if isinstance(expr, Neg):
        return variables(expr.operand)
    if isinstance(expr, BinOp):
        return variables(expr.left) | variables(expr.right)
    if isinstance(expr, Call):
        out: frozenset[str] = frozenset()
        for a in expr.args:
            out |= variables(a)
        return out
    return frozenset()
