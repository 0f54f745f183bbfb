"""A small expression language for scalar fields v(x, y, z).

Grammar (recursive descent):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' signed-integer)?
    atom   := number | 'x' | 'y' | 'z' | name '(' expr ')' | '(' expr ')'

with names sin, cos, exp.  Expressions evaluate vectorized over (N, 3)
point arrays and differentiate symbolically to any order, so fields built
from them carry exact partials into the seminorm and error machinery.
Parse errors carry the offending position and render a caret diagnostic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionParseError
from .interp import ScalarField

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}
_VARS = {"x": 0, "y": 1, "z": 2}


class Node:
    def eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diff(self, axis: int) -> "Node":
        raise NotImplementedError


@dataclass(frozen=True)
class Num(Node):
    value: float

    def eval(self, pts):
        return np.full(pts.shape[0], self.value)

    def diff(self, axis):
        return Num(0.0)

    def __str__(self):
        return repr(self.value)


@dataclass(frozen=True)
class Var(Node):
    axis: int

    def eval(self, pts):
        return pts[:, self.axis]

    def diff(self, axis):
        return Num(1.0 if axis == self.axis else 0.0)

    def __str__(self):
        return "xyz"[self.axis]


def _is_const(node: Node, value: float | None = None) -> bool:
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(u: Node, v: Node) -> Node:
    if _is_const(u) and _is_const(v):
        return Num(u.value + v.value)
    if _is_const(u, 0.0):
        return v
    if _is_const(v, 0.0):
        return u
    return Add(u, v)


def _sub(u: Node, v: Node) -> Node:
    if _is_const(u) and _is_const(v):
        return Num(u.value - v.value)
    if _is_const(v, 0.0):
        return u
    if _is_const(u, 0.0):
        return Neg(v)
    return Sub(u, v)


def _mul(u: Node, v: Node) -> Node:
    if _is_const(u) and _is_const(v):
        return Num(u.value * v.value)
    if _is_const(u, 0.0) or _is_const(v, 0.0):
        return Num(0.0)
    if _is_const(u, 1.0):
        return v
    if _is_const(v, 1.0):
        return u
    return Mul(u, v)


def _div(u: Node, v: Node) -> Node:
    if _is_const(u, 0.0):
        return Num(0.0)
    if _is_const(v, 1.0):
        return u
    if _is_const(u) and _is_const(v) and v.value != 0.0:
        return Num(u.value / v.value)
    return Div(u, v)


def _neg(u: Node) -> Node:
    if _is_const(u):
        return Num(-u.value)
    if isinstance(u, Neg):
        return u.arg
    return Neg(u)


def _pow(base: Node, n: int) -> Node:
    if n == 0:
        return Num(1.0)
    if n == 1:
        return base
    if _is_const(base):
        return Num(base.value ** n)
    return Pow(base, n)


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def eval(self, pts):
        return -self.arg.eval(pts)

    def diff(self, axis):
        return _neg(self.arg.diff(axis))

    def __str__(self):
        return "(-%s)" % (self.arg,)


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node

    def eval(self, pts):
        return self.left.eval(pts) + self.right.eval(pts)

    def diff(self, axis):
        return _add(self.left.diff(axis), self.right.diff(axis))

    def __str__(self):
        return "(%s + %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Sub(Node):
    left: Node
    right: Node

    def eval(self, pts):
        return self.left.eval(pts) - self.right.eval(pts)

    def diff(self, axis):
        return _sub(self.left.diff(axis), self.right.diff(axis))

    def __str__(self):
        return "(%s - %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node

    def eval(self, pts):
        return self.left.eval(pts) * self.right.eval(pts)

    def diff(self, axis):
        return _add(
            _mul(self.left.diff(axis), self.right),
            _mul(self.left, self.right.diff(axis)),
        )

    def __str__(self):
        return "(%s * %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node

    def eval(self, pts):
        return self.left.eval(pts) / self.right.eval(pts)

    def diff(self, axis):
        num = _sub(
            _mul(self.left.diff(axis), self.right),
            _mul(self.left, self.right.diff(axis)),
        )
        return _div(num, _pow(self.right, 2))

    def __str__(self):
        return "(%s / %s)" % (self.left, self.right)


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int

    def eval(self, pts):
        return self.base.eval(pts) ** self.n

    def diff(self, axis):
        inner = self.base.diff(axis)
        return _mul(_mul(Num(float(self.n)), _pow(self.base, self.n - 1)), inner)

    def __str__(self):
        return "(%s^%d)" % (self.base, self.n)


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def eval(self, pts):
        return _FUNCTIONS[self.name](self.arg.eval(pts))

    def diff(self, axis):
        inner = self.arg.diff(axis)
        if self.name == "sin":
            outer: Node = Call("cos", self.arg)
        elif self.name == "cos":
            outer = _neg(Call("sin", self.arg))
        else:  # exp
            outer = Call("exp", self.arg)
        return _mul(outer, inner)

    def __str__(self):
        return "%s(%s)" % (self.name, self.arg)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                stripped = text[pos:].lstrip()
                if not stripped:
                    break
                where = len(text) - len(stripped)
                raise ExpressionParseError(
                    "unexpected character %r" % (text[where],), text, where
                )
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise ExpressionParseError("expected %r" % (op,), self.text, pos)
        return self.next()

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ExpressionParseError("unexpected trailing %r" % (val,), self.text, pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = _add(node, rhs) if val == "+" else _sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = _mul(node, rhs) if val == "*" else _div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return inner if val == "+" else _neg(inner)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            n = self.integer()
            return _pow(base, n)
        return base

    def integer(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
            kind, val, pos = self.peek()
        if kind != "num" or not re.fullmatch(r"\d+", val):
            raise ExpressionParseError("exponent must be an integer", self.text, pos)
        self.next()
        return sign * int(val)

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            return Num(float(val))
        if kind == "name":
            if val in _VARS:
                return Var(_VARS[val])
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise ExpressionParseError(
                "unknown name %r (expected x, y, z, sin, cos or exp)" % (val,),
                self.text,
                pos,
            )
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionParseError("expected a value", self.text, pos)


def parse_expression(text: str) -> Node:
    """Parse the expression text into an AST; raises ExpressionParseError."""
    if not text or not text.strip():
        raise ExpressionParseError("empty expression", text or "", 0)
    return _Parser(text).parse()


def partial_node(node: Node, gamma: tuple[int, int, int]) -> Node:
    """d^gamma applied symbolically, one axis at a time."""
    out = node
    for axis in range(3):
        for _ in range(gamma[axis]):
            out = out.diff(axis)
    return out


def field_from_expression(text_or_node) -> ScalarField:
    """A ScalarField with exact symbolic partials from an expression.

    Derivative ASTs are memoized per multi-index, so repeated seminorm
    evaluations do not re-differentiate.
    """
    node = (
        parse_expression(text_or_node)
        if isinstance(text_or_node, str)
        else text_or_node
    )
    cache: dict[tuple[int, int, int], Node] = {(0, 0, 0): node}

    def eval_fn(pts):
        return node.eval(np.atleast_2d(np.asarray(pts, dtype=float)))

    def partial_fn(gamma, pts):
        gamma = tuple(int(g) for g in gamma)
        if gamma not in cache:
            cache[gamma] = partial_node(node, gamma)
        return cache[gamma].eval(np.atleast_2d(np.asarray(pts, dtype=float)))

    return ScalarField(eval_fn, partial_fn=partial_fn, order=None)
