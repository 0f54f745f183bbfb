"""A small expression language for scalar fields v(x, y, z).

Grammar (recursive descent):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' signed-integer)?
    atom   := number | 'x' | 'y' | 'z' | name '(' expr ')' | '(' expr ')'

with names sin, cos, exp.  Fields built from expressions carry exact
partials by Taylor-mode evaluation: one pass over the tree propagates
truncated Taylor jets (forward-mode automatic differentiation; Griewank &
Walther, Evaluating Derivatives, 2008) over (N, 3) point arrays and yields
every partial of order m.
Parse errors carry the offending position and render a caret diagnostic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ExpressionParseError
from .interp import ScalarField, _OnePass, _times, derivative_indices

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = ("sin", "cos", "exp")
_VARS = {"x": 0, "y": 1, "z": 2}
_AXES = np.eye(3)[:, :, None]  # the linear part of each coordinate

# A jet of order n is the list of the homogeneous parts 0..n of the Taylor
# expansion f(x + h) = sum_gamma c_gamma(x) h^gamma, c_gamma = d^gamma f / gamma!.
# Part d is an (M_d, N) array over derivative_indices(d); (M_d, 1), or a
# scalar for part 0, when it does not depend on the point (constants, the
# linear part of an affine argument); None when it vanishes.  Asked for the
# top part only, a node computes part n alone and may leave the lower parts
# None: a field's partials of order m read part m and nothing else.


def _plus(a, b):
    return a if b is None else b if a is None else a + b


def _parts(n: int, top: bool) -> range:
    """The parts a jet of order n computes: all of them, or part n alone."""
    return range(n, n + 1) if top else range(n + 1)


def _mul(u: list, v: list, top: bool = False) -> list:
    """The product of jets u and v; each part sums u_i v_(d-i) by ascending i."""
    out = [None] * len(u)
    for d in _parts(len(u) - 1, top):
        for i in range(d + 1):
            if u[i] is not None and v[d - i] is not None:
                out[d] = _plus(out[d], _times(u[i], i, v[d - i], d - i))
    return out


def _compose(coeffs: list, v: list, top: bool = False) -> list:
    """f(v) from coeffs[d] = f^(d)(v_0)/d!: the sum of coeffs[d] (v - v_0)^d.

    Every part of (v - v_0)^d is needed for the next power, but only the
    kept parts of the sum are formed.  When v is affine, (v - v_0)^d is a
    single constant part, so each term is one outer product.
    """
    keep = _parts(len(v) - 1, top)
    delta = [None] + v[1:]
    out = [coeffs[0] if 0 in keep else None] + [None] * (len(v) - 1)
    power = [np.ones((1, 1))] + [None] * (len(v) - 1)
    for c in coeffs[1:]:
        power = _mul(power, delta)
        for d in keep:
            if power[d] is not None:
                out[d] = _plus(out[d], c * power[d])
    return out


def _power_coeffs(a, k: int, n: int) -> list:
    """binom(k, d) a^(k-d), d = 0..n: the Taylor coefficients of t^k at a."""
    out, binom = [], 1.0
    for d in range(min(n, k) + 1 if k >= 0 else n + 1):
        out.append(binom * a ** (k - d))
        binom = binom * (k - d) / (d + 1)
    return out


def _function_coeffs(name: str, a, n: int) -> list:
    """f^(d)(a)/d!, d = 0..n, for f = sin, cos or exp."""
    if name == "exp":
        e = np.exp(a)
        return [e / math.factorial(d) for d in range(n + 1)]
    s, c = np.sin(a), np.cos(a)
    cycle = (s, c, -s, -c) if name == "sin" else (c, -s, -c, s)
    return [cycle[d % 4] / math.factorial(d) for d in range(n + 1)]


@lru_cache(maxsize=16)
def _factorials(m: int) -> np.ndarray:
    """gamma! for every |gamma| = m in derivative_indices(m) order, as a
    read-only column."""
    out = np.array([math.prod(map(math.factorial, g)) for g in derivative_indices(m)], dtype=float)
    out.flags.writeable = False
    return out[:, None]


class Node:
    def jet(self, pts: np.ndarray, n: int, top: bool = False) -> list:
        """The parts 0..n of the Taylor jet at pts (N, 3); with top, part n
        is computed and the lower parts may be None."""
        raise NotImplementedError

    def partials(self, m: int, pts) -> np.ndarray:
        """Every d^gamma with |gamma| = m at pts, rows in derivative_indices(m)
        order.  Numpy warnings are silenced: callers check finiteness."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        shape = (len(derivative_indices(m)), pts.shape[0])
        with np.errstate(all="ignore"):
            part = self.jet(pts, m, top=True)[m]
            if part is None:
                return np.zeros(shape)
            return np.multiply(part, _factorials(m), out=np.empty(shape))

    def eval(self, pts) -> np.ndarray:
        return self.partials(0, pts)[0]


@dataclass(frozen=True)
class Num(Node):
    value: float

    def jet(self, pts, n, top=False):
        return [np.float64(self.value)] + [None] * n


@dataclass(frozen=True)
class Var(Node):
    axis: int

    def jet(self, pts, n, top=False):
        out = [pts[None, :, self.axis]] + [None] * n
        if n:
            out[1] = _AXES[self.axis]
        return out


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def jet(self, pts, n, top=False):
        return [None if a is None else -a for a in self.arg.jet(pts, n, top)]


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node

    def jet(self, pts, n, top=False):
        return list(map(_plus, self.left.jet(pts, n, top), self.right.jet(pts, n, top)))


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node

    def jet(self, pts, n, top=False):
        return _mul(self.left.jet(pts, n), self.right.jet(pts, n), top)


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node

    def jet(self, pts, n, top=False):
        u, v = self.left.jet(pts, n), self.right.jet(pts, n)
        coeffs = _power_coeffs(v[0], -1, n)
        if all(a is None for a in u[1:]):  # a constant numerator scales 1/v
            return _compose([u[0] * c for c in coeffs], v, top)
        return _mul(u, _compose(coeffs, v), top)


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int

    def jet(self, pts, n, top=False):
        v = self.base.jet(pts, n)
        return _compose(_power_coeffs(v[0], self.n, n), v, top)


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def jet(self, pts, n, top=False):
        v = self.arg.jet(pts, n)
        return _compose(_function_coeffs(self.name, v[0], n), v, top)


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
                node = Add(node, rhs if val == "+" else Neg(rhs))
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = Mul(node, rhs) if val == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return inner if val == "+" else Neg(inner)
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            n = self.integer()
            return Pow(base, n)
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


def field_from_expression(text_or_node) -> ScalarField:
    """A ScalarField with exact partials by Taylor-mode evaluation."""
    node = (
        parse_expression(text_or_node)
        if isinstance(text_or_node, str)
        else text_or_node
    )
    return _OnePass(node.eval, node.partials, None, 1.0, True)
