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
every partial of the requested orders.  A jet pays only for what it forms:
the root forms only the parts that are asked for, a product pairs only the
parts that do not vanish, a Taylor coefficient is computed only for the
parts that use it, the root's own parts are scaled by gamma! (the table
interp._factorials) in place into the arrays handed to the caller, and the
parser folds every affine subtree (numbers, x, y, z, sums, differences,
products with a constant and quotients by a constant) into one Affine
node, whose value is its terms summed in source order and whose only
higher part is a constant, read-only gradient.  The corpus's affine
arguments so evaluate as the unfolded tree does, bitwise.  A ridge,
g(a . x + b) for a root Call, Pow or constant-numerator Div over one
non-constant Affine, has an order-n part that is one row
g^(n)(a . x + b)/n! over the points times one constant column, the powers
of a: when its caller names an order in partials_of's rank_one, the root
returns it as an interp.RankOne, row and column apart, and never forms the
(n_gamma, N) product.  Those columns, (a . h)^d, are
built once per Affine node and kept on it, as its gradient is, so a field
pays for them once however many sample sets it is evaluated on.
Parse errors carry the offending position and render a caret diagnostic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ExpressionParseError
from .interp import RankOne, ScalarField, _checked_orders, _factorials, _points, _times

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)

_FUNCTIONS = ("sin", "cos", "exp")
_VARS = {"x": 0, "y": 1, "z": 2}

# A jet of order n is the list of the homogeneous parts 0..n of the Taylor
# expansion f(x + h) = sum_gamma c_gamma(x) h^gamma, c_gamma = d^gamma f / gamma!.
# Part d is an (M_d, N) array over derivative_indices(d); (M_d, 1), or a
# scalar for part 0, when it does not depend on the point (constants, the
# gradient of an affine node); None when it vanishes.  Asked to keep a set of
# parts, a node computes those and may leave the others None; its children
# are computed in full.  keep=None keeps every part.  A ridge root asked for
# parts in rank_one returns each of those as a pair (row (1, N), column
# (M_d, 1)) whose product the part is; every other node ignores rank_one.


_ONE = np.ones((1, 1))  # part 0 of (v - v_0)^0
_ONE.flags.writeable = False


def _plus(a, b):
    return a if b is None else b if a is None else a + b


def _kept(n: int, keep) -> range | tuple:
    """The parts a jet of order n computes: all of them, or those in keep."""
    return range(n + 1) if keep is None else keep


def _mul(u: list, v: list, keep=None) -> list:
    """The product of jets u and v; each kept part sums u_i v_(d-i) by
    ascending i over the pairs where neither vanishes."""
    out = [None] * len(u)
    nonzero = [i for i, a in enumerate(u) if a is not None]
    for d in _kept(len(u) - 1, keep):
        for i in nonzero:
            if i > d:
                break
            if v[d - i] is not None:
                out[d] = _plus(out[d], _times(u[i], i, v[d - i], d - i))
    return out


def _compose(coeff, count: int, arg: "Node", v: list, keep=None, rank_one=()) -> list:
    """f(v) from coeff(d) = f^(d)(v_0)/d!, d < count: the sum of coeff(d) (v - v_0)^d,
    where v is the jet of arg.

    Every part of (v - v_0)^d is needed for the next power, but only the
    kept parts of the sum are formed, and coeff(d) is computed only when one
    of them has a term of degree d.  When arg is a non-constant Affine,
    (v - v_0)^d is its single constant part d, read from arg.powers, so each
    term is one outer product and only the kept parts' coefficients are
    computed; a part in rank_one is then left as the pair (coeff(d),
    (v - v_0)^d).  rank_one is ignored for any other arg.
    """
    kept = _kept(len(v) - 1, keep)
    out = [coeff(0) if 0 in kept else None] + [None] * (len(v) - 1)
    if isinstance(arg, Affine) and arg.constant is None:
        powers = arg.powers(count - 1)
        for d in kept:
            if 0 < d < count:
                c = coeff(d)
                out[d] = (c, powers[d]) if d in rank_one else c * powers[d]
        return out
    delta = [None] + v[1:]
    power = [_ONE] + [None] * (len(v) - 1)
    for d in range(1, count):
        power = _mul(power, delta)
        terms = [j for j in kept if power[j] is not None]
        if terms:
            c = coeff(d)
            for j in terms:
                out[j] = _plus(out[j], c * power[j])
    return out


def _power_coeffs(a, k: int, n: int):
    """d -> binom(k, d) a^(k-d), the Taylor coefficients of t^k at a, and
    their number up to order n."""
    binoms, binom = [], 1.0
    for d in range(min(n, k) + 1 if k >= 0 else n + 1):
        binoms.append(binom)
        binom = binom * (k - d) / (d + 1)
    return (lambda d: binoms[d] * a ** (k - d)), len(binoms)


# f^(d) for d mod 4 as (function, sign): sin' = cos, cos' = -sin, exp' = exp.
_CYCLES = {
    "sin": (("sin", 1), ("cos", 1), ("sin", -1), ("cos", -1)),
    "cos": (("cos", 1), ("sin", -1), ("cos", -1), ("sin", 1)),
    "exp": (("exp", 1),) * 4,
}


def _function_coeffs(name: str, a, n: int):
    """d -> f^(d)(a)/d!, for f = sin, cos or exp, and their number up to
    order n; sin(a), cos(a) and exp(a) are computed once, when first needed."""
    values = {}

    def coeff(d):
        f, sign = _CYCLES[name][d % 4]
        if f not in values:
            values[f] = getattr(np, f)(a)
        return (values[f] if sign > 0 else -values[f]) / math.factorial(d)

    return coeff, n + 1


class Node:
    def jet(self, pts: np.ndarray, n: int, keep=None, rank_one=()) -> list:
        """The parts 0..n of the Taylor jet at pts (N, 3); with keep, a
        sorted tuple of parts, those are computed and the others may be None.
        A ridge returns a part >= 1 in rank_one as a pair (row, column)."""
        raise NotImplementedError

    def partials_of(self, orders, pts, rank_one=()) -> list:
        """For each m in orders, every d^gamma with |gamma| = m at pts, rows
        in derivative_indices(m) order: one jet of order max(orders) that
        forms only the parts in orders at the root.  pts is an (N, 3) array
        or interp.Samples.  Each result is a new array for the caller:
        a part the root formed in this call, a writable (M_m, N) array, is
        scaled by gamma! in place (a no-op for m <= 1), a constant or cached
        part is scaled into a new array, and an order asked again is a copy.
        An order in rank_one that a ridge root gives as a pair is an
        interp.RankOne instead, whose arrays are for reading only.
        Numpy warnings are silenced: callers check finiteness.  Orders that
        are not one or more integers >= 0 raise InputError, as a field's do."""
        orders, pts = _checked_orders(orders), _points(pts)
        out, done = [], {}
        with np.errstate(all="ignore"):
            jet = self.jet(pts, max(orders), tuple(sorted(set(orders))),
                           rank_one=tuple(sorted(set(rank_one))))
            for m in orders:
                if m in done:
                    out.append(done[m] if isinstance(done[m], RankOne) else done[m].copy())
                    continue
                fact = _factorials(m)
                shape = (fact.shape[0], pts.shape[0])
                part = jet[m]
                if isinstance(part, tuple):
                    part = RankOne(part[0][0], part[1][:, 0], fact[:, 0])
                elif part is None:
                    part = np.zeros(shape)
                elif not (isinstance(part, np.ndarray) and part.shape == shape
                          and part.flags.writeable):
                    part = np.multiply(part, fact, out=np.empty(shape))
                elif m > 1:
                    np.multiply(part, fact, out=part)
                out.append(done.setdefault(m, part))
        return out


@dataclass(frozen=True)
class Affine(Node):
    """sum_i c_i x_(axis_i) (+ c_i where axis_i is None), its terms in source order."""

    terms: tuple[tuple[float, int | None], ...]

    @cached_property
    def constant(self):
        """The value when no term has an axis, else None."""
        if any(axis is not None for _, axis in self.terms):
            return None
        return sum((np.float64(c) for c, _ in self.terms[1:]), np.float64(self.terms[0][0]))

    @cached_property
    def gradient(self) -> np.ndarray | None:
        """The (3, 1) part 1, None for a constant."""
        if self.constant is not None:
            return None
        out = np.zeros((3, 1))
        for c, axis in self.terms:
            if axis is not None:
                out[axis] += c
        out.flags.writeable = False  # shared by every jet; never scaled in place
        return out

    @cached_property
    def _powers(self) -> list:
        """The parts (a . h)^d, d = 0, 1, ..., built so far by powers."""
        return [_ONE]

    def powers(self, n: int) -> list:
        """The constant parts (a . h)^d, d <= n, of the powers of a
        non-constant node's jet less its value, (M_d, 1) each and read-only:
        each is the last times the gradient (_times), as the jet product of
        the powers would form it, built once per node and kept."""
        out = self._powers
        while len(out) <= n:
            part = _times(out[-1], len(out) - 1, self.gradient, 1)
            part.flags.writeable = False  # shared by every jet; never scaled in place
            out.append(part)
        return out

    def scaled(self, s) -> "Affine":
        return Affine(tuple((s * c, axis) for c, axis in self.terms))

    def jet(self, pts, n, keep=None, rank_one=()):
        if self.constant is not None:
            return [self.constant] + [None] * n
        value = None
        for c, axis in self.terms:
            term = np.float64(c) if axis is None else c * pts[None, :, axis]
            value = term if value is None else value + term
        return [value] + [self.gradient] * min(n, 1) + [None] * (n - 1)


@dataclass(frozen=True)
class Neg(Node):
    arg: Node

    def jet(self, pts, n, keep=None, rank_one=()):
        return [None if a is None else -a for a in self.arg.jet(pts, n, keep)]


@dataclass(frozen=True)
class Add(Node):
    left: Node
    right: Node

    def jet(self, pts, n, keep=None, rank_one=()):
        return list(map(_plus, self.left.jet(pts, n, keep), self.right.jet(pts, n, keep)))


@dataclass(frozen=True)
class Mul(Node):
    left: Node
    right: Node

    def jet(self, pts, n, keep=None, rank_one=()):
        return _mul(self.left.jet(pts, n), self.right.jet(pts, n), keep)


@dataclass(frozen=True)
class Div(Node):
    left: Node
    right: Node

    def jet(self, pts, n, keep=None, rank_one=()):
        u, v = self.left.jet(pts, n), self.right.jet(pts, n)
        coeff, count = _power_coeffs(v[0], -1, n)
        if all(a is None for a in u[1:]):  # a constant numerator scales 1/v
            return _compose(lambda d: u[0] * coeff(d), count, self.right, v, keep, rank_one)
        return _mul(u, _compose(coeff, count, self.right, v), keep)


@dataclass(frozen=True)
class Pow(Node):
    base: Node
    n: int

    def jet(self, pts, n, keep=None, rank_one=()):
        v = self.base.jet(pts, n)
        return _compose(*_power_coeffs(v[0], self.n, n), self.base, v, keep, rank_one)


@dataclass(frozen=True)
class Call(Node):
    name: str
    arg: Node

    def jet(self, pts, n, keep=None, rank_one=()):
        v = self.arg.jet(pts, n)
        coeff, count = _function_coeffs(self.name, v[0], n)
        return _compose(coeff, count, self.arg, v, keep, rank_one)


# The parser builds through these, so every affine subtree is one Affine.
# Negation is exact, so a folded difference equals the tree's bitwise; a
# constant factor or divisor is applied to each term (x/c as x * c^-1, the
# tree's own reciprocal).


def _negated(a: Node) -> Node:
    return Affine(tuple((-c, axis) for c, axis in a.terms)) if isinstance(a, Affine) else Neg(a)


def _sum(a: Node, b: Node) -> Node:
    if isinstance(a, Affine) and isinstance(b, Affine):
        return Affine(a.terms + b.terms)
    return Add(a, b)


def _product(a: Node, b: Node) -> Node:
    if isinstance(a, Affine) and isinstance(b, Affine):
        if a.constant is not None and b.constant is not None:
            return Affine(((a.constant * b.constant, None),))
        if b.constant is not None:
            return a.scaled(b.constant)
        if a.constant is not None:
            return b.scaled(a.constant)
    return Mul(a, b)


def _quotient(a: Node, b: Node) -> Node:
    if isinstance(a, Affine) and isinstance(b, Affine) and b.constant is not None:
        with np.errstate(all="ignore"):  # x/0 evaluates to x * inf, as unfolded
            inverse = 1.0 * b.constant ** -1
        return _product(a, Affine(((inverse, None),)))
    return Div(a, b)


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
                node = _sum(node, rhs if val == "+" else _negated(rhs))
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.factor()
                node = _product(node, rhs) if val == "*" else _quotient(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            inner = self.factor()
            return inner if val == "+" else _negated(inner)
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
            return Affine(((float(val), None),))
        if kind == "name":
            if val in _VARS:
                return Affine(((1.0, _VARS[val]),))
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
    """A ScalarField with exact partials by Taylor-mode evaluation; a ridge
    returns the orders a caller names in rank_one as interp.RankOne."""
    node = (
        parse_expression(text_or_node)
        if isinstance(text_or_node, str)
        else text_or_node
    )
    return ScalarField._of(node.partials_of, rank_one=True)
