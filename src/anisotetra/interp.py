"""Lagrange interpolation of degree k on a tetrahedron.

Interpolation happens on the unit right-corner reference element, pulled
back through the affine map x = x_0 + J xi with J = [x_1 - x_0, x_2 - x_0,
x_3 - x_0], under which the Lagrange nodes of Sigma^k correspond.  There it
is sum_alpha Delta^alpha f(0) prod_i C(k xi_i, alpha_i) (Gregory-Newton): the
base-0 rows of the lattice's forward-difference stencils give the
differences, one fixed matrix per k expands the binomials, and that dense
vector in xi is the interpolant.
pull_back returns the vertices (x_0 first) and J^{-T}, and rejects a
degenerate element.  Points map with xi = (x - x_0) J^{-T} and physical
partials follow by the chain rule, so a rotated flat element interpolates as
well as an axis-aligned one.  A call that measures one element several ways
(verify.error_ratio) tests its volume once and builds this frame once
(_frame), then hands the same arrays to interpolation (_interpolate), to
every sample set placed on the element and to the p = inf polish, so that
an interpolant meets its own frame by identity; interpolate, residual and
quad.seminorm_with_info are wrappers that build it themselves.  A frame
from outside (Interpolant, in_frame) passes one shape check.

Every field is one class, ScalarField, and returns its partials of several
orders at one point set from one evaluation, partials_of(orders, pts): one
Taylor jet for expressions, one product per order for polynomials, one call
per gamma for a per-gamma partial_fn.  partials(m, pts) is its one-order
case, a single partial is a row of that, and its values are its order 0,
the numbers its seminorms sample.  gamma! has one table, _factorials.
Every polynomial is one class, Polynomial3: a dense coefficient vector over
monomial_indices(degree) in a frame.  A physical polynomial's frame is the
identity, so its points are not mapped; an Interpolant's is (verts, J^{-T}).
Its partials of order m are one matrix product, the order-m derivative
matrix (times one chain-rule matrix in a frame) against the monomial table
_monomials at points mapped once; several orders share the points and one
table, whose leading rows are every smaller table.  _chain builds the
chain-rule matrices of every order in one loop, for the forms J^{-T} (x
partials from xi partials) or J^T (the reverse, in_frame).

Points come as an (N, 3) array or as Samples: a SampleSet, read-only
barycentric rows on the reference element, placed on an element as
x = bary @ verts.  Quadrature rule stacks and the p = inf lattice blocks are
cached sample sets.  At Samples on its own element a polynomial in a frame
takes xi = bary[:, 1:] exactly, maps nothing, and reads its table from the
set, which keeps the table of the highest degree asked and so shares it with
every element; every other field evaluates at x.

The residual u = v - I v has two parts.  Up to order k, when v is a
polynomial (physical, or held in any frame), u is one polynomial in the
interpolant's frame: v.in_frame(verts, J^{-T}), the Taylor coefficients of
v(x_0 + J xi) by the forward chain rule at x_0, less the interpolant's
coefficients; so at Samples each order is one product with the set's shared
table.  For any other field every partials_of returns new arrays that the
caller owns, and the interpolant's partials are subtracted into v's.  Above
order k the interpolant's partials vanish and u's are v's own, taken as v
takes them and never through the frame: there u is not small, and J^{-T} on
a flat element would cancel digits (on a sliver of flatness 1e-6 it
inflated |v|_{5,2} about 1e16-fold).  A caller that can reduce a rank-one
product names orders in partials_of's rank_one: an expression that is a
ridge g(a . x + b) returns each of those as a RankOne (a row over the
points, a column over the gammas and gamma!), whose array it never forms;
the residual passes the orders above k on to v, and every other field and
order stays an array.  quad is the one caller that asks.

Functions come as a Polynomial3 (an Interpolant is one), a ScalarField or a
plain callable; as_field is the one place that turns any of them into a
ScalarField that carries its polynomial degree or None, as a residual does.
A plain callable is values-only: interpolate and |.|_{0,p} take it, and a
partial of order >= 1 raises DerivativeUnavailable, as there is no exact
source of its derivatives.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import DerivativeUnavailable, InputError, InvalidDegree, NumericalError, integer, real
from .geom import TYPE1, Tetrahedron, volume
from .lattice import MAX_DEGREE, _multi_index, _unit_weights, forward_differences, sigma_k

MultiIndex = tuple[int, int, int]


def derivative_indices(m: int) -> list[MultiIndex]:
    """Multi-indices of total order m in a fixed lexicographic order."""
    return [
        (a, b, m - a - b)
        for a in range(m, -1, -1)
        for b in range(m - a, -1, -1)
    ]


@lru_cache(maxsize=16)
def _factorials(m: int) -> np.ndarray:
    """gamma! for every |gamma| = m in derivative_indices(m) order, as a
    read-only column: the package's one table of gamma!, for expressions'
    partials, Taylor coefficients (_taylor_plan) and multinomial weights."""
    out = np.array([math.prod(map(math.factorial, g)) for g in derivative_indices(m)], dtype=float)
    out.flags.writeable = False
    return out[:, None]


def monomial_indices(k: int) -> list[MultiIndex]:
    """Exponent triples of total degree <= k, graded lexicographic."""
    return [g for total in range(k + 1) for g in derivative_indices(total)]


@lru_cache(maxsize=None)
def _derivative_plan(degree: int, m: int):
    """Where every d^gamma, |gamma| = m, sends the monomials of degree <= degree
    (m <= degree): its row, the column in monomial_indices(degree - m), the
    source column in monomial_indices(degree) and the integer factor."""
    col = {g: j for j, g in enumerate(monomial_indices(degree - m))}
    entries = [
        (r, col[(a - g0, b - g1, c - g2)], s,
         math.perm(a, g0) * math.perm(b, g1) * math.perm(c, g2))
        for r, (g0, g1, g2) in enumerate(derivative_indices(m))
        for s, (a, b, c) in enumerate(monomial_indices(degree))
        if a >= g0 and b >= g1 and c >= g2
    ]
    return tuple(np.array(e) for e in zip(*entries))


def derivatives(coef: np.ndarray, degree: int, m: int) -> np.ndarray:
    """The coefficients of every d^gamma, |gamma| = m, of the polynomial whose
    coefficients over monomial_indices(degree) are coef: one row per gamma in
    derivative_indices(m) order, columns over monomial_indices(degree - m)."""
    # len(derivative_indices(m)) rows, len(monomial_indices(degree - m)) columns
    out = np.zeros((math.comb(m + 2, 2), math.comb(degree - m + 3, 3) if m <= degree else 0))
    if m <= degree:
        rows, cols, src, factor = _derivative_plan(degree, m)
        out[rows, cols] = coef[src] * factor
    return out


@lru_cache(maxsize=None)
def _product_plan(i: int, j: int):
    """Gather indices into homogeneous parts of degree i and j, and reduceat offsets,
    that multiply them into a part of degree i + j."""
    target = {g: r for r, g in enumerate(derivative_indices(i + j))}
    pairs = sorted(
        (target[(a[0] + b[0], a[1] + b[1], a[2] + b[2])], s, t)
        for s, a in enumerate(derivative_indices(i))
        for t, b in enumerate(derivative_indices(j))
    )
    rows, left, right = (np.array(c) for c in zip(*pairs))
    return left, right, np.flatnonzero(np.diff(rows, prepend=-1))


def _times(a, i: int, b, j: int):
    """The product of parts a (degree i) and b (degree j)."""
    if i == 0 or j == 0:
        return a * b
    left, right, starts = _product_plan(i, j)
    return np.add.reduceat(a[left] * b[right], starts, axis=0)


@lru_cache(maxsize=16)
def _chain_plan(m: int):
    """Where _chain's step to order m gathers its factors: for each term p of
    _times(form, 1, lower row, m - 1) and each |gamma| = m, the entry of the
    form of gamma's first nonzero axis j in the flattened forms, and that of
    row gamma - e_j of order m - 1 in the flattened, transposed matrix of
    order m - 1; and the reduceat offsets of the terms."""
    gammas, lower = derivative_indices(m), derivative_indices(m - 1)
    axes = np.array([next(i for i in range(3) if g[i]) for g in gammas])
    rows = np.array([lower.index(tuple(x - (i == j) for i, x in enumerate(g)))
                     for g, j in zip(gammas, axes)])
    left, right, starts = _product_plan(1, m - 1)
    return 3 * axes + left[:, None], right[:, None] * len(lower) + rows, starts


@lru_cache(maxsize=None)
def _exponents(degree: int) -> np.ndarray:
    """monomial_indices(degree) as a (3, M) array, one row per axis."""
    return np.array(monomial_indices(degree), dtype=int).reshape(-1, 3).T


def _monomials(pts: np.ndarray, degree: int) -> np.ndarray:
    """Row j is x^alpha_j at pts, alpha_j in monomial_indices(degree); no rows
    when degree < 0.

    Each monomial of degree d is one of degree d - 1 times its first axis:
    x times every monomial of degree d - 1, then y times those without x,
    then z times z^(d-1).  So a row costs one multiply and its value does not
    depend on degree.
    """
    table = np.empty((_exponents(degree).shape[1], pts.shape[0]))
    x, y, z = np.ascontiguousarray(pts.T)
    table[:1] = 1.0
    prev, start = 0, 1  # the first rows of degree d - 1 and of degree d
    for d in range(1, degree + 1):
        np.multiply(x, table[prev:start], out=table[start : 2 * start - prev])
        end = start + (d + 1) * (d + 2) // 2
        np.multiply(y, table[start - d : start], out=table[2 * start - prev : end - 1])
        np.multiply(z, table[start - 1], out=table[end - 1])
        prev, start = start, end
    return table


class SampleSet:
    """A fixed set of points on the reference element: read-only barycentric
    rows bary (N, 4), so that xi = bary[:, 1:] exactly and x = bary @ verts
    on the element with vertices verts (on(verts)).  Quadrature rule stacks
    and the blocks of the p = inf lattice are cached sample sets, which lets
    every polynomial held in a frame share one monomial table at them."""

    __slots__ = ("bary", "xi", "_table")

    def __init__(self, bary):
        bary = np.asarray(bary, dtype=float)
        if bary.flags.writeable:  # a read-only table is shared, not copied
            bary = bary.copy()
            bary.flags.writeable = False
        self.bary, self.xi = bary, bary[:, 1:]  # xi is a read-only view
        self._table = None

    def monomials(self, degree: int) -> np.ndarray:
        """_monomials(xi, degree), read-only.  The set keeps the table of the
        highest degree asked so far, whose leading rows are every lower
        degree's table (graded order); a degree-8 table on the whole p = inf
        lattice is 16 MB, and it is freed with the set."""
        rows = math.comb(degree + 3, 3) if degree >= 0 else 0
        if self._table is None or len(self._table) < rows:
            self._table = _monomials(self.xi, degree)
            self._table.flags.writeable = False
        return self._table[:rows]

    def on(self, verts: np.ndarray) -> "Samples":
        return Samples(self, verts)


class Samples:
    """A SampleSet placed on the element with vertices verts (4, 3): its
    points x = bary @ verts, mapped once.  Every field's partials_of takes
    it in place of raw points; only a polynomial in the frame of the same
    vertices reads the set's xi instead of x."""

    __slots__ = ("set", "verts", "x")

    def __init__(self, sample_set: SampleSet, verts: np.ndarray):
        self.set, self.verts, self.x = sample_set, verts, sample_set.bary @ verts


def _points(pts) -> np.ndarray:
    """The (N, 3) float array of raw points or of Samples."""
    return pts.x if isinstance(pts, Samples) else np.atleast_2d(np.asarray(pts, dtype=float))


class Polynomial3:
    """A polynomial in three variables: a dense coefficient vector in a frame.

    coef holds the coefficients over monomial_indices(degree) in coordinates
    xi of the frame: xi = x for a physical polynomial, xi = (x - x_0) J^{-T}
    for an Interpolant, whose frame (verts, J^{-T}) is pull_back's; at Samples
    on the same vertices xi is the sample set's own bary[:, 1:], and the
    monomials there come from a cache.  Neither may change after construction.
    Polynomial3({(a, b, c): coefficient, ...}) builds a physical polynomial
    whose degree is the highest with a nonzero coefficient (0 when there is
    none); an exponent key that is not three integers >= 0, or a coefficient
    that is not a real number or is NaN, raises InputError.

    Partials of order m are one matrix product: derivatives(coef, degree, m),
    times one chain-rule matrix in a frame, against the monomials of degree
    <= degree - m at xi.  A single partial is a row of it by definition.
    """

    __slots__ = ("coef", "degree", "_frame", "_by_order", "_chains")

    def __init__(self, coeffs: Mapping[MultiIndex, float] | None = None):
        clean: dict[MultiIndex, float] = {}
        for key, val in (coeffs or {}).items():
            key = _multi_index(key)
            val = real(val, "the coefficient of %r" % (key,))
            if val != 0.0:
                clean[key] = val
        degree = max(map(sum, clean), default=0)
        self._hold(np.array([clean.get(g, 0.0) for g in monomial_indices(degree)]), degree, None)

    @classmethod
    def dense(cls, coef: np.ndarray, degree: int) -> "Polynomial3":
        """The physical polynomial with coefficients coef over monomial_indices(degree)."""
        return cls._held(coef, degree, None)

    @classmethod
    def _held(cls, coef: np.ndarray, degree: int, frame) -> "Polynomial3":
        """The polynomial with coefficients coef over monomial_indices(degree)
        in frame, None or pull_back's (verts, J^{-T})."""
        out = cls.__new__(cls)
        out._hold(coef, degree, frame)
        return out

    def _hold(self, coef: np.ndarray, degree: int, frame):
        self.coef, self.degree, self._frame = coef, degree, frame
        self._by_order: dict[int, np.ndarray] = {}  # filled by _matrix
        self._chains: list[np.ndarray] | None = None  # _chain's list, extended by _matrix

    def evaluate(self, pts) -> np.ndarray | float:
        out = self.partials(0, pts)[0]
        return float(out[0]) if np.ndim(pts) == 1 else out

    __call__ = evaluate

    def partial(self, gamma: MultiIndex, pts) -> np.ndarray:
        """d^gamma at pts, a row of partials(|gamma|, pts)."""
        gamma = _multi_index(gamma)
        m = sum(gamma)
        return self.partials(m, pts)[derivative_indices(m).index(gamma)]

    def partials(self, m: int, pts) -> np.ndarray:
        """Every d^gamma with |gamma| = m at pts, rows in derivative_indices(m)
        order; InputError unless m is an integer >= 0.

        Numpy warnings are silenced, as an overflow shows as a value that is
        not finite and callers check finiteness.
        """
        m = integer(m, "a derivative order")
        with np.errstate(all="ignore"):
            return self._matrix(m) @ self._table(pts, m)

    def partials_of(self, orders, pts) -> list[np.ndarray]:
        """partials(m, pts) for each m in orders, from the points mapped once
        and one monomial table: graded order makes the table of degree
        degree - m the leading rows of every larger one, so each order is
        one product with a slice of it and equals partials(m, pts) bitwise.
        A product with one column (m = degree, against the constant row) is a
        broadcast multiply: the same one rounding per entry, without a matrix
        product's set-up."""
        orders = _checked_orders(orders)
        with np.errstate(all="ignore"):
            table = self._table(pts, min(orders))
            return [d * table[:1] if d.shape[1] == 1 else d @ table[: d.shape[1]]
                    for d in map(self._matrix, orders)]

    def in_frame(self, verts, inverse_t) -> np.ndarray:
        """The coefficients over monomial_indices(degree) of xi -> v(x_0 + J xi)
        in the frame (verts, J^{-T}) that pull_back returns, x_0 = verts[0].

        They are its Taylor coefficients at xi = 0, from the forward chain
        rule at x_0: d/dxi_i = (x_i - x_0) . grad_x, so the chain-rule
        matrices are _chain's for the rows of J^T in place of J^{-T}, and
        every term of a coefficient of order m carries the same m columns
        of J: a flat element cancels nothing.  The partials of every order
        at x_0 come from one gather.  A polynomial held in another frame is
        taken through it (its own xi' is affine in xi); one held in this
        frame returns its own coef, not a copy.  Numpy warnings are
        silenced, as an overflow shows as a coefficient that is not finite
        and callers check finiteness.  A frame that is not a (4, 3) and a
        (3, 3) array of reals raises InputError, as an Interpolant's does.
        """
        verts, inverse_t = _checked_frame(verts, inverse_t)
        if self._frame is not None and all(
            mine is theirs or np.array_equal(mine, theirs)
            for mine, theirs in zip(self._frame, (verts, inverse_t))
        ):
            return self.coef
        edges, at = verts[1:] - verts[0], verts[0]  # the rows of J^T, and x_0
        if self._frame is not None:  # in the coordinates xi' of the own frame
            edges, at = edges @ self._frame[1], (at - self._frame[0][0]) @ self._frame[1]
        target, source, power, factor, scale = _taylor_plan(self.degree)
        with np.errstate(all="ignore"):
            # Entry 3 e + i of the powers is at_i^e; power picks one per axis.
            x, y, z = (at ** np.arange(self.degree + 1)[:, None]).ravel()[power]
            at_x0 = np.bincount(target, self.coef[source] * factor * (x * y * z),
                                minlength=len(scale))
            out = np.empty(len(scale))
            for m, c in enumerate(_chain(edges, self.degree)):
                order = slice(math.comb(m + 2, 3), math.comb(m + 3, 3))  # |beta| = m
                np.dot(c, at_x0[order], out=out[order])
            return out * scale

    def _matrix(self, m: int) -> np.ndarray:
        """The xi-monomial coefficients of the partials of order m, built on
        first use; p = inf asks for one order once per block.

        In a frame they are C @ derivatives, C with d^gamma_x = sum_beta
        C[gamma, beta] d^beta_xi (|gamma| = |beta| = m): d/dx_j = sum_i
        J^{-1}[i, j] d/dxi_i, so C is _chain's order m for the forms
        J^{-T}[j].  The polynomial keeps _chain's list and extends it only
        when a higher order is asked, so each order's C is built once.
        """
        if m not in self._by_order:
            d = derivatives(self.coef, self.degree, m)  # no columns above the degree
            if self._frame is not None and m <= self.degree:
                self._chains = _chain(self._frame[1], m, self._chains)
                d = self._chains[m] @ d
            self._by_order[m] = d
        return self._by_order[m]

    def _table(self, pts, m: int) -> np.ndarray:
        """The monomials of degree <= degree - m at pts mapped to the frame,
        or the cached table at the sample set of Samples on the frame's own
        vertices (read-only)."""
        if isinstance(pts, Samples) and self._frame is not None and (
            pts.verts is self._frame[0] or np.array_equal(pts.verts, self._frame[0])
        ):
            return pts.set.monomials(self.degree - m)
        p = _points(pts)
        xi = p if self._frame is None else (p - self._frame[0][0]) @ self._frame[1]
        return _monomials(xi, self.degree - m)


def _chain(forms: np.ndarray, top: int, out: list | None = None) -> list[np.ndarray]:
    """For m = 0 .. top, the matrix whose row gamma (|gamma| = m) holds the
    coefficients of the product of linear forms prod_j (forms[j] . d)^gamma_j
    over the d^beta, |beta| = m: the product (_times) of the form of gamma's
    first axis j with row gamma - e_j of order m - 1, for every gamma at
    once from one gather of each factor (_chain_plan) and one reduceat.
    A list out that an earlier call returned for the same forms is extended
    in place from its last order, with the same bits as a list built anew."""
    flat = np.ravel(forms)
    out = [np.ones((1, 1))] if out is None else out
    lower = out[-1].T  # order m - 1, transposed
    for d in range(len(out), top + 1):
        form, row, starts = _chain_plan(d)
        lower = np.add.reduceat(flat[form] * lower.ravel()[row], starts, axis=0)
        # C order at order 1 and F order above, as _times's products were
        # laid out: a matrix product's bits depend on its operands' layout.
        out.append(lower.T.copy() if d == 1 else lower.T)
    return out


@lru_cache(maxsize=None)
def _taylor_plan(degree: int):
    """How the partials of every order <= degree at a point a come from the
    coefficients and the monomials at a, both over monomial_indices(degree):
    d^gamma (sum_s coef_s xi^s)(a) = sum_{s >= gamma} coef_s (s!/(s - gamma)!)
    a^(s - gamma), one term per (gamma, s): its target gamma, source s,
    the entries 3 e_i + i of a^(s - gamma)'s three powers in the table of
    a_i^e (one row per axis), and its factor; and 1/gamma!, which turns
    partials into Taylor coefficients."""
    index = {g: j for j, g in enumerate(monomial_indices(degree))}
    entries = [
        (index[g], s, [3 * (a - g[0]), 3 * (b - g[1]) + 1, 3 * (c - g[2]) + 2],
         math.perm(a, g[0]) * math.perm(b, g[1]) * math.perm(c, g[2]))
        for s, (a, b, c) in enumerate(monomial_indices(degree))
        for g in index
        if a >= g[0] and b >= g[1] and c >= g[2]
    ]
    target, source, power, factor = (np.array(e) for e in zip(*entries))
    scale = np.concatenate([1.0 / _factorials(m)[:, 0] for m in range(degree + 1)])
    return target, source, power.T, factor.astype(float), scale


def _checked_orders(orders):
    """orders, after InputError unless it is a tuple, list or range of one or
    more integers >= 0 (an int passes at no call: partials_of runs per block)."""
    if not isinstance(orders, (tuple, list, range)) or len(orders) == 0:
        raise InputError("derivative orders are a sequence of one or more integers >= 0, "
                         "got %r" % (orders,))
    for m in orders:
        if type(m) is not int or m < 0:
            integer(m, "a derivative order")
    return orders


def _one_per_point(values, n: int) -> np.ndarray:
    """values as a float (n,) array; InputError when there are not n."""
    values = np.asarray(values, dtype=float)
    if values.size != n:
        raise InputError("field returned %d values for %d points" % (values.size, n))
    return values.reshape(n)


class RankOne(NamedTuple):
    """The partials of one order m as a rank-one product: row (N,) over the
    points, column (n_gamma,) and scale gamma! (n_gamma,) over
    derivative_indices(m), standing for the array (column[:, None] * row)
    * scale[:, None], the arithmetic of an expression's own partials.  A field
    returns one only for an order its caller named in partials_of's rank_one."""

    row: np.ndarray
    column: np.ndarray
    scale: np.ndarray


class ScalarField:
    """A scalar function with its partial derivatives up to a declared order.

    partials_of(orders, pts) is the one primitive: for each m in orders, an
    (n_gamma, N) array with rows in derivative_indices(m) order, a new array
    that the caller owns and may overwrite.  pts is an (N, 3) array or
    Samples, whose points x a field without a frame evaluates.  partials(m,
    pts) is its one-order case, a single partial is one row of that, and
    the values are order 0; bad orders or multi-indices raise InputError.
    A caller that can reduce a RankOne names orders in rank_one; an
    expression whose root is a ridge g(a . x + b) returns those orders as
    RankOne pairs, and so does a residual for its orders above k, while every
    other field and order is an array.  Asking for an order above order
    (None: every order) raises DerivativeUnavailable.  degree is the
    polynomial degree that as_field or residual knows, else None, and
    polynomial the Polynomial3 that as_field wrapped, else None: a residual
    of it holds its orders <= k in the interpolant's frame.

    ScalarField(fn, partial_fn, order) adapts a plain callable fn for the
    values and a per-gamma partial_fn(gamma, pts): one call per gamma of
    order >= 1, and order 0 is fn; order is None (every order) or an
    integer >= 0, else InputError.  Without a partial_fn the field is
    values-only, of order 0: interpolate and |.|_{0,p} accept it, and an
    exact source of partials is field_from_expression or Polynomial3.  The
    partials are taken as exact: scale and exact_partials are constants, and
    the keywords accept only them.
    """

    scale = 1.0
    exact_partials = True
    _rank_one = False  # does _partials take the rank_one keyword?
    polynomial = None  # the Polynomial3 that as_field wrapped, if any

    def __init__(
        self,
        fn: Callable[[np.ndarray], np.ndarray],
        partial_fn: Callable[[MultiIndex, np.ndarray], np.ndarray] | None = None,
        order: int | None = None,
        scale: float = 1.0,
        exact: bool = True,
    ):
        if scale != 1.0 or exact is not True:
            raise InputError("a field's partials are exact and unscaled; got scale=%r, exact=%r"
                             % (scale, exact))
        if order is not None:
            order = integer(order, "a field's order")
        if partial_fn is None and order not in (None, 0):
            raise InputError("a field without partial_fn has values only, got order %r" % (order,))

        def partials_of(orders, pts):
            pts = _points(pts)
            return [np.stack([
                _one_per_point(fn(pts) if m == 0 else partial_fn(g, pts), len(pts))
                for g in derivative_indices(m)
            ]) for m in orders]

        self._partials = partials_of
        self.order, self.degree = (0 if partial_fn is None else order), None

    @classmethod
    def _of(cls, partials_fn, order: int | None = None, degree: int | None = None,
            rank_one: bool = False, polynomial: "Polynomial3 | None" = None) -> "ScalarField":
        """The field whose partials_of is partials_fn(orders, pts), which
        takes the rank_one keyword when rank_one is True: how expressions,
        polynomials and residuals are built."""
        out = cls.__new__(cls)
        out._partials, out.order, out.degree = partials_fn, order, degree
        out._rank_one, out.polynomial = rank_one, polynomial
        return out

    def __call__(self, pts) -> np.ndarray:
        """The values at pts (N, 3), an (N,) array: order 0 of partials_of."""
        return self.partials_of((0,), pts)[0][0]

    partial = Polynomial3.partial  # a row of partials(|gamma|, pts)

    def partials(self, m: int, pts) -> np.ndarray:
        """Every d^gamma with |gamma| = m at pts, rows in derivative_indices(m) order."""
        return self.partials_of((m,), pts)[0]

    def partials_of(self, orders, pts, rank_one=()) -> list:
        """partials(m, pts) for each m in orders, from one call; an order in
        rank_one may come back as a RankOne instead of its array."""
        orders = _checked_orders(orders)
        if self.order is not None and max(orders) > self.order:
            raise DerivativeUnavailable(
                "field declares order %d, requested |gamma| = %d; field_from_expression "
                "and Polynomial3 give exact partials of every order" % (self.order, max(orders))
            )
        if rank_one and self._rank_one:
            return self._partials(orders, pts, rank_one=tuple(rank_one))
        return self._partials(orders, pts)


class Interpolant(Polynomial3):
    """The Lagrange interpolant I_T^k v: a Polynomial3 of degree k held on the
    reference element, in the frame (verts, J^{-T}) that pull_back returns
    for x = verts[0] + J xi.  coef is its dense vector in xi."""

    __slots__ = ()

    def __init__(self, coef: np.ndarray, k: int, verts, inverse_t):
        self._hold(coef, k, _checked_frame(verts, inverse_t))

    @property
    def k(self) -> int:
        return self.degree


def as_field(v) -> ScalarField:
    """v as a ScalarField, whose degree is v's polynomial degree or None.

    v may be a Polynomial3 or Interpolant (its degree, exact partials of
    every order), a ScalarField (returned as it is) or a plain callable on
    (N, 3) arrays, which is values-only: its partials of order >= 1 raise
    DerivativeUnavailable.
    """
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, Polynomial3):
        return ScalarField._of(v.partials_of, degree=v.degree, polynomial=v)
    return ScalarField(v)


def _checked_frame(verts, inverse_t) -> tuple[np.ndarray, np.ndarray]:
    """verts and inverse_t as float arrays, the frame (verts, J^{-T}) that
    pull_back returns; InputError unless they are (4, 3) and (3, 3) arrays
    of reals.  Arrays of floats are returned as they are, not copied."""
    try:
        verts, inverse_t = np.asarray(verts, dtype=float), np.asarray(inverse_t, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError("a frame is pull_back's vertices (4, 3) and J^{-T} (3, 3) as arrays "
                         "of reals: %s" % exc) from None
    if verts.shape != (4, 3) or inverse_t.shape != (3, 3):
        raise InputError("a frame is pull_back's vertices (4, 3) and J^{-T} (3, 3), got "
                         "shapes %s and %s" % (verts.shape, inverse_t.shape))
    return verts, inverse_t


def _check_degree(k) -> int:
    return integer(k, "interpolation degree", 1, MAX_DEGREE, InvalidDegree)


@lru_cache(maxsize=MAX_DEGREE)
def _newton(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(newton, diff) with coef = newton @ (diff @ values), the Gregory-Newton
    form of the interpolant of the values at the nodes of sigma_k(k).

    Row alpha of diff (monomial_indices(k) order) is the base-0 row of the
    Type 1 stencil lattice.forward_differences(k, alpha), so diff @ values
    are the forward differences Delta^alpha f(0).  Column alpha of newton is
    prod_i C(k xi_i, alpha_i) in monomials, gathered from binom[d, a], the x^d
    coefficient of C(kx, a): a signed Stirling number times k^d / a!.
    """
    diff = np.array([forward_differences(k, alpha, TYPE1)[1][0] for alpha in monomial_indices(k)])
    binom = np.zeros((k + 1, k + 1))
    for a in range(k + 1):
        falling = np.polynomial.polynomial.polyfromroots(range(a))
        binom[: a + 1, a] = falling * float(k) ** np.arange(a + 1) / math.factorial(a)
    newton = math.prod(binom[e[:, None], e] for e in _exponents(k))
    newton.flags.writeable = diff.flags.writeable = False
    return newton, diff


def pull_back(t: Tetrahedron) -> tuple[np.ndarray, np.ndarray]:
    """The vertices (4, 3) and J^{-T} of x = verts[0] + J xi;
    DegenerateTetrahedron if flat."""
    volume(t)
    return _frame(t.as_array())


def _frame(verts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pull_back's (verts, J^{-T}) of vertices whose element has passed the
    volume test: one inversion, and the same arrays for every use in a call."""
    jac = (verts[1:] - verts[0]).T
    return verts, np.ascontiguousarray(np.linalg.inv(jac).T)


def interpolate(v, t: Tetrahedron, k: int) -> Interpolant:
    """The degree-k Lagrange interpolant of v on t.

    v is anything as_field accepts; its nodal values give forward differences
    and those the coefficients (_newton).  Reproduces any q in P_k up to
    roundoff.  A nodal value of v that is not finite raises NumericalError.
    A wrapper: it checks k, tests the volume and builds t's frame
    (pull_back), which verify.error_ratio builds once per call itself.
    """
    k = _check_degree(k)
    return _interpolate(as_field(v), pull_back(t), k)[1]


def _interpolate(v: ScalarField, frame, k: int) -> tuple[np.ndarray, Interpolant]:
    """v's values at the nodes of degree k on the element whose frame is
    pull_back's (verts, J^{-T}), and its interpolant, held in that frame
    (the same arrays); the caller has checked k."""
    nodes = _unit_weights(k) @ frame[0]
    values = v(nodes)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            "v is not finite (%r) at interpolation node %s, x = %s"
            % (float(values[i]), sigma_k(k)[i], nodes[i].tolist())
        )
    newton, diff = _newton(k)
    return values, Interpolant._held(newton @ (diff @ values), k, frame)


def residual(v, t: Tetrahedron, k: int) -> ScalarField:
    """The interpolation residual u = v - I_T^k v as a ScalarField.

    Partials combine v's partials with the interpolant's polynomial partials,
    up to v's declared order (0 for a plain callable, which so has values
    only); u vanishes at every node.  When v is a polynomial, so is u, of
    degree max(deg v, k), held in the interpolant's frame up to order k
    (_residual).
    """
    v = as_field(v)
    return _residual(v, interpolate(v, t, k))


def _residual(v: ScalarField, ip: Interpolant) -> ScalarField:
    """v - ip, whose partials of several orders take v's in one call.  Above
    order ip.k the interpolant's partials vanish, so there u's partials are
    v's: nothing is subtracted, and an order of rank_one there is passed on
    to v, which may return it as a RankOne.

    Up to order ip.k, when v is a polynomial, u is one polynomial in the
    interpolant's frame: v.in_frame less ip's coefficients, whose partials
    at Samples on the element are one product with the set's table each.
    Otherwise the interpolant's partials are subtracted into v's arrays,
    which partials_of hands to its caller."""
    near = None if v.polynomial is None else _in_frame_less(v.polynomial, ip)

    def partials_of(orders, pts, rank_one=()):
        low = [m for m in orders if m <= ip.k]
        rank_one = [m for m in rank_one if m > ip.k]
        if near is not None:
            high = [m for m in orders if m > ip.k]
            mine = iter(near.partials_of(low, pts) if low else ())
            theirs = iter(v.partials_of(high, pts, rank_one=rank_one) if high else ())
            return [next(mine) if m <= ip.k else next(theirs) for m in orders]
        below = iter(ip.partials_of(low, pts) if low else ())
        out = v.partials_of(orders, pts, rank_one=rank_one)
        with np.errstate(all="ignore"):  # callers check finiteness
            for m, a in zip(orders, out):
                if m <= ip.k:
                    np.subtract(a, next(below), out=a)
        return out

    return ScalarField._of(partials_of, v.order,
                           None if v.degree is None else max(v.degree, ip.degree), rank_one=True)


def _in_frame_less(v: Polynomial3, ip: Interpolant) -> Polynomial3:
    """v - ip as one polynomial in ip's frame, of degree max(v.degree, ip.k)."""
    degree = max(v.degree, ip.k)
    coef = np.zeros(math.comb(degree + 3, 3))
    coef[: len(v.coef)] = v.in_frame(*ip._frame)
    with np.errstate(all="ignore"):  # callers check finiteness
        coef[: len(ip.coef)] -= ip.coef
    return Polynomial3._held(coef, degree, ip._frame)

