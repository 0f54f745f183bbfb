"""Lagrange interpolation of degree k on a tetrahedron.

Interpolation happens on the unit right-corner reference element, pulled
back through the affine map x = x_0 + J xi with J = [x_1 - x_0, x_2 - x_0,
x_3 - x_0], under which the Lagrange nodes of Sigma^k correspond.  There it
is sum_alpha Delta^alpha f(0) prod_i C(k xi_i, alpha_i) (Gregory-Newton): the
lattice's quotient coefficients give the forward differences, one fixed matrix
per k expands the binomials, and that dense vector in xi is the interpolant.
pull_back returns x_0 and J^{-T} and rejects a degenerate element.
Points map with xi = (x - x_0) J^{-T} and physical partials follow by the
chain rule, so a rotated flat element interpolates as well as an
axis-aligned one.

Every field returns its exact partials of one order in one pass, partials(m,
pts), by Taylor-mode evaluation for expressions.  A Polynomial3 and an
interpolant share derivatives (dense coefficients to the order-m derivative
matrix) and one monomial table, _monomials, built by one multiply per
monomial.  They differ in how they sum it.  A Polynomial3's row gamma must
equal its partial polynomial d^gamma evaluated alone, bitwise, and the rows
of a BLAS product need not equal one-row products; so _contract adds its
monomials one at a time, in order.  An interpolant's single partial is by
definition a row of its partials, so those are one matrix product: the
order-m matrix (times one chain-rule matrix) against the table at points
mapped once to xi.

Functions come as a Polynomial3, an Interpolant, a ScalarField or a plain
callable; as_field is the one place that turns any of them into a
ScalarField that carries its polynomial degree or None, as a residual does.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import DerivativeUnavailable, InputError, InvalidDegree, NumericalError
from .geom import Tetrahedron, volume
from .lattice import quotient_coefficients, sigma_k, unit_weights

MAX_DEGREE = 8

MultiIndex = tuple[int, int, int]


def _is_count(n) -> bool:
    """Is n an integer >= 0?  Any numbers.Integral counts except bool."""
    return (type(n) is int or isinstance(n, numbers.Integral) and not isinstance(n, bool)) and n >= 0


def derivative_indices(m: int) -> list[MultiIndex]:
    """Multi-indices of total order m in a fixed lexicographic order."""
    return [
        (a, b, m - a - b)
        for a in range(m, -1, -1)
        for b in range(m - a, -1, -1)
    ]


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
    out = np.zeros((len(derivative_indices(m)), len(monomial_indices(degree - m))))
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
def _first_axes(m: int):
    """For each |gamma| = m, its first nonzero axis j and the row of
    gamma - e_j in derivative_indices(m - 1)."""
    gammas, lower = derivative_indices(m), derivative_indices(m - 1)
    axes = [next(i for i in range(3) if g[i]) for g in gammas]
    rows = [lower.index(tuple(x - (i == j) for i, x in enumerate(g))) for g, j in zip(gammas, axes)]
    return np.array(axes), np.array(rows)


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


def _contract(degree: int, coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Row i of sum_j coeffs[i, j] x^alpha_j at pts, alpha_j in monomial_indices(degree).

    The monomials are added one at a time in their order and never through a
    matrix product, whose rows are not bitwise equal to one-row products, so
    each row is the value its polynomial alone would give.  A zero column
    adds nothing.
    """
    table = _monomials(pts, degree)
    out = np.zeros((coeffs.shape[0], pts.shape[0]))
    for j in np.flatnonzero(coeffs.any(axis=0)):
        out += coeffs[:, j, None] * table[j]
    return out


class Polynomial3:
    """A polynomial in three variables as a sparse monomial-coefficient map.

    Supports exact partial differentiation, exact integration over a
    tetrahedron, affine substitution, arithmetic, and vectorized evaluation.
    Values and partials come from _contract of the coefficient matrix of
    each order, cached on first use; the degree is stored at construction,
    so coeffs must not change after it.  A key that is not three integers
    >= 0 raises InputError.
    """

    __slots__ = ("coeffs", "degree", "_by_order")

    def __init__(self, coeffs: Mapping[MultiIndex, float] | None = None):
        clean: dict[MultiIndex, float] = {}
        if coeffs:
            for key, val in coeffs.items():
                if not (isinstance(key, tuple) and len(key) == 3 and all(map(_is_count, key))):
                    raise InputError(
                        "monomial exponents must be three integers >= 0, got %r" % (key,)
                    )
                a, b, c = key
                v = float(val)
                if v != 0.0:
                    clean[(int(a), int(b), int(c))] = v
        self._set(clean)

    @classmethod
    def _built(cls, coeffs: dict[MultiIndex, float]) -> "Polynomial3":
        """A polynomial from keys that are already triples of Python ints >= 0
        and Python float values, as this class's arithmetic makes them: the
        keys are not checked again, zero values are dropped."""
        out = cls.__new__(cls)
        out._set({key: v for key, v in coeffs.items() if v != 0.0})
        return out

    def _set(self, clean: dict[MultiIndex, float]):
        self.coeffs = clean
        self.degree = max(map(sum, clean), default=0)
        self._by_order: dict[int, np.ndarray] = {}

    @classmethod
    def constant(cls, c: float) -> "Polynomial3":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, axis: int) -> "Polynomial3":
        key = [0, 0, 0]
        key[axis] = 1
        return cls({tuple(key): 1.0})

    def evaluate(self, pts) -> np.ndarray | float:
        single = np.ndim(pts) == 1
        out = self.partials(0, pts)[0]
        return float(out[0]) if single else out

    __call__ = evaluate

    def partials(self, m: int, pts) -> np.ndarray:
        """Every d^gamma with |gamma| = m at pts, rows in derivative_indices(m) order.

        One _contract of the order-m coefficient matrix, so row gamma equals
        partial(gamma).evaluate(pts) bitwise.
        """
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        return _contract(self.degree - m, self._derivatives(m), p)

    def _derivatives(self, m: int) -> np.ndarray:
        """derivatives of the dense coefficient vector; built on first use."""
        if m not in self._by_order:
            dense = np.array([self.coeffs.get(g, 0.0) for g in monomial_indices(self.degree)])
            self._by_order[m] = derivatives(dense, self.degree, m)
        return self._by_order[m]

    def partial(self, gamma: MultiIndex) -> "Polynomial3":
        """Exact partial derivative d^gamma: one row of _derivatives."""
        m = sum(gamma)
        row = self._derivatives(m)[derivative_indices(m).index(tuple(gamma))]
        return Polynomial3._built(dict(zip(monomial_indices(self.degree - m), row.tolist())))

    def compose_affine(self, B, b) -> "Polynomial3":
        """The polynomial x -> p(B @ x + b), expanded exactly."""
        B = np.asarray(B, dtype=float).tolist()
        b = np.asarray(b, dtype=float).tolist()
        lin = [
            Polynomial3._built(
                {
                    (1, 0, 0): B[i][0],
                    (0, 1, 0): B[i][1],
                    (0, 0, 1): B[i][2],
                    (0, 0, 0): b[i],
                }
            )
            for i in range(3)
        ]
        powers: list[list[Polynomial3]] = []
        deg = self.degree
        for i in range(3):
            row = [Polynomial3.constant(1.0)]
            for _ in range(deg):
                row.append(row[-1] * lin[i])
            powers.append(row)
        total = Polynomial3()
        for (a, bb, c), coef in self.coeffs.items():
            total = total + coef * (powers[0][a] * powers[1][bb] * powers[2][c])
        return total

    def integrate(self, t: Tetrahedron) -> float:
        """Exact integral over a tetrahedron via the affine map to the
        unit right-corner reference (monomial integrals are factorials)."""
        verts = t.as_array()
        m = (verts[1:] - verts[0]).T
        det = abs(float(np.linalg.det(m)))
        mapped = self.compose_affine(m, verts[0])
        total = 0.0
        for (a, b, c), coef in mapped.coeffs.items():
            total += coef * (
                math.factorial(a)
                * math.factorial(b)
                * math.factorial(c)
                / math.factorial(a + b + c + 3)
            )
        return det * total

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial3.constant(float(other))
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, 0.0) + val
        return Polynomial3._built(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial3._built({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial3.constant(float(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial3._built({k: v * float(other) for k, v in self.coeffs.items()})
        out: dict[MultiIndex, float] = {}
        for (a1, b1, c1), v1 in self.coeffs.items():
            for (a2, b2, c2), v2 in other.coeffs.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, 0.0) + v1 * v2
        return Polynomial3._built(out)

    __rmul__ = __mul__

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return "Polynomial3(%r)" % (dict(terms),)


def _one_per_point(values, n: int) -> np.ndarray:
    """values as a float (n,) array; InputError when there are not n."""
    values = np.asarray(values, dtype=float)
    if values.size != n:
        raise InputError("field returned %d values for %d points" % (values.size, n))
    return values.reshape(n)


class ScalarField:
    """A scalar function with partial derivatives up to a declared order.

    When analytic partials are not supplied, central finite differences with
    adaptive step eps^(1/(|gamma|+2)) * scale are used; exact_partials then
    reports False so downstream reports can flag the approximation.  degree
    is the polynomial degree that as_field or residual knows, else None.
    """

    degree: int | None = None

    def __init__(
        self,
        eval_fn: Callable[[np.ndarray], np.ndarray],
        partial_fn: Callable[[MultiIndex, np.ndarray], np.ndarray] | None = None,
        order: int | None = None,
        scale: float = 1.0,
        exact: bool | None = None,
    ):
        self._eval = eval_fn
        self._partial = partial_fn
        self.order = order
        self.scale = scale
        self._exact = (partial_fn is not None) if exact is None else exact

    @property
    def exact_partials(self) -> bool:
        return self._exact

    def __call__(self, pts) -> np.ndarray:
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        return _one_per_point(self._eval(p), p.shape[0])

    def _points(self, m: int, pts) -> np.ndarray:
        """pts as an (N, 3) array once order m is known to be available."""
        if self.order is not None and m > self.order:
            raise DerivativeUnavailable(
                "field declares order %d, requested |gamma| = %d" % (self.order, m)
            )
        return np.atleast_2d(np.asarray(pts, dtype=float))

    def partial(self, gamma: MultiIndex, pts) -> np.ndarray:
        p = self._points(sum(gamma), pts)
        if sum(gamma) == 0:
            return self(p)
        if self._partial is not None:
            return _one_per_point(self._partial(tuple(gamma), p), p.shape[0])
        return self._fd_partial(tuple(gamma), p)

    def partials(self, m: int, pts) -> np.ndarray:
        """Every d^gamma with |gamma| = m at pts: an (n_gamma, N) array with
        rows in derivative_indices(m) order, here one partial at a time."""
        p = self._points(m, pts)
        return np.stack([self.partial(g, p) for g in derivative_indices(m)])

    def _fd_partial(self, gamma: MultiIndex, pts: np.ndarray) -> np.ndarray:
        total = sum(gamma)
        h = float(np.finfo(float).eps) ** (1.0 / (total + 2)) * self.scale

        def rec(g: MultiIndex, p: np.ndarray) -> np.ndarray:
            for ax in range(3):
                if g[ax] > 0:
                    lower = list(g)
                    lower[ax] -= 1
                    shift = np.zeros(3)
                    shift[ax] = h
                    return (rec(tuple(lower), p + shift) - rec(tuple(lower), p - shift)) / (
                        2.0 * h
                    )
            return self(p)

        return rec(gamma, pts)


class _OnePass(ScalarField):
    """A field whose partials of one order come from one call,
    partials_fn(m, pts) -> (n_gamma, N); a single partial is one row."""

    def __init__(self, eval_fn, partials_fn, order, scale, exact, degree=None):
        super().__init__(eval_fn, order=order, scale=scale, exact=exact)
        self._partials, self.degree = partials_fn, degree

    def partial(self, gamma: MultiIndex, pts) -> np.ndarray:
        m = sum(gamma)
        return self.partials(m, pts)[derivative_indices(m).index(tuple(gamma))]

    def partials(self, m: int, pts) -> np.ndarray:
        return self._partials(m, self._points(m, pts))


class Interpolant:
    """The Lagrange interpolant I_T^k v, held on the reference element.

    coef is the interpolant in the reference coordinates xi of the affine
    map x = origin + J xi onto the tetra: its dense coefficient vector over
    monomial_indices(k), which must not change after construction.  Points
    are pulled back with xi = (x - origin) J^{-T}; physical partials of
    order m are derivatives(coef, k, m), multiplied by one chain-rule
    matrix, times the monomial table at xi.
    origin and inverse_t are what pull_back returns.
    """

    def __init__(self, coef: np.ndarray, k: int, origin, inverse_t):
        self.coef, self.k = coef, k
        self._origin, self._inverse_t = origin, inverse_t
        # Per order, the partials' xi-monomial coefficients, built on first
        # use; p = inf asks for one order once per block.
        self._by_order: dict[int, np.ndarray] = {}

    def evaluate(self, pts) -> np.ndarray:
        return self.partials(0, pts)[0]

    __call__ = evaluate

    def partial(self, gamma: MultiIndex, pts) -> np.ndarray:
        m = sum(gamma)
        return self.partials(m, pts)[derivative_indices(m).index(tuple(gamma))]

    def partials(self, m: int, pts) -> np.ndarray:
        """Every d^gamma with |gamma| = m at pts, rows in derivative_indices(m) order.

        The points are mapped once, xi = (x - origin) J^{-T}, and the result
        is one matrix product: the cached order-m matrix times the monomials
        of degree <= k - m at xi.  partial(gamma) is a row of it by definition.
        """
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        if m not in self._by_order:
            self._by_order[m] = self._chain_rule(m) @ derivatives(self.coef, self.k, m)
        xi = (p - self._origin) @ self._inverse_t
        return self._by_order[m] @ _monomials(xi, self.k - m)

    def _chain_rule(self, m: int) -> np.ndarray:
        """C with d^gamma_x = sum_beta C[gamma, beta] d^beta_xi, |gamma| = |beta| = m.

        d/dx_j = sum_i J^{-1}[i, j] d/dxi_i, so row gamma holds the
        coefficients of the product of linear forms prod_j (J^{-T}[j] . d_xi)^gamma_j,
        one form times a row of order m - 1.
        """
        c = np.ones((1, 1))
        for d in range(1, m + 1):
            axes, rows = _first_axes(d)
            c = _times(self._inverse_t[axes].T, 1, c[rows].T, d - 1).T
        return c


def as_field(v) -> ScalarField:
    """v as a ScalarField, whose degree is v's polynomial degree or None.

    v may be a Polynomial3 (degree its degree), an Interpolant (degree k), a
    ScalarField (returned as it is) or a plain callable on (N, 3) arrays;
    polynomial partials are exact, a plain callable's are finite differences.
    """
    if isinstance(v, ScalarField):
        return v
    if isinstance(v, Polynomial3):
        return _OnePass(v.evaluate, v.partials, None, 1.0, True, v.degree)
    if isinstance(v, Interpolant):
        return _OnePass(v.evaluate, v.partials, None, 1.0, True, v.k)
    return ScalarField(v)


def _check_degree(k) -> int:
    """k as a Python int, or InvalidDegree unless 1 <= k <= MAX_DEGREE."""
    if not _is_count(k) or k < 1:
        raise InvalidDegree("interpolation degree must be an integer >= 1, got %r" % (k,))
    if k > MAX_DEGREE:
        raise InvalidDegree(
            "interpolation degree %d exceeds the supported maximum %d" % (k, MAX_DEGREE)
        )
    return int(k)


@lru_cache(maxsize=MAX_DEGREE)
def _newton(k: int) -> tuple[np.ndarray, np.ndarray]:
    """(newton, diff) with coef = newton @ (diff @ values), the Gregory-Newton
    form of the interpolant of the values at the nodes of sigma_k(k).

    Row alpha of diff (monomial_indices(k) order) is alpha! times
    lattice.quotient_coefficients(alpha) at the nodes eta, so diff @ values
    are the forward differences Delta^alpha f(0).  Column alpha of newton is
    prod_i C(k xi_i, alpha_i) in monomials, gathered from binom[d, a], the x^d
    coefficient of C(kx, a): a signed Stirling number times k^d / a!.
    """
    node = {gamma[1:]: n for n, gamma in enumerate(sigma_k(k))}
    diff = np.zeros((len(node), len(node)))
    for row, alpha in enumerate(monomial_indices(k)):
        for eta, c in quotient_coefficients(alpha):
            diff[row, node[eta]] = math.prod(map(math.factorial, alpha)) * c
    binom = np.zeros((k + 1, k + 1))
    for a in range(k + 1):
        falling = np.polynomial.polynomial.polyfromroots(range(a))
        binom[: a + 1, a] = falling * float(k) ** np.arange(a + 1) / math.factorial(a)
    newton = math.prod(binom[e[:, None], e] for e in _exponents(k))
    newton.flags.writeable = diff.flags.writeable = False
    return newton, diff


def pull_back(t: Tetrahedron) -> tuple[np.ndarray, np.ndarray]:
    """origin and J^{-T} of x = origin + J xi; DegenerateTetrahedron if flat."""
    volume(t)
    verts = t.as_array()
    jac = (verts[1:] - verts[0]).T
    return verts[0], np.ascontiguousarray(np.linalg.inv(jac).T)


def interpolate(v, t: Tetrahedron, k: int) -> Interpolant:
    """The degree-k Lagrange interpolant of v on t.

    v is anything as_field accepts; its nodal values give forward differences
    and those the coefficients (_newton).  Reproduces any q in P_k up to
    roundoff.  A nodal value of v that is not finite raises NumericalError.
    """
    k = _check_degree(k)
    frame = pull_back(t)
    nodes = unit_weights(k) @ t.as_array()
    values = as_field(v)(nodes)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            "v is not finite (%r) at interpolation node %s, x = %s"
            % (float(values[i]), sigma_k(k)[i], nodes[i].tolist())
        )
    newton, diff = _newton(k)
    return Interpolant(newton @ (diff @ values), k, *frame)


def residual(v, t: Tetrahedron, k: int) -> ScalarField:
    """The interpolation residual u = v - I_T^k v as a ScalarField.

    Partials combine v's partials (exact or finite-difference) with the
    interpolant's exact polynomial partials; u vanishes at every node.  When
    v is a polynomial, so is u, of degree max(deg v, k).
    """
    v = as_field(v)
    ip = interpolate(v, t, k)
    # The difference is exact only when v's own partials are.
    return _OnePass(
        lambda pts: v(pts) - ip.evaluate(pts),
        lambda m, pts: v.partials(m, pts) - ip.partials(m, pts),
        v.order, v.scale, v.exact_partials,
        None if v.degree is None else max(v.degree, ip.k),
    )
