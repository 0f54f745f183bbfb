"""Lagrange interpolation of degree k on a tetrahedron.

Interpolation happens on the unit right-corner reference element, pulled
back through the affine map x = x_0 + J xi with J = [x_1 - x_0, x_2 - x_0,
x_3 - x_0], under which the Lagrange nodes of Sigma^k correspond.  One fixed
basis of P_k per degree k, built from the barycentric product formula (no
linear solve), turns nodal values into the interpolant's coefficients in xi
by a single matrix-vector product.  Evaluation maps points with
xi = J^{-1} (x - x_0) and physical partials follow by the chain rule, so a
rotated flat element interpolates as well as an axis-aligned one.  A
degenerate element raises DegenerateTetrahedron.

Functions come as a Polynomial3, an Interpolant, a ScalarField or a plain
callable; as_field is the one place that turns any of them into a
ScalarField and knows its polynomial degree.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np

from .errors import DerivativeUnavailable, InvalidDegree, NumericalError
from .geom import Tetrahedron, volume
from .lattice import nodes_on, sigma_k

MAX_DEGREE = 8

MultiIndex = tuple[int, int, int]
_UNIT: tuple[MultiIndex, ...] = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def monomial_indices(k: int) -> list[MultiIndex]:
    """Exponent triples of total degree <= k, graded lexicographic."""
    out = []
    for total in range(k + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                out.append((a, b, total - a - b))
    return out


class Polynomial3:
    """A polynomial in three variables as a sparse monomial-coefficient map.

    Supports exact partial differentiation, exact integration over a
    tetrahedron, affine substitution, arithmetic, and vectorized evaluation.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[MultiIndex, float] | None = None):
        clean: dict[MultiIndex, float] = {}
        if coeffs:
            for key, val in coeffs.items():
                a, b, c = key
                v = float(val)
                if v != 0.0:
                    clean[(int(a), int(b), int(c))] = v
        self.coeffs = clean

    @classmethod
    def constant(cls, c: float) -> "Polynomial3":
        return cls({(0, 0, 0): c})

    @classmethod
    def variable(cls, axis: int) -> "Polynomial3":
        key = [0, 0, 0]
        key[axis] = 1
        return cls({tuple(key): 1.0})

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(k) for k in self.coeffs)

    def evaluate(self, pts) -> np.ndarray | float:
        p = np.asarray(pts, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        if not self.coeffs:
            out = np.zeros(p.shape[0])
            return float(out[0]) if single else out
        deg = self.degree
        powers = [np.ones((p.shape[0], deg + 1)) for _ in range(3)]
        for ax in range(3):
            for d in range(1, deg + 1):
                powers[ax][:, d] = powers[ax][:, d - 1] * p[:, ax]
        out = np.zeros(p.shape[0])
        for (a, b, c), coef in self.coeffs.items():
            out += coef * powers[0][:, a] * powers[1][:, b] * powers[2][:, c]
        return float(out[0]) if single else out

    __call__ = evaluate

    def partial(self, gamma: MultiIndex) -> "Polynomial3":
        """Exact partial derivative d^gamma."""
        out = {}
        g0, g1, g2 = gamma
        for (a, b, c), coef in self.coeffs.items():
            if a < g0 or b < g1 or c < g2:
                continue
            factor = (
                math.perm(a, g0) * math.perm(b, g1) * math.perm(c, g2)
            )
            out[(a - g0, b - g1, c - g2)] = out.get((a - g0, b - g1, c - g2), 0.0) + coef * factor
        return Polynomial3(out)

    def compose_affine(self, B, b) -> "Polynomial3":
        """The polynomial x -> p(B @ x + b), expanded exactly."""
        B = np.asarray(B, dtype=float)
        b = np.asarray(b, dtype=float)
        lin = [
            Polynomial3(
                {
                    (1, 0, 0): B[i, 0],
                    (0, 1, 0): B[i, 1],
                    (0, 0, 1): B[i, 2],
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
        return Polynomial3(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial3({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = Polynomial3.constant(float(other))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial3({k: v * float(other) for k, v in self.coeffs.items()})
        out: dict[MultiIndex, float] = {}
        for (a1, b1, c1), v1 in self.coeffs.items():
            for (a2, b2, c2), v2 in other.coeffs.items():
                key = (a1 + a2, b1 + b2, c1 + c2)
                out[key] = out.get(key, 0.0) + v1 * v2
        return Polynomial3(out)

    __rmul__ = __mul__

    def __repr__(self):
        terms = sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))
        return "Polynomial3(%r)" % (dict(terms),)


class ScalarField:
    """A scalar function with partial derivatives up to a declared order.

    When analytic partials are not supplied, central finite differences with
    adaptive step eps^(1/(|gamma|+2)) * scale are used; exact_partials then
    reports False so downstream reports can flag the approximation.
    """

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
        return np.asarray(self._eval(p), dtype=float).reshape(p.shape[0])

    def partial(self, gamma: MultiIndex, pts) -> np.ndarray:
        total = sum(gamma)
        if self.order is not None and total > self.order:
            raise DerivativeUnavailable(
                "field declares order %d, requested |gamma| = %d" % (self.order, total)
            )
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        if total == 0:
            return self(p)
        if self._partial is not None:
            return np.asarray(self._partial(tuple(gamma), p), dtype=float).reshape(
                p.shape[0]
            )
        return self._fd_partial(tuple(gamma), p)

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


class Interpolant:
    """The Lagrange interpolant I_T^k v, held on the reference element.

    `ref` is the interpolant as a polynomial in the reference coordinates
    xi of the affine map x = origin + J xi onto the tetra.  Points are
    pulled back with xi = J^{-1} (x - origin); physical partials follow by
    the chain rule.  `condition_estimate` is cond_2(J).
    """

    def __init__(
        self,
        ref: Polynomial3,
        tetra: Tetrahedron,
        k: int,
        origin: np.ndarray,
        inverse: np.ndarray,
        condition_estimate: float,
    ):
        self.ref = ref
        self.tetra = tetra
        self.k = k
        self._origin = origin
        self._inverse_t = np.ascontiguousarray(inverse.T)
        self.condition_estimate = condition_estimate
        self._partials: dict[MultiIndex, Polynomial3] = {}

    def _at(self, poly: Polynomial3, pts) -> np.ndarray:
        """A polynomial in xi evaluated at physical points."""
        p = np.atleast_2d(np.asarray(pts, dtype=float))
        if poly.degree == 0:  # a constant needs no mapped points
            return np.full(p.shape[0], poly.coeffs.get((0, 0, 0), 0.0))
        return poly.evaluate((p - self._origin) @ self._inverse_t)

    def evaluate(self, pts) -> np.ndarray:
        return self._at(self.ref, pts)

    __call__ = evaluate

    def partial(self, gamma: MultiIndex, pts) -> np.ndarray:
        gamma = tuple(gamma)
        if gamma not in self._partials:
            # d/dx_j = sum_i J^{-1}[i, j] d/dxi_i, so d^gamma is the product
            # of linear forms in the xi-derivatives; expanding it gives one
            # polynomial sum_beta c_beta d^beta ref, evaluated once.
            op = Polynomial3.constant(1.0)
            for j, power in enumerate(gamma):
                form = Polynomial3(dict(zip(_UNIT, self._inverse_t[j])))
                for _ in range(power):
                    op = op * form
            dp: dict[MultiIndex, float] = {}
            for beta, c in op.coeffs.items():
                for key, val in self.ref.partial(beta).coeffs.items():
                    dp[key] = dp.get(key, 0.0) + c * val
            self._partials[gamma] = Polynomial3(dp)
        return self._at(self._partials[gamma], pts)


def as_field(v) -> tuple[ScalarField, int | None]:
    """v as a ScalarField, plus its polynomial degree or None when it has none.

    v may be a Polynomial3, an Interpolant, a ScalarField or a plain callable
    on (N, 3) arrays; polynomial partials are exact, a plain callable's are
    finite differences.
    """
    if isinstance(v, ScalarField):
        return v, None
    if isinstance(v, Polynomial3):
        return ScalarField(v.evaluate, lambda g, pts: v.partial(g).evaluate(pts)), v.degree
    if isinstance(v, Interpolant):
        return ScalarField(v.evaluate, v.partial), v.k
    return ScalarField(v), None


def _check_degree(k: int):
    if not isinstance(k, int) or k < 1:
        raise InvalidDegree("interpolation degree must be an integer >= 1, got %r" % (k,))
    if k > MAX_DEGREE:
        raise InvalidDegree(
            "interpolation degree %d exceeds the supported maximum %d" % (k, MAX_DEGREE)
        )


@lru_cache(maxsize=MAX_DEGREE)
def _reference_basis(k: int) -> np.ndarray:
    """Lagrange basis of P_k on the unit right-corner element, in xi.

    Column n holds the monomial_indices(k) coefficients of the basis
    function of the n-th node of sigma_k(k), built from the product formula
    phi_gamma = prod_i prod_{j < gamma_i} (k lambda_i - j) / (j + 1), which
    is 1 at its own node and 0 at every other (no linear solve).
    """
    xi = [Polynomial3.variable(axis) for axis in range(3)]
    lam = [1.0 - xi[0] - xi[1] - xi[2]] + xi
    # factors[i][g] = prod_{j < g} (k lambda_i - j) / (j + 1)
    factors = []
    for i in range(4):
        row = [Polynomial3.constant(1.0)]
        for j in range(k):
            row.append(row[-1] * ((k * lam[i] - j) * (1.0 / (j + 1))))
        factors.append(row)
    monos = monomial_indices(k)
    basis = np.zeros((len(monos), len(sigma_k(k))))
    for col, gamma in enumerate(sigma_k(k)):
        phi = math.prod(factors[i][g] for i, g in enumerate(gamma))
        basis[:, col] = [phi.coeffs.get(mono, 0.0) for mono in monos]
    basis.flags.writeable = False
    return basis


def _affine_map(t: Tetrahedron) -> tuple[np.ndarray, np.ndarray]:
    """origin and J of x = origin + J xi; DegenerateTetrahedron if flat."""
    volume(t)
    verts = t.as_array()
    return verts[0], (verts[1:] - verts[0]).T


def interpolate(v, t: Tetrahedron, k: int) -> Interpolant:
    """The degree-k Lagrange interpolant of v on t.

    v is anything as_field accepts.  Reproduces any q in P_k up to roundoff.
    A nodal value of v that is not finite raises NumericalError.
    """
    _check_degree(k)
    origin, jac = _affine_map(t)
    gammas, nodes = nodes_on(t.as_array(), k)
    values = as_field(v)[0](nodes)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise NumericalError(
            "v is not finite (%r) at interpolation node %s, x = %s"
            % (float(values[i]), gammas[i], nodes[i].tolist())
        )
    coef = _reference_basis(k) @ values
    return Interpolant(
        ref=Polynomial3(dict(zip(monomial_indices(k), coef))),
        tetra=t,
        k=k,
        origin=origin,
        inverse=np.linalg.inv(jac),
        condition_estimate=float(np.linalg.cond(jac)),
    )


def residual(v, t: Tetrahedron, k: int) -> ScalarField:
    """The interpolation residual u = v - I_T^k v as a ScalarField.

    Partials combine v's partials (exact or finite-difference) with the
    interpolant's exact polynomial partials; u vanishes at every node.
    """
    v, _ = as_field(v)
    ip = interpolate(v, t, k)

    def eval_fn(pts):
        return v(pts) - ip.evaluate(pts)

    def partial_fn(gamma, pts):
        return v.partial(gamma, pts) - ip.partial(gamma, pts)

    # The difference is exact only when v's own partials are.
    return ScalarField(
        eval_fn,
        partial_fn=partial_fn,
        order=v.order,
        scale=v.scale,
        exact=v.exact_partials,
    )
