"""Exact polynomial arithmetic for test oracles.

Coefficients are Fractions, so sums, products, partials, affine substitution
and integrals over a tetrahedron carry no roundoff.  Exact.of reads a
physical Polynomial3's float coefficients exactly, and polynomial() rounds
the result once into a Polynomial3.  exact_partial_rows gives a physical
polynomial's exact partials at float points in integer arithmetic.
"""

import math
from fractions import Fraction

import numpy as np

from anisotetra.interp import Polynomial3, derivative_indices, monomial_indices


def _product(p: dict, q: dict) -> dict:
    """The product of two polynomials held as {exponents: coefficient}."""
    out = {}
    for (a1, b1, c1), v1 in p.items():
        for (a2, b2, c2), v2 in q.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = out.get(key, 0) + v1 * v2
    return out


class Exact:
    """A polynomial in x, y, z as {(a, b, c): Fraction}, zero terms dropped."""

    def __init__(self, coeffs=None):
        self.coeffs = {key: Fraction(v) for key, v in (coeffs or {}).items() if v != 0}

    @classmethod
    def of(cls, q: Polynomial3) -> "Exact":
        """The physical polynomial q with its coefficients read exactly."""
        return cls(dict(zip(monomial_indices(q.degree), q.coef.tolist())))

    @classmethod
    def variable(cls, axis: int) -> "Exact":
        return cls({tuple(int(i == axis) for i in range(3)): 1})

    def polynomial(self) -> Polynomial3:
        """self with each coefficient rounded to the nearest float."""
        return Polynomial3({key: float(v) for key, v in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, Exact):
            other = Exact({(0, 0, 0): Fraction(other)})
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, 0) + v
        return Exact(out)

    __radd__ = __add__

    def __neg__(self):
        return Exact({key: -v for key, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Exact):
            return Exact({key: v * Fraction(other) for key, v in self.coeffs.items()})
        return Exact(_product(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def partial(self, gamma) -> "Exact":
        return Exact({
            tuple(a - g for a, g in zip(alpha, gamma)):
                v * math.prod(math.perm(a, g) for a, g in zip(alpha, gamma))
            for alpha, v in self.coeffs.items()
            if all(a >= g for a, g in zip(alpha, gamma))
        })

    def compose_affine(self, B, b) -> "Exact":
        """The polynomial x -> self(B @ x + b), B and b read exactly.

        With the entries of B and b over one common denominator, each linear
        form L_i = B[i] . x + b[i] is an integer form over it, and each
        product of forms is one of lower degree times one form, as
        interp._monomials builds them; so only integers are multiplied.
        """
        rows = [[Fraction(c) for c in (*B[i], b[i])] for i in range(3)]
        unit = math.lcm(*(c.denominator for row in rows for c in row))
        keys = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0))
        forms = [{key: int(c * unit) for key, c in zip(keys, row)} for row in rows]
        products = {(0, 0, 0): {(0, 0, 0): 1}}
        for alpha in monomial_indices(max(map(sum, self.coeffs), default=0))[1:]:
            axis = next(i for i in range(3) if alpha[i])
            lower = tuple(a - (i == axis) for i, a in enumerate(alpha))
            products[alpha] = _product(products[lower], forms[axis])
        # self's term alpha is v * products[alpha] / unit^|alpha|.
        scaled = {alpha: v / unit ** sum(alpha) for alpha, v in self.coeffs.items()}
        den = math.lcm(*(v.denominator for v in scaled.values()))
        out = {}
        for alpha, v in scaled.items():
            n = v.numerator * (den // v.denominator)
            for key, w in products[alpha].items():
                out[key] = out.get(key, 0) + n * w
        return Exact({key: Fraction(n, den) for key, n in out.items()})

    def integrate(self, t, power: int = 1) -> Fraction:
        """The integral of self**power over the tetrahedron t, through
        x = x_0 + J xi from the unit reference element, where the integral
        of xi^alpha is alpha! / (|alpha| + 3)!.  self is composed with the
        map before it is raised to the power, which costs far less."""
        verts = [[Fraction(c) for c in v] for v in t.as_array().tolist()]
        jac = [[verts[j + 1][i] - verts[0][i] for j in range(3)] for i in range(3)]
        det = (
            jac[0][0] * (jac[1][1] * jac[2][2] - jac[1][2] * jac[2][1])
            - jac[0][1] * (jac[1][0] * jac[2][2] - jac[1][2] * jac[2][0])
            + jac[0][2] * (jac[1][0] * jac[2][1] - jac[1][1] * jac[2][0])
        )
        mapped = math.prod([self.compose_affine(jac, verts[0])] * power)
        return abs(det) * sum(
            v * Fraction(math.prod(map(math.factorial, alpha)), math.factorial(sum(alpha) + 3))
            for alpha, v in mapped.coeffs.items()
        )


def degree7_cases():
    """1500 points and a dense and a sparse polynomial of degree 7, the large
    shapes at which the rows of a matrix product need not equal one-row
    products."""
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.5, 1.5, (1500, 3))
    dense = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(7)})
    sparse = Polynomial3(
        {(7, 0, 0): 0.3, (2, 3, 1): -1.1, (0, 4, 2): 2.5, (1, 1, 1): 0.7, (0, 0, 3): -0.2}
    )
    return pts, {"dense7": dense, "sparse7": sparse}, rng


def exact_partial_rows(q: Polynomial3, m: int, pts):
    """The exact d^gamma q at pts for each gamma in derivative_indices(m), and
    the sum of its terms' magnitudes, as object arrays of Python integers
    that are scale times the rational values.

    q is a physical polynomial.  Its float coefficients and the float points
    are multiples of powers of two, so one power of two makes every term an
    integer.
    """
    coeffs = {
        alpha: Fraction(c) for alpha, c in zip(monomial_indices(q.degree), q.coef.tolist()) if c
    }
    den = max((c.denominator for c in coeffs.values()), default=1)
    xs = [Fraction(x) for x in np.asarray(pts, dtype=float).ravel().tolist()]
    unit = max(x.denominator for x in xs)
    X = np.array([int(x * unit) for x in xs], dtype=object).reshape(-1, 3)
    d = max(q.degree - m, 0)
    powers = [[np.ones(len(X), dtype=object)] for _ in range(3)]
    for axis, row in enumerate(powers):
        for _ in range(d):
            row.append(row[-1] * X[:, axis])
    table = {e: powers[0][e[0]] * powers[1][e[1]] * powers[2][e[2]] for e in monomial_indices(d)}
    rows = []
    for gamma in derivative_indices(m):
        value, magnitude = np.zeros(len(X), dtype=object), np.zeros(len(X), dtype=object)
        for alpha, c in coeffs.items():
            e = tuple(a - g for a, g in zip(alpha, gamma))
            if min(e) < 0:
                continue
            factor = int(c * den) * math.prod(map(math.perm, alpha, gamma)) * unit ** (d - sum(e))
            term = factor * table[e]
            value += term
            magnitude += abs(term)
        rows.append((value, magnitude))
    return rows, den * unit**d
