"""Lattice points and difference quotients on the reference tetrahedra.

For the order-k refinement of a reference tetrahedron (unit right-corner
Type 1 or its sheared Type 2 companion) the interpolation nodes form an
integer lattice X^k: a 3D integer point g = (i, j, l) corresponds to a
barycentric multi-index gamma with |gamma| = k, and the physical node is
g/k.  Type 1 takes g = (gamma_2, gamma_3, gamma_4); the Type 2 lattice is
its image under the integer shear (i, j, l) -> (i + j, j, l).  A direction
multi-index delta selects a box of lattice points (g + eta for
eta <= delta), and the difference quotient

    DQ^delta f(x_g) = k^|delta| * sum_{eta <= delta}
        (-1)^{|delta| - |eta|} / (eta! (delta - eta)!) * f(x_{g + eta})

approximates d^delta f / delta!.  The quotient equals an iterated integral
of d^delta f over one ordered simplex per axis, which is what makes the
calculus exact for polynomials and summable over boxes.

Coefficients are kept as exact fractions; floats enter only when values of
f do.  The corners eta <= delta are enumerated in one place, Box.corners,
and the barycentric weights of the nodes of X^k are built once per k,
unit_weights, a cached read-only table that nodes_on, the p = inf seminorm
lattice and the acceptance suite share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping

import numpy as np
from scipy.special import roots_legendre

from .errors import MissingNodeValue
from .geom import TYPE1, TYPE2, reference_tetrahedron

LatticePoint = tuple[int, int, int]
MultiIndex = tuple[int, int, int]
Barycentric = tuple[int, int, int, int]


def sigma_k(k: int) -> list[Barycentric]:
    """All barycentric multi-indices gamma >= 0 with |gamma| = k."""
    if k < 0:
        raise ValueError("k must be >= 0, got %r" % (k,))
    out = []
    for g2 in range(k + 1):
        for g3 in range(k + 1 - g2):
            for g4 in range(k + 1 - g2 - g3):
                out.append((k - g2 - g3 - g4, g2, g3, g4))
    return out


def _shear(point: LatticePoint, kind: int, sign: int = 1) -> LatticePoint:
    """The integer shear (i, j, l) -> (i + j, j, l) that carries X^k of
    Type 1 onto X^k of Type 2 (sign=-1 inverts it); Type 1 is fixed."""
    if kind not in (TYPE1, TYPE2):
        raise ValueError("kind must be TYPE1 or TYPE2, got %r" % (kind,))
    i, j, l = point
    return (i + sign * j, j, l) if kind == TYPE2 else (i, j, l)


def in_lattice(point: LatticePoint, k: int, kind: int) -> bool:
    """Membership of an integer point in X^k of the given reference kind."""
    i, j, l = _shear(point, kind, -1)
    return i >= 0 and j >= 0 and l >= 0 and i + j + l <= k


def lattice_points(k: int, kind: int) -> list[LatticePoint]:
    """X^k in lexicographic order; exactly C(k+3, 3) points for both kinds."""
    return sorted(gamma_to_lattice(gamma, kind) for gamma in sigma_k(k))


def lattice_to_gamma(point: LatticePoint, k: int, kind: int) -> Barycentric:
    """Barycentric multi-index of a lattice point."""
    i, j, l = _shear(point, kind, -1)
    gamma = (k - i - j - l, i, j, l)
    if min(gamma) < 0:
        raise ValueError("point %r not in X^%d of kind %d" % (point, k, kind))
    return gamma


def gamma_to_lattice(gamma: Barycentric, kind: int) -> LatticePoint:
    """Inverse of lattice_to_gamma; k is implicit in |gamma|."""
    return _shear(gamma[1:], kind)


@lru_cache(maxsize=16)
def unit_weights(k: int) -> np.ndarray:
    """sigma_k(k) / k, the barycentric coordinates of the nodes of X^k, as a
    read-only (C(k+3, 3), 4) array built once per order k >= 1."""
    weights = np.array(sigma_k(k), dtype=float) / k
    weights.flags.writeable = False
    return weights


def nodes_on(vertices, k: int) -> tuple[list[Barycentric], np.ndarray]:
    """Barycentric multi-indices and node coordinates on a tetrahedron.

    vertices is a (4, 3) array-like; the node of gamma is
    sum_i gamma_i * v_i / k, one product with unit_weights(k).  For k = 0
    the single node is the centroid.  Both results are new objects.
    """
    verts = np.asarray(vertices, dtype=float)
    if k == 0:
        return sigma_k(0), verts.mean(axis=0)[None, :]
    return sigma_k(k), unit_weights(k) @ verts


def node_values(
    f: Callable[[np.ndarray], np.ndarray], k: int, kind: int
) -> dict[LatticePoint, float]:
    """f at the nodes of X^k on the reference element of the given kind,
    keyed by lattice point (gamma_to_lattice of each node's multi-index)."""
    gammas, nodes = nodes_on(reference_tetrahedron(kind).coords(), k)
    values = np.asarray(f(nodes), dtype=float).reshape(-1).tolist()
    return {gamma_to_lattice(g, kind): x for g, x in zip(gammas, values)}


@dataclass(frozen=True)
class Box:
    """The lattice box with corners base + eta, 0 <= eta <= delta."""

    base: LatticePoint
    delta: MultiIndex

    def corners(self) -> list[LatticePoint]:
        b, d = self.base, self.delta
        return [
            (b[0] + e0, b[1] + e1, b[2] + e2)
            for e0 in range(d[0] + 1)
            for e1 in range(d[1] + 1)
            for e2 in range(d[2] + 1)
        ]


def enumerate_boxes(k: int, delta: MultiIndex, kind: int) -> list[Box]:
    """All boxes of direction delta fully contained in X^k.

    The count is C(k - |delta| + 3, 3) for both reference kinds.
    """
    if min(delta) < 0 or sum(delta) == 0:
        raise ValueError("delta must be nonnegative and nonzero, got %r" % (delta,))
    boxes = []
    for base in lattice_points(k, kind):
        if all(in_lattice(c, k, kind) for c in Box(base, delta).corners()):
            boxes.append(Box(base, delta))
    return boxes


def quotient_coefficients(delta: MultiIndex) -> list[tuple[MultiIndex, Fraction]]:
    """Exact coefficients (-1)^{|delta - eta|} / (eta! (delta - eta)!), one per
    corner eta of Box((0, 0, 0), delta), in the order of its corners."""
    def factorials(eta):
        return math.prod(
            math.factorial(e) * math.factorial(d - e) for e, d in zip(eta, delta)
        )

    return [
        (eta, Fraction((-1) ** (sum(delta) - sum(eta)), factorials(eta)))
        for eta in Box((0, 0, 0), delta).corners()
    ]


def difference_quotient(
    values: Mapping[LatticePoint, float],
    base: LatticePoint,
    delta: MultiIndex,
    k: int,
) -> float:
    """The quotient at a box from node values keyed by lattice point.

    Raises MissingNodeValue when a corner of the box has no value.
    """
    total = 0.0
    for eta, coeff in quotient_coefficients(delta):
        p = (base[0] + eta[0], base[1] + eta[1], base[2] + eta[2])
        if p not in values:
            raise MissingNodeValue("no value at lattice point %r" % (p,))
        total += float(coeff) * values[p]
    return float(k) ** sum(delta) * total


def quotient_from_function(
    f: Callable[[np.ndarray], np.ndarray],
    base: LatticePoint,
    delta: MultiIndex,
    k: int,
) -> float:
    """Difference quotient of f sampled at the lattice nodes g/k."""
    corners = Box(base, delta).corners()
    vals = np.asarray(f(np.array(corners, dtype=float) / k), dtype=float).reshape(-1)
    return difference_quotient(dict(zip(corners, vals.tolist())), base, delta, k)


def _ordered_simplex_rule(s: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for the ordered simplex 0 <= w_s <= ... <= w_1 <= 1.

    Maps the unit cube by w_i = v_1 * ... * v_i, whose Jacobian is
    prod_i v_i^(s - i); the rule is a tensor Gauss-Legendre grid with the
    Jacobian folded into the weights.  Returns (points (m, s), weights (m,)).
    """
    x, w = roots_legendre(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    grids = np.meshgrid(*([x] * s), indexing="ij")
    wgrids = np.meshgrid(*([w] * s), indexing="ij")
    v = np.stack([g.reshape(-1) for g in grids], axis=1)  # (m, s)
    wts = np.ones(v.shape[0])
    for i in range(s):
        wts *= wgrids[i].reshape(-1)
        wts *= v[:, i] ** (s - 1 - i)
    pts = np.cumprod(v, axis=1)
    return pts, wts


def quotient_integral(
    derivative: Callable[[np.ndarray], np.ndarray],
    base: LatticePoint,
    delta: MultiIndex,
    k: int,
    points_per_dim: int = 6,
) -> float:
    """Integral representation of the difference quotient.

    `derivative` evaluates d^delta f on (N, 3) points of the reference
    domain.  The quotient equals the iterated integral of the derivative
    over one ordered simplex per axis, the argument being shifted from g/k
    by the sum of that axis's simplex coordinates over k.  For a constant
    derivative c the integral is c/delta!, matching the quotient on any
    polynomial with d^delta f = c.
    """
    rules = [
        _ordered_simplex_rule(s, points_per_dim) if s else (np.zeros((1, 0)), np.ones(1))
        for s in delta
    ]
    # One point and weight per triple of the three axis rules' points, in
    # lexicographic order: g/k shifted by each axis's coordinate sum over k.
    shifts = np.meshgrid(*(p.sum(axis=1) for p, _ in rules), indexing="ij")
    pts = np.array(base, dtype=float) / k + np.stack(shifts, axis=-1).reshape(-1, 3) / k
    (_, w1), (_, w2), (_, w3) = rules
    wts = (w1[:, None, None] * w2[None, :, None] * w3[None, None, :]).reshape(-1)
    vals = np.asarray(derivative(pts), dtype=float).reshape(-1)
    return float(np.dot(vals, wts))
