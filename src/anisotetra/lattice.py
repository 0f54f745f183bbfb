"""Lattice nodes and forward differences on the reference tetrahedra.

For the order-k refinement of a reference tetrahedron (unit right-corner
Type 1 or its sheared Type 2 companion) the interpolation nodes form an
integer lattice X^k: the node of a barycentric multi-index gamma with
|gamma| = k is g/k with g = gamma @ vertices, so Type 1 takes
g = (gamma_2, gamma_3, gamma_4) and Type 2 its image under the shear
(i, j, l) -> (i + j, j, l).  A direction multi-index delta selects a box of
lattice points (g + eta for eta <= delta), and the difference quotient

    DQ^delta f(x_g) = k^|delta| * sum_{eta <= delta}
        (-1)^{|delta| - |eta|} / (eta! (delta - eta)!) * f(x_{g + eta})

approximates d^delta f / delta!, exactly for polynomials of degree <= |delta|.

quotient_coefficients keeps those coefficients as exact fractions.  The one
place where they meet node values is forward_differences(k, delta, kind), a
cached read-only matrix F whose row per box applies delta! times them to the
values at the nodes in sigma_k order, so F @ f(nodes) is the forward
difference Delta^delta f at every box.  The interpolant's forward differences
Delta^alpha f(0) are the base-0 rows of the Type 1 stencils.  The barycentric
weights of the nodes of X^k are built once per k, unit_weights, a cached
read-only table that nodes_on, the stencils, the p = inf seminorm lattice and
the acceptance suite share.

The package's one Gauss quadrature routine lives here too: gauss_jacobi(n, a)
builds the n-point rule for the weight (1 - x)^a from numpy alone (Golub and
Welsch).  It gives quad.rule_for_degree its collapsed-coordinate factors
(a = 2, 1, 0).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InputError, InvalidDegree, integer
from .geom import _check_kind, reference_tetrahedron

MultiIndex = tuple[int, int, int]
Barycentric = tuple[int, int, int, int]

MAX_DEGREE = 8  # the highest order of interpolation and of a stencil


def sigma_k(k: int) -> list[Barycentric]:
    """All barycentric multi-indices gamma >= 0 with |gamma| = k; InputError
    unless k is an integer >= 0."""
    k = integer(k, "k")
    out = []
    for g2 in range(k + 1):
        for g3 in range(k + 1 - g2):
            for g4 in range(k + 1 - g2 - g3):
                out.append((k - g2 - g3 - g4, g2, g3, g4))
    return out


def unit_weights(k: int) -> np.ndarray:
    """sigma_k(k) / k, the barycentric coordinates of the nodes of X^k, as a
    read-only (C(k+3, 3), 4) array built once per order; InputError unless k
    is an integer >= 1."""
    return _unit_weights(integer(k, "k", 1))


@lru_cache(maxsize=16)
def _unit_weights(k: int) -> np.ndarray:
    weights = np.array(sigma_k(k), dtype=float) / k
    weights.flags.writeable = False
    return weights


def nodes_on(vertices, k: int) -> tuple[list[Barycentric], np.ndarray]:
    """Barycentric multi-indices and node coordinates on a tetrahedron.

    vertices is a (4, 3) array-like; the node of gamma is
    sum_i gamma_i * v_i / k, one product with unit_weights(k).  Both results
    are new objects; k that is not an integer >= 1 raises InputError.
    """
    weights = unit_weights(k)
    return sigma_k(k), weights @ np.asarray(vertices, dtype=float)


def _multi_index(delta) -> MultiIndex:
    """delta as three Python ints; InputError unless it is three integers >= 0."""
    entries = tuple(delta) if np.iterable(delta) else ()
    if len(entries) != 3:
        raise InputError("a multi-index must be three integers >= 0, got %r" % (delta,))
    return tuple(integer(d, "each entry of the multi-index %r" % (delta,)) for d in entries)


def quotient_coefficients(delta: MultiIndex) -> list[tuple[MultiIndex, Fraction]]:
    """Exact coefficients (-1)^{|delta - eta|} / (eta! (delta - eta)!), one per
    corner eta <= delta of the box at 0, in lexicographic order of eta; a delta
    that is not three integers >= 0 raises InputError."""
    def factorials(eta):
        return math.prod(
            math.factorial(e) * math.factorial(d - e) for e, d in zip(eta, delta)
        )

    delta = _multi_index(delta)
    return [
        (eta, Fraction((-1) ** (sum(delta) - sum(eta)), factorials(eta)))
        for eta in itertools.product(*(range(d + 1) for d in delta))
    ]


def forward_differences(k: int, delta: MultiIndex, kind: int) -> tuple[np.ndarray, np.ndarray]:
    """The forward difference Delta^delta on X^k of the reference element of
    the given kind: read-only (bases, F), built once per (k, delta, kind).

    bases is (B, 3) int, every lattice point g whose box g + eta, eta <= delta,
    lies in X^k, in lexicographic order.  F is (B, C(k+3, 3)) with columns in
    sigma_k(k) order; row b holds the integers delta! * quotient_coefficients
    at the box's corners, so F @ f(nodes) is Delta^delta f at every base and
    k^|delta| / delta! times it the difference quotient.  The lattice point of
    node j is rint(k * unit_weights(k)[j] @ vertices): on Type 2 the shear.
    An order k outside 1..MAX_DEGREE raises InvalidDegree, and a delta that
    is not three integers >= 0 or an unknown kind InputError.
    """
    k = integer(k, "stencil order k", 1, MAX_DEGREE, InvalidDegree)
    return _stencil(k, _multi_index(delta), _check_kind(kind))


@lru_cache(maxsize=None)
def _stencil(k: int, delta: MultiIndex, kind: int) -> tuple[np.ndarray, np.ndarray]:
    points = np.rint(k * unit_weights(k) @ reference_tetrahedron(kind).as_array()).astype(int)
    # column[g] is the node at lattice point g, -1 off X^k; corners reach k + delta.
    column = np.full([k + d + 1 for d in delta], -1)
    column[tuple(points.T)] = np.arange(len(points))
    coeffs = quotient_coefficients(delta)
    bases = points[np.lexsort(points.T[::-1])]
    corners = bases[:, None, :] + np.array([eta for eta, _ in coeffs])
    cols = column[tuple(np.moveaxis(corners, 2, 0))]
    inside = (cols >= 0).all(axis=1)
    bases, cols = bases[inside], cols[inside]
    scale = math.prod(map(math.factorial, delta))
    diff = np.zeros((len(bases), len(points)))
    diff[np.arange(len(bases))[:, None], cols] = [float(scale * c) for _, c in coeffs]
    bases.flags.writeable = diff.flags.writeable = False
    return bases, diff


@lru_cache(maxsize=64, typed=True)  # typed, or True would find a cached 1
def gauss_jacobi(n: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss rule for the weight (1 - x)^a on [-1, 1], exact for
    every polynomial of degree <= 2n - 1: read-only (nodes ascending, weights).
    n is an integer >= 1 and a an integer >= 0, else InputError.

    Golub and Welsch's method: the orthonormal polynomials p_j of the weight
    satisfy x p_j = b_{j+1} p_{j+1} + c_j p_j + b_j p_{j-1}, and the nodes are
    the eigenvalues of the symmetric tridiagonal (Jacobi) matrix of the c_j and
    b_j.  One Newton step on p_n, with p_n and p_n' from the same recurrence,
    refines them to roundoff; the weights are Christoffel's 1 / sum_{j<n} p_j^2.
    """
    n, a = integer(n, "the number of Gauss points", 1), integer(a, "the Jacobi exponent")
    j = np.arange(1, n + 1, dtype=float)
    s = 2.0 * j + a
    b = 2.0 * j * (j + a) / (s * np.sqrt(s * s - 1.0))  # b_1 .. b_n
    c = np.concatenate([[-a / (a + 2.0)], -a * a / (s[:-1] * (s[:-1] + 2.0))])
    x = np.linalg.eigvalsh(np.diag(c) + np.diag(b[:-1], -1))

    def recurrence(x):
        """p_n, p_n' and sum_{j<n} p_j^2 at x."""
        p_prev, p = np.zeros_like(x), np.full_like(x, math.sqrt((a + 1) / 2.0 ** (a + 1)))
        d_prev, d = np.zeros_like(x), np.zeros_like(x)
        total = np.zeros_like(x)
        for i in range(n):
            total += p * p
            b_i = b[i - 1] if i else 0.0
            p_prev, p, d_prev, d = (
                p,
                ((x - c[i]) * p - b_i * p_prev) / b[i],
                d,
                ((x - c[i]) * d + p - b_i * d_prev) / b[i],
            )
        return p, d, total

    p, d, _ = recurrence(x)
    x = x - p / d
    weights = 1.0 / recurrence(x)[2]
    x.flags.writeable = weights.flags.writeable = False
    return x, weights

