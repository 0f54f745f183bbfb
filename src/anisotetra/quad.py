"""Quadrature on tetrahedra and Sobolev seminorms |u|_{m,p,T}.

Rules come from the collapsed-coordinate map of the unit cube onto the unit
right-corner tetrahedron, x = u, y = v(1-u), z = w(1-u)(1-v), whose Jacobian
(1-u)^2 (1-v) is absorbed exactly by Gauss-Jacobi weights: nodes from
roots_jacobi(n, 2, 0) in u, roots_jacobi(n, 1, 0) in v and Gauss-Legendre in
w integrate every polynomial of total degree <= 2n-1 exactly.  Nodes are
stored in barycentric coordinates with weights normalized to sum one, so a
rule transfers to any tetrahedron by an affine map and a volume factor.

The seminorm follows the weighted convention

    |u|_{m,p,T}^p = sum_{|gamma| = m} (m!/gamma!) int_T |d^gamma u|^p.

A barycentric sample set is mapped to T once and one call, partials(m, pts),
samples |d^gamma u| there for every |gamma| = m.  For finite p the sample
sets are quadrature rules and the samples are reduced by the weighted p-sum;
_rule_degrees is the one place that picks their degrees.  Every sample is
first divided by one power of two 2^e above the largest sample of all the
rules, so no p-th power overflows at large p (10^400 would), and the value
is 2^e times the p-th root; the 12/18 agreement check compares the scaled
sums, and at p = 2 the scaling changes no digit.  For p = infinity the
sample set is the dense lattice X^DENSE_LATTICE_ORDER placed by the cached
lattice.unit_weights table, evaluated in blocks of at most BLOCK points:
each gamma keeps a running maximum, which equals the maximum of one
unblocked pass, and for polynomials one constrained Newton step polishes
it; this route is documented as approximate and takes no quadrature
degree.  A sampled value that is not finite raises NumericalError, for the
first such gamma in order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import DegenerateTetrahedron, NumericalError, UnsupportedDegree
from .geom import Tetrahedron, volume
from .interp import ScalarField, as_field, derivative_indices, pull_back
from .lattice import unit_weights

MAX_RULE_DEGREE = 20
DEFAULT_NUMERIC_DEGREE = 12
RICHARDSON_DEGREE = 18
RICHARDSON_RTOL = 1e-6
DENSE_LATTICE_ORDER = 40
# Points per partials call at p = inf, which bounds the (n_gamma, N) arrays
# and expression jets; every quadrature rule (at most 1331 points) is one block.
BLOCK = 4096
# How far outside the element (in barycentric coordinates) a Newton step of
# the p = inf polish may land and still be taken.
INSIDE_TOL = 1e-9

MultiIndex = tuple[int, int, int]


@dataclass(frozen=True)
class QuadratureRule:
    """Barycentric nodes and weights; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray
    exactness: int

    def points_on(self, vertices) -> np.ndarray:
        return self.nodes @ np.asarray(vertices, dtype=float)


@lru_cache(maxsize=64)
def rule_for_degree(d: int) -> QuadratureRule:
    """A rule exact for all polynomials of total degree <= d."""
    if not isinstance(d, int) or d < 1 or d > MAX_RULE_DEGREE:
        raise UnsupportedDegree(
            "quadrature degree must lie in [1, %d], got %r" % (MAX_RULE_DEGREE, d)
        )
    n = (d + 2) // 2  # smallest n with 2n-1 >= d
    xu, wu = roots_jacobi(n, 2, 0)
    xv, wv = roots_jacobi(n, 1, 0)
    xw, ww = roots_legendre(n)
    # Map [-1, 1] to [0, 1]; the Jacobi weights (1-x)^a pick up 2^a.
    u, cu = 0.5 * (xu + 1.0), wu / 8.0
    v, cv = 0.5 * (xv + 1.0), wv / 4.0
    w, cw = 0.5 * (xw + 1.0), ww / 2.0

    uu, vv, www = np.meshgrid(u, v, w, indexing="ij")
    cc = (
        cu[:, None, None] * cv[None, :, None] * cw[None, None, :]
    ).reshape(-1)
    uu, vv, www = uu.reshape(-1), vv.reshape(-1), www.reshape(-1)
    x = uu
    y = vv * (1.0 - uu)
    z = www * (1.0 - uu) * (1.0 - vv)
    bary = np.stack([1.0 - x - y - z, x, y, z], axis=1)
    weights = cc * 6.0  # raw weights sum to |T_ref| = 1/6
    return QuadratureRule(nodes=bary, weights=weights, exactness=2 * n - 1)


@dataclass(frozen=True)
class SeminormSpec:
    """Order m and exponent p (math.inf allowed)."""

    m: int
    p: float

    def __post_init__(self):
        if not isinstance(self.m, numbers.Integral) or self.m < 0:
            raise ValueError("seminorm order m must be an integer >= 0, got %r" % (self.m,))
        if not self.p >= 1:  # also rejects NaN
            raise ValueError("exponent p must be >= 1 or inf, got %r" % (self.p,))


def validate_p(k: int, m: int, p: float) -> tuple[bool, str]:
    """Admissibility of (k, m, p) for the interpolation error estimates.

    Three branches: k - m = 0 needs 2 < p <= inf; k = 1 (with m = 0) needs
    3/2 < p <= inf; k >= 2 with k - m >= 1 allows 1 <= p <= inf.
    """
    if k < 1 or not 0 <= m <= k:
        return False, "requires k >= 1 and 0 <= m <= k, got k=%d m=%d" % (k, m)
    if k - m == 0:
        if p > 2:
            return True, "k - m = 0 and p > 2"
        return False, "k - m = 0 requires 2 < p <= inf, got p=%s" % (p,)
    if k == 1:
        if p > 1.5:
            return True, "k = 1, m = 0 and p > 3/2"
        return False, "k = 1 requires 3/2 < p <= inf, got p=%s" % (p,)
    if p >= 1:
        return True, "k >= 2 and k - m >= 1 allow 1 <= p <= inf"
    return False, "p must satisfy 1 <= p <= inf, got p=%s" % (p,)


def multinomial_weight(gamma: MultiIndex) -> float:
    m = sum(gamma)
    return math.factorial(m) / (
        math.factorial(gamma[0]) * math.factorial(gamma[1]) * math.factorial(gamma[2])
    )


@dataclass(frozen=True)
class SeminormInfo:
    """Value plus evaluation metadata for reports."""

    value: float
    quadrature_degree: int | None
    warnings: tuple[str, ...] = ()
    approximate_partials: bool = False


def _check_finite(finite: np.ndarray, gammas: list):
    """NumericalError naming the first gamma, in order, whose entry of
    `finite` (are all its samples finite?) is False."""
    if not finite.all():
        gamma = gammas[int(np.argmin(finite))]
        raise NumericalError("d^%s u is not finite where the seminorm samples it" % (gamma,))


def _inside(t: Tetrahedron, x: np.ndarray) -> bool:
    """Is x in t, up to INSIDE_TOL in barycentric terms?  False on a
    degenerate t."""
    try:
        origin, _, inverse_t = pull_back(t)
    except DegenerateTetrahedron:
        return False
    lam = (x - origin) @ inverse_t
    return bool(lam.min() >= -INSIDE_TOL and lam.sum() <= 1.0 + INSIDE_TOL)


def _newton_polish(
    field_u: ScalarField, gamma: MultiIndex, x0: np.ndarray, t: Tetrahedron
) -> float:
    """One constrained Newton step toward a local extremum of |d^gamma u|.

    Value, gradient and Hessian are the rows gamma, gamma + e_i and
    gamma + e_i + e_j of the field's partials of orders |gamma|, |gamma| + 1
    and |gamma| + 2 at x0.
    """
    m, e = sum(gamma), np.eye(3, dtype=int)
    row = derivative_indices(m).index(gamma)
    val0 = float(field_u.partials(m, x0[None, :])[row, 0])
    sign = 1.0 if val0 >= 0 else -1.0
    first, second = (field_u.partials(m + n, x0[None, :])[:, 0] for n in (1, 2))
    up1, up2 = derivative_indices(m + 1), derivative_indices(m + 2)
    grad = np.array([first[up1.index(tuple(gamma + e[i]))] for i in range(3)])
    hess = np.array(
        [[second[up2.index(tuple(gamma + e[i] + e[j]))] for j in range(3)] for i in range(3)]
    )
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return abs(val0)
    x1 = x0 + step
    if not _inside(t, x1):
        return abs(val0)
    val1 = sign * float(field_u.partials(m, x1[None, :])[row, 0])
    return max(abs(val0), val1 if val1 > 0 else abs(val0))


def _running_max(field_u: ScalarField, m: int, pts: np.ndarray, gammas: list):
    """max |d^gamma u| over pts and every |gamma| = m, and the first gamma and
    point that attain it (None when it is 0), as one unblocked pass in gamma
    order would find them: each gamma keeps the earliest point of its maximum."""
    best = np.zeros(len(gammas))
    where = np.zeros((len(gammas), 3))
    finite = np.ones(len(gammas), dtype=bool)
    for block in np.array_split(pts, -(-len(pts) // BLOCK)):
        vals = np.abs(field_u.partials(m, block))
        idx = np.argmax(vals, axis=1)  # the first NaN, if there is one
        top = vals[np.arange(len(gammas)), idx]
        finite &= np.isfinite(top)
        up = top > best
        best[up], where[up] = top[up], block[idx[up]]
    _check_finite(finite, gammas)
    g = int(np.argmax(best))
    return float(best[g]), ((gammas[g], where[g]) if best[g] > 0 else None)


def _rule_degrees(
    spec: SeminormSpec, poly_degree: int | None, degree: int | None
) -> tuple[int, ...]:
    """Exactness degrees of the rules that measure |u|_{m,p,T}.

    An explicit degree wins; an even integer p on a polynomial gets the one
    rule that is exact for |d^gamma u|^p when there is one; anything else
    gets the 12/18 pair whose agreement is checked.  p = inf samples a
    lattice instead (no rules), so an explicit degree there is rejected.
    """
    if spec.p == math.inf:
        if degree is not None:
            raise UnsupportedDegree(
                "a quadrature degree applies to finite p only; p = inf samples "
                "a lattice, got degree %r" % (degree,)
            )
        return ()
    if degree is not None:
        return (degree,)
    p = float(spec.p)
    if poly_degree is not None and p == int(p) and int(p) % 2 == 0:
        exact_deg = max(1, (poly_degree - spec.m) * int(p))
        if exact_deg <= MAX_RULE_DEGREE:
            return (exact_deg,)
    return (DEFAULT_NUMERIC_DEGREE, RICHARDSON_DEGREE)


def seminorm_with_info(
    u, t: Tetrahedron, spec: SeminormSpec, degree: int | None = None
) -> SeminormInfo:
    """|u|_{m,p,T} plus quadrature metadata and warnings.

    u is anything interp.as_field accepts.  degree fixes the quadrature
    exactness for finite p (UnsupportedDegree outside [1, MAX_RULE_DEGREE],
    and at p = inf, which samples a lattice).
    """
    field_u, poly_degree = as_field(u)
    degrees = _rule_degrees(spec, poly_degree, degree)
    verts = t.as_array()
    gammas = derivative_indices(spec.m)
    vanishes = poly_degree is not None and spec.m > poly_degree  # every d^gamma u is 0
    if not degrees:
        value, at = (0.0, None) if vanishes else _running_max(
            field_u, spec.m, unit_weights(DENSE_LATTICE_ORDER) @ verts, gammas
        )
        if at is not None and poly_degree is not None:
            value = max(value, _newton_polish(field_u, *at, t))
        warnings = ("p=inf maximum from dense sampling; value is approximate",)
        return SeminormInfo(value, None, warnings, not field_u.exact_partials)
    rules = [rule_for_degree(d) for d in degrees]
    p, vol = float(spec.p), volume(t)
    if vanishes:
        return SeminormInfo(0.0, degrees[-1], (), not field_u.exact_partials)
    samples = [np.abs(field_u.partials(spec.m, r.nodes @ verts)) for r in rules]
    for vals in samples:
        _check_finite(np.isfinite(vals).all(axis=1), gammas)
    # Every sample over 2^e lies below 1, so no p-th power overflows.
    e = int(np.frexp(max(vals.max() for vals in samples))[1])
    totals = [
        sum(
            multinomial_weight(gamma) * vol * float(np.dot(r.weights, row))
            for gamma, row in zip(gammas, np.ldexp(vals, -e) ** p)
        )
        for r, vals in zip(rules, samples)
    ]
    try:
        value = math.ldexp(totals[-1] ** (1.0 / p), e)
    except OverflowError:
        raise NumericalError("|u|_{%d,%s,T} exceeds the float range" % (spec.m, p)) from None
    warnings: tuple[str, ...] = ()
    ref = max(abs(totals[-1]), 1e-300)
    if len(totals) == 2 and abs(totals[0] - totals[1]) > RICHARDSON_RTOL * ref:
        warnings = (
            "quadrature degrees %d and %d disagree (rel %.2e); integrand may "
            "be under-resolved"
            % (degrees[0], degrees[1], abs(totals[0] - totals[1]) / ref),
        )
    return SeminormInfo(value, degrees[-1], warnings, not field_u.exact_partials)


def seminorm(u, t: Tetrahedron, spec: SeminormSpec, degree: int | None = None) -> float:
    """The seminorm value alone; see seminorm_with_info for metadata."""
    return seminorm_with_info(u, t, spec, degree).value
