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

One loop measures it for every p: a barycentric sample set is mapped to T
once and one call, partials(m, pts), samples |d^gamma u| there for every
|gamma| = m.  For finite p the sample sets are quadrature rules and the
samples are reduced by the weighted p-sum; _rule_degrees is the one place
that picks their degrees.  For p = infinity the sample set is a dense
lattice, evaluated in blocks of at most BLOCK points: each gamma keeps a
running maximum, which equals the maximum of one unblocked pass, and for
polynomials one constrained Newton step polishes it; this route is
documented as approximate and takes no quadrature degree.  A sampled value
that is not finite raises NumericalError, for the first such gamma in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import NumericalError, UnsupportedDegree
from .geom import Tetrahedron, volume
from .interp import ScalarField, as_field, derivative_indices

MAX_RULE_DEGREE = 20
DEFAULT_NUMERIC_DEGREE = 12
RICHARDSON_DEGREE = 18
RICHARDSON_RTOL = 1e-6
DENSE_LATTICE_ORDER = 40
# Points per partials call at p = inf, which bounds the (n_gamma, N) arrays
# and expression jets; every quadrature rule (at most 1331 points) is one block.
BLOCK = 4096

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
        if self.m < 0:
            raise ValueError("seminorm order m must be >= 0, got %r" % (self.m,))
        if self.p != math.inf and self.p < 1:
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


def _finite(value: float, gamma: MultiIndex) -> float:
    """Return value, a maximum or a positive-weight sum of |d^gamma u|
    samples, which is finite exactly when every sample is; else raise
    NumericalError."""
    if not math.isfinite(value):
        raise NumericalError("d^%s u is not finite where the seminorm samples it" % (gamma,))
    return value


@lru_cache(maxsize=4)
def _dense_unit_weights(order: int) -> np.ndarray:
    from .lattice import sigma_k

    return np.array(sigma_k(order), dtype=float) / order


def _inside(t: Tetrahedron, x: np.ndarray, tol: float = 1e-9) -> bool:
    verts = t.as_array()
    m = (verts[1:] - verts[0]).T
    try:
        lam = np.linalg.solve(m, x - verts[0])
    except np.linalg.LinAlgError:
        return False
    return bool(lam.min() >= -tol and lam.sum() <= 1.0 + tol)


def _newton_polish(
    field_u: ScalarField, gamma: MultiIndex, x0: np.ndarray, t: Tetrahedron
) -> float:
    """One constrained Newton step toward a local extremum of |d^gamma u|.

    Value, gradient and Hessian are the field's exact partials of orders
    gamma, gamma + e_i and gamma + e_i + e_j.
    """

    def d(extra: MultiIndex, x: np.ndarray) -> float:
        order = tuple(g + e for g, e in zip(gamma, extra))
        return float(field_u.partial(order, x[None, :])[0])

    val0 = d((0, 0, 0), x0)
    sign = 1.0 if val0 >= 0 else -1.0
    axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    grad = np.array([d(a, x0) for a in axes])
    hess = np.empty((3, 3))
    for i, ai in enumerate(axes):
        for j, aj in enumerate(axes):
            if j < i:
                hess[i, j] = hess[j, i]
                continue
            hess[i, j] = d(tuple(ai[l] + aj[l] for l in range(3)), x0)
    try:
        step = np.linalg.solve(hess, -grad)
    except np.linalg.LinAlgError:
        return abs(val0)
    x1 = x0 + step
    if not _inside(t, x1):
        return abs(val0)
    val1 = sign * d((0, 0, 0), x1)
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
    if not finite.all():  # raises for the first such gamma
        _finite(math.nan, gammas[int(np.argmin(finite))])
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
    if degrees:
        sample_sets = [(r.nodes, r.weights) for r in map(rule_for_degree, degrees)]
        vol = volume(t)
    else:
        sample_sets = [(_dense_unit_weights(DENSE_LATTICE_ORDER), None)]
    p = float(spec.p)
    verts = t.as_array()
    gammas = derivative_indices(spec.m)
    totals = []
    for bary, weights in sample_sets:
        pts = bary @ verts
        if poly_degree is not None and spec.m > poly_degree:
            total, at = 0.0, None  # every d^gamma u vanishes
        elif weights is None:
            total, at = _running_max(field_u, spec.m, pts, gammas)
        else:
            vals = np.abs(field_u.partials(spec.m, pts))
            total = 0.0
            for gamma, row in zip(gammas, vals):
                integral = _finite(float(np.dot(weights, row ** p)), gamma)
                total += multinomial_weight(gamma) * vol * integral
        totals.append(total)
    if degrees:
        value = float(totals[-1] ** (1.0 / p))
        warnings: tuple[str, ...] = ()
        ref = max(abs(totals[-1]), 1e-300)
        if len(totals) == 2 and abs(totals[0] - totals[1]) > RICHARDSON_RTOL * ref:
            warnings = (
                "quadrature degrees %d and %d disagree (rel %.2e); integrand may "
                "be under-resolved"
                % (degrees[0], degrees[1], abs(totals[0] - totals[1]) / ref),
            )
    else:
        value = total
        if at is not None and poly_degree is not None:
            value = max(value, _newton_polish(field_u, *at, t))
        warnings = ("p=inf maximum from dense sampling; value is approximate",)
    return SeminormInfo(
        value=value,
        quadrature_degree=degrees[-1] if degrees else None,
        warnings=warnings,
        approximate_partials=not field_u.exact_partials,
    )


def seminorm(u, t: Tetrahedron, spec: SeminormSpec, degree: int | None = None) -> float:
    """The seminorm value alone; see seminorm_with_info for metadata."""
    return seminorm_with_info(u, t, spec, degree).value
