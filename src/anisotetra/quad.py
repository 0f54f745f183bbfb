"""Quadrature on tetrahedra and Sobolev seminorms |u|_{m,p,T}.

Rules come from the collapsed-coordinate map of the unit cube onto the unit
right-corner tetrahedron, x = u, y = v(1-u), z = w(1-u)(1-v), whose Jacobian
(1-u)^2 (1-v) is absorbed exactly by Gauss-Jacobi weights: the n-point
rules lattice.gauss_jacobi(n, a) for the weights (1-x)^2 in u, (1-x)^1 in v
and (1-x)^0 (Gauss-Legendre) in w integrate every polynomial of total degree
<= 2n-1 exactly.  Nodes are stored in barycentric coordinates with weights
normalized to sum one, so a rule transfers to any tetrahedron by an affine
map and a volume factor; a cached rule is read-only.

The seminorm follows the weighted convention

    |u|_{m,p,T}^p = sum_{|gamma| = m} (m!/gamma!) int_T |d^gamma u|^p.

The samples |d^gamma u| are the field's own partials, which are exact for
every field (interp.ScalarField); a plain callable has values only, so it
gets |u|_{0,p,T} and a higher order raises DerivativeUnavailable.

One sampling loop, _seminorms, serves seminorms of one field and one p on
one element: verify.error_ratio's two and the one of seminorm_with_info, the
public entry, a wrapper.  Both pass the element, whose |T| and frame it
measured once (geom.volume, interp.pull_back).
Sample sets are cached interp.SampleSets, read-only barycentric rows placed
on the element once per call, so that every interpolant (and any polynomial
in that frame) reads its cached monomial table at them instead of mapping
points back through J^{-T}.  For finite p every rule the specs need
is stacked into one sample set; one call, partials_of(orders, samples),
samples |d^gamma u| there for every |gamma| = m of every order, and each
spec reduces its own rules' rows by the weighted p-sum, one product per rule
with the multinomial weights; _rule_degrees is the one place that picks
their degrees.  Every sample is first divided by the largest sample of all
the spec's rules, so the largest term of every sum is exactly 1 and no p-th
power overflows or underflows at any admissible p (10^400 would overflow,
0.7^3000 underflow); the value is that largest sample times the p-th root,
and the 12/18 agreement check compares the scaled sums.  What a call does
before it touches a sample is fixed by its field's polynomial degree, its
specs and an explicit quadrature degree, so it is one cached _Plan per such
key (never per element or field; degree and specs are checked before the
lookup): every spec's rule degrees, the stack in sorted-degree order (a
matrix product's bits depend on where its slice starts, so the layout is
fixed), each spec's rows as runs of adjacent rows of that stack (two runs
where another spec's rule lies between its rules), the orders to sample,
the p = infinity grouping and the fixed warnings.  Each step reads a run
once: its largest sample, finite exactly when every sample is, so the rows
are scanned per gamma only when it is not, then one division and one p-th
power in place; the weighted sums and the 12/18 check stay per rule.
For p = infinity the sample set is the dense lattice X^DENSE_LATTICE_ORDER of the
cached lattice.unit_weights table, cached as blocks of at most BLOCK points,
one partials_of call each: each gamma keeps a running maximum, which equals
the maximum of one unblocked pass, and for polynomials one constrained
Newton step polishes it, with value, gradient and Hessian from one call,
where degree - m >= 2; this route is documented as approximate and takes no
quadrature degree.  Where a polynomial has degree - m <= 1, every d^gamma u
is affine, so |d^gamma u| peaks at a vertex (and the Hessian, the zero
partials of order m + 2, gives no step): the spec samples one cached block
of the four vertices, which the lattice holds too, placed at x = verts[i]
exactly, through the same running maximum.  That is exact, so it carries no
warning (nor does the exact 0 of an order above the degree), and it takes
every corpus polynomial's |v|_{k+1,inf} (degree k + 2) and a reproduced q in
P_k at m >= k - 1 off the lattice.  A sampled value that is not finite
raises NumericalError, for the first such gamma in order, the first seminorm
first, and for one seminorm its first rule first.  A degenerate element
raises DegenerateTetrahedron at every p.

Every call opts in to interp.RankOne results, which a ridge expression (and
its residual above k) gives: d^gamma u = row(x) column_gamma gamma!, never
formed as an array.  Its maximum over a block is at the first point where
|row| peaks, |fl(fl(row_i column) gamma!)| for every gamma, bitwise the
array's maximum since rounding is monotone and sign-symmetric, and finite
exactly when the array is.  Its p-sum is (sum_gamma weight_gamma |column_gamma
gamma!|^p) (sum_x w_x |row_x|^p), each factor divided by its own largest
term; the 12/18 check so compares the row sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InputError, NumericalError, UnsupportedDegree, integer, real
from .geom import Tetrahedron, volume
from .interp import (
    RankOne,
    SampleSet,
    ScalarField,
    _factorials,
    _xi,
    as_field,
    derivative_indices,
)
from .lattice import gauss_jacobi, unit_weights

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

    def points_on(self, vertices) -> np.ndarray:
        return self.nodes @ np.asarray(vertices, dtype=float)


@lru_cache(maxsize=64, typed=True)  # typed, or True would find a cached 1
def rule_for_degree(d: int) -> QuadratureRule:
    """A rule exact for all polynomials of total degree <= d."""
    d = integer(d, "quadrature degree", 1, MAX_RULE_DEGREE, UnsupportedDegree)
    n = (d + 2) // 2  # smallest n with 2n-1 >= d
    (xu, wu), (xv, wv), (xw, ww) = (gauss_jacobi(n, a) for a in (2, 1, 0))
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
    bary.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(nodes=bary, weights=weights)


@dataclass(frozen=True)
class SeminormSpec:
    """Order m (stored as a Python int) and exponent p (math.inf allowed);
    an order that is not an integer >= 0 or a p that is not a real >= 1
    raises InputError."""

    m: int
    p: float

    def __post_init__(self):
        object.__setattr__(self, "m", integer(self.m, "seminorm order m"))
        real(self.p, "exponent p", 1.0)


def validate_p(k: int, m: int, p: float) -> tuple[bool, str]:
    """Admissibility of (k, m, p) for the interpolation error estimates.

    Three branches: k - m = 0 needs 2 < p <= inf; k = 1 (with m = 0) needs
    3/2 < p <= inf; k >= 2 with k - m >= 1 allows 1 <= p <= inf.  k and m
    must be integers with k >= 1 and 0 <= m <= k, and p a real number.
    """
    try:
        k, m, _ = integer(k, "k", 1), integer(m, "m", 0, k), real(p, "p")
    except InputError as exc:
        return False, str(exc)
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


@lru_cache(maxsize=16)
def _multinomial_weights(m: int) -> np.ndarray:
    """|gamma|!/gamma! for every |gamma| = m, in derivative_indices(m) order,
    as a read-only vector: m! over interp's table of gamma!, the correctly
    rounded quotient of the integers for m <= 22, where m! is a float."""
    out = math.factorial(m) / _factorials(m)[:, 0]
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class SeminormInfo:
    """Value plus evaluation metadata for reports."""

    value: float
    quadrature_degree: int | None
    warnings: tuple[str, ...] = ()


def _check_finite(finite: np.ndarray, gammas: list):
    """NumericalError naming the first gamma, in order, whose entry of
    `finite` (are all its samples finite?) is False."""
    if not finite.all():
        gamma = gammas[int(np.argmin(finite))]
        raise NumericalError("d^%s u is not finite where the seminorm samples it" % (gamma,))


def _peak(pair: RankOne) -> tuple[int, np.ndarray]:
    """The first point i where |row| is largest (the first NaN, if any) and,
    for every gamma, |fl(fl(row[i] column) scale)|: the maximum of |d^gamma u|
    over the array pair stands for, attained at i because rounding is
    monotone and sign-symmetric, and finite exactly when all of it is."""
    i = int(np.argmax(np.abs(pair.row)))
    with np.errstate(all="ignore"):  # callers check finiteness
        return i, np.abs((pair.row[i] * pair.column) * pair.scale)


def _inside(x: np.ndarray, t: Tetrahedron) -> bool:
    """Is x in the element t, up to INSIDE_TOL in barycentric terms?"""
    lam = _xi(x, t)
    return bool(lam.min() >= -INSIDE_TOL and lam.sum() <= 1.0 + INSIDE_TOL)


def _newton_polish(field_u: ScalarField, gamma: MultiIndex, x0: np.ndarray,
                   t: Tetrahedron) -> float:
    """One constrained Newton step toward a local extremum of |d^gamma u|.

    Value, gradient and Hessian are the rows gamma, gamma + e_i and
    gamma + e_i + e_j of the field's partials of orders |gamma|, |gamma| + 1
    and |gamma| + 2 at x0, from one call; the step is taken only inside the
    element t.
    """
    m, e = sum(gamma), np.eye(3, dtype=int)
    row = derivative_indices(m).index(gamma)
    value, first, second = (a[:, 0] for a in field_u.partials_of((m, m + 1, m + 2), x0[None, :]))
    val0 = float(value[row])
    sign = 1.0 if val0 >= 0 else -1.0
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
    if not _inside(x1, t):
        return abs(val0)
    val1 = sign * float(field_u.partials(m, x1[None, :])[row, 0])
    return max(abs(val0), val1 if val1 > 0 else abs(val0))


class _RunningMax:
    """max |d^gamma u| over the blocks seen and every |gamma| = m, with the
    first gamma and point that attain it, as one unblocked pass in gamma
    order would find them: each gamma keeps the earliest point of its maximum
    (of a RankOne, the first point where |row| peaks, which attains it)."""

    def __init__(self, m: int):
        self.gammas = derivative_indices(m)
        self.rows = np.arange(len(self.gammas))
        self.best = np.zeros(len(self.gammas))
        self.where = np.zeros((len(self.gammas), 3))
        self.finite = np.ones(len(self.gammas), dtype=bool)

    def add(self, vals, block: np.ndarray):
        """Take in |vals| at the block's points: an array or a RankOne, whose
        every gamma peaks at one point (_peak)."""
        if isinstance(vals, RankOne):
            i, top = _peak(vals)
            at = block[i]  # every gamma's point
        else:
            np.abs(vals, out=vals)  # partials_of hands its arrays to the caller
            idx = np.argmax(vals, axis=1)  # the first NaN, if there is one
            top, at = vals[self.rows, idx], block[idx]
        self.finite &= np.isfinite(top)
        up = top > self.best
        self.best[up], self.where[up] = top[up], at[up] if at.ndim == 2 else at

    def result(self):
        """The maximum and (gamma, point), None when it is 0; NumericalError
        for the first gamma with a sample that is not finite."""
        _check_finite(self.finite, self.gammas)
        g = int(np.argmax(self.best))
        return float(self.best[g]), ((self.gammas[g], self.where[g]) if self.best[g] > 0 else None)


def _checked_degree(p: float, degree) -> int | None:
    """An explicit quadrature degree for seminorms of exponent p as a Python
    int, None for none: UnsupportedDegree at p = inf, which samples a
    lattice, or where it is not an integer in [1, MAX_RULE_DEGREE]."""
    if degree is None:
        return None
    if p == math.inf:
        raise UnsupportedDegree("a quadrature degree applies to finite p only; p = inf samples "
                                "a lattice, got degree %r" % (degree,))
    return integer(degree, "quadrature degree", 1, MAX_RULE_DEGREE, UnsupportedDegree)


def _rule_degrees(
    spec: SeminormSpec, poly_degree: int | None, degree: int | None
) -> tuple[int, ...]:
    """Exactness degrees of the rules that measure |u|_{m,p,T}, for a degree
    that _checked_degree passed.

    An explicit degree wins; an even integer p on a polynomial gets the one
    rule that is exact for |d^gamma u|^p when there is one; anything else
    gets the 12/18 pair whose agreement is checked.  p = inf samples a
    lattice instead (no rules).
    """
    if spec.p == math.inf:
        return ()
    if degree is not None:
        return (degree,)
    p = float(spec.p)
    if poly_degree is not None and p == int(p) and int(p) % 2 == 0:
        exact_deg = max(1, (poly_degree - spec.m) * int(p))
        if exact_deg <= MAX_RULE_DEGREE:
            return (exact_deg,)
    return (DEFAULT_NUMERIC_DEGREE, RICHARDSON_DEGREE)


@lru_cache(maxsize=32)
def _rule_stack(degrees: tuple[int, ...]) -> tuple[SampleSet, dict]:
    """The rules of the given degrees stacked into one sample set, and each
    degree's rows of it."""
    rules = [rule_for_degree(d).nodes for d in degrees]
    stops = np.cumsum([len(r) for r in rules]).tolist()
    rows = {d: slice(stop - len(r), stop) for d, r, stop in zip(degrees, rules, stops)}
    return SampleSet(np.concatenate(rules)), rows


@lru_cache(maxsize=1)
def _lattice_blocks() -> tuple[SampleSet, ...]:
    """X^DENSE_LATTICE_ORDER in blocks of at most BLOCK points."""
    lattice = unit_weights(DENSE_LATTICE_ORDER)
    return tuple(map(SampleSet, np.array_split(lattice, -(-len(lattice) // BLOCK))))


@lru_cache(maxsize=1)
def _vertex_blocks() -> tuple[SampleSet, ...]:
    """The four vertices as one block, placed at x = verts[i] exactly."""
    return (SampleSet(np.eye(4)),)


class _Reduction(NamedTuple):
    """How a finite-p spec of order m reduces its samples on a stack: gammas
    are derivative_indices(m); runs its rows as maximal runs of adjacent rows
    of the stack, each scanned, divided and raised to p in one pass; rows and
    weights each rule's slice of the stack and weights, in the order of
    degrees, the rules' exactness degrees, for the per-rule sums."""

    gammas: list
    runs: tuple
    rows: tuple
    weights: tuple
    degrees: tuple


def _reduction(m: int, degrees: tuple, rows: dict) -> _Reduction:
    """The _Reduction of order m over the rules of the given degrees, whose
    slices of the stack rows holds."""
    runs = []
    for r in sorted((rows[d] for d in degrees), key=lambda r: r.start):
        if runs and runs[-1].stop == r.start:
            runs[-1] = slice(runs[-1].start, r.stop)
        else:
            runs.append(r)
    return _Reduction(derivative_indices(m), tuple(runs), tuple(rows[d] for d in degrees),
                      tuple(rule_for_degree(d).weights for d in degrees), degrees)


@dataclass(frozen=True)
class _Plan:
    """What _seminorms does for one (polynomial degree, specs, degree), fixed
    before any sample is taken.

    stack holds every rule the live finite-p specs take (a spec is live
    unless its order is above the polynomial degree, where every partial is
    0), one sample set in sorted-degree order, and sampled those specs, whose
    orders are sampled on it in one call.  groups holds the vertex block and
    the lattice blocks, each with the live p = inf specs that sample it and
    their orders; polish the specs whose lattice maximum is polished.  steps
    holds per spec its _Reduction (a live finite p), the warnings of its
    maximum (a live p = inf) or its fixed result (a spec that is not live).
    """

    stack: SampleSet | None
    sampled: tuple[int, ...]
    orders: tuple[int, ...]
    groups: tuple
    polish: frozenset
    steps: tuple


@lru_cache(maxsize=128)
def _plan(poly_degree: int | None, specs: tuple, degree: int | None) -> _Plan:
    """The _Plan of checked specs on a field of polynomial degree
    poly_degree (None: not a polynomial) with a degree that _checked_degree
    passed; cached, so that a run of calls with the same seminorms builds it
    once."""
    rule_degrees = [_rule_degrees(spec, poly_degree, degree) for spec in specs]
    # Every d^gamma u is 0 above a known polynomial degree.  specs share one p.
    live = [i for i, spec in enumerate(specs) if poly_degree is None or spec.m <= poly_degree]
    sampled, peaked = (tuple(live), []) if specs[0].p != math.inf else ((), live)
    # A polynomial's partials of order m >= degree - 1 are affine and peak at
    # a vertex; its other maxima are polished where the Hessian can be nonzero.
    affine = [i for i in peaked if poly_degree is not None and poly_degree - specs[i].m <= 1]
    lattice = [i for i in peaked if i not in affine]
    groups = tuple((blocks, tuple(group), tuple(specs[i].m for i in group))
                   for blocks, group in ((_vertex_blocks(), affine), (_lattice_blocks(), lattice))
                   if group)
    stack, rows = (None, {})
    if sampled:
        stack, rows = _rule_stack(tuple(sorted({d for i in sampled for d in rule_degrees[i]})))
    steps = []
    for i, spec in enumerate(specs):
        if i not in live:
            steps.append(SeminormInfo(0.0, rule_degrees[i][-1] if rule_degrees[i] else None))
        elif spec.p != math.inf:
            steps.append(_reduction(spec.m, rule_degrees[i], rows))
        else:
            # Where degree - m <= 1 the value is exact: a vertex maximum (and
            # 0 above the degree, which is not live).  A lattice maximum is not.
            steps.append(() if i in affine else (
                "p=inf maximum from dense sampling; value is approximate",))
    return _Plan(stack, sampled, tuple(specs[i].m for i in sampled), groups,
                 frozenset(lattice if poly_degree is not None else ()), tuple(steps))


def _seminorms(field_u: ScalarField, t: Tetrahedron, specs,
               degree: int | None) -> list[SeminormInfo]:
    """|u|_{m,p,T} plus metadata for each of specs, SeminormSpecs of one p,
    errors in spec order, on the element t: every sample set is placed on
    t, the frame an interpolant on t holds, and a polish step is tested
    against it.  |T| is read first, so a degenerate element raises
    DegenerateTetrahedron before degree is checked, which is before _plan."""
    vol = volume(t)
    degree = _checked_degree(specs[0].p, degree)
    plan = _plan(field_u.degree, tuple(specs), degree)
    samples = {}  # per spec, |partials| or a RankOne over the stack
    if plan.sampled:
        orders = plan.orders
        for i, v in zip(plan.sampled,
                        field_u.partials_of(orders, plan.stack.on(t), rank_one=orders)):
            if not isinstance(v, RankOne):
                np.abs(v, out=v)  # partials_of hands its arrays to the caller
            samples[i] = v
    peaks = {i: _RunningMax(specs[i].m) for _, group, _ in plan.groups for i in group}
    for blocks, group, orders in plan.groups:
        for block in blocks:
            placed = block.on(t)
            for i, vals in zip(group, field_u.partials_of(orders, placed, rank_one=orders)):
                peaks[i].add(vals, placed.x)
    out = []
    for i, spec in enumerate(specs):
        step = plan.steps[i]
        if isinstance(step, _Reduction):
            out.append(_p_sum(spec, samples[i], step, vol))
        elif i in peaks:
            value, at = peaks[i].result()
            if at is not None and i in plan.polish:  # a polish step stays inside t
                value = max(value, _newton_polish(field_u, *at, t))
            out.append(SeminormInfo(value, None, step))
        else:
            out.append(step)
    return out


def _p_sum(spec: SeminormSpec, vals, plan: _Reduction, vol: float) -> SeminormInfo:
    """|u|_{m,p,T} from |d^gamma u| sampled on a stack of rules, an array
    this overwrites, or from a RankOne of d^gamma u there; plan holds the
    spec's runs and each rule's rows of the stack.  With two rules comes the
    12/18 agreement warning.  The totals are the p-sums of the samples over
    their largest, top, whose largest term is 1, so none overflows or
    underflows; the value is top * total^(1/p), and NumericalError when that
    is not a float.

    Each run of adjacent rows is read once per step: its largest sample,
    then one division and one p-th power in place; the weighted sums stay
    per rule.  Finiteness comes from the largest samples, which are finite
    exactly when every sample is; only when they are not are the rules
    scanned in order, per gamma, to name the first."""
    p = float(spec.p)
    weights = _multinomial_weights(spec.m) * vol
    if isinstance(vals, RankOne):
        totals, top = _rank_one_totals(vals, plan, weights, p)
    else:
        peaks = [vals[:, r].max() for r in plan.runs]
        if not np.isfinite(peaks).all():
            for r in plan.rows:
                _check_finite(np.isfinite(vals[:, r]).all(axis=1), plan.gammas)
        top = _scaled(vals, plan.runs, max(peaks), p)
        totals = [float(weights @ (vals[:, r] @ w)) for r, w in zip(plan.rows, plan.weights)]
    value = top * totals[-1] ** (1.0 / p)
    if math.isinf(value):
        raise NumericalError("|u|_{%d,%s,T} exceeds the float range" % (spec.m, p))
    warnings: tuple[str, ...] = ()
    ref = max(abs(totals[-1]), 1e-300)
    degrees = plan.degrees
    if len(totals) == 2 and abs(totals[0] - totals[1]) > RICHARDSON_RTOL * ref:
        warnings = (
            "quadrature degrees %d and %d disagree (rel %.2e); integrand may "
            "be under-resolved"
            % (degrees[0], degrees[1], abs(totals[0] - totals[1]) / ref),
        )
    return SeminormInfo(value, degrees[-1], warnings)


def _scaled(samples: np.ndarray, runs, top, p: float) -> float:
    """Overwrite samples' columns in runs with (sample / top)^p, top the
    largest of them made a float by _largest, and return that."""
    top = _largest(top)
    for r in runs:
        part = samples[..., r]
        part /= top
        part **= p
    return top


def _largest(top) -> float:
    """top, the largest of some finite samples |d^gamma u|, as a Python float,
    whose products overflow to inf rather than into a numpy warning; 1.0 when
    it is 0, where every sample is 0 and dividing by 1.0 gives 0, not NaN."""
    return float(top) or 1.0


def _rank_one_totals(pair: RankOne, plan: _Reduction, weights: np.ndarray,
                     p: float) -> tuple[list, float]:
    """The p-sums of a RankOne over a stack of rules (plan as _p_sum's) over
    their largest, top, as (sum_gamma weights |column
    scale|^p) (sum_x w_x |row_x|^p) with each factor divided by its largest
    term, without forming the array.  |column| is divided by its largest
    entry before scale multiplies it, so that no product overflows where the
    array is finite; the 12/18 agreement is that of the row sums.

    The array is finite exactly when its entries at the largest |row| are
    (_peak: rounding is monotone and sign-symmetric), so one check at that
    peak, before any sum, stands for every rule's; where it fails, each
    rule's _peak is checked in order, to name the first gamma."""
    row = np.abs(pair.row)
    peaks = [row[r].max() for r in plan.runs]
    with np.errstate(all="ignore"):  # inf or NaN here is the error path
        finite = np.isfinite((np.max(peaks) * pair.column) * pair.scale).all()
    if not finite:
        for r in plan.rows:
            _check_finite(np.isfinite(_peak(pair._replace(row=pair.row[r]))[1]), plan.gammas)
    column = np.abs(pair.column)
    shrink = _largest(column.max())
    column = column / shrink * pair.scale
    lift = _largest(column.max())
    colsum = float(weights @ (column / lift) ** p)
    rtop = _scaled(row, plan.runs, max(peaks), p)
    totals = [colsum * float(row[r] @ w) for r, w in zip(plan.rows, plan.weights)]
    # lift >= 1 multiplies last, so no partial product of the largest
    # sample overflows where the sample itself is finite.
    return totals, shrink * rtop * lift


def seminorm_with_info(
    u, t: Tetrahedron, spec: SeminormSpec, degree: int | None = None
) -> SeminormInfo:
    """|u|_{m,p,T} plus quadrature metadata and warnings.

    u is anything interp.as_field accepts, whose polynomial degree picks the
    exact rule at even p and the p = inf polish.  degree fixes the quadrature
    exactness for finite p (UnsupportedDegree outside [1, MAX_RULE_DEGREE],
    and at p = inf, which samples a lattice); a spec that is not a
    SeminormSpec raises InputError.  A wrapper around _seminorms on t, which
    raises DegenerateTetrahedron at every p.
    """
    if not isinstance(spec, SeminormSpec):
        raise InputError("spec must be a SeminormSpec, got %r" % (spec,))
    return _seminorms(as_field(u), t, (spec,), degree)[0]
