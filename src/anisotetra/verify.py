"""Randomized experiments connecting geometry, interpolation and seminorms.

The experiments here are the executable form of the package's claims:

* ``error_ratio`` measures |v - I v|_{m,p,T} against the geometric bound
  factor (R_T/h_T)^m * h_T^(k+1-m) * |v|_{k+1,p,T} and reports the quotient,
  the empirical stand-in for the constant C_{k,m,p}.  Both seminorms come
  from one sampling loop, so v is evaluated once at the nodes and once per
  sample set, and of the geometry only h_T, |T| and R_T are computed.  Each
  call tests the volume once (angles) and inverts J once, and hands the
  frame's arrays and |T| to interpolation and sampling.
  They take v's exact partials (an expression, a polynomial or a per-gamma
  partial_fn); a plain callable has values only and is refused.
* ``study`` is the one loop over that quotient, every field on every element
  of a sequence.  Its instances: ``squeeze_sweep`` keeps the corpus's worst
  field while D_alpha squeezes the reference (the constant must not blow up as
  alpha -> 0); ``convergence_study`` takes the orders k+1-m of one field on an
  element's halvings, where error_ratio's scale-free flag leaves an order.
* ``max_residual_quotient`` applies the lattice's forward-difference
  stencils to the interpolation residual at the nodes of both reference
  elements; its difference quotients vanish for every field.
* ``equivalence_sample`` samples the two quality quantities R_T and H_T and
  checks H_T/2 <= R_T <= 2 H_T.
* ``mac_experiment`` tests both directions of the maximum angle condition
  equivalence: angle bound implies quality bound, quality bound implies a
  (weaker) angle bound.

Tetrahedron generation is counter-based: each sample draws from its own
Philox stream keyed by (seed, sample index), so the generated list is
bit-for-bit identical no matter how samples are scheduled.  Samples are
drawn and measured in blocks of BLOCK: one generator restarts at each
sample's stream and writes its variates in place into the block's arrays,
then the rotations (one stacked QR), moves and geometry (the geom array
kernels) run on the whole block.  Rejection runs in lockstep rounds over the
block's pending samples.  Tetrahedron objects are built only where a result
returns them.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationFailure, InadmissiblePC, InputError, NumericalError, integer, real
from .expr import field_from_expression
from .geom import (
    EPS_ANGLE,
    TYPE1,
    TYPE2,
    GeometryReport,
    Tetrahedron,
    _check_gamma_max,
    _check_kind,
    angles,
    batch_classify,
    batch_edge_lengths,
    batch_h_t,
    batch_quality_ratio,
    batch_r_over_h,
    batch_standard_position,
    batch_volume,
    mac_bound_constants,
    mac_reverse_gamma,
    max_angle_at_most,
    max_face_and_dihedral_angle,
    reference_tetrahedron,
)
from .interp import (
    Interpolant,
    Polynomial3,
    _check_degree,
    _frame,
    _interpolate,
    _newton,
    _residual,
    as_field,
    monomial_indices,
    pull_back,
    residual,
)
from .lattice import forward_differences, unit_weights
from .quad import SeminormSpec, _seminorms, validate_p

MAX_ATTEMPTS = 10_000          # retry budget per generated sample
BLOCK = 1024                   # samples drawn and measured as one array
_CORPUS_KEY = 727              # fixed key: the corpus is a library, not a sample
_REGULAR = np.array([
    (0.5, 0.5, 0.5),
    (0.5, -0.5, -0.5),
    (-0.5, 0.5, -0.5),
    (-0.5, -0.5, 0.5),
])
# R_T/h_T of the regular tetrahedron, the minimum over all shapes we target
# with the quality-constrained rejection sampler below.
_REGULAR_QUALITY = 6.0 * math.sqrt(2.0)
# Minimum possible maximum angle: the regular tetrahedron's dihedral.
_MIN_MAX_ANGLE = math.acos(1.0 / 3.0)
# The acceptance rate that sizes mac_experiment's first reverse chunk: about
# the lowest over gamma_max (0.61 near pi/3), so a second chunk is rare.
_REVERSE_PRIOR_RATE = 0.6

FAMILIES = ("uniform", "needle", "sliver", "squeezed", "mac", "mixed")


@dataclass(frozen=True)
class TetraGenSpec:
    """A named random family plus seed; params depend on the family.

    uniform            four vertices uniform in the unit ball
    needle(eps)        reference element squeezed to (1, eps, eps), moved
    sliver(eps)        flattened wedge whose largest dihedral is pi - eps
    squeezed(alpha, kind)  D_alpha applied to the kind-1/2 reference, moved
    mac(gamma)         rejection-sampled so that mac_check(t, gamma) holds
    mixed              cycles uniform, needle, sliver per sample index

    eps defaults to a log-uniform draw per sample (needle in [1e-6, 1],
    sliver in [1e-6, 1e-1]); a given eps must be finite and nonzero.  The
    seed, a Philox key, lies in [0, 2**128).
    """

    family: str = "uniform"
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InputError("unknown family %r; expected one of %s" % (self.family, FAMILIES))
        _check_seed(self.seed)
        _check_params(self.params)


def _check_seed(seed, reverse: int = 0):
    # A Philox key has 128 bits; mac_experiment keys its reverse stream with seed + 1.
    try:
        integer(seed, "seed", 0, 2 ** 128 - 1 - reverse)
    except InputError:
        raise InputError("seed must be an integer in [0, 2**128%s), got %r"
                         % (" - 1" * reverse, seed)) from None


def _check_params(params: dict):
    for name in ("eps", "gamma"):
        if params.get(name) is not None:
            real(params[name], "params[%r]" % name, -sys.float_info.max, sys.float_info.max)
    if params.get("eps") == 0:
        raise InputError("params['eps'] must be nonzero: every needle and sliver would be flat")
    if "alpha" in params:
        _alpha(params["alpha"], "params['alpha']", sys.float_info.max)
    if "kind" in params:
        _check_kind(params["kind"])


def _alpha(alpha, name: str, high: float) -> tuple[float, float, float]:
    """alpha as three floats in (0, high]; InputError naming it otherwise."""
    out = tuple(real(a, name) for a in alpha) if np.iterable(alpha) else ()
    if len(out) != 3 or not all(0.0 < a <= high for a in out):
        raise InputError("%s must be three real numbers in (0, %g], got %r" % (name, high, alpha))
    return out


# Sample i draws from the Philox stream keyed by the seed with counter
# [0, 0, 0, i]: a block's one generator starts it by assigning its fresh state
# with counter word 3 set to i.  A draw writes one attempt's variates into row
# j of the block's arrays in stream order, normals into z and numpy's
# next_double into u: UNIFORM z[j] a direction per vertex and u[j, 12:] the
# radii; NEAR u[j, :12] the vertex perturbation and u[j, 12] the log-scale;
# NEEDLE and SLIVER u[j, 12] the log-eps unless params fix eps; then every
# kind but UNIFORM z[j, :3] the rotation QR(z) and u[j, 13:] the shift.
# _finish does on all rows what numpy does per call: uniform(a, b) is
# a + (b - a) * u and normal() is 0.0 + z; 10.0 ** and math.tan stay per
# sample, as geom._float_pow explains.
UNIFORM, NEEDLE, SLIVER, SQUEEZED, NEAR = range(5)


def _draw(rng: np.random.Generator, kind: int, eps, j: int, z: np.ndarray, u: np.ndarray):
    if kind == UNIFORM:
        rng.standard_normal(out=z[j])
        rng.random(out=u[j, 12:])
        return
    if kind == NEAR:
        rng.random(out=u[j, :13])
    elif kind != SQUEEZED and eps is None:
        u[j, 12] = rng.random()
    rng.standard_normal(out=z[j, :3])
    rng.random(out=u[j, 13:])


def _eps(params: dict, x: np.ndarray, high: float) -> list:
    # params' eps, else per row 10^uniform(-6, high) from the variates x.
    if params.get("eps") is not None:
        return [params["eps"]] * len(x)
    return [10.0 ** e for e in (-6.0 + (high + 6.0) * x).tolist()]


def _finish(rows: np.ndarray, kinds: np.ndarray, z: np.ndarray, u: np.ndarray,
            params: dict, amplitude: float) -> np.ndarray:
    """The (N, 4, 3) vertices drawn into rows as kinds.  Stacked QR, det and
    matmul give bitwise the results of the same calls made per sample."""
    out = np.empty((len(rows), 4, 3))
    ball = kinds == UNIFORM
    if ball.any():
        # Radius u^(1/3) times a uniform direction: uniform density in the
        # ball, with a fixed draw count (no rejection) to keep streams aligned.
        i = rows[ball]
        direction = 0.0 + z[i]
        direction /= np.linalg.norm(direction, axis=2, keepdims=True)
        out[ball] = direction * u[i, 12:, None] ** (1.0 / 3.0)
    if ball.all():
        return out
    i, kinds = rows[~ball], kinds[~ball]
    verts = np.zeros((len(i), 4, 3))
    for kind in set(kinds.tolist()):
        sel = kinds == kind
        x = u[i[sel], 12]
        if kind == NEEDLE:
            verts[sel, 1, 0] = 1.0
            verts[sel, 2, 1] = verts[sel, 3, 2] = _eps(params, x, 0.0)
        elif kind == SLIVER:
            # Two triangles folded across the x-axis; the dihedral along that
            # common edge is pi - 2*arctan(h), so h = tan(eps/2) puts it at pi - eps.
            verts[sel, :2, 0] = verts[sel, 2:, 1] = (1.0, -1.0)
            h = [math.tan(e / 2.0) for e in _eps(params, x, -1.0)]
            verts[sel, 2:, 2] = np.array(h)[:, None]
        elif kind == SQUEEZED:
            alpha = np.asarray(params.get("alpha", (1.0, 1.0, 1.0)), dtype=float)
            verts[sel] = reference_tetrahedron(params.get("kind", TYPE1)).as_array() * alpha
        else:
            scale = [10.0 ** e for e in (-1.0 + 2.0 * x).tolist()]
            perturbation = amplitude * (-1.0 + 2.0 * u[i[sel], :12]).reshape(-1, 4, 3)
            verts[sel] = (_REGULAR + perturbation) * np.array(scale)[:, None, None]
    q, r = np.linalg.qr(0.0 + z[i, :3])
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(q) < 0.0
    q[flip, :, 0] = -q[flip, :, 0]
    out[~ball] = verts @ q.transpose(0, 2, 1) + (-1.0 + 2.0 * u[i, 13:])[:, None, :]
    return out


def _draw_block(gen: TetraGenSpec, start: int, stop: int):
    """Samples start..stop-1 as (vertices, edge lengths, volumes), shapes
    (N, 4, 3), (N, 6), (N,), measured once by the degeneracy test.

    Rejection runs in lockstep rounds: every pending sample draws its next
    attempt from its own stream, and accepted samples retire.  Only a
    rejected sample's state is read back: at attempt 1 its stream restarts
    and replays attempt 0, so a rejection costs one extra draw in all.
    """
    bitgen = np.random.Philox(key=gen.seed)
    rng, fresh = np.random.Generator(bitgen), bitgen.state
    size, eps, amplitude = stop - start, gen.params.get("eps"), 0.0
    z, u = np.empty((size, 4, 3)), np.empty((size, 16))
    # kinds[a % 2, j]: row j's draw at attempt a (FAMILIES begin UNIFORM .. SQUEEZED).
    kinds = np.full((2, size), FAMILIES.index(gen.family))
    if gen.family == "mixed":
        kinds[:] = np.arange(start, stop) % 3
    elif gen.family == "mac":
        # Near-regular proposals widened by the angle headroom, then uniform.
        headroom = min(1.0, (gen.params["gamma"] - _MIN_MAX_ANGLE) / _MIN_MAX_ANGLE)
        amplitude = 0.6 * headroom
        kinds[:] = [[NEAR if headroom > 0.0 else UNIFORM], [UNIFORM]]
    draws, states = kinds.tolist(), {}
    out, out_lengths, out_vol = np.empty((size, 4, 3)), np.empty((size, 6)), np.empty(size)
    nondegenerate = np.zeros(size, dtype=int)
    pending = np.arange(size)
    for attempt in range(MAX_ATTEMPTS):
        for j in pending.tolist():
            if attempt < 2:
                fresh["state"]["counter"][3] = start + j
                bitgen.state = fresh
                if attempt:
                    _draw(rng, draws[0][j], eps, j, z, u)
            else:
                bitgen.state = states[j]
            _draw(rng, draws[attempt % 2][j], eps, j, z, u)
            if attempt:
                states[j] = bitgen.state
        verts = _finish(pending, kinds[attempt % 2, pending], z, u, gen.params, amplitude)
        lengths = batch_edge_lengths(verts)
        vol, degenerate = batch_volume(verts, lengths)
        ok = ~degenerate
        nondegenerate[pending] += ok
        if gen.family == "mac":
            ok[ok] = max_angle_at_most(verts[ok], gen.params["gamma"])
        done = pending[ok]
        out[done], out_lengths[done], out_vol[done] = verts[ok], lengths[ok], vol[ok]
        pending = pending[~ok]
        if not len(pending):
            return out, out_lengths, out_vol
    raise GenerationFailure(
        "family %r sample %d: no acceptable tetrahedron in %d attempts "
        "(%d nondegenerate)"
        % (gen.family, start + pending[0], MAX_ATTEMPTS, nondegenerate[pending[0]])
    )


def _reverse_block(seed: int, start: int, stop: int, amplitude: float) -> np.ndarray:
    """Reverse-direction proposals start..stop-1 of mac_experiment: proposal
    j draws from stream j, near-regular for even j, uniform for odd j."""
    bitgen = np.random.Philox(key=seed)
    rng, fresh = np.random.Generator(bitgen), bitgen.state
    z, u = np.empty((stop - start, 4, 3)), np.empty((stop - start, 16))
    kinds = np.where(np.arange(start, stop) % 2 == 0, NEAR, UNIFORM)
    for j, kind in enumerate(kinds.tolist()):
        fresh["state"]["counter"][3] = start + j
        bitgen.state = fresh
        _draw(rng, kind, None, j, z, u)
    return _finish(np.arange(stop - start), kinds, z, u, {}, amplitude)


def _blocks(gen: TetraGenSpec, n: int):
    """Samples 0..n-1 as _draw_block gives them, one block of at most BLOCK
    at a time."""
    n = integer(n, "n", 1)
    if gen.family == "mac":
        gamma = gen.params.get("gamma")
        if gamma is None:
            raise InputError("mac family needs params['gamma']")
        if gamma < _MIN_MAX_ANGLE:
            raise GenerationFailure(
                "no tetrahedron has maximum angle below acos(1/3) ~= %.6f; "
                "gamma = %.6f is unsatisfiable" % (_MIN_MAX_ANGLE, gamma)
            )
    return (_draw_block(gen, s, min(n, s + BLOCK)) for s in range(0, n, BLOCK))


def generate(gen: TetraGenSpec, n: int) -> list[Tetrahedron]:
    """n tetrahedra from the family; deterministic in (seed, index)."""
    return [Tetrahedron.from_points(v) for verts, _, _ in _blocks(gen, n) for v in verts.tolist()]


# ---------------------------------------------------------------------------
# Field corpus


def bubble_polynomial(t: Tetrahedron) -> Interpolant:
    """The quartic lambda_0*lambda_1*lambda_2*lambda_3 of the element.

    Built on the reference element as interpolate builds an interpolant, from
    the exact nodal values prod_i gamma_i/4 at the nodes of degree 4, so a flat
    element cancels no physical monomials.  It is 0 at every lattice node of
    degree k <= 3: a stress field whose interpolant is zero.
    """
    newton, diff = _newton(4)
    return Interpolant(newton @ (diff @ unit_weights(4).prod(axis=1)), 4, *pull_back(t))


def _linear_arg(a: np.ndarray, b: float) -> str:
    terms = " + ".join(
        "(%.17g)*%s" % (float(c), var) for c, var in zip(a, ("x", "y", "z"))
    )
    return "%s + (%.17g)" % (terms, float(b))


def corpus(k: int, t: Tetrahedron) -> list[tuple[str, object]]:
    """The fixed 20-field library used by sweeps.

    Five trig fields, four exponentials, four rationals whose pole plane
    stays at distance >= 1 from the element, six random polynomials of
    degree k+2 (Polynomial3), and the element's bubble (an Interpolant of
    degree 4).  Coefficients come from a fixed key so sweeps are comparable
    across runs; only the rational shifts and the bubble depend on the element.
    """
    k = _check_degree(k)
    rng = np.random.Generator(np.random.Philox(key=_CORPUS_KEY))
    verts = np.asarray(t.as_array())
    fields: list[tuple[str, object]] = []
    for i in range(5):
        a = rng.uniform(-2.0, 2.0, 3)
        b = rng.uniform(0.0, 2.0 * math.pi)
        fn = "sin" if i % 2 == 0 else "cos"
        fields.append(("trig%d" % i, field_from_expression("%s(%s)" % (fn, _linear_arg(a, b)))))
    for i in range(4):
        a = rng.uniform(-1.5, 1.5, 3)
        fields.append(("exp%d" % i, field_from_expression("exp(%s)" % _linear_arg(a, 0.0))))
    for i in range(4):
        a = rng.uniform(-1.0, 1.0, 3)
        # Shift so the denominator is >= 1 everywhere on the element.
        c = 1.0 + rng.uniform(0.0, 1.0) - float(np.min(verts @ a))
        fields.append(("rational%d" % i, field_from_expression("1/(%s)" % _linear_arg(a, c))))
    for i in range(6):
        coef = rng.uniform(-1.0, 1.0, len(monomial_indices(k + 2)))
        fields.append(("poly%d" % i, Polynomial3.dense(coef, k + 2)))
    fields.append(("bubble", bubble_polynomial(t)))
    return fields


# ---------------------------------------------------------------------------
# Error ratios


@dataclass(frozen=True)
class ErrorRatioResult:
    """|v - I v|_{m,p,T} against the geometric bound factor.

    bound_factor = (R_T/h_T)^m * h_T^(k+1-m); ratio = error divided by
    bound_factor * seminorm_hi is the empirical constant.  When seminorm_hi
    is 0, or below 1e-14 of v's own size on t,
    max|v(nodes)| * |T|^(1/p) / h_T^(k+1) (v essentially in P_k), the ratio
    is reported as 0 with the indeterminate flag set.  Both are unchanged
    when v is scaled.
    """

    k: int
    m: int
    p: float
    error: float
    seminorm_hi: float
    bound_factor: float
    ratio: float
    indeterminate: bool
    geometry: GeometryReport
    warnings: tuple[str, ...] = ()


def error_ratio(v, t: Tetrahedron, k: int, m: int, p: float,
                degree: int | None = None) -> ErrorRatioResult:
    """Measure the interpolation error of v on t against the bound factor.

    v is evaluated once at the nodes and once per sample set: both seminorms
    are taken of the residual u = v - I v, since |u|_{k+1,p,T} is
    |v|_{k+1,p,T} (the interpolant's partials above order k vanish).  v
    needs partials of order k + 1, so a plain callable, which is values-only,
    raises DerivativeUnavailable.  Where the bound factor or h_T^(k+1) leaves
    the float range (h_T far from 1 at large k), it raises NumericalError,
    before v is evaluated: both depend on the geometry alone.

    The element's volume test is angles(t)'s, whose |T| is volume(t)
    bitwise; its frame (verts, J^{-T}) is built once, and interpolation,
    every sample set and the p = inf polish read those arrays.
    """
    _check_spec(k, m, p)
    k, m = int(k), int(m)
    geometry = angles(t)  # the one volume test
    h_t = geometry.h[-1]
    _check_degree(k)  # InvalidDegree, as interpolate raises it
    # At extreme scales a power of h_T leaves the float range: a float power
    # raises there, and a product or quotient gives inf or 0.  The factors
    # of the geometry alone are checked before v is evaluated, size after
    # the nodes and before any sampling.
    try:
        bound_factor = (geometry.R_T / h_t) ** m * h_t ** (k + 1 - m)
        h_power = h_t ** (k + 1)
    except OverflowError:
        raise _beyond_range(k, m, h_t) from None
    if not (0.0 < bound_factor < math.inf and h_power > 0.0):
        raise _beyond_range(k, m, h_t)
    v = as_field(v)
    frame = _frame(t.as_array())  # the one inversion; every step reads these arrays
    values, ip = _interpolate(v, frame, k)
    size = float(np.max(np.abs(values))) * geometry.volume ** (1.0 / p) / h_power
    if not size < math.inf:
        raise _beyond_range(k, m, h_t)
    err_info, hi_info = _seminorms(
        _residual(v, ip), frame, geometry.volume,
        [SeminormSpec(m, p), SeminormSpec(k + 1, p)], degree,
    )
    indeterminate = not hi_info.value > 1e-14 * size
    denominator = bound_factor * hi_info.value
    if not (indeterminate or 0.0 < denominator < math.inf):
        raise _beyond_range(k, m, h_t)
    ratio = 0.0 if indeterminate else err_info.value / denominator
    return ErrorRatioResult(
        k=k,
        m=m,
        p=p,
        error=err_info.value,
        seminorm_hi=hi_info.value,
        bound_factor=bound_factor,
        ratio=ratio,
        indeterminate=indeterminate,
        geometry=geometry,
        warnings=err_info.warnings + hi_info.warnings,
    )


def _beyond_range(k: int, m: int, h_t: float) -> NumericalError:
    return NumericalError("the bound factor (R_T/h_T)^%d h_T^%d or h_T^%d at h_T = %.3e leaves "
                          "the float range" % (m, k + 1 - m, k + 1, h_t))


def _check_spec(k, m, p):
    ok, reason = validate_p(k, m, p)
    if not ok:
        raise InadmissiblePC(reason)


def study(elements, fields, k: int, m: int, p: float) -> list[tuple[ErrorRatioResult, ...]]:
    """One tuple of error_ratio results per element, one per (name, v) in fields.
    (k, m, p) is checked before the first element is drawn; elements may be lazy."""
    _check_spec(k, m, p)
    return [tuple(error_ratio(v, t, k, m, p) for _, v in fields) for t in elements]


# ---------------------------------------------------------------------------
# Squeeze sweep


@dataclass(frozen=True)
class SweepRow:
    """Worst corpus field at one grid point of a squeeze sweep.

    r_t and h_t describe the squeezed element; worst_field names the field
    with the largest ratio.  max_ratio is its bound-factor-normalized ratio;
    max_scaled is its raw seminorm quotient divided by (max alpha)^(k+1-m),
    the squeezing-theorem normalization.
    """

    level: int
    alpha: tuple[float, float, float]
    r_t: float
    h_t: float
    max_ratio: float
    max_scaled: float
    worst_field: str


@dataclass(frozen=True)
class SweepResult:
    k: int
    m: int
    p: float
    kind: int
    rows: tuple[SweepRow, ...]
    field_names: tuple[str, ...]
    max_ratio: float
    variation_factor: float
    slope: float
    slope_scaled: float
    trend_ok: bool


def default_alpha_grid(levels: int = 11) -> list[tuple[float, float, float]]:
    """(1, 2^-l, 2^-l) for l = 0 .. levels-1."""
    return [(1.0, 2.0 ** -l, 2.0 ** -l) for l in range(integer(levels, "levels"))]


def _fit_slope(ys: list[float]) -> float:
    # Least-squares slope of log2(y) against the grid index.
    if len(ys) < 2:
        return 0.0
    xs = np.arange(len(ys), dtype=float)
    return float(np.polyfit(xs, np.log2(ys), 1)[0])


def squeeze_sweep(k: int, m: int, p: float, alphas=None, kind: int = TYPE1) -> SweepResult:
    """Track the normalized error ratio while the reference is squeezed.

    A study of the corpus on the reference squeezed by each D_alpha of the
    grid; each row keeps the worst field.  trend_ok means the squeezing-theorem normalization
    shows no upward log-log trend (slope <= 0.1).
    """
    _check_spec(k, m, p)  # before the corpus, which checks k as a degree
    if alphas is not None and not np.iterable(alphas):
        raise InputError("the alpha grid must be a sequence of alphas, got %r" % (alphas,))
    alphas = [_alpha(a, "alpha at level %d" % level, 1.0)
              for level, a in enumerate(default_alpha_grid() if alphas is None else alphas)]
    if not alphas:
        raise InputError("the alpha grid is empty")
    ref = reference_tetrahedron(kind).as_array()
    fields = corpus(k, Tetrahedron.from_points(ref))
    elements = (Tetrahedron.from_points(ref * np.array(alpha)) for alpha in alphas)
    rows = []
    for alpha, results in zip(alphas, study(elements, fields, k, m, p)):
        named = [(name, r) for (name, _), r in zip(fields, results) if not r.indeterminate]
        if not named:
            raise NumericalError("all corpus fields were indeterminate at %r" % (alpha,))
        name, worst = max(named, key=lambda pair: pair[1].ratio)
        rows.append(SweepRow(
            level=len(rows),
            alpha=alpha,
            r_t=worst.geometry.R_T,
            h_t=worst.geometry.h[-1],
            max_ratio=worst.ratio,
            max_scaled=worst.error / (worst.seminorm_hi * max(alpha) ** (k + 1 - m)),
            worst_field=name,
        ))
    ratios = [row.max_ratio for row in rows]
    slope_scaled = _fit_slope([row.max_scaled for row in rows])
    return SweepResult(
        k=k,
        m=m,
        p=p,
        kind=kind,
        rows=tuple(rows),
        field_names=tuple(name for name, _ in fields),
        max_ratio=max(ratios),
        variation_factor=max(ratios) / min(ratios),
        slope=_fit_slope(ratios),
        slope_scaled=slope_scaled,
        trend_ok=slope_scaled <= 0.1,
    )


# ---------------------------------------------------------------------------
# Residual difference quotients


def max_residual_quotient(k: int, deltas) -> float:
    """The largest |DQ^delta (v - I^k v)| over both reference kinds, the
    corpus fields v, the given deltas and every box of X^k: per kind and
    delta, one product of the stencil with the (fields, nodes) residual values,
    scaled by k^|delta| / delta!.

    The interpolation residual vanishes at every node, so each quotient is
    zero up to roundoff.
    """
    k, worst = _check_degree(k), 0.0
    for kind in (TYPE1, TYPE2):
        ref = reference_tetrahedron(kind)
        nodes = unit_weights(k) @ ref.as_array()
        values = np.array([residual(v, ref, k)(nodes) for _, v in corpus(k, ref)])
        for delta in deltas:
            diff = forward_differences(k, delta, kind)[1]
            scale = float(k) ** sum(delta) / math.prod(map(math.factorial, delta))
            worst = max(worst, scale * float(np.max(np.abs(diff @ values.T), initial=0.0)))
    return worst


# ---------------------------------------------------------------------------
# Quality equivalence sampling


@dataclass(frozen=True)
class EquivalenceReport:
    """Sampled check of 1/2 <= R_T/H_T <= 2 with relative slack 1e-9.

    margin is the distance of R_T/H_T to the nearer interval end (negative
    on a violation); the worst sample and the observed ratio range are kept
    so both interval ends can be seen approached.
    """

    n: int
    violations: int
    worst_margin: float
    worst_tetra: Tetrahedron
    min_ratio: float
    max_ratio: float


def equivalence_sample(n: int, gen: TetraGenSpec) -> EquivalenceReport:
    slack = 1e-9
    worst_margin, worst_tetra = math.inf, None
    lo, hi = math.inf, -math.inf
    violations = 0
    for verts, lengths, _ in _blocks(gen, n):
        r = batch_quality_ratio(lengths, batch_classify(verts, lengths)[2])
        lo = min(lo, float(r.min()))
        hi = max(hi, float(r.max()))
        margin = np.minimum(r - 0.5 + slack, 2.0 + slack - r)
        violations += int(np.count_nonzero(margin < 0.0))
        i = int(np.argmin(margin))
        if margin[i] < worst_margin:
            worst_margin, worst_tetra = float(margin[i]), Tetrahedron.from_points(verts[i])
    return EquivalenceReport(
        n=n,
        violations=violations,
        worst_margin=worst_margin,
        worst_tetra=worst_tetra,
        min_ratio=lo,
        max_ratio=hi,
    )


# ---------------------------------------------------------------------------
# Maximum angle condition, both directions


@dataclass(frozen=True)
class MacReport:
    """Sampled check of both directions of the angle/quality equivalence.

    Forward: every sample with max angle <= gamma_max satisfies
    H_T/h_T <= D and R_T/h_T <= 2D.  Reverse: every sample with
    R_T/h_T <= D satisfies the angle bound gamma'(D) of the converse.
    forward_vacuous flags gamma_max below acos(1/3), where no tetrahedron
    can satisfy the angle condition at all.  Counterexamples carry the
    offending vertices verbatim.
    """

    gamma_max: float
    d_bound: float
    reverse_gamma: float
    n: int
    forward_checked: int
    forward_vacuous: bool
    forward_violations: tuple[tuple[Tetrahedron, float, float], ...]
    excluded_count: int
    excluded_max_quality: float | None
    reverse_checked: int
    reverse_attempts: int
    reverse_violations: tuple[tuple[Tetrahedron, float, float], ...]

    @property
    def counterexamples(self) -> int:
        return len(self.forward_violations) + len(self.reverse_violations)


def mac_experiment(n: int, gamma_max: float, seed: int = 0) -> MacReport:
    """Sample both directions of the angle/quality equivalence.  The reverse
    direction draws from key seed + 1, so seed lies in [0, 2**128 - 1)."""
    _check_seed(seed, reverse=1)
    const = mac_bound_constants(gamma_max)
    d = const.D

    # Forward: need samples satisfying the angle condition.  Below acos(1/3)
    # none exist; fall back to filtering a mixed stream so the vacuity is
    # observed rather than assumed.
    if gamma_max >= _MIN_MAX_ANGLE:
        source = TetraGenSpec(family="mac", seed=seed, params={"gamma": gamma_max})
        filtered = False
    else:
        source, filtered = TetraGenSpec(family="mixed", seed=seed), True
    forward_violations = []
    forward_checked = excluded_count = 0
    excluded_max = None
    for verts, lengths, vol in _blocks(source, n):
        r_over = batch_r_over_h(lengths, vol)
        if filtered:
            keep = max_angle_at_most(verts, gamma_max + EPS_ANGLE)
            if not keep.all():
                worst = float(r_over[~keep].max())
                excluded_max = worst if excluded_max is None else max(excluded_max, worst)
                excluded_count += int(np.count_nonzero(~keep))
                verts, lengths, r_over = verts[keep], lengths[keep], r_over[keep]
        forward_checked += len(verts)
        if not len(verts):
            continue
        kind, perm, alpha, _, _ = batch_classify(verts, lengths)
        params = batch_standard_position(verts, kind, perm, alpha)[0]
        h_over = batch_h_t(lengths, params) / lengths.max(axis=1)
        bad = (h_over > d * (1.0 + 1e-12)) | (r_over > 2.0 * d * (1.0 + 1e-12))
        for i in np.flatnonzero(bad):
            forward_violations.append(
                (Tetrahedron.from_points(verts[i]), float(h_over[i]), float(r_over[i]))
            )

    # Reverse: samples with R_T/h_T <= D must satisfy the per-type converse
    # angle bound.  Near-regular proposals keep the acceptance rate usable
    # even when D is close to its minimum 6*sqrt(2).  Attempts are drawn in
    # chunks sized by the acceptance rate so far, the first by a prior rate;
    # reverse_attempts counts up to the n-th acceptance only.
    reverse_violations = []
    amplitude = 0.6 * max(0.0, min(1.0, d / _REGULAR_QUALITY - 1.0))
    gamma_prime = {kind: mac_reverse_gamma(d, kind) for kind in (TYPE1, TYPE2)}
    checked = 0
    attempts = 0
    cap = 200 * n
    while checked < n and attempts < cap:
        rate = max(checked, 1) / attempts if attempts else _REVERSE_PRIOR_RATE
        stop = min(cap, attempts + BLOCK, attempts + math.ceil((n - checked) / rate) + 8)
        verts = _reverse_block(seed + 1, attempts, stop, amplitude)
        lengths = batch_edge_lengths(verts)
        vol, degenerate = batch_volume(verts, lengths)
        good = np.flatnonzero(~degenerate)
        r_over = batch_r_over_h(lengths[good], vol[good])
        take = r_over <= d
        accepted, r_over = good[take][: n - checked], r_over[take][: n - checked]
        checked += len(accepted)
        attempts = attempts + int(accepted[-1]) + 1 if checked == n else stop
        if not len(accepted):
            continue
        verts, lengths = verts[accepted], lengths[accepted]
        kind = batch_classify(verts, lengths)[0]
        # As mac_check does: the converse angle reaches pi as gamma_max does.
        for k in set(kind.tolist()):
            _check_gamma_max(gamma_prime[k])
        bound = np.where(kind == TYPE1, gamma_prime[TYPE1], gamma_prime[TYPE2]) + EPS_ANGLE
        for i in np.flatnonzero(~max_angle_at_most(verts, bound)):
            t = Tetrahedron.from_points(verts[i])
            reverse_violations.append((t, max_face_and_dihedral_angle(t), float(r_over[i])))
    if checked < n:
        raise GenerationFailure(
            "reverse direction: only %d of %d samples with R_T/h_T <= %.6g "
            "found in %d attempts" % (checked, n, d, attempts)
        )

    return MacReport(
        gamma_max=gamma_max,
        d_bound=d,
        reverse_gamma=mac_reverse_gamma(d, None),
        n=n,
        forward_checked=forward_checked,
        forward_vacuous=not forward_checked,
        forward_violations=tuple(forward_violations),
        excluded_count=excluded_count,
        excluded_max_quality=excluded_max,
        reverse_checked=checked,
        reverse_attempts=attempts,
        reverse_violations=tuple(reverse_violations),
    )


# ---------------------------------------------------------------------------
# Convergence study

# Elements per study: t0 shrunk about its centroid by 2^0 .. 2^-(LEVELS-1).
CONVERGENCE_LEVELS = 5


@dataclass(frozen=True)
class ConvergenceResult:
    """Observed convergence order under uniform shrinking.

    ratio_l = error_l / seminorm_hi_l removes the measure factor carried by
    the high seminorm on a shrinking domain, leaving decay h^(k+1-m);
    orders[i] = log2(ratio_i / ratio_{i+1}) over CONVERGENCE_LEVELS levels.
    exact means there is no order to observe, and orders is empty: every
    level's ratio is 0, because its error vanished (v reproduced by the
    interpolant) or its seminorm_hi is indeterminate (v in P_k up to
    roundoff).  That is error_ratio's scale-free flag, so neither orders nor
    exact change when v is scaled.
    """

    k: int
    m: int
    p: float
    orders: tuple[float, ...]
    exact: bool


def convergence_study(v, t0: Tetrahedron, k: int, m: int, p: float) -> ConvergenceResult:
    """The orders between the ratios of a study of v on t0 and its halvings.  A
    level with ratio 0 (indeterminate, or an error of exactly 0) among levels
    that are not all so raises NumericalError."""
    verts0 = np.asarray(t0.as_array())
    center = verts0.mean(axis=0)
    elements = (Tetrahedron.from_points(center + (verts0 - center) * 2.0 ** -level)
                for level in range(CONVERGENCE_LEVELS))
    results = [r for (r,) in study(elements, [("v", v)], k, m, p)]
    ratios = [0.0 if r.indeterminate else r.error / r.seminorm_hi for r in results]
    exact = not any(ratios)
    if not exact and 0.0 in ratios:
        r = results[ratios.index(0.0)]
        raise NumericalError(
            "convergence level %d has ratio 0 (error %.3e, seminorm_hi %.3e) among levels that "
            "do not; no order spans it" % (ratios.index(0.0), r.error, r.seminorm_hi)
        )
    orders = () if exact else tuple(math.log2(a / b) for a, b in zip(ratios, ratios[1:]))
    return ConvergenceResult(k=k, m=m, p=p, orders=orders, exact=exact)
