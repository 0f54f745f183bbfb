"""Randomized experiments connecting geometry, interpolation and seminorms.

The experiments here are the executable form of the package's claims:

* ``error_ratio`` measures |v - I v|_{m,p,T} against the geometric bound
  factor (R_T/h_T)^m * h_T^(k+1-m) * |v|_{k+1,p,T} and reports the quotient,
  the empirical stand-in for the constant C_{k,m,p}.
* ``squeeze_sweep`` tracks that quotient while a reference element is
  squeezed anisotropically; the constant must not blow up as alpha -> 0.
* ``max_residual_quotient`` takes difference quotients of the interpolation
  residual on the reference lattices, which vanish for every field.
* ``equivalence_sample`` samples the two quality quantities R_T and H_T and
  checks H_T/2 <= R_T <= 2 H_T.
* ``mac_experiment`` tests both directions of the maximum angle condition
  equivalence: angle bound implies quality bound, quality bound implies a
  (weaker) angle bound.
* ``convergence_study`` shrinks a fixed element uniformly and fits the
  observed convergence order k+1-m.

Tetrahedron generation is counter-based: each sample draws from its own
Philox stream keyed by (seed, sample index), so the generated list is
bit-for-bit identical no matter how samples are scheduled.  Samples are
drawn and measured in blocks of BLOCK: each sample's variates come from its
own stream in a fixed order, then the rotations (one stacked QR), moves and
geometry (the geom array kernels) run on the whole block.  Rejection runs in
lockstep rounds over the block's pending samples.  Tetrahedron objects are
built only where a result returns them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationFailure, InadmissiblePC
from .expr import field_from_expression
from .geom import (
    EPS_ANGLE,
    TYPE1,
    TYPE2,
    GeometryReport,
    Tetrahedron,
    _check_gamma_max,
    angles,
    batch_classify,
    batch_edge_lengths,
    batch_quality_ratio,
    batch_r_over_h,
    batch_t1_t2,
    batch_volume,
    mac_bound_constants,
    mac_reverse_gamma,
    max_angle_at_most,
    max_face_and_dihedral_angle,
    reference_tetrahedron,
)
from .interp import Polynomial3, monomial_indices, residual
from .lattice import difference_quotient, enumerate_boxes, node_values
from .quad import SeminormSpec, seminorm_with_info, validate_p

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
    sliver in [1e-6, 1e-1]).
    """

    family: str = "uniform"
    seed: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                "unknown family %r; expected one of %s" % (self.family, FAMILIES)
            )


def _stream_state(key: np.ndarray, index: int) -> dict:
    # Sample `index` draws from the Philox stream with counter
    # [0, 0, 0, index]; counters 2^192 apart never collide, so serial and
    # blocked runs draw identical numbers.  One Philox is reset to this state
    # per sample: that costs a fifth of building a new one.
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.array([0, 0, 0, index], dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _philox(seed: int):
    bitgen = np.random.Philox(key=seed)
    return bitgen, np.random.Generator(bitgen), bitgen.state["state"]["key"]


# A draw returns its sample's variates and leaves the arithmetic to _finish:
# (direction, radius) for a point set in the unit ball, or (verts, z, shift)
# for fixed vertices moved by the rotation QR(z) and the translation shift.


def _draw_uniform(rng: np.random.Generator):
    # Radius u^(1/3) times a uniform direction: uniform density in the ball,
    # with a fixed draw count (no rejection) to keep streams aligned.
    return rng.normal(size=(4, 3)), rng.uniform(0.0, 1.0, (4, 1))


def _moved(verts: np.ndarray, rng: np.random.Generator):
    return verts, rng.normal(size=(3, 3)), rng.uniform(-1.0, 1.0, 3)


def _draw_needle(rng: np.random.Generator, eps: float | None):
    if eps is None:
        eps = 10.0 ** rng.uniform(-6.0, 0.0)
    verts = np.array([[0, 0, 0], [1, 0, 0], [0, eps, 0], [0, 0, eps]], dtype=float)
    return _moved(verts, rng)


def _draw_sliver(rng: np.random.Generator, eps: float | None):
    if eps is None:
        eps = 10.0 ** rng.uniform(-6.0, -1.0)
    # Two triangles folded across the x-axis; the dihedral along that common
    # edge is pi - 2*arctan(h), so h = tan(eps/2) puts it at pi - eps.
    h = math.tan(eps / 2.0)
    verts = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, h], [0, -1, h]], dtype=float
    )
    return _moved(verts, rng)


def _draw_squeezed(rng: np.random.Generator, params: dict):
    alpha = np.asarray(params.get("alpha", (1.0, 1.0, 1.0)), dtype=float)
    kind = params.get("kind", TYPE1)
    verts = reference_tetrahedron(kind).as_array() * alpha
    return _moved(verts, rng)


def _draw_near_regular(rng: np.random.Generator, amplitude: float):
    verts = _REGULAR + amplitude * rng.uniform(-1.0, 1.0, (4, 3))
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    return _moved(verts * scale, rng)


def _draw(rng: np.random.Generator, family: str, params: dict, attempt: int):
    if family == "uniform":
        return _draw_uniform(rng)
    if family == "needle":
        return _draw_needle(rng, params.get("eps"))
    if family == "sliver":
        return _draw_sliver(rng, params.get("eps"))
    if family == "squeezed":
        return _draw_squeezed(rng, params)
    # mac: near-regular proposals widened by the angle headroom
    headroom = min(1.0, (params["gamma"] - _MIN_MAX_ANGLE) / _MIN_MAX_ANGLE)
    if attempt % 2 == 0 and headroom > 0.0:
        return _draw_near_regular(rng, 0.6 * headroom)
    return _draw_uniform(rng)


def _finish(draws: list) -> np.ndarray:
    """The (N, 4, 3) vertices of a list of draws.

    Stacked QR, det and matmul give bitwise the results of the same calls
    made one sample at a time.
    """
    out = np.empty((len(draws), 4, 3))
    ball = [i for i, d in enumerate(draws) if len(d) == 2]
    moved = [i for i, d in enumerate(draws) if len(d) == 3]
    if ball:
        direction, radius = (np.array(a) for a in zip(*(draws[i] for i in ball)))
        direction /= np.linalg.norm(direction, axis=2, keepdims=True)
        out[ball] = direction * radius ** (1.0 / 3.0)
    if moved:
        verts, z, shift = (np.array(a) for a in zip(*(draws[i] for i in moved)))
        q, r = np.linalg.qr(z)
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
        flip = np.linalg.det(q) < 0.0
        q[flip, :, 0] = -q[flip, :, 0]
        out[moved] = verts @ q.transpose(0, 2, 1) + shift[:, None, :]
    return out


def _draw_block(gen: TetraGenSpec, start: int, stop: int) -> np.ndarray:
    """Vertices of samples start..stop-1, as an (N, 4, 3) array.

    Rejection runs in lockstep rounds: every pending sample draws its next
    attempt from its own stream, and accepted samples retire.
    """
    bitgen, rng, key = _philox(gen.seed)
    size = stop - start
    families = [gen.family] * size
    if gen.family == "mixed":
        families = [("uniform", "needle", "sliver")[i % 3] for i in range(start, stop)]
    states = [_stream_state(key, i) for i in range(start, stop)]
    out = np.empty((size, 4, 3))
    nondegenerate = np.zeros(size, dtype=int)
    pending = np.arange(size)
    for attempt in range(MAX_ATTEMPTS):
        draws = []
        for i in pending:
            bitgen.state = states[i]
            draws.append(_draw(rng, families[i], gen.params, attempt))
            states[i] = bitgen.state
        verts = _finish(draws)
        ok = ~batch_volume(verts, batch_edge_lengths(verts))[1]
        nondegenerate[pending] += ok
        if gen.family == "mac":
            ok[ok] = max_angle_at_most(verts[ok], gen.params["gamma"])
        out[pending[ok]] = verts[ok]
        pending = pending[~ok]
        if not len(pending):
            return out
    raise GenerationFailure(
        "family %r sample %d: no acceptable tetrahedron in %d attempts "
        "(%d nondegenerate)"
        % (gen.family, start + pending[0], MAX_ATTEMPTS, nondegenerate[pending[0]])
    )


def _reverse_block(seed: int, start: int, stop: int, amplitude: float) -> np.ndarray:
    """Reverse-direction proposals start..stop-1 of mac_experiment: proposal
    j draws from stream j, near-regular for even j, uniform for odd j."""
    bitgen, rng, key = _philox(seed)
    draws = []
    for j in range(start, stop):
        bitgen.state = _stream_state(key, j)
        draws.append(_draw_near_regular(rng, amplitude) if j % 2 == 0 else _draw_uniform(rng))
    return _finish(draws)


def _blocks(gen: TetraGenSpec, n: int):
    """The vertices of samples 0..n-1, one block of at most BLOCK at a time."""
    if n < 1:
        raise ValueError("n must be >= 1, got %r" % (n,))
    if gen.family == "mac":
        gamma = gen.params.get("gamma")
        if gamma is None:
            raise ValueError("mac family needs params['gamma']")
        if gamma < _MIN_MAX_ANGLE:
            raise GenerationFailure(
                "no tetrahedron has maximum angle below acos(1/3) ~= %.6f; "
                "gamma = %.6f is unsatisfiable" % (_MIN_MAX_ANGLE, gamma)
            )
    return (_draw_block(gen, s, min(n, s + BLOCK)) for s in range(0, n, BLOCK))


def generate(gen: TetraGenSpec, n: int) -> list[Tetrahedron]:
    """n tetrahedra from the family; deterministic in (seed, index)."""
    return [Tetrahedron.from_points(v) for block in _blocks(gen, n) for v in block.tolist()]


# ---------------------------------------------------------------------------
# Field corpus


def _barycentric_forms(t: Tetrahedron) -> list[Polynomial3]:
    b = np.ones((4, 4))
    b[1:, :] = np.asarray(t.as_array()).T
    c = np.linalg.inv(b)  # row i: coefficients (c0, cx, cy, cz) of lambda_i
    forms = []
    for i in range(4):
        coeffs = {(0, 0, 0): c[i, 0]}
        for axis, key in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
            coeffs[key] = c[i, axis + 1]
        forms.append(Polynomial3(coeffs))
    return forms


def bubble_polynomial(t: Tetrahedron) -> Polynomial3:
    """The quartic lambda_0*lambda_1*lambda_2*lambda_3 of the element.

    It vanishes on all four faces, hence at every lattice node of degree
    k <= 3; useful as a stress field whose interpolant is zero.
    """
    l0, l1, l2, l3 = _barycentric_forms(t)
    return l0 * l1 * l2 * l3


def _linear_arg(a: np.ndarray, b: float) -> str:
    terms = " + ".join(
        "(%.17g)*%s" % (float(c), var) for c, var in zip(a, ("x", "y", "z"))
    )
    return "%s + (%.17g)" % (terms, float(b))


def corpus(k: int, t: Tetrahedron) -> list[tuple[str, object]]:
    """The fixed 20-field library used by sweeps.

    Five trig fields, four exponentials, four rationals whose pole plane
    stays at distance >= 1 from the element, six random polynomials of
    degree k+2, and the element's bubble.  Coefficients come from a fixed
    key so sweeps are comparable across runs; only the rational shifts and
    the bubble depend on the element.
    """
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
        coeffs = {g: float(rng.uniform(-1.0, 1.0)) for g in monomial_indices(k + 2)}
        fields.append(("poly%d" % i, Polynomial3(coeffs)))
    fields.append(("bubble", bubble_polynomial(t)))
    return fields


# ---------------------------------------------------------------------------
# Error ratios


@dataclass(frozen=True)
class ErrorRatioResult:
    """|v - I v|_{m,p,T} against the geometric bound factor.

    bound_factor = (R_T/h_T)^m * h_T^(k+1-m); ratio = error divided by
    bound_factor * seminorm_hi is the empirical constant.  When seminorm_hi
    is zero to within 1e-14 of scale (v essentially in P_k), the ratio is
    reported as 0 with the indeterminate flag set.
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

    @property
    def spec(self) -> tuple[int, int, float]:
        return (self.k, self.m, self.p)


def error_ratio(v, t: Tetrahedron, k: int, m: int, p: float,
                degree: int | None = None) -> ErrorRatioResult:
    """Measure the interpolation error of v on t against the bound factor."""
    ok, reason = validate_p(k, m, p)
    if not ok:
        raise InadmissiblePC(reason)
    geometry = angles(t)
    h_t = geometry.h[-1]
    u = residual(v, t, k)
    err_info = seminorm_with_info(u, t, SeminormSpec(m, p), degree=degree)
    hi_info = seminorm_with_info(v, t, SeminormSpec(k + 1, p), degree=degree)
    warnings = err_info.warnings + hi_info.warnings
    if hi_info.approximate_partials:
        warnings = warnings + ("seminorm_hi uses finite-difference partials",)
    bound_factor = (geometry.R_T / h_t) ** m * h_t ** (k + 1 - m)
    scale = max(1.0, hi_info.value)
    indeterminate = hi_info.value < 1e-14 * scale
    ratio = 0.0 if indeterminate else err_info.value / (bound_factor * hi_info.value)
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
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Squeeze sweep


@dataclass(frozen=True)
class SweepRow:
    """Worst corpus field at one grid point of a squeeze sweep.

    max_ratio is the bound-factor-normalized ratio; max_scaled is the raw
    seminorm quotient divided by (max alpha)^(k+1-m), the squeezing-theorem
    normalization.
    """

    level: int
    alpha: tuple[float, float, float]
    r_t: float
    h_t: float
    max_ratio: float
    max_scaled: float
    worst_field: str
    worst: ErrorRatioResult


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
    return [(1.0, 2.0 ** -l, 2.0 ** -l) for l in range(levels)]


def _fit_slope(ys: list[float]) -> float:
    # Least-squares slope of log2(y) against the grid index.
    if len(ys) < 2:
        return 0.0
    xs = np.arange(len(ys), dtype=float)
    return float(np.polyfit(xs, np.log2(ys), 1)[0])


def squeeze_sweep(k: int, m: int, p: float, alphas=None, kind: int = TYPE1) -> SweepResult:
    """Track the normalized error ratio while the reference is squeezed.

    For each alpha on the grid the corpus is interpolated on D_alpha applied
    to the reference element; the row keeps the worst field.  trend_ok means
    the squeezing-theorem normalization shows no upward log-log trend
    (slope <= 0.1).
    """
    ok, reason = validate_p(k, m, p)
    if not ok:
        raise InadmissiblePC(reason)
    if alphas is None:
        alphas = default_alpha_grid()
    ref = reference_tetrahedron(kind).as_array()
    fields = corpus(k, Tetrahedron.from_points(ref))
    rows = []
    for level, alpha in enumerate(alphas):
        a = np.asarray(alpha, dtype=float)
        if not np.all((0.0 < a) & (a <= 1.0)):
            raise ValueError("alpha components must lie in (0, 1], got %r" % (alpha,))
        t = Tetrahedron.from_points(ref * a)
        scale_pow = float(np.max(a)) ** (k + 1 - m)
        best = None
        for name, v in fields:
            r = error_ratio(v, t, k, m, p)
            if r.indeterminate:
                continue
            scaled = r.error / (r.seminorm_hi * scale_pow)
            if best is None or r.ratio > best[1]:
                best = (name, r.ratio, scaled, r)
        if best is None:
            raise ValueError("all corpus fields were indeterminate at %r" % (alpha,))
        name, max_ratio, max_scaled, worst = best
        rows.append(SweepRow(
            level=level,
            alpha=(float(a[0]), float(a[1]), float(a[2])),
            r_t=worst.geometry.R_T,
            h_t=worst.geometry.h[-1],
            max_ratio=max_ratio,
            max_scaled=max_scaled,
            worst_field=name,
            worst=worst,
        ))
    ratios = [row.max_ratio for row in rows]
    scaled = [row.max_scaled for row in rows]
    slope = _fit_slope(ratios)
    slope_scaled = _fit_slope(scaled)
    return SweepResult(
        k=k,
        m=m,
        p=p,
        kind=kind,
        rows=tuple(rows),
        field_names=tuple(name for name, _ in fields),
        max_ratio=max(ratios),
        variation_factor=max(ratios) / min(ratios),
        slope=slope,
        slope_scaled=slope_scaled,
        trend_ok=slope_scaled <= 0.1,
    )


# ---------------------------------------------------------------------------
# Residual difference quotients


def max_residual_quotient(k: int, deltas) -> float:
    """The largest |DQ^delta (v - I^k v)| over both reference kinds, the
    corpus fields v, the given deltas and every box of X^k.

    The interpolation residual vanishes at every node, so each quotient is
    zero up to roundoff.
    """
    worst = 0.0
    for kind in (TYPE1, TYPE2):
        ref = reference_tetrahedron(kind)
        for _, v in corpus(k, ref):
            values = node_values(residual(v, ref, k), k, kind)
            for delta in deltas:
                for box in enumerate_boxes(k, delta, kind):
                    worst = max(worst, abs(difference_quotient(values, box.base, delta, k)))
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
    for verts in _blocks(gen, n):
        lengths = batch_edge_lengths(verts)
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
    """Sample both directions of the angle/quality equivalence."""
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
    for verts in _blocks(source, n):
        lengths = batch_edge_lengths(verts)
        r_over = batch_r_over_h(lengths, batch_volume(verts, lengths)[0])
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
        _, perm, alpha = batch_classify(verts, lengths)
        t1, t2 = batch_t1_t2(verts, perm, alpha)
        h_t = lengths.max(axis=1)
        h_over = 6.0 * h_t / (t1 * t2) / h_t
        bad = (h_over > d * (1.0 + 1e-12)) | (r_over > 2.0 * d * (1.0 + 1e-12))
        for i in np.flatnonzero(bad):
            forward_violations.append(
                (Tetrahedron.from_points(verts[i]), float(h_over[i]), float(r_over[i]))
            )

    # Reverse: samples with R_T/h_T <= D must satisfy the per-type converse
    # angle bound.  Near-regular proposals keep the acceptance rate usable
    # even when D is close to its minimum 6*sqrt(2).  Attempts are drawn in
    # chunks sized by the acceptance rate so far; reverse_attempts counts up
    # to the n-th acceptance only.
    reverse_violations = []
    amplitude = 0.6 * max(0.0, min(1.0, d / _REGULAR_QUALITY - 1.0))
    gamma_prime = {kind: mac_reverse_gamma(d, kind) for kind in (TYPE1, TYPE2)}
    checked = 0
    attempts = 0
    cap = 200 * n
    while checked < n and attempts < cap:
        rate = max(checked, 1) / attempts if attempts else 1.0
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


@dataclass(frozen=True)
class ConvergenceLevel:
    h_t: float
    error: float
    seminorm_hi: float
    ratio: float


@dataclass(frozen=True)
class ConvergenceResult:
    """Observed convergence order under uniform shrinking.

    ratio_l = error_l / seminorm_hi_l removes the measure factor carried by
    the high seminorm on a shrinking domain, leaving decay h^(k+1-m);
    orders[i] = log2(ratio_i / ratio_{i+1}).  exact means the error vanished
    at every level (v reproduced by the interpolant).
    """

    k: int
    m: int
    p: float
    expected_order: float
    levels: tuple[ConvergenceLevel, ...]
    orders: tuple[float, ...]
    exact: bool
    warnings: tuple[str, ...] = ()


def convergence_study(v, t0: Tetrahedron, k: int, m: int, p: float,
                      levels: int = 5) -> ConvergenceResult:
    if levels < 3:
        raise ValueError("levels must be >= 3, got %r" % (levels,))
    ok, reason = validate_p(k, m, p)
    if not ok:
        raise InadmissiblePC(reason)
    verts0 = np.asarray(t0.as_array())
    center = verts0.mean(axis=0)
    records = []
    warnings: tuple[str, ...] = ()
    for level in range(levels):
        verts = center + (verts0 - center) * 2.0 ** -level
        t = Tetrahedron.from_points(verts)
        r = error_ratio(v, t, k, m, p)
        warnings = warnings + r.warnings
        ratio = 0.0 if r.indeterminate else r.error / r.seminorm_hi
        records.append(ConvergenceLevel(
            h_t=r.geometry.h[-1],
            error=r.error,
            seminorm_hi=r.seminorm_hi,
            ratio=ratio,
        ))
    scale = max(1.0, max(rec.seminorm_hi for rec in records))
    exact = all(rec.error <= 1e-10 * scale for rec in records)
    orders = ()
    if not exact:
        orders = tuple(
            math.log2(records[i].ratio / records[i + 1].ratio)
            for i in range(len(records) - 1)
        )
    return ConvergenceResult(
        k=k,
        m=m,
        p=p,
        expected_order=float(k + 1 - m),
        levels=tuple(records),
        orders=orders,
        exact=exact,
        warnings=warnings,
    )
