"""Per-layer tracing from outside the library.

Nothing in ``anisotetra`` is patched.  A traced operation is replayed as
the sequence of public calls the library composes internally, and each
call is timed here.  Field callables that the benchmark passes in are
wrapped so that time spent in expression partials, and the points a
seminorm evaluates, can be counted without touching ``src/``.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from anisotetra import (
    AnisotetraError,
    DegenerateTetrahedron,
    ErrorRatioResult,
    IllConditionedBasis,
    ScalarField,
    SeminormSpec,
    TetraGenSpec,
    angles,
    classify,
    corpus,
    generate,
    interpolate,
    mac_check,
    mac_experiment,
    nodes_on,
    parse_expression,
    quality_ratio,
    residual,
    seminorm_with_info,
    standard_position,
)
from anisotetra.cli import main as cli_main

INF = math.inf


class CliExit(Exception):
    """cli.main returned a nonzero exit code (a failed call, not a wrong result)."""

    def __init__(self, code: int):
        super().__init__("exit code %d" % code)
        self.code = code


# (metric, unit, how the recorded samples become the value).  "median_us"
# and "median_ms" are medians per call; "sum" and "count" total the run.
PER_LAYER = (
    ("verify.draw.us", "us", "median_us"),
    ("verify.mac.reverse_acceptance", "ratio", "acceptance"),
    ("verify.corpus.ms", "ms", "median_ms"),
    ("geom.classify.us", "us", "median_us"),
    ("geom.standard_position.us", "us", "median_us"),
    ("geom.quality_ratio.us", "us", "median_us"),
    ("geom.max_angle.us", "us", "median_us"),
    ("geom.angles.us", "us", "median_us"),
    ("geom.degenerate", "count", "failures"),
    ("lattice.nodes_on.us", "us", "median_us"),
    ("interp.interpolate.k1.us", "us", "median_us"),
    ("interp.interpolate.k2.us", "us", "median_us"),
    ("interp.interpolate.k3.us", "us", "median_us"),
    ("interp.interpolate.k4.us", "us", "median_us"),
    ("interp.residual.us", "us", "median_us"),
    ("interp.ill_conditioned", "count", "failures"),
    ("errors.raw", "count", "failures"),
    ("quad.seminorm_err.p2.us", "us", "median_us"),
    ("quad.seminorm_err.p3.us", "us", "median_us"),
    ("quad.seminorm_err.pinf.us", "us", "median_us"),
    ("quad.seminorm_hi.p2.us", "us", "median_us"),
    ("quad.seminorm_hi.p3.us", "us", "median_us"),
    ("quad.seminorm_hi.pinf.us", "us", "median_us"),
    ("quad.points", "count", "median"),
    ("quad.warnings", "count", "count"),
    ("expr.partial.busy_s", "s", "sum"),
    ("expr.partial.calls", "count", "calls"),
    ("expr.parse.us", "us", "median_us"),
    ("cli.overhead.ms", "ms", "median_ms"),
    ("trace.overhead_frac", "ratio", "overhead"),
    ("trace.replay_mismatch", "count", "count"),
)

# Failure counters fed by Trace.attempt, by the exception that ended a replay.
_FAILURE_METRICS = {
    "geom.degenerate": lambda exc: isinstance(exc, DegenerateTetrahedron),
    "interp.ill_conditioned": lambda exc: isinstance(exc, IllConditionedBasis),
    "errors.raw": lambda exc: not isinstance(exc, AnisotetraError),
}


def _samples_key(metric: str) -> str:
    for suffix in (".us", ".ms", ".busy_s", ".calls"):
        if metric.endswith(suffix):
            return metric[: -len(suffix)]
    return metric


def p_name(p: float) -> str:
    return "pinf" if p == INF else "p%d" % p


class Trace:
    """Timings, sample lists and counters of one traced run, in memory."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.counts = Counter()
        self.failures = []
        self.base_s = []      # untraced wall time of calls a replay is paired with
        self.traced_s = []    # wall time of the replays themselves

    def call(self, name, fn, *args):
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.samples[name].append(perf_counter() - t0)

    def attempt(self, fn, *args):
        """fn(*args), or None with the failure recorded; replays never abort a run."""
        try:
            return fn(*args)
        except Exception as exc:  # counted by class, as in untraced runs
            self.failures.append(exc)
            return None

    def pair(self, base_s: float, traced_s: float):
        """One untraced wall time and one traced wall time of comparable work."""
        self.base_s.append(base_s)
        self.traced_s.append(traced_s)

    def value(self, metric: str, reduce: str):
        """The metric's value, or None when this trace has no samples for it."""
        if reduce == "failures":
            hit = _FAILURE_METRICS[metric]
            return sum(1 for exc in self.failures if hit(exc))
        if reduce == "count":
            return self.counts[metric]
        if reduce == "acceptance":
            attempts = self.counts["reverse_attempts"]
            return self.counts["reverse_checked"] / attempts if attempts else None
        if reduce == "overhead":
            if not self.base_s or not self.traced_s:
                return None
            base = sum(self.base_s) / len(self.base_s)
            return sum(self.traced_s) / len(self.traced_s) / base - 1.0
        xs = self.samples.get(_samples_key(metric))
        if not xs:
            return None
        if reduce == "sum":
            return sum(xs)
        if reduce == "calls":
            return len(xs)
        scale = {"median_us": 1e6, "median_ms": 1e3, "median": 1.0}[reduce]
        return float(np.median(xs)) * scale

    def calls(self, metric: str) -> int:
        return len(self.samples.get(_samples_key(metric), ()))


def per_layer_metrics(trace: Trace, probe: Trace):
    """Every per-layer metric, its call count, and the names that came from the probe
    because the workload never called that layer."""
    metrics, probed = {}, []
    for name, unit, reduce in PER_LAYER:
        value = trace.value(name, reduce)
        if value is None:
            value = probe.value(name, reduce)
            probed.append(name)
        metrics[name] = {"value": 0.0 if value is None else value, "unit": unit}
    calls = {name: trace.calls(name) or probe.calls(name)
             for name, _, reduce in PER_LAYER if reduce.startswith("median")}
    return metrics, probed, calls


# ---------------------------------------------------------------------------
# Field wrappers


def timed_field(v, trace: Trace):
    """v with its symbolic partials timed under expr.partial; other inputs as they are."""
    if not isinstance(v, ScalarField):
        return v

    def partial_fn(gamma, pts):
        t0 = perf_counter()
        try:
            return v.partial(gamma, pts)
        finally:
            trace.samples["expr.partial"].append(perf_counter() - t0)

    return ScalarField(v, partial_fn=partial_fn, order=v.order, scale=v.scale,
                       exact=v.exact_partials)


def counted_field(u: ScalarField, tally: list):
    """u with the number of points it is evaluated at added to tally[0]."""

    def eval_fn(pts):
        tally[0] += len(pts)
        return u(pts)

    def partial_fn(gamma, pts):
        tally[0] += len(pts)
        return u.partial(gamma, pts)

    return ScalarField(eval_fn, partial_fn=partial_fn, order=u.order, scale=u.scale,
                       exact=u.exact_partials)


# ---------------------------------------------------------------------------
# Replays


def replay_geometry(trace: Trace, t):
    """angles(t) and the classification and standard position it builds on."""
    cls = trace.call("geom.classify", classify, t)
    trace.call("geom.standard_position", standard_position, t, cls)
    return trace.call("geom.angles", angles, t)


def replay_error_ratio(trace: Trace, v, t, k: int, m: int, p: float) -> ErrorRatioResult:
    """error_ratio(v, t, k, m, p) as the public calls it makes, each timed.

    interpolate is timed on its first call for the element; residual then
    re-interpolates, so interp.residual.us is the residual wrapper plus a
    repeat interpolation on the same element.
    """
    v = timed_field(v, trace)
    geometry = replay_geometry(trace, t)
    trace.call("lattice.nodes_on", nodes_on, t.as_array(), k)
    trace.call("interp.interpolate.k%d" % k, interpolate, v, t, k)
    u = trace.call("interp.residual", residual, v, t, k)
    points = [0]
    err = trace.call("quad.seminorm_err." + p_name(p), seminorm_with_info,
                     counted_field(u, points), t, SeminormSpec(m, p))
    hi = trace.call("quad.seminorm_hi." + p_name(p), seminorm_with_info,
                    v, t, SeminormSpec(k + 1, p))
    trace.samples["quad.points"].append(points[0])
    if p != INF:
        trace.counts["quad.warnings"] += len(err.warnings) + len(hi.warnings)
    # The bound factor and indeterminacy rule of error_ratio.
    h_t = geometry.h[-1]
    bound_factor = (geometry.R_T / h_t) ** m * h_t ** (k + 1 - m)
    indeterminate = hi.value < 1e-14 * max(1.0, hi.value)
    ratio = 0.0 if indeterminate else err.value / (bound_factor * hi.value)
    return ErrorRatioResult(
        k=k, m=m, p=p, error=err.value, seminorm_hi=hi.value,
        bound_factor=bound_factor, ratio=ratio, indeterminate=indeterminate,
        geometry=geometry, warnings=err.warnings + hi.warnings,
    )


def draw(trace: Trace, gen: TetraGenSpec, n: int):
    """generate(gen, n), recorded per tetrahedron drawn."""
    t0 = perf_counter()
    out = generate(gen, n)
    trace.samples["verify.draw"].append((perf_counter() - t0) / n)
    return out


def expression_text(rng: np.random.Generator) -> str:
    """A trig field of the corpus's form: a linear argument at 17 digits."""
    a = rng.uniform(-2.0, 2.0, 4)
    return "sin((%.17g)*x + (%.17g)*y + (%.17g)*z + (%.17g))" % tuple(a)


def replay_parse(trace: Trace, rng: np.random.Generator):
    trace.call("expr.parse", parse_expression, expression_text(rng))


def cli_overhead(trace: Trace, argv: list, library_call, pairs: int = 15):
    """cli.main(argv) minus the library call it wraps, as the median of
    `pairs` back-to-back differences, alternating which runs first."""

    def timed(fn):
        t0 = perf_counter()
        fn()
        return perf_counter() - t0

    def cli():
        rc = cli_main(argv)
        if rc != 0:
            raise CliExit(rc)

    diffs = []
    for i in range(pairs):
        if i % 2:
            lib_s = timed(library_call)
            diffs.append(timed(cli) - lib_s)
        else:
            cli_s = timed(cli)
            diffs.append(cli_s - timed(library_call))
    trace.samples["cli.overhead"].append(float(np.median(diffs)))


# ---------------------------------------------------------------------------
# Probe


_PROBE_SPECS = ((1, 0, 2), (2, 1, 3), (3, 1, INF), (4, 1, 2))


def probe(trace: Trace, seed: int):
    """Call every layer on a small seeded sample.

    A workload leaves some layers unused (mac-sampling never interpolates);
    their per-layer metrics come from here, so every traced run reports
    every layer.
    """
    rng = np.random.default_rng(seed)
    sample = draw(trace, TetraGenSpec("mixed", seed), 8)
    for i, t in enumerate(sample):
        trace.call("geom.quality_ratio", quality_ratio, t)
        trace.call("geom.max_angle", mac_check, t, math.pi / 2)
        k, m, p = _PROBE_SPECS[i % len(_PROBE_SPECS)]
        fields = trace.call("verify.corpus", corpus, k, t)
        replay_parse(trace, rng)
        v = fields[int(rng.integers(len(fields)))][1]
        trace.attempt(replay_error_ratio, trace, v, t, k, m, p)
    rep = mac_experiment(20, math.pi / 2, seed=seed)
    trace.counts["reverse_checked"] += rep.reverse_checked
    trace.counts["reverse_attempts"] += rep.reverse_attempts
