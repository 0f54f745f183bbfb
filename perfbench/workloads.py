"""The benchmark's workloads.

Each workload makes its inputs from the seed, hands out its calls one cycle
at a time, checks every result, and replays a call layer by layer for the
traced run.  README.md says why each workload was chosen, what its calls
and items are, and which end-to-end metric each layer should move.
"""

from __future__ import annotations

import math
import os

import numpy as np

from anisotetra import (
    TYPE1,
    Polynomial3,
    TetraGenSpec,
    Tetrahedron,
    classify,
    corpus,
    equivalence_sample,
    error_ratio,
    generate,
    mac_check,
    mac_experiment,
    monomial_indices,
    nodes_on,
    quality_ratio,
    reference_tetrahedron,
)

from replay import (
    INF,
    cli_overhead,
    draw,
    replay_error_ratio,
    replay_geometry,
    replay_parse,
)


class WrongResult(Exception):
    """A call returned, but its result fails a correctness check."""


def require(ok: bool, message: str):
    if not ok:
        raise WrongResult(message)


# ---------------------------------------------------------------------------
# mac-sampling

# Criterion 8's four angle bounds.  The first lies below acos(1/3), the
# regular tetrahedron's dihedral, so its forward direction is vacuous.
GAMMAS = (math.pi / 3 + 0.01, math.pi / 2, 2 * math.pi / 3, 0.9 * math.pi)
MIN_MAX_ANGLE = math.acos(1.0 / 3.0)


class MacSampling:
    """Criteria 1 and 8 in miniature: geometry and sampling, no interpolation.

    A call is equivalence_sample(eq_n, mixed) or mac_experiment(mac_n, gamma);
    the two alternate while gamma cycles through GAMMAS.  An item is one
    tetrahedron checked.
    """

    rounds = 24     # repeats of each call in an untraced run (see worker.measure)
    cycle_s = 0.2   # wall time of one cycle on an unloaded machine today

    def __init__(self, seed: int, smoke: bool):
        self.rng = np.random.default_rng(seed)
        self.eq_n, self.mac_n = (50, 20) if smoke else (100, 40)

    def setup(self):
        equivalence_sample(10, TetraGenSpec("mixed", 0))
        for gamma in GAMMAS:
            mac_experiment(10, gamma, seed=0)

    def cycle(self, trace=None):
        ops = []
        for gamma in GAMMAS:
            ops.append(("equivalence", None, int(self.rng.integers(2**31))))
            ops.append(("mac", gamma, int(self.rng.integers(2**31))))
        return ops

    def prepare(self, op, trace=None):
        return op

    def call(self, op):
        kind, gamma, seed = op
        if kind == "equivalence":
            return equivalence_sample(self.eq_n, TetraGenSpec("mixed", seed))
        return mac_experiment(self.mac_n, gamma, seed=seed)

    def check(self, op, rep) -> int:
        kind, gamma, seed = op
        if kind == "equivalence":
            require(rep.violations == 0, "seed %d: %d violations of H/2 <= R <= 2H"
                    % (seed, rep.violations))
            require(rep.min_ratio >= 0.5 and rep.max_ratio <= 2.0,
                    "seed %d: R_T/H_T range [%r, %r] leaves [1/2, 2]"
                    % (seed, rep.min_ratio, rep.max_ratio))
            return rep.n
        require(rep.counterexamples == 0, "gamma %r seed %d: %d counterexamples"
                % (gamma, seed, rep.counterexamples))
        require(rep.reverse_checked == self.mac_n, "gamma %r seed %d: reverse checked %d of %d"
                % (gamma, seed, rep.reverse_checked, self.mac_n))
        return rep.forward_checked + rep.excluded_count + rep.reverse_checked

    def replay(self, op, trace):
        """The call as its public steps.  For mac_experiment only the forward
        direction: its reverse sampler is private, so compare() takes the
        reverse acceptance from the untraced report."""
        kind, gamma, seed = op
        if kind == "equivalence":
            ratios = []
            for t in draw(trace, TetraGenSpec("mixed", seed), self.eq_n):
                cls = trace.call("geom.classify", classify, t)
                ratios.append(trace.call("geom.quality_ratio", quality_ratio, t, cls))
            return min(ratios), max(ratios)
        if gamma < MIN_MAX_ANGLE:
            samples = draw(trace, TetraGenSpec("mixed", seed), self.mac_n)
            keep = [trace.call("geom.max_angle", mac_check, t, gamma) for t in samples]
            satisfying = [t for t, ok in zip(samples, keep) if ok]
            excluded = [t for t, ok in zip(samples, keep) if not ok]
        else:
            satisfying = draw(trace, TetraGenSpec("mac", seed, {"gamma": gamma}), self.mac_n)
            excluded = []
        for t in satisfying:
            replay_geometry(trace, t)
        for t in excluded:  # mac_experiment measures excluded samples twice
            replay_geometry(trace, t)
            replay_geometry(trace, t)
        return len(satisfying), len(excluded)

    def compare(self, op, rep, replayed, trace) -> bool:
        """Count a replay that disagrees; True when it replayed the whole call."""
        if op[0] == "equivalence":
            trace.counts["trace.replay_mismatch"] += replayed != (rep.min_ratio, rep.max_ratio)
            return True
        trace.counts["reverse_checked"] += rep.reverse_checked
        trace.counts["reverse_attempts"] += rep.reverse_attempts
        trace.counts["trace.replay_mismatch"] += replayed != (rep.forward_checked, rep.excluded_count)
        return False

    def cli_overhead(self, trace, tmpdir):
        gamma, seed = GAMMAS[1], 0
        argv = ["mac", "--gamma-max", repr(gamma), "--n", str(self.mac_n), "--seed", str(seed),
                "--out", os.path.join(tmpdir, "mac.json")]
        cli_overhead(trace, argv, lambda: mac_experiment(self.mac_n, gamma, seed=seed))


# ---------------------------------------------------------------------------
# error-rotated

# Admissible (k, m, p) covering k = 1..4 and all three seminorm paths:
# exact-degree even p, the two-rule finite p, and the p = inf lattice.
SPECS = ((1, 0, 2), (1, 1, 3), (2, 1, 2), (2, 2, INF),
         (3, 1, 3), (3, 2, 2), (4, 1, 2), (4, 2, INF))
REPRODUCTION_EVERY = 5   # every fifth call interpolates a degree-k polynomial
# The nodal residual interpolate accepts before it raises IllConditionedBasis.
NODAL_RESIDUAL = 1e-8
# log10 eps ranges of the needle and sliver families, as in TetraGenSpec.
LOG10_EPS = {"needle": (-6.0, 0.0), "sliver": (-6.0, -1.0)}
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# The corpus lists 5 trig, 4 exp, 4 rational, 6 polynomial fields and the
# bubble.  This order takes one field from each quarter of that list in
# turn, so four consecutive picks span the kinds of field.
FIELD_ORDER = tuple(quarter * 5 + i for i in range(5) for quarter in range(4))
# Calls per cycle: 25 per spec, 5 reproductions and one pass over the corpus.
# The cost of a call depends most on its field (a rational field at k = 4,
# p = inf costs ~50 times a trig one), so whole passes keep it steady.
CYCLE = len(SPECS) * REPRODUCTION_EVERY * len(FIELD_ORDER) // (REPRODUCTION_EVERY - 1)


def reproduction_tolerance(poly: Polynomial3, t: Tetrahedron, k: int, m: int, p: float) -> float:
    """The largest |q - I q|_{m,p,T} a reproduced q in P_k may show.

    Nodal values may miss by NODAL_RESIDUAL * (1 + max|q|).  That moves the
    interpolant by at most about N_k times as much (N_k nodes), its m-th
    derivatives by a further (k/rho)^m, where rho is the smallest altitude
    and rho/k the node spacing across it, and the L^p norm by |T|^(1/p).
    """
    verts = np.asarray(t.as_array())
    volume = abs(np.linalg.det(verts[1:] - verts[0])) / 6.0
    area = max(
        0.5 * np.linalg.norm(np.cross(f[1] - f[0], f[2] - f[0]))
        for f in (np.delete(verts, i, axis=0) for i in range(4))
    )
    rho = 3.0 * volume / area
    _, nodes = nodes_on(verts, k)
    q_max = float(np.max(np.abs(poly.evaluate(nodes))))
    measure = 1.0 if p == INF else volume ** (1.0 / p)
    return len(nodes) * NODAL_RESIDUAL * (1.0 + q_max) * (k / rho) ** m * measure


class ErrorRotated:
    """error_ratio on a new rotated, anisotropic element every call.

    Elements are uniform, needle and sliver in turn, as in the mixed family,
    each rotated and translated by its own seeded stream; needle and sliver
    eps are log-uniform over the family's range, spread evenly over the
    calls of each spec by a golden-ratio sequence, so that every run sees
    the same range of flatness (which decides most failures).
    (k, m, p) cycles through SPECS.  Every fifth call interpolates a random
    degree-k polynomial whose reproduction is checked; the other calls of a
    spec walk through the element's corpus in FIELD_ORDER from a seeded
    start, once per cycle.  An item is one successful ratio.
    """

    rounds = 16
    cycle_s = 2.8

    def __init__(self, seed: int, smoke: bool):
        self.rng = np.random.default_rng(seed)
        self.parse_rng = np.random.default_rng([seed, 1])
        self.cycle_len = 40 if smoke else CYCLE
        self.eps_phase = float(self.rng.uniform())
        self.drawn = 0
        self.eps_drawn = {}
        self.next_field = {}

    def _element(self, spec, trace):
        family = ("uniform", "needle", "sliver")[self.drawn % 3]
        self.drawn += 1
        params = {}
        if family in LOG10_EPS:
            lo, hi = LOG10_EPS[family]
            n = self.eps_drawn[spec, family] = self.eps_drawn.get((spec, family), -1) + 1
            u = (self.eps_phase + GOLDEN * n) % 1.0
            params["eps"] = 10.0 ** (lo + (hi - lo) * u)
        gen = TetraGenSpec(family, int(self.rng.integers(2**31)), params)
        return (generate(gen, 1) if trace is None else draw(trace, gen, 1))[0]

    def setup(self):
        ref = reference_tetrahedron(TYPE1)
        for spec in SPECS:
            fields = corpus(spec[0], ref)
            error_ratio(fields[0][1], ref, *spec)
            self.next_field[spec] = int(self.rng.integers(len(FIELD_ORDER)))

    def cycle(self, trace=None):
        """One cycle of calls as (element, corpus index or polynomial, k, m, p)."""
        ops = []
        for i in range(self.cycle_len):
            spec = SPECS[i % len(SPECS)]
            t = self._element(spec, trace)
            if i % REPRODUCTION_EVERY == REPRODUCTION_EVERY - 1:
                gammas = monomial_indices(spec[0])
                coeffs = self.rng.uniform(-1.0, 1.0, len(gammas))
                ops.append((t, Polynomial3(dict(zip(gammas, coeffs)))) + spec)
            else:
                r = self.next_field[spec]
                ops.append((t, FIELD_ORDER[r % len(FIELD_ORDER)]) + spec)
                self.next_field[spec] = r + 1
        return ops

    def prepare(self, op, trace=None):
        """The call's arguments.  Corpus fields are built afresh for every
        call, as their symbolic derivatives are memoized on first use."""
        t, field, k, m, p = op
        if isinstance(field, Polynomial3):
            return t, field, True, k, m, p
        if trace is None:
            fields = corpus(k, t)
        else:
            fields = trace.call("verify.corpus", corpus, k, t)
            replay_parse(trace, self.parse_rng)
        return t, fields[field][1], False, k, m, p

    def call(self, args):
        t, v, _, k, m, p = args
        return error_ratio(v, t, k, m, p)

    def check(self, args, r) -> int:
        t, v, reproduction, k, m, p = args
        where = "k=%d m=%d p=%s on %r" % (k, m, p, t.as_array().tolist())
        require(math.isfinite(r.ratio) and r.ratio >= 0.0, "ratio %r, %s" % (r.ratio, where))
        require(math.isfinite(r.error) and r.error >= 0.0, "error %r, %s" % (r.error, where))
        if reproduction:
            require(r.indeterminate, "degree-k polynomial not indeterminate, %s" % where)
            tol = reproduction_tolerance(v, t, k, m, p)
            require(r.error <= tol, "reproduction error %r above %r, %s" % (r.error, tol, where))
        return 1

    def replay(self, args, trace):
        """The call as its public steps, on the same element with its vertex
        list rotated: the geometry is unchanged, but the nodal-system cache
        is keyed by coordinates, so the replay interpolates cold as the
        untraced call did."""
        t, v, _, k, m, p = args
        rotated = Tetrahedron.from_points(np.roll(np.asarray(t.as_array()), 1, axis=0))
        return replay_error_ratio(trace, v, rotated, k, m, p)

    def compare(self, args, r, replayed, trace) -> bool:
        # The rotated vertex order changes roundoff, so results are not compared.
        return True

    def cli_overhead(self, trace, tmpdir):
        t = reference_tetrahedron(TYPE1)
        k, m, p = SPECS[2]
        name, v = corpus(k, t)[0]
        vertices = " ".join(",".join(repr(float(c)) for c in point) for point in t.coords())
        argv = ["error", "--vertices", vertices, "--field", name, "--k", str(k), "--m", str(m),
                "--p", repr(p), "--out", os.path.join(tmpdir, "error.json")]
        cli_overhead(trace, argv, lambda: error_ratio(v, t, k, m, p))


WORKLOADS = {
    "mac-sampling": MacSampling,
    "error-rotated": ErrorRotated,
}
