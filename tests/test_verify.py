"""Experiment-layer tests: generators, ratios, sweeps, MAC sampling."""

import math

import numpy as np
import pytest

from anisotetra import expr, geom, quad, verify
from anisotetra.errors import (
    AnisotetraError,
    GenerationFailure,
    InadmissiblePC,
    InputError,
    InvalidDegree,
    InvalidGammaMax,
    NumericalError,
)
from anisotetra.expr import field_from_expression
from anisotetra.geom import (
    TYPE1,
    TYPE2,
    Tetrahedron,
    angles,
    classify,
    mac_check,
    matrices,
    reference_tetrahedron,
    sorted_edge_lengths,
    standard_position,
)
from anisotetra.interp import Polynomial3, ScalarField, monomial_indices
from anisotetra.lattice import nodes_on
from anisotetra.quad import SeminormSpec, seminorm_with_info
from anisotetra.verify import (
    _CORPUS_KEY,
    TetraGenSpec,
    bubble_polynomial,
    convergence_study,
    corpus,
    default_alpha_grid,
    equivalence_sample,
    error_ratio,
    generate,
    mac_experiment,
    squeeze_sweep,
    study,
)
from exact_poly import Exact
from test_batch import ref_sample

T_HAT = reference_tetrahedron(TYPE1)
REGULAR = Tetrahedron.from_points(
    [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
)


def rotation(seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def count_draws(monkeypatch) -> dict:
    """Wrap the per-sample draw; the dict counts draws by block row."""
    draws = {}
    draw = verify._draw

    def counting(rng, kind, eps, j, *bufs):
        draws[j] = draws.get(j, 0) + 1
        return draw(rng, kind, eps, j, *bufs)

    monkeypatch.setattr(verify, "_draw", counting)
    return draws


class TestGenerate:
    @pytest.mark.parametrize("family", ["uniform", "needle", "sliver", "mixed"])
    def test_same_seed_same_list(self, family):
        gen = TetraGenSpec(family=family, seed=42)
        a = generate(gen, 8)
        b = generate(gen, 8)
        assert [t.coords() for t in a] == [t.coords() for t in b]

    def test_different_seeds_differ(self):
        a = generate(TetraGenSpec(family="uniform", seed=1), 4)
        b = generate(TetraGenSpec(family="uniform", seed=2), 4)
        assert [t.coords() for t in a] != [t.coords() for t in b]

    def test_uniform_stays_in_ball(self):
        for t in generate(TetraGenSpec(family="uniform", seed=3), 50):
            assert np.all(np.linalg.norm(t.as_array(), axis=1) <= 1.0 + 1e-12)

    def test_needle_aspect(self):
        gen = TetraGenSpec(family="needle", seed=4, params={"eps": 1e-3})
        for t in generate(gen, 5):
            hs = sorted_edge_lengths(t)
            assert abs(hs[0] / hs[-1] - 1e-3) < 1e-4
            assert mac_check(t, 2.0)

    def test_sliver_dihedral(self):
        for eps in (1e-2, 1e-5):
            gen = TetraGenSpec(family="sliver", seed=5, params={"eps": eps})
            t = generate(gen, 1)[0]
            assert abs((math.pi - angles(t).max_angle) - eps) < 1e-9 + 1e-6 * eps

    def test_mac_family_satisfies_condition(self):
        gamma = math.pi / 2
        gen = TetraGenSpec(family="mac", seed=6, params={"gamma": gamma})
        for t in generate(gen, 20):
            assert mac_check(t, gamma)

    def test_unsatisfiable_gamma_fails_fast(self):
        gen = TetraGenSpec(family="mac", seed=7, params={"gamma": 1.1})
        with pytest.raises(GenerationFailure):
            generate(gen, 1)

    def test_unknown_family_rejected(self):
        with pytest.raises(InputError):
            TetraGenSpec(family="cube", seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**128, 1.5, "3", None])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        with pytest.raises(InputError, match="seed"):
            TetraGenSpec(family="uniform", seed=seed)

    def test_seed_range_ends_are_accepted(self):
        assert len(generate(TetraGenSpec(family="uniform", seed=2**128 - 1), 2)) == 2
        assert len(generate(TetraGenSpec(family="uniform", seed=np.int64(5)), 2)) == 2

    def test_sample_count_and_mac_gamma_are_input_errors(self):
        with pytest.raises(InputError, match="n must be"):
            generate(TetraGenSpec(family="uniform"), 0)
        with pytest.raises(InputError, match="gamma"):
            generate(TetraGenSpec(family="mac"), 1)

    @pytest.mark.parametrize("family", ["needle", "sliver", "mixed"])
    def test_zero_eps_is_an_input_error(self, family):
        # eps = 0 would make every needle and sliver flat, and each sample
        # would spend the whole attempt budget before GenerationFailure.
        with pytest.raises(InputError, match="eps"):
            TetraGenSpec(family, 0, {"eps": 0.0})

    @pytest.mark.parametrize("family,params,key,takes", [
        ("needle", {"epsilon": 1e-3}, "epsilon", "'eps'"),
        ("uniform", {"eps": 1e-3}, "eps", "none"),
        ("sliver", {"eps": 1e-3, "kind": 1}, "kind", "'eps'"),
        ("mixed", {"alpha": (1, 1, 1)}, "alpha", "'eps'"),
        ("squeezed", {"gamma": 2.0}, "gamma", "'alpha', 'kind'"),
        ("mac", {"gamma": 2.0, "eps": 1e-3}, "eps", "'gamma'"),
    ])
    def test_a_key_the_family_does_not_read_is_an_input_error(self, family, params, key, takes):
        # Such a key was dropped: a misspelt eps gave needles of random eps.
        with pytest.raises(InputError) as exc:
            TetraGenSpec(family, 0, params)
        assert str(exc.value) == "family %r reads no params[%r]; it takes %s" % (family, key, takes)

    def test_every_family_takes_its_own_keys(self):
        own = {"uniform": {}, "needle": {"eps": 1e-3}, "sliver": {"eps": 1e-3},
               "squeezed": {"alpha": (1, 1, 1), "kind": 2}, "mac": {"gamma": 2.0},
               "mixed": {"eps": 1e-3}}
        for family, params in own.items():
            assert len(generate(TetraGenSpec(family, 0, params), 1)) == 1

    def test_non_numeric_eps_is_an_input_error(self):
        with pytest.raises(InputError, match="eps"):
            TetraGenSpec("needle", 0, {"eps": "x"})
        with pytest.raises(InputError, match="eps"):
            TetraGenSpec("sliver", 0, {"eps": math.inf})

    def test_non_numeric_gamma_is_an_input_error(self):
        with pytest.raises(InputError, match="gamma"):
            TetraGenSpec("mac", 0, {"gamma": "x"})
        with pytest.raises(InputError, match="gamma"):
            TetraGenSpec("mac", 0, {"gamma": math.nan})

    @pytest.mark.parametrize("alpha", [(1, 0, 1), (1, -1, 1), (1, 1), (1, math.inf, 1), "abc"])
    def test_squeezed_alpha_must_be_three_positive_numbers(self, alpha):
        # A zero component would make every sample degenerate and spend the
        # whole attempt budget before GenerationFailure.
        with pytest.raises(InputError, match="alpha"):
            TetraGenSpec("squeezed", 0, {"alpha": alpha})

    @pytest.mark.parametrize("kind", [0, 3, "1", None])
    def test_squeezed_kind_must_be_a_type(self, kind):
        with pytest.raises(InputError, match="kind"):
            TetraGenSpec("squeezed", 0, {"alpha": (1, 1, 1), "kind": kind})

    def test_mac_experiment_reverse_key_must_fit(self):
        # The reverse direction is keyed by seed + 1.
        with pytest.raises(InputError, match="2\\*\\*128 - 1"):
            mac_experiment(3, math.pi / 2, seed=2**128 - 1)
        assert mac_experiment(3, math.pi / 2, seed=2**128 - 2).reverse_checked == 3

    @pytest.mark.parametrize("gen", [
        TetraGenSpec("uniform", 3),
        TetraGenSpec("mac", 3, {"gamma": math.pi / 2}),
    ], ids=lambda gen: gen.family)
    def test_redrawn_samples_match_per_sample_reference(self, gen, monkeypatch):
        # A high degeneracy threshold rejects most uniform draws (the mac
        # family's uniform attempts too), so samples reach attempt 1, which
        # replays attempt 0, and attempts 2+, which restore a saved state.  The
        # small block puts rejected samples on both sides of block boundaries.
        monkeypatch.setattr(geom, "EPS_VOL_REL", 0.03)
        monkeypatch.setattr(verify, "BLOCK", 128)
        draws = count_draws(monkeypatch)
        n = 300
        tetras = generate(gen, n)
        assert sum(draws.values()) > (5 * n if gen.family == "uniform" else n)
        assert [t.coords() for t in tetras] == [ref_sample(gen, i).coords() for i in range(n)]

    def test_rejection_costs_one_extra_draw_per_sample(self, monkeypatch):
        # eps = 1e-9 makes every needle degenerate: each sample uses its whole
        # budget, and draws once more only for the replay at attempt 1.
        monkeypatch.setattr(verify, "MAX_ATTEMPTS", 50)
        draws = count_draws(monkeypatch)
        with pytest.raises(GenerationFailure, match=r"\(0 nondegenerate\)"):
            generate(TetraGenSpec("needle", 0, {"eps": 1e-9}), 20)
        assert sorted(draws) == list(range(20))
        assert max(draws.values()) <= 50 + 1

    def test_squeezed_family_applies_alpha(self):
        gen = TetraGenSpec(
            family="squeezed", seed=8,
            params={"alpha": (1.0, 0.25, 0.25), "kind": TYPE1},
        )
        t = generate(gen, 1)[0]
        # Rigid motion preserves the edge lengths of the squeezed reference.
        ref = Tetrahedron.from_points(
            np.asarray(T_HAT.as_array()) * np.array([1.0, 0.25, 0.25])
        )
        assert np.allclose(sorted_edge_lengths(t), sorted_edge_lengths(ref), atol=1e-12)


class TestCorpus:
    def test_twenty_fields_with_stable_names(self):
        fields = corpus(1, T_HAT)
        names = [name for name, _ in fields]
        assert len(fields) == 20
        assert names[:5] == ["trig0", "trig1", "trig2", "trig3", "trig4"]
        assert names[-1] == "bubble"
        again = corpus(1, T_HAT)
        assert [n for n, _ in again] == names

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_polynomials_are_the_per_coefficient_draws(self, k):
        # Each polynomial's coefficients are one vector draw, which must give
        # the values of one scalar draw per coefficient, in turn, from the
        # stream the fields before it leave.
        rng = np.random.Generator(np.random.Philox(key=_CORPUS_KEY))
        for _ in range(5):
            rng.uniform(-2.0, 2.0, 3), rng.uniform(0.0, 2.0 * math.pi)
        for _ in range(4):
            rng.uniform(-1.5, 1.5, 3)
        for _ in range(4):
            rng.uniform(-1.0, 1.0, 3), rng.uniform(0.0, 1.0)
        fields = dict(corpus(k, T_HAT))
        for i in range(6):
            want = [float(rng.uniform(-1.0, 1.0)) for _ in monomial_indices(k + 2)]
            poly = fields["poly%d" % i]
            assert poly.degree == k + 2 and poly.coef.tolist() == want, i

    @pytest.mark.parametrize("k", [1.5, 0, -3, 9])
    def test_degree_is_checked(self, k):
        # The corpus is a library for interpolation of degree k: a k that no
        # interpolant accepts is refused as interpolate refuses it.
        with pytest.raises(InvalidDegree):
            corpus(k, T_HAT)

    def test_bubble_vanishes_at_low_order_nodes(self):
        b = bubble_polynomial(REGULAR)
        for k in (1, 2, 3):
            _, nodes = nodes_on(REGULAR.coords(), k)
            assert np.max(np.abs(b.evaluate(nodes))) < 1e-12
        center = np.asarray(REGULAR.as_array()).mean(axis=0, keepdims=True)
        assert abs(b.evaluate(center)[0]) > 1e-4

    def test_rational_poles_clear_of_element(self):
        # Denominators were shifted to stay >= 1 on the element, so the
        # rational fields are bounded by 1 there.
        fields = dict(corpus(1, T_HAT))
        _, nodes = nodes_on(T_HAT.coords(), 6)
        for i in range(4):
            vals = fields["rational%d" % i](nodes)
            assert np.all(np.abs(vals) <= 1.0 + 1e-12)


class TestErrorRatio:
    def test_x_squared_reference(self):
        r = error_ratio(Polynomial3({(2, 0, 0): 1.0}), T_HAT, 1, 0, 2.0)
        assert r.error > 0
        assert r.seminorm_hi > 0
        assert not r.indeterminate
        assert 0 < r.ratio < 1.0

    def test_rigid_motion_stability(self):
        v = Polynomial3({(2, 0, 0): 1.0, (0, 1, 1): -0.5})
        base = error_ratio(v, T_HAT, 1, 0, 2.0).ratio
        for s in (1, 2, 3):
            q = rotation(s)
            b = np.array([0.3, -0.2, 0.5]) * s
            moved = Tetrahedron.from_points(np.asarray(T_HAT.as_array()) @ q.T + b)
            v_moved = Exact.of(v).compose_affine(q.T, -q.T @ b).polynomial()
            r = error_ratio(v_moved, moved, 1, 0, 2.0)
            assert abs(r.ratio - base) < 1e-8 * base

    @pytest.mark.parametrize("family", ["sliver", "needle"])
    def test_rotated_flat_elements_are_rigid_motion_invariant(self, family):
        # The moved field evaluates v at the pulled-back point instead of
        # expanding v about a new origin, so its values carry only v's own
        # roundoff and the comparison measures the interpolation.  At p = 2
        # the weighted seminorm is the Frobenius norm of D^m u, invariant for
        # every m; m <= 1 only, as rotated needles cancel at higher m
        # (ROADMAP item 1).
        def moved(v, t, q, b):
            v_moved = Exact.of(v).compose_affine(q.T, -q.T @ b).polynomial()
            field = ScalarField(
                lambda pts: v.evaluate((pts - b) @ q),
                partial_fn=lambda gamma, pts: v_moved.partial(gamma, pts),
            )
            return field, Tetrahedron.from_points(np.asarray(t.as_array()) @ q.T + b)

        rng = np.random.default_rng(0)
        for t in generate(TetraGenSpec(family=family, seed=5), 6):
            for k in (2, 3, 4):
                gammas = monomial_indices(k + 1)
                v = Polynomial3(dict(zip(gammas, rng.uniform(-1, 1, len(gammas)))))
                motions = [(rotation(s), rng.uniform(-1, 1, 3)) for s in (1, 2, 3)]
                for m in (0, 1):
                    base = error_ratio(*moved(v, t, np.eye(3), np.zeros(3)), k, m, 2.0)
                    for q, b in motions:
                        r = error_ratio(*moved(v, t, q, b), k, m, 2.0)
                        assert abs(r.ratio - base.ratio) <= 1e-6 * base.ratio

    @pytest.mark.parametrize("family", ["sliver", "needle"])
    def test_bubble_is_rigid_motion_invariant(self, family):
        # The bubble is built on the reference element, so the moved element's
        # bubble is the moved bubble up to roundoff; expanded in physical
        # monomials, its terms cancel on flat elements.
        rng = np.random.default_rng(1)
        for t in generate(TetraGenSpec(family=family, seed=5), 6):
            verts = np.asarray(t.as_array())
            motions = [(rotation(s), rng.uniform(-1, 1, 3)) for s in (1, 2, 3)]
            for k, m in ((2, 1), (3, 1), (3, 2)):  # (2, 2) is inadmissible at p = 2
                base = error_ratio(bubble_polynomial(t), t, k, m, 2.0).error
                for q, b in motions:
                    moved = Tetrahedron.from_points(verts @ q.T + b)
                    got = error_ratio(bubble_polynomial(moved), moved, k, m, 2.0).error
                    assert abs(got - base) <= 1e-8 * base, (k, m)

    def test_polynomial_in_p_k_is_indeterminate(self):
        v = Polynomial3({(1, 0, 0): 1.0, (0, 0, 0): 3.0})
        r = error_ratio(v, T_HAT, 1, 0, 2.0)
        assert r.indeterminate
        assert r.ratio == 0.0
        assert r.error < 1e-12

    @pytest.mark.parametrize("k,m,p", [(2, 1, 2.0), (3, 1, 3.0), (2, 2, math.inf),
                                       (4, 2, math.inf)])
    def test_seminorm_hi_is_vs_own_bit_for_bit(self, k, m, p):
        # Above order k the residual's partials are v's own, never taken
        # through the frame, whose J^{-T} would inflate them on a sliver.
        t = generate(TetraGenSpec("sliver", 6, {"eps": 1e-5}), 1)[0]
        for name, v in corpus(k, t)[13:]:
            want = seminorm_with_info(v, t, SeminormSpec(k + 1, p)).value
            assert error_ratio(v, t, k, m, p).seminorm_hi == want, name

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_overflowing_polynomial_is_a_numerical_error(self, p):
        # The partials of 1e308 x^3 and of its residual overflow; pytest turns
        # any numpy RuntimeWarning on the way into an error.
        with pytest.raises(NumericalError) as exc:
            error_ratio(Polynomial3({(3, 0, 0): 1e308}), T_HAT, 2, 1, p)
        assert "not finite" in str(exc.value)

    @pytest.mark.parametrize("v,indeterminate", [
        (Polynomial3.dense(np.sin(np.arange(20.0)), 3), False),
        (Polynomial3({(2, 0, 0): 1e8, (0, 1, 1): 3e7, (3, 0, 0): 1e-13}), True),
        (Polynomial3({(1, 0, 0): 2.0, (0, 0, 0): 0.5}), True),
    ], ids=["cubic", "quadratic-with-tiny-cubic", "linear"])
    def test_ratio_and_flag_are_unchanged_when_v_is_scaled(self, v, indeterminate):
        # seminorm_hi is compared with v's own size, so a scaled field keeps
        # its ratio and its flag; 1e-15 sin(x+2y+3z) is no longer "in P_k".
        t = generate(TetraGenSpec("needle", 8), 1)[0]
        for k, m, p in ((2, 1, 2.0), (2, 0, 3.0), (2, 2, math.inf)):
            want = error_ratio(v, t, k, m, p)
            assert want.indeterminate == indeterminate
            for s in 10.0 ** np.arange(-20, 21, 5):
                got = error_ratio(Polynomial3.dense(v.coef * s, v.degree), t, k, m, p)
                assert got.indeterminate == indeterminate, (s, k, m, p)
                assert abs(got.ratio - want.ratio) <= 1e-12 * want.ratio, (s, k, m, p)
        for s in (1e-15, 1.0, 1e-10, 1e20):
            r = error_ratio(field_from_expression("%r*sin(x+2*y+3*z)" % s), T_HAT, 2, 1, 2.0)
            assert not r.indeterminate
            assert abs(r.ratio - 4.894250897531214e-4) <= 1e-12, s

    def test_inadmissible_pairing_raises(self):
        with pytest.raises(InadmissiblePC):
            error_ratio(Polynomial3({(1, 0, 0): 1.0}), T_HAT, 1, 1, 2.0)

    def test_numpy_integer_degree(self):
        v = Polynomial3({(3, 0, 0): 1.0, (0, 1, 2): -0.5})
        got = error_ratio(v, REGULAR, np.int64(2), np.int64(1), 2.0)
        want = error_ratio(v, REGULAR, 2, 1, 2.0)
        assert (got.error, got.seminorm_hi, got.ratio) == (want.error, want.seminorm_hi, want.ratio)
        assert type(got.k) is int and type(got.m) is int

    def test_non_integer_order_is_inadmissible(self):
        v = field_from_expression("sin(x + 2*y + 3*z)")
        with pytest.raises(InadmissiblePC):
            error_ratio(v, T_HAT, 2, 1.5, 2.0)

    @pytest.mark.parametrize("e", [-300, -170, -110, -70, 70, 80, 110, 160, 300])
    def test_extreme_scales_give_numbers_or_typed_errors(self, e):
        # Scaled by 10^e, |T| underflows to 0 (DegenerateTetrahedron) or h_T^3,
        # R_T or a power of h_T in the bound factor leaves the float range
        # (NumericalError): never a raw ZeroDivisionError, OverflowError or
        # LinAlgError, nor an R_T of inf reported as a number.
        base = np.array([(.1, .2, .05), (1.1, 0, .1), (.2, .9, 0), (.3, .1, .8)])
        t = Tetrahedron.from_points(base * 10.0 ** e)
        v = field_from_expression("sin(x + 2*y + 3*z)")

        def finite_or_typed(call):
            try:
                values = call()
            except AnisotetraError:
                return
            assert all(math.isfinite(x) for x in values), (e, values)

        def geometry():
            rep = angles(t)
            return (rep.volume, rep.R_T, rep.H_T, rep.max_angle)

        def motion():
            cls = classify(t)
            sp = standard_position(t, cls)
            mats = matrices(sp, cls.kind)
            return (*cls.alpha, *sp.params, mats.normA, mats.normAinv)

        finite_or_typed(geometry)
        finite_or_typed(motion)
        finite_or_typed(lambda: (float(mac_check(t, 2.0)),))
        for spec in [(1, 0, 2.0), (2, 1, math.inf), (4, 1, 2.0), (4, 4, 3.0)]:
            finite_or_typed(lambda: (lambda r: (r.error, r.seminorm_hi, r.bound_factor,
                                                r.ratio))(error_ratio(v, t, *spec)))

    def test_transform_norm_chain(self):
        # The factorization route must stay inside the stated constants:
        # |A| <= 2 and |A^{-1}| <= 2 R_T/(3 h_T).
        for t in generate(TetraGenSpec(family="mixed", seed=9), 60):
            cls = classify(t)
            sp = standard_position(t, cls)
            mats = matrices(sp, cls.kind)
            r_t = angles(t).R_T
            h_t = sorted_edge_lengths(t)[-1]
            assert mats.normA <= 2.0 + 1e-9
            assert mats.normAinv <= 2.0 * r_t / (3.0 * h_t) * (1.0 + 1e-9)

    @pytest.mark.parametrize("scale", [1e70, 1e-70])
    def test_the_float_range_is_checked_before_v_is_evaluated(self, scale):
        # h_T^5 overflows at 10^70 and underflows at 10^-70: the bound
        # factor's range is a property of the geometry alone, so the call
        # raises before v is evaluated at a node or sampled for a seminorm.
        base = np.array([(.1, .2, .05), (1.1, 0, .1), (.2, .9, 0), (.3, .1, .8)])
        t = Tetrahedron.from_points(base * scale)
        v = field_from_expression("sin(x + 2*y + 3*z)")
        calls = {"values": 0, "partials": 0}

        def values(pts):
            calls["values"] += 1
            return v(pts)

        def partials_of(orders, pts, rank_one=()):
            calls["partials"] += 1
            return v.partials_of(orders, pts, rank_one=rank_one)

        counted = ScalarField._of(values, partials_of, rank_one=True)
        with pytest.raises(NumericalError, match="leaves the float range"):
            error_ratio(counted, t, 4, 1, 2.0)
        assert calls == {"values": 0, "partials": 0}

    # ROADMAP item 1's needle check.  Forward differences of O(1) nodal values
    # cancel in a thin direction, and J^{-T} multiplies that roundoff by
    # eps^-m: 81 of these 640 rows read a ratio above 1.
    NEEDLE_SPECS = [(2, 2, 3.0), (3, 3, 3.0), (4, 4, 3.0), (4, 2, math.inf)]

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: nodal differences cancel on needles; "
                       "its fix turns this green and removes the xfail")
    def test_no_needle_row_reads_a_ratio_above_one(self):
        above = []
        for i, t in enumerate(generate(TetraGenSpec("needle", 7), 20)):
            for k, m, p in self.NEEDLE_SPECS:
                for name, v in corpus(k, t)[:8]:
                    ratio = error_ratio(v, t, k, m, p).ratio
                    if ratio > 1.0:
                        above.append((i, (k, m, p), name, ratio))
        assert above == []


class TestOncePerCall:
    """Every per-element quantity is built once and handed down: one volume
    test and one inversion of J per element, however many calls read it, and
    a ridge's power columns once per call, however many sample sets it has."""

    CALLS = [("trig0", (2, 1, 2.0)), ("trig0", (4, 2, math.inf)), ("poly0", (4, 2, math.inf))]

    @staticmethod
    def counting(monkeypatch, counts, module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    def counts_of_one_call(self, monkeypatch, name, spec):
        t = generate(TetraGenSpec("sliver", 2), 1)[0]
        v = dict(corpus(spec[0], t))[name]
        error_ratio(v, t, *spec)  # fills the caches of rules, stencils and tables
        v = dict(corpus(spec[0], t))[name]  # a field whose jets have not run
        counts = {}
        self.counting(monkeypatch, counts, expr, "_mul", "mul")
        self.counting(monkeypatch, counts, expr, "_times", "times")
        error_ratio(v, t, *spec)
        return counts

    @pytest.mark.parametrize("name,spec", CALLS)
    def test_one_volume_test_and_one_inversion(self, name, spec, monkeypatch):
        # A new element of the same vertices is measured once, when its
        # corpus's bubble pulls back, and error_ratio reads that measurement;
        # a second call on the same element measures nothing.
        t = generate(TetraGenSpec("sliver", 2), 1)[0]
        error_ratio(dict(corpus(spec[0], t))[name], t, *spec)  # fills the caches of rules
        counts = {}
        self.counting(monkeypatch, counts, geom, "batch_volume", "volume")
        self.counting(monkeypatch, counts, np.linalg, "inv", "inv")
        fresh = Tetrahedron(t.v)
        error_ratio(dict(corpus(spec[0], fresh))[name], fresh, *spec)
        assert counts == {"volume": 1, "inv": 1}
        counts.clear()
        error_ratio(dict(corpus(spec[0], fresh))[name], fresh, *spec)
        assert counts == {}

    @pytest.mark.parametrize("name,spec", CALLS[:2])
    def test_a_ridges_power_columns_are_built_once(self, name, spec, monkeypatch):
        # (a . h)^d for d = 1 .. k + 1, one _times step each and no jet
        # product, whether the call samples one rule stack or four lattice
        # blocks.
        counts = self.counts_of_one_call(monkeypatch, name, spec)
        assert (counts.get("mul", 0), counts.get("times")) == (0, spec[0] + 1), counts

    @pytest.mark.parametrize("spec", [(2, 1, 2.0), (3, 1, 3.0), (4, 2, math.inf)])
    def test_a_second_call_builds_no_seminorm_plan(self, spec, monkeypatch):
        # The plan is keyed by the residual's degree and the specs: a call on
        # another element, with a newly built field, finds the first call's.
        first, second = generate(TetraGenSpec("mixed", 3), 2)
        error_ratio(dict(corpus(spec[0], first))["trig0"], first, *spec)
        counts = {}
        self.counting(monkeypatch, counts, quad, "_rule_degrees", "plan")
        error_ratio(dict(corpus(spec[0], second))["trig0"], second, *spec)
        assert counts == {}

    def test_one_plan_per_degree_and_specs_not_per_element(self):
        # A ridge's residual has no degree and poly0's has degree k + 2 on
        # every element: two plans for five elements.
        quad._plan.cache_clear()
        for t in generate(TetraGenSpec("mixed", 3), 5):
            fields = dict(corpus(2, t))
            for name in ("trig0", "poly0"):
                error_ratio(fields[name], t, 2, 1, 2.0)
        assert quad._plan.cache_info().currsize == 2


# squeeze_sweep(2, 1, 3) on this grid, and error_ratio of the reference's
# bubble on each squeezed element at (2, 1, 3) and (2, 2, inf), as the
# bubble's coefficients read physically give them: (worst field, max_ratio,
# max_scaled) per row and (error, ratio) per element and spec.
BUBBLE_GRID = [(1.0, 1.0, 1.0), (1.0, 2.0**-3, 2.0**-3), (1.0, 2.0**-6, 2.0**-6), (1.0, 1.0, 2.0**-8)]
BUBBLE_SWEEP_ROWS = [
    ("trig2", "0x1.56875b2c58e69p-8", "0x1.6b4e7c79b5931p-4"),
    ("poly3", "0x1.10cdd9ec42a0fp-7", "0x1.a2d5946d0cb63p-5"),
    ("poly3", "0x1.0c59a2cb0ba6fp-7", "0x1.92ac316266e11p-5"),
    ("exp0", "0x1.11d66706126b2p-8", "0x1.2272d38285da5p-4"),
]
BUBBLE_RATIOS = [
    (("0x1.6a657f60c8cfdp-7", "0x1.29a6fb282390ep-11"), ("0x1.0p-1", "0x1.41cfe93ff5196p-9")),
    (("0x1.096a47b08ccc3p-10", "0x1.9f4058d909b07p-11"), ("0x1.0p-2", "0x1.bca627db4aeeap-9")),
    (("0x1.2a14cb96f9040p-15", "0x1.c1403684d7cafp-14"), ("0x1.0p-2", "0x1.c6f1ca7188e80p-9")),
    (("0x1.f498c813e84a4p-10", "0x1.8090b57bae78fp-11"), ("0x1.0p-1", "0x1.41cfe93ff5196p-9")),
]


class TestSqueezeSweep:
    def test_the_references_bubble_is_converted_to_each_squeezed_frame(self):
        # squeeze_sweep builds the corpus, bubble included, on the unsqueezed
        # reference.  Its bubble is held in the reference's frame, so on each
        # squeezed element its residual must be taken through that frame; read
        # as if in the element's own frame, the sweep's variation is ~287.
        # The reference's frame is the identity, so the bubble gives what its
        # coefficients read physically give, bit for bit.
        sw = squeeze_sweep(2, 1, 3.0, alphas=BUBBLE_GRID)
        for row, (name, ratio, scaled) in zip(sw.rows, BUBBLE_SWEEP_ROWS):
            assert row.worst_field == name
            assert row.max_ratio == pytest.approx(float.fromhex(ratio), rel=1e-12)
            assert row.max_scaled == pytest.approx(float.fromhex(scaled), rel=1e-12)
        bubble = bubble_polynomial(T_HAT)
        physical = Polynomial3.dense(bubble.coef, 4)
        for alpha, want in zip(BUBBLE_GRID, BUBBLE_RATIOS):
            t = Tetrahedron.from_points(T_HAT.as_array() * np.array(alpha))
            for spec, (error, ratio) in zip(((2, 1, 3.0), (2, 2, math.inf)), want):
                got = error_ratio(bubble, t, *spec)
                assert got == error_ratio(physical, t, *spec)
                assert got.error == pytest.approx(float.fromhex(error), rel=1e-12)
                assert got.ratio == pytest.approx(float.fromhex(ratio), rel=1e-12)

    def test_identity_alpha_reproduces_reference(self):
        sw = squeeze_sweep(1, 0, 2.0, alphas=[(1.0, 1.0, 1.0)])
        row = sw.rows[0]
        r = error_ratio(dict(corpus(1, T_HAT))[row.worst_field], T_HAT, 1, 0, 2.0)
        assert abs(row.max_ratio - r.ratio) < 1e-12

    def test_short_sweep_is_flat_and_bounded(self):
        sw = squeeze_sweep(1, 0, 2.0, alphas=default_alpha_grid(5))
        assert sw.variation_factor < 4.0
        assert sw.slope <= 0.1
        assert sw.trend_ok
        # Anisotropy must not inflate the normalized ratio.
        assert max(r.max_ratio for r in sw.rows) <= 10.0 * sw.rows[0].max_ratio

    def test_grid_is_validated(self):
        with pytest.raises(InputError):
            squeeze_sweep(1, 0, 2.0, alphas=[(1.0, 0.0, 1.0)])
        with pytest.raises(InputError):
            squeeze_sweep(1, 0, 2.0, alphas=[(2.0, 1.0, 1.0)])
        with pytest.raises(InputError, match="empty"):
            squeeze_sweep(1, 0, 2.0, alphas=[])
        with pytest.raises(InadmissiblePC):
            squeeze_sweep(1, 1, 2.0)

    @pytest.mark.parametrize("bad", [(1, 1), "ab"])
    def test_a_malformed_alpha_is_refused_before_any_level_is_measured(self, bad, monkeypatch):
        # Not a broadcast ValueError or a string conversion error raised
        # after the levels ahead of it were measured.
        calls = []
        measure = verify.error_ratio
        monkeypatch.setattr(verify, "error_ratio", lambda *a: calls.append(a) or measure(*a))
        with pytest.raises(InputError, match="level 1"):
            squeeze_sweep(1, 0, 2.0, alphas=[(1, 0.5, 0.5), bad])
        assert calls == []

    def test_all_fields_indeterminate_is_a_numerical_error(self, monkeypatch):
        # A corpus of one field in P_k leaves no ratio at any grid point.
        linear = Polynomial3({(1, 0, 0): 1.0, (0, 0, 0): 2.0})
        monkeypatch.setattr(verify, "corpus", lambda k, t: [("linear", linear)])
        with pytest.raises(NumericalError, match="indeterminate"):
            squeeze_sweep(1, 0, 2.0, alphas=[(1.0, 0.5, 0.5)])


# Fields for the scaling test, written in x, y, z through {x}, {y}, {z}.
SCALED_FIELDS = {
    "trig": "sin(0.7*{x} - 1.3*{y} + 0.4*{z} + 0.25)",
    "exp": "exp(0.9*{x} + 0.5*{y} - 0.8*{z})",
    "rational": "1/(2.5 + 0.6*{x} - 0.3*{y} + 0.8*{z})",
    "quartic": "{x}^4 - 2*{x}^2*{y}*{z} + 0.5*{y}^3*{x} + {z}^2 - {x}*{y}",
}


class TestStudy:
    FIELDS = [(name, field_from_expression(text.format(x="x", y="y", z="z")))
              for name, text in SCALED_FIELDS.items()]

    def test_rows_are_the_error_ratios_in_order(self):
        elements = generate(TetraGenSpec("mixed", 4), 3)
        rows = study(elements, self.FIELDS, 2, 1, 3.0)
        assert len(rows) == 3 and all(len(row) == len(self.FIELDS) for row in rows)
        for t, row in zip(elements, rows):
            for (_, v), got in zip(self.FIELDS, row):
                want = error_ratio(v, t, 2, 1, 3.0)
                assert (got.error, got.seminorm_hi, got.bound_factor, got.ratio,
                        got.indeterminate, got.warnings) == (
                    want.error, want.seminorm_hi, want.bound_factor, want.ratio,
                    want.indeterminate, want.warnings)
                assert (got.geometry.R_T, got.geometry.h) == (want.geometry.R_T, want.geometry.h)

    @pytest.mark.parametrize("spec", [(1, 1, 2.0), (1.5, 0, 2.0), (2, 2, 2.0)])
    def test_inadmissible_spec_raises_before_any_error_ratio(self, spec, monkeypatch):
        calls, drawn = [], []
        monkeypatch.setattr(verify, "error_ratio", lambda *a: calls.append(a))
        elements = (drawn.append(t) or t for t in (T_HAT, REGULAR))
        with pytest.raises(InadmissiblePC):
            study(elements, self.FIELDS, *spec)
        assert calls == [] and drawn == []

    def test_sweep_checks_the_spec_before_the_corpus_and_the_grid(self):
        # A non-integer k is an inadmissible (k, m, p), not a corpus degree,
        # and an inadmissible spec outranks an empty grid.
        with pytest.raises(InadmissiblePC):
            squeeze_sweep(1.5, 0, 2.0)
        with pytest.raises(InadmissiblePC):
            squeeze_sweep(1, 1, 2.0, alphas=[])

    def test_rows_do_not_change_when_the_elements_are_scaled(self):
        # (sT, v(./s)) has the ratios of (T, v): the bound is dimensionless.
        # s = 2^-10 is exact, and v(./s) is written as v of 1024.0*x.
        ref = np.asarray(T_HAT.as_array())
        alphas = default_alpha_grid()[:4]
        elements = [Tetrahedron.from_points(ref * a) for a in alphas]
        scaled = [Tetrahedron.from_points(ref * a * 2.0 ** -10) for a in alphas]
        fields = [(name, field_from_expression(
            text.format(x="(1024.0*x)", y="(1024.0*y)", z="(1024.0*z)")))
            for name, text in SCALED_FIELDS.items()]
        for spec in [(1, 0, 2.0), (2, 1, 2.0), (2, 1, 3.0), (3, 3, 4.0), (2, 2, math.inf),
                     (3, 1, math.inf)]:
            for want_row, got_row in zip(study(elements, self.FIELDS, *spec),
                                         study(scaled, fields, *spec)):
                for (name, _), want, got in zip(fields, want_row, got_row):
                    # Equal flags, and none set, so that the ratios compare.
                    assert not want.indeterminate and not got.indeterminate, (spec, name)
                    assert abs(got.ratio - want.ratio) <= 1e-12 * want.ratio, (spec, name)


class TestEquivalenceSample:
    def test_small_mixed_run_clean(self):
        rep = equivalence_sample(400, TetraGenSpec(family="mixed", seed=10))
        assert rep.violations == 0
        assert rep.worst_margin >= 0.0
        assert 0.5 - 1e-9 <= rep.min_ratio <= rep.max_ratio <= 2.0 + 1e-9
        assert rep.worst_tetra is not None

    def test_each_drawn_block_is_measured_once(self, monkeypatch):
        # The draw's degeneracy test measures the edge lengths, and the
        # experiments reuse them: one call per block, plus one per reverse
        # chunk of mac_experiment (one chunk at this seed).
        calls = []
        measure = verify.batch_edge_lengths
        monkeypatch.setattr(verify, "batch_edge_lengths",
                            lambda verts: calls.append(len(verts)) or measure(verts))
        equivalence_sample(100, TetraGenSpec(family="mixed", seed=5))
        assert calls == [100]
        calls.clear()
        mac_experiment(40, 0.9 * math.pi, seed=5)
        assert len(calls) == 2 and calls[0] == 40

    def test_regular_ratio_is_one(self):
        from anisotetra.geom import quality_ratio
        assert abs(quality_ratio(REGULAR) - 1.0) < 1e-12


class TestMacExperiment:
    def test_right_angle_small_run(self):
        rep = mac_experiment(150, math.pi / 2)
        assert rep.counterexamples == 0
        assert rep.forward_checked == 150
        assert not rep.forward_vacuous
        assert rep.reverse_checked == 150

    def test_tight_gamma_is_vacuous_but_reverse_works(self):
        rep = mac_experiment(100, math.pi / 3 + 0.01)
        assert rep.forward_vacuous
        assert rep.forward_checked == 0
        assert rep.counterexamples == 0
        assert rep.reverse_checked == 100

    def test_regular_passes_just_above_its_dihedral(self):
        gamma = math.acos(1.0 / 3.0) + 1e-6
        assert mac_check(REGULAR, gamma)
        rep = mac_experiment(30, gamma, seed=11)
        assert rep.counterexamples == 0

    def test_sliver_excluded_and_recorded(self):
        # Below acos(1/3) every sample of the mixed stream, slivers included,
        # is excluded, and the flattest one's R_T/h_T is recorded.
        rep = mac_experiment(20, math.pi / 3 + 0.01, seed=12)
        assert rep.forward_vacuous
        assert rep.excluded_count == 20
        assert rep.excluded_max_quality > 1e3

    def test_invalid_gamma_rejected(self):
        with pytest.raises(InvalidGammaMax):
            mac_experiment(10, 0.5)

    def test_a_converse_angle_of_pi_is_named_as_such(self):
        # gamma_max = 3.1415926 is valid, but its converse angle gamma'(D)
        # rounds to pi: the message names both, not gamma_max alone.
        with pytest.raises(InvalidGammaMax) as exc:
            mac_experiment(3, 3.1415926)
        message = str(exc.value)
        assert "gamma'(D) = 3.141592653589793" in message
        assert "gamma_max = 3.1415926 " in message and "got" not in message

    @pytest.mark.parametrize("gamma", [math.pi / 3 + 0.01, 0.9 * math.pi], ids=["tight", "wide"])
    def test_reverse_direction_draws_one_chunk(self, gamma, monkeypatch):
        # The first chunk is sized by a prior acceptance rate.  Proposal j
        # always comes from stream j and reverse_attempts counts up to the
        # n-th acceptance, so the report does not depend on the chunking.
        chunks = []
        real = verify._reverse_block
        monkeypatch.setattr(verify, "_reverse_block", lambda *a: chunks.append(a) or real(*a))
        reports = [mac_experiment(40, gamma, seed) for seed in range(10)]
        assert len(chunks) == 10
        monkeypatch.setattr(verify, "_REVERSE_PRIOR_RATE", 1.0)
        assert [mac_experiment(40, gamma, seed) for seed in range(10)] == reports


QUADRATIC = Polynomial3({(2, 0, 0): 1e8, (0, 1, 1): 3e7})


class TestConvergence:
    def test_linear_interpolation_order_two(self):
        shifted = Tetrahedron.from_points(
            [(x + 0.1, y + 0.1, z + 0.1) for x, y, z in T_HAT.coords()]
        )
        from anisotetra.expr import field_from_expression
        v = field_from_expression("sin(x + 2*y + 3*z)")
        res = convergence_study(v, shifted, 1, 0, 2.0)
        assert not res.exact
        assert abs(res.orders[-1] - 2.0) < 0.1
        assert abs(res.orders[-2] - 2.0) < 0.1

    def test_exact_for_reproduced_polynomial(self):
        v = Polynomial3({g: 0.3 for g in monomial_indices(2)})
        res = convergence_study(v, REGULAR, 2, 0, 2.0)
        assert res.exact
        assert res.orders == ()

    def test_orders_do_not_depend_on_the_scale_of_v(self):
        # The verdict is error_ratio's scale-free flag; an absolute floor on
        # the error would call 1e-8 sin(x+2y+3z) exact.
        want = convergence_study(field_from_expression("sin(x+2*y+3*z)"), T_HAT, 2, 0, 2.0)
        assert not want.exact and len(want.orders) == 4
        for s in [10.0 ** e for e in range(-20, 21, 5)] + [1e-8]:
            v = field_from_expression("%r*sin(x+2*y+3*z)" % s)
            got = convergence_study(v, T_HAT, 2, 0, 2.0)
            assert not got.exact, s
            assert np.allclose(got.orders, want.orders, rtol=0, atol=1e-9), s

    def test_indeterminate_at_every_level_is_exact(self):
        # v lies in P_2, so seminorm_hi is 0 at every level, while the
        # error of level 1 is roundoff (1.7e-10): no level has a ratio.
        v = Polynomial3({(2, 0, 0): 1e8, (0, 1, 1): 3e7})
        res = convergence_study(v, T_HAT, 2, 0, 2.0)
        assert res.exact
        assert res.orders == ()

    @pytest.mark.parametrize("shift,level,v", [
        # On T_HAT the quadratic interpolates exactly, so level 0 has an
        # error of exactly 0, while the field declares every third partial
        # 1, so seminorm_hi (2.12 at level 0) is determinate: no ratio of 0.
        (0.0, 0, ScalarField(
            QUADRATIC, order=3,
            partial_fn=lambda g, pts: QUADRATIC.partial(g, pts) if sum(g) < 3 else np.ones(len(pts)),
        )),
        # The cubic term of 2e-5 puts seminorm_hi at 2.9 times 1e-14 of v's
        # size at level 3 and at 0.43 times it (indeterminate) at level 4.
        (0.1, 4, Polynomial3({(2, 0, 0): 1e8, (0, 1, 1): 3e7, (3, 0, 0): 2e-5})),
    ], ids=["0.0-0", "0.1-4"])
    def test_level_without_a_ratio_raises(self, shift, level, v):
        t = Tetrahedron.from_points(np.asarray(T_HAT.as_array()) + shift)
        with pytest.raises(NumericalError, match="level %d " % level):
            convergence_study(v, t, 2, 0, 2.0)
