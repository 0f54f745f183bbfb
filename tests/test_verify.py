"""Experiment-layer tests: generators, ratios, sweeps, MAC sampling."""

import math

import numpy as np
import pytest

from anisotetra.errors import GenerationFailure, InadmissiblePC, InvalidGammaMax
from anisotetra.geom import (
    TYPE1,
    TYPE2,
    Tetrahedron,
    angles,
    classify,
    mac_check,
    matrices,
    quality,
    reference_tetrahedron,
    sorted_edge_lengths,
    standard_position,
)
from anisotetra.interp import Polynomial3, ScalarField, monomial_indices
from anisotetra.lattice import nodes_on
from anisotetra.verify import (
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
)

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
        with pytest.raises(ValueError):
            TetraGenSpec(family="cube", seed=0)

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
            v_moved = v.compose_affine(q.T, -q.T @ b)
            r = error_ratio(v_moved, moved, 1, 0, 2.0)
            assert abs(r.ratio - base) < 1e-8 * base

    @pytest.mark.parametrize("family", ["sliver", "needle"])
    def test_rotated_flat_elements_are_rigid_motion_invariant(self, family):
        # The moved field evaluates v at the pulled-back point instead of
        # expanding v about a new origin, so its values carry only v's own
        # roundoff and the comparison measures the interpolation.  Only
        # p = 2 and m <= 1: the weighted seminorm is rotation invariant there.
        def moved(v, t, q, b):
            v_moved = v.compose_affine(q.T, -q.T @ b)
            field = ScalarField(
                lambda pts: v.evaluate((pts - b) @ q),
                partial_fn=lambda gamma, pts: v_moved.partial(gamma).evaluate(pts),
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

    def test_polynomial_in_p_k_is_indeterminate(self):
        v = Polynomial3({(1, 0, 0): 1.0, (0, 0, 0): 3.0})
        r = error_ratio(v, T_HAT, 1, 0, 2.0)
        assert r.indeterminate
        assert r.ratio == 0.0
        assert r.error < 1e-12

    def test_inadmissible_pairing_raises(self):
        with pytest.raises(InadmissiblePC):
            error_ratio(Polynomial3.variable(0), T_HAT, 1, 1, 2.0)

    def test_transform_norm_chain(self):
        # The factorization route must stay inside the stated constants:
        # |A| <= 2 and |A^{-1}| <= 2 R_T/(3 h_T).
        for t in generate(TetraGenSpec(family="mixed", seed=9), 60):
            cls = classify(t)
            sp = standard_position(t, cls)
            mats = matrices(sp, cls.kind)
            r_t, _ = quality(t)
            h_t = sorted_edge_lengths(t)[-1]
            assert mats.normA <= 2.0 + 1e-9
            assert mats.normAinv <= 2.0 * r_t / (3.0 * h_t) * (1.0 + 1e-9)


class TestSqueezeSweep:
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
        with pytest.raises(ValueError):
            squeeze_sweep(1, 0, 2.0, alphas=[(1.0, 0.0, 1.0)])
        with pytest.raises(ValueError):
            squeeze_sweep(1, 0, 2.0, alphas=[(2.0, 1.0, 1.0)])
        with pytest.raises(InadmissiblePC):
            squeeze_sweep(1, 1, 2.0)


class TestEquivalenceSample:
    def test_small_mixed_run_clean(self):
        rep = equivalence_sample(400, TetraGenSpec(family="mixed", seed=10))
        assert rep.violations == 0
        assert rep.worst_margin >= 0.0
        assert 0.5 - 1e-9 <= rep.min_ratio <= rep.max_ratio <= 2.0 + 1e-9
        assert rep.worst_tetra is not None

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


class TestConvergence:
    def test_linear_interpolation_order_two(self):
        shifted = Tetrahedron.from_points(
            [(x + 0.1, y + 0.1, z + 0.1) for x, y, z in T_HAT.coords()]
        )
        from anisotetra.expr import field_from_expression
        v = field_from_expression("sin(x + 2*y + 3*z)")
        res = convergence_study(v, shifted, 1, 0, 2.0, levels=5)
        assert not res.exact
        assert abs(res.orders[-1] - 2.0) < 0.1
        assert abs(res.orders[-2] - 2.0) < 0.1

    def test_exact_for_reproduced_polynomial(self):
        v = Polynomial3({g: 0.3 for g in monomial_indices(2)})
        res = convergence_study(v, REGULAR, 2, 0, 2.0, levels=3)
        assert res.exact
        assert res.orders == ()

    def test_level_floor(self):
        with pytest.raises(ValueError):
            convergence_study(Polynomial3.variable(0), T_HAT, 1, 0, 2.0, levels=2)
