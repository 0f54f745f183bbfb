"""Lattice, box enumeration and difference-quotient tests."""

import math
from fractions import Fraction

import numpy as np
import pytest

from anisotetra.errors import MissingNodeValue
from anisotetra.geom import TYPE1, TYPE2, reference_tetrahedron
from anisotetra.lattice import (
    Box,
    _ordered_simplex_rule,
    difference_quotient,
    enumerate_boxes,
    gamma_to_lattice,
    in_lattice,
    lattice_points,
    lattice_to_gamma,
    node_values,
    nodes_on,
    quotient_coefficients,
    quotient_from_function,
    quotient_integral,
    sigma_k,
    unit_weights,
)

QUAD_TOL = 1e-12


def ref_quotient_integral(derivative, base, delta, k, points_per_dim=6):
    """quotient_integral one point at a time: a triple loop over the three
    axis rules, each point's shift and weight built in the library's order."""
    rules = [
        _ordered_simplex_rule(s, points_per_dim) if s else (np.zeros((1, 0)), np.ones(1))
        for s in delta
    ]
    (p1, w1), (p2, w2), (p3, w3) = rules
    x0 = np.array(base, dtype=float) / k
    pts, wts = [], []
    for a in range(p1.shape[0]):
        for b in range(p2.shape[0]):
            for c in range(p3.shape[0]):
                shift = np.array([p1[a].sum(), p2[b].sum(), p3[c].sum()]) / k
                pts.append(x0 + shift)
                wts.append(w1[a] * w2[b] * w3[c])
    vals = np.asarray(derivative(np.array(pts)), dtype=float).reshape(-1)
    return float(np.dot(vals, np.array(wts)))


def simplex_dim(d):
    # dim P_d in three variables
    return math.comb(d + 3, 3)


class TestLattice:
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_point_count_is_dim_pk(self, k, kind):
        assert len(lattice_points(k, kind)) == simplex_dim(k)

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gamma_roundtrip(self, k, kind):
        for point in lattice_points(k, kind):
            gamma = lattice_to_gamma(point, k, kind)
            assert sum(gamma) == k
            assert all(g >= 0 for g in gamma)
            assert gamma_to_lattice(gamma, kind) == point

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_membership_matches_enumeration(self, kind):
        k = 3
        points = set(lattice_points(k, kind))
        for i in range(-1, k + 2):
            for j in range(-1, k + 2):
                for l in range(-1, k + 2):
                    assert in_lattice((i, j, l), k, kind) == ((i, j, l) in points)

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reference_nodes_are_points_over_k(self, k, kind):
        ref = reference_tetrahedron(kind)
        gammas, nodes = nodes_on(ref.coords(), k)
        got = {tuple(np.round(x * k).astype(int)) for x in nodes}
        assert got == set(lattice_points(k, kind))

    def test_sigma_k_count(self):
        assert len(sigma_k(2)) == simplex_dim(2)

    def test_nodes_on_degree_zero_is_centroid(self):
        ref = reference_tetrahedron(TYPE1)
        _, nodes = nodes_on(ref.coords(), 0)
        assert np.allclose(nodes[0], np.full(3, 0.25))

    @pytest.mark.parametrize("k", [0, 2])
    def test_nodes_on_results_do_not_alias_the_cache(self, k):
        ref = reference_tetrahedron(TYPE2).coords()
        want_gammas, want_nodes = nodes_on(ref, k)
        gammas, nodes = nodes_on(ref, k)
        gammas.clear()
        nodes += 1.0
        got_gammas, got_nodes = nodes_on(ref, k)
        assert got_gammas == want_gammas == sigma_k(k)
        assert np.array_equal(got_nodes, want_nodes)
        with pytest.raises(ValueError):  # the shared table itself is read-only
            unit_weights(2)[0, 0] = 0.0


class TestBoxes:
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_count_is_dim_p_k_minus_delta(self, k, kind):
        for delta in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (2, 1, 1)]:
            if sum(delta) > k:
                continue
            boxes = enumerate_boxes(k, delta, kind)
            assert len(boxes) == simplex_dim(k - sum(delta))

    def test_corners_stay_in_lattice(self):
        for kind in (TYPE1, TYPE2):
            for box in enumerate_boxes(3, (1, 1, 0), kind):
                for corner in box.corners():
                    assert in_lattice(corner, 3, kind)

    @pytest.mark.parametrize("delta", [(1, 0, 0), (0, 2, 1), (2, 1, 1), (1, 3, 0), (2, 2, 2)])
    def test_quotient_terms_follow_box_corners(self, delta):
        etas = [eta for eta, _ in quotient_coefficients(delta)]
        assert etas == Box((0, 0, 0), delta).corners()

    def test_zero_delta_rejected(self):
        with pytest.raises(ValueError):
            enumerate_boxes(2, (0, 0, 0), TYPE1)
        with pytest.raises(ValueError):
            enumerate_boxes(2, (-1, 1, 0), TYPE1)


class TestQuotientCoefficients:
    def test_first_order_is_forward_difference(self):
        coeffs = dict(quotient_coefficients((1, 0, 0)))
        assert coeffs == {(1, 0, 0): Fraction(1), (0, 0, 0): Fraction(-1)}

    def test_alternating_signs_and_zero_sum(self):
        coeffs = quotient_coefficients((2, 1, 1))
        assert sum(c for _, c in coeffs) == 0
        for eta, c in coeffs:
            expect = Fraction(
                (-1) ** (4 - sum(eta)),
                math.factorial(eta[0]) * math.factorial(2 - eta[0])
                * math.factorial(eta[1]) * math.factorial(1 - eta[1])
                * math.factorial(eta[2]) * math.factorial(1 - eta[2]),
            )
            assert c == expect

    def test_worked_fourth_order_expansion(self):
        # delta = (2,1,1): 3*2*2 = 12 terms with weights C(2,i)C(1,j)C(1,l)/2
        # and sign (-1)^(4-i-j-l), scaled by 1/delta! = 1/2.
        coeffs = dict(quotient_coefficients((2, 1, 1)))
        assert len(coeffs) == 12
        for (i, j, l), c in coeffs.items():
            base = Fraction(math.comb(2, i) * math.comb(1, j) * math.comb(1, l), 2)
            assert c == (-1) ** (4 - i - j - l) * base


class TestDifferenceQuotient:
    def test_exact_on_matching_monomial(self):
        # f = x^2 y z, delta = (2,1,1): the quotient equals d^delta f/delta!
        # = 1 exactly, from any base box and any k.
        k = 4
        delta = (2, 1, 1)
        def f(pts):
            return pts[:, 0] ** 2 * pts[:, 1] * pts[:, 2]
        for box in enumerate_boxes(k, delta, TYPE1):
            q = quotient_from_function(f, box.base, delta, k)
            assert abs(q - 1.0) < 1e-9

    def test_annihilates_lower_degree(self):
        k = 3
        delta = (1, 1, 1)
        def f(pts):
            return 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 2]
        for box in enumerate_boxes(k, delta, TYPE2):
            q = quotient_from_function(f, box.base, delta, k)
            assert abs(q) < 1e-12

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_node_values_keyed_by_lattice_point(self, kind):
        # q = xyz, delta = (1,1,1): the quotient is d^delta q/delta! = 1 on
        # every box, which holds only if each value sits at its own point.
        def q(pts):
            return pts[:, 0] * pts[:, 1] * pts[:, 2]
        k, delta = 4, (1, 1, 1)
        values = node_values(q, k, kind)
        assert sorted(values) == lattice_points(k, kind)
        for box in enumerate_boxes(k, delta, kind):
            assert abs(difference_quotient(values, box.base, delta, k) - 1.0) < 1e-12

    def test_missing_node_raises(self):
        values = {p: 0.0 for p in lattice_points(2, TYPE1)}
        box = enumerate_boxes(2, (1, 0, 0), TYPE1)[0]
        del values[box.corners()[-1]]
        with pytest.raises(MissingNodeValue):
            difference_quotient(values, box.base, (1, 0, 0), 2)

    def test_scaling_in_k(self):
        # For f linear the quotient is k * (f(base+e)/k - f(base)/k) = df.
        for k in (1, 2, 5):
            q = quotient_from_function(
                lambda pts: 7.0 * pts[:, 0], (0, 0, 0), (1, 0, 0), k
            )
            assert abs(q - 7.0) < 1e-12


class TestQuotientIntegral:
    @pytest.mark.parametrize("delta", [(1, 0, 0), (1, 1, 0), (2, 1, 1)])
    def test_matches_quotient_for_smooth_field(self, delta):
        # The iterated-mean representation: integrating the raw derivative
        # d^delta f over one ordered simplex per axis reproduces the finite
        # difference to quadrature accuracy (the 1/delta! lives in the
        # measure).
        k = 4
        a = np.array([0.7, -0.4, 0.3])

        def f(pts):
            return np.exp(pts @ a)

        def derivative(pts):
            coef = a[0] ** delta[0] * a[1] ** delta[1] * a[2] ** delta[2]
            return coef * np.exp(np.asarray(pts) @ a)

        for box in enumerate_boxes(k, delta, TYPE1)[:6]:
            q = quotient_from_function(f, box.base, delta, k)
            qi = quotient_integral(derivative, box.base, delta, k, points_per_dim=8)
            assert abs(q - qi) < 1e-11 * max(1.0, abs(q))

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("delta", [(1, 0, 0), (0, 2, 0), (1, 1, 0), (2, 1, 1), (0, 0, 4)])
    def test_equals_point_by_point_reference(self, delta, kind):
        a = np.array([0.7, -0.4, 0.3])

        def derivative(pts):
            return np.exp(np.asarray(pts) @ a)

        for n in (3, 6):
            for box in enumerate_boxes(5, delta, kind)[:6]:
                want = ref_quotient_integral(derivative, box.base, delta, 5, n)
                assert quotient_integral(derivative, box.base, delta, 5, n) == want
