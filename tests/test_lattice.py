"""Lattice nodes, the forward-difference stencil and quotient tests."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from anisotetra.errors import InputError
from anisotetra.geom import TYPE1, TYPE2, reference_tetrahedron
from anisotetra.interp import _newton, monomial_indices
from anisotetra.lattice import (
    forward_differences,
    gauss_jacobi,
    nodes_on,
    quotient_coefficients,
    sigma_k,
    unit_weights,
)

QUAD_TOL = 1e-12


def simplex_dim(d):
    # dim P_d in three variables
    return math.comb(d + 3, 3)


def brute_lattice(k, kind):
    """X^k in lexicographic order by brute force: (i, j, l) >= 0 with
    i + j + l <= k, and on Type 2 its shear (i + j, j, l)."""
    return sorted(
        (i + j if kind == TYPE2 else i, j, l)
        for i, j, l in itertools.product(range(k + 1), repeat=3)
        if i + j + l <= k
    )


def brute_bases(k, delta, kind):
    """The points g of X^k whose box g + eta, eta <= delta, lies in X^k."""
    lattice = brute_lattice(k, kind)
    corners = list(itertools.product(*(range(d + 1) for d in delta)))
    return [g for g in lattice
            if all(tuple(np.add(g, eta).tolist()) in lattice for eta in corners)]


def quotients(f, k, delta, kind):
    """DQ^delta f at every base: the stencil against f at the nodes, times
    k^|delta| / delta!."""
    _, nodes = nodes_on(reference_tetrahedron(kind).coords(), k)
    scale = float(k) ** sum(delta) / math.prod(map(math.factorial, delta))
    return scale * (forward_differences(k, delta, kind)[1] @ f(nodes))


class TestLattice:
    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_point_count_is_dim_pk(self, k, kind):
        # delta = 0: every lattice point is a base, and each row picks its node.
        bases, diff = forward_differences(k, (0, 0, 0), kind)
        assert len(bases) == diff.shape[1] == simplex_dim(k)
        assert set(diff.ravel().tolist()) == {0.0, 1.0}
        assert np.array_equal(diff @ diff.T, np.eye(len(bases)))

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_gamma_roundtrip(self, k, kind):
        # Lattice point -> its node's column -> gamma -> the point again.
        bases, diff = forward_differences(k, (0, 0, 0), kind)
        verts = reference_tetrahedron(kind).as_array()
        for base, row in zip(bases.tolist(), diff):
            gamma = sigma_k(k)[int(np.flatnonzero(row)[0])]
            assert sum(gamma) == k
            assert all(g >= 0 for g in gamma)
            assert (np.array(gamma) @ verts).tolist() == base

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_membership_matches_enumeration(self, kind):
        for k in (1, 3, 5):
            bases = forward_differences(k, (0, 0, 0), kind)[0]
            assert list(map(tuple, bases.tolist())) == brute_lattice(k, kind)

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reference_nodes_are_points_over_k(self, k, kind):
        # k * nodes are the lattice points; on Type 2 the sheared ones.
        ref = reference_tetrahedron(kind)
        gammas, nodes = nodes_on(ref.coords(), k)
        got = sorted(tuple(np.round(x * k).astype(int).tolist()) for x in nodes)
        assert got == brute_lattice(k, kind)

    def test_sigma_k_count(self):
        assert len(sigma_k(2)) == simplex_dim(2)
        with pytest.raises(InputError):
            sigma_k(-1)

    @pytest.mark.parametrize("call,k", [
        (sigma_k, 1.5), (sigma_k, True), (sigma_k, "2"), (sigma_k, -1),
        (unit_weights, 1.5), (unit_weights, 0), (unit_weights, True), (unit_weights, -2),
        (lambda k: nodes_on(reference_tetrahedron(TYPE1).coords(), k), 2.5),
        (lambda k: nodes_on(reference_tetrahedron(TYPE1).coords(), k), False),
        (lambda k: nodes_on(reference_tetrahedron(TYPE1).coords(), k), 0),
    ])
    def test_bad_orders_raise_input_error(self, call, k):
        # Not TypeError, a list for True, or NaN weights with a RuntimeWarning.
        with pytest.raises(InputError, match="integer"):
            call(k)

    def test_integer_orders_of_any_type_agree(self):
        assert sigma_k(np.int64(3)) == sigma_k(3)
        assert unit_weights(np.int64(3)) is unit_weights(3)

    @pytest.mark.parametrize("k", [1, 2])
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
        for delta in monomial_indices(k)[1:]:
            bases = forward_differences(k, delta, kind)[0]
            assert list(map(tuple, bases.tolist())) == brute_bases(k, delta, kind), delta
            assert len(bases) == simplex_dim(k - sum(delta))

    def test_corners_stay_in_lattice(self):
        # Each row's nonzero columns are the nodes at its box's corners.
        k, delta = 3, (1, 1, 0)
        corners = list(itertools.product(*(range(d + 1) for d in delta)))
        for kind in (TYPE1, TYPE2):
            _, nodes = nodes_on(reference_tetrahedron(kind).coords(), k)
            points = np.rint(k * nodes).astype(int)
            bases, diff = forward_differences(k, delta, kind)
            for base, row in zip(bases, diff):
                got = sorted(map(tuple, points[np.flatnonzero(row)].tolist()))
                assert got == sorted(tuple((base + eta).tolist()) for eta in corners)

    @pytest.mark.parametrize("delta", [(1, 0, 0), (0, 2, 1), (2, 1, 1), (1, 3, 0), (2, 2, 2)])
    def test_quotient_terms_follow_box_corners(self, delta):
        # The terms run over the corners eta <= delta in lexicographic order,
        # and the base-0 row of the stencil is delta! times them.
        etas = [eta for eta, _ in quotient_coefficients(delta)]
        assert etas == list(itertools.product(*(range(d + 1) for d in delta)))
        k = sum(delta)
        bases, diff = forward_differences(k, delta, TYPE1)
        assert bases[0].tolist() == [0, 0, 0]
        column = {gamma[1:]: j for j, gamma in enumerate(sigma_k(k))}
        want = np.zeros(diff.shape[1])
        for eta, c in quotient_coefficients(delta):
            want[column[eta]] = math.prod(map(math.factorial, delta)) * c
        assert np.array_equal(diff[0], want)

    def test_bad_arguments_rejected(self):
        for args in [(2, (-1, 1, 0), TYPE1), (2, (1, 0), TYPE1), (2, (1.5, 0, 0), TYPE1),
                     (2, (1, 0, 0), 3), (0, (1, 0, 0), TYPE1), (9, (1, 0, 0), TYPE1)]:
            with pytest.raises(InputError):
                forward_differences(*args)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_newton_differences_are_the_base_zero_rows(self, k):
        # The interpolant's forward differences, row alpha of _newton(k)[1],
        # are bitwise the base-0 rows of the Type 1 stencils and alpha! times
        # the exact coefficients.
        column = {gamma[1:]: j for j, gamma in enumerate(sigma_k(k))}
        want = np.zeros((len(column), len(column)))
        for row, alpha in enumerate(monomial_indices(k)):
            for eta, c in quotient_coefficients(alpha):
                want[row, column[eta]] = math.prod(map(math.factorial, alpha)) * c
        rows = [forward_differences(k, alpha, TYPE1)[1][0] for alpha in monomial_indices(k)]
        diff = _newton(k)[1]
        assert diff.tobytes() == np.array(rows).tobytes() == want.tobytes()

    def test_stencil_is_cached_and_read_only(self):
        bases, diff = forward_differences(3, (1, 1, 0), TYPE2)
        assert forward_differences(3, [1, 1, 0], TYPE2)[1] is diff
        for array in (bases, diff):
            with pytest.raises(ValueError):
                array[0] = 0


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
        # = 1 exactly, on every box of both kinds.
        def f(pts):
            return pts[:, 0] ** 2 * pts[:, 1] * pts[:, 2]
        for kind in (TYPE1, TYPE2):
            q = quotients(f, 4, (2, 1, 1), kind)
            assert len(q) == simplex_dim(0)
            assert np.max(np.abs(q - 1.0)) < 1e-9

    def test_annihilates_lower_degree(self):
        def f(pts):
            return 2.0 + 3.0 * pts[:, 0] - pts[:, 1] + 0.5 * pts[:, 0] * pts[:, 2]
        for kind in (TYPE1, TYPE2):
            q = quotients(f, 3, (1, 1, 1), kind)
            assert len(q) and np.max(np.abs(q)) < 1e-12

    @pytest.mark.parametrize("kind", [TYPE1, TYPE2])
    def test_node_values_keyed_by_lattice_point(self, kind):
        # q = xyz, delta = (1,1,1): the quotient is d^delta q/delta! = 1 on
        # every box, which holds only if each column of the stencil is the
        # node at its own lattice point.
        def q(pts):
            return pts[:, 0] * pts[:, 1] * pts[:, 2]
        got = quotients(q, 4, (1, 1, 1), kind)
        assert len(got) == simplex_dim(1)
        assert np.max(np.abs(got - 1.0)) < 1e-12

    def test_scaling_in_k(self):
        # For f linear the quotient is k * (f(base+e)/k - f(base)/k) = df.
        for k in (1, 2, 5):
            q = quotients(lambda pts: 7.0 * pts[:, 0], k, (1, 0, 0), TYPE1)
            assert np.max(np.abs(q - 7.0)) < 1e-12


def jacobi_moment(d, a, absolute=False):
    """The exact integral of x^d (1 - x)^a over [-1, 1], or of |x|^d (1 - x)^a,
    from the binomial expansion of (1 - x)^a."""
    total = Fraction(0)
    for i in range(a + 1):
        if absolute:
            part = Fraction(1 + (-1) ** i, d + i + 1)
        else:
            part = Fraction(2, d + i + 1) if (d + i) % 2 == 0 else Fraction(0)
        total += math.comb(a, i) * (-1) ** i * part
    return total


class TestGaussJacobi:
    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_exact_to_degree_2n_minus_1(self, a):
        # Relative to the integral of |x|^d (1 - x)^a, since the moment
        # itself vanishes for odd d when a = 0.
        for n in range(1, 12):
            x, w = gauss_jacobi(n, a)
            for d in range(2 * n):
                err = abs(float(w @ x**d) - float(jacobi_moment(d, a)))
                assert err <= 1e-14 * float(jacobi_moment(d, a, absolute=True)), (n, d)

    @pytest.mark.parametrize("a", [0, 1, 2])
    def test_matches_scipy(self, a):
        # scipy is a test-only oracle here; the package does not import it.
        roots_jacobi = pytest.importorskip("scipy.special").roots_jacobi
        for n in range(1, 12):
            x, w = gauss_jacobi(n, a)
            want_x, want_w = roots_jacobi(n, a, 0)
            assert np.max(np.abs(x - want_x)) <= 1e-15, n
            assert np.max(np.abs(w / want_w - 1.0)) <= 1e-13, n

    def test_cached_and_read_only(self):
        x, w = gauss_jacobi(5, 2)
        assert gauss_jacobi(5, 2)[0] is x
        for array in (x, w):
            with pytest.raises(ValueError):
                array[:] = 0.0
