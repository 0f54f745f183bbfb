"""Polynomial algebra, scalar fields and Lagrange interpolation tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from anisotetra.errors import (
    DegenerateTetrahedron,
    DerivativeUnavailable,
    InvalidDegree,
    NumericalError,
)
from anisotetra.geom import TYPE1, TYPE2, Tetrahedron, reference_tetrahedron
from anisotetra.interp import (
    Interpolant,
    Polynomial3,
    ScalarField,
    as_field,
    derivative_indices,
    interpolate,
    monomial_indices,
    pull_back,
    residual,
)
from anisotetra.lattice import nodes_on
from anisotetra.verify import TetraGenSpec, corpus, generate

REPRO_TOL = 1e-9
T_HAT = reference_tetrahedron(TYPE1)
T_TILDE = reference_tetrahedron(TYPE2)

ANISO = Tetrahedron.from_points(
    [(0.2, 0.1, -0.3), (1.4, 0.2, -0.1), (0.3, 0.9, 0.05), (0.25, 0.3, 0.8)]
)
# ANISO moved by a fixed orthogonal map and shifted off the axes.
ROTATED_ANISO = Tetrahedron.from_points(
    np.asarray(ANISO.as_array())
    @ np.linalg.qr(np.random.default_rng(12).normal(size=(3, 3)))[0].T
    + np.array([0.7, -0.4, 0.3])
)


def random_poly(rng, degree):
    return Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(degree)})


def simplex_monomial_integral(a, b, c):
    # over the unit reference tetrahedron
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


class TestPolynomial3:
    def test_evaluate_matches_horner_free_form(self):
        p = Polynomial3({(0, 0, 0): 1.0, (1, 0, 0): -2.0, (1, 1, 1): 3.0})
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        want = 1.0 - 2.0 * pts[:, 0] + 3.0 * pts[:, 0] * pts[:, 1] * pts[:, 2]
        assert np.allclose(p.evaluate(pts), want, rtol=0, atol=1e-15)

    def test_partial_drops_degree_with_exact_coefficients(self):
        p = Polynomial3({(3, 1, 0): 2.0})
        d = p.partial((2, 1, 0))
        assert d.coeffs == {(1, 0, 0): 2.0 * 6.0}

    @pytest.mark.parametrize("abc", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 1)])
    def test_integrate_monomials_on_reference(self, abc):
        a, b, c = abc
        p = Polynomial3({abc: 1.0})
        want = simplex_monomial_integral(a, b, c)
        assert abs(p.integrate(T_HAT) - want) < 1e-15 + 1e-12 * want

    def test_integrate_is_affine_invariant_in_total_mass(self):
        p = Polynomial3.constant(1.0)
        from anisotetra.geom import volume
        assert abs(p.integrate(ANISO) - volume(ANISO)) < 1e-14

    def test_compose_affine_shifts_argument(self):
        p = Polynomial3({(2, 0, 0): 1.0})
        q = p.compose_affine(np.eye(3), np.array([1.0, 0.0, 0.0]))  # x -> x + 1
        pts = np.array([[0.5, 0.0, 0.0], [2.0, 1.0, -1.0]])
        assert np.allclose(q.evaluate(pts), (pts[:, 0] + 1.0) ** 2)

    def test_ring_operations(self):
        x = Polynomial3.variable(0)
        y = Polynomial3.variable(1)
        p = (x + y) * (x - y)
        q = x * x - y * y
        pts = np.random.default_rng(0).uniform(-1, 1, (20, 3))
        assert np.allclose(p.evaluate(pts), q.evaluate(pts), atol=1e-15)


    @pytest.mark.parametrize(
        "q,first_m",
        [(Polynomial3(), 0), (Polynomial3.constant(2.0), 1), (Polynomial3({(2, 1, 0): 1.5}), 4)],
        ids=["zero", "constant", "cubic"],
    )
    def test_partials_above_degree_vanish(self, q, first_m):
        pts = np.random.default_rng(5).uniform(-1, 1, (7, 3))
        for m in range(first_m, first_m + 3):
            want = np.zeros((len(derivative_indices(m)), len(pts)))
            assert np.array_equal(q.partials(m, pts), want), m

    @pytest.mark.parametrize("m", [0, 1, 2])
    @pytest.mark.parametrize("name", ["poly0", "bubble"])
    def test_partials_within_roundoff_of_exact_rationals(self, name, m):
        # Each value lies within 16 eps of the sum of its terms' magnitudes,
        # against the exact rational value of the same float coefficients
        # at the same float points, on a flat element.
        t = generate(TetraGenSpec("sliver", 5), 6)[4]
        q = dict(corpus(4, t))[name]
        pts = nodes_on(t.as_array(), 2)[1]
        got = q.partials(m, pts)
        bound = 16 * Fraction(np.finfo(float).eps)
        for row, gamma in zip(got, derivative_indices(m)):
            for value, x in zip(row, pts):
                terms = [
                    Fraction(coef)
                    * math.prod(
                        math.perm(a, g) * Fraction(xi) ** (a - g)
                        for a, g, xi in zip(alpha, gamma, x)
                    )
                    for alpha, coef in q.coeffs.items()
                    if all(a >= g for a, g in zip(alpha, gamma))
                ]
                error = abs(Fraction(value) - sum(terms))
                assert error <= bound * sum(map(abs, terms)), (gamma, x)


class TestScalarField:
    def test_finite_difference_fallback_matches_exact(self):
        a = np.array([0.9, -0.4, 0.2])
        fd = ScalarField(lambda pts: np.exp(pts @ a))
        assert not fd.exact_partials
        pts = np.array([[0.1, 0.2, 0.3], [0.0, -0.5, 0.4]])
        want = a[0] * a[1] * np.exp(pts @ a)
        got = fd.partial((1, 1, 0), pts)
        assert np.allclose(got, want, rtol=1e-5)

    def test_from_polynomial_partials_are_exact(self):
        p = Polynomial3({(2, 1, 0): 1.5})
        f, degree = as_field(p)
        assert degree == 3
        assert f.exact_partials
        pts = np.array([[1.0, 2.0, 0.0]])
        assert np.allclose(f.partial((1, 1, 0), pts), 2.0 * 1.5 * pts[:, 0])

    def test_as_field_reports_polynomial_degree(self):
        t = reference_tetrahedron(TYPE1)
        ip = interpolate(Polynomial3({(1, 1, 1): 1.0}), t, 2)
        field, degree = as_field(ip)
        assert degree == 2 and field.exact_partials
        pts = np.array([[0.1, 0.2, 0.3]])
        assert np.array_equal(field.partial((1, 0, 0), pts), ip.partial((1, 0, 0), pts))
        sf = ScalarField(lambda pts: pts[:, 0])
        assert as_field(sf) == (sf, None)
        field, degree = as_field(lambda pts: pts[:, 0])
        assert degree is None and not field.exact_partials

    def test_order_limit_enforced(self):
        f = ScalarField(lambda pts: pts[:, 0], order=1)
        f.partial((1, 0, 0), np.zeros((1, 3)))
        with pytest.raises(DerivativeUnavailable):
            f.partial((2, 0, 0), np.zeros((1, 3)))


class TestInterpolation:
    def test_x_squared_with_k1_on_reference_gives_x(self):
        ip = interpolate(Polynomial3({(2, 0, 0): 1.0}), T_HAT, 1)
        want = Polynomial3.variable(0)
        pts = np.random.default_rng(2).uniform(0, 1, (20, 3))
        assert np.allclose(ip.evaluate(pts), want.evaluate(pts), atol=1e-12)

    def test_nodal_exactness(self):
        rng = np.random.default_rng(3)
        f = ScalarField(lambda pts: np.sin(pts @ np.array([1.0, 2.0, 3.0])))
        for k in (1, 2, 3, 4):
            ip = interpolate(f, ANISO, k)
            gammas, nodes = nodes_on(ANISO.coords(), k)
            assert np.allclose(ip.evaluate(nodes), f(nodes), atol=1e-11)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_reproduces_p_k(self, k):
        rng = np.random.default_rng(10 + k)
        pts = rng.uniform(-0.5, 1.5, (30, 3))
        for _ in range(5):
            q = random_poly(rng, k)
            ip = interpolate(q, ANISO, k)
            qv = q.evaluate(pts)
            scale = max(1.0, float(np.max(np.abs(qv))))
            assert np.max(np.abs(ip.evaluate(pts) - qv)) < REPRO_TOL * scale

    def test_linearity(self):
        rng = np.random.default_rng(4)
        u = random_poly(rng, 3)
        v = random_poly(rng, 3)
        a, b = 2.5, -1.25
        ip_sum = interpolate(u * a + v * b, ANISO, 2)
        ip_u = interpolate(u, ANISO, 2)
        ip_v = interpolate(v, ANISO, 2)
        pts = rng.uniform(0, 1, (15, 3))
        assert np.allclose(
            ip_sum.evaluate(pts),
            a * ip_u.evaluate(pts) + b * ip_v.evaluate(pts),
            atol=1e-10,
        )

    def test_affine_covariance(self):
        # Interpolating the pulled-back field on the mapped element equals
        # mapping the interpolant: nodes correspond under the affine map.
        rng = np.random.default_rng(5)
        B = np.array([[1.2, 0.3, 0.0], [-0.1, 0.8, 0.2], [0.05, 0.0, 1.5]])
        b = np.array([0.4, -0.2, 0.7])
        mapped = Tetrahedron.from_points(np.asarray(ANISO.as_array()) @ B.T + b)
        v = random_poly(rng, 4)
        Binv = np.linalg.inv(B)
        v_pulled = v.compose_affine(Binv, -Binv @ b)  # v(F^{-1}(x)) on mapped
        ip = interpolate(v, ANISO, 2)
        ip_mapped = interpolate(v_pulled, mapped, 2)
        pts = rng.uniform(0, 1, (10, 3))
        mapped_pts = pts @ B.T + b
        assert np.allclose(
            ip_mapped.evaluate(mapped_pts), ip.evaluate(pts), atol=1e-9
        )

    def test_interpolant_partial_matches_polynomial(self):
        # For q in P_3 the interpolant is q, so its chain-rule partials on a
        # rotated element must equal q's exact ones at every order.
        rng = np.random.default_rng(7)
        q = random_poly(rng, 3)
        ip = interpolate(q, ROTATED_ANISO, 3)
        pts = rng.uniform(0.0, 1.0, (8, 4))
        pts = (pts / pts.sum(axis=1, keepdims=True)) @ ROTATED_ANISO.as_array()
        for gamma in monomial_indices(3)[1:]:  # every order 1 to 3
            want = q.partial(gamma).evaluate(pts)
            assert np.allclose(ip.partial(gamma, pts), want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "q,k",
        [
            (Polynomial3(), 4),
            (Polynomial3.constant(1.0), 3),
            (Polynomial3.variable(0), 2),
            (Polynomial3.variable(2), 4),
            (Polynomial3.variable(0), 4),
        ],
        ids=["zero-k4", "constant-k3", "x-k2", "z-k4", "x-k4"],
    )
    def test_low_degree_reference_polynomial(self, q, k):
        # ref drops zero coefficients, so its degree may lie below k (all
        # but x-k4, whose roundoff coefficients reach degree 4); every
        # order up to k + 1 must still be q's own partials.
        ip = interpolate(q, T_HAT, k)
        pts = np.random.default_rng(6).uniform(0, 0.3, (5, 3))
        for m in range(k + 2):
            got, want = ip.partials(m, pts), q.partials(m, pts)
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=0, atol=1e-12), m

    def test_single_point_is_a_batch_of_one(self):
        q = Polynomial3({(2, 0, 1): 0.5, (0, 1, 0): -1.0})
        x = np.array([0.3, 0.2, 0.1])
        for f in (q, interpolate(q, ANISO, 3), residual(q, ANISO, 2)):
            for m in range(4):
                got = f.partials(m, x)
                assert got.shape == (len(derivative_indices(m)), 1)
                assert np.array_equal(got, f.partials(m, x[None, :]))
        assert q.evaluate(x) == q.evaluate(x[None, :])[0]

    def test_degree_bounds(self):
        with pytest.raises(InvalidDegree):
            interpolate(Polynomial3.constant(1.0), T_HAT, 0)
        with pytest.raises(InvalidDegree):
            interpolate(Polynomial3.constant(1.0), T_HAT, 9)

    def test_nonfinite_nodal_values_raise(self):
        # 1/x is infinite at the nodes on the face x = 0 of the reference
        # element; the first of them in node order is the vertex (0, 0, 0).
        f = ScalarField(lambda pts: 1.0 / pts[:, 0])
        with np.errstate(divide="ignore"), pytest.raises(NumericalError) as exc:
            interpolate(f, T_HAT, 2)
        assert "not finite" in str(exc.value)
        assert "(2, 0, 0, 0)" in str(exc.value)

    @pytest.mark.parametrize("k,tol", [(4, 1e-13), (8, 1e-10)])
    def test_nodal_values_reproduced_at_high_degree(self, k, tol):
        # Guards the conditioning of the monomial reference basis: on a
        # rotated element the interpolant returns its own nodal values.
        f = ScalarField(lambda pts: np.sin(pts @ np.array([1.0, 2.0, 3.0])))
        ip = interpolate(f, ROTATED_ANISO, k)
        _, nodes = nodes_on(ROTATED_ANISO.coords(), k)
        assert np.max(np.abs(ip.partials(0, nodes)[0] - f(nodes))) <= tol

    def test_condition_estimate_reported(self):
        ip = interpolate(Polynomial3.constant(1.0), ANISO, 4)
        assert ip.condition_estimate >= 1.0
        _, jac, _ = pull_back(ANISO)
        assert ip.condition_estimate == np.linalg.cond(jac)

    @pytest.mark.parametrize("alpha", [(0, 0, 0), (1, 0, 0), (0, 2, 1), (1, 1, 1)])
    def test_coefficient_vector_is_the_interpolant(self, alpha):
        # A unit vector over monomial_indices(k) is the reference monomial
        # xi^alpha, with xi = J^{-1} (x - x_0), pulled back to the element.
        k = 3
        coef = np.array([float(g == alpha) for g in monomial_indices(k)])
        origin, jac, inverse_t = pull_back(ROTATED_ANISO)
        ip = Interpolant(coef, k, origin, jac, inverse_t)
        pts = nodes_on(ROTATED_ANISO.coords(), 5)[1]
        xi = np.linalg.solve(jac, (pts - origin).T)
        want = np.prod([xi[i] ** alpha[i] for i in range(3)], axis=0)
        assert np.allclose(ip.evaluate(pts), want, rtol=0, atol=1e-12)

    def test_coplanar_vertices_are_degenerate(self):
        flat = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        with pytest.raises(DegenerateTetrahedron):
            interpolate(Polynomial3.constant(1.0), flat, 2)

    @pytest.mark.parametrize("family", ["sliver", "needle"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_rotated_flat_elements_interpolate(self, family, k):
        f = ScalarField(lambda pts: np.sin(pts @ np.array([1.0, 2.0, 3.0])))
        for t in generate(TetraGenSpec(family=family, seed=5), 6):
            ip = interpolate(f, t, k)
            _, nodes = nodes_on(t.coords(), k)
            assert np.allclose(ip.evaluate(nodes), f(nodes), rtol=0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @seed(1)
    @given(
        k=st.integers(min_value=1, max_value=3),
        shift=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_reproduction_is_translation_stable(self, k, shift):
        rng = np.random.default_rng(8)
        q = random_poly(rng, k)
        t = Tetrahedron.from_points(
            [(x + shift, y - shift, z + 0.5 * shift) for x, y, z in ANISO.coords()]
        )
        ip = interpolate(q, t, k)
        pts = np.asarray(t.as_array()).mean(axis=0, keepdims=True)
        assert np.allclose(ip.evaluate(pts), q.evaluate(pts), rtol=1e-9, atol=1e-9)


class TestResidual:
    def test_vanishes_at_nodes(self):
        f = ScalarField(lambda pts: np.exp(pts @ np.array([0.3, 0.9, -0.5])))
        for k in (1, 2, 3):
            u = residual(f, ANISO, k)
            _, nodes = nodes_on(ANISO.coords(), k)
            assert np.max(np.abs(u(nodes))) < 1e-12

    def test_known_value_for_x_squared_k1(self):
        # On the reference element, x^2 - I x^2 = x^2 - x, minimized at 1/2.
        u = residual(Polynomial3({(2, 0, 0): 1.0}), T_HAT, 1)
        assert abs(u(np.array([[0.5, 0.1, 0.1]]))[0] + 0.25) < 1e-12

    def test_partials_flow_through(self):
        p = Polynomial3({(2, 0, 0): 1.0})
        u = residual(p, T_HAT, 1)
        pts = np.array([[0.25, 0.2, 0.2]])
        # d/dx (x^2 - x) = 2x - 1
        assert np.allclose(u.partial((1, 0, 0), pts), 2 * 0.25 - 1.0, atol=1e-12)
        assert u.exact_partials
