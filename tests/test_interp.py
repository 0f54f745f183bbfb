"""Polynomial algebra, scalar fields and Lagrange interpolation tests."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from scipy.special import binom

from anisotetra.errors import (
    AnisotetraError,
    DegenerateTetrahedron,
    DerivativeUnavailable,
    InputError,
    InvalidDegree,
    NumericalError,
)
from anisotetra.expr import field_from_expression
from anisotetra.geom import TYPE1, TYPE2, Tetrahedron, reference_tetrahedron
from anisotetra.interp import (
    Interpolant,
    Polynomial3,
    ScalarField,
    as_field,
    derivative_indices,
    derivatives,
    interpolate,
    monomial_indices,
    pull_back,
    residual,
)
from anisotetra import interp, quad
from anisotetra.lattice import nodes_on, quotient_coefficients
from anisotetra.quad import SeminormSpec, seminorm_with_info
from anisotetra.verify import TetraGenSpec, bubble_polynomial, corpus, error_ratio, generate
from exact_poly import Exact, degree7_cases, exact_partial_rows

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


def physical_bubble(t):
    """lambda_0 lambda_1 lambda_2 lambda_3 of t multiplied out in physical
    monomials, each lambda_i a row of the inverse barycentric matrix; the
    product is exact and its coefficients are rounded once."""
    b = np.ones((4, 4))
    b[1:, :] = np.asarray(t.as_array()).T
    forms = [
        Exact({(0, 0, 0): c[0], (1, 0, 0): c[1], (0, 1, 0): c[2], (0, 0, 1): c[3]})
        for c in np.linalg.inv(b).tolist()
    ]
    return math.prod(forms[1:], start=forms[0]).polynomial()


class TestPolynomial3:
    def test_evaluate_matches_horner_free_form(self):
        p = Polynomial3({(0, 0, 0): 1.0, (1, 0, 0): -2.0, (1, 1, 1): 3.0})
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]])
        want = 1.0 - 2.0 * pts[:, 0] + 3.0 * pts[:, 0] * pts[:, 1] * pts[:, 2]
        assert np.allclose(p.evaluate(pts), want, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("key", [(1.5, 0, 0), (-1, 0, 0), (1, 0), (True, 0, 0)],
                             ids=["fractional", "negative", "two-entry", "bool"])
    def test_exponents_must_be_three_counts(self, key):
        with pytest.raises(InputError) as exc:
            Polynomial3({key: 1.0})
        assert repr(key) in str(exc.value)

    @pytest.mark.parametrize("value", [1j, "abc", None, "1.5"])
    def test_coefficients_must_be_real_numbers(self, value):
        with pytest.raises(InputError) as exc:
            Polynomial3({(1, 0, 0): value})
        assert "(1, 0, 0)" in str(exc.value) and repr(value) in str(exc.value)

    def test_partial_drops_degree_with_exact_coefficients(self):
        # d^(2,1,0) of 2 x^3 y is 12 x: one nonzero coefficient, and its row
        # of partials is 12 x exactly.
        p = Polynomial3({(3, 1, 0): 2.0})
        row = derivatives(p.coef, p.degree, 3)[derivative_indices(3).index((2, 1, 0))]
        assert dict(zip(monomial_indices(1), row.tolist())) == {
            (0, 0, 0): 0.0, (1, 0, 0): 12.0, (0, 1, 0): 0.0, (0, 0, 1): 0.0
        }
        pts = np.random.default_rng(1).uniform(-1, 1, (6, 3))
        assert np.array_equal(p.partial((2, 1, 0), pts), 12.0 * pts[:, 0])

    # The exact oracle of the tests below (exact_poly.Exact) reads a
    # Polynomial3's dense coefficients.
    @pytest.mark.parametrize("abc", [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 1)])
    def test_integrate_monomials_on_reference(self, abc):
        a, b, c = abc
        got = Exact.of(Polynomial3({abc: 1.0})).integrate(T_HAT)
        assert got == Fraction(math.factorial(a) * math.factorial(b) * math.factorial(c),
                               math.factorial(a + b + c + 3))

    def test_integrate_is_affine_invariant_in_total_mass(self):
        p = Exact.of(Polynomial3({(0, 0, 0): 1.0}))
        from anisotetra.geom import volume
        assert abs(float(p.integrate(ANISO)) - volume(ANISO)) < 1e-14

    def test_compose_affine_shifts_argument(self):
        p = Exact.of(Polynomial3({(2, 0, 0): 1.0}))
        q = p.compose_affine(np.eye(3), np.array([1.0, 0.0, 0.0])).polynomial()  # x -> x + 1
        pts = np.array([[0.5, 0.0, 0.0], [2.0, 1.0, -1.0]])
        assert np.allclose(q.evaluate(pts), (pts[:, 0] + 1.0) ** 2)

    def test_ring_operations(self):
        x = Exact.variable(0)
        y = Exact.variable(1)
        p = ((x + y) * (x - y)).polynomial()
        q = Polynomial3({(2, 0, 0): 1.0, (0, 2, 0): -1.0})
        assert np.array_equal(p.coef, q.coef)
        pts = np.random.default_rng(0).uniform(-1, 1, (20, 3))
        assert np.allclose(p.evaluate(pts), q.evaluate(pts), atol=1e-15)


    @pytest.mark.parametrize(
        "q,first_m",
        [(Polynomial3(), 0), (Polynomial3({(0, 0, 0): 2.0}), 1), (Polynomial3({(2, 1, 0): 1.5}), 4)],
        ids=["zero", "constant", "cubic"],
    )
    def test_partials_above_degree_vanish(self, q, first_m):
        pts = np.random.default_rng(5).uniform(-1, 1, (7, 3))
        for m in range(first_m, first_m + 3):
            want = np.zeros((len(derivative_indices(m)), len(pts)))
            assert np.array_equal(q.partials(m, pts), want), m

    @pytest.mark.parametrize(
        "name,m",
        [(name, m) for name in ("poly0", "bubble") for m in range(3)]
        + [(name, m) for name in ("dense7", "sparse7") for m in range(5)],
    )
    def test_partials_within_roundoff_of_exact_rationals(self, name, m):
        # Each value lies within 16 eps of the sum of its terms' magnitudes,
        # against the exact rational value of the same float coefficients
        # at the same float points: on a flat element, and at the 1500
        # points of degree7_cases, where the partials' matrix product sums
        # up to 120 monomials.
        # The bubble case is t's product of barycentric forms multiplied out
        # in physical monomials, whose terms cancel on this flat element.
        if name in ("poly0", "bubble"):
            t = generate(TetraGenSpec("sliver", 5), 6)[4]
            q = dict(corpus(4, t))[name] if name == "poly0" else physical_bubble(t)
            pts = nodes_on(t.as_array(), 2)[1]
        else:
            pts, polys, _ = degree7_cases()
            q = polys[name]
        got = q.partials(m, pts)
        exact, scale = exact_partial_rows(q, m, pts)
        bound = 16 * Fraction(np.finfo(float).eps)
        for row, gamma, (values, magnitudes) in zip(got, derivative_indices(m), exact):
            for value, want, magnitude, x in zip(row, values, magnitudes, pts):
                error = abs(Fraction(value) * scale - want)
                assert error <= bound * magnitude, (gamma, x)


class TestScalarField:
    def test_from_polynomial_partials_are_exact(self):
        p = Polynomial3({(2, 1, 0): 1.5})
        f = as_field(p)
        assert f.degree == 3
        assert f.exact_partials
        pts = np.array([[1.0, 2.0, 0.0]])
        assert np.allclose(f.partial((1, 1, 0), pts), 2.0 * 1.5 * pts[:, 0])

    def test_as_field_reports_polynomial_degree(self):
        t = reference_tetrahedron(TYPE1)
        ip = interpolate(Polynomial3({(1, 1, 1): 1.0}), t, 2)
        field = as_field(ip)
        assert field.degree == 2 and field.exact_partials
        pts = np.array([[0.1, 0.2, 0.3]])
        assert np.array_equal(field.partial((1, 0, 0), pts), ip.partial((1, 0, 0), pts))
        sf = ScalarField(lambda pts: pts[:, 0])
        assert as_field(sf) is sf and sf.degree is None
        field = as_field(lambda pts: pts[:, 0])
        assert field.degree is None and field.order == 0  # values only

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_plain_callable_is_values_only(self, p):
        # Values are all a plain callable has: interpolation and |.|_{0,p}
        # take it, and every partial of order >= 1 is a typed error.
        def v(pts):
            return np.sin(pts @ np.array([1.0, 2.0, 3.0]))

        trig = field_from_expression("sin(x + 2*y + 3*z)")
        pts = np.array([[0.1, 0.2, 0.3], [0.4, 0.1, 0.05]])
        assert np.allclose(interpolate(v, ANISO, 2).coef, interpolate(trig, ANISO, 2).coef,
                           rtol=0, atol=1e-14)
        got = seminorm_with_info(v, ANISO, SeminormSpec(0, p)).value
        want = seminorm_with_info(trig, ANISO, SeminormSpec(0, p)).value
        assert abs(got - want) <= 1e-14 * want
        calls = [
            lambda: as_field(v).partial((1, 0, 0), pts),
            lambda: as_field(v).partials(1, pts),
            lambda: residual(v, ANISO, 2).partials(1, pts),
            lambda: seminorm_with_info(v, ANISO, SeminormSpec(1, p)),
            lambda: error_ratio(v, ANISO, 2, 1, p),
        ]
        for call in calls:
            with pytest.raises(DerivativeUnavailable, match="field_from_expression") as exc:
                call()
            assert isinstance(exc.value, AnisotetraError)

    def test_partials_are_exact_and_unscaled(self):
        # scale and exact are kept as keywords with one accepted value, so an
        # approximate partial_fn is never reported as exact.
        f = ScalarField(lambda pts: pts[:, 0], partial_fn=lambda g, pts: np.ones(len(pts)),
                        scale=1.0, exact=True)
        assert f.scale == 1.0 and f.exact_partials
        for bad in ({"exact": False}, {"scale": 2.0}):
            with pytest.raises(InputError):
                ScalarField(lambda pts: pts[:, 0], partial_fn=lambda g, pts: pts[:, 0], **bad)
        with pytest.raises(InputError):
            ScalarField(lambda pts: pts[:, 0], order=1)  # no partial_fn: order 0

    def test_order_limit_enforced(self):
        f = ScalarField(lambda pts: pts[:, 0], order=1,
                        partial_fn=lambda g, pts: np.full(len(pts), float(g == (1, 0, 0))))
        assert f.partial((1, 0, 0), np.zeros((1, 3))) == 1.0
        with pytest.raises(DerivativeUnavailable):
            f.partial((2, 0, 0), np.zeros((1, 3)))


class TestInterpolation:
    def test_x_squared_with_k1_on_reference_gives_x(self):
        ip = interpolate(Polynomial3({(2, 0, 0): 1.0}), T_HAT, 1)
        want = Polynomial3({(1, 0, 0): 1.0})
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
        ip_sum = interpolate((Exact.of(u) * a + Exact.of(v) * b).polynomial(), ANISO, 2)
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
        v_pulled = Exact.of(v).compose_affine(Binv, -Binv @ b).polynomial()  # v(F^{-1}(x))
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
            want = q.partial(gamma, pts)
            assert np.allclose(ip.partial(gamma, pts), want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize(
        "q,k",
        [
            (Polynomial3(), 4),
            (Polynomial3({(0, 0, 0): 1.0}), 3),
            (Polynomial3({(1, 0, 0): 1.0}), 2),
            (Polynomial3({(0, 0, 1): 1.0}), 4),
            (Polynomial3({(1, 0, 0): 1.0}), 4),
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
            interpolate(Polynomial3({(0, 0, 0): 1.0}), T_HAT, 0)
        with pytest.raises(InvalidDegree):
            interpolate(Polynomial3({(0, 0, 0): 1.0}), T_HAT, 9)

    def test_numpy_integer_degree(self):
        f = ScalarField(lambda pts: np.sin(pts @ np.array([1.0, 2.0, 3.0])))
        ip = interpolate(f, ROTATED_ANISO, np.int64(2))
        assert type(ip.k) is int
        assert np.array_equal(ip.coef, interpolate(f, ROTATED_ANISO, 2).coef)

    def test_bool_degree_rejected(self):
        with pytest.raises(InvalidDegree):
            interpolate(Polynomial3({(0, 0, 0): 1.0}), T_HAT, True)

    def test_nonfinite_nodal_values_raise(self):
        # 1/x is infinite at the nodes on the face x = 0 of the reference
        # element; the first of them in node order is the vertex (0, 0, 0).
        f = ScalarField(lambda pts: 1.0 / pts[:, 0])
        with np.errstate(divide="ignore"), pytest.raises(NumericalError) as exc:
            interpolate(f, T_HAT, 2)
        assert "not finite" in str(exc.value)
        assert "(2, 0, 0, 0)" in str(exc.value)

    def test_wrong_shaped_values_raise(self):
        # Three values for the ten nodes of degree 2.
        with pytest.raises(InputError) as exc:
            interpolate(lambda pts: np.zeros(3), T_HAT, 2)
        assert "3 values for 10 points" in str(exc.value)

    def test_wrong_shaped_partials_raise(self):
        # A partial_fn that returns three values for five points, asked one
        # partial at a time and one order at a time.
        f = ScalarField(lambda pts: pts[:, 0], partial_fn=lambda g, pts: np.zeros(3))
        pts = np.zeros((5, 3))
        for call in (lambda: f.partial((1, 0, 0), pts), lambda: f.partials(1, pts)):
            with pytest.raises(InputError) as exc:
                call()
            assert "3 values for 5 points" in str(exc.value)

    @pytest.mark.parametrize("k,tol", [(4, 1e-14), (8, 1e-12)])
    def test_nodal_values_reproduced_at_high_degree(self, k, tol):
        # Guards the conditioning of the Gregory-Newton form (forward
        # differences, then the binomial basis expanded into monomials): on
        # a rotated element the interpolant returns its own nodal values.
        f = ScalarField(lambda pts: np.sin(pts @ np.array([1.0, 2.0, 3.0])))
        ip = interpolate(f, ROTATED_ANISO, k)
        _, nodes = nodes_on(ROTATED_ANISO.coords(), k)
        assert np.max(np.abs(ip.partials(0, nodes)[0] - f(nodes))) <= tol

    @pytest.mark.parametrize("t", [T_HAT, ROTATED_ANISO], ids=["reference", "rotated"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_newton_form_of_the_lattice_quotients(self, t, k):
        # I f(xi) = sum_alpha Delta^alpha (f o F)(0) * prod_i C(k xi_i, alpha_i),
        # with the forward difference Delta^alpha = alpha! times the sum of
        # the exact quotient coefficients against f o F at eta/k, eta <= alpha,
        # and F(xi) = x_0 + J xi.
        def f(pts):
            return np.sin(pts @ np.array([1.0, 2.0, 3.0]))

        verts = t.as_array()
        jac = (verts[1:] - verts[0]).T
        rng = np.random.default_rng(k)
        bary = rng.dirichlet(np.ones(4), size=20)
        xi, pts = bary[:, 1:], bary @ verts
        want = np.zeros(len(xi))
        for alpha in monomial_indices(k):
            etas, coeffs = zip(*quotient_coefficients(alpha))
            values = f(verts[0] + np.array(etas) / k @ jac.T)
            forward = math.prod(map(math.factorial, alpha)) * np.dot(np.array(coeffs, dtype=float), values)
            want += forward * np.prod(binom(k * xi, np.array(alpha)), axis=1)
        got = interpolate(f, t, k).evaluate(pts)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("alpha", [(0, 0, 0), (1, 0, 0), (0, 2, 1), (1, 1, 1)])
    def test_coefficient_vector_is_the_interpolant(self, alpha):
        # A unit vector over monomial_indices(k) is the reference monomial
        # xi^alpha, with xi = J^{-1} (x - x_0), pulled back to the element.
        k = 3
        coef = np.array([float(g == alpha) for g in monomial_indices(k)])
        ip = Interpolant(coef, k, ROTATED_ANISO)
        verts = ROTATED_ANISO.as_array()
        jac = (verts[1:] - verts[0]).T
        pts = nodes_on(ROTATED_ANISO.coords(), 5)[1]
        xi = np.linalg.solve(jac, (pts - verts[0]).T)
        want = np.prod([xi[i] ** alpha[i] for i in range(3)], axis=0)
        assert np.allclose(ip.evaluate(pts), want, rtol=0, atol=1e-12)

    def test_coplanar_vertices_are_degenerate(self):
        flat = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        with pytest.raises(DegenerateTetrahedron):
            interpolate(Polynomial3({(0, 0, 0): 1.0}), flat, 2)

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

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_polynomial_residual_keeps_its_degree(self, k):
        # v - I v of a polynomial v is a polynomial of degree max(deg v, k).
        q = random_poly(np.random.default_rng(k), 3)
        for v, degree in [
            (q, 3),
            (interpolate(q, ANISO, 2), 2),
            (bubble_polynomial(ROTATED_ANISO), 4),
        ]:
            assert residual(v, ROTATED_ANISO, k).degree == max(degree, k)
        trig = field_from_expression("sin(x + 2*y - z)")
        for v in (trig, lambda pts: np.sin(pts[:, 0]), ScalarField(lambda pts: pts[:, 1] ** 2)):
            assert residual(v, ROTATED_ANISO, k).degree is None


# Needles, slivers and caps of flatness eps, rotated by one fixed orthogonal
# map and translated off the axes.
_Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]
FLAT = {
    "needle": lambda eps: np.asarray(T_HAT.as_array()) * [1.0, eps, eps],
    "sliver": lambda eps: np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, eps)], dtype=float),
    "cap": lambda eps: np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, 0.5, eps)]),
}


def rotated(verts) -> Tetrahedron:
    return Tetrahedron.from_points(verts @ _Q.T + np.array([0.3, -1.1, 0.6]))


class TestSampleSets:
    @pytest.mark.parametrize("eps", [1e-1, 1e-2])
    @pytest.mark.parametrize("family", FLAT)
    def test_frame_polynomial_matches_the_mapped_path(self, family, eps):
        # At Samples on its own element a polynomial in a frame reads
        # xi = bary[:, 1:] from the cached table; at the same points x it maps
        # them through J^{-T}, whose roundoff is about ulp / eps relative.
        t = rotated(FLAT[family](eps))
        v = field_from_expression("sin(x + 2*y + 3*z) + exp(0.5*x - y)")
        sets = [quad._rule_stack((12, 18))[0], quad._lattice_blocks()[1]]
        for k in range(1, 5):
            for poly in (interpolate(v, t, k), bubble_polynomial(t)):
                for samples in (s.on(t) for s in sets):
                    got = poly.partials_of(range(k + 1), samples)
                    for m, rows in enumerate(got):
                        want = poly.partials(m, samples.x)
                        scale = np.max(np.abs(want))
                        assert np.max(np.abs(rows - want)) <= 1e-12 * scale, (k, m)

    def test_samples_on_another_element_map_their_points(self):
        # The cached xi belongs to the polynomial's own element only.
        ip = interpolate(field_from_expression("exp(x - y*z)"), ROTATED_ANISO, 3)
        samples = quad._lattice_blocks()[0].on(ANISO)
        for m in range(4):
            assert np.array_equal(ip.partials(m, samples), ip.partials(m, samples.x))

    def test_sample_sets_and_tables_are_read_only(self):
        t = rotated(FLAT["sliver"](1e-3))
        v = corpus(4, t)[4][1]
        calls = [(4, 2, math.inf), (3, 1, 3.0), (4, 1, 2.0)]
        first = [error_ratio(v, t, *c) for c in calls]
        stack = quad._rule_stack((12, 18))[0]
        arrays = [stack.bary, stack.xi] + [s.bary for s in quad._lattice_blocks()]
        arrays += [s._table for s in [stack, *quad._lattice_blocks()]]
        assert len(arrays) > 6
        for a in arrays:
            assert not a.flags.writeable
        # A second call reads the cached tables and gives the same bits.
        for r, c in zip(first, calls):
            again = error_ratio(v, t, *c)
            assert [x.hex() for x in (again.error, again.seminorm_hi, again.ratio)] == [
                x.hex() for x in (r.error, r.seminorm_hi, r.ratio)
            ]
            assert again == r

    def test_a_set_keeps_its_highest_degree_table(self):
        s = interp.SampleSet(quad._lattice_blocks()[0].bary)
        for degree in (1, 2, 0, -1, 4, 3):
            assert np.array_equal(s.monomials(degree), interp._monomials(s.xi, degree))
        # Lower degrees are leading rows of the one table kept.
        assert len(s._table) == 35
        assert s.monomials(1).base is s._table

    def test_pull_back_is_one_read_only_frame_per_element(self):
        # Every caller shares the element's frame, so no caller may write it.
        t = Tetrahedron(ROTATED_ANISO.v)
        frame = pull_back(t)
        assert all(a is b for a, b in zip(pull_back(t), frame))
        assert not any(a.flags.writeable for a in frame)
        with pytest.raises(ValueError, match="read-only"):
            frame[1][0, 0] = 0.0
        assert all(np.array_equal(a, b) for a, b in zip(frame, pull_back(ROTATED_ANISO)))

    def test_an_interpolant_and_in_frame_take_an_element_only(self):
        ip = interpolate(field_from_expression("exp(x - y*z)"), ROTATED_ANISO, 2)
        frame = pull_back(ROTATED_ANISO)
        for other in [frame, frame[0], ROTATED_ANISO.v, None]:
            with pytest.raises(InputError, match="Tetrahedron"):
                Interpolant(ip.coef, 2, other)
            with pytest.raises(InputError, match="Tetrahedron"):
                ip.in_frame(other)
        # An element of the same vertices is the same frame: its samples
        # read the interpolant's cached table, and in_frame keeps the coef.
        same = Tetrahedron(ROTATED_ANISO.v)
        again = Interpolant(ip.coef, 2, same)
        pts = quad._lattice_blocks()[0].on(same)
        for m in range(3):
            assert np.array_equal(again.partials(m, pts), ip.partials(m, pts))
        assert ip.in_frame(same) is ip.coef

    def test_a_degenerate_element_raises_at_construction(self):
        flat = Tetrahedron(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1e-300)))
        coef = np.zeros(len(monomial_indices(2)))
        with pytest.raises(DegenerateTetrahedron):
            Interpolant(coef, 2, flat)
        with pytest.raises(DegenerateTetrahedron):
            Polynomial3({(1, 0, 0): 1.0}).in_frame(flat)


def exact_frame(t):
    """x_0 and J of t's pull-back as Fractions, J[i][j] = (x_{j+1} - x_0)_i exactly."""
    verts = [[Fraction(c) for c in row] for row in t.as_array().tolist()]
    return verts[0], [[verts[j + 1][i] - verts[0][i] for j in range(3)] for i in range(3)]


def chain_by_times(forms, m):
    """The order-m matrix of interp._chain as one _times product per order,
    the reference loop for its gathers."""
    c = np.ones((1, 1))
    for d in range(1, m + 1):
        gammas, lower = derivative_indices(d), derivative_indices(d - 1)
        axes = [next(i for i in range(3) if g[i]) for g in gammas]
        rows = [lower.index(tuple(x - (i == j) for i, x in enumerate(g)))
                for g, j in zip(gammas, axes)]
        c = interp._times(forms[axes].T, 1, c[rows].T, d - 1).T
    return c


class TestInFrame:
    """Polynomial3.in_frame: the xi-coefficients of v(x_0 + J xi)."""

    def test_chain_matrices_are_one_times_product_per_order(self):
        # Bit for bit, signs of zero included, and in the same memory layout,
        # on which a matrix product's bits depend: the same terms reach the
        # same reduceat, so every interpolant's partials are unchanged.
        elements = [T_HAT, ANISO, *generate(TetraGenSpec("mixed", 3), 6)]
        for t in elements:
            verts, inverse_t = pull_back(t)
            for forms in (inverse_t, verts[1:] - verts[0]):
                got = interp._chain(forms, 8)
                for m in range(9):
                    want = chain_by_times(forms, m)
                    assert got[m].tobytes() == want.tobytes(), m
                    assert got[m].flags.c_contiguous == want.flags.c_contiguous, m

    def test_an_extended_chain_list_equals_one_built_anew(self):
        # Bit for bit and in the same layout: each order is built from the
        # previous one alone, so extending from order 3 repeats no step.
        verts, inverse_t = pull_back(ANISO)
        for forms in (inverse_t, verts[1:] - verts[0]):
            start = interp._chain(forms, 3)
            got, want = interp._chain(forms, 8, start), interp._chain(forms, 8)
            assert got is start and len(got) == len(want) == 9
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes() and a.flags.c_contiguous == b.flags.c_contiguous

    def test_a_polynomial_builds_each_chain_order_once(self, monkeypatch):
        # A corpus polynomial's (4, 2, inf) call: in_frame takes orders 1..6
        # of J^T, and the residual's polynomial orders 1..4 of J^{-T} for the
        # lattice maximum and its polish; rebuilding from order 0 for each
        # order asked took 15 steps.
        steps = []
        plan = interp._chain_plan
        monkeypatch.setattr(interp, "_chain_plan", lambda m: steps.append(m) or plan(m))
        t = generate(TetraGenSpec("mixed", 7), 1)[0]
        error_ratio(dict(corpus(4, t))["poly0"], t, 4, 2, math.inf)
        assert steps == [1, 2, 3, 4, 5, 6, 1, 2, 3, 4]

    @pytest.mark.parametrize("family,eps", [
        ("needle", 1e-2), ("needle", 1e-6), ("sliver", 1e-6), ("cap", 1e-4),
    ])
    def test_each_coefficient_carries_its_own_columns_of_j(self, family, eps):
        # Against exact composition, every coefficient is right to 1e-13 of
        # its terms' magnitudes (|v| composed with |x_0| + |J| xi), so the
        # coefficients of a flat direction, eps^n smaller, are as accurate.
        t = rotated(FLAT[family](eps))
        v = random_poly(np.random.default_rng(5), 6)
        x0, jac = exact_frame(t)
        want = Exact.of(v).compose_affine(jac, x0).coeffs
        size = Exact({g: abs(c) for g, c in Exact.of(v).coeffs.items()}).compose_affine(
            [[abs(c) for c in row] for row in jac], [abs(c) for c in x0]).coeffs
        got = v.in_frame(t)
        for g, c in zip(monomial_indices(6), got.tolist()):
            assert abs(Fraction(c) - want.get(g, 0)) <= Fraction(1e-13) * size[g], g

    @pytest.mark.parametrize("family,eps", [
        ("needle", 1e-3), ("needle", 1e-6), ("sliver", 1e-2), ("sliver", 1e-6), ("cap", 1e-6),
    ])
    def test_values_and_partials_at_samples(self, family, eps):
        # Held in the frame, v reads xi from the sample set exactly: its values
        # match v's own to 1e-13 relative on every element, and so do its
        # partials of orders <= k on a needle, a rotated scaling.  On a sliver
        # or cap the frame's J^{-T} costs about ulp / eps^(m-1) at order m, as
        # it does for every interpolant, so there the values are checked.
        t = rotated(FLAT[family](eps))
        samples = quad._lattice_blocks()[2].on(t)
        for k in (1, 4):
            v = random_poly(np.random.default_rng(k), k + 2)
            held = Polynomial3._held(v.in_frame(t), v.degree, t)
            for m in range(k + 1 if family == "needle" else 1):
                want = v.partials(m, samples.x)
                got = held.partials(m, samples)
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (k, m)

    def test_a_polynomial_in_this_frame_keeps_its_coefficients(self):
        bubble = bubble_polynomial(ROTATED_ANISO)
        assert bubble.in_frame(ROTATED_ANISO) is bubble.coef

    def test_a_polynomial_in_another_frame_is_taken_through_it(self):
        # The bubble of the reference, whose frame is the identity, converts
        # as its coefficients read physically do, bit for bit; the bubble of
        # another element gives its own values at the samples.
        t = ROTATED_ANISO
        ref = bubble_polynomial(T_HAT)
        assert np.array_equal(ref.in_frame(t), Polynomial3.dense(ref.coef, 4).in_frame(t))
        other = bubble_polynomial(ANISO)
        held = Polynomial3._held(other.in_frame(t), 4, t)
        samples = quad._lattice_blocks()[0].on(t)
        want = other.evaluate(samples.x)
        assert np.max(np.abs(held.partials(0, samples)[0] - want)) <= 1e-13 * np.max(np.abs(want))

    def test_a_residual_below_order_k_is_one_polynomial_in_the_frame(self):
        # Its partials of orders <= k are v.in_frame less the interpolant's
        # coefficients, read at the samples; above k they are v's own.
        t = rotated(FLAT["sliver"](1e-3))
        v = corpus(3, t)[13][1]
        ip = interpolate(v, t, 3)
        u = residual(v, t, 3)
        coef = v.in_frame(t)
        coef[: len(ip.coef)] -= ip.coef
        near = Polynomial3._held(coef, 5, t)
        samples = quad._rule_stack((12, 18))[0].on(t)
        got = u.partials_of([0, 2, 3, 4, 5], samples)
        for m, rows in zip([0, 2, 3], got):
            assert np.array_equal(rows, near.partials(m, samples)), m
        for m, rows in zip([4, 5], got[3:]):
            assert np.array_equal(rows, v.partials(m, samples.x)), m

    @pytest.mark.parametrize("eps", [1e-3, 1e-5])
    def test_residual_values_are_its_order_0_partials(self, eps):
        # A field has one source of values, its order-0 partials, which the
        # seminorms sample: bit for bit on a rotated needle, where v(x) - I v(x)
        # in physical coordinates and the residual held in the frame differ
        # by about 1e-15 for a polynomial v.
        t = rotated(FLAT["needle"](eps))
        x = np.random.default_rng(3).dirichlet(np.ones(4), 200) @ t.as_array()
        ridge = field_from_expression("sin((0.4)*x + (1.1)*y + (-0.6)*z + (0.2))")
        for k in (1, 2, 3, 4):
            fields = [v for _, v in corpus(k, t) if isinstance(v, Polynomial3)]
            assert len(fields) == 7  # six polynomials and the bubble
            fields += [ridge, ScalarField(ridge, partial_fn=ridge.partial)]
            for v in fields:
                u = residual(v, t, k)
                assert np.array_equal(u(x), u.partials(0, x)[0]), (k, v)

    def test_a_physical_polynomial_builds_no_table_per_lattice_block(self, monkeypatch):
        # At p = inf its orders <= k read each block's cached xi table and its
        # affine order k + 1 is taken at the four vertices, so once the tables
        # are filled no monomial table is built at a block's ~3000 points.
        t1, t2 = generate(TetraGenSpec("mixed", 7), 2)
        v = corpus(4, t1)[14][1]
        error_ratio(v, t1, 4, 2, math.inf)
        sizes, build = [], interp._monomials
        monkeypatch.setattr(interp, "_monomials",
                            lambda pts, degree: sizes.append(len(pts)) or build(pts, degree))
        error_ratio(v, t2, 4, 2, math.inf)
        assert sizes and max(sizes) < 100, sizes
