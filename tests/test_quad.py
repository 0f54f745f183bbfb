"""Quadrature rules and Sobolev seminorm tests."""

import math

import numpy as np
import pytest

from anisotetra import quad
from anisotetra.errors import NumericalError, UnsupportedDegree
from anisotetra.expr import field_from_expression
from anisotetra.geom import TYPE1, Tetrahedron, reference_tetrahedron, volume
from anisotetra.interp import Polynomial3, ScalarField, monomial_indices, residual
from anisotetra.lattice import unit_weights
from anisotetra.quad import (
    SeminormSpec,
    derivative_indices,
    multinomial_weight,
    rule_for_degree,
    seminorm,
    seminorm_with_info,
    validate_p,
)

T_HAT = reference_tetrahedron(TYPE1)
ANISO = Tetrahedron.from_points(
    [(0.1, 0.0, 0.2), (1.3, 0.1, 0.0), (0.2, 0.8, 0.1), (0.3, 0.2, 0.9)]
)


def simplex_monomial_integral(a, b, c):
    return (
        math.factorial(a) * math.factorial(b) * math.factorial(c)
        / math.factorial(a + b + c + 3)
    )


class TestQuadrature:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12])
    def test_monomial_exactness(self, d):
        rule = rule_for_degree(d)
        pts = rule.points_on(T_HAT.as_array())
        for gamma in monomial_indices(d):
            a, b, c = gamma
            approx = volume(T_HAT) * float(
                np.dot(rule.weights, pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
            )
            want = simplex_monomial_integral(a, b, c)
            assert abs(approx - want) <= 1e-12 * max(want, 1e-30)

    def test_weights_sum_to_one(self):
        for d in (1, 4, 12, 20):
            assert abs(rule_for_degree(d).weights.sum() - 1.0) < 1e-13

    def test_degree_bounds(self):
        with pytest.raises(UnsupportedDegree):
            rule_for_degree(0)
        with pytest.raises(UnsupportedDegree):
            rule_for_degree(21)

    def test_integrate_matches_polynomial_integrate(self):
        # A rule transfers to a non-reference element: |q|_{0,2,T}^2 is the
        # exact integral of q^2 there.
        rng = np.random.default_rng(0)
        q = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(5)})
        got = seminorm(q, ANISO, SeminormSpec(0, 2.0)) ** 2
        want = (q * q).integrate(ANISO)
        assert abs(got - want) < 1e-13 * max(1.0, want)


class TestAdmissibility:
    @pytest.mark.parametrize(
        "k,m,p,want",
        [
            (1, 1, 2.0, False),   # k = m needs p > 2
            (1, 1, 2.5, True),
            (2, 2, 2.0, False),
            (2, 2, 2.1, True),
            (1, 0, 1.5, False),   # k = 1 needs p > 3/2
            (1, 0, 1.6, True),
            (1, 0, 2.0, True),
            (2, 1, 1.0, True),    # k >= 2, k - m >= 1: any p >= 1
            (3, 0, 1.0, True),
            (2, 0, math.inf, True),
        ],
    )
    def test_branches(self, k, m, p, want):
        ok, reason = validate_p(k, m, p)
        assert ok == want
        assert isinstance(reason, str) and reason


class TestSeminorm:
    def test_constant_l2(self):
        got = seminorm(Polynomial3.constant(1.0), T_HAT, SeminormSpec(0, 2.0))
        assert abs(got - math.sqrt(1.0 / 6.0)) < 1e-13

    def test_constant_at_large_p(self):
        # 10^400 overflows a float, the seminorm 10 (1/6)^(1/400) does not.
        got = seminorm(Polynomial3.constant(10.0), T_HAT, SeminormSpec(0, 400.0))
        want = 10.0 * (1.0 / 6.0) ** (1.0 / 400.0)
        assert abs(got - want) <= 1e-12 * want

    def test_value_beyond_float_range_raises(self):
        # Every sample is finite, but 1.7e308 (8/6)^(1/3) is not a float.
        big = Tetrahedron.from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
        with pytest.raises(NumericalError):
            seminorm(Polynomial3.constant(1.7e308), big, SeminormSpec(0, 3.0))

    def test_first_order_of_x(self):
        got = seminorm(Polynomial3.variable(0), T_HAT, SeminormSpec(1, 2.0))
        assert abs(got - math.sqrt(1.0 / 6.0)) < 1e-13

    def test_weighted_versus_unweighted(self):
        # u = xy: only the mixed second derivative survives, with
        # multinomial weight 2!/1!1! = 2.
        u = Polynomial3({(1, 1, 0): 1.0})
        w = seminorm(u, T_HAT, SeminormSpec(2, 2.0))
        assert abs(w - math.sqrt(2.0 / 6.0)) < 1e-13

    def test_inside_allows_the_tolerance_only(self):
        assert quad._inside(T_HAT, np.array([0.5, 0.5, -0.5 * quad.INSIDE_TOL]))
        assert not quad._inside(T_HAT, np.array([0.5, 0.5, -2.0 * quad.INSIDE_TOL]))
        assert not quad._inside(T_HAT, np.array([0.5, 0.5, 2.0 * quad.INSIDE_TOL]))
        flat = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert not quad._inside(flat, np.array([0.25, 0.25, 0.0]))

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_nonfinite_values_raise(self, p):
        # NaN wherever x < 0.5, at quadrature and lattice points alike; the
        # NaN is deliberate, so only its own RuntimeWarning is silenced.
        def nan_below_half(pts):
            with np.errstate(invalid="ignore"):
                return np.sqrt(pts[:, 0] - 0.5)

        u = ScalarField(nan_below_half)
        with pytest.raises(NumericalError):
            seminorm(u, T_HAT, SeminormSpec(0, p))

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        u = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(3)})
        spec = SeminormSpec(1, 2.0)
        a = seminorm(u * 3.5, ANISO, spec)
        b = seminorm(u, ANISO, spec)
        assert abs(a - 3.5 * b) < 1e-12 * max(1.0, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        spec = SeminormSpec(1, 2.0)
        for _ in range(10):
            u = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(3)})
            v = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(3)})
            su = seminorm(u, ANISO, spec)
            sv = seminorm(v, ANISO, spec)
            suv = seminorm(u + v, ANISO, spec)
            assert suv <= su + sv + 1e-12 * (su + sv)

    @pytest.mark.parametrize("m,p", [(0, 2.0), (1, 2.0), (1, 3.0)])
    def test_dilation_scaling_law(self, m, p):
        # |u(./h)|_{m,p,hT} = h^(3/p - m) |u|_{m,p,T}
        h = 0.37
        a = np.array([1.1, -0.6, 0.4])
        u = ScalarField(lambda pts: np.sin(pts @ a))
        u_scaled = ScalarField(lambda pts: np.sin((pts / h) @ a))
        t_scaled = Tetrahedron.from_points(np.asarray(ANISO.as_array()) * h)
        lhs = seminorm(u_scaled, t_scaled, SeminormSpec(m, p))
        rhs = h ** (3.0 / p - m) * seminorm(u, ANISO, SeminormSpec(m, p))
        assert abs(lhs - rhs) < 1e-8 * max(1.0, rhs)

    def test_exact_degree_for_even_p_polynomials(self):
        u = Polynomial3({(2, 1, 0): 1.0})
        info = seminorm_with_info(u, ANISO, SeminormSpec(1, 2.0))
        # (deg - m) * p = (3 - 1) * 2 = 4: a single exact rule, no warnings.
        assert info.quadrature_degree == 4
        assert info.warnings == ()

    def test_refinement_warning_on_rough_integrand(self):
        u = ScalarField(lambda pts: np.sin(40.0 * pts[:, 0]))
        info = seminorm_with_info(u, T_HAT, SeminormSpec(0, 2.0))
        assert info.warnings

    def test_fd_partials_flagged(self):
        u = ScalarField(lambda pts: np.exp(pts @ np.array([0.4, 0.3, -0.2])))
        info = seminorm_with_info(u, T_HAT, SeminormSpec(1, 2.0))
        assert info.approximate_partials

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SeminormSpec(-1, 2.0)
        with pytest.raises(ValueError):
            SeminormSpec(0, 0.5)
        with pytest.raises(ValueError):
            SeminormSpec(0, math.nan)
        with pytest.raises(ValueError):
            SeminormSpec(1.5, 2.0)


class TestSupSeminorm:
    def test_polynomial_sup_matches_fine_grid(self):
        rng = np.random.default_rng(3)
        from anisotetra.lattice import sigma_k
        bary_fine = np.array(sigma_k(200), dtype=float) / 200.0
        verts = np.asarray(ANISO.as_array())
        pts_fine = bary_fine @ verts
        for _ in range(4):
            u = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(4)})
            info = seminorm_with_info(u, ANISO, SeminormSpec(0, math.inf))
            oracle = float(np.max(np.abs(u.evaluate(pts_fine))))
            assert abs(info.value - oracle) <= 1e-6 * oracle
            assert info.value >= oracle - 1e-12  # polish never undershoots
            assert info.warnings  # documented as approximate

    def test_explicit_degree_rejected(self):
        # p = inf samples a lattice; a quadrature degree would go unused.
        with pytest.raises(UnsupportedDegree):
            seminorm_with_info(
                Polynomial3.variable(0), T_HAT, SeminormSpec(0, math.inf), degree=12
            )

    def lattice(self, t):
        pts = unit_weights(quad.DENSE_LATTICE_ORDER) @ t.as_array()
        assert len(pts) > quad.BLOCK  # the lattice is evaluated in several blocks
        return pts

    @pytest.mark.parametrize("m", [0, 2, 5])
    def test_blocked_max_equals_unblocked(self, m):
        v = field_from_expression("1/((0.3)*x + (-0.7)*y + (0.2)*z + (1.6))")
        for u in (v, residual(v, ANISO, 2)):
            want = float(np.max(np.abs(u.partials(m, self.lattice(ANISO)))))
            assert seminorm(u, ANISO, SeminormSpec(m, math.inf)) == want

    def test_first_nonfinite_gamma_named_across_blocks(self):
        # NaN at the first lattice point (first block) for the later
        # gamma (0, 0, 1), and at the last point (last block) for the
        # earlier gamma (1, 0, 0): the error names (1, 0, 0), as one
        # unblocked pass in gamma order would.
        pts = self.lattice(ANISO)
        nan_at = {(0, 0, 1): pts[0], (1, 0, 0): pts[-1]}

        def partial_fn(gamma, x):
            out = np.zeros(len(x))
            if gamma in nan_at:
                out[np.all(x == nan_at[gamma], axis=1)] = np.nan
            return out

        u = ScalarField(lambda x: np.zeros(len(x)), partial_fn=partial_fn)
        with pytest.raises(NumericalError, match=r"\(1, 0, 0\)"):
            seminorm(u, ANISO, SeminormSpec(1, math.inf))

    def test_linear_sup_is_vertex_max(self):
        u = Polynomial3({(1, 0, 0): 2.0, (0, 0, 0): -0.5})
        got = seminorm(u, T_HAT, SeminormSpec(0, math.inf))
        want = max(abs(2.0 * x - 0.5) for x, _, _ in T_HAT.coords())
        assert abs(got - want) < 1e-12


class TestWeights:
    def test_derivative_indices_count(self):
        for m in range(5):
            assert len(derivative_indices(m)) == math.comb(m + 2, 2)

    def test_multinomial_weight_values(self):
        assert multinomial_weight((2, 0, 0)) == 1.0
        assert multinomial_weight((1, 1, 0)) == 2.0
        assert multinomial_weight((1, 1, 1)) == 6.0
