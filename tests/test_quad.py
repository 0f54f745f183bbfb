"""Quadrature rules and Sobolev seminorm tests."""

import math

import numpy as np
import pytest

from anisotetra import quad
from anisotetra.errors import (
    DegenerateTetrahedron,
    InputError,
    NumericalError,
    UnsupportedDegree,
)
from anisotetra.expr import field_from_expression
from anisotetra.geom import TYPE1, Tetrahedron, reference_tetrahedron, volume
from anisotetra.interp import (
    Polynomial3,
    RankOne,
    SampleSet,
    ScalarField,
    as_field,
    interpolate,
    monomial_indices,
    pull_back,
    residual,
)
from anisotetra.lattice import unit_weights
from anisotetra.quad import (
    MAX_RULE_DEGREE,
    SeminormSpec,
    derivative_indices,
    rule_for_degree,
    seminorm_with_info,
    validate_p,
)
from anisotetra.verify import TetraGenSpec, corpus, error_ratio, generate
from exact_poly import Exact

T_HAT = reference_tetrahedron(TYPE1)
ANISO = Tetrahedron.from_points(
    [(0.1, 0.0, 0.2), (1.3, 0.1, 0.0), (0.2, 0.8, 0.1), (0.3, 0.2, 0.9)]
)


def on_frame(u, t, specs, degree=None):
    """quad._seminorms of specs of one p on t's frame and volume, as
    verify.error_ratio takes its two."""
    return quad._seminorms(as_field(u), pull_back(t), volume(t), tuple(specs), degree)


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

    def test_monomial_exactness_up_to_max_degree(self):
        # Every rule that rule_for_degree hands out, on every monomial of
        # degree <= d.
        for d in range(1, MAX_RULE_DEGREE + 1):
            rule = rule_for_degree(d)
            pts = rule.points_on(T_HAT.as_array())
            for a, b, c in monomial_indices(d):
                approx = volume(T_HAT) * float(
                    np.dot(rule.weights, pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
                )
                want = simplex_monomial_integral(a, b, c)
                assert abs(approx - want) <= 1e-13 * want, (d, (a, b, c))

    def test_cached_rule_is_read_only(self):
        # A write through one caller's rule would change every later seminorm
        # taken with that degree in the process.
        rule = rule_for_degree(6)
        for array in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                array[:] *= 4

    def test_weights_sum_to_one(self):
        for d in (1, 4, 12, 20):
            assert abs(rule_for_degree(d).weights.sum() - 1.0) < 1e-13

    def test_degree_bounds(self):
        with pytest.raises(UnsupportedDegree):
            rule_for_degree(0)
        with pytest.raises(UnsupportedDegree):
            rule_for_degree(21)
        rule_for_degree(1)  # a cached 1 must not answer for True
        with pytest.raises(UnsupportedDegree):
            rule_for_degree(True)

    def test_numpy_integer_degree(self):
        rule = rule_for_degree(np.int64(12))
        assert np.array_equal(rule.nodes, rule_for_degree(12).nodes)
        assert np.array_equal(rule.weights, rule_for_degree(12).weights)
        v = field_from_expression("sin(x + 2*y + 3*z)")
        want = error_ratio(v, ANISO, 2, 1, 3.0, degree=12)
        got = error_ratio(v, ANISO, 2, 1, 3.0, degree=np.int64(12))
        assert (got.error, got.seminorm_hi, got.ratio) == (
            want.error, want.seminorm_hi, want.ratio
        )
        info = seminorm_with_info(v, ANISO, SeminormSpec(1, 3.0), degree=np.int64(12))
        assert type(info.quadrature_degree) is int and info.quadrature_degree == 12

    def test_integrate_matches_polynomial_integrate(self):
        # A rule transfers to a non-reference element: |q|_{0,2,T}^2 is the
        # exact integral of q^2 there.
        rng = np.random.default_rng(0)
        q = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(5)})
        got = seminorm_with_info(q, ANISO, SeminormSpec(0, 2.0)).value ** 2
        want = float(Exact.of(q).integrate(ANISO, power=2))
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
            (2, 1.5, 2.0, False),  # orders are integers >= 0
            (2.0, 1, 2.0, False),
            (2, True, 2.0, False),
            (2, -1, 2.0, False),
            (np.int64(2), np.int64(1), 2.0, True),
        ],
    )
    def test_branches(self, k, m, p, want):
        ok, reason = validate_p(k, m, p)
        assert ok == want
        assert isinstance(reason, str) and reason


class TestSeminorm:
    def test_constant_l2(self):
        one = Polynomial3({(0, 0, 0): 1.0})
        got = seminorm_with_info(one, T_HAT, SeminormSpec(0, 2.0)).value
        assert abs(got - math.sqrt(1.0 / 6.0)) < 1e-13

    def test_constant_at_large_p(self):
        # 10^400 overflows a float, the seminorm 10 (1/6)^(1/400) does not.
        ten = Polynomial3({(0, 0, 0): 10.0})
        got = seminorm_with_info(ten, T_HAT, SeminormSpec(0, 400.0)).value
        want = 10.0 * (1.0 / 6.0) ** (1.0 / 400.0)
        assert abs(got - want) <= 1e-12 * want

    def test_value_beyond_float_range_raises(self):
        # Every sample is finite, but 1.7e308 (8/6)^(1/3) is not a float.
        big = Tetrahedron.from_points([(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)])
        with pytest.raises(NumericalError):
            seminorm_with_info(Polynomial3({(0, 0, 0): 1.7e308}), big, SeminormSpec(0, 3.0))

    def test_first_order_of_x(self):
        x = Polynomial3({(1, 0, 0): 1.0})
        got = seminorm_with_info(x, T_HAT, SeminormSpec(1, 2.0)).value
        assert abs(got - math.sqrt(1.0 / 6.0)) < 1e-13

    def test_polynomial_residual_uses_one_exact_rule(self):
        # v - I v of a quartic is a quartic: at p = 2 its first partials
        # squared have degree 6, which one rule integrates exactly.
        rng = np.random.default_rng(4)
        q = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(4)})
        u = residual(q, ANISO, 2)
        info = seminorm_with_info(u, ANISO, SeminormSpec(1, 2.0))
        assert info.quadrature_degree == 2 * (4 - 1) and info.warnings == ()
        want = seminorm_with_info(u, ANISO, SeminormSpec(1, 2.0), degree=18).value
        assert abs(info.value - want) <= 1e-12 * want

    def test_weighted_versus_unweighted(self):
        # u = xy: only the mixed second derivative survives, with
        # multinomial weight 2!/1!1! = 2.
        u = Polynomial3({(1, 1, 0): 1.0})
        w = seminorm_with_info(u, T_HAT, SeminormSpec(2, 2.0)).value
        assert abs(w - math.sqrt(2.0 / 6.0)) < 1e-13

    def test_inside_allows_the_tolerance_only(self):
        frame = pull_back(T_HAT)
        assert quad._inside(np.array([0.5, 0.5, -0.5 * quad.INSIDE_TOL]), frame)
        assert not quad._inside(np.array([0.5, 0.5, -2.0 * quad.INSIDE_TOL]), frame)
        assert not quad._inside(np.array([0.5, 0.5, 2.0 * quad.INSIDE_TOL]), frame)

    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    @pytest.mark.parametrize("field", ["polynomial", "expression"])
    def test_flat_element_raises_at_every_p(self, field, p):
        # p = inf samples a lattice and needs no volume, but the element is
        # checked all the same.
        flat = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.3, 0)])
        u = {"polynomial": Polynomial3.dense(np.cos(np.arange(35.0)), 4),
             "expression": field_from_expression("x*sin(3*x - y + 0.5*z)")}[field]
        with pytest.raises(DegenerateTetrahedron):
            seminorm_with_info(u, flat, SeminormSpec(2, p))

    def test_no_underflow_at_large_p(self):
        # At p = 3000 a p-sum whose largest term lies below 1 can underflow
        # to 0: on this element for m = 0 and 3 when it lies near 1/2.
        v = field_from_expression("x*sin(3*x - y + 0.5*z)")
        for m in (0, 1, 3):
            assert seminorm_with_info(v, ANISO, SeminormSpec(m, 3000.0)).value > 0.0, m
        assert not error_ratio(v, ANISO, 2, 1, 3000.0).indeterminate

    def test_zero_samples_give_zero(self):
        # Every sample 0, as an array or as a RankOne with a zero row or a
        # zero column: the value is 0, and no 0/0 warns.
        degrees = (quad.DEFAULT_NUMERIC_DEGREE, quad.RICHARDSON_DEGREE)
        stack, rows = quad._rule_stack(degrees)
        plan, n = quad._reduction(1, degrees, rows), len(stack.bary)
        ones = np.ones(3)
        for samples in (np.zeros((3, n)), RankOne(np.zeros(n), ones, ones),
                        RankOne(np.ones(n), np.zeros(3), ones)):
            info = quad._p_sum(SeminormSpec(1, 3.0), samples, plan, 1.0)
            assert info == quad.SeminormInfo(0.0, degrees[-1])

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_nonfinite_values_raise(self, p):
        # NaN wherever x < 0.5, at quadrature and lattice points alike; the
        # NaN is deliberate, so only its own RuntimeWarning is silenced.
        def nan_below_half(pts):
            with np.errstate(invalid="ignore"):
                return np.sqrt(pts[:, 0] - 0.5)

        u = ScalarField(nan_below_half)
        with pytest.raises(NumericalError):
            seminorm_with_info(u, T_HAT, SeminormSpec(0, p))

    def test_homogeneity(self):
        rng = np.random.default_rng(1)
        u = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(3)})
        spec = SeminormSpec(1, 2.0)
        a = seminorm_with_info(Polynomial3.dense(u.coef * 3.5, u.degree), ANISO, spec).value
        b = seminorm_with_info(u, ANISO, spec).value
        assert abs(a - 3.5 * b) < 1e-12 * max(1.0, a)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(2)
        spec = SeminormSpec(1, 2.0)
        for _ in range(10):
            u = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(3)})
            v = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(3)})
            su = seminorm_with_info(u, ANISO, spec).value
            sv = seminorm_with_info(v, ANISO, spec).value
            suv = seminorm_with_info(Polynomial3.dense(u.coef + v.coef, 3), ANISO, spec).value
            assert suv <= su + sv + 1e-12 * (su + sv)

    @pytest.mark.parametrize("m,p", [(0, 2.0), (1, 2.0), (1, 3.0)])
    def test_dilation_scaling_law(self, m, p):
        # |u(./h)|_{m,p,hT} = h^(3/p - m) |u|_{m,p,T}
        h = 0.37
        arg = "1.1*x - 0.6*y + 0.4*z"
        u = field_from_expression("sin(%s)" % arg)
        u_scaled = field_from_expression("sin((%s)/%r)" % (arg, h))
        t_scaled = Tetrahedron.from_points(np.asarray(ANISO.as_array()) * h)
        lhs = seminorm_with_info(u_scaled, t_scaled, SeminormSpec(m, p)).value
        rhs = h ** (3.0 / p - m) * seminorm_with_info(u, ANISO, SeminormSpec(m, p)).value
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

    def test_spec_validation(self):
        with pytest.raises(InputError):
            SeminormSpec(-1, 2.0)
        with pytest.raises(InputError):
            SeminormSpec(0, 0.5)
        with pytest.raises(InputError):
            SeminormSpec(0, math.nan)
        with pytest.raises(InputError):
            SeminormSpec(1.5, 2.0)
        with pytest.raises(InputError):
            SeminormSpec(0, "2")

    def test_spec_order_is_a_python_int(self):
        with pytest.raises(InputError):
            SeminormSpec(True, 2.0)
        assert type(SeminormSpec(np.int64(1), 2.0).m) is int


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
                Polynomial3({(1, 0, 0): 1.0}), T_HAT, SeminormSpec(0, math.inf), degree=12
            )

    def lattice(self, t):
        pts = unit_weights(quad.DENSE_LATTICE_ORDER) @ t.as_array()
        assert len(pts) > quad.BLOCK  # the lattice is evaluated in several blocks
        return pts

    @pytest.mark.parametrize("m", [0, 2, 5])
    def test_blocked_max_equals_unblocked(self, m):
        # The oracle is the same lattice as one sample set, evaluated in one
        # pass: the residual's interpolant reads its xi there, as in blocks.
        v = field_from_expression("1/((0.3)*x + (-0.7)*y + (0.2)*z + (1.6))")
        self.lattice(ANISO)  # asserts that the lattice spans several blocks
        whole = SampleSet(unit_weights(quad.DENSE_LATTICE_ORDER)).on(ANISO.as_array())
        for u in (v, residual(v, ANISO, 2)):
            want = float(np.max(np.abs(u.partials(m, whole))))
            assert seminorm_with_info(u, ANISO, SeminormSpec(m, math.inf)).value == want

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
            seminorm_with_info(u, ANISO, SeminormSpec(1, math.inf))

    @pytest.mark.parametrize("family", ["uniform", "needle", "sliver"])
    def test_affine_partials_peak_at_the_vertices(self, family, monkeypatch):
        # Where degree - m <= 1, |d^gamma u| is affine and peaks at a vertex,
        # which the lattice holds at x = verts[i] exactly: the four vertices
        # give the lattice maximum within 4 ulp, with no lattice block read.
        t = generate(TetraGenSpec(family, 4), 1)[0]
        verts = t.as_array()
        fields = [Polynomial3.dense(np.cos(np.arange(35.0)), 4),
                  interpolate(field_from_expression("exp(x - y*z)"), t, 3),
                  residual(corpus(2, t)[13][1], t, 2)]
        want = [[max(float(np.max(np.abs(as_field(u).partials(m, block.on(verts)))))
                     for block in quad._lattice_blocks()) for m in (u.degree - 1, u.degree)]
                for u in fields]
        monkeypatch.setattr(quad, "_lattice_blocks", lambda: ())
        for u, lattice in zip(fields, want):
            for m, top in zip((u.degree - 1, u.degree), lattice):
                got = seminorm_with_info(u, t, SeminormSpec(m, math.inf)).value
                assert top > 0 and abs(got - top) <= 4 * np.spacing(top), (u.degree, m)

    def test_vertex_maximum_carries_no_warning(self):
        # The four vertices give an exact maximum, and an order above the
        # degree an exact 0, so only a lattice maximum is labelled approximate.
        u = Polynomial3.dense(np.cos(np.arange(35.0)), 4)
        infos = on_frame(u, ANISO, [SeminormSpec(m, math.inf) for m in (2, 3, 4, 5)])
        assert [info.warnings for info in infos] == [
            ("p=inf maximum from dense sampling; value is approximate",), (), (), ()]
        assert infos[3].value == 0.0

    def test_linear_sup_is_vertex_max(self):
        u = Polynomial3({(1, 0, 0): 2.0, (0, 0, 0): -0.5})
        got = seminorm_with_info(u, T_HAT, SeminormSpec(0, math.inf)).value
        want = max(abs(2.0 * x - 0.5) for x, _, _ in T_HAT.coords())
        assert abs(got - want) < 1e-12


class TestWeights:
    def test_derivative_indices_count(self):
        for m in range(5):
            assert len(derivative_indices(m)) == math.comb(m + 2, 2)

    def test_multinomial_weight_values(self):
        # derivative_indices order: (2,0,0), (1,1,0), (1,0,1), (0,2,0), ...
        assert quad._multinomial_weights(2).tolist() == [1.0, 2.0, 2.0, 1.0, 2.0, 1.0]
        assert quad._multinomial_weights(3)[derivative_indices(3).index((1, 1, 1))] == 6.0
        # m! over the gamma! table is |gamma|!/gamma! in integers, correctly
        # rounded, for every m whose m! is a float.
        for m in range(23):
            want = [math.factorial(m) / math.prod(map(math.factorial, g))
                    for g in derivative_indices(m)]
            assert quad._multinomial_weights(m).tolist() == want, m


WAVE = np.array([0.5, -0.3, 0.8])


class TestSharedSampling:
    FIELDS = {
        "expression": field_from_expression("cos((0.4)*x + (1.1)*y + (-0.6)*z + (0.2)) / (2 + x)"),
        "polynomial": Polynomial3.dense(np.cos(np.arange(35.0)), 4),
        # Plain callables for the values and for each partial of sin(WAVE.x):
        # d^gamma sin(w.x) = w^gamma sin(w.x + |gamma| pi/2).
        "plain callable": ScalarField(
            lambda pts: np.sin(pts @ WAVE),
            partial_fn=lambda g, pts: (
                np.prod(WAVE ** np.array(g)) * np.sin(pts @ WAVE + sum(g) * math.pi / 2)
            ),
        ),
    }

    @pytest.mark.parametrize("name", FIELDS)
    @pytest.mark.parametrize("k,m,p,degree", [
        (2, 1, 2.0, None), (2, 0, 3.0, None), (3, 2, 2.0, None), (2, 1, 2.0, 9),
        (2, 2, math.inf, None), (1, 0, math.inf, None),
    ])
    def test_one_loop_equals_one_seminorm_at_a_time(self, name, k, m, p, degree):
        # error_ratio's two requests on the residual, and two on the field
        # itself: the shared loop gives each exactly what it gives alone.
        v = self.FIELDS[name]
        specs = [SeminormSpec(m, p), SeminormSpec(k + 1, p)]
        for u in (v, residual(v, ANISO, k)):
            want = [seminorm_with_info(u, ANISO, s, degree=degree) for s in specs]
            assert on_frame(u, ANISO, specs, degree) == want

    def test_a_rule_of_another_spec_between_a_specs_rules(self):
        # A degree-11 polynomial at p = 2: |u|_{0,2} takes the 12/18 pair (its
        # exact degree, 22, is beyond the rules) and |u|_{4,2} the exact degree
        # 14, which the stack holds between them, so the first spec's rules
        # are not adjacent rows; the loop still gives each what it gives alone.
        v = Polynomial3.dense(np.cos(np.arange(364.0)), 11)
        specs = [SeminormSpec(0, 2.0), SeminormSpec(4, 2.0)]
        want = [seminorm_with_info(v, ANISO, s) for s in specs]
        assert [w.quadrature_degree for w in want] == [quad.RICHARDSON_DEGREE, 14]
        assert on_frame(v, ANISO, specs) == want

    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_errors_come_in_request_order(self, p):
        # NaN in an order-2 partial on the first sample set only and in an
        # order-1 partial on the last one only: the first request's error is
        # raised, as when the seminorms are taken one after the other.  The
        # two rules of finite p are one stacked set, found point by point.
        if p == math.inf:
            pts = unit_weights(quad.DENSE_LATTICE_ORDER) @ ANISO.as_array()
            first, last = (lambda x, a=a: np.all(x == a, axis=1) for a in (pts[0], pts[-1]))
        else:
            first, last = (
                lambda x, d=d: (x[:, None] == rule_for_degree(d).points_on(ANISO.as_array()))
                .all(axis=2).any(axis=1)
                for d in (quad.DEFAULT_NUMERIC_DEGREE, quad.RICHARDSON_DEGREE)
            )
        nan_on = {(1, 0, 0): last, (0, 2, 0): first}

        def partial_fn(gamma, x):
            return np.where(nan_on[gamma](x), np.nan, 0.0) if gamma in nan_on else np.zeros(len(x))

        u = ScalarField(lambda x: np.zeros(len(x)), partial_fn=partial_fn)
        with pytest.raises(NumericalError, match=r"\(1, 0, 0\)"):
            on_frame(u, ANISO, [SeminormSpec(1, p), SeminormSpec(2, p)])


# The rule-by-rule reduction that the run-wise _p_sum replaced, kept as the
# reference it must match bit for bit: peaks, division and p-th power per
# rule's rows, rows as each rule's slice of the stack.
def _rule_wise_p_sum(spec, vals, rows, rules, degrees, vol):
    gammas = derivative_indices(spec.m)
    p = float(spec.p)
    weights = quad._multinomial_weights(spec.m) * vol
    if isinstance(vals, RankOne):
        totals, top = _rule_wise_rank_one_totals(vals, rows, rules, weights, p, gammas)
    else:
        peaks = [vals[:, r].max() for r in rows]
        if not np.isfinite(peaks).all():
            for r in rows:
                quad._check_finite(np.isfinite(vals[:, r]).all(axis=1), gammas)
        top = _rule_wise_scaled(vals, rows, max(peaks), p)
        totals = [float(weights @ (vals[:, r] @ rule.weights)) for r, rule in zip(rows, rules)]
    value = top * totals[-1] ** (1.0 / p)
    if math.isinf(value):
        raise NumericalError("|u|_{%d,%s,T} exceeds the float range" % (spec.m, p))
    warnings = ()
    ref = max(abs(totals[-1]), 1e-300)
    if len(totals) == 2 and abs(totals[0] - totals[1]) > quad.RICHARDSON_RTOL * ref:
        warnings = (
            "quadrature degrees %d and %d disagree (rel %.2e); integrand may "
            "be under-resolved"
            % (degrees[0], degrees[1], abs(totals[0] - totals[1]) / ref),
        )
    return quad.SeminormInfo(value, degrees[-1], warnings)


def _rule_wise_scaled(samples, rows, top, p):
    top = float(top) or 1.0
    for r in rows:
        part = samples[..., r]
        part /= top
        part **= p
    return top


def _rule_wise_rank_one_totals(pair, rows, rules, weights, p, gammas):
    row = np.abs(pair.row)
    peaks = [row[r].max() for r in rows]
    with np.errstate(all="ignore"):
        finite = np.isfinite((np.max(peaks) * pair.column) * pair.scale).all()
    if not finite:
        for r in rows:
            quad._check_finite(np.isfinite(quad._peak(pair._replace(row=pair.row[r]))[1]), gammas)
    column = np.abs(pair.column)
    shrink = float(column.max()) or 1.0
    column = column / shrink * pair.scale
    lift = float(column.max()) or 1.0
    colsum = float(weights @ (column / lift) ** p)
    rtop = _rule_wise_scaled(row, rows, max(peaks), p)
    totals = [colsum * float(row[r] @ rule.weights) for r, rule in zip(rows, rules)]
    return totals, shrink * rtop * lift


def _outcome(call):
    """The value's bits, degree and warnings, the numpy warnings on the way,
    or the NumericalError's text."""
    import warnings

    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            info = call()
        except NumericalError as exc:
            return "NumericalError", str(exc), [str(w.message) for w in seen]
    return info.value.hex(), info.quadrature_degree, info.warnings, [str(w.message) for w in seen]


class TestRunWiseReduction:
    # The 12/18 pair alone is one run; with the exact degree 14 of another
    # spec between them (the layout of the shared-sampling test above) it is
    # two runs, and the rule 14 alone is one run of one rule.
    LAYOUTS = [((12, 18), (12, 18)), ((12, 14, 18), (12, 18)), ((12, 14, 18), (14,))]

    @staticmethod
    def samples(rng, kind, n_gamma, rows):
        """(array, RankOne) of one kind: random with a wide spread, all zero,
        or a NaN or an inf at a random point of each rule in turn."""
        n = max(r.stop for r in rows.values())
        spread = 10.0 ** rng.uniform(-3.0, 3.0, n)
        vals = np.abs(rng.standard_normal((n_gamma, n))) * spread
        pair = RankOne(rng.standard_normal(n) * spread, rng.standard_normal(n_gamma),
                       rng.integers(1, 7, n_gamma).astype(float))
        if kind == "zero":
            vals[:] = 0.0
            pair = pair._replace(row=np.zeros(n))
        elif kind != "random":
            bad, r = (math.nan if kind.startswith("nan") else math.inf), rows[int(kind[-2:])]
            at = int(rng.integers(r.start, r.stop))
            vals[int(rng.integers(n_gamma)), at] = bad
            pair.row[at] = bad
        return vals, pair

    @pytest.mark.parametrize("stack,degrees", LAYOUTS)
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0, 100.0, 3000.0])
    def test_runs_match_the_rule_wise_reduction_bit_for_bit(self, stack, degrees, p):
        _, rows = quad._rule_stack(stack)
        rng = np.random.default_rng([len(stack), len(degrees), int(p)])
        kinds = ["random", "zero"] + ["%s%02d" % (bad, d) for bad in ("nan", "inf")
                                      for d in degrees]
        for m in (1, 2):
            spec = SeminormSpec(m, p)
            plan = quad._reduction(m, degrees, rows)
            args = ([rows[d] for d in degrees], [rule_for_degree(d) for d in degrees], degrees)
            for kind in kinds:
                for vals in self.samples(rng, kind, len(derivative_indices(m)), rows):
                    mine = vals.copy() if isinstance(vals, np.ndarray) else vals
                    got = _outcome(lambda: quad._p_sum(spec, mine, plan, 0.7))
                    want = _outcome(lambda: _rule_wise_p_sum(spec, vals, *args, 0.7))
                    assert got == want, (kind, m, type(vals).__name__)
        assert len(plan.runs) == (2 if stack == (12, 14, 18) and degrees == (12, 18) else 1)

    def test_a_sum_beyond_the_float_range_raises_the_same_error(self):
        _, rows = quad._rule_stack((12, 18))
        plan = quad._reduction(1, (12, 18), rows)
        args = ([rows[12], rows[18]], [rule_for_degree(12), rule_for_degree(18)], (12, 18))
        vals = np.full((3, rows[18].stop), 1.7e308)
        got = _outcome(lambda: quad._p_sum(SeminormSpec(1, 1.0), vals.copy(), plan, 1.0))
        want = _outcome(lambda: _rule_wise_p_sum(SeminormSpec(1, 1.0), vals, *args, 1.0))
        assert got == want and got[0] == "NumericalError"


# A needle and a sliver of flatness 1e-2, rotated by one fixed orthogonal map
# and translated off the axes.
_Q = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))[0]


def _rotated(verts) -> Tetrahedron:
    return Tetrahedron.from_points(np.asarray(verts, dtype=float) @ _Q.T + [0.3, -1.1, 0.6])


ELEMENTS = {
    "reference": T_HAT,
    "rotated needle": _rotated(np.asarray(T_HAT.as_array()) * [1.0, 1e-2, 1e-2]),
    "rotated sliver": _rotated([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 1e-2)]),
}


def materialized(v):
    """v through a per-gamma partial_fn: every order an (n_gamma, N) array."""
    return ScalarField(v, partial_fn=v.partial)


def outcome(fn):
    """fn()'s value, or the NumericalError's message."""
    try:
        return fn()
    except NumericalError as err:
        return str(err)


class TestRankOneSeminorms:
    """A ridge's partials reach the seminorms as RankOne pairs (interp), which
    are reduced without forming the (n_gamma, N) array."""

    @pytest.mark.parametrize("name", ELEMENTS)
    def test_sup_is_the_materialized_maximum(self, name):
        # Every corpus ridge, and its residual for orders above k: the
        # maximum over the lattice as one sample set, exactly.
        t = ELEMENTS[name]
        whole = SampleSet(unit_weights(quad.DENSE_LATTICE_ORDER)).on(t.as_array())
        ridges = [v for field, v in corpus(1, t) if not field.startswith(("poly", "bubble"))]
        assert len(ridges) == 13
        for v in ridges:
            for m in range(1, 6):
                assert isinstance(v.partials_of([m], whole, rank_one=[m])[0], RankOne)
                for u in [v] + [residual(v, t, k) for k in range(1, m)]:
                    want = float(np.max(np.abs(u.partials(m, whole))))
                    assert seminorm_with_info(u, t, SeminormSpec(m, math.inf)).value == want, m

    @pytest.mark.parametrize("text", ["exp(700*x)", "exp(700*z)", "1/((1)*x + (-0.5))",
                                      "sin(1e308*y + 1e308*y)", "(1e300*x + 1)^2",
                                      "sin(1.2e154*x)"])
    @pytest.mark.parametrize("p", [2.0, math.inf])
    def test_nonfinite_samples_name_the_same_gamma(self, text, p):
        # Overflow in one gamma's column (exp), a pole in the row (1/x at a
        # lattice point) or a NaN row (sin of inf): the first gamma that is
        # not finite is named as the materialized array names it.  At m = 2
        # the column of sin(1.2e154*x) times 2! would overflow, but the
        # array's largest sample does not.
        v = field_from_expression(text)
        for m in range(1, 6):
            spec = SeminormSpec(m, p)
            got = outcome(lambda: seminorm_with_info(v, T_HAT, spec).value)
            want = outcome(lambda: seminorm_with_info(materialized(v), T_HAT, spec).value)
            if isinstance(want, str) or p == math.inf:
                assert got == want, (m, got, want)
            else:
                assert abs(got - want) <= 1e-15 * want, m

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs a long double "
                        "wider than a double for the reference sum")
    @pytest.mark.parametrize("name", ELEMENTS)
    @pytest.mark.parametrize("text", [
        "sin((0.4)*x + (1.1)*y + (-0.6)*z + (0.2))", "exp((-1.2)*x + (0.9)*y + (0.3)*z)",
        "1/((0.3)*x + (-0.7)*y + (0.2)*z + (1.6))", "(x - 2*y + z + 3)^-3", "-2.5/(x + y + 4)",
    ])
    def test_finite_p_matches_the_materialized_sum(self, name, text):
        # The reference is the materialized samples' p-sum in long double, as
        # the float sum over the array is itself off by up to 9.3e-16 at
        # p = 1 (-2.5/(x + y + 4), m = 4, on the reference element).
        t = ELEMENTS[name]
        v = field_from_expression(text)
        stack, rows = quad._rule_stack((quad.DEFAULT_NUMERIC_DEGREE, quad.RICHARDSON_DEGREE))
        rule = rule_for_degree(quad.RICHARDSON_DEGREE)
        ld = np.longdouble
        for m in range(1, 6):
            vals = materialized(v).partials(m, stack.on(t.as_array()))
            vals = np.abs(vals[:, rows[quad.RICHARDSON_DEGREE]])
            weights = quad._multinomial_weights(m).astype(ld)
            for p in (1.0, 2.0, 3.0, 7.5):
                sums = vals.astype(ld) ** ld(p) @ rule.weights.astype(ld)
                total = weights @ sums * ld(volume(t))
                want = float(total ** (1 / ld(p)))
                got = seminorm_with_info(v, t, SeminormSpec(m, p))
                assert abs(got.value - want) <= 1e-15 * want, (p, m)
                same = seminorm_with_info(materialized(v), t, SeminormSpec(m, p))
                assert got.quadrature_degree == same.quadrature_degree == quad.RICHARDSON_DEGREE
                assert len(got.warnings) == len(same.warnings)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs a long double "
                        "wider than a double for the reference sum")
    @pytest.mark.parametrize("text", ["sin(3*x - y + 0.5*z)", "x*sin(3*x - y + 0.5*z)"])
    @pytest.mark.parametrize("p", [100.0, 1000.0, 3000.0])
    def test_large_p_matches_the_materialized_sum(self, text, p):
        # A ridge's RankOne and a product's array against the materialized
        # samples' p-sum in long double, each sample divided by the largest
        # first, as |d^gamma u|^3000 can leave even the long double range.
        v = field_from_expression(text)
        stack, rows = quad._rule_stack((quad.DEFAULT_NUMERIC_DEGREE, quad.RICHARDSON_DEGREE))
        rule = rule_for_degree(quad.RICHARDSON_DEGREE)
        ld = np.longdouble
        for m in (1, 3):
            vals = materialized(v).partials(m, stack.on(ANISO.as_array()))
            vals = np.abs(vals[:, rows[quad.RICHARDSON_DEGREE]]).astype(ld)
            top = vals.max()
            weights = quad._multinomial_weights(m).astype(ld)
            total = weights @ ((vals / top) ** ld(p) @ rule.weights.astype(ld)) * ld(volume(ANISO))
            want = float(top * total ** (1 / ld(p)))
            got = seminorm_with_info(v, ANISO, SeminormSpec(m, p)).value
            assert abs(got - want) <= 1e-15 * want, (m, got, want)

    @pytest.mark.parametrize("p", [100.0, 1000.0])
    def test_large_p_takes_the_array(self, p):
        # The RankOne pair, scaled by its column's and row's largest entries,
        # gives the materialized array's value to rounding at large p: no
        # product of two scaled factors underflows to 0.
        v = field_from_expression("sin(3*x - y + 0.5*z)")
        for m in range(1, 6):
            spec = SeminormSpec(m, p)
            got = seminorm_with_info(v, ANISO, spec).value
            want = seminorm_with_info(materialized(v), ANISO, spec).value
            assert got > 0.0
            assert abs(got - want) <= 1e-15 * want, (m, got, want)

    @pytest.mark.parametrize("text", ["sin(x*y)", "2*sin(x)", "x*sin(y)"])
    @pytest.mark.parametrize("p", [2.0, 3.0, math.inf])
    def test_other_expressions_are_unchanged(self, text, p):
        v = field_from_expression(text)
        for m in (1, 3):
            spec = SeminormSpec(m, p)
            want = seminorm_with_info(materialized(v), ANISO, spec)
            assert seminorm_with_info(v, ANISO, spec) == want


class TestPolish:
    @pytest.mark.parametrize("m,polished", [(2, True), (3, False), (4, False)])
    def test_polish_only_where_the_hessian_can_be_nonzero(self, monkeypatch, m, polished):
        # Above degree - 2 the Hessian of d^gamma u is the field's zero partials
        # of order m + 2, so no Newton step exists and none is tried.
        calls = []
        polish = quad._newton_polish
        monkeypatch.setattr(quad, "_newton_polish", lambda *a: calls.append(a) or polish(*a))
        u = Polynomial3.dense(np.cos(np.arange(35.0)), 4)
        seminorm_with_info(u, ANISO, SeminormSpec(m, math.inf))
        assert bool(calls) == polished
