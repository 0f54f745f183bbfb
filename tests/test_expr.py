"""Expression parsing and Taylor-mode differentiation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from anisotetra.errors import ExpressionParseError
from anisotetra.expr import Add, Affine, Call, Div, Mul, field_from_expression, parse_expression
from anisotetra.geom import TYPE1, reference_tetrahedron
from anisotetra.interp import (
    Polynomial3,
    RankOne,
    ScalarField,
    as_field,
    derivative_indices,
    interpolate,
    monomial_indices,
    residual,
)
from anisotetra.verify import TetraGenSpec, bubble_polynomial, corpus, generate
from exact_poly import Exact, degree7_cases
from test_interp import ROTATED_ANISO

PTS = np.array(
    [[0.3, 0.1, 0.7], [1.2, -0.4, 0.05], [0.0, 0.0, 0.0], [-0.7, 2.0, 1.3]]
)


def evaluated(text):
    return parse_expression(text).partials_of((0,), PTS)[0][0]


class TestParsing:
    def test_arithmetic_and_precedence(self):
        x, y, z = PTS[:, 0], PTS[:, 1], PTS[:, 2]
        cases = {
            "1 + 2*3": np.full(4, 7.0),
            "2*x^2": 2 * x**2,
            "-x^2": -(x**2),
            "(1 - x)^3": (1 - x) ** 3,
            "x - y - z": x - y - z,
            "sin(x)*cos(y) + exp(z)": np.sin(x) * np.cos(y) + np.exp(z),
            "2.5e-1 * x": 0.25 * x,
        }
        for text, want in cases.items():
            got = evaluated(text)
            assert np.allclose(got, want, rtol=1e-15), text

    def test_division_and_negative_powers(self):
        pts = np.array([[0.5, 2.0, 1.0], [3.0, -1.5, 0.25]])
        x, y = pts[:, 0], pts[:, 1]
        got = parse_expression("x / y / 2").partials_of((0,), pts)[0][0]
        assert np.allclose(got, x / y / 2)
        got = parse_expression("x^-2").partials_of((0,), pts)[0][0]
        assert np.allclose(got, x**-2.0)

    def test_unary_minus_chains(self):
        assert np.allclose(evaluated("--x"), PTS[:, 0])
        assert np.allclose(evaluated("3 - -2"), 5.0)

    @pytest.mark.parametrize(
        "text",
        ["x^2 + )", "sin(", "1 +", "", "tan(x)", "2.3.4", "x +* y", "(x"],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ExpressionParseError) as err:
            parse_expression(text)
        diag = err.value.caret_diagnostic()
        assert "^" in diag
        assert err.value.pos <= len(text)

    def test_caret_points_at_offender(self):
        with pytest.raises(ExpressionParseError) as err:
            parse_expression("x^2 + )")
        assert err.value.pos == 6

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ExpressionParseError):
            parse_expression("x^2.5")
        with pytest.raises(ExpressionParseError):
            parse_expression("x^y")


class TestDifferentiation:
    def test_polynomial_partials(self):
        f = field_from_expression("x^3*y - 2*z^2")
        want = 3.0 * PTS[:, 0] ** 2
        assert np.allclose(f.partial((1, 1, 0), PTS), want)

    def test_trig_chain_rule(self):
        f = field_from_expression("sin(2*x + y)")
        want = 2.0 * np.cos(2 * PTS[:, 0] + PTS[:, 1])
        assert np.allclose(f.partial((1, 0, 0), PTS), want)

    def test_quotient_rule_high_order(self):
        # Fifth x-derivative of 1/(1 + x): 5! * (-1)^5 / (1 + x)^6.
        f = field_from_expression("1/(1 + x)")
        pts = np.array([[0.2, 0.0, 0.0], [1.5, 0.0, 0.0]])
        want = -math.factorial(5) / (1 + pts[:, 0]) ** 6
        assert np.allclose(f.partial((5, 0, 0), pts), want, rtol=1e-12)

    def test_mixed_exponential(self):
        f = field_from_expression("exp(x*y)")
        x, y = PTS[:, 0], PTS[:, 1]
        want = (1.0 + x * y) * np.exp(x * y)
        assert np.allclose(f.partial((1, 1, 0), PTS), want, rtol=1e-13)

    def test_negative_power_rule(self):
        f = field_from_expression("x^-3")
        pts = np.array([[2.0, 0.0, 0.0]])
        assert np.allclose(f.partial((1, 0, 0), pts), -3.0 * 2.0**-4.0)


class TestField:
    def test_exact_partials_flagged(self):
        f = field_from_expression("sin(x + 2*y + 3*z)")
        assert f.exact_partials
        assert f.order is None

    def test_partials_match_analytic(self):
        f = field_from_expression("sin(x + 2*y + 3*z)")
        arg = PTS @ np.array([1.0, 2.0, 3.0])
        got = f.partial((0, 2, 0), PTS)
        assert np.allclose(got, -4.0 * np.sin(arg), rtol=1e-14)
        again = f.partial((0, 2, 0), PTS)
        assert np.array_equal(got, again)

    def test_accepts_prebuilt_node(self):
        node = parse_expression("x*y")
        f = field_from_expression(node)
        assert np.allclose(f(PTS), PTS[:, 0] * PTS[:, 1])


# Taylor-mode partials against closed forms, every |gamma| <= 5.

ORDERS = range(6)
COEFF = st.floats(-2.0, 2.0, allow_subnormal=False).map(lambda v: round(v, 6))
BOX = np.random.default_rng(4).uniform(-1.0, 1.0, (7, 3))


def affine_text(a, b):
    return "(%r)*x + (%r)*y + (%r)*z + (%r)" % (a[0], a[1], a[2], b)


def affine_value(a, b, pts):
    # The parse tree's order of operations, so values match bitwise.
    return ((a[0] * pts[:, 0] + a[1] * pts[:, 1]) + a[2] * pts[:, 2]) + b


def a_power(a, gamma):
    return a[0] ** gamma[0] * a[1] ** gamma[1] * a[2] ** gamma[2]


class TestJets:
    @settings(max_examples=30, deadline=None)
    @seed(2)
    @given(a=st.tuples(COEFF, COEFF, COEFF), b=COEFF, name=st.sampled_from(["sin", "cos", "exp"]))
    def test_function_of_affine_argument(self, a, b, name):
        f = field_from_expression("%s(%s)" % (name, affine_text(a, b)))
        arg = affine_value(a, b, BOX)
        cycle = {
            "sin": (np.sin(arg), np.cos(arg), -np.sin(arg), -np.cos(arg)),
            "cos": (np.cos(arg), -np.sin(arg), -np.cos(arg), np.sin(arg)),
            "exp": (np.exp(arg),) * 4,
        }[name]
        for n in ORDERS:
            for gamma, got in zip(derivative_indices(n), f.partials(n, BOX)):
                want = a_power(a, gamma) * cycle[n % 4]
                assert np.allclose(got, want, rtol=1e-12, atol=0), (gamma, got, want)

    @settings(max_examples=30, deadline=None)
    @seed(3)
    @given(a=st.tuples(COEFF, COEFF, COEFF), extra=st.floats(0.0, 3.0))
    def test_reciprocal_of_affine_argument(self, a, extra):
        # The denominator is >= 1 on the box.
        c = round(1.0 + sum(map(abs, a)) + extra, 6)
        f = field_from_expression("1/(%s)" % affine_text(a, c))
        denom = affine_value(a, c, BOX)
        assert np.all(denom >= 1.0)
        for n in ORDERS:
            for gamma, got in zip(derivative_indices(n), f.partials(n, BOX)):
                want = (-1) ** n * math.factorial(n) * a_power(a, gamma) / denom ** (n + 1)
                assert np.allclose(got, want, rtol=1e-12, atol=0), (gamma, got, want)

    def test_polynomial_expressions_match_polynomial3(self):
        x, y, z = (Exact.variable(axis) for axis in range(3))
        cases = {
            "(x+y)^4": (x + y) * (x + y) * (x + y) * (x + y),
            "x^2*y - 3*z^3 + (x - 2*y)^3": x * x * y - 3 * z * z * z + (x - 2 * y) * (x - 2 * y) * (x - 2 * y),
            "(1 - x*z)^2 / 4": (1 - x * z) * (1 - x * z) * 0.25,
        }
        for text, q in cases.items():
            f, q = field_from_expression(text), q.polynomial()
            for n in ORDERS:
                want = q.partials(n, BOX)
                assert np.allclose(f.partials(n, BOX), want, rtol=1e-12, atol=1e-12), (text, n)

    def test_negative_power_all_orders(self):
        pts = np.array([[0.5, 0.3, -0.2], [2.0, -1.0, 0.0], [-1.5, 0.0, 4.0]])
        f = field_from_expression("x^-3")
        for n in ORDERS:
            falling = math.prod(range(-3, -3 - n, -1))
            for gamma, got in zip(derivative_indices(n), f.partials(n, pts)):
                want = falling * pts[:, 0] ** (-3 - n) if gamma == (n, 0, 0) else 0.0
                assert np.allclose(got, want, rtol=1e-13, atol=0), (gamma, got, want)

    def test_mixed_partials_of_products_and_quotients(self):
        x, y, z = PTS[:, 0], PTS[:, 1], PTS[:, 2]
        e = np.exp(x * y)
        s, c, w = np.sin(x), np.cos(y), 2.0 + z
        cases = [
            ("exp(x*y)", (1, 1, 0), (1 + x * y) * e),
            ("exp(x*y)", (2, 1, 0), y * (2 + x * y) * e),
            ("exp(x*y)", (2, 2, 0), (2 + 4 * x * y + (x * y) ** 2) * e),
            ("sin(x)*cos(y)/(2+z)", (1, 1, 1), np.cos(x) * np.sin(y) / w**2),
            ("sin(x)*cos(y)/(2+z)", (2, 0, 2), -2 * s * c / w**3),
            ("sin(x)*cos(y)/(2+z)", (0, 1, 3), 6 * s * np.sin(y) / w**4),
        ]
        for text, gamma, want in cases:
            got = field_from_expression(text).partial(gamma, PTS)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-14), (text, gamma)


def test_partials_rows_equal_single_partials():
    # Every kind of field: row i of partials(m) is partial(gamma_i), bitwise,
    # for every order the field has; a values-only field has order 0.
    t = reference_tetrahedron(TYPE1)
    q = Polynomial3({(3, 1, 0): 0.7, (0, 2, 2): -1.3, (1, 1, 1): 2.0, (0, 0, 1): 0.4})
    trig = field_from_expression("sin(x + 2*y - z) / (3 + x)")
    fields = {
        "expr": trig,
        "polynomial": as_field(q),
        "interpolant": as_field(interpolate(trig, t, 3)),
        "residual": residual(q, t, 2),
        "values only": ScalarField(lambda pts: np.exp(pts @ np.array([0.3, -0.2, 0.5]))),
        "per-gamma": ScalarField(trig, partial_fn=lambda g, pts: trig.partial(g, pts)),
    }
    pts = np.array([[0.1, 0.2, 0.3], [0.4, 0.1, 0.05], [0.0, 0.5, 0.25]])
    for name, f in fields.items():
        for m in range(4 if f.order is None else f.order + 1):
            rows = f.partials(m, pts)
            assert rows.shape == (len(derivative_indices(m)), len(pts)), name
            for gamma, row in zip(derivative_indices(m), rows):
                assert np.array_equal(row, f.partial(gamma, pts)), (name, gamma)
    # Large shapes too, where the rows of a matrix product need not equal
    # one-row products: 1500 points, dense and sparse polynomials of degree
    # 7, and an interpolant of degree 4 on a rotated anisotropic element.
    # test_interp's test_partials_within_roundoff_of_exact_rationals checks
    # the same polynomials' values against exact rationals.
    big, polys, rng = degree7_cases()
    for name, poly in [*polys.items(), ("polynomial", q)]:
        for m in range(5):
            for gamma, row in zip(derivative_indices(m), poly.partials(m, big)):
                assert np.array_equal(row, poly.partial(gamma, big)), (name, gamma)
    ip = interpolate(trig, ROTATED_ANISO, 4)
    inside = rng.dirichlet(np.ones(4), 1500) @ ROTATED_ANISO.as_array()
    for m in range(5):
        for gamma, row in zip(derivative_indices(m), ip.partials(m, inside)):
            assert np.array_equal(row, ip.partial(gamma, inside)), gamma


@pytest.mark.parametrize("m", range(6))
def test_partials_compose_the_top_part_alone(m):
    # partials(m) forms part m of the Taylor jet and leaves the lower parts
    # of the root unformed; it must equal part m of the full jet times
    # gamma!, bitwise, for every expression field of the corpus and for
    # nested roots of each kind.
    t = generate(TetraGenSpec("sliver", 4), 1)[0]
    nodes = [
        f._partials.__self__  # the expression tree behind the field
        for _, f in corpus(4, t)
        if isinstance(f, ScalarField)
    ]
    nodes += [
        parse_expression(text)
        for text in ("sin(x*y)/(2+exp(z))", "x*sin(y) - cos(x*z)^3", "(1 + x*x)^-2", "-exp(y)/3")
    ]
    assert len(nodes) == 17
    pts = np.random.default_rng(m).dirichlet(np.ones(4), 500) @ t.as_array()
    gammas = derivative_indices(m)
    fact = np.array([math.prod(map(math.factorial, g)) for g in gammas], dtype=float)[:, None]
    for node in nodes:
        with np.errstate(all="ignore"):
            full = node.jet(pts, m)[m]
            want = np.broadcast_to(0.0 if full is None else full * fact, (len(gammas), len(pts)))
        assert np.array_equal(node.partials_of((m,), pts)[0], want), node


def test_partials_of_rows_equal_one_order_partials():
    # Every kind of field: partials_of(orders) gives, for each order, the
    # array partials(m) gives, bitwise, whatever the orders and their order.
    t = ROTATED_ANISO
    q = Polynomial3({(3, 1, 0): 0.7, (0, 2, 2): -1.3, (1, 1, 1): 2.0, (0, 0, 1): 0.4})
    trig = field_from_expression("sin(x + 2*y - z) / (3 + x)")
    a = np.array([0.3, -0.2, 0.5])
    fields = {
        "expr": trig,
        "corpus expr": corpus(3, t)[9][1],
        "polynomial": as_field(q),
        "interpolant": as_field(interpolate(trig, t, 3)),
        "bubble": as_field(bubble_polynomial(t)),
        "residual of expr": residual(trig, t, 2),
        "residual of polynomial": residual(q, t, 2),
        # d^gamma exp(a.x) = a^gamma exp(a.x), one partial_fn call per gamma
        "per-gamma": ScalarField(
            lambda pts: np.exp(pts @ a),
            partial_fn=lambda g, pts: np.prod(a ** np.array(g)) * np.exp(pts @ a),
        ),
    }
    rng = np.random.default_rng(19)
    point_sets = [rng.dirichlet(np.ones(4), n) @ t.as_array() for n in (1, 3, 1500)]
    for name, f in fields.items():
        for pts in point_sets:
            for orders in ((0,), (1, 3), (0, 1, 2), (2, 5), (3, 1), (2, 2), (4, 6, 5)):
                got = f.partials_of(orders, pts)
                assert len(got) == len(orders), name
                for m, rows in zip(orders, got):
                    assert np.array_equal(rows, f.partials(m, pts)), (name, orders, m, len(pts))


def unfolded(node: Affine):
    """The affine node as the tree the parser built before folding: each
    term a constant times a coordinate, summed from the left."""
    tree = None
    for c, axis in node.terms:
        term = Affine(((c, None),))
        if axis is not None:
            term = Mul(term, Affine(((1.0, axis),)))
        tree = term if tree is None else Add(tree, term)
    return tree


class TestAffineFolding:
    def test_corpus_arguments_are_one_affine_node(self):
        # Each expression of the corpus is sin, cos or exp of one affine node,
        # or 1 over one, and its values and partials equal those of the
        # unfolded tree bitwise, on 1500 points.
        t = generate(TetraGenSpec("needle", 6), 1)[0]
        pts = np.random.default_rng(5).dirichlet(np.ones(4), 1500) @ t.as_array()
        nodes = [f._partials.__self__ for _, f in corpus(3, t) if isinstance(f, ScalarField)]
        assert len(nodes) == 13
        for node in nodes:
            if isinstance(node, Div):
                assert node.left == Affine(((1.0, None),)), node
                rebuilt = Div(node.left, unfolded(node.right))
            else:
                assert isinstance(node, Call) and node.name in ("sin", "cos", "exp"), node
                rebuilt = Call(node.name, unfolded(node.arg))
            affine = node.right if isinstance(node, Div) else node.arg
            assert isinstance(affine, Affine) and len(affine.terms) == 4, node
            for m in range(5):
                assert np.array_equal(node.partials_of((m,), pts)[0],
                                      rebuilt.partials_of((m,), pts)[0]), (node, m)

    def test_folded_arguments_evaluate_in_source_order(self):
        # The value of a corpus argument is ((a0 x + a1 y) + a2 z) + b, as
        # the unfolded tree adds it, so the folded field's values are the
        # ones numpy gives for that sum.
        a, b = (0.1, -0.7, 1.3), 0.35
        f = field_from_expression("exp(%s)" % affine_text(a, b))
        assert np.array_equal(f(BOX), np.exp(affine_value(a, b, BOX)))

    @pytest.mark.parametrize("text,value,gradient", [
        ("-(2*x - y/4) + 3", lambda x, y, z: -(2 * x - y / 4) + 3, (-2.0, 0.25, 0.0)),
        ("(x+y)*3", lambda x, y, z: (x + y) * 3, (3.0, 3.0, 0.0)),
        ("x/2", lambda x, y, z: x / 2, (0.5, 0.0, 0.0)),
        ("2*(z - 1/8)/(1/2)", lambda x, y, z: 4 * z - 0.5, (0.0, 0.0, 4.0)),
    ])
    def test_non_canonical_affine_forms_fold(self, text, value, gradient):
        node = parse_expression(text)
        assert isinstance(node, Affine), node
        want = value(*BOX.T)
        assert np.allclose(node.partials_of((0,), BOX)[0][0], want, rtol=1e-15, atol=1e-15)
        assert np.array_equal(node.partials_of((1,), BOX)[0], np.repeat([gradient], len(BOX), 0).T)
        for m in (2, 3):
            assert not node.partials_of((m,), BOX)[0].any()

    @pytest.mark.parametrize("text", ["x*y", "sin(x)*x"])
    def test_products_of_non_constants_stay_unfolded(self, text):
        assert isinstance(parse_expression(text), Mul)


@pytest.mark.parametrize("text", ["2*x - y + 3", "x + sin(3)", "(0.5)*z"])
def test_partials_of_never_writes_a_cached_gradient(text):
    # At one point an affine gradient (3, 1) has the shape of a result, and
    # here it is the root's part 1; each order asked gets its own new array,
    # which the caller may overwrite, and the node's gradient stays as it was.
    node = parse_expression(text)
    affine = node if isinstance(node, Affine) else node.left
    grad = affine.gradient.copy()
    one = np.array([[0.1, -0.2, 0.3]])
    first, second = node.partials_of((1, 1), one)
    assert first is not second
    assert np.array_equal(first, grad) and np.array_equal(second, grad)
    first *= 7.0
    np.abs(second, out=second)
    assert np.array_equal(affine.gradient, grad)
    assert np.array_equal(node.partials_of((1,), one)[0], grad)


def test_repeated_orders_are_scaled_once_into_separate_arrays():
    node = parse_expression("exp(x - 2*y) * cos(z)")
    pts = np.random.default_rng(2).uniform(-1, 1, (7, 3))
    got = node.partials_of((3, 2, 3, 2), pts)
    assert len({id(a) for a in got}) == 4
    for m, rows in zip((3, 2, 3, 2), got):
        assert np.array_equal(rows, node.partials_of((m,), pts)[0])


RIDGES = ["sin((0.4)*x + (1.1)*y + (-0.6)*z + (0.2))", "exp(0.5*x - y)", "cos(3*z)",
          "(x - 2*y + z + 3)^-3", "(2*x + y - 1)^4", "1/((0.3)*x + (-0.7)*y + (0.2)*z + (1.6))",
          "-2.5/(x + y + 4)", "sin(2)/(x - z + 3)"]


def dense(pair: RankOne) -> np.ndarray:
    """The (n_gamma, N) array a RankOne stands for, in its own arithmetic."""
    with np.errstate(all="ignore"):
        return (pair.column[:, None] * pair.row) * pair.scale[:, None]


class TestRankOne:
    PTS = np.random.default_rng(5).uniform(-0.5, 1.0, (9, 3))

    @pytest.mark.parametrize("text", RIDGES)
    def test_ridge_pairs_stand_for_the_arrays_bitwise(self, text):
        # A ridge root gives every order >= 1 named in rank_one as a RankOne
        # whose array is, bitwise, the order's partials without it; order 0
        # and the orders not named stay arrays.
        node = parse_expression(text)
        orders = (0, 1, 2, 3, 4, 5, 3)
        got = node.partials_of(orders, self.PTS, rank_one=(1, 3, 4, 5))
        for m, part in zip(orders, got):
            want = node.partials_of((m,), self.PTS)[0]
            if m in (0, 2):
                assert isinstance(part, np.ndarray)
                assert np.array_equal(part, want)
            elif np.any(want):
                assert isinstance(part, RankOne), m
                assert part.row.shape == (len(self.PTS),)
                assert part.column.shape == part.scale.shape == (len(want),)
                assert np.array_equal(dense(part), want), m

    @pytest.mark.parametrize("text", ["sin(x*y)", "2*sin(x)", "x*sin(y)", "-sin(x + y)",
                                      "sin(x) + cos(y)", "exp(sin(x))", "sin(x^2)", "x + 2*y",
                                      "1/sin(x + 1)", "sin((x + 1)^1)"])
    def test_other_roots_give_arrays(self, text):
        node = parse_expression(text)
        got = node.partials_of((1, 2, 3), self.PTS, rank_one=(1, 2, 3))
        for m, part in zip((1, 2, 3), got):
            assert isinstance(part, np.ndarray)
            assert np.array_equal(part, node.partials_of((m,), self.PTS)[0])

    def test_fields_pass_rank_one_to_the_expression_only(self):
        ridge = field_from_expression("exp(0.5*x - y)")
        assert isinstance(ridge.partials_of([3], self.PTS, rank_one=[3])[0], RankOne)
        assert isinstance(ridge.partials_of([3], self.PTS)[0], np.ndarray)
        poly = as_field(Polynomial3({(3, 0, 0): 1.0, (0, 1, 1): 2.0}))
        wrapped = ScalarField(ridge, partial_fn=ridge.partial)
        for field in (poly, wrapped):
            assert isinstance(field.partials_of([3], self.PTS, rank_one=[3])[0], np.ndarray)

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_a_residual_gives_pairs_above_k_only(self, k):
        # Up to k the interpolant's partials are subtracted into v's arrays;
        # above it the residual's partials are v's own, as a RankOne.
        v = field_from_expression("cos((0.4)*x + (1.1)*y + (-0.6)*z + (0.2))")
        u = residual(v, ROTATED_ANISO, k)
        orders = list(range(1, 6))
        got = u.partials_of(orders, self.PTS, rank_one=orders)
        for m, part in zip(orders, got):
            want = u.partials(m, self.PTS)
            assert isinstance(part, RankOne if m > k else np.ndarray), m
            assert np.array_equal(dense(part) if m > k else part, want), m
