"""One table of bad numeric arguments to the public entry points.

Every count or real that a public function takes goes through errors.integer
or errors.real, and every frame (verts, J^{-T}) through one shape check, so
a bool, a fractional or string count, a string or NaN real, a value out of
range or a frame of the wrong shape raises one stated InputError subclass,
never a raw TypeError, ValueError, IndexError or ZeroDivisionError, and is
never taken silently.  A row marked RAW is one that such an argument once
got past: it raised a raw error, returned nan, or was accepted (True as 1,
1.0 as TYPE1, a negative level count as an empty grid).
"""

import math

import numpy as np
import pytest

from anisotetra import (
    TYPE1,
    Polynomial3,
    TetraGenSpec,
    corpus,
    default_alpha_grid,
    equivalence_sample,
    error_ratio,
    field_from_expression,
    forward_differences,
    generate,
    interpolate,
    mac_bound_constants,
    mac_check,
    mac_experiment,
    mac_reverse_gamma,
    parse_expression,
    quotient_coefficients,
    reference_tetrahedron,
    rule_for_degree,
    seminorm_with_info,
    squeeze_sweep,
    study,
)
from anisotetra.errors import (
    InadmissiblePC,
    InputError,
    InvalidDegree,
    InvalidGammaMax,
    UnsupportedDegree,
)
from anisotetra.interp import Interpolant, ScalarField, pull_back
from anisotetra.lattice import gauss_jacobi
from anisotetra.quad import SeminormSpec

NAN = math.nan
HUGE = 10**400  # an integer beyond the float range
VAST = 10**5000  # an integer whose decimal digits Python refuses to write out
RAW = "raw"
V = field_from_expression("sin(x + 2*y + 3*z)")
T = reference_tetrahedron(TYPE1)
UNIFORM = TetraGenSpec("uniform", 0)
LINEAR = Polynomial3({(1, 0, 0): 1.0})
SPEC = SeminormSpec(1, 2)
# One field of each kind: a polynomial, an expression, a per-gamma partial_fn.
FIELDS = {"Polynomial3": Polynomial3({(2, 1, 0): 1.0}), "expression": V,
          "per-gamma": ScalarField(V, partial_fn=V.partial)}
# A bare expression tree, as parse_expression returns it: partials_of only.
TREE = parse_expression("sin(x + 2*y + 3*z)")
PTS = np.array([[0.1, 0.2, 0.3]])
# Frames that are not an element: its arrays, its vertices, a string.
FRAMES = {
    "pull_back's arrays": pull_back(T),
    "vertex tuple": T.v,
    "not an element": "T",
}


def rows(name, call, error, *values):
    """(id, call, value, error) per value; a value given as (RAW, value) is
    one that once got past unchecked."""
    out = []
    for value in values:
        raw = isinstance(value, tuple) and len(value) == 2 and value[0] is RAW
        value = value[1] if raw else value
        big = isinstance(value, int) and value.bit_length() > 64
        shown = "10**%d" % round(math.log10(value)) if big else repr(value)
        out.append(("%s=%s%s" % (name, shown, " RAW" if raw else ""), call, value, error))
    return out


TABLE = [
    # Interpolation and stencil degrees.
    *rows("interpolate.k", lambda k: interpolate(V, T, k), InvalidDegree, True, 2.5, "2", 0, 9,
          (RAW, VAST)),
    *rows("corpus.k", lambda k: corpus(k, T), InvalidDegree, True, 2.5, "2", 0, 9),
    *rows("forward_differences.k", lambda k: forward_differences(k, (1, 0, 0), TYPE1),
          InvalidDegree, (RAW, True), 2.5, "2", 0, 9),
    # Quadrature degrees.
    *rows("rule_for_degree.d", rule_for_degree, UnsupportedDegree, True, 2.5, "2", 0, 21),
    *rows("seminorm_with_info.degree", lambda d: seminorm_with_info(V, T, SPEC, degree=d),
          UnsupportedDegree, True, 12.5, [12], 0, 21),
    *rows("error_ratio.degree", lambda d: error_ratio(V, T, 2, 1, 2.0, degree=d),
          UnsupportedDegree, True, 12.5, [12]),
    # gamma_max.
    *rows("mac_bound_constants.gamma_max", mac_bound_constants, InvalidGammaMax,
          True, (RAW, "2"), NAN, 3.5),
    *rows("mac_check.gamma_max", lambda g: mac_check(T, g), InvalidGammaMax,
          True, (RAW, "2"), NAN, 1.0),
    *rows("mac_experiment.gamma_max", lambda g: mac_experiment(5, g), InvalidGammaMax,
          True, (RAW, "2"), NAN, math.pi),
    # (k, m, p) through error_ratio, study and squeeze_sweep.
    *rows("error_ratio.k", lambda k: error_ratio(V, T, k, 1, 2.0), InadmissiblePC,
          True, 2.5, "2", 0),
    *rows("error_ratio.m", lambda m: error_ratio(V, T, 2, m, 2.0), InadmissiblePC,
          True, 1.5, "1", 3),
    *rows("error_ratio.p", lambda p: error_ratio(V, T, 2, 1, p), InadmissiblePC,
          (RAW, True), (RAW, "2"), NAN, 0.5, (RAW, HUGE)),
    *rows("study.p", lambda p: study([T], [("v", V)], 2, 1, p), InadmissiblePC,
          (RAW, True), (RAW, "2"), NAN, 0.5),
    *rows("study.k", lambda k: study([T], [("v", V)], k, 0, 2.0), InadmissiblePC,
          True, 2.5, "2", 0),
    *rows("squeeze_sweep.p", lambda p: squeeze_sweep(2, 1, p), InadmissiblePC,
          (RAW, True), (RAW, "3"), NAN, 0.5),
    *rows("squeeze_sweep.m", lambda m: squeeze_sweep(2, m, 2.0), InadmissiblePC,
          True, 0.5, "1", 3),
    # Every other count or real: InputError itself.
    *rows("generate.n", lambda n: generate(UNIFORM, n), InputError,
          (RAW, True), (RAW, 2.5), (RAW, "2"), 0),
    *rows("equivalence_sample.n", lambda n: equivalence_sample(n, UNIFORM), InputError,
          (RAW, True), (RAW, 2.5), (RAW, "2"), 0),
    *rows("mac_experiment.n", lambda n: mac_experiment(n, 2.0), InputError,
          (RAW, True), (RAW, 2.5), (RAW, "2"), 0),
    *rows("mac_experiment.seed", lambda s: mac_experiment(5, 2.0, seed=s), InputError,
          (RAW, True), 2.5, "2", -1),
    *rows("TetraGenSpec.seed", lambda s: TetraGenSpec("uniform", s), InputError,
          (RAW, True), 2.5, "2", -1),
    *rows("TetraGenSpec.eps", lambda e: TetraGenSpec("needle", 0, {"eps": e}), InputError,
          (RAW, True), "2", NAN, 0.0),
    *rows("TetraGenSpec.gamma", lambda g: TetraGenSpec("mac", 0, {"gamma": g}), InputError,
          (RAW, True), "2", NAN, math.inf),
    *rows("TetraGenSpec.alpha", lambda a: TetraGenSpec("squeezed", 0, {"alpha": (1, a, 1)}),
          InputError, (RAW, True), (RAW, "2"), NAN, 0.0),
    *rows("TetraGenSpec.kind", lambda kind: TetraGenSpec("squeezed", 0, {"kind": kind}),
          InputError, (RAW, True), 2.5, "2", 3),
    *rows("reference_tetrahedron.kind", reference_tetrahedron, InputError,
          (RAW, True), (RAW, 1.0), "2", 3),
    *rows("forward_differences.kind", lambda kind: forward_differences(2, (1, 0, 0), kind),
          InputError, (RAW, True), (RAW, 1.0), "2", 3),
    *rows("forward_differences.delta", lambda d: forward_differences(2, (d, 0, 0), TYPE1),
          InputError, (RAW, True), 1.5, "1", -1),
    *rows("squeeze_sweep.kind",
          lambda kind: squeeze_sweep(1, 0, 2.0, alphas=[(1, 1, 1)], kind=kind), InputError,
          (RAW, True), (RAW, 1.0), "2", 3),
    *rows("squeeze_sweep.alpha", lambda a: squeeze_sweep(1, 0, 2.0, alphas=[(1, a, 1)]),
          InputError, (RAW, True), (RAW, "0.5"), NAN, 0.0),
    *rows("default_alpha_grid.levels", default_alpha_grid, InputError,
          (RAW, True), (RAW, 2.5), (RAW, "2"), (RAW, -1)),
    *rows("quotient_coefficients.delta", lambda d: quotient_coefficients((d, 0, 0)), InputError,
          (RAW, True), (RAW, 1.5), (RAW, "1"), (RAW, -1)),
    *rows("SeminormSpec.m", lambda m: SeminormSpec(m, 2.0), InputError, True, 1.5, "1", -1),
    *rows("SeminormSpec.p", lambda p: SeminormSpec(1, p), InputError,
          (RAW, True), "2", NAN, 0.5, (RAW, HUGE)),
    # The spec of a seminorm: a SeminormSpec, nothing else.
    *rows("seminorm_with_info.spec", lambda s: seminorm_with_info(V, T, s), InputError,
          (RAW, (1, 2)), (RAW, None)),
    # Derivative orders and multi-indices, on every kind of field.
    *(row for name, f in dict(FIELDS, tree=TREE).items() for row in rows(
        name + ".partials_of.orders", lambda o, f=f: f.partials_of(o, PTS), InputError,
        (RAW, ()), (RAW, (-1,)), (RAW, (1.0,)), (RAW, 2))),
    *(row for name, f in FIELDS.items() for row in [
        *rows(name + ".partials.m", lambda m, f=f: f.partials(m, PTS), InputError,
              (RAW, True), (RAW, 1.0), (RAW, "1"), (RAW, -1)),
        *rows(name + ".partial.gamma", lambda g, f=f: f.partial(g, PTS), InputError,
              (RAW, (True, 0, 0)), (RAW, (1.0, 0, 0)), (RAW, (1, 0)), (RAW, (-1, 1, 0))),
    ]),
    *rows("ScalarField.order", lambda o: ScalarField(V, lambda g, pts: V.partial(g, pts), o),
          InputError, (RAW, True), (RAW, "2"), (RAW, -1)),
    *rows("gauss_jacobi.n", lambda n: gauss_jacobi(n, 0), InputError,
          (RAW, True), (RAW, 2.5), (RAW, "2"), (RAW, 0)),
    *rows("squeeze_sweep.alphas", lambda a: squeeze_sweep(1, 0, 2.0, alphas=a), InputError,
          (RAW, 5), (RAW, 0.5)),
    *rows("mac_reverse_gamma.d_bound", mac_reverse_gamma, InputError,
          True, (RAW, "a"), NAN, (RAW, 0)),
    *rows("mac_reverse_gamma.kind", lambda kind: mac_reverse_gamma(10.0, kind), InputError,
          (RAW, True), (RAW, 1.0), "2", 3),
    *rows("Polynomial3.exponent", lambda e: Polynomial3({(e, 0, 0): 1.0}), InputError,
          True, 1.5, "1", -1),
    *rows("Polynomial3.coefficient", lambda c: Polynomial3({(1, 0, 0): c}), InputError,
          (RAW, True), "2", (RAW, NAN)),
    # The frame of in_frame and of an Interpolant is an element: one check
    # for both, pull_back's.
    *rows("Polynomial3.in_frame", lambda f: LINEAR.in_frame(FRAMES[f]), InputError, *FRAMES),
    *rows("Interpolant.frame", lambda f: Interpolant(np.zeros(4), 1, FRAMES[f]), InputError,
          *FRAMES),
]


@pytest.mark.parametrize("call,value,error", [row[1:] for row in TABLE],
                         ids=[row[0] for row in TABLE])
def test_a_bad_numeric_argument_raises_its_input_error(call, value, error):
    with pytest.raises(InputError) as exc:
        call(value)
    assert type(exc.value) is error, exc.value


def test_a_malformed_shape_is_an_input_error_too():
    # Not a 2-D table from a two-entry delta, nor a broadcast ValueError.
    with pytest.raises(InputError):
        quotient_coefficients((1, 0))
    with pytest.raises(InputError):
        squeeze_sweep(1, 0, 2.0, alphas=[(1, 1)])
