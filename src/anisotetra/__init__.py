"""Interpolation error analysis on arbitrary tetrahedra.

Classification and standard position of tetrahedra, the quality quantities
R_T and H_T, Lagrange interpolation error bounds driven by R_T/h_T, one
forward-difference stencil on lattice refinements of the reference
tetrahedra, and the equivalence between R_T/h_T bounds and the maximum
angle condition.
"""

from .errors import (
    AnisotetraError,
    DegenerateTetrahedron,
    DerivativeUnavailable,
    ExpressionParseError,
    GenerationFailure,
    IllConditionedBasis,
    InadmissiblePC,
    InputError,
    InvalidDegree,
    InvalidGammaMax,
    NumericalError,
    ParseError,
    UnsupportedDegree,
)
from .geom import (
    Classification,
    GeometryReport,
    MacConstants,
    StandardPosition,
    Tetrahedron,
    TransformMatrices,
    TYPE1,
    TYPE2,
    angles,
    classify,
    edge_lengths,
    mac_bound_constants,
    mac_check,
    mac_reverse_gamma,
    matrices,
    max_face_and_dihedral_angle,
    quality_ratio,
    reference_tetrahedron,
    sorted_edge_lengths,
    standard_position,
    volume,
)
from .lattice import (
    forward_differences,
    nodes_on,
    quotient_coefficients,
    sigma_k,
)
from .interp import (
    Interpolant,
    Polynomial3,
    ScalarField,
    interpolate,
    monomial_indices,
    residual,
)
from .quad import (
    QuadratureRule,
    SeminormInfo,
    SeminormSpec,
    rule_for_degree,
    seminorm_with_info,
    validate_p,
)
from .expr import field_from_expression, parse_expression
from .verify import (
    ConvergenceResult,
    EquivalenceReport,
    ErrorRatioResult,
    MacReport,
    SweepResult,
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

__version__ = "0.1.0"
