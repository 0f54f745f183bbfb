"""Exception types shared across the package.

Every error raised on purpose derives from AnisotetraError so the CLI can
map failures to its exit-code contract (2 = bad input, 3 = degenerate
geometry, 4 = numerical failure).
"""


class AnisotetraError(Exception):
    """Base class for all errors raised by this package."""


class InputError(AnisotetraError):
    """Bad user input (CLI exit code 2)."""


class ParseError(InputError):
    """Malformed vertex list, tetra file, or config value."""


class ExpressionParseError(InputError):
    """Syntax error in a field expression; carries the offending position."""

    def __init__(self, message, text, pos):
        super().__init__(message)
        self.text = text
        self.pos = pos

    def caret_diagnostic(self):
        return "%s\n  %s\n  %s^" % (self.args[0], self.text, " " * self.pos)


class InvalidGammaMax(InputError):
    """gamma_max outside [pi/3, pi)."""


class InvalidDegree(InputError):
    """Lattice/interpolation degree out of the supported range."""


class UnsupportedDegree(InputError):
    """Quadrature exactness degree out of the supported range."""


class InadmissiblePC(InputError):
    """(k, m, p) violates the Sobolev-embedding admissibility condition."""


class DegenerateTetrahedron(AnisotetraError):
    """Volume below the degeneracy threshold (CLI exit code 3)."""


class NumericalError(AnisotetraError):
    """Numerical failure (CLI exit code 4)."""


class IllConditionedBasis(NumericalError):
    """A nodal basis solve did not reach the required residual.

    Kept for API compatibility; interpolate works on the reference element
    and no longer raises it.
    """

    def __init__(self, message, condition_estimate):
        super().__init__(message)
        self.condition_estimate = condition_estimate


class DerivativeUnavailable(NumericalError):
    """A partial derivative beyond the field's declared order was requested."""


class GenerationFailure(NumericalError):
    """Random tetrahedron generation exhausted its retry budget."""
