"""Exception types, and the one rule for numeric arguments, shared package-wide.

Every error raised on purpose derives from AnisotetraError so the CLI can
map failures to its exit-code contract (2 = bad input, 3 = degenerate
geometry, 4 = numerical failure).  Every count (degree, order, sample size,
seed, kind) and real (p, gamma_max, eps, alpha) a public function takes is
checked once, at its entry, by integer or real: a bool is never a number,
NaN fails every range, an integer beyond the float range is not a real, and
a failure raises the InputError subclass named.
"""

import math
import numbers


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


def _message(name, what, low, high, value) -> str:
    bound = (" in [%r, %r]" % (low, high) if high not in (None, math.inf)
             else " >= %r" % (low,) if low > -math.inf else "")
    return "%s must be %s%s, got %s" % (name, what, bound, _shown(value))


def _shown(value) -> str:
    """repr(value), or the size of an integer whose decimal digits Python
    refuses to write out (sys.get_int_max_str_digits)."""
    try:
        return repr(value)
    except ValueError:
        return "an integer of %d bits" % int(value).bit_length()


def integer(value, name, low=0, high=None, error=InputError) -> int:
    """value as a Python int; error unless it is an integer (a bool is not
    one) with low <= value <= high, where high None is no upper bound."""
    ok = type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (ok and low <= value and (high is None or value <= high)):
        raise error(_message(name, "an integer", low, high, value))
    return int(value)


def real(value, name, low=-math.inf, high=math.inf, error=InputError) -> float:
    """value as a Python float; error unless it is a real number (a bool is
    not one) with low <= value <= high, and within the float range (an
    integer such as 10**400 is not).  NaN fails every range."""
    ok = type(value) is float or isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (ok and low <= value <= high):
        raise error(_message(name, "a real number", low, high, value))
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise error(_message(name, "a real number in the float range", low, high, value)) from None
