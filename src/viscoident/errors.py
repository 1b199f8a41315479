"""Exception hierarchy shared by the library and the CLI.

Each concrete error class carries the CLI exit code of its kind in
``exit_code``: parse (1), validation (2), numerical (3), no root (4). The
library raises these directly; the CLI prints the error and returns its code.
"""

from __future__ import annotations


class ViscoidentError(Exception):
    """Base class for all library errors. ``row`` is the 1-based physical
    line of an input file the error concerns, or None; when given, the
    message starts with ``row N: ``."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class ParseError(ViscoidentError):
    """Malformed input file."""

    exit_code = 1


class ValidationError(ViscoidentError):
    """Well-formed input that violates a data invariant."""

    exit_code = 2


class DomainError(ViscoidentError):
    """Argument outside the mathematical domain of an operation."""

    exit_code = 2


class ConvergenceError(ViscoidentError):
    """A series or iteration did not converge; ends with the last term if given."""

    exit_code = 3

    def __init__(self, message: str, last_term: float | None = None):
        self.last_term = last_term
        tail = "" if last_term is None else f" (last term magnitude {last_term:.3e})"
        super().__init__(message + tail)


class InsufficientDataError(ViscoidentError):
    """Too few samples for the requested operation."""

    exit_code = 2


class SingularDenominatorError(ViscoidentError):
    """Spline coefficient denominator h_{j-1}(2 t_j - h_{j-1}) vanished or
    underflowed, leaving the segment coefficients non-finite."""

    exit_code = 3

    def __init__(self, message: str, knot_index: int):
        self.knot_index = knot_index
        super().__init__(message)


class OutOfRangeError(ViscoidentError):
    """Evaluation time outside the fitted sample range (no extrapolation)."""

    exit_code = 2


class DegenerateNormalizationError(ViscoidentError):
    """Terminal-sample weight denominator is zero: the initial intensity
    guess fits the terminal point exactly; perturb it."""

    exit_code = 3


class DegenerateDesignError(ViscoidentError):
    """All weighted model values vanish; the scale estimate is undefined."""

    exit_code = 3


class PoleError(ViscoidentError):
    """A sample residual is exactly zero, so its reciprocal weight is
    undefined. Carries the offending 1-based sample index."""

    exit_code = 3

    def __init__(self, message: str, sample_index: int):
        self.sample_index = sample_index
        super().__init__(f"sample {sample_index}: {message}")


class InfeasibleEtaError(ViscoidentError):
    """Nonpositive eta; the exponent root problem needs eta > 0."""

    exit_code = 3


class NoRootBracketError(ViscoidentError):
    """No exponent root of eps**q = eta*q exists in (0, q_bar]."""

    exit_code = 4


class NoRootError(ViscoidentError):
    """No (strain level, knot) pair has an exponent root."""

    exit_code = 4
