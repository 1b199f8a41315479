"""Exception hierarchy shared by the library and the CLI.

Each error class maps to one CLI exit code class: parse (1), validation (2),
numerical (3), no-root (4). The library raises these directly; the CLI owns
the mapping.
"""

from __future__ import annotations


class ViscoidentError(Exception):
    """Base class for all library errors."""


class ParseError(ViscoidentError):
    """Malformed input file. Carries the 1-based row number when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class ValidationError(ViscoidentError):
    """Well-formed input that violates a data invariant."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class DomainError(ViscoidentError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(ViscoidentError):
    """A series or iteration did not converge. Carries the last term magnitude."""

    def __init__(self, message: str, last_term: float):
        self.last_term = last_term
        super().__init__(f"{message} (last term magnitude {last_term:.3e})")


class InsufficientDataError(ViscoidentError):
    """Too few samples for the requested operation."""


class DegenerateColumnError(ViscoidentError):
    """A similarity-mean column has a vanishing denominator."""


class SingularDenominatorError(ViscoidentError):
    """Spline coefficient denominator h_{j-1}(2 t_j - h_{j-1}) vanished."""

    def __init__(self, message: str, knot_index: int):
        self.knot_index = knot_index
        super().__init__(message)


class OutOfRangeError(ViscoidentError):
    """Evaluation time outside the fitted sample range (no extrapolation)."""


class DegenerateNormalizationError(ViscoidentError):
    """Terminal-sample weight denominator is zero: the initial intensity
    guess fits the terminal point exactly; perturb it."""


class DegenerateDesignError(ViscoidentError):
    """All weighted model values vanish; the scale estimate is undefined."""


class PoleError(ViscoidentError):
    """A sample residual is exactly zero, so its reciprocal weight is
    undefined. Carries the offending 1-based sample index."""

    def __init__(self, message: str, sample_index: int):
        self.sample_index = sample_index
        super().__init__(f"sample {sample_index}: {message}")


class InfeasibleEtaError(ViscoidentError):
    """Nonpositive eta; the exponent root problem needs eta > 0."""


class NoRootBracketError(ViscoidentError):
    """No exponent root of eps**q = eta*q exists in (0, q_bar]."""


class NoRootError(ViscoidentError):
    """No (strain level, knot) pair has an exponent root."""
