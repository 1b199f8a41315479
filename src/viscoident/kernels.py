"""Fractional-exponential hereditary kernels.

The creep kernel is the alternating series

    K(s) = s**(-alpha) * sum_{n>=0} (-beta)**n * s**((1-alpha)*n)
                                    / Gamma((1-alpha)*(1+n))

with a weak power singularity at s = 0. The stress-relaxation kernel R is
the same series with beta replaced by (lambda + beta); it is the resolvent
of K at hereditary intensity lambda. The term-wise antiderivative

    integral_0^t K = sum_{n>=0} (-beta)**n * t**(c_n) / Gamma(c_n + 1),
    c_n = (1-alpha)*(1+n)

is finite at t = 0 and is what the similarity function is built from.

The kernel and both antiderivatives are one series with a shifted exponent,
summed by one evaluator over every entry of a scalar or array at once,
which refuses (alpha, rate) outside the kernel's domain (``_check_shape``)
for every caller; ``_check_times`` is the one rule for a time axis. The
truncation rule is fixed: the sum stops once no entry's last term exceeds
ABS_TOL, and fails with ConvergenceError if that takes more than MAX_TERMS
terms. The cancellation rule is per entry (``SeriesSum.precision_loss``):
the public functions return a cancelled entry flagged, and
``SeriesSum.checked``, which every internal caller applies, refuses it
with ConvergenceError.

Time is treated as dimensionless throughout; beta then carries units
time**(alpha-1) only in the caller's bookkeeping.

The package's immutable records derive from ``_Record``, a plain class: a
frozen dataclass compiles its methods at every import of the package.

All functions here are pure; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError

import numpy as np

from .errors import ConvergenceError, DomainError

# Cancellation guard: precision_loss flags an entry this many times smaller
# than its own largest term. An entry's relative error measured up to 1.3e-14
# times that ratio (against a 120-digit series): within 1e-6 when accepted.
PRECISION_LOSS_RATIO = 1e8
# The fixed truncation rule: last term <= ABS_TOL within MAX_TERMS terms.
MAX_TERMS = 500
ABS_TOL = 1e-12


class _Record:
    """Base of the immutable records, with a frozen dataclass's behaviour.

    A subclass names its fields in ``_fields`` and its ``__init__``
    validates the arguments, then sets the fields once through ``_set``.
    Assignment and deletion raise FrozenInstanceError; ``repr``, ``==`` and
    ``hash`` work on the field values in order. The instance keeps its
    ``__dict__``, which ``copy``, ``deepcopy`` and ``pickle`` restore.
    """

    __slots__ = ()
    _fields: tuple = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


class KernelParams(_Record):
    """Kernel parameters: singularity exponent, rate, hereditary intensity."""

    _fields = ("alpha", "beta", "lam")

    def __init__(self, alpha: float, beta: float, lam: float):
        _check_shape(alpha, beta)
        _check_positive("lambda", lam)
        self._set(alpha, beta, lam)


class SeriesSum(_Record):
    """Truncated series value plus truncation diagnostics.

    ``value`` and ``max_term``, each entry's largest term magnitude, have
    the shape of the argument (a float for a scalar); ``terms`` and
    ``last_term`` describe the whole call: the terms summed and the largest
    magnitude of the last term over the entries.
    """

    _fields = ("value", "terms", "last_term", "max_term")

    def __init__(self, value: float | np.ndarray, terms: int, last_term: float,
                 max_term: float | np.ndarray):
        self._set(value, terms, last_term, max_term)

    @property
    def precision_loss(self):
        """Per entry: its largest term exceeds ``PRECISION_LOSS_RATIO`` times
        its magnitude, i.e. the alternating sum may have cancelled
        catastrophically. An entry at s = 0 has no terms and is never flagged."""
        return self.max_term > PRECISION_LOSS_RATIO * np.abs(self.value)

    def __float__(self) -> float:
        return float(self.value)

    @np.errstate(divide="ignore")  # an exact 0 value is inf times smaller
    def checked(self, s):
        """``value``; ConvergenceError naming the first entry of ``s`` with
        ``precision_loss``, its largest term and their ratio to its value."""
        lost = self.precision_loss
        if np.any(lost):
            at, peak, value = (np.asarray(x)[lost][0]
                               for x in (s, self.max_term, self.value))
            raise ConvergenceError(f"kernel series lost precision at s = {at}: "
                                   f"largest term {peak:.3e} is "
                                   f"{peak / abs(value):.3g} times its value")
        return self.value


def _check_domain(x, bad, message: str, error=DomainError) -> None:
    """Raise ``error`` naming the first entry of ``x`` where the boolean
    array ``bad`` holds."""
    if bad.any():
        raise error(f"{message}, got {np.asarray(x)[bad].flat[0]}")


def _check_positive(name: str, x, error=DomainError) -> None:
    """Raise ``error`` naming the first entry of ``x`` that is not finite
    and > 0 (NaN included)."""
    x = np.asarray(x)
    _check_domain(x, ~((x > 0.0) & (x < math.inf)),
                  f"{name} must be finite and > 0", error)


def _check_shape(alpha: float, rate: float) -> None:
    """0 < alpha < 1 and a rate (the series' beta) finite and >= 0, else DomainError."""
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie in (0, 1), got {alpha}")
    if not 0.0 <= rate < math.inf:
        raise DomainError(f"beta must be finite and >= 0, got {rate}")


def _check_times(name: str, t, least: int) -> np.ndarray:
    """An axis as floats: 1-d, ``least`` entries or more, finite and strictly
    increasing, or DomainError naming the first entry that breaks the rule."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.size < least:
        raise DomainError(f"{name} must be 1-d of length >= {least}, got shape {t.shape}")
    _check_domain(t, ~(np.isfinite(t) & (t > np.append(-math.inf, t[:-1]))),
                  f"{name} must be finite and strictly increasing")
    return t


def creep_kernel(params: KernelParams, s) -> SeriesSum:
    """Creep kernel K(s) for s > 0, elementwise over scalar or array; singular at 0."""
    _check_domain(s, ~(np.asarray(s) > 0.0), "creep kernel is singular at 0; need s > 0")
    return _antiderivative_grid(params.alpha, params.beta, s, 0)


def relaxation_kernel(params: KernelParams, s) -> SeriesSum:
    """Relaxation kernel R(s): the creep series with rate beta + lambda."""
    _check_domain(s, ~(np.asarray(s) > 0.0),
                  "relaxation kernel is singular at 0; need s > 0")
    return _antiderivative_grid(params.alpha, params.beta + params.lam, s, 0)


def creep_kernel_integral(params: KernelParams, t) -> SeriesSum:
    """integral_0^t K(tau) dtau for t >= 0, term-wise, exact at the series level.

    Returns the bare integral; the similarity function is 1 + lam * this.
    """
    _check_domain(t, ~(np.asarray(t) >= 0.0), "need t >= 0")
    return _antiderivative_grid(params.alpha, params.beta, t, 1)


def _antiderivative_grid(alpha: float, rate: float, s, order: int) -> SeriesSum:
    """The kernel (order=0) or its first or second antiderivative (order=1, 2).

    Sums (-rate)**n * s**(c_n + order - 1) / Gamma(c_n + order) over n for
    every entry of ``s`` at once, keeping each entry's largest term; DomainError
    if (alpha, rate) is outside the kernel's domain. Truncation is driven by
    the largest term over the entries: the sum stops once no entry's term
    exceeds ``ABS_TOL``, so every entry is at least that converged. Entries
    at s = 0 are exactly 0, with no terms. A term that overflows or is not
    finite, or a last term still above ``ABS_TOL`` after ``MAX_TERMS``
    terms, ends with ``ConvergenceError``.
    """
    _check_shape(alpha, rate)
    shift = float(order - 1)
    s = np.asarray(s, dtype=float)
    pos = s > 0.0
    sp = s[pos]
    acc, peak = np.zeros_like(sp), np.zeros_like(sp)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(MAX_TERMS):
            c = (1.0 - alpha) * (1 + n)
            try:
                term = (-rate) ** n * sp ** (c + shift) / math.gamma(c + 1.0 + shift)
            except OverflowError:  # from math.gamma or the float power
                term = math.inf
            acc += term
            size = np.abs(term)
            np.maximum(peak, size, out=peak)
            mag = float(np.max(size, initial=0.0))
            if not math.isfinite(mag):
                break
            if mag <= ABS_TOL:
                value, max_term = np.zeros_like(s), np.zeros_like(s)
                value[pos], max_term[pos] = acc, peak
                if not s.ndim:
                    value, max_term = float(value), float(max_term)
                return SeriesSum(value, n + 1, mag, max_term)
    raise ConvergenceError(f"kernel series did not converge in {n + 1} terms",
                           last_term=mag)
