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
summed by one evaluator over every entry of a scalar or array at once; the
public functions are a domain check plus one call of it.

Time is treated as dimensionless throughout; beta then carries units
time**(alpha-1) only in the caller's bookkeeping.

All functions here are pure; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Cancellation guard: precision_loss flags a sum this many times smaller
# than the largest term.
PRECISION_LOSS_RATIO = 1e12


@dataclass(frozen=True)
class KernelParams:
    """Kernel parameters: singularity exponent, rate, hereditary intensity."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise DomainError(f"alpha must lie in (0, 1), got {self.alpha}")
        if self.beta < 0.0:
            raise DomainError(f"beta must be >= 0, got {self.beta}")
        if self.lam <= 0.0:
            raise DomainError(f"lambda must be > 0, got {self.lam}")


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the kernel series."""

    max_terms: int = 500
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if self.abs_tol < 0.0:
            raise DomainError(f"abs_tol must be >= 0, got {self.abs_tol}")


DEFAULT_CONTROL = SeriesControl()


@dataclass(frozen=True)
class SeriesSum:
    """Truncated series value plus truncation diagnostics.

    ``value`` has the shape of the argument (a float for a scalar);
    ``terms``, ``last_term`` and ``max_term`` describe the whole call:
    the terms summed, the largest magnitude of the last term over the
    entries, and the largest term magnitude met.
    """

    value: float | np.ndarray
    terms: int
    last_term: float
    max_term: float

    @property
    def precision_loss(self):
        """Per entry: ``max_term`` exceeds ``PRECISION_LOSS_RATIO`` times
        the entry's magnitude, i.e. the alternating sum may have cancelled
        catastrophically. ``max_term`` is the whole call's, so an entry much
        smaller than another entry's peak term is flagged too."""
        return self.max_term > PRECISION_LOSS_RATIO * np.abs(self.value)

    def __float__(self) -> float:
        return float(self.value)


def _check_domain(x, bad, message: str) -> None:
    """Raise DomainError naming the first entry of ``x`` where ``bad`` holds."""
    if np.any(bad):
        raise DomainError(f"{message}, got {np.asarray(x)[bad].flat[0]}")


def creep_kernel(params: KernelParams, s,
                 ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesSum:
    """Creep kernel K(s) for s > 0, elementwise over a scalar or array.

    Singular at s = 0; the series is truncated when no entry's last added
    term is larger than ``ctl.abs_tol``.
    """
    _check_domain(s, ~(np.asarray(s) > 0.0), "creep kernel is singular at 0; need s > 0")
    return _antiderivative_grid(params.alpha, params.beta, s, 0, ctl)


def relaxation_kernel(params: KernelParams, s,
                      ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesSum:
    """Relaxation kernel R(s): the creep series with rate beta + lambda."""
    _check_domain(s, ~(np.asarray(s) > 0.0),
                  "relaxation kernel is singular at 0; need s > 0")
    return _antiderivative_grid(params.alpha, params.beta + params.lam, s, 0, ctl)


def creep_kernel_integral(params: KernelParams, t,
                          ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesSum:
    """integral_0^t K(tau) dtau for t >= 0, term-wise, exact at the series level.

    Returns the bare integral; the similarity function is 1 + lam * this.
    """
    _check_domain(t, ~(np.asarray(t) >= 0.0), "need t >= 0")
    return _antiderivative_grid(params.alpha, params.beta, t, 1, ctl)


def _antiderivative_grid(alpha: float, rate: float, s, order: int,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesSum:
    """The kernel (order=0) or its first or second antiderivative (order=1, 2).

    Sums (-rate)**n * s**(c_n + order - 1) / Gamma(c_n + order) over n for
    every entry of ``s`` at once. Truncation is driven by the largest term
    over the entries, so every entry is at least as converged as
    ``ctl.abs_tol`` asks. Entries at s = 0 are exactly 0. A term that
    overflows or is not finite ends the sum with ``ConvergenceError``.
    """
    shift = float(order - 1)
    s = np.asarray(s, dtype=float)
    total = np.zeros_like(s)
    pos = s > 0.0
    sp = s[pos]
    acc = np.zeros_like(sp)
    max_term = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(ctl.max_terms):
            c = (1.0 - alpha) * (1 + n)
            try:
                term = (-rate) ** n * sp ** (c + shift) / math.gamma(c + 1.0 + shift)
            except OverflowError:  # from math.gamma or the float power
                term = math.inf
            acc += term
            mag = float(np.max(np.abs(term), initial=0.0))
            if not math.isfinite(mag):
                break
            max_term = max(max_term, mag)
            if mag <= ctl.abs_tol:
                total[pos] = acc
                value = total if total.ndim else float(total)
                return SeriesSum(value, n + 1, mag, max_term)
    raise ConvergenceError(f"kernel series did not converge in {n + 1} terms",
                           last_term=mag)
