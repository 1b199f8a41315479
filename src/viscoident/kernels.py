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

Time is treated as dimensionless throughout; beta then carries units
time**(alpha-1) only in the caller's bookkeeping.

All functions here are pure; concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

# Cancellation guard: warn when the largest intermediate term exceeds this
# multiple of the final sum.
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

    ``precision_loss`` is set when the largest intermediate term exceeded
    ``PRECISION_LOSS_RATIO`` times the final magnitude, i.e. the alternating
    sum cancelled catastrophically.
    """

    value: float
    terms: int
    last_term: float
    max_term: float
    precision_loss: bool

    def __float__(self) -> float:
        return self.value


def _alternating_sum(alpha: float, rate: float, s: float, exponent_shift: float,
                     ctl: SeriesControl) -> SeriesSum:
    """Sum (-rate)**n * s**(c_n + shift) / Gamma(c_n + 1 + shift) over n.

    shift = -1 gives the kernel itself (after the Gamma argument shift),
    shift = 0 the first antiderivative, shift = 1 the second.
    """
    total = 0.0
    max_term = 0.0
    term = 0.0
    for n in range(ctl.max_terms):
        c = (1.0 - alpha) * (1 + n)
        term = (-rate) ** n * s ** (c + exponent_shift) / math.gamma(c + 1.0 + exponent_shift)
        total += term
        mag = abs(term)
        max_term = max(max_term, mag)
        if mag <= ctl.abs_tol:
            loss = max_term > PRECISION_LOSS_RATIO * max(abs(total), np.finfo(float).tiny)
            return SeriesSum(total, n + 1, mag, max_term, loss)
    raise ConvergenceError(
        f"kernel series did not converge within {ctl.max_terms} terms",
        last_term=abs(term),
    )


def creep_kernel(params: KernelParams, s: float,
                 ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesSum:
    """Creep kernel K(s) for s > 0.

    Singular at s = 0; the series is truncated when the last added term is
    no larger than ``ctl.abs_tol``.
    """
    if s <= 0.0:
        raise DomainError(f"creep kernel is singular at 0; need s > 0, got {s}")
    return _alternating_sum(params.alpha, params.beta, s, -1.0, ctl)


def relaxation_kernel(params: KernelParams, s: float,
                      ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesSum:
    """Relaxation kernel R(s): the creep series with rate beta + lambda."""
    if s <= 0.0:
        raise DomainError(f"relaxation kernel is singular at 0; need s > 0, got {s}")
    return _alternating_sum(params.alpha, params.beta + params.lam, s, -1.0, ctl)


def creep_kernel_integral(params: KernelParams, t: float,
                          ctl: SeriesControl = DEFAULT_CONTROL) -> SeriesSum:
    """integral_0^t K(tau) dtau, term-wise, exact at the series level.

    Returns the bare integral; the similarity function is 1 + lam * this.
    """
    if t < 0.0:
        raise DomainError(f"need t >= 0, got {t}")
    if t == 0.0:
        return SeriesSum(0.0, 0, 0.0, 0.0, False)
    return _alternating_sum(params.alpha, params.beta, t, 0.0, ctl)


def _antiderivative_grid(alpha: float, rate: float, s: np.ndarray, order: int,
                         ctl: SeriesControl = DEFAULT_CONTROL) -> np.ndarray:
    """Vectorized first (order=1) or second (order=2) kernel antiderivative.

    Shared by the product-integration convolution; truncation is driven by
    the largest entry of ``s`` so every entry is at least as converged as
    the scalar contract requires. Entries at s = 0 are exactly 0.
    """
    shift = float(order - 1)
    s = np.asarray(s, dtype=float)
    total = np.zeros_like(s)
    pos = s > 0.0
    if not np.any(pos):
        return total
    sp = s[pos]
    acc = np.zeros_like(sp)
    term = np.zeros_like(sp)
    for n in range(ctl.max_terms):
        c = (1.0 - alpha) * (1 + n)
        term = (-rate) ** n * sp ** (c + shift) / math.gamma(c + 1.0 + shift)
        acc += term
        if np.max(np.abs(term)) <= ctl.abs_tol:
            total[pos] = acc
            return total
    raise ConvergenceError(
        f"kernel antiderivative series did not converge within {ctl.max_terms} terms",
        last_term=float(np.max(np.abs(term))),
    )
