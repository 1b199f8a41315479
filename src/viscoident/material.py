"""Nonlinear hereditary constitutive model and synthetic-data oracle.

The instantaneous stress-strain law is the power function

    phi0(eps) = (H/q) * eps**q

and the two hereditary forms relate stress and strain through the creep
kernel K and its resolvent R:

    phi0(eps(t)) = sigma(t) + lam * integral_0^t K(t-tau) sigma(tau) dtau
    sigma(t) = phi0(eps(t)) - lam * integral_0^t R(t-tau) phi0(eps(tau)) dtau

Under a constant load either convolution collapses to the term-wise kernel
integral, which gives closed-form creep and relaxation responses; those are
the synthetic-data oracles. For piecewise-linear programs the convolutions
are evaluated by product integration: the kernel's first and second
antiderivatives are series-exact on every subinterval, so the weak
singularity never meets a quadrature rule. The power law and the
simulators work on whole arrays, with no Python loop per sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError
from .kernels import (
    DEFAULT_CONTROL,
    KernelParams,
    SeriesControl,
    _antiderivative_grid,
    _check_domain,
)

KIND_CREEP = "creep-at-constant-stress"
KIND_RELAXATION = "relaxation-at-constant-strain"
KIND_STRESS_PROGRAM = "stress-program"


@dataclass(frozen=True)
class PowerLaw:
    """Instantaneous power law phi0(eps) = (H/q) * eps**q, H > 0, q > 0."""

    H: float
    q: float

    def __post_init__(self):
        if self.H <= 0.0:
            raise DomainError(f"H must be > 0, got {self.H}")
        if self.q <= 0.0:
            raise DomainError(f"q must be > 0, got {self.q}")


@dataclass(frozen=True)
class ResponseHistory:
    """Sampled response: strain for creep runs, stress for relaxation runs.

    ``driver`` is the held constant (stress or strain). ``kind`` is one of
    the module KIND_* constants.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    driver: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        if t.ndim != 1 or v.ndim != 1 or len(t) != len(v):
            raise DomainError("times and values must be 1-d and equally long")
        if len(t) < 2:
            raise DomainError("a history needs at least two samples")
        if t[0] != 0.0:
            raise DomainError(f"history must start at t = 0, got {t[0]}")
        if not np.all(np.diff(t) > 0.0):
            raise DomainError("history times must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise DomainError("history values must be finite")


def phi0(pl: PowerLaw, eps):
    """Instantaneous stress (H/q) * eps**q for eps >= 0, elementwise."""
    _check_domain(eps, np.asarray(eps) < 0.0, "phi0 is undefined for negative strain")
    return pl.H / pl.q * eps ** pl.q


def phi0_inverse(pl: PowerLaw, phi):
    """Strain (q*phi/H)**(1/q) for phi >= 0, elementwise; round-trips with phi0."""
    _check_domain(phi, np.asarray(phi) < 0.0,
                  "phi0 inverse is undefined for negative stress")
    return (pl.q * phi / pl.H) ** (1.0 / pl.q)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2:
        raise DomainError("time grid must be 1-d with at least two points")
    if grid[0] != 0.0:
        raise DomainError(f"time grid must start at 0, got {grid[0]}")
    if not np.all(np.diff(grid) > 0.0):
        raise DomainError("time grid must be strictly increasing")
    return grid


def simulate_creep(kp: KernelParams, pl: PowerLaw, sigma: float,
                   grid: np.ndarray,
                   ctl: SeriesControl = DEFAULT_CONTROL) -> ResponseHistory:
    """Strain response to a constant stress step.

    The convolution collapses, giving
    eps(t) = phi0_inverse(sigma * (1 + lam * integral_0^t K)).
    """
    if sigma <= 0.0:
        raise DomainError(f"creep stress must be > 0, got {sigma}")
    grid = _check_grid(grid)
    integral = _antiderivative_grid(kp.alpha, kp.beta, grid, 1, ctl).value
    strain = phi0_inverse(pl, sigma * (1.0 + kp.lam * integral))
    return ResponseHistory(grid, strain, KIND_CREEP, sigma)


def simulate_relaxation(kp: KernelParams, pl: PowerLaw, eps: float,
                        grid: np.ndarray,
                        ctl: SeriesControl = DEFAULT_CONTROL) -> ResponseHistory:
    """Stress response to a constant strain step.

    sigma(t) = phi0(eps) * (1 - lam * integral_0^t R), where the resolvent
    integral is the creep integral with rate beta + lam.
    """
    if eps <= 0.0:
        raise DomainError(f"relaxation strain must be > 0, got {eps}")
    grid = _check_grid(grid)
    integral = _antiderivative_grid(kp.alpha, kp.beta + kp.lam, grid, 1, ctl).value
    stress = phi0(pl, eps) * (1.0 - kp.lam * integral)
    return ResponseHistory(grid, stress, KIND_RELAXATION, eps)


def relaxation_kernel_from_history(hist: ResponseHistory, pl: PowerLaw,
                                   lam: float):
    """Kernel samples R(t_j) = -(1/lam) * sigma'(t_j) / phi0(eps_const).

    Differentiates the stress record with second-order finite differences
    (central in the interior, one-sided at the ends).
    """
    from .spline import KernelSamples  # local import to avoid a cycle

    if hist.kind != KIND_RELAXATION:
        raise DomainError(
            f"need a {KIND_RELAXATION} history, got kind {hist.kind!r}"
        )
    if lam == 0.0:
        raise DomainError("lambda must be nonzero to rescale the derivative")
    if len(hist.times) < 3:
        raise InsufficientDataError(
            "need at least three samples to differentiate the record"
        )
    dsigma = np.gradient(hist.values, hist.times, edge_order=2)
    values = -dsigma / (lam * phi0(pl, hist.driver))
    return KernelSamples(hist.times, values)


def hereditary_convolution(alpha: float, rate: float, times: np.ndarray,
                           values: np.ndarray,
                           ctl: SeriesControl = DEFAULT_CONTROL) -> np.ndarray:
    """(K * f)(t_k) on the grid, exact for piecewise-linear f.

    On each subinterval the data is linear and the kernel factor is handled
    through its first and second antiderivatives I1, I2:

        integral_a^b K(u) * (f1 + (u - a)*m) du
            = f1*(I1(b) - I1(a)) + m*((b - a)*I1(b) - I2(b) + I2(a))

    with u the lag, a = t_k - t_{i+1}, b = t_k - t_i and m the data slope
    in the lag variable.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(times)
    # lag matrices for all (k, i) pairs, masked to i < k
    lag_lo = times[:, None] - times[None, 1:]    # t_k - t_{i+1}
    lag_hi = times[:, None] - times[None, :-1]   # t_k - t_i
    mask = np.tril(np.ones((n, n - 1), dtype=bool), k=0)
    I1_lo = _antiderivative_grid(alpha, rate, np.where(mask, lag_lo, 0.0), 1, ctl).value
    I1_hi = _antiderivative_grid(alpha, rate, np.where(mask, lag_hi, 0.0), 1, ctl).value
    I2_lo = _antiderivative_grid(alpha, rate, np.where(mask, lag_lo, 0.0), 2, ctl).value
    I2_hi = _antiderivative_grid(alpha, rate, np.where(mask, lag_hi, 0.0), 2, ctl).value
    width = lag_hi - lag_lo  # = h_i, independent of k
    slope = (values[:-1] - values[1:]) / (times[1:] - times[:-1])
    contrib = values[None, 1:] * (I1_hi - I1_lo) + slope[None, :] * (
        width * I1_hi - I2_hi + I2_lo
    )
    return np.sum(np.where(mask, contrib, 0.0), axis=1)


def resolvent_mismatch(kp: KernelParams, pl: PowerLaw,
                       sigma_history: ResponseHistory,
                       ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Consistency of the two hereditary forms on a stress program.

    The stress record (``sigma_history.values``) is pushed forward to a
    strain history by product integration of the creep form, then the
    strain is pushed back through the resolvent form; returns the largest
    absolute stress reconstruction error. Zero heredity reproduces the
    stress exactly; otherwise the error is the piecewise-linear
    interpolation error of the intermediate response and shrinks under
    grid refinement.
    """
    if len(sigma_history.times) < 8:
        raise InsufficientDataError(
            "resolvent check needs at least 8 grid points"
        )
    t = sigma_history.times
    sigma = sigma_history.values
    x = sigma + kp.lam * hereditary_convolution(kp.alpha, kp.beta, t, sigma, ctl)
    if np.any(x < 0.0):
        raise DomainError("forward response left the power-law domain (phi < 0)")
    px = phi0(pl, phi0_inverse(pl, x))
    sigma_back = px - kp.lam * hereditary_convolution(
        kp.alpha, kp.beta + kp.lam, t, px, ctl
    )
    return float(np.max(np.abs(sigma_back - sigma)))
