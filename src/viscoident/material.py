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
are evaluated by product integration (``hereditary_convolution``): the
weak singularity never meets a quadrature rule, and the memory grows as
the grid, not as its square. Every kernel series here is checked for
cancellation (``SeriesSum.checked``). The power law and the simulators
work on whole arrays, with no Python loop per sample. ``differentiate`` is
the one derivative of a record; the routes from a record to kernel samples
are in ``spline``. ``PowerLaw`` and ``ResponseHistory`` are ``_Record``s.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InsufficientDataError
from .kernels import (KernelParams, _antiderivative_grid, _check_domain,
                      _check_positive, _check_times, _Record)

KIND_CREEP = "creep-at-constant-stress"
KIND_RELAXATION = "relaxation-at-constant-strain"
KIND_STRESS_PROGRAM = "stress-program"
_HELD_LOADS = {KIND_CREEP: "creep stress", KIND_RELAXATION: "relaxation strain"}


class PowerLaw(_Record):
    """Instantaneous power law phi0(eps) = (H/q) * eps**q, H > 0, q > 0."""

    _fields = ("H", "q")

    def __init__(self, H: float, q: float):
        _check_positive("H", H)
        _check_positive("q", q)
        self._set(H, q)


class ResponseHistory(_Record):
    """Sampled response: strain for creep runs, stress for relaxation runs.

    ``times`` is a time grid from 0 and ``values`` are finite; ``kind`` is
    one of the module KIND_* constants; ``driver`` is the held load of a
    creep or relaxation record, finite and > 0 (a stress program holds none).
    """

    _fields = ("times", "values", "kind", "driver")

    def __init__(self, times: np.ndarray, values: np.ndarray, kind: str,
                 driver: float):
        t = _check_grid(times)
        v = np.asarray(values, dtype=float)
        if v.shape != t.shape:
            raise DomainError("times and values must be 1-d and equally long")
        _check_domain(v, ~np.isfinite(v), "history values must be finite")
        if kind in _HELD_LOADS:
            _check_positive(_HELD_LOADS[kind], driver)
        self._set(t, v, kind, driver)


def _finite(arg, message: str, compute):
    """``compute()``, elementwise over ``arg``; a result that is not finite
    is a DomainError naming the first entry of ``arg`` that gives one (a
    float ``**`` that overflows raises OverflowError, an array's gives inf)."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            value = compute()
        except OverflowError:
            value = math.inf
    _check_domain(arg, ~np.isfinite(value), message)
    return value


def phi0(pl: PowerLaw, eps):
    """Instantaneous stress (H/q) * eps**q for eps >= 0, elementwise."""
    _check_domain(eps, ~(np.asarray(eps) >= 0.0),  # NaN fails too
                  "phi0 is undefined for negative or NaN strain")
    return _finite(eps, f"phi0 overflows at H = {pl.H}, q = {pl.q}: stress "
                        f"(H/q)*eps**q is not finite for strain eps",
                   lambda: pl.H / pl.q * eps ** pl.q)


def phi0_inverse(pl: PowerLaw, phi):
    """Strain (q*phi/H)**(1/q) for phi >= 0, elementwise; round-trips with phi0."""
    _check_domain(phi, ~(np.asarray(phi) >= 0.0),  # NaN fails too
                  "phi0 inverse is undefined for negative or NaN stress")
    return _finite(phi, f"phi0 inverse overflows at H = {pl.H}, q = {pl.q}: "
                        f"strain (q*phi/H)**(1/q) is not finite for stress phi",
                   lambda: (pl.q * phi / pl.H) ** (1.0 / pl.q))


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = _check_times("time grid", grid, 2)
    if grid[0] != 0.0:
        raise DomainError(f"time grid must start at 0, got {grid[0]}")
    return grid


def simulate_creep(kp: KernelParams, pl: PowerLaw, sigma: float,
                   grid: np.ndarray) -> ResponseHistory:
    """Strain response to a constant stress step.

    The convolution collapses, giving
    eps(t) = phi0_inverse(sigma * (1 + lam * integral_0^t K)).
    """
    _check_positive(_HELD_LOADS[KIND_CREEP], sigma)
    grid = _check_grid(grid)
    integral = _antiderivative_grid(kp.alpha, kp.beta, grid, 1).checked(grid)
    strain = phi0_inverse(pl, sigma * (1.0 + kp.lam * integral))
    return ResponseHistory(grid, strain, KIND_CREEP, sigma)


def simulate_relaxation(kp: KernelParams, pl: PowerLaw, eps: float,
                        grid: np.ndarray) -> ResponseHistory:
    """Stress response to a constant strain step.

    sigma(t) = phi0(eps) * (1 - lam * integral_0^t R), where the resolvent
    integral is the creep integral with rate beta + lam.
    """
    _check_positive(_HELD_LOADS[KIND_RELAXATION], eps)
    grid = _check_grid(grid)
    integral = _antiderivative_grid(kp.alpha, kp.beta + kp.lam, grid, 1).checked(grid)
    stress = phi0(pl, eps) * (1.0 - kp.lam * integral)
    return ResponseHistory(grid, stress, KIND_RELAXATION, eps)


def differentiate(values: np.ndarray, times: np.ndarray) -> np.ndarray:
    """d(values)/dt on the grid, second order (central in the interior,
    one-sided at the ends, which take three samples).

    On a grid too fine for the difference weights (their denominators,
    products of two spacings, underflow to zero) the derivative of a finite
    record comes out non-finite; that is a DomainError naming the spacing,
    and numpy's warnings stay silent.
    """
    if len(times) < 3:
        raise InsufficientDataError(
            "need at least three samples to differentiate the record")
    with np.errstate(all="ignore"):
        rate = np.gradient(values, times, edge_order=2)
    if not np.all(np.isfinite(rate)) and np.all(np.isfinite(values)):
        raise DomainError(
            f"grid spacing {np.min(np.diff(times)):.3g} is too fine to "
            f"differentiate the record: its derivative is not finite"
        )
    return rate


# Output rows per block of the convolution: bounds its lag, index and gathered
# I2 arrays to BLOCK_ROWS * n cells each, whatever the size of the grid. A
# multiple of 4: OpenBLAS's matrix-vector kernel sums rows in groups of four,
# so each row sums in the order of one product over the whole matrix.
BLOCK_ROWS = 64


def _lag_blocks(times: np.ndarray):
    """(rows, lags) per block of output rows: the lags t_k - t_j of rows k
    against the grid times t_j, j < n - 1, clamped to 0 where j > k. A block
    has BLOCK_ROWS rows; the last has 2 to BLOCK_ROWS + 1 (all, for n <= 2),
    since numpy sums a one-row product as a dot product, in another order
    than the matrix-vector kernel."""
    n = len(times)
    for k in range(0, max(n - 1, 1), BLOCK_ROWS):
        rows = slice(k, k + BLOCK_ROWS if k + BLOCK_ROWS < n - 1 else n)
        yield rows, np.maximum(times[rows, None] - times[None, :-1], 0.0)


def _distinct(blocks, bound: int) -> np.ndarray:
    """The sorted distinct values of the arrays ``blocks``. Each block's own
    distinct values wait to be merged until they outnumber both ``bound``
    and the values merged so far, so memory stays O(bound + result) and
    each value is sorted O(1) times on average."""
    merged, pending, size = np.empty(0), [], 0
    for block in blocks:
        pending.append(np.unique(block))
        size += pending[-1].size
        if size > max(bound, merged.size):
            merged, pending, size = np.unique(np.concatenate([merged, *pending])), [], 0
    return np.unique(np.concatenate([merged, *pending]))


def hereditary_convolution(alpha: float, rate: float, times: np.ndarray,
                           values: np.ndarray) -> np.ndarray:
    """(K * f)(t_k) on the grid, exact for piecewise-linear f.

    Integrating by parts twice moves the kernel onto its first and second
    antiderivatives I1, I2, which are series-exact at every lag, and the
    data onto its value at the start and the jumps of its slope:

        (K * f)(t_k) = f_0*I1(t_k - t_0) - sum_{j<k} (m_j - m_{j-1})*I2(t_k - t_j)

    with m_j = (f_j - f_{j+1})/(t_{j+1} - t_j) the slope in the lag variable
    and m_{-1} = 0 (product integration; Linz, Analytical and Numerical
    Methods for Volterra Equations, 1985). I1 runs over the n grid times.
    The lags t_k - t_j, j < n - 1, are clamped to 0 where j > k, where I2
    vanishes, and hold far fewer distinct values than cells (about 3.4n on
    an evenly spaced grid, at most n*(n-1)/2 + 1 on any grid), so I2 runs
    once over the sorted distinct lags. The lags are made in blocks of
    ``BLOCK_ROWS`` output rows, twice: once to collect the distinct lags,
    once to gather each block's cells from I2 and sum them against the
    slope jumps, one matrix-vector product per block. Memory is
    O(BLOCK_ROWS*n + L) for L distinct lags, not O(n**2). Each series
    value is within ABS_TOL of the exact one, so the result is within
    ABS_TOL*(|f_0| + sum_j |m_j - m_{j-1}|) of the exact convolution, and
    constant data gives exactly f_0*I1. Times off the one axis rule, values
    not finite or (alpha, rate) outside the kernel's domain are a DomainError,
    and a lag or time at which I1 or I2 has cancelled a ConvergenceError.
    """
    times = _check_times("convolution times", times, 1)
    values = np.asarray(values, dtype=float)
    if values.shape != times.shape:
        raise DomainError("times and values must be 1-d and equally long")
    _check_domain(values, ~np.isfinite(values), "convolution values must be finite")
    lags = _distinct((lag for _, lag in _lag_blocks(times)), BLOCK_ROWS * times.size)
    I2 = _antiderivative_grid(alpha, rate, lags, 2).checked(lags)
    elapsed = times - times[0]
    I1 = _antiderivative_grid(alpha, rate, elapsed, 1).checked(elapsed)
    slope = (values[:-1] - values[1:]) / (times[1:] - times[:-1])
    jumps = np.diff(slope, prepend=0.0)
    out = values[0] * I1
    for rows, lag in _lag_blocks(times):
        out[rows] -= I2[np.searchsorted(lags, lag)] @ jumps
    return out


def resolvent_mismatch(kp: KernelParams, pl: PowerLaw,
                       sigma_history: ResponseHistory) -> float:
    """Consistency of the two hereditary forms on a stress program.

    The stress record (``sigma_history.values``) is pushed forward to a
    strain history by product integration of the creep form, then the
    strain is pushed back through the resolvent form; returns the largest
    absolute stress reconstruction error. Zero heredity reproduces the
    stress exactly; otherwise the error is the piecewise-linear
    interpolation error of the intermediate response and shrinks under
    grid refinement. A record of another kind is a DomainError, and a
    kernel series that cancels in either convolution a ConvergenceError.
    """
    if sigma_history.kind != KIND_STRESS_PROGRAM:
        raise DomainError(f"need a {KIND_STRESS_PROGRAM} history, "
                          f"got kind {sigma_history.kind!r}")
    t, sigma = sigma_history.times, sigma_history.values
    if len(t) < 8:
        raise InsufficientDataError("resolvent check needs at least 8 grid points")
    x = sigma + kp.lam * hereditary_convolution(kp.alpha, kp.beta, t, sigma)
    if np.any(x < 0.0):
        raise DomainError("forward response left the power-law domain (phi < 0)")
    px = phi0(pl, phi0_inverse(pl, x))
    sigma_back = px - kp.lam * hereditary_convolution(
        kp.alpha, kp.beta + kp.lam, t, px)
    return float(np.max(np.abs(sigma_back - sigma)))
