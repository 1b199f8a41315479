"""Two-stage weighted-residual estimation of the hereditary parameters.

Stage 1 fixes an initial intensity/exponent pair (lambda0, q0) and a
difference-moment order m by minimizing the weighted residual

    delta = sum_j { w_j * [K(t_j) - lambda0 * K_j(t_eval_j)] }**2,
    w_j = 1 / (1 + |r_j / r_n|**m),

where r_j is the sample residual and r_n the terminal-sample residual that
normalizes all of them. Stage 2 estimates the intensity scale from the
reciprocal-residual-weighted closed form

    lambda_tilde = sum_j K(t_j)*K_j / r_j**2  /  sum_j K_j**2 / r_j**2

(the target-residual level gamma cancels identically), then solves

    eps_i**q - eta_j * q = 0,
    eta_j = (sigma/H) * (1 + lambda_hat * [B_j*t_j - C_j*t_j**2 + D_j*t_j**3])

for the exponent on every (strain level, knot) pair and reduces the roots
by their median. The root is q = -W0(z)/ln(eps_i) with z = -ln(eps_i)/eta_j
and W0 the principal branch of the Lambert W function, or 1/eta_j at
eps_i = 1. For eps_i > 1 the residual is convex: W0 gives its smaller root,
z < -1/e means there is none, and a pair whose residual certificate
|f(q_min)| <= Q_RESIDUAL_RTOL * max(1, eta_j*q_min) holds at the minimum
q_min = ln(eta_j/ln eps_i)/ln eps_i is a tangency (double root) returning
q_min. Roots and failures come out in row-major pair order.

Evaluation times: each sample term j is evaluated at the midpoint of
[t_j, t_{j+1}] by default (the terminal sample at its own knot), or exactly
at the knots, where the scale formula is identically 1 on a self-fitted
spline.

The weights, delta at every m and the scale share one pass that evaluates
the spline once at the evaluation times and once at the terminal sample.

When the segments are fitted to the samples themselves the scale estimate
is a multiplicative correction to lambda0; when they come from an
independent unit-normalized kernel model the estimate IS the intensity.
``identify`` distinguishes the two with ``model_segments``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateDesignError,
    DegenerateNormalizationError,
    DomainError,
    InfeasibleEtaError,
    NoRootBracketError,
    NoRootError,
    PoleError,
)
from .kernels import _check_domain, _check_positive
from .material import PowerLaw
from .spline import (
    IsochroneDataset,
    KernelSamples,
    Spline,
    integrate_segment_from_zero,
)

Q_RESIDUAL_RTOL = 1e-10
# Halley steps for W0 stop at this multiple of the relative rounding unit
W0_STEP_TOL = 4.0 * np.finfo(float).eps
W0_MAX_ITER = 20
DEFAULT_M_RANGE = tuple(range(2, 9))


@dataclass(frozen=True)
class WeightConfig:
    """Stage-1 configuration: initial guesses, moment order, residual target."""

    lambda0: float = 1.0
    q0: float = 1.0
    m: int = 2
    gamma: float = 1e-6

    def __post_init__(self):
        for name in ("lambda0", "q0", "gamma"):
            _check_positive(name, getattr(self, name))
        _check_order(self.m)


def _check_order(m) -> int:
    """``m``, a moment order; DomainError unless it is an integer >= 2."""
    if not isinstance(m, numbers.Integral) or m < 2:
        raise DomainError(f"m must be an integer >= 2, got {m}")
    return m


class IdentificationResult:
    """Estimates plus the per-sample and per-pair diagnostics. (A plain
    class, like ``spline.Spline`` and the other records: a dataclass would
    generate its methods at every import of the package.)"""

    def __init__(self, lambda_hat: float, q_hat: float, delta: float,
                 m_selected: int, weights: np.ndarray, diagnostics: dict | None = None):
        self.lambda_hat = lambda_hat
        self.q_hat = q_hat
        self.delta = delta
        self.m_selected = m_selected
        self.weights = weights
        self.diagnostics = {} if diagnostics is None else diagnostics


def segment_eval_times(samples: KernelSamples, at_knots: bool = False) -> np.ndarray:
    """Per-sample evaluation times: knots, or interval midpoints.

    The terminal sample has no following knot; its midpoint degenerates to
    the knot itself.
    """
    t = samples.times
    if at_knots:
        return t.copy()
    mids = np.empty_like(t)
    mids[:-1] = 0.5 * (t[:-1] + t[1:])
    mids[-1] = t[-1]
    return mids


def _stage1(samples: KernelSamples, segments: Spline, lambda0: float, t_eval,
            weights=None) -> tuple[np.ndarray, np.ndarray, float]:
    """The one spline pass: model values K_j(t_eval_j), residuals
    r_j = K(t_j) - lambda0*K_j(t_eval_j) and the terminal residual r_n (the
    last segment at t_star), checking one segment at each sample time, one
    evaluation time and any finite weight per sample; DomainError if
    lambda0*K_j is not finite."""
    n = len(samples)
    if len(segments) != n:
        raise DomainError(f"need one segment per sample ({n}), got {len(segments)}")
    if not np.array_equal(segments.t, samples.times):
        j = np.flatnonzero(segments.t != samples.times)[0]
        raise DomainError(f"the segments must be anchored at the sample times: "
                          f"segment {j + 1} is at t = {segments.t[j]:.9g}, "
                          f"sample {j + 1} at t = {samples.times[j]:.9g}")
    for name, arg in (("evaluation time", t_eval), ("weight", weights)):
        if arg is not None and np.shape(arg) != (n,):
            raise DomainError(f"need one {name} per sample ({n}), "
                              f"got shape {np.shape(arg)}")
    if weights is not None:
        _check_domain(weights, ~np.isfinite(weights), "weights must be finite")
    model = segments.value(t_eval)
    with np.errstate(over="ignore"):  # an overflow is the error below
        r_n = float(samples.values[-1] - lambda0 * segments[-1].value(samples.t_star))
        resid = samples.values - lambda0 * model
    if not (math.isfinite(r_n) and np.all(np.isfinite(resid))):
        raise DomainError(f"a residual is not finite at lambda0 = {lambda0:.9g}: "
                          "lambda0 * K_j must be finite")
    return model, resid, r_n


def _moment_weights(resid: np.ndarray, r_n: float, m: int) -> np.ndarray:
    """w_j = 1/(1 + |r_j / r_n|**m) for the terminal residual ``r_n``; a
    ratio whose power overflows gets its limit weight 0."""
    if r_n == 0.0:
        raise DegenerateNormalizationError(
            "lambda0 fits the terminal sample exactly; perturb lambda0"
        )
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.abs(resid / r_n) ** m)


def _delta(resid: np.ndarray, r_n: float, m: int) -> float:
    """sum_j (w_j * r_j)**2 at order m; 0 on an exact fit (every r_j zero),
    inf where the sum overflows."""
    if np.all(resid == 0.0):
        return 0.0
    with np.errstate(over="ignore"):
        return float(np.sum((_moment_weights(resid, r_n, m) * resid) ** 2))


def _m_scan(samples: KernelSamples, segments: Spline, cfg: WeightConfig, t_eval,
            m_range) -> tuple[np.ndarray, np.ndarray, float, int, float]:
    """The pass and the m-scan over it: (model, residuals, r_n, m, delta), m
    the first order of least delta; DomainError if that delta is not finite.
    The orders are compared on the residuals over a power of two near the
    largest, exactly rescaled so that no square over- or underflows."""
    orders = [_check_order(m) for m in sorted(m_range)]
    if not orders:
        raise DomainError("m_range must be nonempty")
    model, resid, r_n = _stage1(samples, segments, cfg.lambda0, t_eval)
    k = math.frexp(np.max(np.abs(resid)))[1]
    unit, unit_n = np.ldexp(resid, -k), math.ldexp(r_n, -k)
    deltas = [_delta(unit, unit_n, m) for m in orders]
    best = int(np.argmin(deltas))
    try:
        delta = math.ldexp(deltas[best], 2 * k)
    except OverflowError:
        delta = math.inf
    if not delta < math.inf:
        raise DomainError(
            f"the weighted residuals overflow: delta is not finite at any m in "
            f"{orders} (largest |r_j| {np.max(np.abs(resid)):.3g})")
    return model, resid, r_n, orders[best], delta


def _scale(values: np.ndarray, model: np.ndarray, w2) -> float:
    """The weighted least-squares scale sum(values*model*w2)/sum(model**2*w2)."""
    denom = float(np.sum(model ** 2 * w2))
    if denom == 0.0:
        raise DegenerateDesignError(
            "all weighted model values vanish; scale is undefined"
        )
    return float(np.sum(values * model * w2)) / denom


def _gamma_scale(values: np.ndarray, model: np.ndarray, resid: np.ndarray) -> float:
    """``_scale`` with the reciprocal-residual weights 1/r_j**2, on the
    residuals over a power of two near the smallest and the values and model
    over one near the largest model value: the same scale to the last bit,
    and no square over- or underflows."""
    zero = np.nonzero(resid == 0.0)[0]
    if zero.size:
        raise PoleError(
            "residual is exactly zero; perturb lambda0 or drop the sample",
            sample_index=int(zero[0]) + 1,
        )
    e = math.frexp(np.min(np.abs(resid)))[1]
    with np.errstate(over="ignore"):  # a residual that overflows weighs its limit 0
        w2 = 1.0 / np.ldexp(resid, -e) ** 2
    k = -math.frexp(np.max(np.abs(model)))[1]
    return _scale(np.ldexp(values, k), np.ldexp(model, k), w2)


def stage1_weights(samples: KernelSamples, segments: Spline,
                   cfg: WeightConfig, t_eval) -> np.ndarray:
    """Moment weights w_j = 1/(1 + |r_j / r_terminal|**m), each in (0, 1].

    w_j equals 1 exactly when the sample residual vanishes and falls toward
    0 as the model value (hence the residual) grows without bound.
    """
    _, resid, r_n = _stage1(samples, segments, cfg.lambda0, t_eval)
    return _moment_weights(resid, r_n, cfg.m)


def select_moment_order(samples: KernelSamples, segments: Spline,
                        cfg: WeightConfig, t_eval,
                        m_range=DEFAULT_M_RANGE) -> int:
    """The m in range minimizing delta; ties break toward the smallest m.

    The residuals are computed once; each order m only reweights them.
    """
    return _m_scan(samples, segments, cfg, t_eval, m_range)[3]


def omega(samples: KernelSamples, segments: Spline,
          weights: np.ndarray, lam: float, t_eval) -> float:
    """The residual functional sum_j {w_j*[K(t_j) - lam*K_j(t_eval_j)]}**2."""
    _, resid, _ = _stage1(samples, segments, lam, t_eval, weights)
    return float(np.sum((weights * resid) ** 2))


def lambda_closed_form(samples: KernelSamples, segments: Spline,
                       weights: np.ndarray, t_eval) -> float:
    """Minimizer of the quadratic lam -> omega(lam) for fixed weights."""
    model, _, _ = _stage1(samples, segments, 1.0, t_eval, weights)  # any lambda0 does
    return _scale(samples.values, model, np.asarray(weights, dtype=float) ** 2)


def lambda_gamma_form(samples: KernelSamples, segments: Spline,
                      cfg: WeightConfig, t_eval) -> float:
    """Closed-form scale with reciprocal-residual weights.

    Substituting w_j = sqrt(gamma)/|r_j| into the closed form makes gamma a
    common factor of numerator and denominator, so it cancels exactly and
    never enters the arithmetic. Evaluated at the knots of a self-fitted
    spline every term ratio is K(t_j)/K(t_j), hence the value is
    identically 1.
    """
    model, resid, _ = _stage1(samples, segments, cfg.lambda0, t_eval)
    return _gamma_scale(samples.values, model, resid)


def eta(spline: Spline, sigma: float, pl: PowerLaw, lambda_hat: float):
    """eta_j = (sigma/H) * (1 + lambda_hat * integral_0^{t_j} K_j), per knot."""
    _check_positive("sigma", sigma)
    value = sigma / pl.H * (1.0 + lambda_hat * integrate_segment_from_zero(spline))
    bad = np.flatnonzero(~(np.asarray(value) > 0.0))  # NaN fails too
    if bad.size:
        j = bad[0]
        raise InfeasibleEtaError(
            f"eta = {np.ravel(value)[j]} at knot t = {np.ravel(spline.t)[j]}; "
            "the exponent root problem requires eta > 0"
        )
    return value


def _lambert_w0(z: np.ndarray) -> np.ndarray:
    """Principal branch W0 of the Lambert W function on z > -1/e.

    Halley's iteration on w*exp(w) = z (Corless et al., "On the Lambert W
    function", 1996), started from the branch-point series below z = 0.5
    and from the log asymptote above. It stops once every step is at
    rounding level, scaled by the condition number 1/(1 + W) that grows
    toward the branch point. A step writes into ``w`` and three work arrays,
    ``a``, ``b`` and ``step``; it allocates only its convergence test.
    """
    p = np.sqrt(np.maximum(2.0 * (math.e * np.minimum(z, 0.5) + 1.0), 0.0))
    w = p * (1.0 - p / 3.0 + 11.0 / 72.0 * p * p) - 1.0
    large = z >= 0.5
    lz = np.log(np.maximum(z[large], math.e))
    w[large] = lz - np.log(lz) + np.log(lz) / lz
    a, b, step = p, np.empty_like(w), np.empty_like(w)
    for _ in range(W0_MAX_ITER):
        # step = (w - z*exp(-w)) / (w + 1), the Newton step
        np.multiply(z, np.exp(np.negative(w, out=a), out=a), out=a)
        np.divide(np.subtract(w, a, out=a), np.add(w, 1.0, out=b), out=step)
        # step /= 1 - 0.5*(w + 2)/(w + 1)*step, Halley's correction
        np.divide(np.multiply(0.5, np.add(w, 2.0, out=a), out=a), b, out=a)
        step /= np.subtract(1.0, np.multiply(a, step, out=a), out=a)
        w -= step
        # converged where |step| <= W0_STEP_TOL*(1 + 1/|w + 1|)*|w|
        np.divide(1.0, np.abs(np.add(w, 1.0, out=a), out=a), out=a)
        np.multiply(W0_STEP_TOL, np.add(1.0, a, out=a), out=a)
        a *= np.abs(w, out=b)
        if np.all(np.abs(step, out=b) <= a):
            return w
    raise ConvergenceError(
        "Lambert W iteration for the exponent roots did not converge",
        last_term=float(np.nanmax(np.abs(step))),
    )


def _exponent_roots(eps: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Smaller positive root of eps_i**q = eta_j*q in row i, column j; NaN if none."""
    log_eps = np.log(eps)[:, None]
    z = -log_eps / etas
    # The certificate holds only where ln(eta/ln eps) lies within 2e-10 of
    # 1, that is within 2e-10 (relative) of the branch point z = -1/e.
    near = (np.abs(math.e * z + 1.0) <= 1e-6) & (log_eps > 0.0)
    solve = (z >= -1.0 / math.e) & (log_eps != 0.0)
    if not near.any() and solve.all():  # no pair to mask: W0 on the whole grid
        return _lambert_w0(z) / -log_eps
    log_eps, etas = np.broadcast_arrays(log_eps, etas)
    q = np.full(z.shape, np.nan)
    np.divide(1.0, etas, out=q, where=log_eps == 0.0)
    L, et = log_eps[near], etas[near]
    q_min = np.log(et / L) / L
    f_min = np.broadcast_to(eps[:, None], z.shape)[near] ** q_min - et * q_min
    tangent = np.abs(f_min) <= Q_RESIDUAL_RTOL * np.maximum(1.0, et * q_min)
    q[near] = np.where(tangent, q_min, np.nan)
    near[near] = tangent
    solve &= ~near
    z = z[solve]  # frees the full grid before the iteration
    q[solve] = -_lambert_w0(z) / log_eps[solve]
    return q


def solve_q(eps: float, eta_j: float, q_bar: float) -> float:
    """Root of eps**q - eta*q = 0 in (0, q_bar]: the smaller one when eps > 1.

    A one-pair call of the exponent stage of ``identify``.
    """
    _check_positive("strain level", eps)
    _check_positive("eta", eta_j, InfeasibleEtaError)
    _check_positive("q_bar", q_bar)
    q = float(_exponent_roots(np.array([eps]), np.array([eta_j]))[0, 0])
    if not q <= q_bar:
        raise NoRootBracketError(f"no exponent root in (0, q_bar = {q_bar}]")
    return q


def identify(samples: KernelSamples, segments: Spline,
             isochrones: IsochroneDataset | None, cfg: WeightConfig,
             sigma: float, pl0: PowerLaw, *,
             strain_levels=None, at_knots: bool = False,
             m_range=DEFAULT_M_RANGE,
             model_segments: bool = False) -> IdentificationResult:
    """Run both estimation stages and reduce the exponent roots.

    Strain levels for the exponent stage come from ``isochrones`` or from
    ``strain_levels``, not both (a DomainError); with neither, the exponent
    stage is skipped and q_hat is NaN. Every strain level must be finite
    and > 0. ``segments`` sit at the sample times, one per sample.

    ``model_segments`` declares that ``segments`` were fitted to an
    independent unit-intensity kernel model rather than to the samples:
    then the scale formula output is itself the intensity estimate.
    On self-fitted segments it is a multiplicative correction to lambda0
    (identically 1 at knot evaluation, so lambda_hat = lambda0).
    """
    if isochrones is not None:
        if strain_levels is not None:
            raise DomainError("give strain levels or isochrones, not both")
        strain_levels = isochrones.strain_levels
    eps_levels = None if strain_levels is None else np.asarray(strain_levels, float)
    if eps_levels is not None:
        _check_positive("strain levels", eps_levels)

    t_eval = segment_eval_times(samples, at_knots=at_knots)
    model, resid, r_n, m_sel, delta = _m_scan(samples, segments, cfg, t_eval, m_range)
    weights = _moment_weights(resid, r_n, m_sel)
    ratio = _gamma_scale(samples.values, model, resid)
    lambda_hat = ratio if model_segments else cfg.lambda0 * ratio
    diagnostics = {"lambda_ratio": ratio, "model_values": model, "residuals": resid}

    q_hat = math.nan
    if eps_levels is not None:
        etas = eta(segments, sigma, pl0, lambda_hat)
        q = _exponent_roots(eps_levels, etas)
        failed = np.isnan(q)
        if failed.all():
            raise NoRootError(
                "every (strain level, knot) pair failed to bracket an "
                "exponent root"
            )
        roots = q[~failed]
        q_hat = float(np.median(roots))
        rows, cols = np.nonzero(failed)
        diagnostics["q_roots"] = roots
        diagnostics["q_failures"] = list(zip(
            (rows + 1).tolist(), (cols + 1).tolist(),
            itertools.repeat(NoRootBracketError.__name__),
        ))
        diagnostics["etas"] = etas

    return IdentificationResult(
        lambda_hat=lambda_hat,
        q_hat=q_hat,
        delta=delta,
        m_selected=m_sel,
        weights=weights,
        diagnostics=diagnostics,
    )
