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

When the segments are fitted to the samples themselves the scale estimate
is a multiplicative correction to lambda0; when they come from an
independent unit-normalized kernel model the estimate IS the intensity.
``identify`` distinguishes the two with ``model_segments``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

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
    t_star: float | None = None

    def __post_init__(self):
        if self.lambda0 <= 0.0 or self.q0 <= 0.0:
            raise DomainError("lambda0 and q0 must be > 0")
        if not isinstance(self.m, int) or self.m < 2:
            raise DomainError(f"m must be an integer >= 2, got {self.m}")
        if self.gamma <= 0.0:
            raise DomainError(f"gamma must be > 0, got {self.gamma}")


@dataclass
class IdentificationResult:
    """Estimates plus the per-sample and per-pair diagnostics."""

    lambda_hat: float
    q_hat: float
    delta: float
    m_selected: int
    weights: np.ndarray
    diagnostics: dict = field(default_factory=dict)


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


def _residuals(samples: KernelSamples, segments: Spline,
               cfg: WeightConfig, t_eval) -> tuple[np.ndarray, np.ndarray]:
    if len(segments) != len(samples):
        raise DomainError("need one segment per sample")
    model = segments.value(t_eval)
    return samples.values - cfg.lambda0 * model, model


def _terminal_residual(samples: KernelSamples, segments: Spline,
                       cfg: WeightConfig) -> float:
    """Normalizing residual at the terminal time t_star."""
    t_star = cfg.t_star if cfg.t_star is not None else samples.t_star
    return float(samples.values[-1] - cfg.lambda0 * segments[-1].value(t_star))


def _moment_weights(resid: np.ndarray, denom: float, m: int) -> np.ndarray:
    """w_j = 1/(1 + |r_j / denom|**m) for the terminal residual ``denom``."""
    if denom == 0.0:
        raise DegenerateNormalizationError(
            "lambda0 fits the terminal sample exactly; perturb lambda0"
        )
    return 1.0 / (1.0 + np.abs(resid / denom) ** m)


def stage1_weights(samples: KernelSamples, segments: Spline,
                   cfg: WeightConfig, t_eval) -> np.ndarray:
    """Moment weights w_j = 1/(1 + |r_j / r_terminal|**m), each in (0, 1].

    w_j equals 1 exactly when the sample residual vanishes and falls toward
    0 as the model value (hence the residual) grows without bound.
    """
    resid, _ = _residuals(samples, segments, cfg, t_eval)
    return _moment_weights(resid, _terminal_residual(samples, segments, cfg), cfg.m)


def residual_delta(samples: KernelSamples, segments: Spline,
                   cfg: WeightConfig, t_eval) -> float:
    """Weighted sum of squares sum_j (w_j * r_j)**2 at the configured m.

    An exact fit (every residual zero) short-circuits to 0 even though the
    weight normalization is then degenerate.
    """
    resid, _ = _residuals(samples, segments, cfg, t_eval)
    if np.all(resid == 0.0):
        return 0.0
    w = _moment_weights(resid, _terminal_residual(samples, segments, cfg), cfg.m)
    return float(np.sum((w * resid) ** 2))


def select_moment_order(samples: KernelSamples, segments: Spline,
                        cfg: WeightConfig, t_eval,
                        m_range=DEFAULT_M_RANGE) -> int:
    """The m in range minimizing delta; ties break toward the smallest m.

    The residuals are computed once; each order m only reweights them.
    """
    orders = [replace(cfg, m=m).m for m in sorted(m_range)]  # validates each m
    if not orders:
        raise DomainError("m_range must be nonempty")
    resid, _ = _residuals(samples, segments, cfg, t_eval)
    if np.all(resid == 0.0):
        return orders[0]  # an exact fit has delta 0 at every m
    denom = _terminal_residual(samples, segments, cfg)
    best_m, best_delta = None, math.inf
    for m in orders:
        d = float(np.sum((_moment_weights(resid, denom, m) * resid) ** 2))
        if d < best_delta:
            best_m, best_delta = m, d
    return best_m


def omega(samples: KernelSamples, segments: Spline,
          weights: np.ndarray, lam: float, t_eval) -> float:
    """The residual functional sum_j {w_j*[K(t_j) - lam*K_j(t_eval_j)]}**2."""
    model = segments.value(t_eval)
    return float(np.sum((weights * (samples.values - lam * model)) ** 2))


def lambda_closed_form(samples: KernelSamples, segments: Spline,
                       weights: np.ndarray, t_eval) -> float:
    """Minimizer of the quadratic lam -> omega(lam) for fixed weights."""
    model = segments.value(t_eval)
    w2 = np.asarray(weights, dtype=float) ** 2
    denom = float(np.sum(w2 * model ** 2))
    if denom == 0.0:
        raise DegenerateDesignError(
            "all weighted model values vanish; scale is undefined"
        )
    return float(np.sum(w2 * samples.values * model)) / denom


def lambda_gamma_form(samples: KernelSamples, segments: Spline,
                      cfg: WeightConfig, t_eval) -> float:
    """Closed-form scale with reciprocal-residual weights.

    Substituting w_j = sqrt(gamma)/|r_j| into the closed form makes gamma a
    common factor of numerator and denominator, so it cancels exactly and
    never enters the arithmetic. Evaluated at the knots of a self-fitted
    spline every term ratio is K(t_j)/K(t_j), hence the value is
    identically 1.
    """
    resid, model = _residuals(samples, segments, cfg, t_eval)
    zero = np.nonzero(resid == 0.0)[0]
    if zero.size:
        raise PoleError(
            "residual is exactly zero; perturb lambda0 or drop the sample",
            sample_index=int(zero[0]) + 1,
        )
    inv = 1.0 / np.abs(resid) ** 2
    denom = float(np.sum(model ** 2 * inv))
    if denom == 0.0:
        raise DegenerateDesignError(
            "all weighted model values vanish; scale is undefined"
        )
    return float(np.sum(samples.values * model * inv)) / denom


def eta(spline: Spline, sigma: float, pl: PowerLaw, lambda_hat: float):
    """eta_j = (sigma/H) * (1 + lambda_hat * integral_0^{t_j} K_j), per knot."""
    if sigma <= 0.0:
        raise DomainError(f"sigma must be > 0, got {sigma}")
    value = sigma / pl.H * (1.0 + lambda_hat * integrate_segment_from_zero(spline))
    bad = np.flatnonzero(value <= 0.0)
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
    toward the branch point.
    """
    p = np.sqrt(np.maximum(2.0 * (math.e * np.minimum(z, 0.5) + 1.0), 0.0))
    w = p * (1.0 - p / 3.0 + 11.0 / 72.0 * p * p) - 1.0
    del p  # the iteration keeps as few full-size arrays alive as it can
    large = z >= 0.5
    lz = np.log(np.maximum(z[large], math.e))
    w[large] = lz - np.log(lz) + np.log(lz) / lz
    for _ in range(W0_MAX_ITER):
        step = (w - z * np.exp(-w)) / (w + 1.0)  # Newton step
        step /= 1.0 - 0.5 * (w + 2.0) / (w + 1.0) * step
        w -= step
        cond = 1.0 + 1.0 / np.abs(w + 1.0)
        if np.all(np.abs(step) <= W0_STEP_TOL * cond * np.abs(w)):
            return w
    raise ConvergenceError(
        "Lambert W iteration for the exponent roots did not converge",
        last_term=float(np.nanmax(np.abs(step))),
    )


def _exponent_roots(eps: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Smaller positive root of eps_i**q = eta_j*q in row i, column j; NaN if none."""
    shape = (len(eps), len(etas))
    log_eps = np.broadcast_to(np.log(eps)[:, None], shape)
    etas = np.broadcast_to(etas, shape)
    z = -log_eps / etas
    q = np.full(shape, np.nan)
    np.divide(1.0, etas, out=q, where=log_eps == 0.0)
    # The certificate holds only where ln(eta/ln eps) lies within 2e-10 of
    # 1, that is within 2e-10 (relative) of the branch point z = -1/e.
    near = (np.abs(math.e * z + 1.0) <= 1e-6) & (log_eps > 0.0)
    L, et = log_eps[near], etas[near]
    q_min = np.log(et / L) / L
    f_min = np.broadcast_to(eps[:, None], shape)[near] ** q_min - et * q_min
    tangent = np.abs(f_min) <= Q_RESIDUAL_RTOL * np.maximum(1.0, et * q_min)
    q[near] = np.where(tangent, q_min, np.nan)
    near[near] = tangent
    solve = (z >= -1.0 / math.e) & (log_eps != 0.0) & ~near
    z = z[solve]  # frees the full grid before the iteration
    q[solve] = -_lambert_w0(z) / log_eps[solve]
    return q


def solve_q(eps: float, eta_j: float, q_bar: float) -> float:
    """Root of eps**q - eta*q = 0 in (0, q_bar]: the smaller one when eps > 1.

    A one-pair call of the exponent stage of ``identify``.
    """
    if eps <= 0.0:
        raise DomainError(f"strain level must be > 0, got {eps}")
    if eta_j <= 0.0:
        raise InfeasibleEtaError(f"eta must be > 0, got {eta_j}")
    if q_bar <= 0.0:
        raise DomainError(f"q_bar must be > 0, got {q_bar}")
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

    Strain levels for the exponent stage come from ``isochrones`` when
    given, else from ``strain_levels``; with neither, the exponent stage is
    skipped and q_hat is NaN. Every strain level must be finite and > 0.

    ``model_segments`` declares that ``segments`` were fitted to an
    independent unit-intensity kernel model rather than to the samples:
    then the scale formula output is itself the intensity estimate.
    On self-fitted segments it is a multiplicative correction to lambda0
    (identically 1 at knot evaluation, so lambda_hat = lambda0).
    """
    if isochrones is not None:
        strain_levels = isochrones.strain_levels
    eps_levels = None if strain_levels is None else np.asarray(strain_levels, float)
    if eps_levels is not None:
        bad = eps_levels[~(np.isfinite(eps_levels) & (eps_levels > 0.0))]
        if bad.size:
            raise DomainError(f"strain levels must be finite and > 0, got {bad[0]}")

    t_eval = segment_eval_times(samples, at_knots=at_knots)
    m_sel = select_moment_order(samples, segments, cfg, t_eval, m_range)
    cfg_m = replace(cfg, m=m_sel)
    weights = stage1_weights(samples, segments, cfg_m, t_eval)
    delta = residual_delta(samples, segments, cfg_m, t_eval)
    ratio = lambda_gamma_form(samples, segments, cfg_m, t_eval)
    lambda_hat = ratio if model_segments else cfg.lambda0 * ratio

    model = segments.value(t_eval)
    diagnostics = {
        "lambda_ratio": ratio,
        "model_values": model,
        "residuals": samples.values - cfg.lambda0 * model,
        "eval_times": t_eval,
    }

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
