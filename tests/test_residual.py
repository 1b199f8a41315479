"""Weighted-residual estimator: weights, scale forms, exponent roots, identify."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import viscoident as v
from viscoident import (
    KernelParams,
    KernelSamples,
    PowerLaw,
    Spline,
    WeightConfig,
    eta,
    fit_kernel_spline,
    identify,
    lambda_closed_form,
    lambda_gamma_form,
    omega,
    segment_eval_times,
    select_moment_order,
    solve_q,
    stage1_weights,
)
from viscoident.errors import (
    DegenerateDesignError,
    DegenerateNormalizationError,
    DomainError,
    InfeasibleEtaError,
    NoRootBracketError,
    NoRootError,
    PoleError,
    ViscoidentError,
)
from viscoident.kernels import creep_kernel
from viscoident.residual import (Q_RESIDUAL_RTOL, _delta, _exponent_roots,
                                 _lambert_w0, _stage1)
from viscoident.spline import extract_creep_kernel_samples

# bisection oracle, frozen: root of 0.5**q = q
Q_HALF_ROOT = 0.64118574450498598449


@st.composite
def sample_sets(draw, min_n=2, max_n=10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    steps = draw(st.lists(st.floats(min_value=0.1, max_value=5.0),
                          min_size=n, max_size=n))
    values = draw(st.lists(st.floats(min_value=0.5, max_value=1000.0),
                           min_size=n, max_size=n))
    return KernelSamples(np.cumsum(steps), np.array(values))


def scaled_pair(samples, data_scale=2.0):
    """Samples scaled away from a reference spline fitted to the originals."""
    data = KernelSamples(samples.times, samples.values * data_scale)
    return data, fit_kernel_spline(samples)


def stage1_delta(samples, segments, cfg, t_eval):
    """The weighted residual delta at ``cfg.m``: the estimator's one pass
    over the spline, then its sum of squares at that order."""
    _, resid, r_n = _stage1(samples, segments, cfg.lambda0, t_eval)
    return _delta(resid, r_n, cfg.m)


def scalar_exponent_stage(eps_levels, etas):
    """Pair-by-pair bisection reference for the exponent stage.

    For eps > 1 the bracket ends at the convex minimum q_min; a pair whose
    residual there is positive beyond the certificate has no root, one
    within the certificate is a tangency returning q_min.
    """
    roots, failures = [], []
    for i, eps in enumerate(eps_levels, start=1):
        for j, et in enumerate(etas, start=1):
            def f(q):
                return eps ** q - et * q
            hi = 1.0
            if eps > 1.0:
                hi = math.log(et / math.log(eps)) / math.log(eps)
                if hi > 0.0 and abs(f(hi)) <= Q_RESIDUAL_RTOL * max(1.0, et * hi):
                    roots.append(hi)
                    continue
                if hi <= 0.0 or f(hi) > 0.0:
                    failures.append((i, j, "NoRootBracketError"))
                    continue
            while f(hi) >= 0.0:
                hi *= 2.0
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if f(mid) > 0.0:
                    lo = mid
                else:
                    hi = mid
            roots.append(0.5 * (lo + hi))
    return np.array(roots), failures


class TestEvalTimes:
    def test_midpoints_with_terminal_knot(self, table1):
        t_eval = segment_eval_times(table1)
        assert t_eval[0] == 2.5
        assert t_eval[1] == 6.0
        assert t_eval[-1] == 1050.0

    def test_knot_mode(self, table1):
        assert np.array_equal(segment_eval_times(table1, at_knots=True),
                              table1.times)


class TestStage1Weights:
    def test_formula_cases(self):
        # data (2,3,4) against model knot values (1, 0.5, 1.5) at lambda0=2
        # gives residuals (0, 2, 1); the terminal residual normalizes
        data = KernelSamples(np.array([1.0, 2.0, 3.0]), np.array([2.0, 3.0, 4.0]))
        ref = KernelSamples(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 1.5]))
        segs = fit_kernel_spline(ref)
        cfg = WeightConfig(lambda0=2.0, q0=1.0, m=2)
        w = stage1_weights(data, segs, cfg, segment_eval_times(data, at_knots=True))
        assert w[0] == 1.0          # zero residual
        assert w[1] == pytest.approx(1.0 / (1.0 + 4.0), rel=1e-14)  # ratio 2
        assert w[2] == 0.5          # ratio 1

    def test_degenerate_normalization(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=1.0, q0=1.0, m=2)
        with pytest.raises(DegenerateNormalizationError):
            stage1_weights(table1, table1_segments, cfg,
                           segment_eval_times(table1, at_knots=True))

    @given(sample_sets(), st.floats(min_value=0.2, max_value=3.0),
           st.integers(min_value=2, max_value=8))
    def test_bounds(self, samples, lambda0, m):
        assume(abs(lambda0 - 1.0) > 1e-3)
        segs = fit_kernel_spline(samples)
        cfg = WeightConfig(lambda0=lambda0, q0=1.0, m=m)
        t_eval = segment_eval_times(samples, at_knots=True)
        w = stage1_weights(samples, segs, cfg, t_eval)
        resid = samples.values * (1.0 - lambda0)
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        # w = 1 exactly iff the residual vanishes, up to the resolution of
        # the moment ratio (tiny ratios underflow against 1)
        ratio_pow = np.abs(resid / resid[-1]) ** m
        representable = ratio_pow >= 1e-12
        assert np.all(w[resid == 0.0] == 1.0)
        assert np.all(w[(resid != 0.0) & representable] < 1.0)


class TestResidualDelta:
    def test_exact_fit_gives_zero(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=1.0, q0=1.0, m=2)
        t_eval = segment_eval_times(table1, at_knots=True)
        assert stage1_delta(table1, table1_segments, cfg, t_eval) == 0.0

    def test_single_sample(self):
        data = KernelSamples(np.array([2.0]), np.array([5.0]))
        seg = v.Spline(np.array([2.0]), np.array([2.0]), np.zeros(1), np.zeros(1))
        cfg = WeightConfig(lambda0=1.0, q0=1.0, m=3)
        # residual 3, terminal residual 3, weight 1/2 -> delta = 2.25
        assert stage1_delta(data, seg, cfg, np.array([2.0])) == pytest.approx(
            2.25, rel=1e-14
        )

    def test_table1_direct_summation_oracle(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=0.9, q0=1.0, m=2)
        knots = segment_eval_times(table1, at_knots=True)
        # independent plain-python summation
        K = [float(x) for x in table1.values]
        resid = [k - 0.9 * k for k in K]
        denom = resid[-1]
        expected = sum(
            ((1.0 / (1.0 + abs(r / denom) ** 2)) * r) ** 2 for r in resid
        )
        got = stage1_delta(table1, table1_segments, cfg, knots)
        assert got == pytest.approx(expected, rel=1e-12)


class TestMomentOrder:
    def test_exhaustive_oracle(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=0.9, q0=1.0, m=2)
        knots = segment_eval_times(table1, at_knots=True)
        deltas = {
            m: stage1_delta(table1, table1_segments, replace(cfg, m=m), knots)
            for m in (2, 3, 4)
        }
        expected = min(sorted(deltas), key=lambda m: deltas[m])
        got = select_moment_order(table1, table1_segments, cfg, knots, (2, 3, 4))
        assert got == expected
        # the normalized residual ratios exceed 1 here, so delta decreases in m
        assert got == 4

    def test_single_element_range(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=0.9, q0=1.0, m=2)
        knots = segment_eval_times(table1, at_knots=True)
        assert select_moment_order(table1, table1_segments, cfg, knots, (5,)) == 5


class TestLambdaClosedForm:
    def test_exact_fit(self, table1, table1_segments):
        knots = segment_eval_times(table1, at_knots=True)
        w = np.ones(len(table1))
        assert lambda_closed_form(table1, table1_segments, w, knots) == 1.0

    def test_uniform_scaling(self, table1):
        data, segs = scaled_pair(table1, 2.0)
        knots = segment_eval_times(data, at_knots=True)
        w = np.ones(len(data))
        assert lambda_closed_form(data, segs, w, knots) == pytest.approx(
            2.0, rel=1e-14
        )

    def test_two_sample_hand_value(self):
        data = KernelSamples(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        ref = KernelSamples(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        segs = fit_kernel_spline(ref)
        w = np.ones(2)
        got = lambda_closed_form(data, segs, w, np.array([1.0, 2.0]))
        assert got == pytest.approx(11.0 / 5.0, rel=1e-14)

    def test_degenerate_design(self):
        data = KernelSamples(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        segs = v.Spline(np.array([1.0, 2.0]), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(DegenerateDesignError):
            lambda_closed_form(data, segs, np.ones(2), np.array([1.0, 2.0]))

    @given(sample_sets(min_n=3), st.floats(min_value=0.2, max_value=3.0))
    def test_quadratic_optimality(self, samples, lambda0):
        assume(abs(lambda0 - 1.0) > 1e-3)
        segs = fit_kernel_spline(samples)
        cfg = WeightConfig(lambda0=lambda0, q0=1.0, m=2)
        t_eval = segment_eval_times(samples)
        w = stage1_weights(samples, segs, cfg, t_eval)
        lam = lambda_closed_form(samples, segs, w, t_eval)
        best = omega(samples, segs, w, lam, t_eval)
        for h in (1e-3, 1e-2):
            step = h * abs(lam)
            assert omega(samples, segs, w, lam + step, t_eval) >= best
            assert omega(samples, segs, w, lam - step, t_eval) >= best

    @given(sample_sets(min_n=3), st.floats(min_value=0.2, max_value=3.0))
    def test_delta_never_increases_on_refit(self, samples, lambda0):
        assume(abs(lambda0 - 1.0) > 1e-3)
        segs = fit_kernel_spline(samples)
        cfg = WeightConfig(lambda0=lambda0, q0=1.0, m=2)
        t_eval = segment_eval_times(samples)
        w = stage1_weights(samples, segs, cfg, t_eval)
        lam = lambda_closed_form(samples, segs, w, t_eval)
        assert omega(samples, segs, w, lam, t_eval) <= omega(
            samples, segs, w, cfg.lambda0, t_eval
        ) + 1e-12


class TestLambdaGammaForm:
    def test_knot_identity_on_reference_table(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=0.9, q0=1.0, m=2)
        knots = segment_eval_times(table1, at_knots=True)
        assert lambda_gamma_form(table1, table1_segments, cfg, knots) == 1.0

    def test_gamma_invariance(self, table1, table1_segments):
        knots = segment_eval_times(table1, at_knots=True)
        results = {
            g: lambda_gamma_form(
                table1, table1_segments,
                WeightConfig(lambda0=0.9, q0=1.0, m=2, gamma=g), knots
            )
            for g in (1e-6, 1e-2)
        }
        vals = list(results.values())
        assert vals[0] == vals[1]

    def test_two_sample_hand_value(self):
        # K=(3,4), model=(1,2), lambda0=0.5: residuals (2.5, 3)
        # -> (3/6.25 + 8/9) / (1/6.25 + 4/9) = 77/34
        data = KernelSamples(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        ref = KernelSamples(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        segs = fit_kernel_spline(ref)
        cfg = WeightConfig(lambda0=0.5, q0=1.0, m=2)
        got = lambda_gamma_form(data, segs, cfg, np.array([1.0, 2.0]))
        assert got == pytest.approx(77.0 / 34.0, rel=1e-14)

    def test_pole_named(self):
        data = KernelSamples(np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        ref = KernelSamples(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        segs = fit_kernel_spline(ref)
        cfg = WeightConfig(lambda0=2.0, q0=1.0, m=2)
        with pytest.raises(PoleError) as err:
            lambda_gamma_form(data, segs, cfg, np.array([1.0, 2.0]))
        assert err.value.sample_index == 1

    @given(sample_sets(), st.floats(min_value=0.2, max_value=3.0))
    def test_knot_identity_property(self, samples, lambda0):
        assume(abs(lambda0 - 1.0) > 1e-6)
        segs = fit_kernel_spline(samples)
        cfg = WeightConfig(lambda0=lambda0, q0=1.0, m=2)
        knots = segment_eval_times(samples, at_knots=True)
        assert lambda_gamma_form(samples, segs, cfg, knots) == pytest.approx(
            1.0, abs=1e-12
        )


class TestEta:
    def test_zero_knot(self):
        seg = v.Spline(0.0, 3750.0, 0.0, 0.0)
        assert eta(seg, 2.0, PowerLaw(4.0, 1.0), 1.0) == 0.5

    def test_unit_case(self):
        seg = v.Spline(5.0, 3500.0, -100.0, -10.0)
        assert eta(seg, 3.0, PowerLaw(3.0, 1.0), 0.0) == 1.0

    def test_reference_row2_value(self, table1_segments):
        got = eta(table1_segments[1], 1e-4, PowerLaw(1.0, 1.0), 1.0)
        assert got == pytest.approx(1e-4 * (1.0 + 55000.0 / 3.0), rel=1e-12)
        assert got == pytest.approx(1.83343333, abs=1e-7)

    def test_infeasible(self, table1_segments):
        with pytest.raises(InfeasibleEtaError):
            eta(table1_segments[1], 1.0, PowerLaw(1.0, 1.0), -1.0)
        for sigma in (0.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="^sigma must"):
                eta(table1_segments[1], sigma, PowerLaw(1.0, 1.0), 1.0)

    def test_nan_intensity_names_the_knot(self, table1_segments):
        with pytest.raises(InfeasibleEtaError, match="^eta = nan at knot t = 0.0;"):
            eta(table1_segments, 1.0, PowerLaw(1.0, 1.0), math.nan)


class TestSolveQ:
    def test_linear_case(self):
        assert solve_q(1.0, 2.0, 2.0) == pytest.approx(0.5, abs=1e-10)

    def test_tangency_case(self):
        assert solve_q(math.e, math.e, 3.0) == pytest.approx(1.0, abs=1e-10)

    def test_transcendental_case_against_oracle(self):
        # independent bisection oracle
        lo, hi = 1e-6, 2.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if 0.5 ** mid - mid > 0.0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        got = solve_q(0.5, 1.0, 2.0)
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(Q_HALF_ROOT, abs=1e-9)

    def test_residual_certificate(self):
        for eps, et, qb in ((1.0, 2.0, 2.0), (math.e, math.e, 3.0), (0.5, 1.0, 2.0)):
            q = solve_q(eps, et, qb)
            assert abs(eps ** q - et * q) <= 1e-10 * max(1.0, et * q)

    def test_bracket_violation(self):
        with pytest.raises(NoRootBracketError):
            solve_q(2.0, 0.1, 1.0)

    def test_preconditions(self):
        with pytest.raises(DomainError):
            solve_q(-1.0, 1.0, 1.0)
        with pytest.raises(InfeasibleEtaError):
            solve_q(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            solve_q(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_arguments(self, value):
        with pytest.raises(DomainError, match="^strain level must be finite"):
            solve_q(value, 1.0, 2.0)
        with pytest.raises(InfeasibleEtaError, match="^eta must be finite"):
            solve_q(0.5, value, 2.0)
        with pytest.raises(DomainError, match="^q_bar must be finite"):
            solve_q(0.5, 1.0, value)

    @given(
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=20.0),
    )
    def test_sign_change_certificate(self, eps, et):
        # decreasing residual: a genuine crossing always exists
        root = solve_q(eps, et, 1e3)
        assert abs(eps ** root - et * root) <= 1e-10 * max(1.0, et * root)
        lo, hi = root * (1.0 - 1e-9), root * (1.0 + 1e-9)
        assert (eps ** lo - et * lo) > 0.0 > (eps ** hi - et * hi)

    def test_decreasing_case_root_past_guess(self):
        # 0.5**q = 0.01*q crosses far beyond q = 1
        root = solve_q(0.5, 0.01, 1e3)
        assert root > 1.0
        assert 0.5 ** (root * 0.99) > 0.01 * root * 0.99
        assert abs(0.5 ** root - 0.01 * root) <= 1e-10

    def test_convex_case_smaller_root(self):
        # 2**q = 3*q has roots near 0.458 and 3.313; the smaller is returned
        # even when q_bar lies past the larger
        q_min = math.log(3.0 / math.log(2.0)) / math.log(2.0)
        for q_bar in (q_min, 10.0):
            root = solve_q(2.0, 3.0, q_bar)
            assert 0.0 < root < q_min
            assert abs(2.0 ** root - 3.0 * root) <= 1e-10 * max(1.0, 3.0 * root)

    def test_no_root(self):
        with pytest.raises(NoRootBracketError):
            solve_q(1e6, 1.0, 1.0)


class TestExponentRoots:
    """The closed form against scipy's Lambert W as an oracle."""

    def test_against_scipy_lambertw(self):
        lambertw = pytest.importorskip("scipy.special").lambertw
        eps = np.concatenate([np.geomspace(0.05, 1e3, 41), [1.0, math.e]])
        etas = np.concatenate([np.geomspace(0.05, 20.0, 37), [math.e]])
        got = _exponent_roots(eps, etas)
        log_eps = np.log(eps)[:, None]
        z = -log_eps / etas
        with np.errstate(divide="ignore", invalid="ignore"):
            w = lambertw(z).real
            want = np.where(log_eps == 0.0, 1.0 / etas, -w / log_eps)
        has_root = z >= -1.0 / math.e
        tangent = (eps[:, None] == math.e) & (etas == math.e)
        assert np.array_equal(np.isnan(got), ~(has_root | tangent))
        # relative error within a few ulps times the condition number 1/(1+W)
        solved = has_root & ~tangent
        err = np.abs(got - want)[solved] / want[solved]
        assert np.all(err <= 1e-14 * (1.0 + 1.0 / np.abs(1.0 + w[solved])))
        assert np.all(got[:-1, -1][eps[:-1] == 1.0] == 1.0 / math.e)
        assert got[-1, -1] == 1.0

    def test_lambert_w0_near_branch_point_and_large_z(self):
        lambertw = pytest.importorskip("scipy.special").lambertw
        z = np.concatenate([-1.0 / math.e + np.geomspace(1e-12, 0.1, 50),
                            np.geomspace(1e-300, 1e300, 61)])
        w = _lambert_w0(z)
        want = lambertw(z).real
        assert np.all(np.abs(w - want) <= 1e-15 * np.abs(want) / np.abs(1.0 + want)
                      + 1e-15 * np.abs(want))

    def test_masked_pairs_leave_the_others_bitwise(self):
        # W0 stops when every step it is given is at rounding level, so a
        # pair without a root or at tangency must not reach it: appending
        # such pairs must not change the other roots by a single bit
        rng = np.random.default_rng(11)
        etas = np.sort(rng.uniform(0.5, 3.0, 40))
        eps = np.sort(rng.uniform(0.2, 1.15, 30))  # every z > -1/e
        base = _exponent_roots(eps, etas)
        assert not np.isnan(base).any()
        # ln(eps) = eta_max/e: tangent at the last knot and no root at the
        # others; the last level has no root at any knot
        more = np.concatenate([eps, [math.exp(etas[-1] / math.e),
                                     math.exp(10.0 * etas[-1])]])
        got = _exponent_roots(more, etas)
        assert np.array_equal(got[:-2].view(np.uint64), base.view(np.uint64))
        assert np.isnan(got[-2, :-1]).all() and np.isnan(got[-1]).all()
        assert got[-2, -1] == pytest.approx(math.e / etas[-1], rel=1e-9)

    def test_lambert_w0_matches_allocating_iteration(self):
        def allocating_w0(z):
            # the Halley loop as it read with one new array per operation
            p = np.sqrt(np.maximum(2.0 * (math.e * np.minimum(z, 0.5) + 1.0), 0.0))
            w = p * (1.0 - p / 3.0 + 11.0 / 72.0 * p * p) - 1.0
            large = z >= 0.5
            lz = np.log(np.maximum(z[large], math.e))
            w[large] = lz - np.log(lz) + np.log(lz) / lz
            while True:
                step = (w - z * np.exp(-w)) / (w + 1.0)
                step /= 1.0 - 0.5 * (w + 2.0) / (w + 1.0) * step
                w -= step
                cond = 1.0 + 1.0 / np.abs(w + 1.0)
                if np.all(np.abs(step) <= 4.0 * np.finfo(float).eps
                          * cond * np.abs(w)):
                    return w

        rng = np.random.default_rng(5)
        z = np.concatenate([
            rng.uniform(-1.0 / math.e, 1e3, 4000),
            -1.0 / math.e + np.geomspace(1e-14, 1e-2, 200),
            rng.uniform(-1.0 / math.e, 1.0, 4000),
        ])
        z = z[z > -1.0 / math.e]
        want = allocating_w0(z)
        for grid in (z, z.reshape(-1, 2)):
            assert np.array_equal(_lambert_w0(grid).ravel().view(np.uint64),
                                  want.view(np.uint64))

    def test_pilot_failure_set_matches_scalar_bisection(self):
        # scripts/roundtrip_pilot.py at horizon 0.05: the per-knot scheme's
        # bias leaves 168 pairs without a root
        from viscoident.pipeline import extract_creep_kernel_samples

        kp = KernelParams(0.5, 0.0, 0.8)
        pl = PowerLaw(1.0, 1.5)
        hist = v.simulate_creep(kp, pl, 1.0, np.linspace(0.0, 0.05, 64))
        samples = extract_creep_kernel_samples(hist, pl)
        model = KernelSamples(
            samples.times,
            np.array([creep_kernel(kp, t).value for t in samples.times]),
        )
        res = identify(
            samples, fit_kernel_spline(model), None,
            WeightConfig(lambda0=1.0, q0=1.0), sigma=1.0, pl0=pl,
            strain_levels=hist.values[1:], at_knots=True, model_segments=True,
        )
        roots, failures = scalar_exponent_stage(hist.values[1:],
                                                res.diagnostics["etas"])
        assert len(failures) == 168
        assert res.diagnostics["q_failures"] == failures
        assert np.allclose(res.diagnostics["q_roots"], roots, rtol=1e-12, atol=0)
        assert res.q_hat == pytest.approx(float(np.median(roots)), rel=1e-9)
        assert f"{res.q_hat:.9g}" == "1.69023509"


class TestIdentify:
    @staticmethod
    def exact_synthetic(lam=0.3, q=1.5, n=33):
        """Noise-free samples on the true-kernel scale plus matched strains.

        The window keeps the eta spread narrow enough that every
        (strain, knot) pair brackets a root, so the root matrix scatters
        symmetrically around its exact diagonal.
        """
        kp = KernelParams(0.5, 0.0, lam)
        pl = PowerLaw(1.0, q)
        times = np.linspace(0.2, 0.8, n)
        kernel = np.array([creep_kernel(kp, t).value for t in times])
        samples = KernelSamples(times, lam * kernel)
        segments = fit_kernel_spline(samples)
        etas = np.array([eta(s, 1.0, pl, lam) for s in segments])
        strains = np.array([v.phi0_inverse(pl, pl.H * e) for e in etas])
        return samples, segments, strains, pl

    def test_self_consistent_fixed_point(self):
        samples, segments, strains, pl = self.exact_synthetic()
        cfg = WeightConfig(lambda0=0.3, q0=1.5)
        res = identify(samples, segments, None, cfg, sigma=1.0, pl0=pl,
                       strain_levels=strains, at_knots=True)
        assert not res.diagnostics["q_failures"]
        assert abs(res.lambda_hat - 0.3) <= 1e-8
        assert abs(res.q_hat - 1.5) <= 1e-6
        assert res.diagnostics["lambda_ratio"] == pytest.approx(1.0, abs=1e-14)

    def test_knot_mode_ratio_is_one_on_any_data(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=0.9, q0=1.0)
        res = identify(table1, table1_segments, None, cfg, sigma=1.0,
                       pl0=PowerLaw(1.0, 1.0), at_knots=True)
        assert res.diagnostics["lambda_ratio"] == pytest.approx(1.0, abs=1e-12)
        assert math.isnan(res.q_hat)  # no strain levels supplied

    def test_synthetic_round_trip_recovery(self):
        from viscoident.pipeline import extract_creep_kernel_samples

        kp = KernelParams(0.5, 0.0, 0.8)
        pl = PowerLaw(1.0, 1.5)
        hist = v.simulate_creep(kp, pl, 1.0, np.linspace(0.0, 0.005, 64))
        samples = extract_creep_kernel_samples(hist, pl)
        model = KernelSamples(
            samples.times,
            np.array([creep_kernel(kp, t).value for t in samples.times]),
        )
        res = identify(
            samples, fit_kernel_spline(model), None,
            WeightConfig(lambda0=1.0, q0=1.0), sigma=1.0, pl0=pl,
            strain_levels=hist.values[1:], at_knots=True, model_segments=True,
        )
        assert abs(res.lambda_hat - 0.8) / 0.8 <= 0.05
        assert abs(res.q_hat - 1.5) / 1.5 <= 0.05
        assert not res.diagnostics["q_failures"]

    @pytest.mark.parametrize("power", [-700, -1000])
    def test_power_of_two_scale_is_exact(self, table1, power):
        # unscaled, the squared residuals and model values would underflow;
        # the scale and the m-scan see the same numbers
        cfg = WeightConfig(lambda0=0.9, q0=1.0)
        scaled = KernelSamples(table1.times, np.ldexp(table1.values, power))
        base, res = (identify(s, fit_kernel_spline(s), None, cfg, sigma=1.0,
                              pl0=PowerLaw(1.0, 1.0)) for s in (table1, scaled))
        assert res.diagnostics["lambda_ratio"] == base.diagnostics["lambda_ratio"]
        assert res.m_selected == base.m_selected
        assert np.array_equal(res.weights, base.weights)

    def test_all_pairs_failing_raises(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=0.9, q0=1.0)
        with pytest.raises(NoRootError):
            identify(table1, table1_segments, None, cfg, sigma=1e-4,
                     pl0=PowerLaw(1.0, 1.0), strain_levels=np.array([1e6]),
                     at_knots=True)

    def test_strain_levels_have_one_source(self, table1, table1_segments):
        iso = v.IsochroneDataset([0.5, 0.9], [0.0, 1.0, 2.0],
                                 [[2.0, 1.8, 1.7], [4.0, 3.6, 3.4]])
        with pytest.raises(DomainError, match="^give strain levels or "
                           "isochrones, not both$"):
            identify(table1, table1_segments, iso, WeightConfig(0.9), sigma=1.0,
                     pl0=PowerLaw(1.0, 1.0), strain_levels=[5.0, 6.0, 7.0])

    def test_weights_and_delta_reported(self, table1, table1_segments):
        cfg = WeightConfig(lambda0=0.9, q0=1.0)
        res = identify(table1, table1_segments, None, cfg, sigma=1.0,
                       pl0=PowerLaw(1.0, 1.0), at_knots=True, m_range=(2, 3, 4))
        assert res.m_selected == 4
        assert np.all(res.weights > 0.0) and np.all(res.weights <= 1.0)
        assert res.delta >= 0.0

    def test_one_spline_pass(self, table1, table1_segments, monkeypatch):
        # one evaluation at the 16 evaluation times, one at the terminal sample
        shapes = []
        value = Spline.value

        def counted(self, time):
            shapes.append(np.shape(time))
            return value(self, time)

        monkeypatch.setattr(Spline, "value", counted)
        identify(table1, table1_segments, None, WeightConfig(lambda0=0.9),
                 sigma=1.0, pl0=PowerLaw(1.0, 1.0), strain_levels=[1.5])
        assert sorted(shapes) == [(), (16,)]

    @given(sample_sets(),
           st.sampled_from([1.0, 2.0]) | st.floats(min_value=0.2, max_value=3.0),
           st.booleans(), st.booleans())
    def test_equals_stage_functions(self, samples, lambda0, at_knots, model):
        # identify's single pass gives bitwise what the stage functions give,
        # or fails with the error class they fail with first (lambda0 1 and 2
        # zero the terminal residual of the self-fitted and the model pair)
        if model:
            data, segs = scaled_pair(samples)
        else:
            data, segs = samples, fit_kernel_spline(samples)
        cfg = WeightConfig(lambda0=lambda0)
        t_eval = segment_eval_times(data, at_knots=at_knots)

        def stages():
            m = select_moment_order(data, segs, cfg, t_eval)
            cfg_m = replace(cfg, m=m)
            return (m, stage1_weights(data, segs, cfg_m, t_eval),
                    stage1_delta(data, segs, cfg_m, t_eval),
                    lambda_gamma_form(data, segs, cfg_m, t_eval))

        def identified():
            res = identify(data, segs, None, cfg, sigma=1.0,
                           pl0=PowerLaw(1.0, 1.0), at_knots=at_knots,
                           model_segments=model)
            return (res.m_selected, res.weights, res.delta,
                    res.diagnostics["lambda_ratio"])

        outcomes = []
        for run in (stages, identified):
            try:
                outcomes.append(run())
            except ViscoidentError as exc:
                outcomes.append(type(exc))
        want, got = outcomes
        if isinstance(want, type) or isinstance(got, type):
            assert got is want
            return
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            a, b = np.asarray(a, float), np.asarray(b, float)
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestWeightConfigValidation:
    def test_invariants(self):
        for name in ("lambda0", "q0", "gamma"):
            for bad in (0.0, -1.0, math.nan, math.inf):
                with pytest.raises(DomainError, match=f"^{name} must"):
                    WeightConfig(**{name: bad})
        for m in (1, 2.5):
            with pytest.raises(DomainError,
                               match=rf"^m must be an integer >= 2, got {m}$"):
                WeightConfig(m=m)

    def test_numpy_orders(self, table1, table1_segments):
        # a numpy integer is an order like the Python int of the same value
        assert WeightConfig(m=np.int64(3)).m == 3
        want, got = (
            identify(table1, table1_segments, None, WeightConfig(lambda0=0.9),
                     sigma=1.0, pl0=PowerLaw(1.0, 1.0), strain_levels=[1.5],
                     m_range=m_range)
            for m_range in (range(2, 9), np.arange(2, 9))
        )
        assert got.m_selected == want.m_selected
        for name in ("lambda_hat", "q_hat", "delta", "weights"):
            a, b = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
            assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @pytest.mark.parametrize("m_range, bad", [((2, 1), 1), ((3, 2.5), 2.5)])
    def test_bad_order_in_m_range(self, table1, table1_segments, m_range, bad):
        # an order of the scan is refused as WeightConfig refuses its m
        with pytest.raises(DomainError,
                           match=rf"^m must be an integer >= 2, got {bad}$"):
            identify(table1, table1_segments, None, WeightConfig(lambda0=0.9),
                     sigma=1.0, pl0=PowerLaw(1.0, 1.0), m_range=m_range)

    def test_empty_m_range(self, table1, table1_segments):
        with pytest.raises(DomainError, match="^m_range must be nonempty$"):
            identify(table1, table1_segments, None, WeightConfig(lambda0=0.9),
                     sigma=1.0, pl0=PowerLaw(1.0, 1.0), m_range=())


# the six calls that take one entry per sample, as
# f(samples, segments, weights, t_eval); "residual_delta" is the delta pass
PER_SAMPLE_CALLS = {
    "omega": lambda d, s, w, t: omega(d, s, w, 1.0, t),
    "lambda_closed_form": lambda_closed_form,
    "stage1_weights": lambda d, s, w, t: stage1_weights(d, s, WeightConfig(0.9), t),
    "residual_delta": lambda d, s, w, t: stage1_delta(d, s, WeightConfig(0.9), t),
    "select_moment_order":
        lambda d, s, w, t: select_moment_order(d, s, WeightConfig(0.9), t),
    "lambda_gamma_form":
        lambda d, s, w, t: lambda_gamma_form(d, s, WeightConfig(0.9), t),
}


@pytest.mark.parametrize("name, broken, cut", [
    *((name, "segment", "short") for name in ("omega", "lambda_closed_form")),
    *((name, "evaluation time", "short") for name in PER_SAMPLE_CALLS),
    ("omega", "evaluation time", "column"),
    *((name, "weight", "short") for name in ("omega", "lambda_closed_form")),
])
def test_one_entry_per_sample(table1, table1_segments, name, broken, cut):
    # a count or shape mismatch is a DomainError, not a numpy broadcast
    # error or a silently broadcast sum
    args = {"segment": table1_segments, "weight": np.ones(len(table1)),
            "evaluation time": segment_eval_times(table1)}
    call = PER_SAMPLE_CALLS[name]
    call(table1, args["segment"], args["weight"], args["evaluation time"])
    args[broken] = args[broken][slice(-1) if cut == "short" else (slice(None), None)]
    with pytest.raises(DomainError, match=f"^need one {broken} per sample \\(16\\)"):
        call(table1, args["segment"], args["weight"], args["evaluation time"])


@pytest.mark.parametrize("name", ["omega", "lambda_closed_form"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_weights(table1, table1_segments, name, bad):
    # a non-finite weight is a DomainError, not a NaN estimate
    weights = np.ones(len(table1))
    weights[3] = bad
    with pytest.raises(DomainError, match=f"^weights must be finite, got {bad}$"):
        PER_SAMPLE_CALLS[name](table1, table1_segments, weights,
                               segment_eval_times(table1))
    with pytest.raises(DomainError, match="^weights must be finite, got nan$"):
        PER_SAMPLE_CALLS[name](table1, table1_segments, np.full(16, math.nan),
                               segment_eval_times(table1))


@pytest.mark.parametrize("stage", [
    lambda d, s, cfg, t: omega(d, s, np.ones(len(d)), cfg.lambda0, t),
    stage1_weights, stage1_delta, select_moment_order, lambda_gamma_form,
    lambda d, s, cfg, t: identify(d, s, None, cfg, sigma=1.0,
                                  pl0=PowerLaw(1.0, 1.0)),
], ids=["omega", "stage1_weights", "residual_delta", "select_moment_order",
        "lambda_gamma_form", "identify"])
def test_overflowing_lambda0(table1, table1_segments, stage):
    # lambda0 * K_j overflows: one DomainError and no numpy warning (the
    # suite turns RuntimeWarnings into errors)
    with pytest.raises(DomainError, match=r"^a residual is not finite at "
                       r"lambda0 = 1e\+308: lambda0 \* K_j must be finite$"):
        stage(table1, table1_segments, WeightConfig(lambda0=1e308),
              segment_eval_times(table1))


@pytest.mark.parametrize("name", [*PER_SAMPLE_CALLS, "identify"])
def test_segments_off_the_sample_times(name):
    # the README creep record against segments fitted to the true kernel on
    # 3x its sample times: identify would give lambda_hat 1.086, not 0.8
    kp, pl = KernelParams(0.5, 0.0, 0.8), PowerLaw(1.0, 1.5)
    hist = v.simulate_creep(kp, pl, 1.0, np.linspace(0.0, 0.005, 64))
    samples = extract_creep_kernel_samples(hist, pl)
    t = 3.0 * samples.times
    segments = fit_kernel_spline(KernelSamples(t, creep_kernel(kp, t).checked(t)))
    calls = {**PER_SAMPLE_CALLS, "identify": lambda d, s, w, t: identify(
        d, s, None, WeightConfig(1.0), sigma=1.0, pl0=PowerLaw(1.0, 1.0),
        strain_levels=hist.values[1:], at_knots=True, model_segments=True)}
    with pytest.raises(DomainError, match=r"^the segments must be anchored at "
                       r"the sample times: segment 1 is at t = 0\.000238095238, "
                       r"sample 1 at t = 7\.93650794e-05$"):
        calls[name](samples, segments, np.ones(len(samples)),
                    segment_eval_times(samples, at_knots=True))
