"""Power law, forward simulators, kernel extraction, resolvent consistency."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viscoident import (
    KIND_CREEP,
    KIND_RELAXATION,
    KIND_STRESS_PROGRAM,
    KernelParams,
    PowerLaw,
    ResponseHistory,
    creep_kernel_integral,
    hereditary_convolution,
    phi0,
    phi0_inverse,
    relaxation_kernel,
    relaxation_kernel_from_history,
    resolvent_mismatch,
    simulate_creep,
    simulate_relaxation,
)
from viscoident.errors import ConvergenceError, DomainError, InsufficientDataError
from viscoident.kernels import ABS_TOL, PRECISION_LOSS_RATIO, _antiderivative_grid
from viscoident.material import BLOCK_ROWS, _distinct, _lag_blocks, differentiate
from viscoident.spline import extract_creep_kernel_samples

# 200-term summation at 50 decimal digits (mpmath), frozen:
#   1 - 0.1 * sum_n (-0.1)**n / Gamma(0.5*(1+n)+1)   (resolvent rate 0+0.1)
SIGMA_RELAX_T1 = 0.89645697996912664193


class TestPowerLaw:
    def test_phi0_values(self):
        assert phi0(PowerLaw(2.0, 2.0), 0.0) == 0.0
        assert phi0(PowerLaw(2.0, 2.0), 3.0) == 9.0
        # (3/1.5) * 4**1.5 = 2 * 8
        assert phi0(PowerLaw(3.0, 1.5), 4.0) == pytest.approx(16.0, rel=1e-14)

    def test_inverse_values(self):
        assert phi0_inverse(PowerLaw(5.0, 0.7), 0.0) == 0.0
        assert phi0_inverse(PowerLaw(2.0, 2.0), 9.0) == pytest.approx(3.0, rel=1e-14)
        assert phi0_inverse(PowerLaw(3.0, 1.5), 16.0) == pytest.approx(4.0, rel=1e-14)

    def test_negative_arguments_rejected(self):
        with pytest.raises(DomainError):
            phi0(PowerLaw(1.0, 1.5), -0.1)
        with pytest.raises(DomainError):
            phi0_inverse(PowerLaw(1.0, 1.5), -0.1)
        # any negative entry rejects an array, naming the first one
        with pytest.raises(DomainError, match=r"got -0\.1$"):
            phi0(PowerLaw(1.0, 1.5), np.array([0.0, 2.0, -0.1, -3.0]))
        with pytest.raises(DomainError, match=r"got -3\.0$"):
            phi0_inverse(PowerLaw(1.0, 1.5), np.array([[1.0, -3.0], [0.5, -0.1]]))

    @pytest.mark.parametrize("arg", [math.nan, np.array([1.0, math.nan, -0.1])],
                             ids=["scalar", "array"])
    def test_nan_arguments_rejected(self, arg):
        # NaN fails the domain test as a negative argument does, naming it
        with pytest.raises(DomainError, match="got nan$"):
            phi0(PowerLaw(1.0, 1.5), arg)
        with pytest.raises(DomainError, match="got nan$"):
            phi0_inverse(PowerLaw(1.0, 1.5), arg)

    @pytest.mark.parametrize("arg", [10.0, np.array([[0.0, 10.0], [20.0, 1.0]])],
                             ids=["scalar", "array"])
    def test_overflow_rejected(self, arg):
        # a result that is not finite is an error naming its argument: a
        # float ** raised OverflowError, an array ** warned and gave inf
        with pytest.raises(DomainError, match=r"^phi0 overflows at H = 1\.0, "
                           r"q = 400\.0: .* got 10\.0$"):
            phi0(PowerLaw(1.0, 400.0), arg)
        with pytest.raises(DomainError, match=r"^phi0 inverse overflows at "
                           r"H = 1e-320, q = 1\.0: .* got 10\.0$"):
            phi0_inverse(PowerLaw(1e-320, 1.0), arg)
        with pytest.raises(DomainError, match=r"got 1\.0$"):
            phi0_inverse(PowerLaw(1e-320, 1.0), 1.0)  # was a silent inf

    def test_parameter_validation(self):
        for bad in (0.0, -2.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="^H must"):
                PowerLaw(bad, 1.0)
            with pytest.raises(DomainError, match="^q must"):
                PowerLaw(1.0, bad)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.3, max_value=3.0),
        st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=8),
    )
    def test_round_trip(self, H, q, eps):
        pl = PowerLaw(H, q)
        for e in eps:
            assert phi0_inverse(pl, phi0(pl, e)) == pytest.approx(e, rel=1e-12)
        # elementwise on arrays: an array ** is within 1 ulp of the scalar
        # pow, and phi0's scaling by H/q after it can round to 2 ulp apart
        phi = phi0(pl, np.array(eps))
        scalar = np.array([phi0(pl, e) for e in eps])
        assert np.all(np.abs(phi - scalar) <= 2.0 * np.spacing(scalar))
        back = phi0_inverse(pl, phi)
        scalar = np.array([phi0_inverse(pl, p) for p in phi])
        assert np.all(np.abs(back - scalar) <= np.spacing(scalar))
        assert np.allclose(back, eps, rtol=1e-12, atol=0.0)


class TestSimulateCreep:
    def test_instantaneous_strain(self):
        kp = KernelParams(0.5, 0.1, 0.3)
        pl = PowerLaw(2.0, 1.5)
        hist = simulate_creep(kp, pl, 3.0, np.linspace(0.0, 1.0, 9))
        assert hist.values[0] == phi0_inverse(pl, 3.0)

    def test_closed_form_example(self):
        # identity power law, single-term kernel: eps(4) = 1 + 2/Gamma(1.5)
        kp = KernelParams(0.5, 0.0, 1.0)
        pl = PowerLaw(1.0, 1.0)
        hist = simulate_creep(kp, pl, 1.0, np.array([0.0, 4.0]))
        expected = 1.0 + 4.0 ** 0.5 / math.gamma(1.5)
        assert hist.values[-1] == pytest.approx(expected, rel=1e-14)
        assert hist.values[-1] == pytest.approx(3.2567583341910251, rel=1e-14)

    def test_vanishing_heredity(self):
        # the intensity is strictly positive; in the limit there is no creep
        kp = KernelParams(0.5, 0.0, 1e-14)
        pl = PowerLaw(2.0, 2.0)
        hist = simulate_creep(kp, pl, 5.0, np.linspace(0.0, 3.0, 7))
        assert np.allclose(hist.values, phi0_inverse(pl, 5.0), rtol=1e-12)

    def test_strain_nondecreasing_for_beta_zero(self):
        kp = KernelParams(0.4, 0.0, 0.7)
        pl = PowerLaw(1.5, 1.2)
        hist = simulate_creep(kp, pl, 2.0, np.linspace(0.0, 5.0, 50))
        assert np.all(np.diff(hist.values) >= 0.0)

    def test_grid_validation(self):
        kp = KernelParams(0.5, 0.0, 1.0)
        pl = PowerLaw(1.0, 1.0)
        with pytest.raises(DomainError):
            simulate_creep(kp, pl, 1.0, np.array([0.5, 1.0]))
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                simulate_creep(kp, pl, sigma, np.array([0.0, 1.0]))

    def test_cancelled_series_refused(self):
        # beta * t**(1 - alpha) reaches 7: the integral series returns
        # 2.24e5 at t = 50 where the true value is 0.921
        kp = KernelParams(0.5, 1.0, 0.8)
        with pytest.raises(ConvergenceError, match="lost precision"):
            simulate_creep(kp, PowerLaw(1.0, 1.0), 1.0, np.linspace(0.0, 50.0, 64))
        with pytest.raises(ConvergenceError, match="lost precision"):
            simulate_relaxation(kp, PowerLaw(1.0, 1.0), 1.0,
                                np.linspace(0.0, 10.0, 64))

    def test_cancellation_message_states_the_entry_ratio(self):
        # the refusal ends in the entry's own peak and ratio, not in the last
        # term of the whole call's truncation at t = 50
        kp = KernelParams(0.5, 1.0, 0.8)
        with pytest.raises(ConvergenceError) as err:
            simulate_creep(kp, PowerLaw(1.0, 1.5), 1.0, np.linspace(0.0, 50.0, 64))
        assert str(err.value) == ("kernel series lost precision at s = "
                                  "21.428571428571427: largest term 1.748e+08 "
                                  "is 1.98e+08 times its value")
        assert err.value.last_term is None

    def test_silent_cancellation_refused_at_its_entry(self):
        # at t = 28.7737 the integral is 0.34 % off at a ratio of 3.0e11; the
        # refusal names the first time whose own ratio is above the threshold
        grid = np.linspace(0.0, 28.7737, 64)
        with pytest.raises(ConvergenceError, match="lost precision at s = 21.0093682"):
            simulate_creep(KernelParams(0.7, 1.0, 1.0), PowerLaw(1.0, 1.5), 1.0, grid)


class TestSimulateRelaxation:
    def test_instantaneous_stress(self):
        kp = KernelParams(0.5, 0.1, 0.3)
        pl = PowerLaw(2.0, 1.5)
        hist = simulate_relaxation(kp, pl, 1.2, np.linspace(0.0, 1.0, 9))
        assert hist.values[0] == phi0(pl, 1.2)

    def test_series_value(self):
        kp = KernelParams(0.5, 0.0, 0.1)
        pl = PowerLaw(1.0, 1.0)
        hist = simulate_relaxation(kp, pl, 1.0, np.array([0.0, 1.0]))
        assert hist.values[-1] == pytest.approx(SIGMA_RELAX_T1, rel=1e-12)

    def test_stress_nonincreasing_for_beta_zero(self):
        kp = KernelParams(0.5, 0.0, 0.1)
        pl = PowerLaw(1.0, 1.0)
        hist = simulate_relaxation(kp, pl, 1.0, np.linspace(0.0, 2.0, 40))
        assert np.all(np.diff(hist.values) <= 0.0)


class TestKernelFromHistory:
    def test_constant_stress_gives_zero(self):
        t = np.linspace(0.0, 2.0, 11)
        hist = ResponseHistory(t, np.full_like(t, 4.0), KIND_RELAXATION, 1.0)
        out = relaxation_kernel_from_history(hist, PowerLaw(1.0, 1.0))
        assert np.array_equal(out.times, t[1:])
        assert np.allclose(out.values, 0.0)

    def test_linear_history_hand_value(self):
        # sigma = phi0(eps)*(1 - c*t) with H = q = eps = 1 gives lam*R = c
        c = 0.25
        t = np.linspace(0.0, 2.0, 9)
        hist = ResponseHistory(t, 1.0 - c * t, KIND_RELAXATION, 1.0)
        out = relaxation_kernel_from_history(hist, PowerLaw(1.0, 1.0))
        assert np.array_equal(out.times, t[1:])
        assert out.values == pytest.approx(np.full(len(t) - 1, c), rel=1e-12)

    def test_round_trip_against_kernel(self):
        kp = KernelParams(0.5, 0.0, 0.1)
        pl = PowerLaw(1.0, 1.0)
        grid = np.linspace(0.0, 2.0, 512)
        hist = simulate_relaxation(kp, pl, 1.0, grid)
        out = relaxation_kernel_from_history(hist, pl)
        assert len(out) == len(grid) - 1 and out.times[0] == grid[1]
        inner = (out.times >= 0.1) & (out.times <= 1.9)
        expected = np.array(
            [kp.lam * relaxation_kernel(kp, t).value for t in out.times[inner]]
        )
        assert np.max(np.abs(out.values[inner] / expected - 1.0)) < 0.01

    def test_preconditions(self):
        t = np.linspace(0.0, 1.0, 5)
        creep_like = ResponseHistory(t, t + 1.0, "creep-at-constant-stress", 1.0)
        with pytest.raises(DomainError):
            relaxation_kernel_from_history(creep_like, PowerLaw(1.0, 1.0))
        short = ResponseHistory(np.array([0.0, 1.0]), np.array([1.0, 0.9]),
                                KIND_RELAXATION, 1.0)
        with pytest.raises(InsufficientDataError):
            relaxation_kernel_from_history(short, PowerLaw(1.0, 1.0))

    def test_underflowing_held_stress(self):
        # phi0(1e-300) at q = 3 is 0: the extraction would divide 0 by 0
        kp, pl = KernelParams(0.5, 0.0, 0.8), PowerLaw(1.0, 3.0)
        hist = simulate_relaxation(kp, pl, 1e-300, np.linspace(0.0, 0.005, 64))
        with pytest.raises(DomainError, match=r"^phi0 of the held strain "
                           r"eps = 1e-300 underflows to 0 at H = 1.0, q = 3.0: "
                           r"the kernel samples are undefined$"):
            relaxation_kernel_from_history(hist, pl)

    def test_samples_do_not_depend_on_held_strain(self):
        # phi0(1e-30) = 1e-30 scales the record and divides out again; a
        # product of it with a tiny intensity used to underflow here
        kp, pl = KernelParams(0.5, 0.0, 0.8), PowerLaw(1.0, 1.0)
        grid = np.linspace(0.0, 0.005, 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = relaxation_kernel_from_history(
                simulate_relaxation(kp, pl, 1e-30, grid), pl)
        unit = relaxation_kernel_from_history(
            simulate_relaxation(kp, pl, 1.0, grid), pl)
        assert np.all(np.isfinite(tiny.values))
        assert np.array_equal(tiny.times, unit.times)
        assert np.max(np.abs(tiny.values / unit.values - 1.0)) < 1e-12

    def test_two_samples_are_too_few_to_differentiate(self):
        # the one-sided second-order ends need three samples
        with pytest.raises(InsufficientDataError, match="^need at least three "
                           "samples to differentiate the record$"):
            differentiate(np.array([1.0, 0.9]), np.array([0.0, 1.0]))


def four_grid_convolution(alpha, rate, times, values):
    # the product integration as it read with one series call per lag block
    # over every (k, i) cell, cells with i > k masked to lag 0
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(times)
    lag_lo = times[:, None] - times[None, 1:]
    lag_hi = times[:, None] - times[None, :-1]
    mask = np.tril(np.ones((n, n - 1), dtype=bool), k=0)
    I1_lo = _antiderivative_grid(alpha, rate, np.where(mask, lag_lo, 0.0), 1).value
    I1_hi = _antiderivative_grid(alpha, rate, np.where(mask, lag_hi, 0.0), 1).value
    I2_lo = _antiderivative_grid(alpha, rate, np.where(mask, lag_lo, 0.0), 2).value
    I2_hi = _antiderivative_grid(alpha, rate, np.where(mask, lag_hi, 0.0), 2).value
    width = lag_hi - lag_lo
    slope = (values[:-1] - values[1:]) / (times[1:] - times[:-1])
    contrib = values[None, 1:] * (I1_hi - I1_lo) + slope[None, :] * (
        width * I1_hi - I2_hi + I2_lo
    )
    return np.sum(np.where(mask, contrib, 0.0), axis=1)


def assert_bitwise(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def slope_jumps(times, values):
    # m_j = (v_j - v_{j+1}) / h_j and its jumps m_j - m_{j-1}, m_{-1} = 0
    slope = -np.diff(values) / np.diff(times)
    return slope, np.diff(slope, prepend=0.0)


def by_parts_truncation(times, values):
    # each I1, I2 value is within ABS_TOL: the by-parts form weights them by
    # |v_0| and the slope jumps
    return ABS_TOL * (abs(values[0]) + np.sum(np.abs(slope_jumps(times, values)[1])))


def four_grid_truncation(times, values):
    # per cell, v_{i+1}*(I1(b) - I1(a)) carries 2 series errors and
    # m_i*(h_i*I1(b) - I2(b) + I2(a)) carries h_i + 2 of them
    slope = slope_jumps(times, values)[0]
    return ABS_TOL * np.sum(2.0 * np.abs(values[1:]) + np.abs(slope) * (np.diff(times) + 2.0))


def assert_matches_four_grid(alpha, rate, times, values):
    # both forms are series-exact up to their truncation, so they agree
    # within the sum of the two truncation bounds
    got = hereditary_convolution(alpha, rate, times, values)
    want = four_grid_convolution(alpha, rate, times, values)
    bound = by_parts_truncation(times, values) + four_grid_truncation(times, values)
    assert np.max(np.abs(got - want)) <= bound


def mp_series(alpha, rate, s_max, order):
    # I1 or I2 at 40 digits on [0, s_max]: s**(a+order-1) * sum_n g_n y**n with
    # g_n = 1/Gamma(c_n+order), y = -rate*s**a, a = 1-alpha, c_n = a*(1+n),
    # cut where the terms at s_max have fallen below 1e-45 (smaller lags have
    # smaller terms)
    import mpmath as mp

    a = 1 - mp.mpf(alpha)
    y_max = mp.mpf(rate) * mp.mpf(s_max) ** a
    coeffs, n = [], 0
    while True:
        coeffs.append(1 / mp.gamma(a * (1 + n) + order))
        if n >= 10 and abs(coeffs[-1]) * y_max ** n < mp.mpf("1e-45"):
            break
        n += 1
    coeffs.reverse()  # highest power first, for polyval

    def value(s):
        if s == 0:
            return mp.mpf(0)
        x = mp.mpf(s) ** a
        return x * mp.mpf(s) ** (order - 1) * mp.polyval(coeffs, -mp.mpf(rate) * x)
    return value


def mp_convolution(alpha, rate, times, values):
    # the by-parts sum in 40-digit arithmetic, from the float data as given
    import mpmath as mp

    with mp.workdps(40):
        t = [mp.mpf(x) for x in times]
        v = [mp.mpf(x) for x in values]
        I1 = mp_series(alpha, rate, t[-1] - t[0], 1)
        I2 = mp_series(alpha, rate, t[-1] - t[0], 2)
        slope = [(v[j] - v[j + 1]) / (t[j + 1] - t[j]) for j in range(len(t) - 1)]
        jumps = [slope[0]] + [slope[j] - slope[j - 1] for j in range(1, len(slope))]
        return np.array([
            float(v[0] * I1(tk - t[0]) - mp.fsum(jumps[j] * I2(tk - t[j]) for j in range(k)))
            for k, tk in enumerate(t)
        ])


class TestConvolution:
    def test_unit_data_reproduces_kernel_integral(self):
        # (K * 1)(t) is exactly the kernel integral; the product rule is
        # series-exact for constant data
        kp = KernelParams(0.5, 0.1, 0.2)
        t = np.linspace(0.0, 4.0, 33)
        conv = hereditary_convolution(kp.alpha, kp.beta, t, np.ones_like(t))
        expected = np.array([creep_kernel_integral(kp, ti).value for ti in t])
        assert conv == pytest.approx(expected, rel=1e-12)

    def test_one_and_two_point_grids(self):
        assert_bitwise(hereditary_convolution(0.5, 0.1, [0.0], [1.0]), [0.0])
        # I2(1e-300) underflows to 0, so only v_0 * I1 remains (the exact
        # value is about 1.88e-150)
        assert_bitwise(hereditary_convolution(0.5, 0.1, [0.0, 1e-300], [1.0, 2.0]),
                       [0.0, 1.1283791670955126e-150])
        # v_0 = 1 and one slope jump of -1: I1(1) + I2(1)
        I1, I2 = (_antiderivative_grid(0.5, 0.1, 1.0, order).value for order in (1, 2))
        assert_bitwise(hereditary_convolution(0.5, 0.1, [0.0, 1.0], [1.0, 2.0]),
                       [0.0, I1 + I2])
        assert I1 + I2 == 1.7405335216308497

    def test_cancelled_series_refused(self):
        # the lags reach 50, where the I1 series returns 2.24e5 for 0.921
        with pytest.raises(ConvergenceError, match="lost precision at s = "):
            hereditary_convolution(0.5, 1.0, np.linspace(0.0, 50.0, 64), np.ones(64))

    def test_stress_program_grid_matches_four_grid_evaluation(self):
        # the benchmark's 1024-point grid: about 3n distinct lags
        kp = KernelParams(0.5, 0.1, 0.2)
        t = np.linspace(0.0, 4.0, 1024)
        sigma = np.interp(t, [0.0, 0.8, 1.9, 3.1, 3.6], [0.0, 1.4, 0.6, 1.8, 0.3])
        for rate in (kp.beta, kp.beta + kp.lam):
            assert_matches_four_grid(kp.alpha, rate, t, sigma)

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.05, 1.0), min_size=7, max_size=299),
           st.floats(0.3, 0.7), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_nonuniform_grids_match_four_grid_evaluation(self, spacing, alpha,
                                                         rate, seed):
        t = np.concatenate([[0.0], np.cumsum(spacing)])
        t *= 4.0 / t[-1]
        values = np.random.default_rng(seed).normal(size=len(t))
        assert_matches_four_grid(alpha, rate, t, values)

    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "non-uniform"])
    @pytest.mark.parametrize("n", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1, 1000])
    def test_row_blocks_match_four_grid_evaluation(self, n, uniform):
        # one block short of full, one full, one plus a lone row (which
        # joins the block before it), two plus a lone row, and 1000 points:
        # 15 full blocks and a partial one
        rng = np.random.default_rng(n)
        if uniform:
            t = np.linspace(0.0, 4.0, n)
        else:
            t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
            t *= 4.0 / t[-1]
        assert_matches_four_grid(0.5, 0.3, t, rng.normal(size=n))

    @pytest.mark.parametrize("bound", [0, 10, 100, 10**6])
    def test_distinct_lags_merged_in_steps(self, bound):
        # however often the blocks' distinct values are merged on the way,
        # the result is every distinct value once, sorted
        rng = np.random.default_rng(bound)
        blocks = [rng.integers(0, 300, size=(4, 10)) / 8.0 for _ in range(25)]
        assert_bitwise(_distinct(iter(blocks), bound),
                       np.unique(np.concatenate(blocks)))

    def test_memory_grows_with_the_grid_not_its_square(self):
        # 2048 points: the n x (n-1) lag, index and gathered I2 matrices
        # alone would take 100 MB; the row blocks keep the peak near
        # 3 * BLOCK_ROWS * n cells (3.1 MB) plus the distinct lags
        t = np.linspace(0.0, 4.0, 2048)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            hereditary_convolution(0.5, 0.1, t, np.ones_like(t))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_lag_blocks_with_different_term_counts(self):
        # the largest lag (11) needs more series terms than the four-grid
        # form's lo block (largest lag 1), so its lo and hi blocks truncate
        # differently
        t = np.array([0.0, 10.0, 10.5, 11.0])
        for order in (1, 2):
            assert (_antiderivative_grid(0.5, 1.0, t[-1] - t[1], order).terms
                    < _antiderivative_grid(0.5, 1.0, t[-1] - t[0], order).terms)
        assert_matches_four_grid(0.5, 1.0, t, np.array([1.0, 2.0, -1.0, 3.0]))

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_mpmath_oracle(self, seed):
        # non-uniform grids of 10-40 points on [0, 4] at stress-program
        # kernel parameters; even seeds carry a ramp-hold-unload program,
        # odd seeds random data
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 41))
        t = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 1.0, n - 1))])
        t *= 4.0 / t[-1]
        if seed % 2:
            values = rng.normal(size=n)
        else:
            knots = np.sort(rng.uniform(0.2, 4.0, 4))
            values = np.interp(t, np.concatenate([[0.0], knots]),
                               np.concatenate([[0.0], rng.uniform(0.2, 2.0, 4)]))
        alpha, rate = rng.uniform(0.3, 0.7), rng.uniform(0.0, 0.8)
        got = hereditary_convolution(alpha, rate, t, values)
        want = mp_convolution(alpha, rate, t, values)
        assert np.max(np.abs(got - want)) <= by_parts_truncation(t, values)

    @pytest.mark.parametrize("times, values", [
        ([0.0, 0.5, 0.4, 1.5], np.ones(4)),     # not increasing
        ([0.0, 0.5, 0.5, 1.5], np.ones(4)),     # repeated time
        ([0.0, 0.5, 1.0], np.ones(4)),          # values too long
        ([[0.0, 0.5], [1.0, 1.5]], np.ones((2, 2))),
        ([], []),
        ([0.0, 1.0, 2.0], [1.0, math.nan, 1.0]),
        ([0.0, 1.0, 2.0], [1.0, math.inf, 1.0]),
        ([0.0, 1.0, math.inf], [1.0, 1.0, 1.0]),
        ([0.0, math.nan, 2.0], [1.0, 1.0, 1.0]),
    ])
    def test_arguments_checked(self, times, values):
        with pytest.raises(DomainError):
            hereditary_convolution(0.5, 0.1, times, values)

    @pytest.mark.parametrize("alpha, rate, message", [
        *((alpha, 0.1, f"alpha must lie in (0, 1), got {alpha}")
          for alpha in (0.0, 1.0, 1.5, math.nan)),
        *((0.5, rate, f"beta must be finite and >= 0, got {rate}")
          for rate in (-5.0, math.inf, math.nan)),
    ])
    def test_kernel_shape_checked(self, alpha, rate, message):
        # the series evaluator refuses a shape outside the kernel's domain,
        # so the convolution does too, before any warning: alpha 1 returned
        # 0.909, alpha 1.5 raised a raw ValueError and rate -5 gave 2.9e10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as err:
                hereditary_convolution(alpha, rate, np.linspace(0.0, 1.0, 4), np.ones(4))
        assert type(err.value) is DomainError
        assert str(err.value) == message


class TestResolventMismatch:
    @staticmethod
    def constant_stress(n, t_end=4.0):
        t = np.linspace(0.0, t_end, n)
        return ResponseHistory(t, np.ones(n), KIND_STRESS_PROGRAM, 1.0)

    def test_vanishing_heredity(self):
        kp = KernelParams(0.5, 0.1, 1e-14)
        assert resolvent_mismatch(kp, PowerLaw(1.0, 1.0),
                                  self.constant_stress(64)) < 1e-12

    def test_frozen_bound_at_256(self):
        # refinement study measured 9.06e-5; frozen with headroom
        kp = KernelParams(0.5, 0.1, 0.2)
        err = resolvent_mismatch(kp, PowerLaw(1.0, 1.0), self.constant_stress(256))
        assert err < 2e-4

    def test_monotone_refinement(self):
        kp = KernelParams(0.5, 0.1, 0.2)
        pl = PowerLaw(1.0, 1.0)
        errs = [
            resolvent_mismatch(kp, pl, self.constant_stress(n))
            for n in (64, 128, 256)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_nonlinear_law_round_trip(self):
        kp = KernelParams(0.5, 0.1, 0.2)
        err = resolvent_mismatch(kp, PowerLaw(2.0, 1.5), self.constant_stress(128))
        assert err < 1e-3

    @pytest.mark.parametrize("kind", [KIND_CREEP, KIND_RELAXATION])
    def test_held_load_record_rejected(self, kind):
        # a held-load record's values are strains or stresses under one load,
        # not a stress program
        kp, pl = KernelParams(0.5, 0.1, 0.2), PowerLaw(1.0, 1.0)
        simulate = simulate_creep if kind == KIND_CREEP else simulate_relaxation
        hist = simulate(kp, pl, 1.0, np.linspace(0.0, 4.0, 64))
        with pytest.raises(DomainError) as err:
            resolvent_mismatch(kp, pl, hist)
        assert str(err.value) == f"need a stress-program history, got kind '{kind}'"

    def test_cancelled_series_refused(self):
        with pytest.raises(ConvergenceError, match="lost precision at s = "):
            resolvent_mismatch(KernelParams(0.5, 1.0, 0.8), PowerLaw(1.0, 1.5),
                               self.constant_stress(64, t_end=50.0))

    def test_tiny_lag_next_to_long_lags_accepted(self):
        # one 1e-7 step: the call's largest I2 term is more than
        # PRECISION_LOSS_RATIO times I2 at the 1e-7 lag, so a call-wide
        # check would refuse these correct values; each lag's own is far below
        t = np.insert(np.linspace(0.0, 4.0, 256), 1, 1e-7)
        lags = np.unique(np.concatenate([lag.ravel() for _, lag in _lag_blocks(t)]))[1:]
        I2 = _antiderivative_grid(0.3, 0.8, lags, 2)
        assert np.max(I2.max_term) > PRECISION_LOSS_RATIO * I2.value.min()
        hist = ResponseHistory(t, np.ones_like(t), KIND_STRESS_PROGRAM, 1.0)
        err = resolvent_mismatch(KernelParams(0.3, 0.3, 0.5), PowerLaw(1.0, 1.0), hist)
        assert err == pytest.approx(6.685004043793796e-05, rel=1e-9)

    def test_coarse_grid_rejected(self):
        kp = KernelParams(0.5, 0.1, 0.2)
        with pytest.raises(InsufficientDataError):
            resolvent_mismatch(kp, PowerLaw(1.0, 1.0), self.constant_stress(7))

    def test_negative_stress_program_rejected(self):
        # a compressive program drives the forward response below 0, where
        # the power law's inverse is undefined
        t = np.linspace(0.0, 4.0, 8)
        hist = ResponseHistory(t, -np.ones(8), KIND_STRESS_PROGRAM, 0.0)
        with pytest.raises(DomainError) as err:
            resolvent_mismatch(KernelParams(0.5, 0.1, 0.2), PowerLaw(1.0, 1.0), hist)
        assert type(err.value) is DomainError
        assert str(err.value) == "forward response left the power-law domain (phi < 0)"


class TestResponseHistoryValidation:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ResponseHistory(np.array([0.5, 1.0]), np.array([1.0, 2.0]),
                            KIND_RELAXATION, 1.0)
        with pytest.raises(DomainError):
            ResponseHistory(np.array([0.0]), np.array([1.0]), KIND_RELAXATION, 1.0)
        with pytest.raises(DomainError):
            ResponseHistory(np.array([0.0, 1.0]), np.array([1.0, np.inf]),
                            KIND_RELAXATION, 1.0)

    @pytest.mark.parametrize("driver, shown", [
        (0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"),
    ], ids=["zero", "negative", "nan", "inf"])
    @pytest.mark.parametrize("kind, route, load, sign", [
        (KIND_CREEP, extract_creep_kernel_samples, "creep stress", 1.0),
        (KIND_RELAXATION, relaxation_kernel_from_history, "relaxation strain",
         -1.0),
    ], ids=["creep", "relaxation"])
    def test_held_load_refused(self, kind, route, load, sign, driver, shown):
        # the record refuses the load before a route can divide by it or
        # blame an underflow, with no RuntimeWarning on the way
        t = np.linspace(0.0, 1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^{load} must be finite "
                               rf"and > 0, got {shown}$"):
                route(ResponseHistory(t, 1.0 + sign * 0.1 * t, kind, driver),
                      PowerLaw(1.0, 1.0))

    def test_stress_program_holds_no_load(self):
        t = np.linspace(0.0, 1.0, 5)
        hist = ResponseHistory(t, np.ones(5), KIND_STRESS_PROGRAM, 0.0)
        assert hist.driver == 0.0
