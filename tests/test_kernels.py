"""Kernel series against exact values and high-precision oracles."""

import math
import re
from math import gamma

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from viscoident import (
    IsochroneDataset,
    KernelParams,
    PowerLaw,
    Spline,
    WeightConfig,
    creep_kernel,
    creep_kernel_integral,
    eta,
    fit_kernel_spline,
    identify,
    relaxation_kernel,
    simulate_creep,
    simulate_relaxation,
    solve_q,
    table1_fixture,
)
from viscoident.errors import ConvergenceError, DomainError, InfeasibleEtaError
from viscoident.kernels import ABS_TOL, MAX_TERMS

# 200-term summation at 50 decimal digits (mpmath), frozen:
#   sum_n (-0.1)**n * 1**(0.5*(1+n)-1) / Gamma(0.5*(1+n))
K_HALF_BETA01_S1 = 0.47454388555084362275
#   sum_n (-0.1)**n * 2**(0.5*(1+n)) / Gamma(0.5*(1+n)+1)
I_HALF_BETA01_T2 = 1.4152038353305261033


def mp_creep_kernel(alpha, beta, s, terms=200):
    """Independent high-precision series oracle."""
    import mpmath as mp

    with mp.workdps(50):
        a, b, sv = mp.mpf(str(alpha)), mp.mpf(str(beta)), mp.mpf(str(s))
        total = mp.mpf(0)
        for n in range(terms):
            c = (1 - a) * (1 + n)
            total += (-b) ** n * sv ** (c - 1) / mp.gamma(c)
        return float(total)


class TestCreepKernel:
    def test_beta_zero_single_term(self):
        kp = KernelParams(alpha=0.5, beta=0.0, lam=1.0)
        res = creep_kernel(kp, 4.0)
        assert res.value == pytest.approx(4.0 ** -0.5 / gamma(0.5), rel=1e-15)
        assert res.value == pytest.approx(0.28209479, abs=1e-8)

    def test_exponential_limit(self):
        kp = KernelParams(alpha=1e-6, beta=1.0, lam=1.0)
        assert creep_kernel(kp, 2.0).value == pytest.approx(math.exp(-2.0), abs=1e-3)

    def test_against_high_precision_oracle(self):
        kp = KernelParams(alpha=0.5, beta=0.1, lam=1.0)
        got = creep_kernel(kp, 1.0).value
        assert got == pytest.approx(K_HALF_BETA01_S1, rel=1e-12)
        assert got == pytest.approx(mp_creep_kernel(0.5, 0.1, 1.0), rel=1e-12)

    def test_singular_at_zero(self):
        kp = KernelParams(alpha=0.5, beta=0.1, lam=1.0)
        with pytest.raises(DomainError):
            creep_kernel(kp, 0.0)
        with pytest.raises(DomainError):
            creep_kernel(kp, -1.0)
        # an array names its first offending entry
        with pytest.raises(DomainError, match=r"got -2\.0$"):
            creep_kernel(kp, np.array([1.0, -2.0, 0.0]))
        with pytest.raises(DomainError, match=r"got nan$"):
            relaxation_kernel(kp, np.array([1.0, np.nan]))

    def test_truncation_failure_carries_last_term(self):
        # z = beta * s**(1 - alpha) = 2 with 1 - alpha = 0.05: Gamma grows so
        # slowly that the terms are still rising after MAX_TERMS of them
        kp = KernelParams(alpha=0.95, beta=2.0, lam=1.0)
        with pytest.raises(ConvergenceError) as err:
            creep_kernel(kp, 1.0)
        assert "did not converge in 500 terms" in str(err.value)
        assert ABS_TOL < err.value.last_term < math.inf

    def test_overflowing_rate_power_raises(self):
        # (-beta)**2 overflows as a Python float (OverflowError, not a numpy
        # inf): the series stops with its last term inf
        with pytest.raises(ConvergenceError) as err:
            creep_kernel(KernelParams(0.5, 1e200, 1.0), 1.0)
        assert type(err.value) is ConvergenceError
        assert str(err.value) == ("kernel series did not converge in 3 terms "
                                  "(last term magnitude inf)")
        assert err.value.last_term == math.inf

    def test_float_protocol_and_term_count(self):
        kp = KernelParams(alpha=0.5, beta=0.0, lam=1.0)
        res = creep_kernel(kp, 4.0)
        # a scalar argument gives a plain float; the DeprecationWarning
        # filter turns a float subclass returned by __float__ into an error
        assert type(res.value) is float
        assert float(res) == res.value
        assert res.terms <= 2  # series collapses after the first term

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_beta_zero_collapse(self, alpha, s):
        kp = KernelParams(alpha=alpha, beta=0.0, lam=1.0)
        expected = s ** (-alpha) / gamma(1.0 - alpha)
        assert creep_kernel(kp, s).value == pytest.approx(expected, rel=5e-15)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.1, max_value=2.0),
    )
    def test_monotone_truncation(self, alpha, beta, lam, s):
        kp = KernelParams(alpha=alpha, beta=beta, lam=lam)
        res = creep_kernel(kp, s)
        assert res.terms < MAX_TERMS
        assert res.last_term <= ABS_TOL


class TestRelaxationKernel:
    def test_zero_intensity_limit_matches_creep(self):
        # the intensity must be positive; in the vanishing limit the
        # resolvent collapses to the creep kernel
        kp = KernelParams(alpha=0.5, beta=0.0, lam=1e-12)
        assert relaxation_kernel(kp, 4.0).value == pytest.approx(
            0.28209479177387814, abs=1e-11
        )

    def test_substitution_identity_example(self):
        kp = KernelParams(alpha=0.5, beta=0.1, lam=0.2)
        shifted = KernelParams(alpha=0.5, beta=0.3, lam=1.0)
        assert relaxation_kernel(kp, 1.0).value == creep_kernel(shifted, 1.0).value

    def test_exponential_limit(self):
        kp = KernelParams(alpha=1e-6, beta=0.5, lam=0.5)
        assert relaxation_kernel(kp, 1.0).value == pytest.approx(
            math.exp(-1.0), abs=1e-3
        )

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.0, max_value=0.4),
        st.floats(min_value=0.05, max_value=0.6),
        st.floats(min_value=0.1, max_value=4.0),
    )
    def test_substitution_identity(self, alpha, beta, lam, s):
        kp = KernelParams(alpha=alpha, beta=beta, lam=lam)
        shifted = KernelParams(alpha=alpha, beta=beta + lam, lam=1.0)
        assert relaxation_kernel(kp, s).value == pytest.approx(
            creep_kernel(shifted, s).value, rel=1e-14
        )


class TestCreepKernelIntegral:
    def test_zero_time(self):
        kp = KernelParams(alpha=0.5, beta=0.1, lam=1.0)
        assert creep_kernel_integral(kp, 0.0).value == 0.0

    def test_single_term_antiderivative(self):
        kp = KernelParams(alpha=0.5, beta=0.0, lam=1.0)
        assert creep_kernel_integral(kp, 4.0).value == pytest.approx(
            2.0 / gamma(1.5), rel=1e-14
        )
        assert creep_kernel_integral(kp, 4.0).value == pytest.approx(
            2.2567583, abs=1e-7
        )

    def test_against_quadrature_oracle(self):
        # integrate the bounded factor K(s)*s**alpha against the algebraic
        # weight s**(-alpha), so the endpoint singularity is handled by the
        # quadrature rule, not by us
        from scipy.integrate import quad

        kp = KernelParams(alpha=0.5, beta=0.1, lam=1.0)

        def smooth_factor(s):
            if s == 0.0:
                return 1.0 / gamma(1.0 - kp.alpha)  # limit of K(s)*s**alpha
            return creep_kernel(kp, s).value * s ** kp.alpha

        oracle, est = quad(smooth_factor, 0.0, 2.0, weight="alg", wvar=(-0.5, 0.0))
        got = creep_kernel_integral(kp, 2.0).value
        assert abs(got - oracle) <= max(10.0 * est, 1e-7 * abs(oracle))
        assert got == pytest.approx(I_HALF_BETA01_T2, rel=1e-12)

    def test_negative_time_rejected(self):
        kp = KernelParams(alpha=0.5, beta=0.1, lam=1.0)
        with pytest.raises(DomainError):
            creep_kernel_integral(kp, -0.5)
        with pytest.raises(DomainError, match=r"got -0\.5$"):
            creep_kernel_integral(kp, np.array([[0.0, 1.0], [-0.5, -1.0]]))

    def test_overflowing_term_raises(self):
        # z = beta * t**(1 - alpha) = 20: t**c_n overflows before the terms
        # fall below abs_tol (and math.gamma would overflow after it)
        kp = KernelParams(alpha=0.5, beta=1.0, lam=0.8)
        with pytest.raises(ConvergenceError) as err:
            creep_kernel_integral(kp, 400.0)
        assert err.value.last_term == math.inf

    @given(st.floats(min_value=0.5, max_value=10.0))
    def test_derivative_consistency(self, t):
        # d/dt of the integral recovers the kernel to O(h**2)
        kp = KernelParams(alpha=0.5, beta=0.1, lam=1.0)
        h = 1e-5
        fd = (
            creep_kernel_integral(kp, t + h).value
            - creep_kernel_integral(kp, t - h).value
        ) / (2 * h)
        assert fd == pytest.approx(creep_kernel(kp, t).value, rel=1e-7)


class TestParamValidation:
    def test_alpha_domain(self):
        for alpha in (0.0, 1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="^alpha must"):
                KernelParams(alpha=alpha, beta=0.1, lam=1.0)

    def test_beta_lambda_domain(self):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="^beta must"):
                KernelParams(alpha=0.5, beta=bad, lam=1.0)
        for bad in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(DomainError, match="^lambda must"):
                KernelParams(alpha=0.5, beta=0.1, lam=bad)

    def test_rate_sum_domain(self):
        # each finite, but the relaxation series' rate beta + lambda is not
        with pytest.raises(DomainError) as err:
            KernelParams(alpha=0.5, beta=1e308, lam=1e308)
        assert str(err.value) == "beta + lambda must be finite, got inf"


@pytest.mark.parametrize("call, index", [
    (lambda: creep_kernel(KernelParams(0.5, 0.1, 1.0), 0.0), ()),
    (lambda: creep_kernel(KernelParams(0.5, 0.1, 1.0), [1.0, 2.0, -1.0]), (2,)),
    (lambda: IsochroneDataset([0.5, 1.0], [0.0, 1.0], [[1.0, 2.0], [3.0, 0.0]]),
     (1, 1)),
    (lambda: IsochroneDataset([0.5], [0.0], [[1.0]]), None),  # axis too short
], ids=["scalar", "axis", "matrix", "no-entry"])
def test_refusal_records_entry_position(call, index):
    # the position of the entry a domain rule names, in its argument
    with pytest.raises(DomainError) as err:
        call()
    assert err.value.index == index


def test_precision_loss_flag():
    # strong cancellation: the peak term dwarfs the alternating sum
    kp = KernelParams(alpha=0.1, beta=2.0, lam=1.0)
    res = creep_kernel(kp, 20.0)
    assert res.max_term > 1e12 * abs(res.value)
    assert res.precision_loss
    # per entry on an array: each entry keeps its own peak term, so
    # K(1e-60) ~ 9e5 is not flagged next to K(20)'s peak (~4e17)
    both = creep_kernel(kp, np.array([1e-60, 20.0]))
    assert both.max_term.tolist() == [creep_kernel(kp, 1e-60).max_term, res.max_term]
    assert both.precision_loss.tolist() == [False, True]
    assert not creep_kernel(kp, 1e-60).precision_loss
    # checked() refuses a lost entry, naming it and its own peak term; the
    # exact 0 at s = 0 has no terms and is never flagged
    with pytest.raises(ConvergenceError, match=re.escape(
            f"lost precision at s = 20.0: largest term {res.max_term:.3e} ")):
        both.checked(np.array([1e-60, 20.0]))
    integral = creep_kernel_integral(kp, np.array([0.0, 1e-60]))
    assert integral.precision_loss.tolist() == [False, False]
    assert integral.checked(np.array([0.0, 1e-60])) is integral.value


def test_silent_cancellation_is_flagged():
    # (alpha 0.7, beta 1, s = 28.7737): the sum is 0.34 % above the
    # 120-digit value 0.772112 at a ratio of 3.0e11, which the per-entry
    # threshold flags
    res = creep_kernel_integral(KernelParams(alpha=0.7, beta=1.0, lam=1.0), 28.7737)
    assert res.value == pytest.approx(0.772112 * 1.0034, rel=1e-4)
    assert res.max_term == pytest.approx(3.0e11 * res.value, rel=0.05)
    assert res.precision_loss


@pytest.mark.parametrize("fn, s", [
    (creep_kernel, [[1e-3, 0.5], [2.0, 7.5]]),
    (relaxation_kernel, [[1e-3, 0.5], [2.0, 7.5]]),
    (creep_kernel_integral, [[0.0, 1e-3], [2.0, 7.5]]),
])
def test_array_call_matches_scalar_calls(fn, s):
    # an array is truncated by its slowest entry, so each entry carries at
    # least as many terms as its own one-element call
    kp = KernelParams(alpha=0.4, beta=0.3, lam=0.5)
    res = fn(kp, np.array(s))
    assert res.value.shape == (2, 2)
    for si, got in zip(np.ravel(s), res.value.ravel()):
        assert abs(got - fn(kp, si).value) <= 2.0 * ABS_TOL


def _positive_guards():
    """(id, call taking the bad value, exception class, argument name) of
    every finite-and-positive argument check."""
    grid = np.linspace(0.0, 1.0, 5)
    kp, pl = KernelParams(0.5, 0.1, 1.0), PowerLaw(1.0, 1.0)

    def identify_levels(bad):
        samples = table1_fixture()
        identify(samples, fit_kernel_spline(samples), None, WeightConfig(0.9),
                 1.0, pl, strain_levels=[1.5, bad])

    return [
        ("KernelParams-lambda", lambda x: KernelParams(0.5, 0.1, x),
         DomainError, "lambda"),
        ("PowerLaw-H", lambda x: PowerLaw(x, 1.0), DomainError, "H"),
        ("PowerLaw-q", lambda x: PowerLaw(1.0, x), DomainError, "q"),
        ("simulate_creep", lambda x: simulate_creep(kp, pl, x, grid),
         DomainError, "creep stress"),
        ("simulate_relaxation", lambda x: simulate_relaxation(kp, pl, x, grid),
         DomainError, "relaxation strain"),
        *((f"WeightConfig-{name}", lambda x, name=name: WeightConfig(**{name: x}),
           DomainError, name) for name in ("lambda0", "q0", "gamma")),
        ("eta", lambda x: eta(Spline(5.0, 3500.0, -100.0, -10.0), x, pl, 1.0),
         DomainError, "sigma"),
        ("solve_q-strain", lambda x: solve_q(x, 1.0, 2.0),
         DomainError, "strain level"),
        ("solve_q-eta", lambda x: solve_q(0.5, x, 2.0), InfeasibleEtaError, "eta"),
        ("solve_q-q_bar", lambda x: solve_q(0.5, 1.0, x), DomainError, "q_bar"),
        ("identify-strain-levels", identify_levels, DomainError, "strain levels"),
    ]


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("guard", _positive_guards(), ids=lambda g: g[0])
def test_positive_guards(guard, bad):
    # the exact class and the whole message, "<name> must be finite and > 0,
    # got <value>", of each argument that must be finite and positive
    _, call, error, name = guard
    with pytest.raises(error) as caught:
        call(bad)
    assert type(caught.value) is error
    assert str(caught.value) == f"{name} must be finite and > 0, got {bad}"
