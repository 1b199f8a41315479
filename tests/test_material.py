"""Power law, forward simulators, kernel extraction, resolvent consistency."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from viscoident import (
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
from viscoident.errors import DomainError, InsufficientDataError

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

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            PowerLaw(0.0, 1.0)
        with pytest.raises(DomainError):
            PowerLaw(1.0, -2.0)

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
        with pytest.raises(DomainError):
            simulate_creep(kp, pl, -1.0, np.array([0.0, 1.0]))


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
        out = relaxation_kernel_from_history(hist, PowerLaw(1.0, 1.0), 0.5)
        assert np.allclose(out.values, 0.0)

    def test_linear_history_hand_value(self):
        # sigma = phi0(eps)*(1 - c*t) with H = q = eps = lam = 1 gives c
        c = 0.25
        t = np.linspace(0.0, 2.0, 9)
        hist = ResponseHistory(t, 1.0 - c * t, KIND_RELAXATION, 1.0)
        out = relaxation_kernel_from_history(hist, PowerLaw(1.0, 1.0), 1.0)
        assert out.values == pytest.approx(np.full_like(t, c), rel=1e-12)

    def test_round_trip_against_kernel(self):
        kp = KernelParams(0.5, 0.0, 0.1)
        pl = PowerLaw(1.0, 1.0)
        grid = np.linspace(0.0, 2.0, 512)
        hist = simulate_relaxation(kp, pl, 1.0, grid)
        out = relaxation_kernel_from_history(hist, pl, kp.lam)
        inner = (out.times >= 0.1) & (out.times <= 1.9)
        expected = np.array(
            [relaxation_kernel(kp, t).value for t in out.times[inner]]
        )
        assert np.max(np.abs(out.values[inner] / expected - 1.0)) < 0.01

    def test_preconditions(self):
        t = np.linspace(0.0, 1.0, 5)
        creep_like = ResponseHistory(t, t + 1.0, "creep-at-constant-stress", 1.0)
        with pytest.raises(DomainError):
            relaxation_kernel_from_history(creep_like, PowerLaw(1.0, 1.0), 1.0)
        short = ResponseHistory(np.array([0.0, 1.0]), np.array([1.0, 0.9]),
                                KIND_RELAXATION, 1.0)
        with pytest.raises(InsufficientDataError):
            relaxation_kernel_from_history(short, PowerLaw(1.0, 1.0), 1.0)
        ok = ResponseHistory(t, 1.0 - 0.1 * t, KIND_RELAXATION, 1.0)
        with pytest.raises(DomainError):
            relaxation_kernel_from_history(ok, PowerLaw(1.0, 1.0), 0.0)


class TestConvolution:
    def test_unit_data_reproduces_kernel_integral(self):
        # (K * 1)(t) is exactly the kernel integral; the product rule is
        # series-exact for constant data
        kp = KernelParams(0.5, 0.1, 0.2)
        t = np.linspace(0.0, 4.0, 33)
        conv = hereditary_convolution(kp.alpha, kp.beta, t, np.ones_like(t))
        expected = np.array([creep_kernel_integral(kp, ti).value for ti in t])
        assert conv == pytest.approx(expected, rel=1e-12)


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

    def test_coarse_grid_rejected(self):
        kp = KernelParams(0.5, 0.1, 0.2)
        with pytest.raises(InsufficientDataError):
            resolvent_mismatch(kp, PowerLaw(1.0, 1.0), self.constant_stress(7))


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
