"""Segment fitting, evaluation, integration, similarity means, reference table."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from viscoident import (
    KIND_CREEP,
    KIND_RELAXATION,
    KIND_STRESS_PROGRAM,
    IsochroneDataset,
    KernelSamples,
    PowerLaw,
    ResponseHistory,
    compare_table1,
    eval_kernel_spline,
    fit_kernel_spline,
    integrate_segment_from_zero,
    phi0,
    similarity_means,
    table1_fixture,
)
from viscoident.errors import (
    DomainError,
    InsufficientDataError,
    OutOfRangeError,
    SingularDenominatorError,
)


@st.composite
def sample_sets(draw, min_n=2, max_n=12):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    steps = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=10.0),
            min_size=n,
            max_size=n,
        )
    )
    start = draw(st.floats(min_value=0.0, max_value=5.0))
    times = start + np.cumsum(steps)
    values = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=5000.0),
            min_size=n,
            max_size=n,
        )
    )
    return KernelSamples(times, np.array(values))


class TestFixture:
    def test_rows(self, table1):
        assert len(table1) == 16
        assert (table1.times[0], table1.values[0]) == (0.0, 3750.0)
        assert (table1.times[7], table1.values[7]) == (30.0, 1500.0)
        assert (table1.times[15], table1.values[15]) == (1050.0, 100.0)
        assert table1.t_star == 1050.0

    def test_validation(self):
        with pytest.raises(DomainError):
            KernelSamples(np.array([0.0, 0.0]), np.array([1.0, 2.0]))
        with pytest.raises(DomainError):
            KernelSamples(np.array([0.0, 1.0]), np.array([1.0, np.nan]))


# records built with an input that no consumer can use: (type, arguments,
# message), each refused with a DomainError; the isochrone values are
# TestSimilarityMeans' cases
RECORD_REFUSALS = {
    "samples-2d": (KernelSamples, ([[0.0, 1.0]], [[1.0, 2.0]]),
                   "sample times must be 1-d of length >= 1, got shape (1, 2)"),
    "samples-unequal": (KernelSamples, ([0.0, 1.0], [1.0]),
                        "times and values must be 1-d and equally long"),
    "samples-empty": (KernelSamples, ([], []),
                      "sample times must be 1-d of length >= 1, got shape (0,)"),
    "iso-no-level": (IsochroneDataset, ([], [0.0, 1.0], np.ones((0, 2))),
                     "strain levels must be 1-d of length >= 1, got shape (0,)"),
    "iso-one-time": (IsochroneDataset, ([1.0], [0.0], [[1.0]]),
                     "isochrone times must be 1-d of length >= 2, got shape (1,)"),
    "iso-levels-unordered": (IsochroneDataset, ([0.9, 0.5], [0.0, 1.0],
                                                np.ones((2, 2))),
                             "strain levels must be finite and strictly "
                             "increasing, got 0.5"),
    "iso-level-zero": (IsochroneDataset, ([0.0, 0.5], [0.0, 1.0],
                                          np.ones((2, 2))),
                       "strain levels must be finite and > 0, got 0.0"),
    "iso-times-unordered": (IsochroneDataset, ([1.0], [0.0, 2.0, 1.0],
                                               np.ones((1, 3))),
                            "isochrone times must be finite and strictly "
                            "increasing, got 1.0"),
    "iso-time-negative": (IsochroneDataset, ([1.0], [-1.0, 1.0],
                                             np.ones((1, 2))),
                          "isochrone times must be >= 0, got -1.0"),
    "iso-shape": (IsochroneDataset, ([1.0, 2.0], [0.0, 1.0, 2.0],
                                     np.ones((3, 2))),
                  "phi_t must have shape (2, 3), got (3, 2)"),
    "history-shape": (ResponseHistory, ([0.0, 1.0, 2.0], [1.0, 2.0],
                                        KIND_RELAXATION, 1.0),
                      "times and values must be 1-d and equally long"),
    "history-grid-unordered": (ResponseHistory, ([0.0, 1.0, 1.0],
                                                 [1.0, 0.9, 0.8],
                                                 KIND_RELAXATION, 1.0),
                               "time grid must be finite and strictly "
                               "increasing, got 1.0"),
}

# an inf or NaN axis entry, named by the one axis rule whichever record
# holds it (an inf time used to pass, then fail as a grid too fine to
# differentiate): label -> (type, axis name, arguments around the entry)
NON_FINITE_AXES = {
    "history-creep": (ResponseHistory, "time grid", lambda bad: (
        [0.0, 1.0, bad], [0.0, 1.0, 2.0], KIND_CREEP, 1.0)),
    "history-stress-program": (ResponseHistory, "time grid", lambda bad: (
        [0.0, bad, 2.0], [0.0, 1.0, 2.0], KIND_STRESS_PROGRAM, None)),
    "samples": (KernelSamples, "sample times", lambda bad: ([1.0, bad], [1.0, 2.0])),
    "iso-time": (IsochroneDataset, "isochrone times", lambda bad: (
        [1.0], [0.0, 1.0, bad], np.ones((1, 3)))),
    "iso-level": (IsochroneDataset, "strain levels", lambda bad: (
        [0.5, bad], [0.0, 1.0], np.ones((2, 2)))),
}
RECORD_REFUSALS.update(
    (f"{label}-{bad}", (record, args(bad),
                        f"{axis} must be finite and strictly increasing, got {bad}"))
    for label, (record, axis, args) in NON_FINITE_AXES.items()
    for bad in (math.inf, math.nan))


@pytest.mark.parametrize("case", RECORD_REFUSALS)
def test_record_refusals(case):
    record, args, message = RECORD_REFUSALS[case]
    with pytest.raises(DomainError) as err:
        record(*args)
    assert type(err.value) is DomainError
    assert str(err.value) == message


class TestFit:
    def test_row2_coefficients(self, table1_segments):
        seg = table1_segments[1]
        assert seg.B == 3500.0
        assert seg.twoC == pytest.approx(-100.0, rel=1e-14)
        assert seg.threeD == pytest.approx(-10.0, rel=1e-14)

    def test_row4_coefficients(self, table1_segments):
        seg = table1_segments[3]
        assert seg.twoC == pytest.approx(-7000.0 / 51.0, rel=1e-14)
        assert seg.threeD == pytest.approx(-350.0 / 51.0, rel=1e-14)
        assert seg.twoC == pytest.approx(-137.25, abs=5e-3)
        assert seg.threeD == pytest.approx(-6.86, abs=5e-3)

    def test_constant_samples_flat_segments(self):
        s = KernelSamples(np.array([0.0, 2.0, 5.0]), np.full(3, 7.5))
        segs = fit_kernel_spline(s)
        assert all(seg.twoC == 0.0 and seg.threeD == 0.0 for seg in segs)
        for t in (0.0, 1.3, 2.0, 4.9, 5.0):
            assert eval_kernel_spline(segs, t) == 7.5

    def test_first_segment_flat(self, table1_segments):
        assert table1_segments[0].twoC == 0.0
        assert table1_segments[0].threeD == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(InsufficientDataError):
            fit_kernel_spline(KernelSamples(np.array([1.0]), np.array([2.0])))

    def test_singular_denominator_named(self):
        # 2*t_2 == h_1 requires t_1 = -t_2; times are only required increasing
        s = KernelSamples(np.array([-5.0, 5.0]), np.array([10.0, 20.0]))
        with pytest.raises(SingularDenominatorError) as err:
            fit_kernel_spline(s)
        assert err.value.knot_index == 2

    @pytest.mark.parametrize("scale", [1e-200, 1e-160])
    def test_tiny_denominator_named(self, scale):
        # h_1 * (2*t_2 - h_1) underflows to 0 at 1e-200 and leaves a
        # subnormal 3e-320 at 1e-160, which overflows the coefficient
        s = KernelSamples(scale * np.arange(1.0, 5.0), np.array([5.0, 4.0, 3.5, 3.0]))
        with pytest.raises(SingularDenominatorError, match="at knot 2 ") as err:
            fit_kernel_spline(s)
        assert err.value.knot_index == 2

    @given(sample_sets())
    def test_knot_interpolation_exact(self, samples):
        segs = fit_kernel_spline(samples)
        for t, value in zip(samples.times, samples.values):
            assert eval_kernel_spline(segs, float(t)) == value

    @given(sample_sets())
    def test_ratio_identity_exact(self, samples):
        for seg in fit_kernel_spline(samples)[1:]:
            assert seg.twoC == 2.0 * seg.t * seg.threeD


class TestEval:
    def test_values_from_printed_rows(self, table1_segments):
        assert eval_kernel_spline(table1_segments, 5.0) == 3500.0
        assert eval_kernel_spline(table1_segments, 6.0) == pytest.approx(
            3500.0 - 100.0 - 10.0, rel=1e-14
        )

    def test_half_open_selection(self, table1_segments):
        # a knot belongs to the segment it anchors
        assert eval_kernel_spline(table1_segments, 7.0) == 3250.0
        assert eval_kernel_spline(table1_segments, 1050.0) == 100.0

    def test_out_of_range(self, table1_segments):
        with pytest.raises(OutOfRangeError):
            eval_kernel_spline(table1_segments, -0.5)
        with pytest.raises(OutOfRangeError):
            eval_kernel_spline(table1_segments, 1050.1)

    def test_out_of_range_message_names_first_entry(self, table1_segments):
        # one line naming the first time past the range, not the whole array
        with pytest.raises(OutOfRangeError) as err:
            eval_kernel_spline(table1_segments, np.linspace(0.0, 2000.0, 12))
        assert str(err.value) == ("t must lie in the fitted range [0.0, 1050.0], "
                                  "got 1090.909090909091")

    def test_nan_is_out_of_range(self, table1_segments):
        for t in (math.nan, np.array([5.0, math.nan])):
            with pytest.raises(OutOfRangeError):
                eval_kernel_spline(table1_segments, t)


class TestIntegrate:
    def test_zero_knot(self, table1_segments):
        assert integrate_segment_from_zero(table1_segments[0]) == 0.0

    def test_row2_hand_value(self, table1_segments):
        # 3500*5 - (-50)*25 + (-10/3)*125
        assert integrate_segment_from_zero(table1_segments[1]) == pytest.approx(
            55000.0 / 3.0, rel=1e-14
        )

    def test_constant_segment(self):
        s = KernelSamples(np.array([1.0, 4.0]), np.array([2.5, 2.5]))
        segs = fit_kernel_spline(s)
        assert integrate_segment_from_zero(segs[1]) == pytest.approx(10.0, rel=1e-14)


class TestSimilarityMeans:
    def test_perfect_similarity(self):
        pl = PowerLaw(H=2.0, q=2.0)
        eps = np.array([0.5, 1.0, 2.0])
        inst = np.array([phi0(pl, e) for e in eps])
        data = IsochroneDataset(eps, np.array([0.0, 1.0]),
                                np.column_stack([inst, inst]))
        assert similarity_means(data, pl) == pytest.approx([1.0, 1.0], rel=1e-14)

    def test_exact_scaling_recovered(self):
        pl = PowerLaw(H=2.0, q=2.0)
        eps = np.array([0.5, 1.0, 2.0])
        inst = np.array([phi0(pl, e) for e in eps])
        c = 3.7
        data = IsochroneDataset(eps, np.array([0.0, 1.0]),
                                np.column_stack([inst / c, inst / c]))
        assert similarity_means(data, pl) == pytest.approx([c, c], rel=1e-14)

    def test_two_term_hand_value(self):
        pl = PowerLaw(H=2.0, q=2.0)  # phi0(eps) = eps**2
        data = IsochroneDataset(
            np.array([2.0, 3.0]),
            np.array([0.0, 1.0]),
            np.array([[2.0, 2.0], [3.0, 3.0]]),
        )
        assert similarity_means(data, pl)[1] == pytest.approx(35.0 / 13.0, rel=1e-14)

    def test_degenerate_column(self):
        # a zero column is refused when the dataset is built, so no
        # similarity mean ever divides by a zero column
        with pytest.raises(DomainError, match=r"^isochrone values must be "
                           r"finite and > 0, got 0\.0$"):
            IsochroneDataset(
                np.array([1.0, 2.0]),
                np.array([0.0, 1.0]),
                np.array([[1.0, 0.0], [2.0, 0.0]]),
            )

    @pytest.mark.parametrize("value, shown", [
        (-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf"),
    ], ids=["negative", "nan", "inf"])
    def test_nonpositive_or_nan_value_refused(self, value, shown):
        # one bad value refuses the dataset: no route derives samples, or
        # blames an underflow, from a matrix it holds
        phi_t = np.array([[1.0, value, 1.2], [2.0, 2.0, 2.4]])
        with pytest.raises(DomainError, match=rf"^isochrone values must be "
                           rf"finite and > 0, got {shown}$"):
            IsochroneDataset(np.array([1.0, 2.0]), np.arange(3.0), phi_t)

    def test_overflowing_column(self):
        # column 2's squares would overflow unscaled; its mean is
        # (1*1e200 + 2*2e200) / (1e400 + 4e400) = 1e-200
        pl = PowerLaw(H=1.0, q=1.0)
        data = IsochroneDataset(
            np.array([1.0, 2.0]),
            np.array([0.0, 1.0]),
            np.array([[1.0, 1e200], [2.0, 2e200]]),
        )
        assert similarity_means(data, pl) == pytest.approx([1.0, 1e-200],
                                                           rel=1e-14)

    def test_underflowing_column(self):
        # the squares of 1e-170 underflow unscaled, as if the column were zero
        pl = PowerLaw(H=1.0, q=1.0)
        data = IsochroneDataset(
            np.array([1.0, 2.0]),
            np.array([0.0, 1.0]),
            np.array([[1.0, 1e-170], [2.0, 2e-170]]),
        )
        assert similarity_means(data, pl) == pytest.approx([1.0, 1e170],
                                                           rel=1e-14)

    @pytest.mark.parametrize("power", [-560, 600])
    def test_power_of_two_scale_is_exact(self, power):
        pl = PowerLaw(H=1.3, q=1.5)
        eps = np.array([0.5, 0.9, 1.4])
        phi_t = np.array([[0.3, 0.29, 0.27], [0.7, 0.68, 0.61], [1.3, 1.2, 1.1]])
        data = IsochroneDataset(eps, np.arange(3.0), phi_t)
        scaled = IsochroneDataset(eps, data.times, np.ldexp(phi_t, power))
        assert np.array_equal(similarity_means(scaled, pl),
                              np.ldexp(similarity_means(data, pl), -power))

    @given(
        st.lists(st.floats(min_value=0.2, max_value=50.0), min_size=2, max_size=5),
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.5, max_value=3.0),
    )
    def test_scale_equivariance(self, values, n_times, c, q):
        pl = PowerLaw(H=1.3, q=q)
        eps = np.linspace(0.5, 2.0, len(values))
        phi_t = np.abs(np.outer(values, np.linspace(1.0, 2.0, n_times))) + 0.1
        data = IsochroneDataset(eps, np.arange(n_times, dtype=float), phi_t)
        scaled = IsochroneDataset(eps, data.times, phi_t * c)
        base = similarity_means(data, pl)
        assert similarity_means(scaled, pl) == pytest.approx(base / c, rel=1e-12)


class TestTable1Comparison:
    def test_flags_exactly_rows_3_and_5(self):
        report = compare_table1()
        flagged = [row["j"] for row in report if row["flagged"]]
        assert flagged == [3, 5]

    def test_row3_row5_values(self):
        report = compare_table1()
        assert report[2]["printed_2C"] == -149.0
        assert report[2]["computed_2C"] == pytest.approx(-145.833333, abs=1e-5)
        assert report[4]["printed_2C"] == -167.0
        assert report[4]["computed_2C"] == pytest.approx(-163.636364, abs=1e-5)

    def test_unflagged_rows_within_tolerance(self):
        for row in compare_table1():
            if row["flagged"]:
                continue
            # consistent rows are within 2% or inside the printed resolution
            assert row["rel_2C"] <= 0.02 or abs(
                row["computed_2C"] - row["printed_2C"]
            ) <= 0.5
