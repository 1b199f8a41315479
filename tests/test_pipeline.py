"""Ingestion, run modes, report serialization, CLI contract."""

import hashlib
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import viscoident as v
import viscoident.pipeline as pipeline
from viscoident.cli import build_parser, main
from viscoident.errors import DomainError, ParseError, ValidationError, ViscoidentError
from viscoident.pipeline import (
    Report,
    RunConfig,
    derive_samples_from_isochrones,
    extract_creep_kernel_samples,
    fmt9,
    fmt9_columns,
    ingest_isochrones,
    ingest_kernel_samples,
    _parse_table,
    run,
    write_isochrones_csv,
    write_samples_csv,
)

# floats whose rendering has its own branch: signed zeros, subnormals, the
# exponent extremes, non-finite values, integral values past 9 digits
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, -1e-300,
    1e300, -1e300, 1.7976931348623157e308, float("nan"), float("inf"),
    float("-inf"), 123456789.0, 1234567891.0, 2.5e16, 1.0, 1e16, 0.1,
)


# the CLI exit code of every error class: 1 parse, 2 validation,
# 3 numerical, 4 no root
EXIT_CODES = {
    "ParseError": 1,
    "ValidationError": 2, "DomainError": 2, "InsufficientDataError": 2,
    "OutOfRangeError": 2,
    "ConvergenceError": 3, "SingularDenominatorError": 3,
    "DegenerateNormalizationError": 3, "DegenerateDesignError": 3,
    "PoleError": 3, "InfeasibleEtaError": 3,
    "NoRootBracketError": 4, "NoRootError": 4,
}


# one text that both ingesters read: a header, then (j, t, K) or strain rows
BLANK_LINES_TEXT = "eps,0,1\n\n0.5,2,1.8\n\n1.0,4,x\n"
# (ingester, file text, error class, row, message); "{path}" in a message
# stands for the file, and a None error class means the text is accepted as
# the same file without blank lines and carriage returns. Rows count
# physical lines.
INGEST_CASES = {
    "samples-header-only": ("samples", "t,K\n", ParseError, None,
                            "{path}: file holds no data rows"),
    "iso-header-only": ("isochrones", "eps,0,1\n", ParseError, None,
                        "{path}: need a time header plus strain rows"),
    "samples-blank-lines": ("samples", "t,K\n0,10\n\n1,8\n\n2,x\n", ParseError,
                            6, "non-numeric field in '2,x'"),
    "iso-blank-lines": ("isochrones", "eps,0,1\n\n0.5,2,1.8\n\n1.0,4,3.6\n",
                        None, None, None),
    "samples-non-numeric-last": ("samples", "0,10\n1,8\n2,abc\n", ParseError,
                                 3, "non-numeric field in '2,abc'"),
    "iso-non-numeric-last": ("isochrones", "eps,0,1\n0.5,2,1.8\n1.0,4,abc\n",
                             ParseError, 3, "non-numeric field in '1.0,4,abc'"),
    "samples-trailing-comma": ("samples", "t,K\n0,10\n1,8,\n", ParseError, 3,
                               "ragged row: 3 fields where 2 expected"),
    "iso-trailing-comma": ("isochrones", "eps,0,1\n0.5,2,1.8,\n", ParseError,
                           2, "ragged row: 4 fields where 3 expected"),
    "samples-crlf": ("samples", "t,K\r\n0,10\r\n1,8\r\n", None, None, None),
    "iso-crlf": ("isochrones", "eps,0,1\r\n0.5,2,1.8\r\n", None, None, None),
    "iso-ragged": ("isochrones", "eps,0,1\n0.5,2,1.8\n1.0,4\n", ParseError, 3,
                   "ragged row: 2 fields where 3 expected"),
    "samples-mixed-width": ("samples", "0,10\n1,1,8\n", ParseError, 2,
                            "ragged row: 3 fields where 2 expected"),
    "samples-mixed-width-index": ("samples", "j,t,K\n1,0,10\n1,8\n", ParseError,
                                  3, "ragged row: 2 fields where 3 expected"),
    "samples-blank-lines-index": ("samples", BLANK_LINES_TEXT, ParseError, 5,
                                  "non-numeric field in '1.0,4,x'"),
    "iso-blank-lines-non-numeric": ("isochrones", BLANK_LINES_TEXT, ParseError,
                                    5, "non-numeric field in '1.0,4,x'"),
    "iso-header-after-blank": ("isochrones", "\neps,0,x\n0.5,2,1.8\n",
                               ParseError, 2,
                               "time header holds a non-numeric field"),
    "iso-nonpositive-after-blank": ("isochrones", "eps,0,1\n\n0.5,2,0\n",
                                    ValidationError, 3,
                                    "isochrone values must be finite and > 0, got 0.0"),
    "iso-non-finite-value": ("isochrones", "eps,0,1\n0.5,2,1.8\n\n1.0,4,nan\n",
                             ValidationError, 4,
                             "isochrone values must be finite and > 0, got nan"),
    "iso-non-finite-level": (
        "isochrones", "eps,0,1\n0.5,2,1.8\nnan,4,3.6\n", ValidationError, 3,
        "strain levels must be finite and strictly increasing, got nan"),
    "iso-non-finite-time": (
        "isochrones", "\neps,0,inf\n0.5,2,1.8\n", ValidationError, 2,
        "isochrone times must be finite and strictly increasing, got inf"),
    "iso-strain-levels-out-of-order": (
        "isochrones", "eps,0,1,2,3\n0.9,4,3.6,3.4,3.2\n0.5,2,1.8,1.7,1.6\n",
        ValidationError, 3,
        "strain levels must be finite and strictly increasing, got 0.5"),
    "iso-times-out-of-order": (
        "isochrones", "eps,0,2,1,3\n0.5,2,1.8,1.7,1.6\n0.9,4,3.6,3.4,3.2\n",
        ValidationError, 1,
        "isochrone times must be finite and strictly increasing, got 1.0"),
    "samples-nan-value": ("samples", "t,K\n0,10\n\n1,nan\n", ValidationError,
                          4, "sample values must be finite, got nan"),
    "samples-times-out-of-order": (
        "samples", "t,K\n0,10\n2,8\n\n1,7\n", ValidationError, 5,
        "sample times must be finite and strictly increasing, got 1.0"),
    "iso-negative-time": ("isochrones", "\neps,-1,1\n0.5,2,1.8\n",
                          ValidationError, 2, "isochrone times must be >= 0, got -1.0"),
    "iso-nonpositive-level": ("isochrones", "eps,0,1\n\n0,2,1.8\n1.0,4,3.6\n",
                              ValidationError, 3,
                              "strain levels must be finite and > 0, got 0.0"),
}

# data rows that both ingesters reject, as (sample row, isochrone row)
REJECTED_ROWS = {
    "comment": ("1,8 # note", "1.0,4,3.6 # note"),
    "quoted": ('1,"8"', '1.0,"4",3.6'),
    "underscore": ("1_000,8", "1_000,4,3.6"),
    "empty-field": ("1,", "1.0,,3.6"),
    "tab-separated": ("1\t8", "1.0\t4\t3.6"),
    "non-ascii-digit": ("1,\u0668", "1.0,4,\u0668"),
}


@st.composite
def float_tables(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(
        st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
                 min_size=ncols, max_size=ncols),
        max_size=6,
    ))
    return np.array(rows, dtype=float).reshape(len(rows), ncols)


@st.composite
def mixed_columns(draw):
    """Equal-length columns, each an integer array (|j| <= 999,999,999), a
    float array, a 2-d float array (a group of one to three float columns)
    or a list of ``fmt9`` fields, with the values of each column."""
    nrows = draw(st.integers(min_value=0, max_value=6))
    floats = st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
                      min_size=nrows, max_size=nrows)
    ints = st.lists(st.integers(min_value=-999_999_999, max_value=999_999_999),
                    min_size=nrows, max_size=nrows)
    columns, values = [], []
    for kind in draw(st.lists(st.sampled_from(["int", "float", "group", "text"]),
                              min_size=1, max_size=6)):
        if kind == "group":
            group = draw(st.lists(floats, min_size=1, max_size=3))
            columns.append(np.array(group, dtype=float).T)
            values += group
            continue
        vals = draw(ints if kind == "int" else floats)
        if kind == "int":
            columns.append(np.array(vals, dtype=np.int64))
        elif kind == "float":
            columns.append(np.array(vals, dtype=float))
        else:
            columns.append([fmt9(x) for x in vals])
        values.append(vals)
    return columns, values


def row_major(columns) -> tuple:
    """Every field of equal-length columns, row by row, as one tuple; a 2-d
    array is a group of columns."""
    fields = []
    for i in range(len(columns[0])):
        for col in columns:
            x = col[i] if isinstance(col, list) else col[i].tolist()
            fields += x if isinstance(x, list) else [x]
    return tuple(fields)


@st.composite
def numeral_tables(draw):
    """File text of ``%.9g`` and ``repr`` numerals with spaces, tabs and
    non-breaking spaces around the fields, LF or CRLF line ends and blank
    lines between the rows."""
    ncols = draw(st.integers(min_value=1, max_value=6))
    field = st.tuples(
        st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
        st.sampled_from(["%.9g".__mod__, repr]),
        st.text(" \t\xa0", max_size=2), st.text(" \t\xa0", max_size=2),
    )
    rows = draw(st.lists(st.lists(field, min_size=ncols, max_size=ncols),
                         min_size=1, max_size=6))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for row in rows:
        lines += draw(st.lists(st.text(" \t", max_size=2), max_size=2))
        lines.append(",".join(pad + render(x) + trail
                              for x, render, pad, trail in row))
    return end.join(lines) + end


@pytest.fixture
def table1_file(tmp_path, table1):
    path = tmp_path / "samples.csv"
    write_samples_csv(path, table1.times, table1.values)
    return path


@pytest.mark.parametrize("case", INGEST_CASES)
def test_ingestion_error_paths(tmp_path, case):
    ingester, text, error, row, message = INGEST_CASES[case]
    ingest, fields = {
        "samples": (ingest_kernel_samples, ("times", "values")),
        "isochrones": (ingest_isochrones, ("strain_levels", "times", "phi_t")),
    }[ingester]
    path = tmp_path / "input.csv"
    path.write_text(text, newline="")
    if error is None:
        clean = tmp_path / "clean.csv"
        clean.write_text(text.replace("\r", "").replace("\n\n", "\n"))
        (got, _), (want, _) = ingest(path), ingest(clean)
        assert all(np.array_equal(getattr(got, name), getattr(want, name))
                   for name in fields)
        return
    with pytest.raises(error) as err:
        ingest(path)
    assert err.value.row == row
    prefix = "" if row is None else f"row {row}: "
    assert str(err.value) == prefix + message.format(path=path)


@pytest.mark.parametrize("case", [name for name, (_, _, error, _, _)
                                  in INGEST_CASES.items()
                                  if error is ValidationError])
def test_value_refusal_quotes_the_record(tmp_path, case):
    # a file's value refusal is the record's own refusal of the arrays the
    # file holds, prefixed with the line: the readers state no rule of theirs
    ingester, text, _, row, _ = INGEST_CASES[case]
    head, *rows = filter(str.strip, text.splitlines())
    table = np.loadtxt(rows, delimiter=",", ndmin=2)
    with pytest.raises(DomainError) as own:
        if ingester == "samples":
            v.KernelSamples(table[:, -2], table[:, -1])
        else:
            times = np.array(head.split(",")[1:], dtype=float)
            v.IsochroneDataset(table[:, 0], times, table[:, 1:])
    ingest = {"samples": ingest_kernel_samples,
              "isochrones": ingest_isochrones}[ingester]
    path = tmp_path / "input.csv"
    path.write_text(text, newline="")
    with pytest.raises(ValidationError) as err:
        ingest(path)
    assert str(err.value) == f"row {row}: {own.value}"


@pytest.mark.parametrize("ingester", ["samples", "isochrones"])
@pytest.mark.parametrize("case", REJECTED_ROWS)
def test_rejected_rows(tmp_path, ingester, case):
    sample_row, iso_row = REJECTED_ROWS[case]
    path = tmp_path / "input.csv"
    if ingester == "samples":
        path.write_text(f"t,K\n0,10\n{sample_row}\n")
        ingest = ingest_kernel_samples
    else:
        path.write_text(f"eps,0,1\n0.5,2,1.8\n{iso_row}\n")
        ingest = ingest_isochrones
    with pytest.raises(ParseError) as err:
        ingest(path)
    assert err.value.row == 3


@given(numeral_tables())
def test_parse_table_matches_float(text):
    # the one numpy reader call against Python's float() field by field,
    # on the rows the ingesters hand it
    rows = list(filter(str.strip, text.splitlines()))
    want = np.array([[float(f) for f in row.split(",")] for row in rows])
    got = _parse_table(rows)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestIngestSamples:
    def test_bundled_format(self, tmp_path, table1):
        # three columns (index, t, K) with a header, as the bundled file
        from importlib import resources

        text = resources.files("viscoident.data").joinpath(
            "table1_kernel_samples.csv"
        ).read_text()
        path = tmp_path / "t1.csv"
        path.write_text(text)
        got, _ = ingest_kernel_samples(path)
        assert len(got) == 16
        assert got.t_star == 1050.0
        assert np.array_equal(got.values, table1.values)
        assert np.array_equal(got.times.view(np.uint64),
                              table1.times.view(np.uint64))

    def test_two_columns_no_header(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0,10\n1,8\n2,7\n")
        got, _ = ingest_kernel_samples(path)
        assert np.array_equal(got.times, [0.0, 1.0, 2.0])

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            ingest_kernel_samples(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            ingest_kernel_samples(tmp_path / "absent.csv")

    def test_duplicated_time_row_numbered(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("t,K\n1,10\n1,9\n")
        with pytest.raises(ValidationError) as err:
            ingest_kernel_samples(path)
        assert "strictly increasing" in str(err.value)
        assert err.value.row == 3  # rows count physical lines

    def test_non_numeric_mid_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,10\n1,oops\n")
        with pytest.raises(ParseError) as err:
            ingest_kernel_samples(path)
        assert err.value.row == 2

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0,10\n1,nan\n")
        with pytest.raises(ValidationError) as err:
            ingest_kernel_samples(path)
        assert err.value.row == 2

    def test_non_finite_row_counts_physical_lines(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,K\n0,10\n\n1,nan\n")
        with pytest.raises(ValidationError) as err:
            ingest_kernel_samples(path)
        assert err.value.row == 4

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0,1,2,3\n")
        with pytest.raises(ParseError):
            ingest_kernel_samples(path)

    @pytest.mark.parametrize("header", ["", "t,K\n", " t , K \n"])
    @pytest.mark.parametrize("index", [False, True])
    def test_padded_fields(self, tmp_path, header, index):
        rows = [("0.001", "2.5"), ("0.002", "1.25"), ("0.004", "1e-3")]
        if index:
            rows = [(str(j), *row) for j, row in enumerate(rows, start=1)]
            header = header.replace("t", "j , t", 1) if header else ""
        bare = tmp_path / "bare.csv"
        bare.write_text(header + "".join(",".join(r) + "\n" for r in rows))
        padded = tmp_path / "padded.csv"
        padded.write_text(header + "".join(
            " " + " , ".join(r) + " \n" for r in rows
        ))
        (want, _), (got, _) = (ingest_kernel_samples(bare),
                               ingest_kernel_samples(padded))
        assert np.array_equal(got.times, [0.001, 0.002, 0.004])
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)


class TestIngestIsochrones:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "iso.csv"
        path.write_text("eps,0,1\n0.5,2.0,1.8\n1.0,4.0,3.6\n")
        data, _ = ingest_isochrones(path)
        assert data.phi_t.shape == (2, 2)
        assert np.array_equal(data.strain_levels, [0.5, 1.0])

    def test_column_proportional_to_instantaneous(self, tmp_path):
        # feeds the scale-recovery property of the similarity means
        pl = v.PowerLaw(H=2.0, q=2.0)
        eps = [0.5, 1.0, 2.0]
        lines = ["eps,0,1"]
        for e in eps:
            inst = v.phi0(pl, e)
            lines.append(f"{e},{inst},{inst / 2.0}")
        path = tmp_path / "iso.csv"
        path.write_text("\n".join(lines) + "\n")
        means = v.similarity_means(ingest_isochrones(path)[0], pl)
        assert means == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("eps,0,1\n0.5,2.0\n")
        with pytest.raises(ParseError) as err:
            ingest_isochrones(path)
        assert err.value.row == 2

    def test_padded_fields(self, tmp_path):
        bare = tmp_path / "bare.csv"
        bare.write_text("eps,0,1\n0.5,2.0,1.8\n1.0,4.0,3.6\n")
        padded = tmp_path / "padded.csv"
        padded.write_text(
            " eps , 0 , 1 \n 0.5 , 2.0 , 1.8 \n1.0 ,4.0, 3.6\n"
        )
        (want, _), (got, _) = ingest_isochrones(bare), ingest_isochrones(padded)
        assert np.array_equal(got.strain_levels, want.strain_levels)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.phi_t, want.phi_t)

    def test_padded_ragged_row_numbered(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(" eps , 0 , 1 \n 0.5 , 2.0 , 1.8 \n 1.0 , 4.0 \n")
        with pytest.raises(ParseError) as err:
            ingest_isochrones(path)
        assert err.value.row == 3
        assert "2 fields where 3 expected" in str(err.value)

    def test_zero_entry(self, tmp_path):
        path = tmp_path / "zero.csv"
        path.write_text("eps,0,1\n0.5,2.0,0.0\n1.0,4.0,3.6\n")
        with pytest.raises(ValidationError):
            ingest_isochrones(path)


class TestSampleDerivation:
    def test_extraction_matches_scaled_kernel(self):
        kp = v.KernelParams(0.5, 0.0, 0.8)
        pl = v.PowerLaw(1.0, 1.5)
        hist = v.simulate_creep(kp, pl, 1.0, np.linspace(0.0, 0.005, 64))
        got = extract_creep_kernel_samples(hist, pl)
        expected = np.array(
            [kp.lam * v.creep_kernel(kp, t).value for t in got.times]
        )
        inner = slice(3, -3)
        assert np.max(
            np.abs(got.values[inner] / expected[inner] - 1.0)
        ) < 0.05

    def test_isochrone_route_matches_extraction(self):
        kp = v.KernelParams(0.5, 0.0, 0.8)
        pl = v.PowerLaw(1.0, 1.5)
        grid = np.linspace(0.0, 0.005, 64)
        hist = v.simulate_creep(kp, pl, 1.0, grid)
        direct = extract_creep_kernel_samples(hist, pl)
        # exact-similarity isochrones over the same grid
        s_fun = np.array([v.phi0(pl, e) for e in hist.values])
        iso = v.IsochroneDataset(
            hist.values[1:], grid,
            np.array([[v.phi0(pl, e) / sj for sj in s_fun] for e in hist.values[1:]]),
        )
        derived = derive_samples_from_isochrones(iso, pl)
        assert np.array_equal(derived.times, direct.times)
        assert derived.values == pytest.approx(direct.values, rel=1e-9)

    def test_vanishing_similarity_means(self):
        # phi0 at q = 1e300 underflows to 0 below strain 1, so every mean is 0
        # and the derived samples would all be 0
        iso = v.IsochroneDataset([0.5, 0.9], [0.0, 1.0, 2.0, 3.0],
                                 [[2.0, 1.8, 1.7, 1.6], [4.0, 3.6, 3.4, 3.2]])
        with pytest.raises(DomainError, match=r"^the similarity mean "
                           r"underflows to 0 at t = 0: the kernel samples "
                           r"are undefined$"):
            derive_samples_from_isochrones(iso, v.PowerLaw(1.0, 1e300))

    def test_underflowing_similarity_function(self):
        # phi0 at q = 1e-300 flushes every strain after t = 0 to a stress of
        # 0: the samples would all be 0 (the suite turns RuntimeWarnings
        # into errors)
        pl = v.PowerLaw(1.0, 1e-300)
        hist = v.simulate_creep(v.KernelParams(0.5, 0.0, 0.8), pl, 1.0,
                                np.linspace(0.0, 0.005, 64))
        with pytest.raises(DomainError, match=r"^the similarity function "
                           r"phi0\(eps\)/sigma underflows to 0 at "
                           r"t = 7\.93650794e-05: the kernel samples are "
                           r"undefined$"):
            extract_creep_kernel_samples(hist, pl)

    def test_overflowing_similarity_function(self):
        # a held stress that is finite and > 0 but tiny: phi0(eps)/sigma
        # overflows at every time, the first being t = 0 (the suite turns
        # RuntimeWarnings into errors)
        t = np.linspace(0.0, 1.0, 5)
        hist = v.ResponseHistory(t, 1.0 + 0.1 * t, v.KIND_CREEP, 1e-310)
        with pytest.raises(DomainError, match=r"^the similarity function "
                           r"phi0\(eps\)/sigma overflows at t = 0: the "
                           r"kernel samples are undefined$"):
            extract_creep_kernel_samples(hist, v.PowerLaw(1.0, 1.0))

    @pytest.mark.parametrize("route, kind, other", [
        (extract_creep_kernel_samples, v.KIND_CREEP, v.KIND_RELAXATION),
        (v.relaxation_kernel_from_history, v.KIND_RELAXATION, v.KIND_CREEP),
    ], ids=["creep", "relaxation"])
    def test_record_of_the_wrong_kind(self, route, kind, other):
        # the twin routes refuse a record of the other kind with one error
        t = np.linspace(0.0, 1.0, 5)
        hist = v.ResponseHistory(t, 1.0 + 0.1 * t, other, 1.0)
        with pytest.raises(DomainError, match=rf"^need a {kind} history, "
                           rf"got kind '{other}'$"):
            route(hist, v.PowerLaw(1.0, 1.0))

    def test_only_a_t0_row_is_dropped(self):
        # the kernel is singular at t = 0 only
        pl = v.PowerLaw(1.0, 1.0)
        phi_t = np.array([[1.0, 0.9, 0.85, 0.82]])
        for t0 in (0.0, 0.5):
            times = t0 + np.arange(4.0)
            iso = v.IsochroneDataset(np.array([1.0]), times, phi_t)
            derived = derive_samples_from_isochrones(iso, pl)
            assert np.array_equal(derived.times, times[times > 0.0])


class TestReport:
    def test_json_round_trip_lossless(self, table1_file, tmp_path):
        cfg = RunConfig(mode="identify", input=str(table1_file), lambda0=0.9,
                        eval_at_knots=True, no_timestamp=True)
        report = run(cfg)
        assert json.loads(report.to_json()) == report.to_json_dict()

    def test_nine_significant_digits(self):
        from viscoident.pipeline import fmt9

        assert fmt9(1.0 / 3.0) == "0.333333333"
        assert fmt9(55000.0 / 3.0) == "18333.3333"
        assert fmt9(7) == "7"

    @given(float_tables())
    def test_table_rows_match_scalar_rendering(self, table):
        assert "".join(fmt9_columns([table])) == "".join(
            ",".join(fmt9(x) for x in row) + "\n" for row in table
        )

    def test_table_rows_special_values(self):
        table = np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]])
        assert "".join(fmt9_columns([table])) == "".join(
            ",".join(fmt9(x) for x in row) + "\n" for row in table
        )
        assert ("".join(fmt9_columns([np.array([[-0.0, 2.5e16, 123456789.0]])]))
                == "-0,2.5e+16,123456789\n")

    def test_table_rows_empty(self):
        assert "".join(fmt9_columns([np.empty((0, 3))])) == ""
        assert "".join(fmt9_columns((np.arange(0), np.empty((0, 2)), []))) == ""

    @given(mixed_columns())
    @example(([np.array([7, -2]), np.array([[0.5, 1e300], [-0.0, 2.5e16]]),
               ["0.1", "nan"]],
              [[7, -2], [0.5, -0.0], [1e300, 2.5e16], [0.1, float("nan")]]))
    def test_mixed_columns_match_scalar_rendering(self, case):
        columns, values = case
        assert "".join(fmt9_columns(columns)) == "".join(
            ",".join(fmt9(col[i]) for col in values) + "\n"
            for i in range(len(values[0])))
        # below 1e9 an integer's %d is the %.9g of the same integral float
        for col in columns:
            if isinstance(col, np.ndarray) and col.dtype == np.int64:
                assert ("".join(fmt9_columns([col]))
                        == "".join(fmt9_columns([col.astype(float)])))

    def test_columns_of_unequal_length(self):
        with pytest.raises(ValueError):
            fmt9_columns((np.arange(3), np.ones(2)))
        with pytest.raises(ValueError):
            fmt9_columns((["1", "2"], np.ones(3)))

    @pytest.mark.parametrize("mode", ["identify", "table1", "validate"])
    def test_json_tables_are_row_dicts(self, table1_file, mode):
        report = run(RunConfig(mode=mode, input=str(table1_file), lambda0=0.9,
                               eval_at_knots=True, no_timestamp=True))
        ((name, table),) = report.tables.items()
        records = report.to_json_dict()["tables"][name]
        assert [list(r) for r in records] == [list(table.columns)] * len(records)
        assert report.to_text().endswith(
            ",".join(table.columns) + "\n" + "".join(
                ",".join(str(r[c]) for c in table.columns) + "\n"
                for r in records))
        if "j" in table.columns:
            assert [r["j"] for r in records] == list(range(1, 17))

    @pytest.mark.parametrize("nrows", [1, 3, 4, 5, 9])
    def test_blocks_match_one_format_call(self, monkeypatch, nrows):
        # 12 fields a block: 3 columns give blocks of 4 rows, 15 give 1 row
        monkeypatch.setattr(pipeline, "BLOCK_FIELDS", 12)
        rng = np.random.default_rng(nrows)
        for ncols in (3, 15):
            table = 10.0 ** rng.uniform(-300, 300, (nrows, ncols))
            want = ((",".join(["%.9g"] * ncols) + "\n") * nrows
                    % tuple(table.ravel().tolist()))
            blocks = list(fmt9_columns([table]))
            assert "".join(blocks) == want
            assert len(blocks) == -(-nrows // max(1, 12 // ncols))
            assert "".join(fmt9_columns((table[:, 0], table[:, 1:]))) == want
        ints, floats = np.arange(nrows) - 2, 10.0 ** rng.uniform(-9, 9, nrows)
        fields = [fmt9(x) for x in rng.uniform(-1.0, 1.0, nrows)]
        group = 10.0 ** rng.uniform(-9, 9, (nrows, 15))
        # an int column, a float group (at 15 columns, wider than a block)
        # and rendered fields
        for columns, formats in [
            ((ints, floats, fields), ["%d", "%.9g", "%s"]),
            ((ints, floats, fields) * 5, ["%d", "%.9g", "%s"] * 5),
            ((ints, group[:, :2], fields), ["%d", "%.9g", "%.9g", "%s"]),
            ((ints, group, fields), ["%d", *["%.9g"] * 15, "%s"]),
        ]:
            want = ((",".join(formats) + "\n") * nrows) % row_major(columns)
            blocks = list(fmt9_columns(columns))
            assert "".join(blocks) == want
            assert len(blocks) == -(-nrows // max(1, 12 // len(formats)))

    def test_unequal_columns_open_no_file(self, tmp_path):
        path = tmp_path / "samples.csv"
        with pytest.raises(ValueError):
            write_samples_csv(path, np.arange(3.0), np.ones(2))
        assert not path.exists()
        with pytest.raises(ValueError):
            fmt9_columns((np.ones(3), np.ones((2, 2))))

    def test_csv_writers_match_scalar_rendering(self, tmp_path):
        rng = np.random.default_rng(20261018)
        n = 40
        times = np.cumsum(rng.uniform(1e-6, 1e3, n))
        values = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
        path = tmp_path / "samples.csv"
        write_samples_csv(path, times, values, header="t,eps")
        want = ["t,eps"] + [f"{fmt9(t)},{fmt9(x)}" for t, x in zip(times, values)]
        assert path.read_text() == "\n".join(want) + "\n"

        iso = v.IsochroneDataset(
            strain_levels=np.cumsum(rng.uniform(1e-3, 1.0, 7)),
            times=times[:9],
            phi_t=10.0 ** rng.uniform(-20, 20, (7, 9)),
        )
        path = tmp_path / "iso.csv"
        write_isochrones_csv(path, iso, [fmt9(t) for t in iso.times])
        want = ["eps," + ",".join(fmt9(t) for t in iso.times)]
        for eps_i, row in zip(iso.strain_levels, iso.phi_t):
            want.append(fmt9(eps_i) + "," + ",".join(fmt9(x) for x in row))
        assert path.read_text() == "\n".join(want) + "\n"


class TestRunModes:
    @pytest.mark.parametrize("mode", ["identify", "table1", "validate"])
    def test_each_input_is_read_once(self, tmp_path, table1_file, monkeypatch,
                                     mode):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(table1_file.read_bytes().replace(b"\n", b"\r\n"))
        digest = "sha256:" + hashlib.sha256(crlf.read_bytes()).hexdigest()
        opened, path_open = [], Path.open
        monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs: (
            opened.append(self) or path_open(self, *args, **kwargs)))
        report = run(RunConfig(mode=mode, input=str(crlf), lambda0=0.9,
                               eval_at_knots=True, no_timestamp=True))
        assert opened == [crlf]
        assert report.header["input-digest.samples"] == digest

    def test_identify_on_reference_table_at_knots(self, table1_file, table1):
        cfg = RunConfig(mode="identify", input=str(table1_file), lambda0=0.9,
                        eval_at_knots=True, no_timestamp=True)
        report = run(cfg)
        assert report.result["lambda_ratio"] == "1"
        assert report.result["lambda_hat"] == "0.9"
        assert report.result["q_hat"] == "nan"
        samples = report.tables["samples"]
        assert samples.columns == ("j", "t", "K", "model", "weight", "residual")
        rows = [line.split(",") for line in samples.rows.splitlines()]
        assert len(rows) == 16
        assert [row[:3] for row in rows] == [
            [fmt9(j), fmt9(t), fmt9(k)]
            for j, (t, k) in enumerate(zip(table1.times, table1.values), 1)
        ]

    @pytest.mark.parametrize("kind", ["creep", "relaxation"])
    @pytest.mark.parametrize("grid", [(0.0, 4e-5, 9), (0.0, 8.0, 9)],
                             ids=["exponent", "integral"])
    def test_one_time_column(self, tmp_path, kind, grid):
        # every file a simulate run writes shows a time as the history does:
        # the grid starts at 0 and the samples drop exactly that row
        run(RunConfig(mode="simulate", kind=kind, grid=grid,
                      output=str(tmp_path / "run"), no_timestamp=True))

        def lines(name):
            return (tmp_path / f"run_{name}.csv").read_text().splitlines()

        history = [line.split(",")[0] for line in lines("history")[1:]]
        assert history == [fmt9(t) for t in np.linspace(*grid)]
        for name in ("kernel_samples", "model_samples"):
            assert [line.split(",")[0] for line in lines(name)[1:]] == history[1:]
        if kind == "creep":
            assert lines("isochrones")[0].split(",")[1:] == history[1:]

    def test_table1_mode_flags(self):
        report = run(RunConfig(mode="table1", no_timestamp=True))
        assert report.result["flagged_rows"] == "3;5"
        assert report.header["comparison-tolerance"] == "0.02"

    def test_validate_mode_passes_on_fixture(self, table1_file):
        report = run(RunConfig(mode="validate", input=str(table1_file),
                               no_timestamp=True))
        assert report.result["failed"] == "none"
        assert [r["check"] for r in report.tables["validate"].records()] == [
            "positive-values", "knot-interpolation", "coefficient-ratio-2t",
            "first-segment-flat"]

    def test_simulate_then_identify_closure(self, tmp_path):
        base = tmp_path / "syn"
        sim = RunConfig(
            mode="simulate", kind="creep", alpha=0.5, beta=0.0, lam=0.8,
            H=1.0, q=1.5, sigma=1.0, grid=(0.0, 0.005, 64),
            output=str(base), no_timestamp=True,
        )
        sim_report = run(sim)
        assert sim_report.result["n_samples"] == "63"
        ident = RunConfig(
            mode="identify",
            input=str(base) + "_kernel_samples.csv",
            model_samples=str(base) + "_model_samples.csv",
            isochrones=str(base) + "_isochrones.csv",
            lambda0=1.0, q0=1.0, sigma_over_h=1.0,
            eval_at_knots=True, no_timestamp=True,
        )
        report = run(ident)
        lam_hat = float(report.result["lambda_hat"])
        q_hat = float(report.result["q_hat"])
        assert abs(lam_hat - 0.8) / 0.8 <= 0.05
        assert abs(q_hat - 1.5) / 1.5 <= 0.05

    def test_simulate_relaxation_outputs(self, tmp_path):
        base = tmp_path / "rel"
        cfg = RunConfig(mode="simulate", kind="relaxation", alpha=0.5,
                        beta=0.0, lam=0.1, H=1.0, q=1.0, eps=1.0,
                        grid=(0.0, 2.0, 128), output=str(base),
                        no_timestamp=True)
        run(cfg)
        samples, _ = ingest_kernel_samples(str(base) + "_kernel_samples.csv")
        model, _ = ingest_kernel_samples(str(base) + "_model_samples.csv")
        # extracted data is the intensity-scaled resolvent kernel
        inner = (samples.times > 0.2) & (samples.times < 1.8)
        ratio = samples.values[inner] / model.values[inner]
        assert np.median(ratio) == pytest.approx(0.1, rel=0.02)

    def test_isochrones_only_is_scale_free(self, tmp_path):
        # strain levels and values divided by 2**560: unscaled, the squares
        # would underflow; the derived samples are the same to the last bit
        run(RunConfig(mode="simulate", grid=(0.0, 0.005, 64),
                      output=str(tmp_path / "syn"), no_timestamp=True))
        path = tmp_path / "syn_isochrones.csv"
        iso, _ = ingest_isochrones(path)
        rows = np.ldexp(np.column_stack((iso.strain_levels, iso.phi_t)), -560)
        scaled = tmp_path / "scaled.csv"
        lines = ["eps," + ",".join(map(repr, iso.times.tolist()))]
        lines += [",".join(map(repr, row)) for row in rows.tolist()]
        scaled.write_text("\n".join(lines) + "\n")
        pl0 = v.PowerLaw(1.0, 1.0)
        assert np.array_equal(
            derive_samples_from_isochrones(ingest_isochrones(scaled)[0], pl0).values,
            derive_samples_from_isochrones(iso, pl0).values)
        for p in (path, scaled):
            report = run(RunConfig(mode="identify", isochrones=str(p),
                                   lambda0=0.9, no_timestamp=True))
            assert report.result["lambda_hat"] == "0.910645659"

    def test_model_samples_grid_mismatch(self, tmp_path, table1_file, table1):
        # the estimator refuses segments that are not one per sample time
        other = tmp_path / "other.csv"
        other.write_text("t,K\n0,1\n1,2\n")
        cfg = RunConfig(mode="identify", input=str(table1_file),
                        model_samples=str(other), no_timestamp=True)
        with pytest.raises(DomainError, match=r"^need one segment per sample "
                           r"\(16\), got 2$"):
            run(cfg)
        write_samples_csv(other, table1.times + 1.0, table1.values)
        with pytest.raises(DomainError, match=r"^the segments must be anchored "
                           r"at the sample times: segment 1 is at t = 1, "
                           r"sample 1 at t = 0$"):
            run(cfg)


LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


class TestTracedRoutes:
    """The benchmark's layer tracer sees the routes to kernel samples."""

    @pytest.fixture
    def tracer(self):
        spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
        tracer = layers.Tracer(v)
        tracer.install()
        try:
            yield tracer
        finally:
            tracer.uninstall()

    @staticmethod
    def spans(tracer):
        """(name, parent span name) of every span of the current operation."""
        names = {span[0]: span[1] for span in tracer.spans}
        return [(span[1], names.get(span[2])) for span in tracer.spans]

    def test_similarity_means_nest_under_extract(self, tmp_path, tracer):
        run(RunConfig(mode="simulate", grid=(0.0, 0.005, 64),
                      output=str(tmp_path / "syn"), no_timestamp=True))
        tracer.start_op(0)
        run(RunConfig(mode="identify", lambda0=0.9, no_timestamp=True,
                      isochrones=str(tmp_path / "syn_isochrones.csv")))
        assert ("spline.similarity", "pipeline.extract") in self.spans(tracer)

    def test_relaxation_route_is_traced(self, tmp_path, tracer):
        tracer.start_op(0)
        run(RunConfig(mode="simulate", kind="relaxation", grid=(0.0, 0.005, 64),
                      output=str(tmp_path / "rel"), no_timestamp=True))
        names = [name for name, _ in self.spans(tracer)]
        assert names.count("material.relaxation_kernel_from_history") == 1


class TestCli:
    def test_table1_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        for out in (out_a, out_b):
            assert main(["--mode", "table1", "--no-timestamp",
                         "--output", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_identify_report_to_stdout(self, table1_file, capsys):
        code = main(["--mode", "identify", "--input", str(table1_file),
                     "--lambda0", "0.9", "--eval-at-knots", "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 0
        assert "lambda_ratio: 1" in captured.out

    def test_json_flag(self, table1_file, capsys):
        code = main(["--mode", "table1", "--no-timestamp", "--json"])
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["result"]["flagged_rows"] == "3;5"

    def test_exit_code_parse(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        assert main(["--mode", "identify", "--input", str(empty)]) == 1

    def test_validate_mode_failure_exit(self, tmp_path, capsys):
        bad = tmp_path / "negative.csv"
        bad.write_text("t,K\n0,10\n1,-3\n2,5\n")
        code = main(["--mode", "validate", "--input", str(bad),
                     "--no-timestamp"])
        captured = capsys.readouterr()
        assert code == 2
        assert "positive-values,FAIL" in captured.out

    def test_exit_code_validation(self, tmp_path, capsys):
        dup = tmp_path / "dup.csv"
        dup.write_text("t,K\n1,10\n1,9\n")
        assert main(["--mode", "identify", "--input", str(dup)]) == 2

    def test_exit_code_numerical(self, table1_file, capsys):
        # lambda0 = 1 fits the terminal sample exactly at knot evaluation
        code = main(["--mode", "identify", "--input", str(table1_file),
                     "--lambda0", "1.0", "--eval-at-knots"])
        assert code == 3

    @pytest.mark.parametrize("kind", ["creep", "relaxation"])
    def test_exit_code_series_overflow(self, tmp_path, capsys, kind):
        # beta * t**(1 - alpha) reaches 20: a series term overflows
        code = main(["--mode", "simulate", "--kind", kind, "--beta", "1",
                     "--grid", "0:400:64", "--output", str(tmp_path / "run")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error(ConvergenceError):")

    @pytest.mark.parametrize("kind", ["creep", "relaxation"])
    def test_rate_sum_overflow_refused(self, tmp_path, capsys, kind):
        # beta and lambda are finite, the relaxation series' rate is not: one
        # refusal naming the sum for both kinds, before any file is written
        code = main(["--mode", "simulate", "--kind", kind, "--beta", "1e308",
                     "--lam", "1e308", "--grid", "0:1:8",
                     "--output", str(tmp_path / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error(DomainError): beta + lambda must be finite, got inf\n")
        assert list(tmp_path.iterdir()) == []

    def test_exit_code_series_cancelled(self, tmp_path, capsys):
        # beta * t**(1 - alpha) reaches 7: the refusal names the first time
        # whose own cancellation ratio is above the threshold
        code = main(["--mode", "simulate", "--kind", "creep", "--beta", "1",
                     "--grid", "0:50:64", "--output", str(tmp_path / "run")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error(ConvergenceError): kernel series lost "
                              "precision at s = 21.42857142857")

    def test_overflowing_weighted_residuals(self, tmp_path, capsys):
        # (w_j * r_j)**2 overflows at every order m, so no m is selected
        path = tmp_path / "huge.csv"
        path.write_text("t,K\n1,1e160\n2,2e160\n3,1.5e160\n4,3e160\n")
        code = main(["--mode", "identify", "--input", str(path),
                     "--lambda0", "0.9"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error(DomainError): the weighted residuals overflow: delta is not "
            "finite at any m in [2, 3, 4, 5, 6, 7, 8] (largest |r_j| 4.75e+159)\n")

    def test_overflowing_lambda0(self, tmp_path, capsys):
        # lambda0 * K_j overflows: one error line, no numpy warning before it
        path = tmp_path / "steps.csv"
        path.write_text("t,K\n1,10\n2,8\n3,7\n4,6\n")
        code = main(["--mode", "identify", "--input", str(path),
                     "--lambda0", "1e308"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error(DomainError): a residual is not finite at lambda0 = 1e+308: "
            "lambda0 * K_j must be finite\n")

    @pytest.mark.parametrize("mode", [["validate"], ["identify", "--lambda0", "0.9"]])
    def test_underflowing_spline_denominator(self, tmp_path, capsys, mode):
        # h_1 * (2*t_2 - h_1) = 1e-200 * 3e-200 underflows to 0
        path = tmp_path / "tiny.csv"
        path.write_text("t,K\n1e-200,5\n2e-200,4\n3e-200,3.5\n4e-200,3\n")
        code = main(["--mode", mode[0], "--input", str(path), *mode[1:]])
        assert code == 3
        assert capsys.readouterr().err == (
            "error(SingularDenominatorError): coefficient denominator "
            "h_(j-1)*(2*t_j - h_(j-1)) is 0 at knot 2 (t = 2e-200): its "
            "segment coefficients are not finite\n")

    def test_overflowing_isochrone_column(self, tmp_path, capsys):
        # the squares of values near 1e200 would overflow unscaled; the
        # intensity and the weights are those of the matrix at unit scale
        results = []
        for exponent in ("e200", ""):
            path = tmp_path / f"big{exponent}.csv"
            path.write_text("eps,0,1,2,3\n0.5,1{0},2{0},3{0},4{0}\n"
                            "1.0,2{0},3{0},4{0},5{0}\n".format(exponent))
            code = main(["--mode", "identify", "--isochrones", str(path),
                         "--lambda0", "0.9", "--json"])
            captured = capsys.readouterr()
            assert (code, captured.err) == (0, "")
            report = json.loads(captured.out)
            results.append([report["result"][key] for key in
                            ("lambda_hat", "lambda_ratio", "m_selected")]
                           + [row["weight"] for row in report["tables"]["samples"]])
        assert results[0] == results[1]

    @pytest.mark.parametrize("args", [
        ["--mode", "simulate", "--kind", "creep", "--grid", "0:1:2"],
        ["--mode", "simulate", "--kind", "relaxation", "--grid", "0:1:2"],
        ["--mode", "identify", "--isochrones", "{iso}"],
    ], ids=["creep", "relaxation", "isochrones"])
    def test_two_samples_are_one_error_line(self, tmp_path, capsys, args):
        iso = tmp_path / "iso.csv"
        iso.write_text("eps,0,1\n0.5,2,1.8\n1.0,4,3.6\n")
        out = tmp_path / "out"
        out.mkdir()
        code = main([a.format(iso=iso) for a in args]
                    + ["--output", str(out / "run")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error(InsufficientDataError): need at least three samples to "
            "differentiate the record\n")
        assert list(out.iterdir()) == []

    def test_overflowing_weight_power_is_silent(self, tmp_path, capsys):
        # |r_j / r_n|**8 = 1e320 overflows: that sample's weight is its limit 0
        path = tmp_path / "steep.csv"
        path.write_text("t,K\n1,1e40\n2,1e30\n3,1e20\n4,1\n")
        code = main(["--mode", "identify", "--input", str(path),
                     "--lambda0", "0.9", "--eval-at-knots", "--no-timestamp"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_strain_levels_with_isochrones(self, tmp_path, capsys):
        # the strain levels have one source: with both, one error line and
        # no report, not a report that echoes levels it did not use
        prefix = str(tmp_path / "syn")
        run(RunConfig(mode="simulate", output=prefix, no_timestamp=True))
        report = tmp_path / "report.txt"
        code = main(["--mode", "identify", "--isochrones",
                     prefix + "_isochrones.csv", "--strain-levels", "5,6,7",
                     "--lambda0", "0.9", "--output", str(report)])
        assert code == 2
        assert capsys.readouterr().err == ("error(DomainError): give strain "
                                           "levels or isochrones, not both\n")
        assert not report.exists()

    def test_strain_levels_and_m_range_run(self, tmp_path, capsys):
        # a run that reaches the exponent stage through --strain-levels
        # echoes the levels and the m range in either form, and reports the
        # q_hat of the library call with the same levels and orders
        prefix = str(tmp_path / "syn")
        run(RunConfig(mode="simulate", output=prefix, no_timestamp=True))
        args = ["--mode", "identify", "--input", prefix + "_kernel_samples.csv",
                "--model-samples", prefix + "_model_samples.csv",
                "--strain-levels", "1.05,1.1,1.2", "--lambda0", "1",
                "--sigma-over-H", "1", "--eval-at-knots", "--no-timestamp"]
        assert main(args + ["--m-range", "2,4,7"]) == 0
        out = capsys.readouterr().out.splitlines()
        samples, _ = ingest_kernel_samples(prefix + "_kernel_samples.csv")
        model, _ = ingest_kernel_samples(prefix + "_model_samples.csv")
        result = v.identify(samples, v.fit_kernel_spline(model), None,
                            v.WeightConfig(), sigma=1.0, pl0=v.PowerLaw(1.0, 1.0),
                            strain_levels=(1.05, 1.1, 1.2), at_knots=True,
                            m_range=(2, 4, 7), model_segments=True)
        for line in ("m_range: 2,4,7", "strain_levels: 1.05;1.1;1.2",
                     f"q_hat: {fmt9(result.q_hat)}", "m_selected: 7",
                     "q_pairs_failed: 0"):
            assert line in out
        assert main(args + ["--m-range", "3:5"]) == 0
        assert "m_range: 3:5" in capsys.readouterr().out.splitlines()

    def test_exit_code_no_root(self, table1_file, capsys):
        code = main(["--mode", "identify", "--input", str(table1_file),
                     "--lambda0", "0.9", "--eval-at-knots",
                     "--sigma-over-H", "1e-4", "--strain-levels", "1e6"])
        assert code == 4

    @pytest.mark.parametrize("level", ["nan", "inf", "0", "-0.5"])
    def test_exit_code_bad_strain_level(self, table1_file, capsys, level):
        code = main(["--mode", "identify", "--input", str(table1_file),
                     "--lambda0", "0.9", "--eval-at-knots",
                     "--strain-levels", f"1.5,{level}"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error(DomainError):")

    @pytest.mark.parametrize("rows", [20, 10])
    def test_table1_row_count_mismatch(self, tmp_path, capsys, rows):
        path = tmp_path / "samples.csv"
        write_samples_csv(path, np.arange(rows) * 10.0,
                          1000.0 / (1.0 + np.arange(rows)))
        code = main(["--mode", "table1", "--input", str(path),
                     "--no-timestamp"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error(ValidationError):")
        assert f"has 16 rows, the samples have {rows}" in err

    def test_every_error_class_carries_its_exit_code(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        codes = {cls.__name__: cls.exit_code for cls in subclasses(ViscoidentError)}
        assert codes == EXIT_CODES

    def test_parser_defaults_are_run_config(self):
        args = build_parser().parse_args([])
        assert vars(args) == {}
        cfg = RunConfig(**vars(args))
        assert cfg == RunConfig()
        assert (cfg.mode, cfg.lambda0, cfg.q0, cfg.m_range, cfg.gamma) == (
            "identify", 1.0, 1.0, (2, 3, 4, 5, 6, 7, 8), 1e-6)
        assert (cfg.kind, cfg.alpha, cfg.beta, cfg.lam, cfg.H, cfg.q,
                cfg.sigma, cfg.eps, cfg.grid) == (
            "creep", 0.5, 0.0, 0.8, 1.0, 1.5, 1.0, 1.0, (0.0, 0.005, 64))

    def test_input_directory_is_parse_error(self, tmp_path, capsys):
        assert main(["--mode", "identify", "--input", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error(ParseError): cannot read")

    @pytest.mark.parametrize("mode", ["simulate", "identify"])
    def test_output_under_missing_directory(self, tmp_path, table1_file,
                                            capsys, mode):
        code = main(["--mode", mode, "--input", str(table1_file),
                     "--lambda0", "0.9", "--eval-at-knots",
                     "--output", str(tmp_path / "missing" / "run")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "error(ValidationError): cannot write")

    def test_simulate_empty_output_prefix(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["--mode", "simulate", "--output", ""]) == 2
        assert capsys.readouterr().err.startswith("error(ValidationError):")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("mode", ["identify", "table1", "validate"])
    def test_empty_output_path(self, tmp_path, table1_file, monkeypatch,
                               capsys, mode):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code = main(["--mode", mode, "--input", str(table1_file),
                     "--lambda0", "0.9", "--eval-at-knots", "--no-timestamp",
                     "--output", ""])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error(ValidationError): --output needs a non-empty path\n")
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["--mode", "simulate", "--kind", "creep", "--grid", "0:1e-300:64"],
        ["--mode", "simulate", "--kind", "relaxation", "--grid", "0:1e-300:64"],
        ["--mode", "identify", "--isochrones", "{iso}"],
    ], ids=["creep", "relaxation", "isochrones"])
    def test_degenerate_grid_is_one_error_line(self, tmp_path, capsys, args):
        # the difference weights' denominators underflow; np.gradient would
        # warn, then return a non-finite derivative
        iso = tmp_path / "iso.csv"
        iso.write_text("eps,0,1e-310,2e-310,3e-310\n"
                       "0.5,0.5,1.0,1.5,2.0\n1.0,1.0,2.0,3.0,4.0\n")
        out = tmp_path / "out"
        out.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([a.format(iso=iso) for a in args]
                        + ["--output", str(out / "run")])
        err = capsys.readouterr().err
        spacing = "1e-310" if "--isochrones" in args else "1.59e-302"
        assert code == 2
        assert caught == []
        assert err == (f"error(DomainError): grid spacing {spacing} is too "
                       f"fine to differentiate the record: its derivative "
                       f"is not finite\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("args, message", [
        (["--mode", "simulate", "--kind", "creep", "--H", "1e-320"],
         "phi0 inverse overflows at H = 1e-320, q = 1.5: strain "
         "(q*phi/H)**(1/q) is not finite for stress phi, got 1.0"),
        (["--mode", "identify", "--isochrones", "{iso}", "--q0", "1e300",
          "--lambda0", "0.9"],
         "phi0 overflows at H = 1.0, q = 1e+300: stress (H/q)*eps**q is not "
         "finite for strain eps, got 1.31738658"),
        (["--mode", "simulate", "--kind", "creep", "--q", "1e-300"],
         "the similarity function phi0(eps)/sigma underflows to 0 at "
         "t = 7.93650794e-05: the kernel samples are undefined"),
        (["--mode", "simulate", "--kind", "relaxation", "--eps", "1e-300",
          "--q", "3"],
         "phi0 of the held strain eps = 1e-300 underflows to 0 at H = 1.0, "
         "q = 3.0: the kernel samples are undefined"),
        (["--mode", "identify", "--isochrones", "{below}", "--q0", "1e300",
          "--lambda0", "0.9"],
         "the similarity mean underflows to 0 at t = 0: the kernel samples "
         "are undefined"),
    ], ids=["H-tiny", "q0-huge", "q-tiny", "eps-tiny", "q0-huge-below-1"])
    def test_power_law_out_of_range_is_one_error_line(self, tmp_path, capsys,
                                                      args, message):
        # the power law overflows, or it underflows to 0 and the isochrone
        # matrix, the relaxation kernel or the isochrone-derived samples
        # would divide 0 by 0: no numpy warning first
        run(RunConfig(mode="simulate", output=str(tmp_path / "P"),
                      no_timestamp=True))
        below = tmp_path / "below.csv"  # every strain level below 1
        below.write_text("eps,0,1,2,3\n0.5,2,1.8,1.7,1.6\n0.9,4,3.6,3.4,3.2\n")
        out = tmp_path / "out"
        out.mkdir()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([a.format(iso=tmp_path / "P_isochrones.csv", below=below)
                         for a in args]
                        + ["--grid", "0:0.005:64", "--output", str(out / "P")])
        assert code == 2
        assert caught == []
        assert capsys.readouterr().err == f"error(DomainError): {message}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("option, value, expected", [
        ("--grid", "0:1", "START:STOP:N"),
        ("--m-range", "2,x", "LO:HI or M1,M2,..."),
        ("--strain-levels", "1,y", "E1,E2,..."),
    ])
    def test_malformed_option_names_its_format(self, capsys, option, value,
                                               expected):
        with pytest.raises(SystemExit) as exc:
            main([option, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}: expected {expected}, got '{value}'" in err
        assert "_parse_" not in err

    @pytest.mark.parametrize("mode", ["identify", "simulate", "table1",
                                      "validate"])
    def test_empty_m_range_is_malformed(self, capsys, mode):
        with pytest.raises(SystemExit) as exc:
            main(["--mode", mode, "--m-range", "5:2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            "viscoident: error: argument --m-range: expected LO:HI or "
            "M1,M2,..., got '5:2'"]

    @pytest.mark.parametrize("args, code, error", [
        (["--mode", "simulate", "--beta", "1", "--grid", "0:50:64"], 3,
         "ConvergenceError"),
        (["--mode", "simulate", "--grid", "0:0.005:-3"], 2, "DomainError"),
        (["--lambda0", "inf"], 2, "DomainError"),
        (["--sigma-over-H", "nan", "--strain-levels", "1.5"], 2, "DomainError"),
        (["--gamma", "nan"], 2, "DomainError"),
    ])
    def test_exit_code_bad_argument(self, tmp_path, table1_file, capsys,
                                    args, code, error):
        base = ["--input", str(table1_file), "--lambda0", "0.9",
                "--eval-at-knots", "--output", str(tmp_path / "run")]
        assert main(base + args) == code
        assert capsys.readouterr().err.startswith(f"error({error}):")

    def test_error_text_is_structured(self, tmp_path, capsys):
        dup = tmp_path / "dup.csv"
        dup.write_text("t,K\n1,10\n1,9\n")
        main(["--mode", "identify", "--input", str(dup)])
        captured = capsys.readouterr()
        assert captured.err.startswith("error(ValidationError):")

    @pytest.mark.parametrize("args, code, error", [
        (["--mode", "identify"], 2,
         "ValidationError): identify needs --input or --isochrones"),
        (["--mode", "simulate"], 2,
         "ValidationError): simulate needs --output as a file prefix"),
        (["--mode", "validate"], 2, "ValidationError): validate needs --input"),
        (["--mode", "identify", "--input", "{binary}"], 1,
         "ParseError): {binary} is not a text file"),
    ], ids=["identify-no-input", "simulate-no-output", "validate-no-input",
            "binary-input"])
    def test_refused_call_is_one_error_line(self, tmp_path, monkeypatch, capsys,
                                            args, code, error):
        monkeypatch.chdir(tmp_path)
        binary = tmp_path / "binary.csv"
        binary.write_bytes(b"\xff\xfe")
        assert main([arg.format(binary=binary) for arg in args]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error({error.format(binary=binary)}\n"
        assert captured.out == ""
        assert sorted(tmp_path.iterdir()) == [binary]

    @pytest.mark.parametrize("cfg, message", [
        (dict(mode="fit"), "unknown mode 'fit'"),
        (dict(mode="simulate", kind="shear"), "unknown simulate kind 'shear'"),
    ], ids=["mode", "simulate-kind"])
    def test_run_refuses_unknown_names(self, tmp_path, cfg, message):
        # the parser's choices keep these from the CLI; run() is the library's
        # own entry point and refuses them before writing any file
        with pytest.raises(ValidationError) as err:
            run(RunConfig(output=str(tmp_path / "run"), **cfg))
        assert type(err.value) is ValidationError
        assert str(err.value) == message
        assert list(tmp_path.iterdir()) == []
