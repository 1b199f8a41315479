"""Ingestion, run modes, report serialization, CLI contract."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import viscoident as v
from viscoident.cli import main
from viscoident.errors import ParseError, ValidationError
from viscoident.pipeline import (
    Report,
    RunConfig,
    derive_samples_from_isochrones,
    extract_creep_kernel_samples,
    fmt9,
    fmt9_rows,
    ingest_isochrones,
    ingest_kernel_samples,
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


@st.composite
def float_tables(draw):
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(
        st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)),
                 min_size=ncols, max_size=ncols),
        max_size=6,
    ))
    return np.array(rows, dtype=float).reshape(len(rows), ncols)


@pytest.fixture
def table1_file(tmp_path, table1):
    path = tmp_path / "samples.csv"
    write_samples_csv(path, table1.times, table1.values)
    return path


class TestIngestSamples:
    def test_bundled_format(self, tmp_path, table1):
        # three columns (index, t, K) with a header, as the bundled file
        from importlib import resources

        text = resources.files("viscoident.data").joinpath(
            "table1_kernel_samples.csv"
        ).read_text()
        path = tmp_path / "t1.csv"
        path.write_text(text)
        got = ingest_kernel_samples(path)
        assert len(got) == 16
        assert got.t_star == 1050.0
        assert np.array_equal(got.values, table1.values)

    def test_two_columns_no_header(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("0,10\n1,8\n2,7\n")
        got = ingest_kernel_samples(path)
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
        assert "non-increasing" in str(err.value)
        assert err.value.row == 2

    def test_non_numeric_mid_file(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,10\n1,oops\n")
        with pytest.raises(ParseError) as err:
            ingest_kernel_samples(path)
        assert err.value.row == 2

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0,10\n1,nan\n")
        with pytest.raises(ValidationError):
            ingest_kernel_samples(path)

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
        want, got = ingest_kernel_samples(bare), ingest_kernel_samples(padded)
        assert np.array_equal(got.times, [0.001, 0.002, 0.004])
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.values, want.values)


class TestIngestIsochrones:
    def test_two_by_two(self, tmp_path):
        path = tmp_path / "iso.csv"
        path.write_text("eps,0,1\n0.5,2.0,1.8\n1.0,4.0,3.6\n")
        data = ingest_isochrones(path)
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
        means = v.similarity_means(ingest_isochrones(path), pl)
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
        want, got = ingest_isochrones(bare), ingest_isochrones(padded)
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
        assert fmt9(True) == "True"

    @given(float_tables())
    def test_table_rows_match_scalar_rendering(self, table):
        assert fmt9_rows(table) == [
            ",".join(fmt9(x) for x in row) for row in table
        ]

    def test_table_rows_special_values(self):
        table = np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]])
        assert fmt9_rows(table) == [
            ",".join(fmt9(x) for x in row) for row in table
        ]
        assert fmt9_rows([[-0.0, 2.5e16, 123456789.0]]) == ["-0,2.5e+16,123456789"]

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
        write_isochrones_csv(path, iso)
        want = ["eps," + ",".join(fmt9(t) for t in iso.times)]
        for eps_i, row in zip(iso.strain_levels, iso.phi_t):
            want.append(fmt9(eps_i) + "," + ",".join(fmt9(x) for x in row))
        assert path.read_text() == "\n".join(want) + "\n"


class TestRunModes:
    def test_identify_on_reference_table_at_knots(self, table1_file):
        cfg = RunConfig(mode="identify", input=str(table1_file), lambda0=0.9,
                        eval_at_knots=True, no_timestamp=True)
        report = run(cfg)
        assert report.result["lambda_ratio"] == "1"
        assert report.result["lambda_hat"] == "0.9"
        assert report.result["q_hat"] == "nan"
        assert len(report.tables["samples"]) == 16

    def test_table1_mode_flags(self):
        report = run(RunConfig(mode="table1", no_timestamp=True))
        assert report.result["flagged_rows"] == "3;5"
        assert report.header["comparison-tolerance"] == "0.02"

    def test_validate_mode_passes_on_fixture(self, table1_file):
        report = run(RunConfig(mode="validate", input=str(table1_file),
                               no_timestamp=True))
        assert report.result["failed"] == "none"

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
        samples = ingest_kernel_samples(str(base) + "_kernel_samples.csv")
        model = ingest_kernel_samples(str(base) + "_model_samples.csv")
        # extracted data is the intensity-scaled resolvent kernel
        inner = (samples.times > 0.2) & (samples.times < 1.8)
        ratio = samples.values[inner] / model.values[inner]
        assert np.median(ratio) == pytest.approx(0.1, rel=0.02)

    def test_model_samples_grid_mismatch(self, tmp_path, table1_file):
        other = tmp_path / "other.csv"
        other.write_text("t,K\n0,1\n1,2\n")
        cfg = RunConfig(mode="identify", input=str(table1_file),
                        model_samples=str(other), no_timestamp=True)
        with pytest.raises(ValidationError):
            run(cfg)


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

    def test_error_text_is_structured(self, tmp_path, capsys):
        dup = tmp_path / "dup.csv"
        dup.write_text("t,K\n1,10\n1,9\n")
        main(["--mode", "identify", "--input", str(dup)])
        captured = capsys.readouterr()
        assert captured.err.startswith("error(ValidationError):")
