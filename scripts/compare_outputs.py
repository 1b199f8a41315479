#!/usr/bin/env python3
"""Check that another checkout writes byte-identical outputs to this one.

Run from anywhere:

    python3 scripts/compare_outputs.py OTHER_CHECKOUT

Imports this checkout's ``src/viscoident``, then OTHER_CHECKOUT's, and with
each one runs the README recipe (table1, simulate, identify) and operations
0-2 of the ``creep_roundtrip``, ``relaxation_longrecord`` and
``stress_program`` benchmark workloads for seeds 1-3, taking the operations
from this checkout's ``perfbench/workloads.py``. Each identify call with
an isochrone file also runs on that file alone (samples derived from the
matrix, lambda0 0.9), and the README identify also runs on copies of its
input files with padded fields and with CRLF line ends. The isochrones-only
identify also runs on the README isochrones with strain levels and values
times 2**-560, 2**0 and 2**600, written exactly, and the README identify
without its isochrone file runs with ``--strain-levels 1.05,1.1,1.2`` and
``--m-range`` 2,4,7 and 3:5, which echo both forms. Simulate runs of both
kinds on a grid whose times render in exponent notation and on one of
integral times pin the time column the files share. It hashes
(SHA-256) every file a simulate run writes, every ``--no-timestamp``
report, text and JSON, the ``repr`` of every ``resolvent_mismatch`` (the
stress-program operations, five operations of seeds 7, 16, 351, 373 and
610 whose mismatch is above the bound, and the benchmark reference gate's
constant stress on 256 points) and the ``hereditary_convolution`` of one
non-uniform 256-point grid and of a uniform and a non-uniform 1000-point
grid, which span several blocks of output rows. It also hashes the
``--help`` text, the exit code and the first line of stderr of each failing
call of the CLI and ingestion tests (among them a file breaking each
value rule of the records: a NaN sample value, sample times, strain levels
or isochrone times out of order, a negative isochrone time, a nonpositive
strain level or value), of the estimator's failure paths
(a zero residual, a zero terminal residual, an order below 2, a model
sample file of as many rows as the data on other times, strain levels given
with an isochrone file) and of the three routes to kernel samples on two
samples (a two-point simulate of either kind, a two-time isochrone file),
of a power law that overflows or that underflows to 0 (the creep strains,
the held relaxation stress, every isochrone similarity mean), of two
creep simulations whose kernel series cancels (``--beta 1`` on the grid
0:50:64, and ``--alpha 0.7 --beta 1`` on 0:28.7737:64), and the
validate and ``table1 --input`` reports of the 16-row fixture. It also
hashes the ``repr`` of each immutable record type (``KernelParams``,
``SeriesSum``, ``PowerLaw``, ``ResponseHistory``, ``KernelSamples``,
``IsochroneDataset``, ``Spline``), built from fixed inputs, and the class
and message (or the returned repr) and the warnings of a fixed list of
library calls that a domain rule refuses: a time axis with an inf, NaN or
repeated time at each record, the simulators' grid and the convolution, a
kernel shape outside the domain at ``KernelParams``, the convolution and
the series, a beta + lambda that overflows at ``KernelParams``, a spline
evaluated past its range and a cancelled series; so a moved library
message shows up like a moved CLI line. It prints the
outputs whose digests differ and exits 1 if any do, 0 if none do.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import itertools
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("creep_roundtrip", "relaxation_longrecord")  # CLI workloads
SEEDS = (1, 2, 3)
OPS_PER_SEED = 3
# stress-program operations (seed, index) whose under-resolved programs put
# the mismatch above the criterion-5 bound
OVER_BOUND_OPS = ((7, 184), (16, 56), (351, 31), (373, 14), (610, 672))
# malformed inputs of the ingestion tests: (ingester option, file text)
MALFORMED = {
    "samples-header-only": ("--input", "t,K\n"),
    "iso-header-only": ("--isochrones", "eps,0,1\n"),
    "samples-blank-lines": ("--input", "t,K\n0,10\n\n1,8\n\n2,x\n"),
    "samples-non-numeric-last": ("--input", "0,10\n1,8\n2,abc\n"),
    "iso-non-numeric-last": ("--isochrones", "eps,0,1\n0.5,2,1.8\n1.0,4,abc\n"),
    "samples-trailing-comma": ("--input", "t,K\n0,10\n1,8,\n"),
    "iso-trailing-comma": ("--isochrones", "eps,0,1\n0.5,2,1.8,\n"),
    "iso-ragged": ("--isochrones", "eps,0,1\n0.5,2,1.8\n1.0,4\n"),
    "iso-nonpositive": ("--isochrones", "eps,0,1\n0.5,2,1.8\n1.0,4,0\n"),
    "iso-non-finite-value": ("--isochrones", "eps,0,1\n0.5,2,1.8\n1.0,4,nan\n"),
    "iso-non-finite-level": ("--isochrones", "eps,0,1\n0.5,2,1.8\nnan,4,3.6\n"),
    "iso-non-finite-time": ("--isochrones", "eps,0,inf\n0.5,2,1.8\n1.0,4,3.6\n"),
    "iso-strain-levels-out-of-order": (
        "--isochrones", "eps,0,1,2,3\n0.9,4,3.6,3.4,3.2\n0.5,2,1.8,1.7,1.6\n"),
    "iso-times-out-of-order": (
        "--isochrones", "eps,0,2,1,3\n0.5,2,1.8,1.7,1.6\n0.9,4,3.6,3.4,3.2\n"),
    "samples-nan-value": ("--input", "t,K\n0,10\n\n1,nan\n"),
    "samples-times-out-of-order": ("--input", "t,K\n0,10\n2,8\n\n1,7\n"),
    "iso-negative-time": ("--isochrones", "\neps,-1,1\n0.5,2,1.8\n"),
    "iso-nonpositive-level": ("--isochrones", "eps,0,1\n\n0,2,1.8\n1.0,4,3.6\n"),
}
# rewritings of an input file that ingestion must accept as the same data
REWRITES = {
    "padded": lambda text: "".join(
        " " + " ,\t".join(line.split(",")) + "\t\n" for line in text.splitlines()),
    "crlf": lambda text: text.replace("\n", "\r\n"),
}
# powers of two scaling the README isochrones' strain levels and values
ISOCHRONE_SCALES = (-560, 0, 600)
# simulate grids whose times render in exponent notation and as integers
SIMULATE_GRIDS = ("0:4e-05:9", "0:8:9")
# strain levels and m ranges of the README identify without its isochrones
STRAIN_LEVELS = "1.05,1.1,1.2"
M_RANGES = ("2,4,7", "3:5")
README_SIMULATE = [
    "--mode", "simulate", "--kind", "creep", "--alpha", "0.5", "--beta", "0",
    "--lam", "0.8", "--H", "1", "--q", "1.5", "--sigma", "1",
    "--grid", "0:0.005:64", "--no-timestamp",
]


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def import_checkout(checkout: Path):
    """Import ``checkout/src/viscoident``, dropping any earlier import."""
    src = (checkout / "src").resolve()
    for name in [k for k in sys.modules if k.split(".")[0] == "viscoident"]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("viscoident.cli")
    finally:
        sys.path.remove(str(src))
    vi = sys.modules["viscoident"]
    if Path(vi.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported viscoident from {vi.__file__}, "
                         f"not from {src}")
    return vi


class RecordingCli:
    """Stands in for ``viscoident.cli`` and keeps the argv of every call."""

    def __init__(self, cli):
        self.cli = cli
        self.calls = []

    def main(self, argv):
        self.calls.append(list(argv))
        return self.cli.main(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_reports(wl, cli, argv, label: str, digests: dict) -> None:
    """Digest the report of ``argv`` as text and as ``--json``, or the
    failure of the call."""
    for suffix, extra in ((".txt", []), (".json", ["--json"])):
        try:
            report = wl.run_cli(cli, argv + extra)
        except wl.OpFailed as exc:
            report = f"failure: {exc}"
        digests[f"{label}/{argv[1]}{suffix}"] = sha256(report.encode())


def isochrones_only(argv: list[str]) -> list[str]:
    """An identify call without its sample files, so that its samples are
    derived from the isochrone matrix. It sets lambda0 to 0.9: on segments
    fitted to the samples, lambda0 = 1 fits the terminal sample exactly."""
    argv = list(argv)
    for option in ("--input", "--model-samples", "--lambda0"):
        i = argv.index(option)
        del argv[i:i + 2]
    return argv + ["--lambda0", "0.9"]


def digest_identify(wl, cli, argv, label: str, digests: dict) -> None:
    """Digest the reports of an identify call and, when it reads an
    isochrone file, of its isochrones-only form."""
    digest_reports(wl, cli, argv, label, digests)
    if "--isochrones" in argv:
        digest_reports(wl, cli, isochrones_only(argv),
                       label + "/isochrones-only", digests)


def scaled_isochrones(text: str, power: int) -> str:
    """An isochrone file with its strain levels and values times 2**power,
    each written with the digits that read back as the same float."""
    header, *rows = text.splitlines()
    table = np.ldexp(np.loadtxt(rows, delimiter=",", ndmin=2), power)
    return "\n".join([header, *(",".join(map(repr, row))
                                for row in table.tolist())]) + "\n"


def digest_files(out_dir: Path, label: str, digests: dict) -> None:
    for path in sorted(out_dir.iterdir()):
        digests[f"{label}/{path.name}"] = sha256(path.read_bytes())


def cli_outcome(cli, argv) -> tuple:
    """(exit code, stdout, first stderr line) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse exits after printing --help
            code = exc.code
    return code, out.getvalue(), err.getvalue().partition("\n")[0]


def failing_calls(vi, data: Path) -> dict:
    """Label -> argv of the failing CLI calls in the tests, on inputs
    written to ``data``."""
    fixture = vi.table1_fixture()
    inputs = {
        "table1": zip(fixture.times, fixture.values),
        "empty": [],
        "dup": [(1, 10), (1, 9)],
        "negative": [(0, 10), (1, -3), (2, 5)],
        "rows20": [(10.0 * j, 1000.0 / (1.0 + j)) for j in range(20)],
        "rows10": [(10.0 * j, 1000.0 / (1.0 + j)) for j in range(10)],
        # model samples against "steps" at the knots and lambda0 1: one zero
        # residual (a pole), or nonzero residuals with a zero terminal one
        "steps": [(1, 10), (2, 8), (3, 7), (4, 6)],
        "pole-model": [(1, 10), (2, 9), (3, 8), (4, 7)],
        "terminal-model": [(1, 9), (2, 9), (3, 8), (4, 6)],
        # the 16-row fixture's values on times one later
        "table1-shifted": zip(fixture.times + 1.0, fixture.values),
    }
    for name, rows in inputs.items():
        body = "".join(f"{float(t)!r},{float(k)!r}\n" for t, k in rows)
        (data / f"{name}.csv").write_text("t,K\n" + body if body else "")
    path = {name: str(data / f"{name}.csv") for name in inputs}
    knots = ["--input", path["table1"], "--lambda0", "0.9", "--eval-at-knots"]
    calls = {
        "parse": ["--mode", "identify", "--input", path["empty"]],
        "validate-fail": ["--mode", "validate", "--input", path["negative"],
                          "--no-timestamp"],
        "validation": ["--mode", "identify", "--input", path["dup"]],
        "numerical": ["--mode", "identify", "--input", path["table1"],
                      "--lambda0", "1.0", "--eval-at-knots"],
        "no-root": ["--mode", "identify"] + knots
        + ["--sigma-over-H", "1e-4", "--strain-levels", "1e6"],
        "m-range-1": ["--mode", "identify"] + knots + ["--m-range", "1:3"],
    }
    for model in ("pole", "terminal"):
        calls[f"{model}-model"] = [
            "--mode", "identify", "--input", path["steps"], "--model-samples",
            path[f"{model}-model"], "--lambda0", "1", "--eval-at-knots"]
    calls["model-off-times"] = ["--mode", "identify", "--input", path["table1"],
                                "--model-samples", path["table1-shifted"]]
    for kind in ("creep", "relaxation"):
        calls[f"overflow-{kind}"] = [
            "--mode", "simulate", "--kind", kind, "--beta", "1",
            "--grid", "0:400:64", "--output", str(data / "run")]
    # kernel series that cancel: a long creep horizon, and the grid ending
    # at (alpha 0.7, beta 1, t = 28.7737), where the sum is 0.34 % off
    for label, args in (("0:50:64", []), ("0:28.7737:64", ["--alpha", "0.7"])):
        calls[f"cancelled-creep-{label}"] = [
            "--mode", "simulate", "--kind", "creep", "--beta", "1", *args,
            "--grid", label, "--output", str(data / "run")]
    for kind in ("creep", "relaxation"):
        calls[f"two-point-{kind}"] = [
            "--mode", "simulate", "--kind", kind, "--grid", "0:1:2",
            "--output", str(data / "run")]
    # the power law overflows (a tiny H, a huge q0 on strains above 1), or
    # it underflows to 0: the creep strains (a tiny q), the held relaxation
    # stress (a tiny eps) or every similarity mean (a huge q0 on strains
    # below 1)
    simulate = ["--mode", "simulate", "--grid", "0:0.005:64",
                "--output", str(data / "run")]
    creep = simulate + ["--kind", "creep"]
    calls["power-law-H-tiny"] = creep + ["--H", "1e-320"]
    calls["power-law-q-tiny"] = creep + ["--q", "1e-300"]
    calls["power-law-eps-tiny"] = simulate + [
        "--kind", "relaxation", "--eps", "1e-300", "--q", "3"]
    for name, top in (("", "1.5"), ("-below-1", "0.9")):
        (data / f"strains{name}.csv").write_text(
            f"eps,0,1,2,3\n0.5,2,1.8,1.7,1.6\n{top},4,3.6,3.4,3.2\n")
        calls[f"power-law-q0-huge{name}"] = [
            "--mode", "identify", "--isochrones", str(data / f"strains{name}.csv"),
            "--q0", "1e300", "--lambda0", "0.9"]
    calls["strain-levels-with-isochrones"] = [
        "--mode", "identify", "--isochrones", str(data / "strains.csv"),
        "--strain-levels", "5,6,7", "--lambda0", "0.9"]
    (data / "two-times.csv").write_text("eps,0,1\n0.5,2,1.8\n1.0,4,3.6\n")
    calls["two-time-isochrones"] = ["--mode", "identify", "--isochrones",
                                    str(data / "two-times.csv")]
    for level in ("nan", "inf", "0", "-0.5"):
        calls[f"strain-level-{level}"] = ["--mode", "identify"] + knots + [
            "--strain-levels", f"1.5,{level}"]
    for rows in (20, 10):
        calls[f"table1-rows{rows}"] = ["--mode", "table1", "--input",
                                       path[f"rows{rows}"], "--no-timestamp"]
    for name, (option, text) in MALFORMED.items():
        (data / f"{name}.csv").write_text(text)
        calls[f"malformed-{name}"] = ["--mode", "identify", option,
                                      str(data / f"{name}.csv")]
    return calls


def digest_cli_boundary(vi, wl, data: Path, digests: dict) -> None:
    """Digest the --help text, each failing call's code and first error, and
    the validate and table1 reports of the 16-row fixture."""
    code, out, _ = cli_outcome(vi.cli, ["--help"])
    digests["cli/--help"] = sha256(f"{code}\n{out}".encode())
    data.mkdir()
    for label, argv in failing_calls(vi, data).items():
        code, _, error = cli_outcome(vi.cli, argv)
        error = error.replace(str(data), "DATA")  # temp paths differ per run
        digests[f"cli/{label}"] = sha256(f"{code}\n{error}".encode())
    fixture = ["--input", str(data / "table1.csv"), "--no-timestamp"]
    for mode in ("validate", "table1"):
        digest_reports(wl, vi.cli, ["--mode", mode] + fixture, "fixture",
                       digests)


def digest_mismatches(vi, wl, digests: dict) -> None:
    """Digest the repr of each resolvent mismatch and the convolution of
    three grids (the convolution layer)."""
    workload = wl.WORKLOADS["stress_program"]
    ops = [(seed, op) for seed in SEEDS
           for op in itertools.islice(workload.ops(seed), OPS_PER_SEED)]
    ops += [(seed, next(itertools.islice(workload.ops(seed), index, None)))
            for seed, index in OVER_BOUND_OPS]
    for seed, op in ops:
        try:
            output, _ = workload.run(vi, op, None)
        except wl.OpFailed as exc:  # its message holds the mismatch repr
            output = f"failure: {exc}"
        label = f"{workload.name}/seed{seed}/op{op['index']}/mismatch"
        digests[label] = sha256(output.encode())
    t = np.concatenate([[0.0], np.cumsum(
        np.random.default_rng(12).uniform(0.5, 1.5, 255))])
    t *= 4.0 / t[-1]
    conv = vi.hereditary_convolution(0.5, 0.1, t, np.sin(t))
    digests["convolution/non-uniform-256"] = sha256(conv.tobytes())
    # 1000 points span several blocks of output rows and end in a partial one
    rng = np.random.default_rng(13)
    nonuniform = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, 999))])
    for label, t in {"uniform": np.linspace(0.0, 4.0, 1000),
                     "non-uniform": nonuniform * 4.0 / nonuniform[-1]}.items():
        conv = vi.hereditary_convolution(0.5, 0.3, t, np.sin(3.0 * t))
        digests[f"convolution/{label}-1000"] = sha256(conv.tobytes())
    # the constant stress of perfbench/run.py's reference gate
    t = np.linspace(0.0, 4.0, 256)
    mismatch = vi.resolvent_mismatch(
        vi.KernelParams(alpha=0.5, beta=0.1, lam=0.2), vi.PowerLaw(1.0, 1.0),
        vi.ResponseHistory(t, np.ones(256), vi.KIND_STRESS_PROGRAM, 1.0))
    digests["reference/mismatch"] = sha256(repr(mismatch).encode())


def library_refusals(vi) -> dict:
    """Label -> (function, arguments) of library calls that a domain rule
    refuses: a time axis holding inf, NaN or a repeated time at every entry
    point (the two kinds of record history, the simulators' grid, kernel
    samples, both axes of an isochrone matrix, the convolution), a kernel
    shape outside the domain (``KernelParams``, the convolution, the series
    itself), a beta + lambda that overflows, a spline evaluated past its
    range and a cancelled series."""
    kp, pl = vi.KernelParams(0.5, 0.1, 0.8), vi.PowerLaw(1.0, 1.5)
    values, grid = [0.0, 1.0, 2.0], np.linspace(0.0, 1.0, 4)
    calls = {}
    for bad in ("inf", "nan", "1.0"):  # 1.0 repeats the time before it
        axis = [0.0, 1.0, float(bad)]
        calls |= {
            f"ResponseHistory-creep/{bad}": (
                vi.ResponseHistory, axis, values, vi.KIND_CREEP, 1.0),
            f"ResponseHistory-stress-program/{bad}": (
                vi.ResponseHistory, axis, values, vi.KIND_STRESS_PROGRAM, None),
            f"simulate_creep/{bad}": (vi.simulate_creep, kp, pl, 1.0, axis),
            f"KernelSamples/{bad}": (vi.KernelSamples, axis, values),
            f"IsochroneDataset-times/{bad}": (
                vi.IsochroneDataset, [1.0], axis, np.ones((1, 3))),
            f"IsochroneDataset-strain-levels/{bad}": (
                vi.IsochroneDataset, [0.5, 1.0, float(bad)], [0.0, 1.0],
                np.ones((3, 2))),
            f"hereditary_convolution-times/{bad}": (
                vi.hereditary_convolution, 0.5, 0.1, axis, np.ones(3)),
        }
    for alpha in ("0", "1", "1.5", "nan"):
        calls |= {
            f"KernelParams-alpha/{alpha}": (vi.KernelParams, float(alpha), 0.1, 0.8),
            f"hereditary_convolution-alpha/{alpha}": (
                vi.hereditary_convolution, float(alpha), 0.1, grid, np.ones(4)),
            f"series-alpha/{alpha}": (
                vi.kernels._antiderivative_grid, float(alpha), 0.1, grid, 1),
        }
    for rate in ("-5", "inf", "nan"):
        calls |= {
            f"KernelParams-beta/{rate}": (vi.KernelParams, 0.5, float(rate), 0.8),
            f"hereditary_convolution-rate/{rate}": (
                vi.hereditary_convolution, 0.5, float(rate), grid, np.ones(4)),
        }
    calls["KernelParams-beta-plus-lambda"] = (vi.KernelParams, 0.5, 1e308, 1e308)
    calls["eval_kernel_spline-range"] = (
        vi.eval_kernel_spline, vi.fit_kernel_spline(vi.table1_fixture()),
        np.linspace(0.0, 2000.0, 12))
    calls["cancelled-series"] = (vi.simulate_creep, vi.KernelParams(0.5, 1.0, 0.8),
                                 pl, 1.0, np.linspace(0.0, 50.0, 64))
    return calls


def digest_refusals(vi, digests: dict) -> None:
    """Digest the class and message of each library refusal, or the repr of
    what the call returned instead, and the warnings it raised."""
    for label, (function, *args) in library_refusals(vi).items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                outcome = f"returned {function(*args)!r}"
            except Exception as exc:  # a raw ValueError is an outcome too
                outcome = f"{type(exc).__name__}: {exc}"
        outcome += "".join(f"\n{w.category.__name__}: {w.message}" for w in caught)
        digests[f"refusal/{label}"] = sha256(outcome.encode())


def digest_reprs(vi, digests: dict) -> None:
    """Digest the repr of each immutable record type, built from fixed inputs."""
    kp, pl = vi.KernelParams(0.5, 0.1, 0.8), vi.PowerLaw(1.0, 1.5)
    hist = vi.simulate_creep(kp, pl, 1.0, np.linspace(0.0, 0.005, 8))
    samples = vi.pipeline.extract_creep_kernel_samples(hist, pl)
    spline = vi.fit_kernel_spline(samples)
    records = {
        "KernelParams": kp,
        "PowerLaw": pl,
        "SeriesSum": vi.creep_kernel(kp, 1.0),
        "SeriesSum-array": vi.creep_kernel(kp, samples.times),
        "ResponseHistory": hist,
        "KernelSamples": samples,
        "Spline": spline,
        "Spline-row": spline[2],
        "IsochroneDataset": vi.IsochroneDataset(
            [0.5, 1.0], [0.0, 1.0, 2.0], [[1.0, 0.9, 0.85], [2.0, 1.8, 1.7]]),
    }
    for name, record in records.items():
        digests[f"repr/{name}"] = sha256(repr(record).encode())


def collect(vi, wl) -> dict:
    """Digest of every output, keyed by recipe, workload, seed, op and file."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        digest_cli_boundary(vi, wl, tmp / "cli", digests)
        readme = tmp / "readme"
        readme.mkdir()
        prefix = str(readme / "syn")
        digest_reports(wl, vi.cli, ["--mode", "table1", "--no-timestamp"],
                       "readme", digests)
        wl.run_cli(vi.cli, README_SIMULATE + ["--output", prefix])
        digest_files(readme, "readme", digests)
        files = ("_kernel_samples.csv", "_model_samples.csv",
                 "_isochrones.csv")
        for variant, rewrite in {"readme": None, **REWRITES}.items():
            if rewrite:
                for name in files:
                    text = Path(prefix + name).read_text()
                    Path(prefix + f"_{variant}" + name).write_text(
                        rewrite(text), newline="")
            base = prefix + (f"_{variant}" if rewrite else "")
            digest_identify(wl, vi.cli, [
                "--mode", "identify", "--input", base + files[0],
                "--model-samples", base + files[1],
                "--isochrones", base + files[2],
                "--lambda0", "1", "--q0", "1", "--sigma-over-H", "1",
                "--eval-at-knots", "--no-timestamp",
            ], variant, digests)
        for m_range in M_RANGES:
            digest_reports(wl, vi.cli, [
                "--mode", "identify", "--input", prefix + files[0],
                "--model-samples", prefix + files[1],
                "--strain-levels", STRAIN_LEVELS, "--m-range", m_range,
                "--lambda0", "1", "--sigma-over-H", "1",
                "--eval-at-knots", "--no-timestamp",
            ], f"readme-strain-levels-m{m_range}", digests)
        for power in ISOCHRONE_SCALES:
            path = Path(prefix + f"_2^{power}_isochrones.csv")
            path.write_text(scaled_isochrones(Path(prefix + files[2]).read_text(),
                                              power))
            digest_reports(wl, vi.cli, [
                "--mode", "identify", "--isochrones", str(path),
                "--lambda0", "0.9", "--no-timestamp",
            ], f"readme-2^{power}/isochrones-only", digests)
        for kind, grid in itertools.product(("creep", "relaxation"),
                                            SIMULATE_GRIDS):
            out_dir = tmp / "grids" / kind / grid
            out_dir.mkdir(parents=True)
            wl.run_cli(vi.cli, ["--mode", "simulate", "--kind", kind,
                                "--grid", grid, "--output", str(out_dir / "run")])
            digest_files(out_dir, f"grid-{grid}/{kind}", digests)
        for name, seed in itertools.product(WORKLOAD_NAMES, SEEDS):
            workload = wl.WORKLOADS[name]
            for op in itertools.islice(workload.ops(seed), OPS_PER_SEED):
                label = f"{name}/seed{seed}/op{op['index']}"
                out_dir = tmp / label
                out_dir.mkdir(parents=True)
                # the workload runs simulate and identify; its identify
                # call is replayed to digest the report as text and JSON
                recorder = RecordingCli(vi.cli)
                try:
                    workload.run(SimpleNamespace(cli=recorder), op, out_dir)
                except wl.OpFailed as exc:
                    digests[f"{label}/failure"] = sha256(str(exc).encode())
                digest_files(out_dir, label, digests)
                for argv in recorder.calls:
                    if argv[1] == "identify":
                        digest_identify(wl, vi.cli, argv, label, digests)
    digest_mismatches(vi, wl, digests)
    digest_reprs(vi, digests)
    digest_refusals(vi, digests)
    return digests


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "viscoident").is_dir():
        print("usage: compare_outputs.py OTHER_CHECKOUT (a directory holding "
              "src/viscoident)", file=sys.stderr)
        return 2
    wl = load_workloads()
    ours = collect(import_checkout(ROOT), wl)
    theirs = collect(import_checkout(Path(argv[0])), wl)
    differ = sorted(k for k in ours.keys() | theirs.keys()
                    if ours.get(k) != theirs.get(k))
    for key in differ:
        print(f"differs: {key}")
    print(f"{len(ours.keys() | theirs.keys()) - len(differ)} outputs identical, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
