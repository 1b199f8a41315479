"""End-to-end driver: file I/O, run modes, report emission. The routes from
a record to kernel samples that the run modes call are ``spline``'s.

Modes
-----
identify   ingest kernel samples (or derive them from isochrones), fit the
           segment spline, run the weighted-residual estimator, report.
simulate   generate a synthetic creep or relaxation experiment: the
           response history, the kernel samples extracted from it the way
           an experimenter would (differentiating the record, so they carry
           the intensity scale: lam*K or lam*R), a unit-intensity model
           sample file, and for creep runs an isochrone matrix.
table1     recompute the bundled reference table's segment coefficients
           and flag rows inconsistent with the coefficient formulas.
validate   run the data invariant suite against an input file.

Reports are deterministic: every number is printed with 9 significant
digits and the timestamp can be suppressed. Every table (the CSV files,
every report table) is rendered by ``fmt9_columns`` in row blocks
of at most ``BLOCK_FIELDS`` fields, one format call per block, so memory
stays bounded at any table size; the CSV writers stream the blocks to the
file. A simulate run renders its time grid once and every file it writes
reuses those fields; ``fmt9`` renders scalars. Each input file is read
once, for its text and its digest, and parsed with one numpy reader call.
"""

from __future__ import annotations

import hashlib
import json
import locale
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, ParseError, ValidationError
from .kernels import KernelParams, creep_kernel, relaxation_kernel
from .material import PowerLaw, phi0, simulate_creep, simulate_relaxation
from .residual import DEFAULT_M_RANGE, WeightConfig, identify
from .spline import (
    IsochroneDataset,
    KernelSamples,
    TABLE1_REL_TOL,
    compare_table1,
    derive_samples_from_isochrones,
    extract_creep_kernel_samples,
    fit_kernel_spline,
    relaxation_kernel_from_history,
    table1_fixture,
)


def fmt9(x) -> str:
    """Canonical 9-significant-digit rendering of one scalar."""
    return f"{float(x):.9g}"


# Fields per format call: bounds a render's transient floats, argument tuple
# and text, whatever the size of the table.
BLOCK_FIELDS = 16384


def fmt9_columns(columns) -> Iterator[str]:
    """Equal-length columns as CSV text blocks, one ``%`` call per block.

    A column is a float array (``%.9g``), an integer array (``%d``) or a
    list of fields already rendered (``%s``); a 2-d float array is a group
    of float columns. ``"%.9g" % x`` and ``f"{x:.9g}"`` share one correctly
    rounded formatter, so every field is the string ``fmt9`` gives for its
    value (for an integral float below 1e9, the string ``%d`` gives).
    Columns of unequal length raise ValueError here, before any block is
    rendered. A block holds as many whole rows as ``BLOCK_FIELDS`` fields
    allow, and at least one: it is the leading rows of one object array
    made per call, filled by one assignment per column group.
    """
    groups, formats = [], []
    for col in columns:
        if isinstance(col, list):
            fmt = "%s"
        elif np.asarray(col).dtype.kind in "iu":
            fmt, col = "%d", np.asarray(col)
        else:
            fmt, col = "%.9g", np.asarray(col, dtype=float)
        first = len(formats)
        if getattr(col, "ndim", 1) == 2:
            formats += [fmt] * col.shape[1]
            groups.append((col, slice(first, len(formats))))
        else:
            formats.append(fmt)
            groups.append((col, first))
    nrows, ncols = len(columns[0]), len(formats)
    if any(len(col) != nrows for col, _ in groups):
        raise ValueError("columns differ in length")
    row_format = ",".join(formats) + "\n"
    step = max(1, BLOCK_FIELDS // max(ncols, 1))

    def blocks():
        buffer = np.empty((min(step, nrows), ncols), dtype=object)
        for start in range(0, nrows, step):
            block = buffer[:nrows - start]
            for col, at in groups:
                block[:, at] = col[start:start + step]
            yield (row_format * len(block)) % tuple(block.ravel().tolist())

    return blocks()


@dataclass
class RunConfig:
    """Every run setting and the CLI's only defaults; mode-specific ones may be None."""

    mode: str = "identify"
    input: str | None = None
    isochrones: str | None = None
    model_samples: str | None = None
    output: str | None = None
    lambda0: float = 1.0
    q0: float = 1.0
    m_range: tuple = DEFAULT_M_RANGE
    gamma: float = 1e-6
    sigma_over_h: float | None = None
    strain_levels: tuple = ()
    eval_at_knots: bool = False
    no_timestamp: bool = False
    json_output: bool = False
    # simulate-mode material and experiment parameters
    alpha: float = 0.5
    beta: float = 0.0
    lam: float = 0.8
    H: float = 1.0
    q: float = 1.5
    sigma: float = 1.0
    eps: float = 1.0
    kind: str = "creep"
    grid: tuple = (0.0, 0.005, 64)


class Table:
    """A report table: its column names and its rows as rendered CSV text.

    ``rows`` holds one newline-terminated line per row, fields joined by
    commas; only the last column may itself contain a comma. A ``j``
    column is the 1-based row index, an int in the JSON form. (A plain
    class, like ``Report`` and the records: a dataclass would generate its
    methods at every import of the package.)
    """

    def __init__(self, columns: tuple, rows: str):
        self.columns = columns
        self.rows = rows

    def records(self) -> list[dict]:
        """The rows as dicts of column name to field text (``j`` an int)."""
        records = []
        for line in self.rows.splitlines():
            record = dict(zip(self.columns,
                              line.split(",", len(self.columns) - 1)))
            if "j" in record:
                record["j"] = int(record["j"])
            records.append(record)
        return records


class Report:
    """Ordered report sections; renders as text or JSON losslessly.
    ``tables`` maps a name to a ``Table``; a section left out is empty."""

    def __init__(self, header: dict | None = None, config: dict | None = None,
                 result: dict | None = None, tables: dict | None = None):
        self.header = {} if header is None else header
        self.config = {} if config is None else config
        self.result = {} if result is None else result
        self.tables = {} if tables is None else tables

    def to_json_dict(self) -> dict:
        return {
            "header": self.header,
            "config": self.config,
            "result": self.result,
            "tables": {name: t.records() for name, t in self.tables.items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = ["# viscoident report"]
        for title, section in ((None, self.header), ("[config]", self.config),
                               ("[result]", self.result)):
            if title and section:
                lines.append(title)
            lines += [f"{key}: {val}" for key, val in section.items()]
        parts = ["\n".join(lines) + "\n"]
        for name, table in self.tables.items():
            parts.append(f"[{name}]\n")
            if table.rows:
                parts += [",".join(table.columns) + "\n", table.rows]
        return "".join(parts)


def _read_input(path: Path) -> tuple[list[str], str]:
    """The lines of an input file and the SHA-256 digest of its bytes, from
    one read; failing to read or decode it is a ParseError.

    The bytes are decoded with ``open``'s default encoding, as
    ``Path.read_text`` does; ``splitlines`` ends a line at CRLF, CR or LF,
    which gives the lines that its newline translation would.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    digest = "sha256:" + hashlib.sha256(data).hexdigest()
    try:
        text = data.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError:
        raise ParseError(f"{path} is not a text file") from None
    del data  # so the peak holds two copies of the file (text, lines), not three
    return text.splitlines(), digest


def write_output(path: str | Path, text: str,
                 blocks: Iterable[str] = ()) -> None:
    """Write one output file, ``text`` then each of ``blocks`` in turn;
    failing to write it is a ValidationError."""
    try:
        with open(path, "w") as out:
            out.write(text)
            out.writelines(blocks)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from None


def _parse_table(rows: list[str]) -> np.ndarray | None:
    """Comma-separated rows as one 2-d float array, parsed in one numpy C
    reader call; None when the rows differ in width or a field is not a
    number. Whitespace around a field is ignored; ``#`` is no comment."""
    try:
        return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None


def _line_numbers(lines: list[str]) -> list[int]:
    """The 1-based physical line number of each non-blank line."""
    return [n for n, raw in enumerate(lines, start=1) if raw.strip()]


def _row_error(lines: list[str], header: bool,
               width: int | None = None) -> ParseError:
    """The error of the first malformed data row; rows count physical lines.
    An isochrone body passes its header's ``width``; a sample body's first
    data row sets the width, which must be 2 (t, K) or 3 (j, t, K)."""
    for rownum in _line_numbers(lines)[header:]:
        raw = lines[rownum - 1].strip()
        fields = raw.count(",") + 1
        if width is not None and fields != width:
            return ParseError(f"ragged row: {fields} fields where {width} expected",
                              row=rownum)
        if _parse_table([raw]) is None:
            return ParseError(f"non-numeric field in {raw!r}", row=rownum)
        if width is None and fields not in (2, 3):
            return ParseError(f"expected two columns (t, K), got {fields}",
                              row=rownum)
        width = fields
    raise AssertionError("no malformed row in a table that failed to parse")


def _build(lines: list[str], record, args: tuple, line_of):
    """``record(*args)``; its refusal of an entry becomes a ValidationError
    with the same message at non-blank line ``line_of(refusal)`` (0-based, a
    header counts). A refusal that names no entry passes through."""
    try:
        return record(*args)
    except DomainError as exc:
        if exc.index is None:
            raise
        row = _line_numbers(lines)[line_of(exc)]
        raise ValidationError(str(exc), row=row) from None


def ingest_kernel_samples(path: str | Path) -> tuple[KernelSamples, str]:
    """Read comma-separated (t, K) rows, optional header, into samples;
    return (samples, digest of the file's bytes).

    Blank lines are skipped, a first line that is not numeric is a header
    and an index column (j, t, K) is dropped; every data row must have the
    width of the first one. The values must pass ``KernelSamples``' rules.
    """
    path = Path(path)
    lines, digest = _read_input(path)
    rows = list(filter(str.strip, lines))
    header = bool(rows) and _parse_table(rows[:1]) is None
    if header:
        rows = rows[1:]
    if not rows:
        raise ParseError(f"{path}: file holds no data rows")
    table = _parse_table(rows)
    if table is None or table.shape[1] not in (2, 3):  # 3: (j, t, K)
        raise _row_error(lines, header)
    return _build(lines, KernelSamples, (table[:, -2].copy(), table[:, -1].copy()),
                  lambda exc: header + exc.index[0]), digest


def ingest_isochrones(path: str | Path) -> tuple[IsochroneDataset, str]:
    """Read an isochrone matrix: header row of times, strain-level rows;
    return (data, digest of the file's bytes). The values must pass
    ``IsochroneDataset``' rules; a refused time names the header line."""
    path = Path(path)
    lines, digest = _read_input(path)
    rows = list(filter(str.strip, lines))
    if len(rows) < 2:
        raise ParseError(f"{path}: need a time header plus strain rows")
    _, comma, times = rows[0].partition(",")
    head = _parse_table(["0" + comma + times])  # the label parsed as a 0
    if head is None:
        raise ParseError("time header holds a non-numeric field",
                         row=_line_numbers(lines)[0])
    table = _parse_table(rows[1:])
    if table is None or table.shape[1] != head.shape[1]:
        raise _row_error(lines, header=True, width=head.shape[1])
    args = table[:, 0].copy(), head[0, 1:], table[:, 1:].copy()
    return _build(lines, IsochroneDataset, args, lambda exc: (
        0 if str(exc).startswith("isochrone times") else 1 + exc.index[0])), digest


def write_samples_csv(path: str | Path, times, values,
                      header: str = "t,K") -> None:
    """A (t, value) CSV file; ``times`` may be fields already rendered."""
    write_output(path, header + "\n", fmt9_columns((times, values)))


def write_isochrones_csv(path: str | Path, data: IsochroneDataset,
                         time_fields: list[str]) -> None:
    """An isochrone CSV file; ``time_fields`` are the rendered ``data.times``."""
    write_output(path, "eps," + ",".join(time_fields) + "\n",
                 fmt9_columns((data.strain_levels, data.phi_t)))


def _header(cfg: RunConfig, digests: dict) -> dict:
    head = {"version": __version__, "mode": cfg.mode}
    if not cfg.no_timestamp:
        head["timestamp"] = datetime.now(timezone.utc).isoformat()
    for name, dig in digests.items():
        head[f"input-digest.{name}"] = dig
    return head


def _format_m_range(m_range) -> str:
    ms = sorted(m_range)
    if ms == list(range(ms[0], ms[-1] + 1)):
        return f"{ms[0]}:{ms[-1]}"
    return ",".join(str(m) for m in ms)


def _config_echo(cfg: RunConfig) -> dict:
    echo = {
        "lambda0": fmt9(cfg.lambda0),
        "q0": fmt9(cfg.q0),
        "m_range": _format_m_range(cfg.m_range),
        "gamma": fmt9(cfg.gamma),
        "eval_at_knots": str(cfg.eval_at_knots),
    }
    if cfg.sigma_over_h is not None:
        echo["sigma_over_H"] = fmt9(cfg.sigma_over_h)
    if cfg.strain_levels:
        echo["strain_levels"] = ";".join(fmt9(e) for e in cfg.strain_levels)
    if cfg.mode == "simulate":
        echo.update(
            kind=cfg.kind, alpha=fmt9(cfg.alpha), beta=fmt9(cfg.beta),
            lam=fmt9(cfg.lam), H=fmt9(cfg.H), q=fmt9(cfg.q),
            grid=f"{fmt9(cfg.grid[0])}:{fmt9(cfg.grid[1])}:{int(cfg.grid[2])}",
        )
        echo["sigma" if cfg.kind == "creep" else "eps"] = fmt9(
            cfg.sigma if cfg.kind == "creep" else cfg.eps
        )
    return echo


def _run_identify(cfg: RunConfig) -> Report:
    digests = {}
    if cfg.input:
        samples, digests["samples"] = ingest_kernel_samples(cfg.input)
    elif cfg.isochrones:
        samples = None
    else:
        raise ValidationError("identify needs --input or --isochrones")

    iso = None
    if cfg.isochrones:
        iso, digests["isochrones"] = ingest_isochrones(cfg.isochrones)

    sigma_over_h = cfg.sigma_over_h if cfg.sigma_over_h is not None else 1.0
    wcfg = WeightConfig(lambda0=cfg.lambda0, q0=cfg.q0, gamma=cfg.gamma)
    pl0 = PowerLaw(H=1.0, q=cfg.q0)
    if samples is None:
        samples = derive_samples_from_isochrones(iso, pl0)

    model_ref = bool(cfg.model_samples)
    fitted = samples
    if model_ref:
        fitted, digests["model_samples"] = ingest_kernel_samples(cfg.model_samples)
    segments = fit_kernel_spline(fitted)

    result = identify(
        samples, segments, iso, wcfg, sigma=sigma_over_h, pl0=pl0,
        strain_levels=cfg.strain_levels or None, at_knots=cfg.eval_at_knots,
        m_range=cfg.m_range, model_segments=model_ref,
    )

    report = Report(header=_header(cfg, digests), config=_config_echo(cfg))
    report.result = {
        "lambda_hat": fmt9(result.lambda_hat),
        "lambda_ratio": fmt9(result.diagnostics["lambda_ratio"]),
        "q_hat": fmt9(result.q_hat),
        "delta": fmt9(result.delta),
        "m_selected": str(result.m_selected),
        "model_reference": str(model_ref),
        "q_pairs_failed": str(len(result.diagnostics.get("q_failures", []))),
    }
    report.tables["samples"] = Table(
        ("j", "t", "K", "model", "weight", "residual"),
        "".join(fmt9_columns((
            np.arange(1, len(samples) + 1), samples.times, samples.values,
            result.diagnostics["model_values"], result.weights,
            result.diagnostics["residuals"],
        ))),
    )
    return report


def _run_simulate(cfg: RunConfig) -> Report:
    if cfg.output is None:
        raise ValidationError("simulate needs --output as a file prefix")
    kp = KernelParams(alpha=cfg.alpha, beta=cfg.beta, lam=cfg.lam)
    pl = PowerLaw(H=cfg.H, q=cfg.q)
    start, stop, count = cfg.grid
    if not (math.isfinite(start) and math.isfinite(stop) and count >= 0):
        raise DomainError(f"grid needs finite ends and a point count >= 0, "
                          f"got {start}:{stop}:{count}")
    grid = np.linspace(start, stop, int(count))
    base = Path(cfg.output)

    iso = None
    if cfg.kind == "creep":
        hist = simulate_creep(kp, pl, cfg.sigma, grid)
        samples = extract_creep_kernel_samples(hist, pl)
        model = creep_kernel(kp, samples.times).checked(samples.times)
        phi_inst = phi0(pl, hist.values)
        s_fun = phi_inst / hist.driver  # the route refused a zero after t = 0
        iso = IsochroneDataset(hist.values[1:], hist.times[1:],
                               phi_inst[1:, None] / s_fun[None, 1:])
        value_header = "t,eps"
    elif cfg.kind == "relaxation":
        hist = simulate_relaxation(kp, pl, cfg.eps, grid)
        samples = relaxation_kernel_from_history(hist, pl)
        model = relaxation_kernel(kp, samples.times).checked(samples.times)
        value_header = "t,sigma"
    else:
        raise ValidationError(f"unknown simulate kind {cfg.kind!r}")

    # The simulators' grid starts at t = 0 (material._check_grid), the one
    # row spline._kernel_samples drops, so the sample and isochrone times are
    # hist.times[1:]: each time is rendered once, for every file.
    time_fields = "".join(fmt9_columns([hist.times])).splitlines()
    sample_fields = time_fields[1:]
    outputs = {}
    if iso is not None:
        iso_path = base.parent / (base.name + "_isochrones.csv")
        write_isochrones_csv(iso_path, iso, sample_fields)
        outputs["isochrones"] = str(iso_path)
    hist_path = base.parent / (base.name + "_history.csv")
    samp_path = base.parent / (base.name + "_kernel_samples.csv")
    model_path = base.parent / (base.name + "_model_samples.csv")
    write_samples_csv(hist_path, time_fields, hist.values, header=value_header)
    write_samples_csv(samp_path, sample_fields, samples.values)
    write_samples_csv(model_path, sample_fields, model)
    outputs["history"] = str(hist_path)
    outputs["kernel_samples"] = str(samp_path)
    outputs["model_samples"] = str(model_path)

    report = Report(header=_header(cfg, {}), config=_config_echo(cfg))
    report.result = {f"output.{k}": v for k, v in sorted(outputs.items())}
    report.result["n_history"] = str(len(hist.times))
    report.result["n_samples"] = str(len(samples))
    return report


def _run_table1(cfg: RunConfig) -> Report:
    digests = {}
    if cfg.input:
        samples, digests["samples"] = ingest_kernel_samples(cfg.input)
    else:
        samples = table1_fixture()
    comparison = compare_table1(samples)
    report = Report(header=_header(cfg, digests), config=_config_echo(cfg))
    report.header["comparison-tolerance"] = fmt9(TABLE1_REL_TOL)
    flagged = [row["j"] for row in comparison if row["flagged"]]
    report.result = {
        "rows": str(len(comparison)),
        "flagged_rows": ";".join(str(j) for j in flagged) or "none",
    }
    numeric = ("t", "B", "printed_2C", "computed_2C", "printed_3D", "computed_3D")
    columns = (np.arange(1, len(comparison) + 1),
               np.array([[row[c] for c in numeric] for row in comparison]),
               [str(row["flagged"]) for row in comparison])
    report.tables["table1"] = Table(("j", *numeric, "flag"),
                                    "".join(fmt9_columns(columns)))
    return report


def _run_validate(cfg: RunConfig) -> Report:
    if not cfg.input:
        raise ValidationError("validate needs --input")
    samples, digest = ingest_kernel_samples(cfg.input)
    checks = []

    def check(name, ok, detail=""):
        checks.append((name, "pass" if ok else "FAIL", detail))

    check("positive-values", bool(np.all(samples.values > 0)),
          "kernel data is expected positive")
    spline = fit_kernel_spline(samples)
    check("knot-interpolation",
          bool(np.all(spline.value(samples.times) == samples.values)))
    tail = spline[1:]
    check("coefficient-ratio-2t", bool(np.all(
        (tail.twoC == 2.0 * tail.t * tail.threeD) | (tail.threeD == 0.0)
    )))
    check("first-segment-flat", spline.twoC[0] == 0.0 and spline.threeD[0] == 0.0)

    report = Report(
        header=_header(cfg, {"samples": digest}),
        config=_config_echo(cfg),
    )
    failed = [name for name, status, _ in checks if status == "FAIL"]
    report.result = {
        "checks": str(len(checks)),
        "failed": ";".join(failed) or "none",
    }
    report.tables["validate"] = Table(
        ("check", "status", "detail"),
        "".join(fmt9_columns([list(column) for column in zip(*checks)])),
    )
    return report


RUNNERS = {
    "identify": _run_identify,
    "simulate": _run_simulate,
    "table1": _run_table1,
    "validate": _run_validate,
}


def run(cfg: RunConfig) -> Report:
    """Dispatch one run; returns the report (callers render and write it)."""
    if cfg.mode not in RUNNERS:
        raise ValidationError(f"unknown mode {cfg.mode!r}")
    if cfg.output == "":
        raise ValidationError("--output needs a non-empty path")
    return RUNNERS[cfg.mode](cfg)
