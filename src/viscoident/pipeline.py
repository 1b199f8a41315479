"""End-to-end driver: ingestion, run modes, report emission.

Modes
-----
identify   ingest kernel samples (or derive them from isochrones), fit the
           segment spline, run the weighted-residual estimator, report.
simulate   generate a synthetic creep or relaxation experiment: the
           response history, the kernel samples extracted from it the way
           an experimenter would (similarity-function differentiation, so
           they carry the intensity scale), a unit-intensity model sample
           file, and for creep runs an isochrone matrix.
table1     recompute the bundled reference table's segment coefficients
           and flag rows inconsistent with the coefficient formulas.
validate   run the data invariant suite against an input file.

Reports are deterministic: every number is printed with 9 significant
digits and the timestamp can be suppressed. ``fmt9_rows`` renders numeric
tables (the CSV files and the report's sample table) a row at a time;
``fmt9`` renders scalars (result fields, the config echo, table1 rows).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InsufficientDataError, ParseError, ValidationError
from .kernels import KernelParams, creep_kernel, relaxation_kernel
from .material import (
    KIND_CREEP,
    PowerLaw,
    ResponseHistory,
    phi0,
    relaxation_kernel_from_history,
    simulate_creep,
    simulate_relaxation,
)
from .residual import DEFAULT_M_RANGE, WeightConfig, identify
from .spline import (
    IsochroneDataset,
    KernelSamples,
    TABLE1_REL_TOL,
    compare_table1,
    fit_kernel_spline,
    table1_fixture,
)


def fmt9(x) -> str:
    """Canonical 9-significant-digit rendering of one scalar."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def fmt9_rows(table) -> list[str]:
    """Each row of a 2-d numeric table as comma-joined ``fmt9`` fields.

    ``"%.9g" % x`` and ``f"{x:.9g}"`` share one correctly rounded float
    formatter, so every field is the string ``fmt9`` gives for a float.
    """
    arr = np.asarray(table, dtype=float)
    row_format = ",".join(["%.9g"] * arr.shape[1])
    return [row_format % tuple(row) for row in arr.tolist()]


@dataclass
class RunConfig:
    """Everything a run needs; mode-specific fields may stay None."""

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


@dataclass
class Report:
    """Ordered report sections; renders as text or JSON losslessly."""

    header: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    result: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "header": self.header,
            "config": self.config,
            "result": self.result,
            "tables": self.tables,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        lines = ["# viscoident report"]
        for key, val in self.header.items():
            lines.append(f"{key}: {val}")
        if self.config:
            lines.append("[config]")
            for key, val in self.config.items():
                lines.append(f"{key}: {val}")
        if self.result:
            lines.append("[result]")
            for key, val in self.result.items():
                lines.append(f"{key}: {val}")
        for name, table in self.tables.items():
            lines.append(f"[{name}]")
            if table:
                cols = list(table[0].keys())
                lines.append(",".join(cols))
                for row in table:
                    lines.append(",".join(str(row[c]) for c in cols))
        return "\n".join(lines) + "\n"


def _digest(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def ingest_kernel_samples(path: str | Path) -> KernelSamples:
    """Read comma-separated (t, K) rows, optional header, into samples."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    times, values = [], []
    rows = path.read_text().splitlines()
    data_rows = [
        (i + 1, r.strip()) for i, r in enumerate(rows) if r.strip()
    ]
    if not data_rows:
        raise ParseError(f"{path}: file holds no data rows")
    for rownum, raw in data_rows:
        try:  # float() ignores the whitespace around each field
            rec = list(map(float, raw.split(",")))
        except ValueError:
            if rownum == data_rows[0][0]:
                continue  # header line
            raise ParseError(f"non-numeric field in {raw!r}", row=rownum)
        if len(rec) == 3:
            rec = rec[1:]  # tolerate an index column (j, t, K)
        if len(rec) != 2:
            raise ParseError(
                f"expected two columns (t, K), got {len(rec)}", row=rownum
            )
        times.append(rec[0])
        values.append(rec[1])
    if not times:
        raise ParseError(f"{path}: file holds no data rows")
    arr_t, arr_v = np.array(times), np.array(values)
    if not np.all(np.isfinite(arr_t)) or not np.all(np.isfinite(arr_v)):
        bad = int(np.nonzero(~(np.isfinite(arr_t) & np.isfinite(arr_v)))[0][0])
        raise ValidationError("non-finite sample", row=bad + 1)
    if len(arr_t) > 1 and not np.all(np.diff(arr_t) > 0.0):
        bad = int(np.nonzero(np.diff(arr_t) <= 0.0)[0][0])
        raise ValidationError(
            f"non-increasing times: t[{bad + 1}] = {arr_t[bad]} then "
            f"{arr_t[bad + 1]}",
            row=bad + 2,
        )
    return KernelSamples(arr_t, arr_v)


def ingest_isochrones(path: str | Path) -> IsochroneDataset:
    """Read an isochrone matrix: header row of times, strain-level rows."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"no such file: {path}")
    rows = [r for r in path.read_text().splitlines() if r.strip()]
    if len(rows) < 2:
        raise ParseError(f"{path}: need a time header plus strain rows")
    head = rows[0].split(",")
    try:  # float() ignores the whitespace around each field
        times = list(map(float, head[1:]))
    except ValueError:
        raise ParseError("time header holds a non-numeric field", row=1)
    strains, matrix = [], []
    width = len(head)
    for i, raw in enumerate(rows[1:], start=2):
        parts = raw.split(",")
        if len(parts) != width:
            raise ParseError(
                f"ragged row: {len(parts)} fields where {width} expected",
                row=i,
            )
        try:
            rec = list(map(float, parts))
        except ValueError:
            raise ParseError(f"non-numeric field in {raw!r}", row=i)
        strains.append(rec[0])
        matrix.append(rec[1:])
    m = np.array(matrix)
    if np.any(m <= 0.0):
        bad = int(np.nonzero(np.any(m <= 0.0, axis=1))[0][0])
        raise ValidationError("nonpositive isochrone value", row=bad + 2)
    return IsochroneDataset(np.array(strains), np.array(times), m)


def write_samples_csv(path: str | Path, times, values,
                      header: str = "t,K") -> None:
    lines = [header] + fmt9_rows(np.column_stack((times, values)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_isochrones_csv(path: str | Path, data: IsochroneDataset) -> None:
    lines = ["eps," + fmt9_rows([data.times])[0]]
    lines += fmt9_rows(np.column_stack((data.strain_levels, data.phi_t)))
    Path(path).write_text("\n".join(lines) + "\n")


def extract_creep_kernel_samples(hist: ResponseHistory,
                                 pl: PowerLaw) -> KernelSamples:
    """Kernel samples from a creep record via the similarity route.

    The similarity function is phi0(eps(t))/sigma; its time derivative is
    the hereditary memory lam*K(t), so the extracted samples carry the
    intensity scale (the intensity is not separately observable from one
    creep record). Differentiation is second order; the t = 0 row is
    dropped because the kernel is singular there.
    """
    if hist.kind != KIND_CREEP:
        raise ValidationError(f"need a {KIND_CREEP} history, got {hist.kind!r}")
    if len(hist.times) < 3:
        raise InsufficientDataError(
            "need at least three history points to differentiate"
        )
    s = phi0(pl, hist.values) / hist.driver
    u = np.gradient(s, hist.times, edge_order=2)
    return KernelSamples(hist.times[1:], u[1:])


def derive_samples_from_isochrones(iso: IsochroneDataset,
                                   pl0: PowerLaw) -> KernelSamples:
    """Similarity means differentiated on the isochrone time grid.

    Like the creep-record route, the result carries the intensity scale
    inside the sample values.
    """
    from .spline import similarity_means

    if len(iso.times) < 3:
        raise InsufficientDataError(
            "need at least three isochrone times to differentiate"
        )
    s_bar = similarity_means(iso, pl0)
    u = np.gradient(s_bar, iso.times, edge_order=2)
    start = 1 if iso.times[0] == 0.0 else 0
    return KernelSamples(iso.times[start:], u[start:])


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
        samples = ingest_kernel_samples(cfg.input)
        digests["samples"] = _digest(cfg.input)
    elif cfg.isochrones:
        samples = None
    else:
        raise ValidationError("identify needs --input or --isochrones")

    iso = None
    if cfg.isochrones:
        iso = ingest_isochrones(cfg.isochrones)
        digests["isochrones"] = _digest(cfg.isochrones)

    sigma_over_h = cfg.sigma_over_h if cfg.sigma_over_h is not None else 1.0
    pl0 = PowerLaw(H=1.0, q=cfg.q0)
    if samples is None:
        samples = derive_samples_from_isochrones(iso, pl0)

    model_ref = False
    if cfg.model_samples:
        ref = ingest_kernel_samples(cfg.model_samples)
        digests["model_samples"] = _digest(cfg.model_samples)
        if len(ref) != len(samples) or not np.allclose(
            ref.times, samples.times, rtol=0, atol=0
        ):
            raise ValidationError(
                "model sample times must match the data sample times"
            )
        segments = fit_kernel_spline(ref)
        model_ref = True
    else:
        segments = fit_kernel_spline(samples)

    strain_levels = np.array(cfg.strain_levels) if cfg.strain_levels else None
    wcfg = WeightConfig(lambda0=cfg.lambda0, q0=cfg.q0, gamma=cfg.gamma)
    result = identify(
        samples, segments, iso, wcfg, sigma=sigma_over_h, pl0=pl0,
        strain_levels=strain_levels, at_knots=cfg.eval_at_knots,
        m_range=cfg.m_range, model_segments=model_ref,
    )

    report = Report(header=_header(cfg, digests), config=_config_echo(cfg))
    report.result = {
        "lambda_hat": fmt9(result.lambda_hat),
        "lambda_ratio": fmt9(result.diagnostics["lambda_ratio"]),
        "q_hat": fmt9(result.q_hat) if not math.isnan(result.q_hat) else "nan",
        "delta": fmt9(result.delta),
        "m_selected": str(result.m_selected),
        "model_reference": str(model_ref),
        "q_pairs_failed": str(len(result.diagnostics.get("q_failures", []))),
    }
    columns = ("t", "K", "model", "weight", "residual")
    table = np.column_stack((
        samples.times, samples.values, result.diagnostics["model_values"],
        result.weights, result.diagnostics["residuals"],
    ))
    report.tables["samples"] = [
        {"j": j, **dict(zip(columns, line.split(",")))}
        for j, line in enumerate(fmt9_rows(table), start=1)
    ]
    return report


def _run_simulate(cfg: RunConfig) -> Report:
    if cfg.output is None:
        raise ValidationError("simulate needs --output as a file prefix")
    kp = KernelParams(alpha=cfg.alpha, beta=cfg.beta, lam=cfg.lam)
    pl = PowerLaw(H=cfg.H, q=cfg.q)
    grid = np.linspace(cfg.grid[0], cfg.grid[1], int(cfg.grid[2]))
    base = Path(cfg.output)

    outputs = {}
    if cfg.kind == "creep":
        hist = simulate_creep(kp, pl, cfg.sigma, grid)
        samples = extract_creep_kernel_samples(hist, pl)
        model = creep_kernel(kp, samples.times).value
        phi_inst = phi0(pl, hist.values)
        s_fun = phi_inst / cfg.sigma
        iso = IsochroneDataset(
            strain_levels=hist.values[1:],
            times=hist.times[1:],
            phi_t=phi_inst[1:, None] / s_fun[None, 1:],
        )
        iso_path = base.parent / (base.name + "_isochrones.csv")
        write_isochrones_csv(iso_path, iso)
        outputs["isochrones"] = str(iso_path)
        value_header = "t,eps"
    elif cfg.kind == "relaxation":
        hist = simulate_relaxation(kp, pl, cfg.eps, grid)
        raw = relaxation_kernel_from_history(hist, pl, lam=1.0)
        samples = KernelSamples(raw.times[1:], raw.values[1:])
        model = relaxation_kernel(kp, samples.times).value
        value_header = "t,sigma"
    else:
        raise ValidationError(f"unknown simulate kind {cfg.kind!r}")

    hist_path = base.parent / (base.name + "_history.csv")
    samp_path = base.parent / (base.name + "_kernel_samples.csv")
    model_path = base.parent / (base.name + "_model_samples.csv")
    write_samples_csv(hist_path, hist.times, hist.values, header=value_header)
    write_samples_csv(samp_path, samples.times, samples.values)
    write_samples_csv(model_path, samples.times, model)
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
        samples = ingest_kernel_samples(cfg.input)
        digests["samples"] = _digest(cfg.input)
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
    report.tables["table1"] = [
        {
            "j": row["j"],
            "t": fmt9(row["t"]),
            "B": fmt9(row["B"]),
            "printed_2C": fmt9(row["printed_2C"]),
            "computed_2C": fmt9(row["computed_2C"]),
            "printed_3D": fmt9(row["printed_3D"]),
            "computed_3D": fmt9(row["computed_3D"]),
            "flag": str(row["flagged"]),
        }
        for row in comparison
    ]
    return report


def _run_validate(cfg: RunConfig) -> Report:
    if not cfg.input:
        raise ValidationError("validate needs --input")
    samples = ingest_kernel_samples(cfg.input)
    checks = []

    def check(name, ok, detail=""):
        checks.append({"check": name, "status": "pass" if ok else "FAIL",
                       "detail": detail})

    check("strictly-increasing-times", bool(np.all(np.diff(samples.times) > 0)))
    check("finite-values", bool(np.all(np.isfinite(samples.values))))
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
        header=_header(cfg, {"samples": _digest(cfg.input)}),
        config=_config_echo(cfg),
    )
    failed = [c["check"] for c in checks if c["status"] == "FAIL"]
    report.result = {
        "checks": str(len(checks)),
        "failed": ";".join(failed) or "none",
    }
    report.tables["validate"] = checks
    return report


def run(cfg: RunConfig) -> Report:
    """Dispatch one run; returns the report (callers render and write it)."""
    runners = {
        "identify": _run_identify,
        "simulate": _run_simulate,
        "table1": _run_table1,
        "validate": _run_validate,
    }
    if cfg.mode not in runners:
        raise ValidationError(f"unknown mode {cfg.mode!r}")
    return runners[cfg.mode](cfg)
