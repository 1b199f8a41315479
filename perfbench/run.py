#!/usr/bin/env python3
"""viscoident benchmark: seeded workloads, correctness gates, layer tracing.

Run from the root of a source checkout (it imports ``src/viscoident``):

    python3 perfbench/run.py --workload creep_roundtrip --seed 1 \
        --seconds 40 --trace 0

One process, one operation in flight at a time (a closed loop with one
client), calling the public entry points in-process. Before any timing it
runs the reference gate, then the determinism check; either failing exits
non-zero. ``--trace 0`` times untraced operations and reports the
end-to-end metrics; ``--trace 1`` runs every operation untraced and traced
back to back and reports the per-layer metrics. The last line of standard
output is one JSON object; the lines before it are a readable report.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import os

# Cap BLAS/OpenMP pools before numpy loads: similarity_means calls a matmul.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import layers  # noqa: E402
from workloads import (  # noqa: E402
    MISMATCH_BOUND, WORKLOADS, OpFailed, finite_estimate, report_result, run_cli,
)

MIN_OPS = 11          # the tail metrics need 10 samples beyond them
MIN_TRACED_PAIRS = 3
RECIPE_TOL = 0.05     # frozen acceptance tolerance on lam and q


class CheckFailed(Exception):
    """A reference, determinism or work-count check failed."""


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def load_program(src: Path):
    """Import viscoident from ``src`` and return the package."""
    importlib.import_module("viscoident.cli")
    vi = sys.modules["viscoident"]
    if Path(vi.__file__).resolve().parent.parent != src:
        raise CheckFailed(f"imported viscoident from {vi.__file__}, not {src}")
    return vi


def import_seconds() -> float:
    """Seconds of one fresh import of viscoident; the working modules stay.

    Garbage is collected first and the collector is paused while the
    import is timed, as ``timeit`` does.
    """
    saved = {k: m for k, m in sys.modules.items() if k.split(".")[0] == "viscoident"}
    gc.collect()
    gc.disable()
    try:
        for name in saved:
            del sys.modules[name]
        start = perf_counter()
        importlib.import_module("viscoident.cli")
        return perf_counter() - start
    finally:
        gc.enable()
        for name in [k for k in sys.modules if k.split(".")[0] == "viscoident"]:
            del sys.modules[name]
        sys.modules.update(saved)


def reference_gate(vi, tmp: Path) -> dict:
    """Frozen acceptance results; any miss raises CheckFailed."""
    prefix = str(tmp / "reference")
    run_cli(vi.cli, ["--mode", "simulate", "--kind", "creep", "--alpha", "0.5",
                     "--beta", "0", "--lam", "0.8", "--H", "1", "--q", "1.5",
                     "--sigma", "1", "--grid", "0:0.005:64", "--output", prefix])
    result = report_result(run_cli(vi.cli, [
        "--mode", "identify", "--input", prefix + "_kernel_samples.csv",
        "--model-samples", prefix + "_model_samples.csv",
        "--isochrones", prefix + "_isochrones.csv", "--lambda0", "1",
        "--q0", "1", "--sigma-over-H", "1", "--eval-at-knots", "--no-timestamp",
    ]))
    ref = {
        "ref_lam_err": abs(finite_estimate(result, "lambda_hat") / 0.8 - 1.0),
        "ref_q_err": abs(finite_estimate(result, "q_hat") / 1.5 - 1.0),
    }
    t = np.linspace(0.0, 4.0, 256)
    ref["ref_mismatch"] = vi.resolvent_mismatch(
        vi.KernelParams(alpha=0.5, beta=0.1, lam=0.2), vi.PowerLaw(1.0, 1.0),
        vi.ResponseHistory(t, np.ones(256), vi.KIND_STRESS_PROGRAM, 1.0))
    flagged = report_result(run_cli(vi.cli, ["--mode", "table1", "--no-timestamp"]))
    misses = [
        f"{key} = {ref[key]:.3g} above {tol}"
        for key, tol in (("ref_lam_err", RECIPE_TOL), ("ref_q_err", RECIPE_TOL),
                         ("ref_mismatch", MISMATCH_BOUND))
        if not ref[key] <= tol
    ]
    if flagged["flagged_rows"] != "3;5":
        misses.append(f"table1 flags rows {flagged['flagged_rows']}, not 3;5")
    if misses:
        raise CheckFailed("reference gate: " + "; ".join(misses))
    return ref


def determinism_check(workload, vi, op, tmp: Path) -> str:
    """Run the first operation twice; its outputs must be byte-identical."""
    first, _ = workload.run(vi, op, tmp)
    second, _ = workload.run(vi, op, tmp)
    if digest(first) != digest(second):
        raise CheckFailed(f"op 0 output differs between two runs: "
                          f"{digest(first)} vs {digest(second)}")
    return digest(first)


def timed(workload, vi, op, tmp, outcomes) -> float:
    """Seconds one operation took; appends its accuracy, or None if it failed."""
    start = perf_counter()
    try:
        _, accuracy = workload.run(vi, op, tmp)
    except OpFailed as exc:
        print(f"op {op['index']} failed: {exc}", file=sys.stderr)
        accuracy = None
    elapsed = perf_counter() - start
    outcomes.append(accuracy)
    return elapsed


def traced(tracer, workload, vi, op, tmp, outcomes):
    """One traced run of ``op``: (seconds, per-layer times, work counts)."""
    tracer.start_op(op["index"])
    tracer.install()
    try:
        elapsed = timed(workload, vi, op, tmp, outcomes)
    finally:
        tracer.uninstall()
    return elapsed, layers.op_times(tracer.spans, tracer.counts), layers.op_counts(tracer.counts)


def calibration_s() -> float:
    """Seconds of a fixed loop that runs no viscoident code.

    Python arithmetic plus numpy passes over a 2 MB array, about 35 ms. The
    host alternates between a fast and a slow speed regime for seconds at a
    time; dividing an operation's time by the calibrations run just before
    and after it cancels most of that swing.
    """
    start = perf_counter()
    x = 0.0
    for i in range(300_000):
        x += i * 0.5
    a = np.arange(250_000, dtype=float)  # 2 MB: small beside any workload's peak RSS
    for _ in range(32):
        a = a * 1.0000001
    return perf_counter() - start


def measure(workload, vi, ops, seconds: float, tmp: Path) -> dict:
    """Closed loop of untraced operations for ``seconds`` (at least MIN_OPS).

    A calibration runs before the first operation and after each one, and
    after each one the package is also imported afresh once. setup_s is the
    fastest of those imports: spread over the run, they see the host's fast
    regime, where a median of them would flip between the two regimes.
    """
    times, outcomes, run, calib, imports = [], [], [], [calibration_s()], []
    start = perf_counter()
    while perf_counter() - start < seconds or len(times) < MIN_OPS:
        op = next(ops)
        run.append(op)
        times.append(timed(workload, vi, op, tmp, outcomes))
        calib.append(calibration_s())
        imports.append(import_seconds())
    rel = sorted(t / (0.5 * (calib[i] + calib[i + 1])) for i, t in enumerate(times))
    ordered = sorted(times)
    tail_rank = len(ordered) - 11  # 10 samples lie beyond this one
    tail_note = f"p{100.0 * (tail_rank + 1) / len(ordered):.1f} of {len(ordered)} samples"
    return {
        "ops": run, "outcomes": outcomes,
        "metrics": {"op_p50_rel": statistics.median(rel), "op_tail_rel": rel[tail_rank],
                    "setup_s": min(imports)},
        # in seconds they swing with the host's speed regime, so no bound
        "printed": [
            ("op_p50_s", statistics.median(times), "s", ""),
            ("op_tail_s", ordered[tail_rank], "s", tail_note),
            ("ops_per_s", len(times) / sum(times), "1/s", ""),
            ("calibration_s", statistics.median(calib), "s", ""),
        ],
        "tail_note": tail_note,
    }


def measure_traced(workload, vi, ops, seconds: float, tmp: Path, out_file: Path) -> dict:
    """Each operation untraced then traced (order alternating) for ``seconds``.

    The first operation is traced once more up front: its work counts must
    repeat exactly, and its spans are written to ``out_file``.
    """
    tracer = layers.Tracer(vi)
    outcomes, run, layer_times, traced_s, overhead = [], [], [], [], []
    op = next(ops)
    _, _, counts = traced(tracer, workload, vi, op, tmp, outcomes)
    out_file.write_text(json.dumps({"op": op, "spans": tracer.spans}))
    start = perf_counter()
    while perf_counter() - start < seconds or len(run) < MIN_TRACED_PAIRS:
        if len(run) % 2 == 0:
            plain = timed(workload, vi, op, tmp, outcomes)
            with_trace, op_times, op_counts = traced(tracer, workload, vi, op, tmp, outcomes)
        else:
            with_trace, op_times, op_counts = traced(tracer, workload, vi, op, tmp, outcomes)
            plain = timed(workload, vi, op, tmp, outcomes)
        if not run:
            repeat = {k: (counts[k], op_counts[k]) for k in layers.WORK_COUNTS
                      if counts[k] != op_counts[k]}
            if repeat:
                raise CheckFailed(f"work counts of op 0 did not repeat: {repeat}")
        run.append(op)
        overhead.append(with_trace - plain)
        traced_s.append(with_trace)
        layer_times.append(op_times)
        op = next(ops)
    metrics = {k: statistics.median(t[k] for t in layer_times)
               for k in layers.TIME_METRICS}
    metrics.update(counts)
    metrics["trace.overhead_s"] = statistics.median(overhead)
    metrics["trace.op_p50_s"] = statistics.median(traced_s)
    return {"ops": run, "outcomes": outcomes, "metrics": metrics}


def accuracy(outcomes: list) -> dict:
    """Accuracy of the operations that succeeded; 0 where none applies."""
    done = [o for o in outcomes if o is not None]

    def pick(key, how):
        values = [o[key] for o in done if key in o]
        return how(values) if values else 0.0

    return {
        "accuracy.lam_err_p50": pick("lam_err", statistics.median),
        "accuracy.lam_err_max": pick("lam_err", max),
        "accuracy.q_err_p50": pick("q_err", statistics.median),
        "accuracy.q_err_max": pick("q_err", max),
        "accuracy.q_pairs_failed_frac": pick("q_pairs_failed_frac", statistics.fmean),
        "accuracy.mismatch_max": pick("mismatch", max),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd().resolve()
    src = root / "src"
    if not (src / "viscoident" / "__init__.py").is_file():
        print(f"error: no viscoident source under {src}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    # the metric names and units printed are exactly those BENCHMARK.json lists
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    sys.path.insert(0, str(src))
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    try:
        vi = load_program(src)
        ref = reference_gate(vi, tmp)
        op0_digest = determinism_check(workload, vi, next(workload.ops(args.seed)), tmp)
        ops = workload.ops(args.seed)
        if args.trace:
            trace_file = out_dir / f"trace-{workload.name}-seed{args.seed}.json"
            res = measure_traced(workload, vi, ops, args.seconds, tmp, trace_file)
        else:
            res = measure(workload, vi, ops, args.seconds, tmp)
    except (CheckFailed, OpFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = sum(o is None for o in res["outcomes"])
    attempted = len(res["outcomes"])
    values = dict(res["metrics"], **accuracy(res["outcomes"]), **ref,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(f"workload={workload.name} seed={args.seed} trace={args.trace} "
          f"ops={len(res['ops'])} "
          f"ops_digest={digest(json.dumps(res['ops'], sort_keys=True))}")
    print("reference gate: pass " + " ".join(f"{k}={v:.6g}" for k, v in ref.items()))
    print(f"determinism: op 0 output {op0_digest} repeated")
    print(f"error_rate {failed / attempted:g} ({failed} of {attempted})")
    if args.trace:
        print("work counts of op 0: " + " ".join(
            f"{k}={res['metrics'][k]}" for k in layers.WORK_COUNTS))
    else:
        for name, value, unit, note in res["printed"]:
            print(f"{name:28s} {value:.6g} {unit}  {note}")
        print(f"op_tail_rel is {res['tail_note']}")
        for name in accuracy([]):
            print(f"{name.split('.', 1)[1]:20s} {values[name]:.6g}")
    for name, unit in units.items():
        share = ""
        if args.trace and unit == "s":
            share = f"  {100.0 * values[name] / values['trace.op_p50_s']:5.1f}% of traced op"
        print(f"{name:28s} {values[name]:.6g} {unit}{share}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
