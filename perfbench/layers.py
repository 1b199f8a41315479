"""Outside-in layer tracing: spans recorded around calls into each layer.

The tracer replaces module attributes at the name each caller looks up
(``pipeline.identify`` is what ``_run_identify`` calls, ``material.
_antiderivative_grid`` what the simulators and the convolution call) with
wrappers that record a span: name, start, end, parent span and operation
id. A span's self time is its duration minus the durations of its child
spans; calls are sequential, so children never overlap.

The per-pair exponent root solve is deliberately not wrapped: it runs about
130k times per creep operation. The exponent stage is measured as the self
time of ``identify`` instead.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


def _scalar(counts, args, kwargs, result):
    counts["kernels.scalar_calls"] += 1
    counts["kernels.scalar_terms_max"] = max(counts["kernels.scalar_terms_max"],
                                             result.terms)


def _grid(counts, args, kwargs, result):
    counts["kernels.grid_calls"] += 1
    counts["kernels.grid_entries"] += int(np.size(args[2]))


def _convolution(counts, args, kwargs, result):
    counts["material.convolution_calls"] += 1


def _file_bytes(key):
    def count(counts, args, kwargs, result):
        counts[key] += os.path.getsize(args[0])
    return count


def _segments(counts, args, kwargs, result):
    counts["spline.segments"] += len(result)


def _orders(counts, args, kwargs, result):
    m_range = args[4] if len(args) > 4 else kwargs["m_range"]
    counts["residual.mscan_orders"] += len(tuple(m_range))


def _pairs(counts, args, kwargs, result):
    if "q_roots" in result.diagnostics:
        failed = len(result.diagnostics["q_failures"])
        counts["residual.pairs"] += len(result.diagnostics["q_roots"]) + failed
        counts["residual.pairs_failed"] += failed


def targets(vi) -> list:
    """(owner, attribute, span name, counter) for every traced call site."""
    cli, pipeline, residual, spline, material = (
        vi.cli, vi.pipeline, vi.residual, vi.spline, vi.material)
    return [
        (cli, "main", "cli.main", None),
        (cli, "run", "pipeline.run", None),
        (pipeline.Report, "to_text", "pipeline.render", None),
        (pipeline, "write_samples_csv", "pipeline.write",
         _file_bytes("pipeline.write_bytes")),
        (pipeline, "write_isochrones_csv", "pipeline.write",
         _file_bytes("pipeline.write_bytes")),
        (pipeline, "ingest_kernel_samples", "pipeline.ingest",
         _file_bytes("pipeline.ingest_bytes")),
        (pipeline, "ingest_isochrones", "pipeline.ingest",
         _file_bytes("pipeline.ingest_bytes")),
        (pipeline, "extract_creep_kernel_samples", "pipeline.extract", None),
        (pipeline, "derive_samples_from_isochrones", "pipeline.extract", None),
        (pipeline, "simulate_creep", "material.simulate", None),
        (pipeline, "simulate_relaxation", "material.simulate", None),
        (pipeline, "relaxation_kernel_from_history",
         "material.relaxation_kernel_from_history", None),
        (pipeline, "creep_kernel", "kernels.scalar", _scalar),
        (pipeline, "relaxation_kernel", "kernels.scalar", _scalar),
        (pipeline, "fit_kernel_spline", "spline.fit", _segments),
        (spline, "similarity_means", "spline.similarity", None),
        (pipeline, "identify", "residual.identify", _pairs),
        (residual, "select_moment_order", "residual.mscan", _orders),
        (residual, "stage1_weights", "residual.weights", None),
        (residual, "lambda_gamma_form", "residual.scale", None),
        (vi, "resolvent_mismatch", "material.resolvent_mismatch", None),
        (material, "hereditary_convolution", "material.convolution", _convolution),
        (material, "_antiderivative_grid", "kernels.grid", _grid),
    ]


class Tracer:
    """Records spans and work counts of one operation at a time."""

    def __init__(self, vi):
        self.spans = []   # (span id, name, parent id, op id, start, end, self)
        self.counts = Counter()
        self.op_id = None
        self._stack = []  # [span id, seconds covered by children]
        self._ids = itertools.count()
        self._targets = targets(vi)
        self._saved = []

    def _wrap(self, name, fn, count):
        spans, stack, counts, ids = self.spans, self._stack, self.counts, self._ids

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [next(ids), 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], name, parent, self.op_id, start, end,
                              end - start - frame[1]))
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in self._targets:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(name, orig, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def start_op(self, op_id: int) -> None:
        self.spans.clear()
        self.counts.clear()
        self.op_id = op_id


TIME_METRICS = (
    "residual.exponent_s", "residual.mscan_s", "residual.weights_s",
    "residual.scale_s", "spline.fit_s", "spline.similarity_s",
    "kernels.scalar_s", "kernels.grid_s", "material.convolution_s",
    "material.simulate_s", "material.self_s", "pipeline.write_s",
    "pipeline.ingest_s", "pipeline.extract_s", "pipeline.render_s",
    "pipeline.self_s", "cli.self_s",
)
COUNT_METRICS = (
    "residual.pairs", "residual.pairs_failed", "residual.root_yield",
    "residual.mscan_orders", "spline.segments", "kernels.scalar_calls",
    "kernels.scalar_terms_max", "kernels.grid_calls", "kernels.grid_entries",
    "material.convolution_calls", "pipeline.write_bytes",
    "pipeline.ingest_bytes",
)
# Counts that must repeat exactly when one operation runs twice.
WORK_COUNTS = ("residual.pairs", "kernels.grid_entries", "kernels.scalar_calls",
               "spline.segments", "pipeline.write_bytes", "pipeline.ingest_bytes")


def op_times(spans, counts: Counter) -> dict:
    """Per-layer seconds of one operation, from its spans."""
    total, own = defaultdict(float), defaultdict(float)
    names = {span[0]: span[1] for span in spans}
    weights = 0.0
    for _, name, parent, _, start, end, self_s in spans:
        total[name] += end - start
        own[name] += self_s
        # stage-1 weights outside the m-scan (inside it they are m-scan time)
        if name == "residual.weights" and names.get(parent) == "residual.identify":
            weights += end - start
    return {
        # identify's self time is the exponent stage when that stage ran
        "residual.exponent_s": own["residual.identify"] if counts["residual.pairs"] else 0.0,
        "residual.mscan_s": total["residual.mscan"],
        "residual.weights_s": weights,
        "residual.scale_s": total["residual.scale"],
        "spline.fit_s": total["spline.fit"],
        "spline.similarity_s": total["spline.similarity"],
        "kernels.scalar_s": total["kernels.scalar"],
        "kernels.grid_s": total["kernels.grid"],
        "material.convolution_s": total["material.convolution"],
        "material.simulate_s": total["material.simulate"],
        "material.self_s": sum(v for k, v in own.items() if k.startswith("material.")),
        "pipeline.write_s": total["pipeline.write"],
        "pipeline.ingest_s": total["pipeline.ingest"],
        "pipeline.extract_s": own["pipeline.extract"],
        "pipeline.render_s": total["pipeline.render"],
        "pipeline.self_s": own["pipeline.run"],
        "cli.self_s": own["cli.main"],
    }


def op_counts(counts: Counter) -> dict:
    """Per-layer work counts of one operation; 0 where a layer is bypassed."""
    out = {name: counts[name] for name in COUNT_METRICS}
    pairs = counts["residual.pairs"]
    out["residual.root_yield"] = (pairs - counts["residual.pairs_failed"]) / pairs if pairs else 0.0
    return out
