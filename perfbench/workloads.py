"""Seeded operations of the benchmark workloads, how to run one, and its checks.

Every workload turns a seed into an endless sequence of operations. The
material parameters follow a Halton sequence shifted by a seeded random
offset (modulo 1) in every dimension: each operation's parameters are
uniform on their ranges, and any prefix of the sequence covers the
parameter box evenly, so the cost mix of a run barely depends on the seed.
The program only ever sees the generated inputs: CLI arguments or arrays.

An operation either returns ``(output, accuracy)`` or raises ``OpFailed``.
``output`` is text whose digest the determinism check compares; ``accuracy``
holds the operation's errors against the known truth.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import random

import numpy as np

HALTON_BASES = (2, 3, 5, 7)
MISMATCH_BOUND = 2e-4  # frozen criterion-5 bound on the resolvent mismatch

CREEP_POINTS = 256
RELAXATION_POINTS = 16384
STRESS_POINTS = 1024
HORIZON = 0.005      # grid end of the CLI workloads, as in the README recipe
STRESS_HORIZON = 4.0


class OpFailed(Exception):
    """One operation exited non-zero, raised, or returned a wrong value."""


def run_cli(cli, argv: list[str]) -> str:
    """Call ``cli.main(argv)`` in-process and return what it printed.

    Any exit code other than 0 and any exception the CLI lets escape is a
    failed operation, never a crash of the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - an uncaught error fails the op
        raise OpFailed(f"{argv[1]} raised {type(exc).__name__}: {exc}") from exc
    if code != 0:
        raise OpFailed(f"{argv[1]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def report_result(report: str) -> dict:
    """The ``[result]`` section of a text report as a dict of strings."""
    section = report.split("\n[result]\n", 1)[1].split("\n[", 1)[0]
    return dict(line.split(": ", 1) for line in section.splitlines())


def finite_estimate(result: dict, key: str) -> float:
    value = float(result[key])
    if not math.isfinite(value):
        raise OpFailed(f"{key} is not finite: {result[key]}")
    return value


def _halton(i: int, base: int) -> float:
    """The i-th radical inverse in ``base``, a point of [0, 1)."""
    f, r = 1.0, 0.0
    while i > 0:
        f /= base
        r += f * (i % base)
        i //= base
    return r


def _ops(seed: int, ranges: dict, extra=None):
    """Endless op dicts; ``extra(rng)`` adds per-op fields such as a program."""
    rng = random.Random(seed)
    shift = {name: rng.random() for name in ranges}
    for index in itertools.count():
        op = {"index": index}
        for base, (name, (lo, hi)) in zip(HALTON_BASES, ranges.items()):
            u = (_halton(index + 1, base) + shift[name]) % 1.0
            op[name] = round(lo + (hi - lo) * u, 6)
        if extra is not None:
            op.update(extra(rng))
        yield op


def _num(x: float) -> str:
    return f"{x:.6f}"


class CreepRoundtrip:
    """simulate --kind creep at n = 256, then identify with isochrones."""

    name = "creep_roundtrip"
    ranges = {"alpha": (0.3, 0.7), "beta": (0.0, 0.5),
              "lam": (0.4, 0.9), "q": (1.2, 1.8)}

    def ops(self, seed: int):
        return _ops(seed, self.ranges)

    def run(self, vi, op: dict, tmp) -> tuple[str, dict]:
        prefix = str(tmp / "creep")
        run_cli(vi.cli, [
            "--mode", "simulate", "--kind", "creep",
            "--alpha", _num(op["alpha"]), "--beta", _num(op["beta"]),
            "--lam", _num(op["lam"]), "--q", _num(op["q"]),
            "--H", "1", "--sigma", "1",
            "--grid", f"0:{HORIZON}:{CREEP_POINTS}", "--output", prefix,
        ])
        report = run_cli(vi.cli, [
            "--mode", "identify", "--input", prefix + "_kernel_samples.csv",
            "--model-samples", prefix + "_model_samples.csv",
            "--isochrones", prefix + "_isochrones.csv",
            "--lambda0", "1", "--q0", "1", "--sigma-over-H", "1",
            "--eval-at-knots", "--no-timestamp",
        ])
        result = report_result(report)
        lam_hat = finite_estimate(result, "lambda_hat")
        q_hat = finite_estimate(result, "q_hat")
        pairs = (CREEP_POINTS - 1) ** 2
        return report, {
            "lam_err": abs(lam_hat / op["lam"] - 1.0),
            "q_err": abs(q_hat / op["q"] - 1.0),
            "q_pairs_failed_frac": int(result["q_pairs_failed"]) / pairs,
        }


class RelaxationLongRecord:
    """simulate --kind relaxation at n = 16384, then identify the intensity."""

    name = "relaxation_longrecord"
    ranges = {"alpha": (0.3, 0.7), "beta": (0.0, 0.5), "lam": (0.4, 0.9)}

    def ops(self, seed: int):
        return _ops(seed, self.ranges)

    def run(self, vi, op: dict, tmp) -> tuple[str, dict]:
        prefix = str(tmp / "relaxation")
        run_cli(vi.cli, [
            "--mode", "simulate", "--kind", "relaxation",
            "--alpha", _num(op["alpha"]), "--beta", _num(op["beta"]),
            "--lam", _num(op["lam"]), "--H", "1", "--eps", "1",
            "--grid", f"0:{HORIZON}:{RELAXATION_POINTS}", "--output", prefix,
        ])
        report = run_cli(vi.cli, [
            "--mode", "identify", "--input", prefix + "_kernel_samples.csv",
            "--model-samples", prefix + "_model_samples.csv",
            "--eval-at-knots", "--no-timestamp",
        ])
        lam_hat = finite_estimate(report_result(report), "lambda_hat")
        return report, {"lam_err": abs(lam_hat / op["lam"] - 1.0)}


def _stress_program(rng: random.Random) -> dict:
    """Ramp from zero, hold or move between 3-6 breakpoints, then unload.

    Every value is non-negative, so the forward response stays inside the
    power-law domain.
    """
    k = rng.randint(3, 6)
    times = sorted(round(rng.uniform(0.05, 1.0) * STRESS_HORIZON, 6) for _ in range(k))
    levels = [round(rng.uniform(0.2, 2.0), 6) for _ in range(k)]
    levels[-1] = round(rng.uniform(0.0, levels[-2]), 6)
    return {"program": [[0.0, 0.0]] + [[t, s] for t, s in zip(times, levels)]}


class StressProgram:
    """resolvent_mismatch of a piecewise-linear stress program at n = 1024."""

    name = "stress_program"
    ranges = {"alpha": (0.3, 0.7), "beta": (0.0, 0.3),
              "lam": (0.1, 0.5), "q": (1.0, 2.0)}

    def ops(self, seed: int):
        return _ops(seed, self.ranges, _stress_program)

    def run(self, vi, op: dict, tmp) -> tuple[str, dict]:
        t = np.linspace(0.0, STRESS_HORIZON, STRESS_POINTS)
        bt, bs = zip(*op["program"])
        sigma = np.interp(t, bt, bs)
        try:
            mismatch = vi.resolvent_mismatch(
                vi.KernelParams(op["alpha"], op["beta"], op["lam"]),
                vi.PowerLaw(1.0, op["q"]),
                vi.ResponseHistory(t, sigma, vi.KIND_STRESS_PROGRAM,
                                   float(sigma.max())),
            )
        except Exception as exc:  # noqa: BLE001 - a raise fails the op
            raise OpFailed(f"resolvent_mismatch raised {type(exc).__name__}: "
                           f"{exc}") from exc
        if not mismatch <= MISMATCH_BOUND:  # also catches NaN
            raise OpFailed(f"mismatch {mismatch!r} above {MISMATCH_BOUND}")
        return repr(mismatch), {"mismatch": mismatch}


WORKLOADS = {w.name: w for w in (CreepRoundtrip(), RelaxationLongRecord(),
                                 StressProgram())}
