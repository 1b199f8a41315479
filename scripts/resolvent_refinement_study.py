#!/usr/bin/env python3
"""Refinement study behind the frozen resolvent-mismatch bound.

Pushes a constant stress program through the creep form and back through
the resolvent form on successively finer grids and prints the largest
reconstruction error per level, with the seconds of the fastest of three
``resolvent_mismatch`` calls at that level (of one call above 4096 points,
where a call takes seconds). The levels run from 32 to 16384 points; the
convolution works in blocks of output rows, so the top level stays near
100 MB. The acceptance bound (2e-4 at 256 points for alpha=0.5, beta=0.1,
lam=0.2 on [0, 4]) was frozen from this table.

Run:
    python3 scripts/resolvent_refinement_study.py
"""

import time
import timeit

import numpy as np

import viscoident as v


def main():
    kp = v.KernelParams(alpha=0.5, beta=0.1, lam=0.2)
    pl = v.PowerLaw(1.0, 1.0)
    print(f"alpha={kp.alpha} beta={kp.beta} lam={kp.lam}, constant stress on [0, 4]")
    print(f"{'points':>8} {'max mismatch':>14} {'ratio':>8} {'seconds':>8}")
    prev = None
    for n in (32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384):
        t = np.linspace(0.0, 4.0, n)
        hist = v.ResponseHistory(t, np.ones(n), v.KIND_STRESS_PROGRAM, 1.0)
        start = time.perf_counter()
        err = v.resolvent_mismatch(kp, pl, hist)
        seconds = time.perf_counter() - start
        if n <= 4096:
            seconds = min(timeit.repeat(lambda: v.resolvent_mismatch(kp, pl, hist),
                                        number=1, repeat=3))
        ratio = "" if prev is None else f"{prev / err:8.2f}"
        print(f"{n:>8} {err:14.6e} {ratio:>8} {seconds:8.3f}")
        prev = err


if __name__ == "__main__":
    main()
