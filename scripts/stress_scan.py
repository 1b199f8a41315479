#!/usr/bin/env python3
"""Scan the ``stress_program`` operations of two checkouts for failures.

Run from anywhere:

    python3 scripts/stress_scan.py OTHER_CHECKOUT

Runs operations 0-449 of seeds 1-10 of the ``stress_program`` benchmark
workload, taken from this checkout's ``perfbench/workloads.py``, first with
this checkout's ``src/viscoident``, then with OTHER_CHECKOUT's. It prints
every operation that fails on either side with its mismatch or error, and
the number of operations whose mismatch ``repr`` differs between the two
sides. It exits 1 when the two sets of failing operations differ, 0 when
they are the same. A scan takes about 5 minutes per checkout on one core.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, as in perfbench/run.py: the convolution's
# matrix-vector product then sums in the benchmark's order.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import itertools  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from compare_outputs import ROOT, import_checkout, load_workloads  # noqa: E402

SEEDS = range(1, 11)
OPS_PER_SEED = 450


def scan(vi, wl) -> dict:
    """(seed, op index) -> (passed, mismatch repr or failure message)."""
    workload = wl.WORKLOADS["stress_program"]
    outcomes = {}
    for seed in SEEDS:
        for op in itertools.islice(workload.ops(seed), OPS_PER_SEED):
            try:
                outcome = (True, workload.run(vi, op, None)[0])
            except wl.OpFailed as exc:  # its message holds the mismatch repr
                outcome = (False, str(exc))
            outcomes[seed, op["index"]] = outcome
    return outcomes


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "viscoident").is_dir():
        print("usage: stress_scan.py OTHER_CHECKOUT (a directory holding "
              "src/viscoident)", file=sys.stderr)
        return 2
    wl = load_workloads()
    ours = scan(import_checkout(ROOT), wl)
    theirs = scan(import_checkout(Path(argv[0])), wl)
    failing = {side: {key for key, (passed, _) in outcomes.items() if not passed}
               for side, outcomes in (("this", ours), ("other", theirs))}
    for seed, index in sorted(failing["this"] | failing["other"]):
        print(f"seed {seed} op {index}: this: {ours[seed, index][1]}; "
              f"other: {theirs[seed, index][1]}")
    differ = sum(ours[key] != theirs[key] for key in ours)
    print(f"{len(ours)} operations; failing: {len(failing['this'])} here, "
          f"{len(failing['other'])} in the other checkout; mismatch repr "
          f"differs on {differ}")
    return 1 if failing["this"] != failing["other"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
