"""The benchmark's targets and parameters suit the package.

``perfbench/layers.py`` wraps module attributes by reading
``owner.__dict__[attr]``; renaming or deleting one of them breaks the
traced benchmark run, so every target is checked here. The kernel series
refuses an entry that has cancelled, so the workloads' parameter boxes are
checked to stay far inside the cancellation threshold.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import viscoident
import viscoident.cli  # noqa: F401 - targets() reads viscoident.cli
from viscoident.kernels import PRECISION_LOSS_RATIO, _antiderivative_grid

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    layers = load("layers")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers.targets(viscoident)
        if attr not in vars(owner)
    ]
    assert not missing


@pytest.mark.parametrize("name", ["creep_roundtrip", "relaxation_longrecord",
                                  "stress_program"])
def test_workload_box_far_from_cancellation(name):
    # every kernel series a workload's ops sum (K, R and their first and
    # second antiderivatives, at rates beta to beta + lam, up to its horizon)
    # has a per-entry cancellation ratio at least 1e4 below the threshold
    wl = load("workloads")
    ranges = wl.WORKLOADS[name].ranges
    horizon = wl.STRESS_HORIZON if name == "stress_program" else wl.HORIZON
    s = np.linspace(0.0, horizon, 257)[1:]
    worst = 0.0
    for alpha in np.linspace(*ranges["alpha"], 9):
        for rate in np.linspace(0.0, ranges["beta"][1] + ranges["lam"][1], 5):
            for order in (0, 1, 2):
                res = _antiderivative_grid(alpha, rate, s, order)
                worst = max(worst, np.max(res.max_term / np.abs(res.value)))
    assert worst <= PRECISION_LOSS_RATIO / 1e4
