"""The benchmark tracer's call sites exist in the package.

``perfbench/layers.py`` wraps module attributes by reading
``owner.__dict__[attr]``; renaming or deleting one of them breaks the
traced benchmark run, so every target is checked here.
"""

import importlib.util
from pathlib import Path

import viscoident
import viscoident.cli  # noqa: F401 - targets() reads viscoident.cli

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers.targets(viscoident)
        if attr not in vars(owner)
    ]
    assert not missing
