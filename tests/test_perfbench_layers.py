"""The benchmark's traced layers still name functions of the package.

``perfbench/tracing.py`` wraps every function listed in its ``LAYERS`` table;
a name that no longer exists would crash a traced benchmark run, so it fails
here first.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"qmoney.{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"qmoney.{layer}"), name, None))
    ]
    assert tracing.LAYERS and not missing
