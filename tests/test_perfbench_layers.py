"""The benchmark still names functions of the package.

``perfbench/tracing.py`` wraps every function listed in its ``LAYERS`` table,
and the benchmark scripts call package functions by name; a name that no
longer exists would crash every benchmark run, so it fails here first.  The
scripts are loaded by path or parsed, and only read.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def _dotted(node):
    """The dotted name an expression spells, as a tuple, or None."""
    if isinstance(node, ast.Name):
        return (node.id,)
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and head + (node.attr,)
    return None


def _package_names_read(path):
    """Each (module, attribute) a script reads from a package module it imports:
    ``schemes.x`` after ``from qmoney import schemes``, ``qmoney.cli.x`` after
    ``import qmoney.cli``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qmoney" and node.level == 0:
            bound.update({(alias.asname or alias.name,): alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            bound.update({
                tuple(alias.name.split(".")): alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("qmoney.") and alias.asname is None
            })
    return {
        (bound[_dotted(node.value)], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _dotted(node.value) in bound
    }


def test_every_package_name_the_benchmark_reads_exists():
    used = set().union(*(_package_names_read(path) for path in PERFBENCH.glob("*.py")))
    missing = sorted(
        f"qmoney.{module}.{name}"
        for module, name in used
        if not hasattr(importlib.import_module(f"qmoney.{module}"), name)
    )
    assert used and not missing
