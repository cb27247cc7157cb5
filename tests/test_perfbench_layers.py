"""The benchmark still names functions of the package, and calls them as they are.

``perfbench/tracing.py`` wraps every function listed in its ``LAYERS`` table,
and the benchmark scripts call package functions by name, with keywords, and
run CLI commands with flags; a name, keyword or flag that no longer exists
would crash every benchmark run, so it fails here first.  The scripts are
loaded by path or parsed, and only read.
"""

import argparse
import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

from qmoney import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def _parsed(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _package_modules(tree):
    """The package modules a script imports, by the dotted name that reads them:
    ``("schemes",)`` after ``from qmoney import schemes``, ``("qmoney", "cli")``
    after ``import qmoney.cli``; each maps to its module name."""
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
    return bound


def _package_names_read(path):
    """Each (module, attribute) a script reads from a package module it imports."""
    tree = _parsed(path)
    bound = _package_modules(tree)
    return {
        (bound[_dotted(node.value)], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and _dotted(node.value) in bound
    }


def _package_keywords_passed(path):
    """Each (module, callable, keyword) of a call such as ``sdp.solve(p, tol=1e-8)``."""
    tree = _parsed(path)
    bound = _package_modules(tree)
    return {
        (bound[_dotted(node.func.value)], node.func.attr, keyword.arg)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and _dotted(node.func.value) in bound
        for keyword in node.keywords
        if keyword.arg is not None
    }


def test_every_package_name_the_benchmark_reads_exists():
    used = set().union(*(_package_names_read(path) for path in PERFBENCH.glob("*.py")))
    missing = sorted(
        f"qmoney.{module}.{name}"
        for module, name in used
        if not hasattr(importlib.import_module(f"qmoney.{module}"), name)
    )
    assert used and not missing


def _takes(function, keyword):
    parameters = inspect.signature(function).parameters
    return keyword in parameters or any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def test_every_keyword_the_benchmark_passes_is_a_parameter():
    passed = set().union(*(_package_keywords_passed(path) for path in PERFBENCH.glob("*.py")))
    refused = sorted(
        f"qmoney.{module}.{name}({keyword}=...)"
        for module, name, keyword in passed
        if not _takes(getattr(importlib.import_module(f"qmoney.{module}"), name), keyword)
    )
    assert passed and not refused


def test_every_flag_the_benchmark_passes_is_a_cli_option():
    commands = next(
        action.choices.values()
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = set().union(*(command._option_string_actions for command in commands))
    flags = {
        node.value
        for node in ast.walk(_parsed(WORKLOADS))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.startswith("--")
    }
    assert flags and not sorted(flags - options)
