"""The package imports numpy and the standard library only.

The third-party imports of every module, lazy ones included, are collected with
``ast`` and must equal the declared dependencies of ``pyproject.toml``.  A fresh
interpreter that runs the interior point through the CLI must not load scipy,
whose import would cost start-up time and map a second BLAS.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from qmoney import schemes

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qmoney"


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``source`` that are not
    the standard library's or the package's own."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names - set(sys.stdlib_module_names) - {"qmoney"}


def test_the_walk_finds_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import linalg\n"
        "from .exceptions import SolverError\n"
        "from qmoney import sdp\n"
        "def f():\n"
        "    import scipy.linalg\n"
        "    from mpmath.libmp import mpf\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy", "mpmath"}


def test_imports_equal_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in project["dependencies"]}
    imported = set().union(
        *(third_party_imports(path.read_text(encoding="utf-8")) for path in SOURCE.glob("*.py"))
    )
    assert imported == declared == {"numpy"}


# Runs the CLI in-process in a fresh interpreter and reports its exit code, the
# printed iteration count and every scipy module that got imported.
PROBE = """
import contextlib, io, json, sys
from qmoney import cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["analyze", "--scheme", sys.argv[1]])
fields = dict(line.split(" ", 1) for line in out.getvalue().splitlines())
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"code": code, "iterations": int(fields["iterations"]), "scipy": loaded}))
"""


def test_the_interior_point_runs_without_scipy(tmp_path):
    # Four random qubit states: a non-flat objective, so the solver must iterate.
    rng = np.random.default_rng([4, 0])
    states = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    path = tmp_path / "four-states.json"
    schemes.save_scheme(str(path), schemes.Ensemble(2, tuple((0.25, psi) for psi in states)))

    pythonpath = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
        check=True,
    )
    report = json.loads(result.stdout)
    assert report["code"] == 0
    assert report["iterations"] > 0
    assert report["scipy"] == []
