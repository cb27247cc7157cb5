"""One symmetrization rule: ``linalg.as_hermitian`` is named only where a matrix
enters a problem, a channel or a certificate.

Each module of the package is parsed with ``ast``.  Builders return what they
compute; the modules that take a matrix in (``sdp``, ``channels``,
``certificates``, ``cloners``) symmetrize it, and ``linalg`` defines it.
"""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmoney"
ENTRY_MODULES = {"sdp", "channels", "certificates", "cloners", "linalg"}


def mentions(source: str) -> list[int]:
    """The lines that name ``as_hermitian``: a name, an attribute, an import or a definition."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if "as_hermitian" in (getattr(node, key, None) for key in ("id", "attr", "name"))
    )


def test_the_walk_sees_every_entry_module():
    assert ENTRY_MODULES <= {path.stem for path in SOURCE.glob("*.py")}


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.stem)
def test_only_entry_modules_name_as_hermitian(path):
    if path.stem not in ENTRY_MODULES:
        assert mentions(path.read_text(encoding="utf-8")) == []


def test_the_walk_finds_each_kind_of_mention():
    source = (
        "from .linalg import as_hermitian\n"
        "x = linalg.as_hermitian(m)\n"
        "f = as_hermitian\n"
        "def as_hermitian(m):\n"
        "    return m\n"
        "y = hermitian(m)\n"
    )
    assert mentions(source) == [1, 2, 3, 4]
