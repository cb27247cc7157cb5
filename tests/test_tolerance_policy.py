"""One tolerance policy: every check's threshold is named in ``qmoney.linalg``.

Each module of the package is parsed with ``ast``.  Outside ``linalg`` no
module may name a ``*_TOL`` constant, apart from the defaults of the two
tolerances callers choose (the solver's and the certifier's), and no call
may pass a numeric literal as ``tol=``.
"""

import ast
import pathlib

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmoney"
CALLER_TOLERANCES = {
    "sdp": {"DEFAULT_TOL", "MIN_TOL", "MAX_TOL"},
    "certificates": {"DEFAULT_CERTIFICATE_TOL"},
}


def _is_number(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
    )


def _assigned_names(node: ast.AST) -> list[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return []
    return [
        name.id if isinstance(name, ast.Name) else name.attr
        for target in targets
        for name in ast.walk(target)
        if isinstance(name, (ast.Name, ast.Attribute))
    ]


def violations(module: str, source: str) -> list[str]:
    """Each breach of the policy in one module's source, with its line."""
    allowed = CALLER_TOLERANCES.get(module, set())
    found = []
    for node in ast.walk(ast.parse(source)):
        if module != "linalg":
            found += [
                f"line {node.lineno}: assigns {name}"
                for name in _assigned_names(node)
                if name.endswith("_TOL") and name not in allowed
            ]
        if isinstance(node, ast.Call):
            found += [
                f"line {node.lineno}: passes tol={ast.unparse(kw.value)}"
                for kw in node.keywords
                if kw.arg == "tol" and _is_number(kw.value)
            ]
    return found


def test_the_walk_sees_every_module():
    assert {"linalg", "sdp", "certificates", "channels", "cli"} <= {
        path.stem for path in SOURCE.glob("*.py")
    }


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda path: path.stem)
def test_module_keeps_the_tolerance_policy(path):
    assert violations(path.stem, path.read_text(encoding="utf-8")) == []


def test_the_walk_finds_each_kind_of_breach():
    source = "EXTRA_TOL = 1e-9\nf(m, tol=-1e-6)\nf(m, tol=EXTRA_TOL)\nself.OWN_TOL = 2\n"
    assert set(violations("schemes", source)) == {
        "line 1: assigns EXTRA_TOL",
        "line 2: passes tol=-1e-06",
        "line 4: assigns OWN_TOL",
    }
    assert violations("linalg", source) == ["line 2: passes tol=-1e-06"]
    assert violations("sdp", "DEFAULT_TOL = 1e-8\n") == []
