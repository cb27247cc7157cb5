"""The README's `$ qmoney ...` transcripts, replayed in-process.

Each fenced block holding `$ qmoney` lines is run in a fresh directory, in
order.  A command followed directly by another `$` line has its output left
out of the README and is checked for exit code 0 only.  The last command's
shown lines are compared key by key: integers and strings exactly, floats to
within 1e-12, since roundoff-level lines such as `gap` move by about 1e-16.
"""

import pathlib
import re
import shlex

import pytest

from qmoney import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FLOAT_ATOL = 1e-12


def transcripts():
    """(commands, shown output lines) for each fenced block with `$ qmoney` lines."""
    found = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(), re.M | re.S):
        lines = block.splitlines()
        if not lines or not lines[0].startswith("$ qmoney "):
            continue
        commands = [shlex.split(line)[2:] for line in lines if line.startswith("$ ")]
        shown = [line for line in lines if line and not line.startswith("$ ")]
        found.append(pytest.param(commands, shown, id=" ".join(commands[-1])))
    return found


def _record(lines):
    return [tuple(line.split(" ", 1)) for line in lines]


def _same(actual: str, shown: str) -> bool:
    if re.fullmatch(r"-?\d+", shown):
        return actual == shown
    try:
        return abs(float(actual) - float(shown)) <= FLOAT_ATOL
    except ValueError:
        return actual == shown


def test_readme_has_transcripts():
    assert len(transcripts()) >= 5


@pytest.mark.parametrize("commands, shown", transcripts())
def test_transcript_replays(commands, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in commands[:-1]:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    code = cli.main(commands[-1])
    actual = _record(capsys.readouterr().out.splitlines())
    expected = _record(shown)
    assert [key for key, _ in actual] == [key for key, _ in expected]
    for (key, value), (_, shown_value) in zip(actual, expected):
        assert _same(value, shown_value), (key, value, shown_value)
    failed = ("certified", "false") in expected or ("conditions", "not-certified") in expected
    assert code == (1 if failed else 0)
