"""The README's `$ qmoney ...` transcripts, replayed in-process.

Each fenced block holding `$ qmoney` lines is run in a fresh directory, in
order.  A command followed directly by another `$` line has its output left
out of the README and is checked for exit code 0 only.  The last command's
shown lines are compared as exact text, roundoff-sized values such as `gap`
included: a value of size 1e-10 that moves in its tenth digit is a change.
"""

import pathlib
import re
import shlex

import pytest

from qmoney import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_has_transcripts():
    assert len(transcripts()) >= 5


@pytest.mark.parametrize("commands, shown", transcripts())
def test_transcript_replays(commands, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in commands[:-1]:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    code = cli.main(commands[-1])
    assert capsys.readouterr().out.splitlines() == shown
    failed = "certified false" in shown or "conditions not-certified" in shown
    assert code == (1 if failed else 0)
