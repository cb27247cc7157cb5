"""One source of pass probabilities: the simulator samples the rates that
``cloners.accepted_mass`` and ``channels.clone_rates`` compute, and scores
against their mean, so it names none of the functions that compute a rate or
a value on their own.

``simulator.py`` is parsed with ``ast``; a name, an attribute, an import or a
definition of any of ``FORBIDDEN`` is a mention.
"""

import ast
import pathlib

SIMULATOR = pathlib.Path(__file__).resolve().parents[1] / "src" / "qmoney" / "simulator.py"
FORBIDDEN = {"outcome_value", "success_probability", "pair_with_conjugate"}


def mentions(source: str) -> list[tuple[int, str]]:
    """The lines that name a function of ``FORBIDDEN``, with the name."""
    return sorted(
        (node.lineno, value)
        for node in ast.walk(ast.parse(source))
        for value in (getattr(node, key, None) for key in ("id", "attr", "name"))
        if value in FORBIDDEN
    )


def test_simulator_takes_pass_probabilities_only_from_their_modules():
    assert mentions(SIMULATOR.read_text(encoding="utf-8")) == []


def test_the_walk_finds_each_kind_of_mention():
    source = (
        "from .cloners import outcome_value\n"
        "x = channels.success_probability(c, e)\n"
        "f = pair_with_conjugate\n"
        "def outcome_value(p, a):\n"
        "    return p\n"
        "y = cloners.accepted_mass(p, a)\n"
    )
    assert [line for line, _ in mentions(source)] == [1, 2, 3, 4]
