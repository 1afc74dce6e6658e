"""Byte-exact CLI outputs, compared with the documents in tests/golden/.

Each case runs one command in-process from inside tests/golden, so that
the assignment paths hashed into `inputs_digest` are bare file names. To
record a new case, add it to CASES and write its stdout to
tests/golden/<name>.out from a build whose output is known to be right.
"""

from pathlib import Path

import pytest

from menuopt import cli

GOLDEN = Path(__file__).parent / "golden"
G1 = "../../demos/games/g1.json"

CASES = {
    "commit-general-g1": ["commit-general", "--game", G1, "--eps", "0.05"],
    "commit-general-g332": ["commit-general", "--game", "g332.json", "--eps", "0.5", "--delta", "0.1"],
    "check-menu-g332-favourite": ["check-menu", "--game", "g332.json", "--assignment", "g332-favourite.json"],
    "check-menu-g332-worst": ["check-menu", "--game", "g332.json", "--assignment", "g332-worst.json"],
    "maximin-aborter-g1": ["maximin", "--game", G1, "--adversary", "aborter", "--T", "2000"],
    "maximin-random-g1": ["maximin", "--game", G1, "--adversary", "random", "--T", "2000"],
    "maximin-g332": ["maximin", "--game", "g332.json", "--T", "600"],
    "maximin-random-g332": ["maximin", "--game", "g332.json", "--adversary", "random", "--T", "600"],
    "simulate-stream-g1": ["simulate", "--game", G1, "--T", "30", "--stream"],
    "simulate-commit-general-g1": ["simulate", "--game", G1, "--learner", "commit-general", "--T", "2000"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert cli.run(CASES[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
