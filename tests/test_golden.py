"""Byte-exact CLI outputs, compared with the documents in tests/golden/.

Each case runs one command in-process from inside tests/golden, so that
the assignment paths hashed into `inputs_digest` are bare file names. To
record a new case, add it to CASES and write its stdout to
tests/golden/<name>.out from a build whose output is known to be right.
A case ends with exit code 0 unless EXIT_CODES names another; a command
that fails is pinned with its exit code and its error document.

The seeded games g7000-<m><n><k>.json are
`random_game(default_rng([7000, m, n, k]), m, n, k)` from conftest.py;
g5533.json is `random_game(default_rng([5, 5, 3, 3]), 5, 5, 3)`, a
commitment program the LP kernel has failed on; its value 0.718631534392
matches scipy's HiGHS.
"""

from pathlib import Path

import pytest

from menuopt import cli

GOLDEN = Path(__file__).parent / "golden"
G1 = "../../demos/games/g1.json"
SEEDED = ["g7000-222", "g7000-232", "g7000-322", "g7000-333", "g7000-443"]

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
    "commit-nr-g1": ["commit-nr", "--game", G1],
    "stackelberg-g1": ["stackelberg", "--game", G1],
    "oracle-nr-g1": ["oracle", "nr", "--game", G1],
    "oracle-maximin-g7000-222": ["oracle", "maximin", "--game", "g7000-222.json"],
    "commit-nr-g5533": ["commit-nr", "--game", "g5533.json"],
}
for _g in SEEDED:
    CASES[f"commit-nr-{_g}"] = ["commit-nr", "--game", f"{_g}.json"]
    CASES[f"stackelberg-{_g}"] = ["stackelberg", "--game", f"{_g}.json"]
for _g in SEEDED[:3]:  # the grid oracle caps k=3 lattices
    CASES[f"oracle-nr-{_g}"] = ["oracle", "nr", "--game", f"{_g}.json"]

EXIT_CODES: dict = {}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert cli.run(CASES[name]) == EXIT_CODES.get(name, 0)
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
