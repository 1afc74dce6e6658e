"""Every demo script runs to completion and prints its report.

The demos read `demos/games/g1.json` relative to the repository root, so
each runs in-process with that directory as the working directory.
"""

import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out.strip()
