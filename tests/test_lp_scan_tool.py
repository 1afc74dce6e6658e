"""Smoke test of `tools/lp_scan.py` on the first two programs of its scan."""

import json
import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "lp_scan.py"


def test_lp_scan_saves_and_compares_a_two_program_slice(tmp_path):
    saved = tmp_path / "scan.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), "--limit", "2", "--save", str(saved), "--compare", str(saved)],
        check=True, capture_output=True, text=True,
    )
    lines = done.stdout.splitlines()
    assert lines[0].startswith("programs: 2, failed: 0, ")
    # each program: one phase-1 run per leader column (5) and one for the commitment
    assert re.fullmatch(r"pivots: phase 1 \d+ in 12 runs, phase 2 \d+ in \d+ solves, total \d+", lines[1])
    assert lines[2] == "compared: 2 programs solved by both, largest |delta value| 0.000e+00 at [5,5,1,0]"
    assert lines[3:] == ["leader values differ in some bit: 0", "solved here only: 0", "solved there only: 0"]
    results = json.loads(saved.read_text())
    assert list(results) == ["5,5,1,0", "5,5,1,1"]
    assert all(isinstance(got["value"], float) for got in results.values())
    for got in results.values():
        (leader_value,) = got["stackelberg_values"]
        assert float.fromhex(leader_value).hex() == leader_value
