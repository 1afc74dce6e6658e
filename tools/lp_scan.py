"""Solve the 1,640-program `commit-nr` scan and count its failures and pivots.

    python3 tools/lp_scan.py --save new.json
    python3 tools/lp_scan.py --compare new.json     # in another checkout

Run from the root of a checkout: menuopt is imported from its `src/`, with
BLAS at one thread. Each program is `optimal_no_regret_commitment` on
`random_game(default_rng([1000 + s, m, n, k]), m, n, k)` from
`tests/conftest.py`: s < 120 for 5x5 and 6x6 at k = 1, for 4x2, 5x2, 5x4,
5x6, 6x2, 6x4, 6x5 and 6x6 at k = 2 and for 2x2, 2x4 and 2x5 at k = 3;
s < 40 for 5x5 and 6x6 at k = 3.

Prints the number of programs that failed, each failure message with its
count and programs, and the pivots taken in phase 1 and in phase 2
(counted by wrapping `lp._pivot`) beside the number of phase-1 runs and
phase-2 solves that took them. `--save FILE` writes each program's value
and its per-type `stackelberg_values` (as `float.hex`), or its failure
message, as JSON; `--compare FILE` reads such a file from another run and
prints the largest |delta value| over the programs both runs solve, how
many of those programs have leader values that differ in any bit, and the
programs that only one of them solves. `--limit N` runs the first N
programs only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import random_game  # noqa: E402
from menuopt import lp  # noqa: E402
from menuopt.errors import NumericalFailure  # noqa: E402
from menuopt.nr_commitment import optimal_no_regret_commitment  # noqa: E402

SHAPES = (
    [((5, 5, 1), 120), ((6, 6, 1), 120)]
    + [((m, n, 2), 120) for m, n in ((4, 2), (5, 2), (5, 4), (5, 6), (6, 2), (6, 4), (6, 5), (6, 6))]
    + [((2, n, 3), 120) for n in (2, 4, 5)]
    + [((5, 5, 3), 40), ((6, 6, 3), 40)]
)


def programs():
    """(m, n, k, s) of every program of the scan, in order."""
    return [(*shape, s) for shape, count in SHAPES for s in range(count)]


class PivotCount:
    """Counts `lp._pivot` calls by the `_Tableau` phase that makes them, and
    the calls of each phase (`phase1` runs, `maximize` solves)."""

    def __init__(self):
        self.by_phase = Counter()
        self.runs = Counter()
        self.phase = "outside a phase"

    def __enter__(self):
        self.saved = lp._pivot, lp._Tableau.phase1, lp._Tableau.maximize
        pivot, phase1, maximize = self.saved

        def counted(*args):
            self.by_phase[self.phase] += 1
            return pivot(*args)

        def in_phase(name, method):
            def run(tableau, *args):
                self.phase = name
                self.runs[name] += 1
                try:
                    return method(tableau, *args)
                finally:
                    self.phase = "outside a phase"

            return run

        lp._pivot = counted
        lp._Tableau.phase1 = in_phase("phase 1", phase1)
        lp._Tableau.maximize = in_phase("phase 2", maximize)
        return self

    def __exit__(self, *exc):
        lp._pivot, lp._Tableau.phase1, lp._Tableau.maximize = self.saved


def scan(limit=None) -> dict:
    """Key "m,n,k,s" -> {"value": float} or {"error": message}."""
    results = {}
    for m, n, k, s in programs()[:limit]:
        game = random_game(np.random.default_rng([1000 + s, m, n, k]), m, n, k)
        try:
            res = optimal_no_regret_commitment(game)
            leader_values = [float(v).hex() for v in res.stackelberg_values]
            results[f"{m},{n},{k},{s}"] = {"value": res.value, "stackelberg_values": leader_values}
        except NumericalFailure as exc:
            results[f"{m},{n},{k},{s}"] = {"error": str(exc)}
    return results


def compare(results: dict, other: dict) -> None:
    both = [key for key in results if "value" in results[key] and "value" in other.get(key, {})]
    deltas = [(abs(results[key]["value"] - other[key]["value"]), key) for key in both]
    worst = max(deltas, key=lambda delta: delta[0], default=(0.0, "-"))
    print(f"compared: {len(both)} programs solved by both, largest |delta value| {worst[0]:.3e} at [{worst[1]}]")
    moved = [key for key in both if results[key]["stackelberg_values"] != other[key]["stackelberg_values"]]
    print(f"leader values differ in some bit: {len(moved)}" + "".join(f" [{key}]" for key in moved))
    for label, mine, theirs in (("solved here only", results, other), ("solved there only", other, results)):
        keys = [key for key in results if key in other and "value" in mine[key] and "error" in theirs[key]]
        print(f"{label}: {len(keys)}" + "".join(f"\n  [{key}] {theirs[key]['error']}" for key in keys))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--save", type=Path, help="write each program's value or failure to FILE")
    parser.add_argument("--compare", type=Path, help="compare with a FILE that --save wrote")
    parser.add_argument("--limit", type=int, help="run the first N programs only")
    args = parser.parse_args()
    start = time.perf_counter()
    with PivotCount() as pivots:
        results = scan(args.limit)
    seconds = time.perf_counter() - start
    failures = defaultdict(list)
    for key, got in results.items():
        if "error" in got:
            failures[got["error"]].append(key)
    print(f"programs: {len(results)}, failed: {sum(map(len, failures.values()))}, {seconds:.1f} s")
    for message, keys in sorted(failures.items(), key=lambda item: -len(item[1])):
        print(f"  {len(keys)} {message}: " + " ".join(f"[{key}]" for key in keys))
    by_phase, runs = pivots.by_phase, pivots.runs
    print(f"pivots: phase 1 {by_phase['phase 1']} in {runs['phase 1']} runs, "
          f"phase 2 {by_phase['phase 2']} in {runs['phase 2']} solves, total {sum(by_phase.values())}")
    if args.save is not None:
        args.save.write_text(json.dumps(results, indent=0) + "\n")
    if args.compare is not None:
        compare(results, json.loads(args.compare.read_text()))


if __name__ == "__main__":
    main()
