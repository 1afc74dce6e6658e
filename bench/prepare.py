"""Benchmark set-up: import menuopt's CLI and write one workload's inputs.

    python3 bench/prepare.py --workload exact --seed 1 --out bench/out/exact-1

Writes the game and assignment files of every prepared round plus
`manifest.json`, the command list of each round. `run.py` runs this script
several times in fresh interpreters and reports the median wall time as
`setup_s`: interpreter start, the import that every CLI process pays, and
writing the inputs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import menuopt.cli  # noqa: F401  (timed: the import every CLI process pays)

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    plan, files = workloads.build(args.workload, args.seed, out)
    for name, text in files.items():
        (out / name).write_text(text)
    (out / "manifest.json").write_text(json.dumps({"workload": args.workload, "seed": args.seed, "rounds": plan}))


if __name__ == "__main__":
    main()
