"""Time one CLI command in two checkouts, pair by pair.

    python3 tools/pair_time.py CHECKOUT_A CHECKOUT_B -- maximin --game g.json --T 3000

Each sample is a fresh interpreter, with BLAS at one thread as the
benchmark runs it, that imports menuopt from the checkout's `src/`, runs
the command once untimed through `menuopt.cli.run` and then times it once
in-process. Each run builds its own schedule, as the benchmark's runs
do; a checkout older than the per-target schedule still keeps one in a
module-level cache (`playback._schedule`), which is emptied between the
two runs so that the timed run does not read the untimed run's build.
Each of the ten pairs takes one sample of each checkout, alternating
which goes first, so that slow drift of the host falls on both sides
alike. Paths in the command are relative to the current directory, for
both checkouts.

Prints each side's median seconds and the median peak RSS (`ru_maxrss`)
of its sample interpreters, the median over pairs of the ratio B / A with
its quartiles, the pairs in which B was faster, and whether both sides
printed the same exit code and stdout.  The peak RSS covers the whole
sample, import and both runs, so a memory effect of the command can be
paired without a benchmark run's own growth.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

_PAIRS = 10

_SAMPLE = r"""
import contextlib, hashlib, io, json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from menuopt import cli, playback
argv = sys.argv[2:]

def once():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.run(argv)
        seconds = time.perf_counter() - start
    return seconds, code, hashlib.sha256(out.getvalue().encode()).hexdigest()

_, code, digest = once()
cached = getattr(playback, "_schedule", None)
if cached is not None:
    cached.cache_clear()
seconds = once()[0]
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"seconds": seconds, "rss_mb": rss_mb, "output": [code, digest]}))
"""


def sample(checkout: Path, argv) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, "-c", _SAMPLE, str(checkout / "src"), *argv]
    done = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("argv", nargs="+", help="the CLI command, after --")
    args = parser.parse_args()
    sides = (args.checkout_a.resolve(), args.checkout_b.resolve())
    times, rss = ([], []), ([], [])
    outputs = set()
    for pair in range(_PAIRS):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        for side in order:
            got = sample(sides[side], args.argv)
            times[side].append(got["seconds"])
            rss[side].append(got["rss_mb"])
            outputs.add(tuple(got["output"]))
    ratios = [b / a for a, b in zip(*times)]
    q1, q2, q3 = statistics.quantiles(ratios, n=4)
    for name, side in (("A", 0), ("B", 1)):
        print(f"{name} {sides[side]}: median {statistics.median(times[side]):.6f} s, "
              f"peak RSS {statistics.median(rss[side]):.2f} MB")
    print(f"B / A: median {q2:.4f}, quartiles {q1:.4f}-{q3:.4f}, B faster in {sum(r < 1 for r in ratios)}/{len(ratios)} pairs")
    print("stdout and exit code: " + ("the same in every sample" if len(outputs) == 1 else "DIFFER"))


if __name__ == "__main__":
    main()
