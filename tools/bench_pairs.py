"""Compare the untraced `bench/run.py` results of two checkouts, pair by pair.

    python3 tools/bench_pairs.py PARENT_OUT CHANGE_OUT

PARENT_OUT and CHANGE_OUT are the `bench/out` directories of two
checkouts after alternating runs of the same workloads and seeds. A run
of one side and the run of the other side with the same workload and
seed form a pair; seeds run on one side only are named and left out.

For every workload and every end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles (as `statistics.quantiles(values,
n=4)` gives them), the gap between the medians relative to the parent's,
whether that gap is wider than the parent's interquartile distance, and
in how many pairs the change read better by the metric's `better`. Then
one line per pair with each run's command count (`len(latencies)`) beside
its `peak_rss_mb`, since the peak grows with the commands a run completes,
and each run's median calibration-kernel time in µs: over the samples
stored with its commands (the last field of each `latencies` entry) and
over its set-ups (`setup_kernel_s`). The bench scales every latency to the
speed at which that kernel takes 1 ms, so a side whose kernel ran faster
reads slower by the same factor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load_runs(out: Path) -> dict:
    """{(workload, seed): result} of the untraced result files in out."""
    runs = {}
    for path in sorted(out.glob("*.json")):
        doc = json.loads(path.read_text())
        if not isinstance(doc, dict) or doc.get("trace") != 0 or "latencies" not in doc:
            continue  # spans, figures or a traced run
        key = (doc["workload"], doc["seed"])
        if key in runs:
            raise SystemExit(f"{out}: two runs of {key[0]} seed {key[1]}")
        runs[key] = doc
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def report(parent: dict, change: dict, metrics) -> list:
    lines = []
    for workload in sorted({w for w, _ in parent} | {w for w, _ in change}):
        seeds = sorted(s for w, s in parent if w == workload and (w, s) in change)
        alone = sorted(s for w, s in set(parent) ^ set(change) if w == workload)
        lines.append(f"{workload}: {len(seeds)} pairs, seeds {seeds}"
                     + (f"; unpaired seeds left out: {alone}" if alone else ""))
        if not seeds:
            continue
        pairs = [(parent[workload, s], change[workload, s]) for s in seeds]
        lines.append(f"  {'metric':<20} {'parent median (Q1-Q3)':<28} {'change median (Q1-Q3)':<28}"
                     f" {'gap':>8}  {'> parent IQR':<12} change better")
        for name, better in metrics:
            a = [p["metrics"][name]["value"] for p, _ in pairs]
            b = [c["metrics"][name]["value"] for _, c in pairs]
            (a1, a2, a3), (b1, b2, b3) = quartiles(a), quartiles(b)
            wins = sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))
            gap = (b2 - a2) / a2 if a2 else float("nan")
            lines.append(f"  {name:<20} {f'{a2:.4g} ({a1:.4g}-{a3:.4g})':<28} {f'{b2:.4g} ({b1:.4g}-{b3:.4g})':<28}"
                         f" {gap:+8.2%}  {'yes' if abs(b2 - a2) > a3 - a1 else 'no':<12} {wins}/{len(pairs)}")
        lines.append(f"  {'seed':<8}" + "".join(f" {side + ' commands':>16} {'peak_rss_mb':>12} {'kernel_us':>10}"
                                                  f" {'setup_kernel_us':>16}" for side in ("parent", "change")))
        lines += [f"  {s:<8} {run_line(p)} {run_line(c)}" for s, (p, c) in zip(seeds, pairs)]
    return lines


def run_line(run: dict) -> str:
    """A run's command count, peak RSS and median calibration-kernel times."""
    samples = [k for entry in run["latencies"] for k in entry[-1]]
    kernel, setup = (statistics.median(v) * 1e6 if v else float("nan") for v in (samples, run["setup_kernel_s"]))
    return f"{len(run['latencies']):>16} {run['metrics']['peak_rss_mb']['value']:>12.2f} {kernel:>10.1f} {setup:>16.1f}"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_out", type=Path)
    parser.add_argument("change_out", type=Path)
    args = parser.parse_args()
    metrics = [(m["name"], m["better"]) for m in json.loads(SPEC.read_text())["end_to_end"]]
    for out in (args.parent_out, args.change_out):
        if not out.is_dir():
            sys.exit(f"no directory {out}")
    print("\n".join(report(load_runs(args.parent_out), load_runs(args.change_out), metrics)))


if __name__ == "__main__":
    main()
