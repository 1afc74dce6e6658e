"""Regenerate the reference figures of bench/README.md.

    python3 bench/figures.py

For every workload in BENCHMARK.json it runs bench/run.py untraced for two
sets of ten seeds (1-10 and 11-20) and traced once (seed 1), then prints
markdown tables: per end-to-end metric and set the median, quartiles and
spread (interquartile distance over median, as
`statistics.quantiles(values, n=4)` gives the quartiles), the relative gap
between the two sets' medians, the attempted and failed command counts, and
the traced per-layer figures. The raw results go to bench/out/figures.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = (range(1, 11), range(11, 21))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - t0
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[run(workload, s, seconds, 0) for s in seeds] for seeds in SETS]
        traced = run(workload, SETS[0][0], seconds, 1)
        raw[workload] = {"untraced": sets, "traced": traced}

        plain = [r for runs in sets for r in runs]
        print(f"\n### {workload}: two sets of {len(SETS[0])} runs of {seconds} s, seeds 1-10 and 11-20\n")
        print(f"attempted per run: {sorted({r['attempted'] for r in plain})}; "
              f"failed per run: {sorted({r['failed'] for r in plain})}; "
              f"all correct: {all(r['correct'] for r in plain)}; "
              f"wall per run: {min(r['wall_s'] for r in plain):.1f}-{max(r['wall_s'] for r in plain):.1f} s\n")
        print("| metric | unit | median 1 | Q1 1 | Q3 1 | spread 1 | median 2 | spread 2 | gap | bound |")
        print("|---|---|---|---|---|---|---|---|---|---|")
        for name, m in plain[0]["metrics"].items():
            a = summary([r["metrics"][name]["value"] for r in sets[0]])
            b = summary([r["metrics"][name]["value"] for r in sets[1]])
            print(f"| `{name}` | {m['unit']} | {a[0]:.4g} | {a[1]:.4g} | {a[2]:.4g} | {a[3]:.3f} "
                  f"| {b[0]:.4g} | {b[3]:.3f} | {(b[0] - a[0]) / a[0]:+.3f} | {bounds.get(name, '')} |")
        print(f"\nTraced run (seed {SETS[0][0]}), per command unless the unit says otherwise:\n")
        print("| metric | value | unit |")
        print("|---|---|---|")
        for name, m in traced["metrics"].items():
            print(f"| `{name}` | {m['value']:.4g} | {m['unit']} |")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "figures.json").write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
