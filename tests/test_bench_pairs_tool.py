"""Smoke test of `tools/bench_pairs.py` on synthetic `bench/run.py` result files."""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
METRICS = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s", "primary_ms_mean": "ms", "secondary_ms_mean": "ms"}


def write_run(out, seed, commands, primary, rss, trace=0, kernels=(5e-4, 6e-4, 7e-4), setup_kernels=(4e-4,)):
    values = {"setup_s": 0.4, "peak_rss_mb": rss, "ops_per_s": 20.0, "primary_ms_mean": primary,
              "secondary_ms_mean": 10.0}
    # the first command carries the kernel samples, the others none (as traced commands do)
    latencies = [[0, "commit-general", True, "primary", 0, 0.01, list(kernels) if i == 0 else []]
                 for i in range(commands)]
    doc = {"workload": "general", "seed": seed, "trace": trace, "setup_kernel_s": list(setup_kernels),
           "metrics": {k: {"value": v, "unit": METRICS[k]} for k, v in values.items()},
           "latencies": latencies}
    (out / f"general-seed{seed}-trace{trace}-{100 + seed}.json").write_text(json.dumps(doc))


def test_bench_pairs_reports_medians_wins_and_command_counts(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    for seed, old, new in [(1, 50.0, 30.0), (2, 52.0, 33.0), (3, 54.0, 55.0)]:
        write_run(parent, seed, 2000 + seed, old, 55.0)
        write_run(change, seed, 3000 + seed, new, 56.0, kernels=(5.5e-4, 5.2e-4), setup_kernels=(3e-4, 1e-3, 4.5e-4))
    write_run(parent, 4, 2000, 51.0, 55.0)  # no partner
    write_run(change, 1, 10, 1.0, 1.0, trace=1)  # traced runs are not compared
    (change / "general-seed1-trace1-101-spans.json").write_text("[]")

    done = subprocess.run([sys.executable, str(TOOL), str(parent), str(change)],
                          check=True, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    assert lines[0] == "general: 3 pairs, seeds [1, 2, 3]; unpaired seeds left out: [4]"
    rows = {line.split()[0]: line for line in lines[2:7]}
    assert list(rows) == list(METRICS)
    assert rows["primary_ms_mean"].split() == [
        "primary_ms_mean", "52", "(50-54)", "33", "(30-55)", "-36.54%", "yes", "2/3"]
    assert rows["peak_rss_mb"].split()[-3:] == ["+1.82%", "yes", "0/3"]
    assert rows["setup_s"].split()[-3:] == ["+0.00%", "no", "0/3"]
    assert lines[7].split() == ["seed"] + ["parent", "commands", "peak_rss_mb", "kernel_us", "setup_kernel_us",
                                           "change", "commands", "peak_rss_mb", "kernel_us", "setup_kernel_us"]
    # medians in µs: parent kernel 600 (of 500, 600, 700), setup 400; change kernel 535, setup 450
    assert [line.split() for line in lines[8:]] == [
        ["1", "2001", "55.00", "600.0", "400.0", "3001", "56.00", "535.0", "450.0"],
        ["2", "2002", "55.00", "600.0", "400.0", "3002", "56.00", "535.0", "450.0"],
        ["3", "2003", "55.00", "600.0", "400.0", "3003", "56.00", "535.0", "450.0"],
    ]
