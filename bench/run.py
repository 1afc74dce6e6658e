"""menuopt benchmark: run one workload through the CLI, check it, print its metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from `src/`. The
set-up (`prepare.py` in a fresh interpreter) runs several times and
`setup_s` is its median. The timed phase then issues CLI commands
in-process through `menuopt.cli.run(argv)` with stdout captured, one at a
time from this single thread (a closed loop), repeating whole rounds of
the workload until `--seconds` have passed. With `--trace 1` every round
runs twice, untraced and then traced, and the run reports per-layer
metrics and the tracing overhead instead of the end-to-end metrics.
Every result document is checked against references computed apart from
menuopt (checks.py) after the timed phase.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Run outputs go to bench/out/.
"""

from __future__ import annotations

import os

# The BLAS thread setting is fixed before numpy loads, here and in set-up.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 5
ROLES = ("primary", "secondary")

# The per-core speed of a shared host drifts by tens of percent within
# seconds. A fixed numpy-and-Python kernel, independent of menuopt, is
# timed before and after every untraced command and, from a SIGALRM
# handler, every KERNEL_EVERY_S while it runs (the handler's time is taken
# out of the command's latency). Each latency is reported at the speed
# where that kernel takes KERNEL_REF_S, using the mean of the command's
# own samples, pooled with those of the nearest commands until there are
# at least KERNEL_POOL. The mean, not the median: a latency takes in every
# preemption and slow spell while the command runs, and so does the mean
# of samples spread over that time. A set-up uses the median of five
# kernel runs just before it. Raw figures stay in the result file.
KERNEL_REF_S = 1e-3
KERNEL_EVERY_S = 0.05
KERNEL_POOL = 8
_KERNEL_DATA = np.random.default_rng(0).uniform(size=(40, 120))


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    T = _KERNEL_DATA.copy()
    acc = 0.0
    for i in range(40):
        T -= np.outer(T[:, i] * 0.01, T[i] / (T[i, i] + 1.0))
        acc += sum({j: 2 * j for j in range(30)}.values()) + float(T[i, -1])  # interpreter work
    return time.perf_counter() - t0


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def command_line(op) -> str:
    """The op's command and flags without its file arguments."""
    argv = op["argv"]
    files = ("--game", "--assignment")
    return " ".join(a for i, a in enumerate(argv) if a not in files and (i == 0 or argv[i - 1] not in files))


def describe(op) -> str:
    names = [Path(op[key]).name for key in ("game", "assignment") if op[key]]
    return " ".join([command_line(op)] + names)


# -- set-up ----------------------------------------------------------------


def set_up(workload: str, seed: int, inputs: Path):
    """Run prepare.py SETUP_REPEATS times; returns the wall time of each and
    the calibration kernel time measured before it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, str(BENCH / "prepare.py"), "--workload", workload, "--seed", str(seed), "--out", str(inputs)]
    times, kernels = [], []
    for _ in range(SETUP_REPEATS):
        kernels.append(statistics.median(kernel_seconds() for _ in range(5)))
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            die(f"set-up failed:\n{proc.stderr}")
    return times, kernels


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "menuopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


# -- the timed phase ---------------------------------------------------------


class Record(NamedTuple):
    op: dict
    round: int
    traced: bool
    code: int
    seconds: float
    out: str
    kernels: list  # calibration kernel times before, during and after the command (none when traced)


class KernelSampler:
    """Times the calibration kernel while a command runs, from SIGALRM."""

    def __init__(self):
        self.samples = None  # a list while sampling
        self.inside_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:
        if self.samples is not None:
            t0 = time.perf_counter()
            self.samples.append(kernel_seconds())
            self.inside_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples, self.inside_s = [kernel_seconds()], 0.0
        signal.setitimer(signal.ITIMER_REAL, KERNEL_EVERY_S, KERNEL_EVERY_S)

    def stop(self):
        """Samples taken, and the seconds spent taking them while the command ran."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        samples, self.samples = self.samples, None
        return samples + [kernel_seconds()], self.inside_s


class Runner:
    """Issues CLI commands in-process and records each one."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.records = []
        self.changed_by_tracing = 0
        self.sampler = KernelSampler()

    def _run(self, op, round_index: int, traced: bool) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if not traced:
                self.sampler.start()
            t0 = time.perf_counter()
            code = self.cli.run(op["argv"])
            dt = time.perf_counter() - t0
            kernels, inside_s = self.sampler.stop() if not traced else ([], 0.0)
        self.records.append(Record(op, round_index, traced, code, dt - inside_s, buf.getvalue(), kernels))
        return buf.getvalue()

    def run_round(self, ops, round_index: int) -> None:
        """Run one round; when tracing, every command runs untraced and then traced."""
        for op in ops:
            out = self._run(op, round_index, False)
            if self.tracer is not None:
                self.tracer.command_id += 1
                self.tracer.install()
                try:
                    self.changed_by_tracing += self._run(op, round_index, True) != out
                finally:
                    self.tracer.uninstall()


def at_reference_speed(records) -> list:
    """Each record's latency scaled to the reference kernel speed."""
    scaled = []
    for i, r in enumerate(records):
        pool = list(r.kernels)
        for d in range(1, len(records)):
            if len(pool) >= KERNEL_POOL:
                break
            pool += [k for j in (i - d, i + d) if 0 <= j < len(records) for k in records[j].kernels]
        scaled.append(r.seconds * KERNEL_REF_S / statistics.fmean(pool))
    return scaled


def end_to_end_metrics(records, latencies, setup_times, peak_rss_mb: float) -> dict:
    by_role = {role: [t for r, t in zip(records, latencies) if r.op["role"] == role] for role in ROLES}
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "primary_ms_mean": (1e3 * statistics.fmean(by_role["primary"]), "ms"),
        "secondary_ms_mean": (1e3 * statistics.fmean(by_role["secondary"]), "ms"),
    }


def per_layer_metrics(tracer, commands: int, plain_s: float, traced_s: float) -> dict:
    stat = tracer.stat
    per_op = 1.0 / commands
    self_time = tracer.layer_self_time()

    def us_per_call(name):
        s = stat(name)
        return 1e6 * s.total / s.calls if s.calls else 0.0

    def us_per(name, counter):
        s = stat(name)
        count = s.counters.get(counter, 0)
        return 1e6 * s.total / count if count else 0.0

    verdicts = stat("approachability.verdict_for_thresholds")
    m = {
        "lp.solve_lp.calls": (stat("lp.solve_lp").calls * per_op, "1/op"),
        "lp.solve_lp.rows": (stat("lp.solve_lp").counters.get("rows", 0) * per_op, "1/op"),
        "lp.solve_lp.self_s": (stat("lp.solve_lp").self_time * per_op, "s/op"),
        "lp.solve_lp.us_per_call": (us_per_call("lp.solve_lp"), "us"),
        "lp.zero_sum_value.calls": (stat("lp.zero_sum_value").calls * per_op, "1/op"),
        "lp.zero_sum_value.us_per_call": (us_per_call("lp.zero_sum_value"), "us"),
        "lp.zero_sum_value_batch2.games": (stat("lp.zero_sum_value_batch2").counters.get("games", 0) * per_op, "1/op"),
        "lp.zero_sum_value_batch2.self_s": (stat("lp.zero_sum_value_batch2").self_time * per_op, "s/op"),
        "lp.minmax_rows_by_2.calls": (stat("lp.minmax_rows_by_2").calls * per_op, "1/op"),
        "lp.minmax_rows_by_2.us_per_call": (us_per_call("lp.minmax_rows_by_2"), "us"),
        "approachability.verdicts": (verdicts.calls * per_op, "1/op"),
        "approachability.net_points": (stat("approachability._net_values").counters.get("net_points", 0) * per_op, "1/op"),
        "approachability.verdict_ms_p50": (1e3 * statistics.median(verdicts.durations) if verdicts.durations else 0.0, "ms"),
        "approachability.separators": (stat("approachability.separator_for_thresholds").calls * per_op, "1/op"),
        "general_commitment.iterations": (stat("general_commitment.optimize_general").counters.get("iterations", 0) * per_op, "1/op"),
        "general_commitment.us_per_iteration": (us_per("general_commitment.optimize_general", "iterations"), "us"),
        "maximin.rounds": (stat("maximin.run_maximin").counters.get("rounds", 0) * per_op, "1/op"),
        "maximin.epochs": (stat("maximin.run_maximin").counters.get("epochs", 0) * per_op, "1/op"),
        "maximin.threshold_assignment_calls": (stat("maximin.threshold_assignment").calls * per_op, "1/op"),
        "maximin.us_per_round": (us_per("maximin.run_maximin", "rounds"), "us"),
        "playback.rounds": (stat("playback.simulate").counters.get("rounds", 0) * per_op, "1/op"),
        "playback.us_per_round": (us_per("playback.simulate", "rounds"), "us"),
        "playback.schedule_for_s": (stat("playback.schedule_for").total * per_op, "s/op"),
        "playback.best_response_calls": (stat("playback.optimizer_best_response_policy").calls * per_op, "1/op"),
        "menus.menu_violation_calls": (stat("menus.menu_violation").calls * per_op, "1/op"),
        "core.csp_constructed": (stat("core.Csp.__post_init__").calls * per_op, "1/op"),
        "cli.self_ms_per_command": (1e3 * self_time["cli"] * per_op, "ms"),
    }
    for layer, seconds in self_time.items():
        if layer != "cli":
            m[f"{layer}.self_s"] = (seconds * per_op, "s/op")
    m["trace.commands"] = (commands, "count")
    m["trace.overhead_s"] = (traced_s - plain_s, "s")
    m["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    return m


# -- checks ------------------------------------------------------------------


def check(op, ref, result) -> list:
    """The checks.py check of one command's result."""
    import checks

    cmd, argv = op["command"], op["argv"]
    if cmd == "stackelberg":
        return checks.check_stackelberg(ref, result)
    if cmd == "commit-nr":
        return checks.check_commit_nr(ref, result, op["fixture"])
    if cmd == "commit-general":
        return checks.check_commit_general(ref, result, float(flag(argv, "--eps", 0.05)))
    if cmd == "check-menu":
        assignment = json.loads(Path(op["assignment"]).read_text())
        return checks.check_check_menu(ref, result, assignment, float(flag(argv, "--delta", 0.05)))
    if cmd == "maximin":
        return checks.check_maximin(ref, result, float(flag(argv, "--eps", 0.05)), int(flag(argv, "--T", 10000)))
    if cmd == "simulate":
        return checks.check_simulate(ref, result, int(flag(argv, "--T", 10000)), int(flag(argv, "--type", 0)))
    return [f"no check for command {cmd!r}"]


def verify(records) -> list:
    """Problems found by the independent checks, over every distinct result."""
    import checks

    problems, seen, refs = [], set(), {}
    for rec in records:
        op, code, out = rec.op, rec.code, rec.out
        key = (tuple(op["argv"]), code, out)
        if key in seen:
            continue
        seen.add(key)
        where = describe(op)
        last = out.strip().splitlines()[-1] if out.strip() else ""
        try:
            doc = json.loads(last)
        except json.JSONDecodeError:
            problems.append(f"{where}: output is not a JSON document")
            continue
        if code != 0:
            if set(doc) != {"error"} or doc["error"].get("kind") not in ("validation", "numerical"):
                problems.append(f"{where}: exit code {code} without an error document")
            continue
        if doc.get("command") != op["command"]:
            problems.append(f"{where}: result document names command {doc.get('command')!r}")
            continue
        if op["game"] not in refs:
            refs[op["game"]] = checks.Reference(checks.Game(json.loads(Path(op["game"]).read_text())))
        ref = refs[op["game"]]
        try:
            found = check(op, ref, doc["result"])
        except Exception as exc:  # a check that cannot finish is a failed check, not a lost run
            found = [f"check raised {exc!r}:\n{traceback.format_exc()}"]
        problems += [f"{where}: {p}" for p in found]
    return problems


# -- main --------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description="Run one menuopt benchmark workload.")
    parser.add_argument("--workload", required=True, choices=["exact", "general", "online"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (SRC / "menuopt" / "cli.py").is_file() or not (ROOT / "demos" / "games" / "g1.json").is_file():
        die(f"no menuopt checkout at {ROOT}: src/menuopt and demos/games/g1.json are required")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    inputs = OUT / name
    try:
        setup_times, setup_kernels = set_up(args.workload, args.seed, inputs)
        sys.path.insert(0, str(SRC))
        sys.path.insert(0, str(BENCH))
        from menuopt import cli

        if Path(cli.__file__).resolve().parent != (SRC / "menuopt").resolve():
            die(f"imported menuopt from {cli.__file__}, not from {SRC}")
        plan = json.loads((inputs / "manifest.json").read_text())["rounds"]
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        runner = Runner(cli, tracer)

        start = time.perf_counter()
        r = 0
        while True:
            runner.run_round(plan[r % len(plan)], r)
            r += 1
            if time.perf_counter() - start >= args.seconds:
                break
        elapsed = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        records = runner.records
        plain = [rec for rec in records if not rec.traced]
        raw = end_to_end_metrics(plain, [rec.seconds for rec in plain], setup_times, peak_rss_mb)
        if tracer is None:
            setup_scaled = [t * KERNEL_REF_S / k for t, k in zip(setup_times, setup_kernels)]
            metrics = end_to_end_metrics(plain, at_reference_speed(plain), setup_scaled, peak_rss_mb)
        else:
            traced_s = sum(rec.seconds for rec in records if rec.traced)
            metrics = per_layer_metrics(tracer, len(records) - len(plain), sum(rec.seconds for rec in plain), traced_s)
        t_check = time.perf_counter()
        problems = verify(records)
        check_s = time.perf_counter() - t_check
        if runner.changed_by_tracing:
            problems.append(f"{runner.changed_by_tracing} traced commands printed other output than untraced ones")
        env = environment()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    failed = [rec for rec in records if rec.code != 0]
    failures = sorted({(describe(rec.op), rec.out.strip()) for rec in failed})
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": r,
        "elapsed_s": elapsed,
        "check_s": check_s,
        "setup_times_s": setup_times,
        "setup_kernel_s": setup_kernels,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "commands": _command_table(records),
        "latencies": [[rec.round, rec.op["command"], rec.op["fixed"], rec.op["role"], rec.code, rec.seconds, rec.kernels]
                      for rec in records],
        "failures": [{"command": c, "output": o} for c, o in failures],
        "problems": problems,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{name}.json").write_text(json.dumps(summary, indent=1))
    if tracer is not None:
        (OUT / f"{name}-spans.json").write_text(json.dumps(tracer.dump()))

    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {r} rounds, {len(records)} commands in {elapsed:.2f} s,"
          f" checked in {check_s:.2f} s")
    for cmd, row in summary["commands"].items():
        print(f"  {cmd:<40} n={row['n']:<5} failed={row['failed']:<3} mean={row['mean_ms']:.2f} ms")
    for c, o in failures:
        print(f"  failed: {c}: {o}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<40} {value:.6g} {unit}")
    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def _command_table(records) -> dict:
    """Count, failures and mean latency per command, flags and game shape."""
    table = {}
    for rec in records:
        op, code, dt = rec.op, rec.code, rec.seconds
        key = "{} {}x{}k{}".format(command_line(op), *op["shape"])
        row = table.setdefault(key, {"n": 0, "failed": 0, "total_s": 0.0})
        row["n"] += 1
        row["failed"] += code != 0
        row["total_s"] += dt
    for row in table.values():
        row["mean_ms"] = 1e3 * row["total_s"] / row["n"]
    return table


if __name__ == "__main__":
    main()
