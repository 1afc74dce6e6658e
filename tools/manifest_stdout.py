"""Print the exit code and stdout digest of every distinct benchmark command.

    python3 tools/manifest_stdout.py general 1 2 3 > general.txt

Run from the root of a checkout: menuopt is imported from its `src/` and
the commands from its `bench/workloads.py`. For each seed the script
writes the inputs of `workloads.build(WORKLOAD, seed, ...)` to a temporary
directory and runs every distinct command in-process through
`menuopt.cli.run`, with BLAS at one thread as the benchmark runs it. A
command is distinct by its flags and the contents of its input files, so a
fixed game shared by several seeds runs once. Each output line is

    <exit code> <sha256 of stdout> <argv>

with input paths relative to the temporary directory (and the g1 fixture
relative to the checkout), so that `diff` of two checkouts' outputs shows
every command whose stdout or exit code changed.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from menuopt import cli  # noqa: E402


def distinct_commands(workload: str, seeds) -> list:
    """argv of every distinct command, inputs written under the current directory."""
    seen, commands = set(), []
    for seed in seeds:
        out = Path(f"seed{seed}")
        out.mkdir()
        plan, files = workloads.build(workload, seed, out)
        for name, text in files.items():
            (out / name).write_text(text)
        for op in (op for ops in plan for op in ops):
            key = tuple(Path(a).read_text() if a in (op["game"], op["assignment"]) else a for a in op["argv"])
            if key not in seen:
                seen.add(key)
                commands.append(op["argv"])
    return commands


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative input paths keep check-menu's inputs_digest the same in every checkout
        for argv in distinct_commands(args.workload, args.seeds):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(argv)
            digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
            shown = [os.path.relpath(a, ROOT) if a == str(workloads.G1) else a for a in argv]
            print(code, digest, " ".join(shown), flush=True)


if __name__ == "__main__":
    main()
