"""Compare two `manifest_stdout.py --stdout-dir` outputs value by value.

    python3 tools/manifest_stdout.py exact 1 2 3 --stdout-dir out/old   # in one checkout
    python3 tools/manifest_stdout.py exact 1 2 3 --stdout-dir out/new   # in the other
    python3 tools/manifest_diff.py out/old out/new

Commands are matched by manifest line; both directories must list the same
commands. The script prints every command whose exit code changed, the
number of commands whose stdout moved, and for each JSON field the largest
|delta| over all commands with the number of commands it moved in. A field
is a path of object keys with list positions folded in, so
`result.assignment` covers every weight of every profile. A change that is
not a number against a number (a string, a key present on one side only, or
a list of another length) counts as `not numeric`.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path


def read_manifest(out: Path) -> list:
    """(exit code, stdout digest, argv) of every line of DIR/manifest.txt."""
    rows = []
    for line in (out / "manifest.txt").read_text().splitlines():
        code, digest, argv = line.split(" ", 2)
        rows.append((int(code), digest, argv))
    return rows


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(a, b, field: str, moved: dict) -> None:
    """Add to moved[field] the largest |a - b| of each numeric leaf that differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            compare(a.get(key), b.get(key), f"{field}.{key}" if field else key, moved)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for u, v in zip(a, b):
            compare(u, v, field, moved)
    elif _number(a) and _number(b):
        if a != b:
            moved[field] = max(moved.get(field, 0.0), abs(a - b))
    elif a != b:
        moved[field] = "not numeric"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args()
    old, new = read_manifest(args.old), read_manifest(args.new)
    if [argv for *_, argv in old] != [argv for *_, argv in new]:
        raise SystemExit("the two manifests list different commands")
    worst, count, n_moved = {}, {}, 0
    for line, ((code_a, digest_a, argv), (code_b, digest_b, _)) in enumerate(zip(old, new), start=1):
        if code_a != code_b:
            print(f"exit code {code_a} -> {code_b}: line {line}: {argv}")
        if digest_a == digest_b:
            continue
        n_moved += 1
        moved = {}
        texts = [(out / f"{line}.json").read_text() for out in (args.old, args.new)]
        try:
            compare(*(json.loads(t) for t in texts), "", moved)
        except json.JSONDecodeError:
            moved["(stdout)"] = "not numeric"
        for field, delta in moved.items():
            count[field] = count.get(field, 0) + 1
            if delta == "not numeric" or worst.get(field) == "not numeric":
                worst[field] = "not numeric"
            else:
                worst[field] = max(worst.get(field, 0.0), delta)
    print(f"stdout moved on {n_moved} of {len(old)} commands")
    for field in sorted(worst):
        delta = worst[field]
        shown = delta if isinstance(delta, str) else f"{delta:.3g}"
        print(f"  {field}: max |delta| {shown} in {count[field]} commands")


if __name__ == "__main__":
    main()
