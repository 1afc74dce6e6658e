"""The benchmark's workloads: which CLI commands one round runs, on which inputs.

A round is a fixed list of commands. A run repeats whole rounds, so every
run attempts the same mix of commands whatever its seed and length.

Games come from the generator of `tests/conftest.py::random_game`
(uniform(-1, 1) payoffs, Dirichlet prior), copied here so that the
benchmark does not import the test suite. Three kinds of slot fill a round:

* a seeded slot draws a new game in every round r from
  `default_rng([seed, r, slot])`, so a run covers as many distinct games
  as it has rounds;
* a fixed slot holds `count` games drawn from `default_rng([m, n, k, i])`
  for i < count, the same in every run and every round;
* a fixture slot runs on demos/games/g1.json.

Fixed games carry most of each workload's time, so that runs with
different seeds measure comparable work. Every command that solves the
no-regret commitment program (`commit-nr`, `simulate --learner commit-nr`)
runs on fixed games only: the dense simplex fails on 1-3 % of random games
of many shapes (see CHANGES.md), so on seeded games the share of failed
commands would change with the seed. The failures among the fixed games
occur in every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

# Rounds written during set-up; a run that finishes them starts over.
PREPARED_ROUNDS = 12
G1 = Path(__file__).resolve().parents[1] / "demos" / "games" / "g1.json"


@dataclass(frozen=True)
class Slot:
    command: str  # CLI sub-command
    shape: Tuple[int, int, int]  # (m, n, k)
    flags: Tuple[str, ...] = ()
    role: str = "primary"  # which end-to-end latency metric the command feeds
    count: int = 0  # > 0: a fixed slot with this many games
    assignments: Tuple[str, ...] = ()  # check-menu: "favourite", "worst", "random"
    fixture: bool = False  # run on demos/games/g1.json instead of a drawn game


def _square(sizes, ks):
    return [(s, s, k) for k in ks for s in sizes]


def _fixed_count(shape):
    # six k = 3 games per shape, so that 6x6 k=3 default_rng([6, 6, 3, 5]),
    # one of the kernel failures named in CHANGES.md, is among them
    return 6 if shape[2] == 3 else 4


# exact: LP-bound commitment programs, no tester and no round loop.
EXACT = (
    [Slot("commit-nr", (3, 2, 1), fixture=True), Slot("stackelberg", (3, 2, 1), role="secondary", fixture=True)]
    + [Slot("commit-nr", shape, count=_fixed_count(shape)) for shape in _square(range(2, 7), (1, 2, 3))]
    + [Slot("stackelberg", shape, role="secondary", count=_fixed_count(shape)) for shape in _square(range(2, 7), (1, 2, 3))]
    + [Slot("stackelberg", shape, role="secondary") for shape in _square(range(2, 7), (1, 2, 3))]
)

# general: ellipsoid plus tester. n = 2 or m = 2 games take the vectorised
# two-column tester path and the ellipsoid dominates; the 3x3 games solve
# one simplex per net direction. check-menu's "favourite" assignments pass,
# its "worst" ones are refuted.
_GEN_EPS = ("--eps", "0.05")
_GEN_3X3 = ("--eps", "0.5", "--delta", "0.1")
_CHECK = ("favourite", "worst", "random")
GENERAL = [
    Slot("commit-general", (3, 2, 1), _GEN_EPS, fixture=True),
    Slot("commit-general", (2, 2, 2), _GEN_EPS, count=1),
    Slot("commit-general", (3, 2, 2), _GEN_EPS, count=1),
    Slot("commit-general", (2, 3, 2), _GEN_EPS, count=1),
    Slot("commit-general", (3, 3, 2), _GEN_3X3, count=1),
    Slot("commit-general", (3, 2, 2), _GEN_EPS),
    Slot("check-menu", (3, 3, 3), ("--delta", "0.2"), "secondary", count=1, assignments=_CHECK),
    Slot("check-menu", (3, 3, 2), ("--delta", "0.05"), "secondary", count=1, assignments=_CHECK),
    Slot("check-menu", (3, 3, 3), ("--delta", "0.2"), "secondary", assignments=("random",)),
    Slot("check-menu", (3, 3, 2), ("--delta", "0.05"), "secondary", assignments=_CHECK),
    Slot("check-menu", (4, 2, 2), ("--delta", "0.05"), "secondary", assignments=_CHECK),
    Slot("check-menu", (3, 2, 3), ("--delta", "0.05"), "secondary", assignments=_CHECK),
]

# online: per-round cost. n = 2 rounds are Python overhead; n = 3 rounds
# each solve a zero-sum simplex. maximin also pays about 0.6 s per command
# for its adversary's probes and schedule, whatever T is, so the horizons
# are long enough that rounds take about three quarters of its time;
# simulate pays for the learner's solve before its T rounds.
_ABORTER = ("--adversary", "aborter")
ONLINE = [
    Slot("maximin", (3, 2, 1), (*_ABORTER, "--T", "30000"), fixture=True),
    Slot("maximin", (2, 3, 2), (*_ABORTER, "--T", "3000"), count=1),
    Slot("maximin", (2, 2, 2), (*_ABORTER, "--T", "30000")),
    Slot("maximin", (3, 3, 1), (*_ABORTER, "--T", "3000")),
    Slot("simulate", (3, 2, 1), ("--learner", "commit-nr", "--T", "8000"), "secondary", fixture=True),
    Slot("simulate", (3, 3, 2), ("--learner", "commit-nr", "--T", "8000"), "secondary", count=1),
    Slot("simulate", (2, 3, 2), ("--learner", "commit-general", "--T", "8000"), "secondary", count=1),
]

WORKLOADS = {"exact": EXACT, "general": GENERAL, "online": ONLINE}


def random_game(rng: np.random.Generator, m: int, n: int, k: int) -> dict:
    """Game document drawn exactly as tests/conftest.py::random_game draws it."""
    u_L = rng.uniform(-1.0, 1.0, size=(m, n))
    alphas = rng.dirichlet(np.ones(k))
    u_Os = [rng.uniform(-1.0, 1.0, size=(m, n)) for _ in alphas]
    return {
        "m": m,
        "n": n,
        "u_L": u_L.tolist(),
        "types": [{"u_O": u.tolist(), "alpha": float(a)} for u, a in zip(u_Os, alphas)],
    }


def assignment(game: dict, kind: str, rng: np.random.Generator) -> dict:
    """Assignment document for check-menu.

    "favourite" gives every type its best pure pair, so its candidate menu
    is everything and the tester passes; "worst" gives every type its
    worst pure pair, which (for continuous payoffs, with probability one)
    the tester refutes; "random" draws Dirichlet profiles, either verdict.
    """
    profiles = []
    for t in game["types"]:
        u = np.asarray(t["u_O"], dtype=float).ravel()
        w = np.zeros(u.size)
        if kind == "favourite":
            w[int(np.argmax(u))] = 1.0
        elif kind == "worst":
            w[int(np.argmin(u))] = 1.0
        elif kind == "random":
            w = rng.dirichlet(np.ones(u.size))
        else:
            raise ValueError(f"unknown assignment kind {kind!r}")
        profiles.append(w.tolist())
    return {"profiles": profiles}


def _slot_ops(slot: Slot, tag: str, rng: np.random.Generator, out: Path, files: Dict[str, str]) -> List[dict]:
    """The ops of one slot; draws its game (and assignments) from rng."""
    if slot.fixture:
        game_path = G1
        game = json.loads(G1.read_text())
    else:
        game = random_game(rng, *slot.shape)
        game_path = out / f"{tag}.json"
        files[game_path.name] = json.dumps(game, sort_keys=True)
    op = {"command": slot.command, "role": slot.role, "fixed": slot.count > 0 or slot.fixture,
          "fixture": "g1" if slot.fixture else None, "shape": [game["m"], game["n"], len(game["types"])],
          "game": str(game_path), "assignment": None}
    if slot.command != "check-menu":
        return [dict(op, argv=[slot.command, "--game", str(game_path), *slot.flags])]
    ops = []
    for kind in slot.assignments:
        path = out / f"{tag}-{kind}.json"
        files[path.name] = json.dumps(assignment(game, kind, rng), sort_keys=True)
        argv = [slot.command, "--game", str(game_path), "--assignment", str(path), *slot.flags]
        ops.append(dict(op, argv=argv, assignment=str(path)))
    return ops


def build(workload: str, seed: int, out: Path, rounds: int = PREPARED_ROUNDS) -> Tuple[List[List[dict]], Dict[str, str]]:
    """Command lists of `rounds` rounds plus the input files they read.

    Every op is a dict with the CLI argv, its role and the paths of its
    input files (under `out`, or the g1 fixture); `files` maps file names
    under `out` to their contents.
    """
    slots = WORKLOADS[workload]
    files: Dict[str, str] = {}
    fixed: List[dict] = []
    for slot in slots:
        m, n, k = slot.shape
        if slot.fixture:
            fixed += _slot_ops(slot, "g1", None, out, files)
        for i in range(slot.count):
            fixed += _slot_ops(slot, f"f-{m}x{n}k{k}-{i}", np.random.default_rng([m, n, k, i]), out, files)
    plan = []
    for r in range(rounds):
        ops = list(fixed)
        for s, slot in enumerate(slots):
            if slot.count == 0 and not slot.fixture:
                ops += _slot_ops(slot, f"r{r}-s{s}", np.random.default_rng([seed, r, s]), out, files)
        plan.append(ops)
    return plan, files
