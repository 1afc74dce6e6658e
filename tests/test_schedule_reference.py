"""`core.schedule_blocks` against a plain numpy copy of the apportionment loop.

Both sides of a published schedule, the learner's pair track and the
opponent's column track, come from `schedule_blocks` through
`playback.schedule_for`, and so does the maximin schedule adversary. A
change to the schedule therefore moves both sides of every run at once, and
no test that calls the library on both sides sees it. This file pins the
pair sequence to the reference loop below, pair for pair: on every kind of
target and dimension, at both sides of every block boundary, and over a
sweep of 1,080 targets. It also checks, with a spy on `core._repair`, that
the builder falls back on the loop for a dense target and never for a
target of support 2, and, with a spy on the blocks the schedule adversary
takes, that an epoch builds only about as many pairs as it plays. The
builder's guess, `core._apportion`, is checked row by row against a plain
Python largest-remainder rule.
"""

import math

import numpy as np
import pytest

from conftest import random_game
from menuopt import core, maximin
from menuopt.core import Csp, CspAssignment, schedule_blocks
from menuopt.maximin import make_schedule_adversary, run_maximin
from menuopt.playback import schedule_for

DIMS = range(1, 37)  # m * n <= 36 on every game the package plays


def reference_schedule(weights: np.ndarray, T: int) -> np.ndarray:
    """The first T pairs: at step t play argmax(w * t - counts), lowest index on ties."""
    w = np.asarray(weights, dtype=float)
    counts = np.zeros(w.size)
    out = np.empty(T, dtype=int)
    for t in range(1, T + 1):
        p = int(np.argmax(w * t - counts))
        counts[p] += 1.0
        out[t - 1] = p
    return out


def reference_schedules(W: np.ndarray, T: int) -> np.ndarray:
    """`reference_schedule` of each row of W at once: the same products,
    differences and first argmax, row by row."""
    counts = np.zeros(W.shape)
    rows = np.arange(W.shape[0])
    out = np.empty((W.shape[0], T), dtype=int)
    for t in range(1, T + 1):
        p = np.argmax(W * t - counts, axis=1)
        counts[rows, p] += 1.0
        out[:, t - 1] = p
    return out


def library_schedule(target: Csp, T: int) -> np.ndarray:
    blocks, built = [], 0
    for block in schedule_blocks(target):
        blocks.append(block)
        built += block.size
        if built >= T:
            return np.concatenate(blocks)[:T]


def _dyadic(rng: np.random.Generator, d: int) -> np.ndarray:
    # multiples of 1/64 summing to exactly 1
    cuts = np.sort(rng.integers(0, 65, size=d - 1))
    return np.diff(np.concatenate(([0], cuts, [64]))) / 64.0


def _decimal(rng: np.random.Generator, d: int) -> np.ndarray:
    # multiples of 1/20: deficits tie in exact arithmetic, and which pair
    # wins is decided by how each product and difference rounds
    cuts = np.sort(rng.integers(0, 21, size=d - 1))
    return np.diff(np.concatenate(([0], cuts, [20]))) / 20.0


def _ties(rng: np.random.Generator, d: int) -> np.ndarray:
    # equal non-dyadic weights on a random support, zero elsewhere, so that
    # equal deficits tie exactly and the lowest index must win
    support = rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)
    w = np.zeros(d)
    w[support] = 1.0 / support.size
    return w


def targets(d: int, seed: int = 11):
    rng = np.random.default_rng([seed, d])
    yield "uniform", np.full(d, 1.0 / d)
    yield "point", np.eye(d)[int(rng.integers(d))]
    yield "ties", _ties(rng, d)
    yield "dyadic", _dyadic(rng, d)
    yield "decimal", _decimal(rng, d)
    yield "random", rng.dirichlet(np.ones(d))


def _at_tolerance(w: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # what `Csp` still accepts: mass off 1 by up to 1e-9 and entries down to
    # -1e-12, here as -1e-13 and -0.0 on zero entries
    w = w * (1.0 + rng.choice([-4e-10, 4e-10]))
    zeros = np.flatnonzero(w == 0.0)
    w[zeros] = rng.choice([-1e-13, -0.0], size=zeros.size)
    return w


@pytest.mark.parametrize("d", DIMS)
def test_schedule_matches_reference_on_every_dimension(d):
    T = 1000
    for kind, w in targets(d):
        got = library_schedule(Csp(w), T)
        assert np.array_equal(got, reference_schedule(w, T)), f"{kind} target, d={d}"


def test_schedule_point_masses_on_every_pair():
    for d in (1, 6, 36):
        for j in range(d):
            w = np.eye(d)[j]
            assert np.array_equal(library_schedule(Csp(w), 200), np.full(200, j))


def test_schedule_weights_within_the_profile_tolerance():
    # Csp accepts entries down to -1e-12 and mass within 1e-9 of 1
    w = np.array([0.3, -1e-13, 0.2, 0.5 + 4e-10, 0.0, -0.0])
    assert np.array_equal(library_schedule(Csp(w), 5000), reference_schedule(w, 5000))


@pytest.mark.parametrize("kind, d", [("random", 6), ("dyadic", 4), ("decimal", 6), ("ties", 9), ("random", 36)])
def test_schedule_matches_reference_at_long_horizons(kind, d):
    T = 100_000
    w = dict(targets(d))[kind]
    assert np.array_equal(library_schedule(Csp(w), T), reference_schedule(w, T))


def test_blocks_grow_from_the_first_to_the_last_size():
    sizes = [block.size for _, block in zip(range(10), schedule_blocks(Csp.uniform(2, 3)))]
    assert sizes == [64, 64, 128, 256, 512, 1024, 2048, 2048, 2048, 2048]
    assert (sizes[0], max(sizes)) == (core._FIRST_BLOCK, core._LAST_BLOCK)


@pytest.mark.parametrize("d", [2, 6, 9, 36])
def test_schedule_for_at_both_sides_of_every_block_end(d):
    # a block ends after 64, 128, ..., 2048 pairs, then every 2048
    ends = [64 << i for i in range(6)] + [4096, 6144]
    for kind, w in targets(d, seed=12):
        ref = reference_schedule(w, ends[-1] + 1)
        for end in ends:
            for T in (end - 1, end, end + 1):
                assert np.array_equal(schedule_for(Csp(w), T), ref[:T]), f"{kind} target, d={d}, T={T}"


def test_schedule_sweep_against_the_reference():
    # 1,080 targets: the six kinds of `targets` on every dimension and five
    # seeds, every fifth one moved to the edge of the profile tolerance; the
    # first seed runs to T = 100,000 at d = 36, the rest to the end of
    # the 1,024-pair block, T = 2,048
    rng = np.random.default_rng(14)
    swept = 0
    for d in DIMS:
        W = np.array([w for seed in range(20, 25) for _, w in targets(d, seed)])
        W[::5] = [_at_tolerance(w, rng) for w in W[::5]]
        for rows, T in ((slice(0, 6), 100_000 if d == 36 else 2048), (slice(6, None), 2048)):
            ref = reference_schedules(W[rows], T)
            if T == 2048:
                assert np.array_equal(ref[-1], reference_schedule(W[rows][-1], T))
            for w, want in zip(W[rows], ref):
                assert np.array_equal(library_schedule(Csp(w), T), want), f"d={d}, T={T}, w={w.tolist()}"
                swept += 1
    assert swept == 1080


def _count_repairs(monkeypatch) -> list:
    calls = []
    repair = core._repair

    def spy(*args):
        calls.append(args)
        return repair(*args)

    monkeypatch.setattr(core, "_repair", spy)
    return calls


def test_dense_target_takes_the_repair_step(monkeypatch):
    calls = _count_repairs(monkeypatch)
    w = np.random.default_rng(15).dirichlet(np.ones(36))
    assert np.array_equal(library_schedule(Csp(w), 30_000), reference_schedule(w, 30_000))
    assert len(calls) > 100


def test_support_two_target_never_takes_the_repair_step(monkeypatch):
    calls = _count_repairs(monkeypatch)
    rng = np.random.default_rng(16)
    for d in (2, 6, 36):
        for a in (rng.uniform(), 0.5, 0.35, 1 / 3):
            w = np.zeros(d)
            w[rng.choice(d, size=2, replace=False)] = [a, 1.0 - a]
            assert np.array_equal(library_schedule(Csp(w), 20_000), reference_schedule(w, 20_000))
    assert calls == []


def reference_apportion(row: list, t: float) -> list:
    """floor(row) plus one seat for each of the t - sum(floor(row)) largest
    remainders, the lowest index first among equal ones."""
    floors = [float(math.floor(v)) for v in row]
    remainders = [v - f for v, f in zip(row, floors)]
    order = sorted(range(len(row)), key=lambda i: (-remainders[i], i))
    for i in order[: max(0, int(t - sum(floors)))]:
        floors[i] += 1.0
    return floors


@pytest.mark.parametrize(
    "row, t, seats",
    [
        # more remainders tie at the cut than seats are left: the lowest
        # index takes the tie, and the strict winners right of it still win;
        # the first row is w = (1/8, 1/8, 3/8, 3/8) at t = 5
        ([5 / 8, 5 / 8, 15 / 8, 15 / 8], 5, [1, 0, 2, 2]),
        ([0.5, 0.5, 0.5, 0.5], 2, [1, 1, 0, 0]),
        ([0.5, 0.5, 0.5, 0.75, 0.75], 3, [1, 0, 0, 1, 1]),
        ([2 / 3, 2 / 3, 2 / 3], 2, [1, 1, 0]),
        # no seat left
        ([2.0, 1.0, 1.0], 4, [2, 1, 1]),
        ([0.0, 3.0], 3, [0, 3]),
        # every remainder wins
        ([0.9, 0.9, 0.9], 3, [1, 1, 1]),
        ([1.5, 0.5], 3, [2, 1]),
    ],
)
def test_apportion_gives_largest_remainders_lowest_index_first(row, t, seats):
    got = core._apportion(np.array([row]), np.array([float(t)]))
    assert got.tolist() == [seats]
    assert reference_apportion(row, t) == seats


@pytest.mark.parametrize("d", DIMS)
def test_apportion_matches_the_python_rule_on_every_target(d):
    # as the builder guesses: on the target's support, for t = 1, ..., 2048
    t = np.arange(1, 2049, dtype=float)
    for kind, w in targets(d):
        WT = t[:, None] * w[w > 0]
        G = core._apportion(WT, t)
        assert np.array_equal(G.sum(axis=1), t), f"{kind} target, d={d}"
        for s in range(0, 2048, 7):
            assert G[s].tolist() == reference_apportion(WT[s].tolist(), t[s]), f"{kind} target, d={d}, t={t[s]}"


def _count_built(monkeypatch) -> list:
    """Pairs built by each schedule the schedule adversary starts."""
    built = []

    def spy(target):
        built.append(0)
        i = len(built) - 1
        for block in schedule_blocks(target):
            built[i] += block.size
            yield block

    monkeypatch.setattr(maximin, "schedule_blocks", spy)
    return built


def test_schedule_adversary_builds_only_what_the_epoch_plays(monkeypatch):
    built = _count_built(monkeypatch)
    game = random_game(np.random.default_rng(17), 3, 3, 1)
    w = np.random.default_rng(18).dirichlet(np.ones(9))
    ref = reference_schedule(w, 20_000)
    policy = make_schedule_adversary()(game, CspAssignment((Csp(w),)))
    rng = np.random.default_rng(0)
    assert built == []
    for r in range(1, 20_001):
        y = policy(rng)
        assert y[ref[r - 1] % game.n] == 1.0
        assert built[0] <= max(core._FIRST_BLOCK, 2 * r)
    assert len(built) == 1


def test_epochs_that_abort_early_build_at_most_the_first_block(monkeypatch):
    built = _count_built(monkeypatch)
    # on this game four epochs abort in their first round, before the
    # adversary is told of them, and one in its second
    game = random_game(np.random.default_rng(21), 3, 3, 2)
    T = 3000
    run = run_maximin(game, 0.05, make_schedule_adversary(), T)
    starts = [e.start_round for e in run.epochs] + [T]
    played = [b - a for a, b in zip(starts, starts[1:])]
    assert played.count(0) == 4 and played.count(1) == 1
    # every epoch that plays a round starts one schedule, in order
    assert len(built) == sum(p > 0 for p in played)
    for n_built, rounds in zip(built, [p for p in played if p > 0]):
        assert n_built <= max(core._FIRST_BLOCK, 2 * rounds)
        if rounds == 1:
            assert n_built == core._FIRST_BLOCK


def test_schedule_adversary_wraps_at_round_100000():
    # every round of an epoch plays the column of reference pair r % 100,000
    game = random_game(np.random.default_rng(12), 2, 3, 1)
    w = np.random.default_rng(13).dirichlet(np.ones(6))
    ref = reference_schedule(w, 100_000)
    policy = make_schedule_adversary()(game, CspAssignment((Csp(w),)))
    rng = np.random.default_rng(0)
    R = 100_000 + 1_500
    ys = np.array([policy(rng) for _ in range(R)])
    expect = np.zeros((R, game.n))
    expect[np.arange(R), ref[np.arange(R) % 100_000] % game.n] = 1.0
    assert ys.tobytes() == expect.tobytes()
