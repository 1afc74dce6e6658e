"""`core.schedule_pairs` against a plain numpy copy of the apportionment loop.

Both sides of a published schedule, the learner's pair track and the
opponent's column track, come from `schedule_pairs`, and so does the maximin
schedule adversary. A change to the schedule therefore moves both sides of
every run at once, and no test that calls the library on both sides sees it.
This file pins the pair sequence to the reference loop below, pair for pair.
"""

from itertools import islice

import numpy as np
import pytest

from conftest import random_game
from menuopt.core import Csp, CspAssignment, schedule_pairs
from menuopt.maximin import make_schedule_adversary

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


def library_schedule(target: Csp, T: int) -> np.ndarray:
    return np.fromiter(islice(schedule_pairs(target), T), dtype=int, count=T)


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


def targets(d: int):
    rng = np.random.default_rng([11, d])
    yield "uniform", np.full(d, 1.0 / d)
    yield "point", np.eye(d)[int(rng.integers(d))]
    yield "ties", _ties(rng, d)
    yield "dyadic", _dyadic(rng, d)
    yield "decimal", _decimal(rng, d)
    yield "random", rng.dirichlet(np.ones(d))


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


def test_schedule_adversary_wraps_at_round_100000():
    # every round of an epoch plays the column of reference pair r % 100,000
    game = random_game(np.random.default_rng(12), 2, 3, 1)
    w = np.random.default_rng(13).dirichlet(np.ones(6))
    ref = reference_schedule(w, 100_000)
    policy = make_schedule_adversary(0)(game, CspAssignment((Csp(w),)))
    rng = np.random.default_rng(0)
    R = 100_000 + 1_500
    ys = np.array([policy(rng) for _ in range(R)])
    expect = np.zeros((R, game.n))
    expect[np.arange(R), ref[np.arange(R) % 100_000] % game.n] = 1.0
    assert ys.tobytes() == expect.tobytes()
