"""A seeded sweep of whole runs against the reference round and per-round draws.

Every case runs `run_blackwell_abort` and `run_maximin` twice: once with
the library's `ForcingState` and adversaries, once with
`ReferenceForcingState` (a solve and a reward every round, see
`test_forcing_reference.py`) and, in place of the buffered
`random_adversary`, an adversary that calls `rng.dirichlet(np.ones(n))`
every round. Transcripts, rewards, aborts, certificates, levels and
averages must be exactly equal. 4 seeds x 27 shapes x 3 adversaries x 2
kinds of run make 648 runs. At T = 32 a k = 1 epoch against the schedule
or the aborter plays the same column again and again, so the library's
side serves most of its rewards from its memo of the kept x's rewards
(checked below); the memo holds at most n + 1 of them, by y's bytes.
"""

import numpy as np
import pytest

from conftest import random_game
from menuopt import maximin
from menuopt.core import Csp, CspAssignment
from menuopt.maximin import (
    ForcingState,
    make_aborter_adversary,
    make_schedule_adversary,
    random_adversary,
    run_blackwell_abort,
    run_maximin,
    threshold_assignment,
)
from test_forcing_reference import ReferenceForcingState

SEEDS = range(4)
SHAPES = [(m, n, k) for m in (1, 2, 3) for n in (1, 2, 3) for k in (1, 2, 3)]
T = 32
LEVELS = (0.25, 0.5, 0.75, 1.0)  # Blackwell runs' level, per seed, as a share of the way up u_L


def per_round_random_adversary(game, assignment):
    return lambda rng: rng.dirichlet(np.ones(game.n))


ADVERSARIES = {  # name: (the library's side, the reference side)
    "aborter": (lambda: make_aborter_adversary(0.1), lambda: make_aborter_adversary(0.1)),
    "schedule": (lambda: make_schedule_adversary(), lambda: make_schedule_adversary()),
    "random": (lambda: random_adversary, lambda: per_round_random_adversary),
}


def both_sides(monkeypatch, run, adversary):
    ours, theirs = ADVERSARIES[adversary]
    mine = run(ours())
    with monkeypatch.context() as patch:
        patch.setattr(maximin, "ForcingState", ReferenceForcingState)
        ref = run(theirs())
    return mine, ref


def assert_same_rounds(ours, ref):
    assert np.array_equal(ours.transcript.xs, ref.transcript.xs)
    assert np.array_equal(ours.transcript.ys, ref.transcript.ys)
    assert np.array_equal(ours.rewards, ref.rewards)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("m,n,k", SHAPES)
@pytest.mark.parametrize("seed", SEEDS)
def test_runs_equal_the_reference(monkeypatch, seed, m, n, k, adversary):
    game = random_game(np.random.default_rng([9300, seed, m, n, k]), m, n, k)
    lo, hi = float(np.min(game.u_L)), float(np.max(game.u_L))
    assignment = threshold_assignment(game, lo + LEVELS[seed] * (hi - lo))
    ours, ref = both_sides(
        monkeypatch, lambda adv: run_blackwell_abort(game, assignment, adv, T, seed=seed), adversary
    )
    assert_same_rounds(ours, ref)
    assert ours.aborted_at == ref.aborted_at
    assert (ours.certificate is None) == (ref.certificate is None)
    if ref.certificate is not None:
        assert np.array_equal(ours.certificate, ref.certificate)

    ours, ref = both_sides(monkeypatch, lambda adv: run_maximin(game, 0.1, adv, T, seed=seed), adversary)
    assert_same_rounds(ours, ref)
    assert ours.abort_count == ref.abort_count
    assert ours.final_V == ref.final_V
    assert [e.start_round for e in ours.epochs] == [e.start_round for e in ref.epochs]
    assert np.array_equal(ours.per_type_avg, ref.per_type_avg, equal_nan=True)
    assert np.array_equal(ours.learner_avg, ref.learner_avg, equal_nan=True)


@pytest.mark.parametrize("adversary", ["aborter", "schedule"])
def test_k1_sweep_runs_take_stored_rewards(monkeypatch, adversary):
    # the sweep's T is long enough for the store to serve k = 1 rounds
    game = random_game(np.random.default_rng([9300, 0, 3, 2, 1]), 3, 2, 1)
    computed = []
    reward = ForcingState._reward
    monkeypatch.setattr(ForcingState, "_reward", lambda self, x, y: computed.append(1) or reward(self, x, y))
    run = run_maximin(game, 0.1, ADVERSARIES[adversary][0](), T, seed=0)
    assert len(run.transcript) == T
    assert len(computed) < T // 2


def kept_state(n, k=1):
    """A state on a 3 x n game whose types are assigned their favourite pairs: it never aborts."""
    game = random_game(np.random.default_rng([9400, n, k]), 3, n, k)
    favourites = []
    for i in range(k):
        w = np.zeros(3 * n)
        w[int(np.argmax(game.u_O(i).ravel()))] = 1.0
        favourites.append(Csp(w))
    return ForcingState(game, CspAssignment(tuple(favourites)))


@pytest.mark.parametrize("n", [2, 3])
def test_reward_store_stays_bounded_under_random_mixes(n):
    state = kept_state(n)
    policy = random_adversary(state.game, state.assignment)
    rng = maximin._RunGenerator(n)
    largest = 0
    for _ in range(10_000):
        x = state.act()
        state.observe(x, policy(rng))
        largest = max(largest, len(state._stored or ()))
    assert largest == n + 1


def test_kept_rewards_are_served_by_the_bytes_of_y(monkeypatch):
    state = kept_state(3)
    computed = []
    reward = ForcingState._reward
    monkeypatch.setattr(ForcingState, "_reward", lambda self, x, y: computed.append(1) or reward(self, x, y))
    y = np.array([0.0, 1.0, 0.0])
    x = state.act()
    first = state.observe(x, y)  # the round of the solve: nothing kept yet
    assert state.act() is x
    kept = state.observe(x, y)
    assert len(computed) == 2 and len(state._stored) == 1
    assert state.act() is x
    served = state.observe(x, y.copy())  # a new array with the same bytes
    assert len(computed) == 2
    assert np.array_equal(kept, first)
    assert np.array_equal(served, first)


def test_an_x_other_than_the_kept_one_is_computed_afresh(monkeypatch):
    state = kept_state(2)
    computed = []
    reward = ForcingState._reward
    monkeypatch.setattr(ForcingState, "_reward", lambda self, x, y: computed.append(1) or reward(self, x, y))
    y = np.array([0.25, 0.75])
    x = state.act()
    state.observe(x, y)
    state.act()
    stored = state.observe(x, y)
    assert len(computed) == 2
    state.act()
    fresh = state.observe(np.asarray(x), y)  # equal values, but not the kept tuple
    assert len(computed) == 3
    assert fresh is not stored and fresh.flags.writeable
    assert np.array_equal(fresh, stored)


def test_a_new_solve_empties_the_store():
    state = kept_state(2, k=2)
    y = np.array([1.0, 0.0])
    state.act()
    state.act()
    state.observe(state.act(), y)
    assert len(state._stored) == 1
    state.p = np.array([0.3, 0.7])
    x = state.act()
    assert state._stored is None
    assert state.observe(x, y).flags.writeable


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_adversary_replays_single_draws_across_epochs(n):
    # a run's generator serves the mixes from blocks drawn ahead: 3,000
    # rounds, then 2,000 in a second epoch, which starts on the first
    # epoch's leftovers and crosses into a second block
    game = random_game(np.random.default_rng([9500, n]), 2, n, 1)
    rng, single = maximin._RunGenerator(n), np.random.default_rng(n)
    for rounds in (3_000, 2_000):
        policy = random_adversary(game, None)
        got = [policy(rng) for _ in range(rounds)]
        assert not any(y.flags.writeable for y in got)
        assert np.array_equal(got, [single.dirichlet(np.ones(n)) for _ in range(rounds)])
