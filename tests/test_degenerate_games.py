"""run_maximin on degenerate games: m=1, n=1, constant payoffs, identical
types and a type with prior 0, against each adversary kind."""

import numpy as np
import pytest

from menuopt.core import BimatrixGame
from menuopt.maximin import (
    make_aborter_adversary,
    make_schedule_adversary,
    random_adversary,
    run_maximin,
)

EPS = 0.05
T = 300
ADVERSARIES = {
    "aborter": lambda: make_aborter_adversary(0.02),
    "schedule": lambda: make_schedule_adversary(0),
    "random": lambda: random_adversary,
}
U_L = np.array([[0.5, -0.2], [0.1, 0.9]])
U_A = np.array([[0.3, 0.8], [-0.6, 0.2]])
U_B = np.array([[0.9, -0.4], [0.5, -0.7]])


def run(game, adversary):
    return run_maximin(game, EPS, ADVERSARIES[adversary](), T, seed=1)


def same_run(a, b):
    return (
        a.final_V == b.final_V
        and a.abort_count == b.abort_count
        and [e.start_round for e in a.epochs] == [e.start_round for e in b.epochs]
        and np.array_equal(a.transcript.xs, b.transcript.xs)
        and np.array_equal(a.transcript.ys, b.transcript.ys)
    )


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("n", [2, 3])
def test_single_row_settles_at_the_types_best_column(adversary, n):
    # the learner has no choice, so every type gets its best column and the
    # level drops until the learner's payoff there is reached
    u_L = np.array([[0.3, -0.5, 0.8][:n]])
    u_O = np.array([[0.2, 0.9, -0.4][:n]])
    r = run(BimatrixGame(u_L, ((u_O, 1.0),)), adversary)
    target = float(u_L[0, np.argmax(u_O)])
    assert abs(r.final_V - target) <= EPS + 1e-9
    assert r.abort_count >= 1
    assert np.array_equal(r.transcript.xs, np.ones((T, 1)))


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_single_column_keeps_the_top_level(adversary):
    u_L = np.array([[0.3], [-0.6], [0.9]])
    types = ((np.array([[0.5], [0.2], [-0.8]]), 0.7), (np.array([[-0.3], [0.6], [0.1]]), 0.3))
    r = run(BimatrixGame(u_L, types), adversary)
    assert r.final_V == float(np.max(u_L))
    assert r.abort_count == 0
    assert r.learner_avg == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_constant_payoffs_keep_the_top_level(adversary):
    u_L = np.full((2, 3), 0.4)
    types = ((np.full((2, 3), -0.2), 0.5), (np.full((2, 3), 0.7), 0.5))
    r = run(BimatrixGame(u_L, types), adversary)
    assert r.final_V == float(np.max(u_L))
    assert r.abort_count == 0
    assert r.learner_avg == pytest.approx(0.4, abs=1e-12)
    assert np.allclose(r.per_type_avg, [-0.2, 0.7], rtol=0, atol=1e-12)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_identical_types_play_as_one_type(adversary):
    twin = run(BimatrixGame(U_L, ((U_A, 0.5), (U_A, 0.5))), adversary)
    single = run(BimatrixGame(U_L, ((U_A, 1.0),)), adversary)
    assert same_run(twin, single)
    assert twin.final_V == float(np.max(U_L))
    assert twin.abort_count == 0


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_type_with_zero_prior_is_still_guarded(adversary):
    # maximin guards every type, whatever its prior: a type of prior 0
    # plays exactly as it does at prior 1/2, and it lowers the level
    zero = run(BimatrixGame(U_L, ((U_A, 1.0), (U_B, 0.0))), adversary)
    half = run(BimatrixGame(U_L, ((U_A, 0.5), (U_B, 0.5))), adversary)
    alone = run(BimatrixGame(U_L, ((U_A, 1.0),)), adversary)
    assert same_run(zero, half)
    assert zero.abort_count >= 1
    assert zero.final_V < alone.final_V
