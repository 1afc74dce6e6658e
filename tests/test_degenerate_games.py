"""Solvers on degenerate games.

run_maximin on m=1, n=1, constant payoffs, identical types and a type
with prior 0, against each adversary kind; the commitment solvers, the
menu value and the optimizer's best response on m=1, n=1, duplicate rows
or columns and identical types, with values worked out by hand; and
optimize_general on all of these shapes against the no-regret optimum.
"""

import json

import numpy as np
import pytest

from conftest import G1_NR_VALUE, G1_NR_WEIGHTS, G1_UL, G1_UO, random_game
from menuopt import cli
from menuopt.core import BimatrixGame
from menuopt.general_commitment import optimize_general
from menuopt.maximin import (
    make_aborter_adversary,
    make_schedule_adversary,
    random_adversary,
    run_maximin,
)
from menuopt.menus import eval_menu_value, no_regret_menu
from menuopt.nr_commitment import nsr_baseline_value, optimal_no_regret_commitment
from menuopt.playback import optimizer_best_response_policy
from menuopt.stackelberg import type_leader_values

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


def one_row_game():
    # u_L = (-0.655, 0.478), u_O = (0.914, -0.219). At the bottom level the
    # tie-break leaves the threshold c 1e-9 below the value of the only x,
    # so a forcing slack of 1e-9 aborted every epoch at its first round.
    return random_game(np.random.default_rng([9001, 1, 2, 1]), 1, 2, 1)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_one_row_game_plays_every_round_at_the_bottom_level(adversary):
    r = run(one_row_game(), adversary)
    assert len(r.transcript) == T
    assert np.all(np.isfinite(r.per_type_avg))
    assert np.isfinite(r.learner_avg)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_one_row_game_cli_prints_strict_json(adversary, tmp_path, capsys):
    path = tmp_path / "game.json"
    path.write_text(one_row_game().to_json())
    code = cli.run(["maximin", "--game", str(path), "--adversary", adversary, "--T", str(T)])
    out = capsys.readouterr().out

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    doc = json.loads(out, parse_constant=reject)
    assert code == 0
    assert doc["result"]["epochs"][-1]["start_round"] < T


def single_column_game():
    types = ((np.array([[0.5], [0.2], [-0.8]]), 0.7), (np.array([[-0.3], [0.6], [0.1]]), 0.3))
    return BimatrixGame(np.array([[0.3], [-0.6], [0.9]]), types)


def constant_game():
    return BimatrixGame(np.full((2, 3), 0.4), ((np.full((2, 3), -0.2), 0.5), (np.full((2, 3), 0.7), 0.5)))


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_single_column_keeps_the_top_level(adversary):
    game = single_column_game()
    r = run(game, adversary)
    assert r.final_V == float(np.max(game.u_L))
    assert r.abort_count == 0
    assert r.learner_avg == pytest.approx(0.9, abs=1e-12)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
def test_constant_payoffs_keep_the_top_level(adversary):
    game = constant_game()
    r = run(game, adversary)
    assert r.final_V == float(np.max(game.u_L))
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


# Values pinned by hand below hold up to the solvers' tie slack of 1e-9,
# which lets a type's favourite face grow by that much.
TOL = 1e-7


def best_response(game, extra=()):
    chosen, _, picked = optimizer_best_response_policy(
        no_regret_menu(game), list(extra), game.u_O(0), game.u_L, game
    )
    return chosen.weights, picked


def test_single_row_solvers_follow_the_types_best_column():
    # one learner row: every profile is no-regret, so the type takes its
    # best column (u_O 0.9 at column 1), where the learner earns -0.5
    game = BimatrixGame(np.array([[0.3, -0.5, 0.8]]), ((np.array([[0.2, 0.9, -0.4]]), 1.0),))
    v, csps = type_leader_values(game)
    assert v == pytest.approx([0.9], abs=TOL)
    assert np.allclose(csps[0].weights, [0, 1, 0], atol=TOL)
    res = optimal_no_regret_commitment(game)
    assert res.value == pytest.approx(-0.5, abs=TOL)
    assert np.allclose(res.assignment[0].weights, [0, 1, 0], atol=TOL)
    assert nsr_baseline_value(game) == pytest.approx(-0.5, abs=TOL)
    assert eval_menu_value(no_regret_menu(game), game, 0.0) == pytest.approx(-0.5, abs=TOL)
    # eps = 0.05: the learner mixes column 0 in until u_O falls to 0.85,
    # i.e. 1/14 on column 0 and 13/14 on column 1, worth -6.2/14
    assert eval_menu_value(no_regret_menu(game), game, 0.05) == pytest.approx(-6.2 / 14, abs=TOL)
    weights, picked = best_response(game)
    assert np.allclose(weights, [0, 1, 0], atol=TOL)
    assert picked == -1


def test_single_column_solvers_play_the_learners_best_row():
    # one opponent column: the only no-regret profile is the learner's
    # best row (u_L 0.9 at row 2), and every type is assigned it
    game = single_column_game()
    v, csps = type_leader_values(game)
    assert v == pytest.approx([-0.8, 0.1], abs=TOL)
    for csp in csps:
        assert np.allclose(csp.weights, [0, 0, 1], atol=TOL)
    res = optimal_no_regret_commitment(game)
    assert res.value == pytest.approx(0.9, abs=TOL)
    for profile in res.assignment:
        assert np.allclose(profile.weights, [0, 0, 1], atol=TOL)
    assert nsr_baseline_value(game) == pytest.approx(0.9, abs=TOL)
    for eps in (0.0, 0.05, 0.5):
        assert eval_menu_value(no_regret_menu(game), game, eps) == pytest.approx(0.9, abs=TOL)
    weights, _ = best_response(game)
    assert np.allclose(weights, [0, 0, 1], atol=TOL)


def merge_columns(w):  # columns 1 and 2 are both G1's column S
    w = w.reshape(3, 3)
    return np.c_[w[:, 0], w[:, 1] + w[:, 2]].ravel()


def merge_rows(w):  # rows 1 and 2 are both G1's row B
    w = w.reshape(4, 2)
    return np.r_[w[:1], w[1:2] + w[2:3], w[3:]].ravel()


# A copy of an action is a relabelling: merging the copies' mass maps each
# solution of these games onto the matching solution of G1.
DUPLICATES = {
    "column": (BimatrixGame(G1_UL[:, [0, 1, 1]], ((G1_UO[:, [0, 1, 1]], 1.0),)), merge_columns),
    "row": (BimatrixGame(G1_UL[[0, 1, 1, 2]], ((G1_UO[[0, 1, 1, 2]], 1.0),)), merge_rows),
}


@pytest.mark.parametrize("kind", sorted(DUPLICATES))
def test_duplicate_action_changes_no_value(g1, kind):
    game, merge = DUPLICATES[kind]
    res = optimal_no_regret_commitment(game)
    assert res.value == pytest.approx(float(G1_NR_VALUE), abs=TOL)
    assert np.allclose(merge(res.assignment[0].weights), [float(w) for w in G1_NR_WEIGHTS], atol=TOL)
    assert type_leader_values(game)[0] == pytest.approx(type_leader_values(g1)[0], abs=TOL)
    assert nsr_baseline_value(game) == pytest.approx(nsr_baseline_value(g1), abs=TOL)
    for eps in (0.0, 0.05):
        assert eval_menu_value(no_regret_menu(game), game, eps) == pytest.approx(
            eval_menu_value(no_regret_menu(g1), g1, eps), abs=TOL
        )
    weights, _ = best_response(game)
    assert np.allclose(merge(weights), best_response(g1)[0], atol=TOL)


@pytest.mark.parametrize("alpha", [0.3, 0.5])
def test_identical_types_get_identical_profiles(alpha):
    single = BimatrixGame(U_L, ((U_A, 1.0),))
    twin = BimatrixGame(U_L, ((U_A, alpha), (U_A, 1.0 - alpha)))
    v, csps = type_leader_values(twin)
    assert v[0] == v[1] == type_leader_values(single)[0][0]
    assert np.array_equal(csps[0].weights, csps[1].weights)
    res = optimal_no_regret_commitment(twin)
    alone = optimal_no_regret_commitment(single)
    assert res.value == pytest.approx(alone.value, abs=TOL)
    for profile in res.assignment:
        assert np.allclose(profile.weights, alone.assignment[0].weights, atol=TOL)
    assert nsr_baseline_value(twin) == pytest.approx(nsr_baseline_value(single), abs=TOL)
    for eps in (0.0, 0.05):
        assert eval_menu_value(no_regret_menu(twin), twin, eps) == pytest.approx(
            eval_menu_value(no_regret_menu(single), single, eps), abs=TOL
        )
    assert np.allclose(best_response(twin)[0], best_response(single)[0], atol=TOL)


# optimize_general searches a superset of the no-regret assignments, so on
# every degenerate shape it must converge, certify its menu and come within
# eps of the no-regret optimum.
GENERAL_GAMES = {
    "single_row": one_row_game,
    "single_column": single_column_game,
    "constant_payoffs": constant_game,
    "identical_types": lambda: BimatrixGame(U_L, ((U_A, 0.5), (U_A, 0.5))),
    "zero_prior_type": lambda: BimatrixGame(U_L, ((U_A, 1.0), (U_B, 0.0))),
    "duplicate_row": lambda: BimatrixGame(G1_UL[[0, 0, 1, 2]], ((G1_UO[[0, 0, 1, 2]], 1.0),)),
    "zero_learner_payoffs": lambda: BimatrixGame(np.zeros((2, 2)), ((U_A, 0.5), (U_B, 0.5))),
}


@pytest.mark.parametrize("name", sorted(GENERAL_GAMES))
def test_optimize_general_reaches_the_no_regret_value(name):
    game = GENERAL_GAMES[name]()
    res = optimize_general(game, EPS)
    assert res.converged
    assert res.verdict_approachable
    assert res.value_lower_bound >= optimal_no_regret_commitment(game).value - EPS
