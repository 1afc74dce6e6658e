"""Cross-module and edge-shape coverage beyond the per-module suites."""

import json

import numpy as np
import pytest

from conftest import incentive_check, random_csp, random_game
from menuopt import cli, lp
from menuopt.approachability import test_assignment_valid
from menuopt.bruteforce import grid_bruteforce_nr
from menuopt.core import BimatrixGame, Csp, CspAssignment, bilinear_value
from menuopt.general_commitment import optimize_general
from menuopt.maximin import make_aborter_adversary, run_maximin
from menuopt.menus import eval_menu_value, no_regret_check, no_swap_regret_menu
from menuopt.nr_commitment import nsr_baseline_value, optimal_no_regret_commitment
from menuopt.playback import MenuScheduleLearner, optimizer_best_response_policy, simulate
from menuopt.stackelberg import type_leader_values


def test_general_commitment_dominates_no_regret_for_two_types():
    # the no-regret-feasible assignments form a subset of the general
    # feasible set for every support size, so the eps-approximate general
    # optimum must clear the exact no-regret optimum minus eps
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        game = random_game(rng, 2, 2, 2)
        nr = optimal_no_regret_commitment(game)
        gen = optimize_general(game, eps=0.1)
        assert gen.converged
        assert gen.value_lower_bound >= nr.value - 0.1 - 1e-9
        assert gen.verdict_approachable
        assert eval_menu_value(gen.menu, game, 0.1) >= gen.value_lower_bound - 1e-6


def test_general_commitment_three_by_two_two_types_converges():
    rng = np.random.default_rng(310)
    game = random_game(rng, 3, 2, 2)  # twelve-dimensional search space
    nr = optimal_no_regret_commitment(game)
    gen = optimize_general(game, eps=0.1)
    assert gen.converged
    assert gen.value_lower_bound >= nr.value - 0.1 - 1e-9


def test_single_learner_action_game():
    # with one learner row every profile is a column distribution and all
    # regret constraints are vacuous
    u_L = np.array([[0.2, -0.4, 0.9]])
    u_O = np.array([[0.5, 0.1, -0.3]])
    game = BimatrixGame(u_L, ((u_O, 1.0),))
    assert no_swap_regret_menu(game).n_constraints == 0
    res = optimal_no_regret_commitment(game)
    # the opponent's floor is its own best column, and among profiles
    # worth at least that to the opponent the learner optimizes freely
    v, _ = type_leader_values(game)
    assert v[0] == pytest.approx(0.5, abs=1e-9)
    assert res.value == pytest.approx(0.2, abs=1e-7)
    gen = optimize_general(game, eps=0.05)
    assert gen.converged
    assert gen.value_lower_bound >= res.value - 0.05


def test_single_opponent_action_game():
    u_L = np.array([[0.3], [0.8]])
    u_O = np.array([[1.0], [-1.0]])
    game = BimatrixGame(u_L, ((u_O, 1.0),))
    res = optimal_no_regret_commitment(game)
    # only learner deviations matter: the opponent has no play, so the
    # learner's best no-regret profile is its own best response row
    assert res.value == pytest.approx(0.8, abs=1e-7)
    run = run_maximin(game, 0.05, make_aborter_adversary(0.02), 200, seed=0)
    assert run.final_V >= 0.8 - 0.05 - 1e-9


def test_zero_probability_type_is_still_constrained():
    rng = np.random.default_rng(320)
    u_L = rng.uniform(-1, 1, (2, 2))
    u1 = rng.uniform(-1, 1, (2, 2))
    u2 = rng.uniform(-1, 1, (2, 2))
    game = BimatrixGame(u_L, ((u1, 1.0), (u2, 0.0)))
    res = optimal_no_regret_commitment(game)
    # the zero-weight type contributes nothing to the objective but its
    # incentive and floor constraints still bind
    assert incentive_check(res.assignment, game, slack=1e-7)
    for i in range(2):
        assert no_regret_check(res.assignment[i], game, tol=1e-7)
        own = bilinear_value(game.u_O(i), res.assignment[i])
        assert own >= res.stackelberg_values[i] - 1e-7
    solo = optimal_no_regret_commitment(BimatrixGame(u_L, ((u1, 1.0),)))
    assert res.value <= solo.value + 1e-9  # extra constraints cannot help


def test_three_type_pipeline_end_to_end():
    rng = np.random.default_rng(330)
    game = random_game(rng, 2, 2, 3)
    res = optimal_no_regret_commitment(game)
    assert res.value >= nsr_baseline_value(game) - 1e-7
    # realize and simulate each type's pick over the offered hull
    from menuopt.menus import no_regret_menu

    for i in range(game.k):
        chosen, opp, _ = optimizer_best_response_policy(
            res.nsr_menu, res.extra_points, game.u_O(i), game.u_L, game
        )
        learner = MenuScheduleLearner(
            no_regret_menu(game).relaxed(1e-9),
            list(res.extra_points) + [chosen],
            fallback_menu=res.nsr_menu,
        )
        rep = simulate(game, learner, opp, 4000, type_index=i,
                       chosen_target=len(res.extra_points))
        assert rep.per_type_avg[i] == pytest.approx(
            bilinear_value(game.u_O(i), chosen), abs=0.02
        )
        assert rep.learner_avg == pytest.approx(
            bilinear_value(game.u_L, chosen), abs=0.02
        )


def test_tester_handles_three_types_on_wide_game():
    rng = np.random.default_rng(340)
    game = random_game(rng, 2, 3, 3)  # n = 3 exercises the transpose path
    assign = CspAssignment(tuple(random_csp(rng, 6) for _ in range(3)))
    verdict = test_assignment_valid(assign, game, 0.1)
    if not verdict.approachable:
        from menuopt.menus import candidate_menu, response_satisfiable_at

        menu = candidate_menu(assign, 0.0, game)
        assert response_satisfiable_at(menu, verdict.certificate_y, game) is None


def test_grid_oracle_handles_two_types_on_three_by_two():
    rng = np.random.default_rng(350)
    game = random_game(rng, 3, 2, 2)
    res = optimal_no_regret_commitment(game)
    oracle = grid_bruteforce_nr(game, 0.1)
    assert res.value >= oracle - 1e-6


def test_cli_multi_type_game(tmp_path, capsys):
    rng = np.random.default_rng(360)
    game = random_game(rng, 2, 2, 2)
    p = tmp_path / "two_types.json"
    p.write_text(game.to_json())
    code = cli.run(["commit-nr", "--game", str(p)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["result"]["assignment"]) == 2
    code = cli.run(["stackelberg", "--game", str(p)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["result"]["per_type"]) == 2
    code = cli.run(
        ["simulate", "--game", str(p), "--learner", "commit-general", "--type", "1",
         "--T", "500", "--eps", "0.1"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["max_menu_violation"] <= 0.2


def test_zero_sum_single_row_and_column():
    value, x, y = lp.zero_sum_value(np.array([[0.4, -0.2, 0.7]]))
    assert value == pytest.approx(0.7)  # column player picks the max
    value, x, y = lp.zero_sum_value(np.array([[0.4], [-0.2], [0.7]]))
    assert value == pytest.approx(-0.2)  # row player picks the min
