import numpy as np
import pytest

from conftest import G1_NR_VALUE, G1_NR_WEIGHTS, random_game
from menuopt.bruteforce import grid_bruteforce_nr
from menuopt.core import BimatrixGame, Csp, assignment_value, bilinear_value
from menuopt.menus import incentive_check, no_regret_check
from menuopt.nr_commitment import nsr_baseline_value, optimal_no_regret_commitment


def test_g1_value_and_assignment(g1):
    res = optimal_no_regret_commitment(g1)
    assert res.value == pytest.approx(float(G1_NR_VALUE), abs=1e-8)
    w = res.assignment[0].weights
    assert np.allclose(w, np.array(G1_NR_WEIGHTS, dtype=float), atol=1e-7)
    assert res.stackelberg_values[0] == pytest.approx(1.0, abs=1e-9)


def test_g1_value_beats_menu_from_the_motivating_example(g1):
    # the hand-built menu offering (C,R)/(A,S) half-half earns 5, so the
    # optimum must weakly exceed it
    res = optimal_no_regret_commitment(g1)
    assert res.value >= 5.0 - 1e-9
    phi = Csp.mix([(0.5, Csp.point_mass(2, 0, 3, 2)), (0.5, Csp.point_mass(0, 1, 3, 2))])
    assert no_regret_check(phi, g1)
    assert bilinear_value(g1.u_O(0), phi) >= res.stackelberg_values[0]


def test_nsr_baseline_g1(g1):
    assert nsr_baseline_value(g1) == pytest.approx(3.0, abs=1e-6)


def test_nsr_baseline_one_by_one():
    game = BimatrixGame(np.array([[1.75]]), ((np.array([[0.5]]), 1.0),))
    assert nsr_baseline_value(game) == pytest.approx(1.75, abs=1e-9)
    assert optimal_no_regret_commitment(game).value == pytest.approx(1.75, abs=1e-8)


def test_stackelberg_corner_is_optimal_when_aligned():
    # identical interests: the best pure pair is a Stackelberg outcome and
    # no feasible assignment can beat its learner value
    rng = np.random.default_rng(50)
    for _ in range(10):
        u = rng.uniform(-1, 1, size=(2, 2))
        game = BimatrixGame(u, ((u.copy(), 1.0),))
        res = optimal_no_regret_commitment(game)
        assert res.value == pytest.approx(float(np.max(u)), abs=1e-7)


def test_value_dominates_nsr_baseline():
    rng = np.random.default_rng(51)
    for _ in range(20):
        game = random_game(rng, int(rng.integers(2, 4)), 2, int(rng.integers(1, 3)))
        res = optimal_no_regret_commitment(game)
        assert res.value >= nsr_baseline_value(game) - 1e-7


def test_assignment_satisfies_all_constraints():
    rng = np.random.default_rng(52)
    for _ in range(20):
        game = random_game(rng, 2, 2, 2)
        res = optimal_no_regret_commitment(game)
        assert incentive_check(res.assignment, game, slack=1e-7)
        for i in range(game.k):
            assert no_regret_check(res.assignment[i], game, tol=1e-7)
            own = bilinear_value(game.u_O(i), res.assignment[i])
            assert own >= res.stackelberg_values[i] - 1e-7
        assert assignment_value(game, res.assignment) == pytest.approx(
            res.value, abs=1e-7
        )


def test_random_k2_games_dominate_grid_oracle():
    rng = np.random.default_rng(53)
    for _ in range(10):
        game = random_game(rng, 2, 2, 2)
        res = optimal_no_regret_commitment(game)
        oracle = grid_bruteforce_nr(game, 0.1)
        assert res.value >= oracle - 1e-6


def test_deterministic_output(g1):
    a = optimal_no_regret_commitment(g1)
    b = optimal_no_regret_commitment(g1)
    assert a.value == b.value
    assert np.array_equal(a.assignment[0].weights, b.assignment[0].weights)
