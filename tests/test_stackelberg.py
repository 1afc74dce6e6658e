import numpy as np
import pytest

from conftest import random_game, stackelberg_leader
from menuopt import lp
from menuopt.core import Csp, bilinear_value
from menuopt.menus import no_swap_regret_check
from menuopt.stackelberg import type_leader_values


def test_g1_optimizer_leads_to_as(g1):
    v, csps = type_leader_values(g1)
    assert v[0] == pytest.approx(1.0, abs=1e-9)
    expect = Csp.point_mass(0, 1, 3, 2)  # (A, S)
    assert np.allclose(csps[0].weights, expect.weights, atol=1e-8)


def test_one_by_one_game():
    res = stackelberg_leader(np.array([[2.5]]), np.array([[-1.0]]))
    assert res.value == pytest.approx(2.5)
    assert res.follower_action == 0
    assert np.allclose(res.leader_mix, [1.0])


def grid_stackelberg_oracle(leader, follower, resolution=1e-3):
    """Grid over leader mixes; follower best responds, leader-favoring ties."""
    a, b = leader.shape
    steps = int(round(1.0 / resolution))
    t = np.arange(steps + 1) / steps
    if a == 2:
        xs = np.stack([t, 1.0 - t], axis=1)
    elif a == 3:
        g1v, g2v = np.meshgrid(t, t)
        keep = g1v + g2v <= 1.0 + 1e-12
        xs = np.stack([g1v[keep], g2v[keep], 1.0 - g1v[keep] - g2v[keep]], axis=1)
    else:
        raise ValueError
    fol = xs @ follower  # (N, b)
    lead = xs @ leader
    best_follower = fol.max(axis=1, keepdims=True)
    admissible = fol >= best_follower - 1e-12
    return float(np.max(np.where(admissible, lead, -np.inf)))


def test_random_3x2_matches_grid_oracle():
    rng = np.random.default_rng(20)
    for _ in range(10):
        leader = rng.uniform(-1, 1, size=(3, 2))
        follower = rng.uniform(-1, 1, size=(3, 2))
        res = stackelberg_leader(leader, follower)
        oracle = grid_stackelberg_oracle(leader, follower)
        assert res.value == pytest.approx(oracle, abs=5e-3)
        assert res.value >= oracle - 5e-3


def test_returned_csp_is_product_and_follower_nsr():
    rng = np.random.default_rng(21)
    for _ in range(10):
        game = random_game(rng, 3, 2, 1)
        v, csps = type_leader_values(game)
        mat = csps[0].weights.reshape(game.m, game.n)
        # rank-one product with a pure opponent-side never holds here (the
        # opponent may mix); product form means rank one
        assert np.linalg.matrix_rank(mat, tol=1e-8) == 1
        # the learner (follower) has no profitable swap at this profile
        assert no_swap_regret_check(csps[0], game, tol=1e-8)
        assert bilinear_value(game.u_O(0), csps[0]) == pytest.approx(v[0], abs=1e-8)


def test_leader_value_dominates_maximin():
    rng = np.random.default_rng(22)
    for _ in range(20):
        leader = rng.uniform(-1, 1, size=(3, 3))
        follower = rng.uniform(-1, 1, size=(3, 3))
        res = stackelberg_leader(leader, follower)
        # leader's security value: max_x min_y x^T L y = -val(-L)
        security = -lp.zero_sum_value(-leader)[0]
        assert res.value >= security - 1e-8


def test_affine_rescaling_of_leader_payoff():
    rng = np.random.default_rng(23)
    for _ in range(20):
        leader = rng.uniform(-1, 1, size=(2, 3))
        follower = rng.uniform(-1, 1, size=(2, 3))
        a, b = float(rng.uniform(0.5, 3.0)), float(rng.uniform(-2.0, 2.0))
        base = stackelberg_leader(leader, follower)
        scaled = stackelberg_leader(a * leader + b, follower)
        assert scaled.value == pytest.approx(a * base.value + b, abs=1e-8)
        assert scaled.follower_action == base.follower_action
        assert np.allclose(scaled.leader_mix, base.leader_mix, atol=1e-6)


def test_dominated_follower_column_is_skipped():
    # column 1 strictly dominates column 0 for the follower, so the
    # leader cannot steer the follower onto column 0 at all
    leader = np.array([[5.0, 0.0], [5.0, 0.0]])
    follower = np.array([[0.0, 1.0], [0.0, 1.0]])
    res = stackelberg_leader(leader, follower)
    assert res.follower_action == 1
    assert res.value == pytest.approx(0.0)
