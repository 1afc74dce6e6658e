"""The shared tester net: one evaluation per solve, verdicts equal to fresh ones."""

import tracemalloc

import numpy as np
import pytest

from conftest import random_game, random_tester_instance
from menuopt import approachability, general_commitment, lp
from menuopt.approachability import (
    TesterNet,
    simplex_lattice,
    test_assignment_valid,
    verdict_for_thresholds,
)
from menuopt.bruteforce import grid_maximin_opt, grid_menu_validity
from menuopt.core import BimatrixGame, Csp, CspAssignment
from menuopt.errors import InvalidInput
from menuopt.general_commitment import optimize_general
from menuopt.maximin import make_aborter_adversary, run_maximin
from menuopt.menus import candidate_menu, response_satisfiable_at


@pytest.fixture()
def counts(monkeypatch):
    """Counts net evaluations and verdicts, through every name that binds them."""
    seen = {"nets": 0, "verdicts": 0}
    net_values, verdict = approachability._net_values, approachability.verdict_for_thresholds

    def counted_net_values(game, directions):
        seen["nets"] += 1
        return net_values(game, directions)

    def counted_verdict(*args, **kwargs):
        seen["verdicts"] += 1
        return verdict(*args, **kwargs)

    monkeypatch.setattr(approachability, "_net_values", counted_net_values)
    monkeypatch.setattr(approachability, "verdict_for_thresholds", counted_verdict)
    monkeypatch.setattr(general_commitment, "verdict_for_thresholds", counted_verdict)
    return seen


def test_optimize_general_evaluates_net_once_on_g1(g1, counts):
    res = optimize_general(g1, eps=0.05)
    assert res.converged
    assert counts["verdicts"] > 1
    assert counts["nets"] == 1


def test_optimize_general_evaluates_net_once_at_k2(counts):
    game = random_game(np.random.default_rng([2, 2, 2, 0]), 2, 2, 2)
    optimize_general(game, eps=0.05)
    assert counts["verdicts"] > 1
    assert counts["nets"] == 1


def test_aborter_evaluates_net_once_per_run(counts):
    game = random_game(np.random.default_rng([2, 2, 3, 2]), 2, 3, 2)
    run = run_maximin(game, 0.05, make_aborter_adversary(0.02), 1000, seed=0)
    assert counts["verdicts"] == len(run.epochs) > 1  # every epoch played a round
    assert counts["nets"] == 1


def test_grid_maximin_opt_evaluates_net_once_per_scan(counts):
    u = np.array([[1.0, 0.0], [0.0, 0.6]])
    game = BimatrixGame(u, ((-u, 1.0),))
    grid_maximin_opt(game, 0.05, 0.02)
    assert counts["verdicts"] > 1
    assert counts["nets"] == 1


@pytest.mark.parametrize("shape", [(3, 2, 2), (2, 3, 2), (3, 3, 2), (2, 2, 3)])
def test_shared_net_verdict_equals_fresh_verdict(shape):
    rng = np.random.default_rng(list(shape))
    game = random_game(rng, *shape)
    delta = 0.1
    net = TesterNet.build(game, delta)
    lo, hi = float(net.values.min()), float(net.values.max())
    outcomes = set()
    for _ in range(40):
        c = rng.uniform(lo - 0.1, hi + 0.1, size=game.k)
        shared = verdict_for_thresholds(game, c, delta, net)
        fresh = verdict_for_thresholds(game, c, delta)
        assert shared.approachable == fresh.approachable
        outcomes.add(shared.approachable)
        if fresh.approachable:
            assert shared.direction is None and shared.certificate_y is None
        else:
            assert np.array_equal(shared.direction, fresh.direction)
            assert np.array_equal(shared.certificate_y, fresh.certificate_y)
    assert outcomes == {True, False}
    assert net.certificates  # refutations were answered from the shared net


def test_certificates_handed_out_are_copies():
    game = random_game(np.random.default_rng(6), 3, 2, 2)
    net = TesterNet.build(game, 0.1)
    c = np.full(game.k, float(net.values.min()) - 1.0)
    first = verdict_for_thresholds(game, c, 0.1, net)
    first.certificate_y[:] = -1.0
    first.direction[:] = -1.0
    again = verdict_for_thresholds(game, c, 0.1, net)
    assert np.array_equal(again.certificate_y, verdict_for_thresholds(game, c, 0.1).certificate_y)
    assert np.array_equal(again.direction, verdict_for_thresholds(game, c, 0.1).direction)


def test_net_of_another_game_or_delta_is_refused():
    rng = np.random.default_rng(7)
    game = random_game(rng, 3, 2, 2)
    twin = BimatrixGame(game.u_L.copy(), tuple((game.u_O(i).copy(), game.alphas[i]) for i in range(game.k)))
    net = TesterNet.build(game, 0.1)
    assign = CspAssignment(tuple(Csp(rng.dirichlet(np.ones(6))) for _ in range(2)))
    c = np.zeros(game.k)
    with pytest.raises(InvalidInput):
        verdict_for_thresholds(twin, c, 0.1, net)
    with pytest.raises(InvalidInput):
        verdict_for_thresholds(game, c, 0.05, net)
    with pytest.raises(InvalidInput):
        test_assignment_valid(assign, twin, 0.1, net)
    with pytest.raises(InvalidInput):
        TesterNet.build(game, 0.0)


def unchunked_values(game, points):
    return lp.zero_sum_values(np.tensordot(points, game.opponent_payoffs, axes=(1, 0)))


@pytest.mark.parametrize("shape", [(3, 2, 3), (2, 3, 3)])
def test_net_values_in_chunks_match_and_bound_memory(shape):
    game = random_game(np.random.default_rng([3, 2, 3, 0]), *shape)
    points = simplex_lattice(3, 800)  # 321,201 directions, about five chunks
    assert len(points) > 4 * approachability._NET_CHUNK
    tracemalloc.start()
    try:
        values = approachability._net_values(game, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(values, unchunked_values(game, points))
    # beyond the returned values, memory is that of one chunk (about 130
    # bytes a direction); unchunked, the same net peaks at 39-55 MB
    assert peak <= values.nbytes + 256 * approachability._NET_CHUNK


def test_net_values_of_the_kernel_path_do_not_depend_on_the_chunk(monkeypatch):
    game = random_game(np.random.default_rng([3, 3, 3, 0]), 3, 3, 3)
    points = approachability.direction_net(3, 0.2 / (4.0 * game.p_max))
    monkeypatch.setattr(approachability, "_NET_CHUNK", 100)
    assert len(points) > 4 * approachability._NET_CHUNK
    assert np.array_equal(approachability._net_values(game, points), unchunked_values(game, points))


def test_tester_soundness_on_3x3_games():
    # criterion 3's checks on the games that value their nets by kernel
    # enumeration: a pass survives the opponent grid, a refutation is sound
    delta = 0.05
    n_approach, n_refute = 0, 0
    for seed in range(48):
        rng = np.random.default_rng([3300, seed])
        game, assign = random_tester_instance(rng, 3, 3, 2 + seed % 2, seed % 4)
        verdict = test_assignment_valid(assign, game, delta)
        if verdict.approachable:
            n_approach += 1
            ok, y = grid_menu_validity(assign, game, 0.05, eps=delta)
            assert ok, f"seed {seed}: grid refuted an approachable verdict at y={y}"
        else:
            n_refute += 1
            witness = response_satisfiable_at(candidate_menu(assign, 0.0, game), verdict.certificate_y, game)
            assert witness is None, f"seed {seed}: certificate not sound"
    assert n_approach >= 12 and n_refute >= 12
