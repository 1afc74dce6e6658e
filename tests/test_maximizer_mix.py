"""`lp.maximizer_mix`: the opponent's certificate mix, in closed form on two rows or columns.

The column player's optimal mix y of M is the row minimizer's mix of -M^T,
so a game with two rows or two columns takes `lp.minmax_rows_by_2` or
`lp.minmax_2_by_cols` and runs no simplex. These tests hold it to the
simplex's y (`lp.zero_sum_value`), to the dual check, to the separator's
margin on degenerate games, and check with a spy on `lp.solve_lp` that no
refuting direction of a k <= 2 game with m = 2 or n = 2 reaches the simplex.
"""

import json
import sys

import numpy as np
import pytest

from conftest import random_game
from test_degenerate_games import DUPLICATES, GENERAL_GAMES
from menuopt import cli, lp
from menuopt.approachability import TesterNet, direction_net, separator_for_thresholds
from menuopt.core import Csp, CspAssignment
from menuopt.errors import CertificateInvalid, InvalidInput, NumericalFailure
from menuopt.general_commitment import optimize_general
from menuopt.maximin import random_adversary, run_blackwell_abort

ULP = np.finfo(float).eps  # one ulp of 1, the scale of a mix's entries
SHAPES = [(m, 2) for m in range(1, 7)] + [(2, n) for n in range(1, 7)]


def direction_games(seed, m, n, k, spacing):
    game = random_game(np.random.default_rng([9500, seed, m, n, k]), m, n, k)
    return [np.tensordot(a, game.opponent_payoffs, axes=(0, 0)) for a in direction_net(k, spacing)]


def test_closed_form_matches_the_simplex_on_two_row_and_two_column_games():
    # The two solvers differ only by round-off: at most a few ulps of 1 on
    # any entry (2.75 measured over 3,264 such games), and the simplex puts
    # mass below 1e-15 (its dual recovery's round-off) on some columns that
    # the closed form leaves at exactly 0.
    checked = 0
    for m, n in SHAPES:
        for k in (1, 2, 3):
            for seed in range(4):
                for M in direction_games(seed, m, n, k, 0.5):
                    y = lp.maximizer_mix(M)
                    ref = lp.zero_sum_value(M)[2]
                    assert np.max(np.abs(y - ref)) <= 4 * ULP
                    assert np.array_equal(y > 0.0, ref > 1e-15)
                    checked += 1
    assert checked >= 500


@pytest.mark.parametrize("shape", [(3, 3), (4, 3), (1, 1), (3, 1)])
def test_other_shapes_take_the_simplex(monkeypatch, shape):
    M = np.random.default_rng([9501, *shape]).uniform(-1.0, 1.0, size=shape)
    calls = []
    solve = lp.zero_sum_value
    monkeypatch.setattr(lp, "zero_sum_value", lambda A: calls.append(1) or solve(A))
    assert np.array_equal(lp.maximizer_mix(M), solve(M)[2])
    assert len(calls) == 1


@pytest.mark.parametrize("solver,M", [
    ("minmax_2_by_cols", [[1.0, -1.0], [-1.0, 1.0]]),  # value 0 at y = (1/2, 1/2)
    ("minmax_rows_by_2", [[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0]]),  # value 0 at y = (0, 0, 1)
])
def test_a_closed_form_mix_that_fails_the_dual_check_raises(monkeypatch, solver, M):
    # a solver that claims value 0 for the pure y = e_0, which guarantees only -1
    monkeypatch.setattr(lp, solver, lambda A: (0.0, (1.0,) + (0.0,) * (A.shape[0] - 1)))
    with pytest.raises(NumericalFailure, match="dual certificate"):
        lp.maximizer_mix(np.array(M))


@pytest.mark.parametrize("M", [np.zeros((0, 2)), np.array([1.0, 2.0]), np.array([[np.nan, 1.0]])])
def test_maximizer_mix_rejects_bad_matrices(M):
    with pytest.raises(InvalidInput):
        lp.maximizer_mix(M)


DEGENERATE = {**GENERAL_GAMES, **{f"duplicate_{kind}": (lambda g=g: g) for kind, (g, _) in DUPLICATES.items()}}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_games_give_a_certified_mix_and_a_cut(name):
    # Every direction's y passes the dual check, and wherever the simplex's
    # y gives a cut at thresholds below the direction's value, so does the
    # helper's, with a positive margin.
    game = DEGENERATE[name]()
    net = TesterNet.build(game, 0.1)
    scale = max(1.0, game.p_max)
    levels = [1e-6, 0.01, 0.3]
    cuts = 0
    for a, value in zip(net.points, net.values):
        M = np.tensordot(a, game.opponent_payoffs, axes=(0, 0))
        y = lp.maximizer_mix(M)
        assert float(np.min(M @ y)) >= value - 1e-7 * max(1.0, abs(value), float(np.max(np.abs(M))))
        ref = lp.zero_sum_value(M)[2]
        for level in levels:
            c = np.full(game.k, value - level * scale)
            try:
                separator_for_thresholds(game, c, ref)
            except CertificateInvalid:
                continue
            assert separator_for_thresholds(game, c, y)[2] > 1e-9
            cuts += 1
    assert cuts > 0


def solve_lp_spy(monkeypatch):
    """Patches lp.solve_lp and lp.maximizer_mix; returns how many solves ran
    inside a certificate, how many outside, and how many mixes were asked."""
    seen = {"certificate": 0, "other": 0, "mixes": 0}
    solve, mix = lp.solve_lp, lp.maximizer_mix

    def spied(program):
        frame, inside = sys._getframe(1), False
        while frame is not None and not inside:
            inside = frame.f_code.co_name == "certificate"
            frame = frame.f_back
        seen["certificate" if inside else "other"] += 1
        return solve(program)

    def counted(M):
        seen["mixes"] += 1
        return mix(M)

    monkeypatch.setattr(lp, "solve_lp", spied)
    monkeypatch.setattr(lp, "maximizer_mix", counted)
    return seen


def test_k2_search_on_three_by_two_solves_no_certificate_by_simplex(monkeypatch):
    game = random_game(np.random.default_rng([9506, 3, 2, 2]), 3, 2, 2)
    seen = solve_lp_spy(monkeypatch)
    res = optimize_general(game, 0.05)
    assert res.converged and res.verdict_approachable
    assert seen["mixes"] >= 20  # refuting directions were certified (54 of them)
    assert seen["certificate"] == 0


def worst_pairs(game):
    """Every type assigned its worst pair: a menu that no learner can force."""
    return CspAssignment(tuple(Csp(np.eye(game.m * game.n)[int(np.argmin(game.u_O(i)))])
                               for i in range(game.k)))


def check_menu(tmp_path, capsys, game):
    (tmp_path / "game.json").write_text(game.to_json())
    (tmp_path / "assign.json").write_text(worst_pairs(game).to_json())
    code = cli.run(["check-menu", "--game", str(tmp_path / "game.json"),
                    "--assignment", str(tmp_path / "assign.json"), "--delta", "0.05"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0 and result["approachable"] is False
    return result


def test_refuted_check_menu_on_two_by_three_solves_no_simplex_for_its_certificate(monkeypatch, tmp_path, capsys):
    game = random_game(np.random.default_rng([9503, 2, 3, 2]), 2, 3, 2)
    seen = solve_lp_spy(monkeypatch)
    result = check_menu(tmp_path, capsys, game)
    assert seen["mixes"] == 1 and seen["certificate"] == 0
    assert sum(result["certificate_y"]) == pytest.approx(1.0, abs=1e-12)


def test_refuted_check_menu_on_three_by_three_still_takes_the_simplex(monkeypatch, tmp_path, capsys):
    game = random_game(np.random.default_rng([9503, 3, 3, 2]), 3, 3, 2)
    seen = solve_lp_spy(monkeypatch)
    check_menu(tmp_path, capsys, game)
    assert seen["mixes"] == 1 and seen["certificate"] == 1


def test_forcing_abort_certificate_on_two_by_three_solves_no_simplex(monkeypatch):
    game = random_game(np.random.default_rng([9000, 2, 3, 2]), 2, 3, 2)
    seen = solve_lp_spy(monkeypatch)
    run = run_blackwell_abort(game, worst_pairs(game), random_adversary, 200, seed=1)
    assert run.aborted_at is not None and run.certificate is not None
    assert seen["mixes"] == 1 and seen["certificate"] == 0
