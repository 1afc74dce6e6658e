import numpy as np
import pytest

from conftest import random_csp, random_game, scaled
from menuopt import lp
from menuopt.approachability import simplex_lattice, test_assignment_valid
from menuopt.core import BimatrixGame, Csp, CspAssignment
from menuopt.errors import EmptyMenu, InvalidInput, NumericalFailure
from menuopt.general_commitment import optimize_general
from menuopt.menus import HalfspaceMenu, eval_menu_value, incentive_check, no_regret_menu, no_swap_regret_menu
from menuopt.nr_commitment import nsr_baseline_value, optimal_no_regret_commitment


def lattice_general_opt_k1(game, resolution):
    """Independent k=1 oracle: best lattice profile whose own-threshold
    candidate menu is response-satisfiable, i.e. u_O(phi) >= the
    opponent-forceable cap max_y min_x u_O."""
    cap = -lp.zero_sum_value(-game.u_O(0).T)[0]  # max_y min_x u_O
    pts = simplex_lattice(game.m * game.n, int(round(1.0 / resolution)))
    vals_o = pts @ game.u_O(0).ravel()
    ok = vals_o >= cap - 1e-9
    if not np.any(ok):
        return None
    return float(np.max(pts[ok] @ game.u_L.ravel()))


def test_eval_menu_value_full_simplex_unique_argmax():
    rng = np.random.default_rng(70)
    for _ in range(10):
        game = random_game(rng, 2, 2, 1)
        u = game.u_O(0).ravel()
        if np.sum(np.isclose(u, np.max(u))) != 1:
            continue
        menu = HalfspaceMenu.unconstrained(4)
        got = eval_menu_value(menu, game, 0.0)
        assert got == pytest.approx(float(game.u_L.ravel()[int(np.argmax(u))]), abs=1e-7)


def test_eval_menu_value_nsr_equals_baseline(g1):
    rng = np.random.default_rng(71)
    games = [g1] + [random_game(rng, 2, 2, 2) for _ in range(5)]
    for game in games:
        menu = no_swap_regret_menu(game)
        assert eval_menu_value(menu, game, 0.0) == pytest.approx(
            nsr_baseline_value(game), abs=1e-6
        )


def test_eval_menu_value_empty_menu_raises(g1):
    floor = float(np.min(g1.u_O(0))) - 1.0
    menu = HalfspaceMenu(g1.u_O(0).ravel()[None, :], np.array([floor]))
    with pytest.raises(EmptyMenu):
        eval_menu_value(menu, g1, 0.0)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_eval_menu_value_is_finite_or_raises(eps):
    # 5x3 k=3: the LP kernel once called the tie-breaking stage infeasible
    # on this game; it now reads 0.402014031310 at eps = 0 and
    # 0.451471719106 at eps = 0.05. A failed stage must be an error, never NaN
    rng = np.random.default_rng([10072])
    m, n = rng.integers(2, 7, size=2)
    game = random_game(rng, int(m), int(n), int(rng.integers(1, 4)))
    assert (game.m, game.n, game.k) == (5, 3, 3)
    try:
        value = eval_menu_value(no_regret_menu(game), game, eps)
    except NumericalFailure:
        return
    assert np.isfinite(value)


def test_g1_general_beats_no_regret_minus_eps(g1):
    res = optimize_general(g1, eps=0.05)
    assert res.converged
    assert res.verdict_approachable
    nr = optimal_no_regret_commitment(g1)
    assert res.value_lower_bound >= nr.value - 0.05
    # the fixture's unconstrained optimum mixes (C,R) and (B,R) for 7.075
    assert res.value_lower_bound >= 7.075 - 0.05 - 1e-6
    assert res.value_lower_bound >= 4.95
    # the emitted menu supports the bound under eps-tie-breaking
    assert eval_menu_value(res.menu, g1, 0.05) >= res.value_lower_bound - 1e-6


def test_aligned_interests_reach_max_entry():
    rng = np.random.default_rng(72)
    for _ in range(5):
        u = rng.uniform(-1, 1, size=(2, 2))
        game = BimatrixGame(u, ((u.copy(), 1.0),))
        res = optimize_general(game, eps=0.05)
        assert res.converged
        assert res.value_lower_bound >= float(np.max(u)) - 0.05


def test_tiny_k1_games_dominate_lattice_oracle():
    rng = np.random.default_rng(73)
    done = 0
    for _ in range(12):
        game = random_game(rng, 2, 2, 1)
        oracle = lattice_general_opt_k1(game, 0.05)
        if oracle is None:
            continue
        done += 1
        res = optimize_general(game, eps=0.05)
        assert res.converged
        assert res.value_lower_bound >= oracle - 0.05 - 1e-6
    assert done >= 8


def test_every_separating_cut_has_positive_margin(g1):
    cuts = []

    def record(center, normal, offset, margin):
        cuts.append((center, normal, offset, margin))

    optimize_general(g1, eps=0.05, on_cut=record)
    for center, normal, offset, margin in cuts:
        assert margin > 0
        assert float(normal @ center) == pytest.approx(offset, abs=1e-7)


def test_output_incentive_slack():
    rng = np.random.default_rng(74)
    for _ in range(5):
        game = random_game(rng, 2, 2, 2)
        eps = 0.05
        res = optimize_general(game, eps=eps)
        slack = 4.0 * eps * np.sqrt(game.m * game.n) * game.p_max
        assert incentive_check(res.assignment, game, slack=slack)


def test_s_convexity_at_tester_granularity():
    # profitable pairs both certified at delta stay certified for every
    # sampled convex combination at 2 * delta
    rng = np.random.default_rng(75)
    delta = 0.05
    pairs = 0
    while pairs < 50:
        game = random_game(rng, 2, 2, 2)
        a1 = CspAssignment(tuple(random_csp(rng, 4) for _ in range(2)))
        a2 = CspAssignment(tuple(random_csp(rng, 4) for _ in range(2)))
        v1 = test_assignment_valid(a1, game, delta)
        v2 = test_assignment_valid(a2, game, delta)
        if not (v1.approachable and v2.approachable):
            continue
        pairs += 1
        for lam in rng.uniform(0.0, 1.0, size=3):
            mix = CspAssignment(
                tuple(
                    Csp(lam * a1[i].weights + (1 - lam) * a2[i].weights)
                    for i in range(2)
                )
            )
            assert test_assignment_valid(mix, game, 2 * delta).approachable


def test_iteration_cap_returns_flagged_best_so_far(g1):
    res = optimize_general(g1, eps=0.05, max_iters=3)
    assert not res.converged
    assert res.iterations == 3
    assert res.verdict_approachable  # fallback assignment is always valid
    assert np.isfinite(res.value_lower_bound)


def test_delta_must_respect_eps(g1):
    with pytest.raises(InvalidInput):
        optimize_general(g1, eps=0.05, delta=0.05)


# the bound is relative, so it holds at every scale of eps
def test_delta_of_exactly_eps_over_4_is_accepted(g1):
    res = optimize_general(g1, eps=0.05, delta=0.05 / 4.0, max_iters=5)
    assert res.iterations <= 5


@pytest.mark.parametrize("eps,delta", [(0.05, 1.000001 * 0.05 / 4.0), (4e-12, 1.9e-12)])
def test_delta_just_above_eps_over_4_is_refused(g1, eps, delta):
    with pytest.raises(InvalidInput, match="delta must be at most eps/4"):
        optimize_general(g1, eps=eps, delta=delta)


# at payoffs of order 1e300, a @ P @ a overflows to inf; the search must
# stop there instead of iterating on NaN centres until its cap
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_ellipsoid_raises(g1):
    with pytest.raises(NumericalFailure, match="ellipsoid collapsed"):
        optimize_general(scaled(g1, 1e300), eps=0.05e300)


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"eps": np.nan}, "eps must be"),
        ({"eps": np.inf}, "eps must be"),
        ({"eps": 0.05, "delta": np.nan}, "delta must be"),
        ({"eps": 0.05, "max_iters": 0}, "max_iters"),
        ({"eps": 0.05, "max_iters": -3}, "max_iters"),
    ],
)
def test_unusable_inputs_are_rejected(g1, kwargs, message):
    with pytest.raises(InvalidInput, match=message):
        optimize_general(g1, **kwargs)


def test_menu_contains_extra_points(g1):
    res = optimize_general(g1, eps=0.05)
    from menuopt.menus import menu_violation

    for p in res.extra_points:
        assert menu_violation(p, res.menu) <= 1e-9
