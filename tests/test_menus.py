import numpy as np
import pytest

from conftest import incentive_check, random_csp, random_game
from menuopt import lp
from menuopt.core import BimatrixGame, Csp, CspAssignment, bilinear_value
from menuopt.errors import EmptyMenu
from menuopt.menus import (
    HalfspaceMenu,
    candidate_menu,
    menu_violation,
    no_regret_check,
    no_regret_menu,
    no_swap_regret_check,
    no_swap_regret_menu,
    response_satisfiable_at,
    type_picks,
)
from menuopt.stackelberg import type_leader_values


def half_cr_half_as():
    return Csp.mix([(0.5, Csp.point_mass(2, 0, 3, 2)), (0.5, Csp.point_mass(0, 1, 3, 2))])


def test_no_regret_menu_shape(g1):
    menu = no_regret_menu(g1)
    assert menu.n_constraints == g1.m
    assert menu.dim == 6


def test_no_regret_accepts_mixture_with_slack(g1):
    phi = half_cr_half_as()
    assert no_regret_check(phi, g1)
    # value 5 vs the best deviation (row B) worth 4.6
    dev = max(
        float(g1.u_L[i] @ phi.weights.reshape(3, 2).sum(axis=0)) for i in range(3)
    )
    assert dev == pytest.approx(4.6)
    assert bilinear_value(g1.u_L, phi) == pytest.approx(5.0)


def test_no_regret_accepts_stackelberg_csp(g1):
    _, csps = type_leader_values(g1)
    assert no_regret_check(csps[0], g1)


def test_no_regret_rejects_ar_point_mass(g1):
    phi = Csp.point_mass(0, 0, 3, 2)  # (A, R) pays 0; switching to B pays 7.1
    assert not no_regret_check(phi, g1)
    gains = no_regret_menu(g1).normals @ phi.weights
    assert np.max(gains) == pytest.approx(7.1)


def test_no_swap_regret_menu_shape(g1):
    assert no_swap_regret_menu(g1).n_constraints == g1.m * (g1.m - 1)


def test_no_swap_regret_rejects_mixture(g1):
    phi = half_cr_half_as()
    assert not no_swap_regret_check(phi, g1)
    # swapping C -> B trades 3.5 for 3.55 on the C rounds
    kept = 0.5 * g1.u_L[2, 0]
    swapped = 0.5 * g1.u_L[1, 0]
    assert (kept, swapped) == (pytest.approx(3.5), pytest.approx(3.55))


def test_no_swap_regret_accepts_stackelberg_csp(g1):
    _, csps = type_leader_values(g1)
    assert no_swap_regret_check(csps[0], g1)


def test_no_swap_regret_uniform_constant_learner():
    game = BimatrixGame(np.full((3, 2), 1.25), ((np.zeros((3, 2)), 1.0),))
    assert no_swap_regret_check(Csp.uniform(3, 2), game)


def test_swap_implies_external_regret():
    rng = np.random.default_rng(4)
    for _ in range(5):
        game = random_game(rng, 3, 3, 1)
        for _ in range(1000):
            phi = random_csp(rng, 9)
            if no_swap_regret_check(phi, game, tol=1e-9):
                assert no_regret_check(phi, game, tol=1e-9)
        # best-response products always pass the stronger check; use them
        # (and mixtures of them) for non-vacuous coverage of the implication
        verts = []
        for _ in range(20):
            y = rng.dirichlet(np.ones(3))
            x = np.zeros(3)
            x[int(np.argmax(game.u_L @ y))] = 1.0
            verts.append(Csp.outer(x, y))
        for phi in verts:
            assert no_swap_regret_check(phi, game)
            assert no_regret_check(phi, game)
        lam = rng.dirichlet(np.ones(len(verts)))
        mixed = Csp.mix(list(zip(lam, verts)))
        assert no_swap_regret_check(mixed, game)
        assert no_regret_check(mixed, game)


def per_type_argmax_assignment(game):
    profiles = []
    for i in range(game.k):
        j = int(np.argmax(game.u_O(i).ravel()))
        w = np.zeros(game.m * game.n)
        w[j] = 1.0
        profiles.append(Csp(w))
    return CspAssignment(tuple(profiles))


def test_candidate_menu_of_argmax_assignment_is_everything():
    rng = np.random.default_rng(5)
    for _ in range(10):
        game = random_game(rng, 2, 3, 2)
        menu = candidate_menu(per_type_argmax_assignment(game), 0.0, game)
        for _ in range(50):
            assert menu_violation(random_csp(rng, 6), menu) <= 1e-12


def test_candidate_menu_vacuous_at_two_pmax(g1):
    rng = np.random.default_rng(6)
    assign = CspAssignment((random_csp(rng, 6),))
    menu = candidate_menu(assign, 2.0 * g1.p_max, g1)
    for _ in range(100):
        assert menu_violation(random_csp(rng, 6), menu) == 0.0


def test_candidate_menu_g1_threshold_two(g1):
    menu = candidate_menu(CspAssignment((half_cr_half_as(),)), 0.0, g1)
    assert menu.n_constraints == 1
    assert menu.rhs[0] == pytest.approx(2.0)
    assert np.allclose(menu.normals[0], g1.u_O(0).ravel())


def test_candidate_menu_nested_in_eps(g1):
    rng = np.random.default_rng(7)
    assign = CspAssignment((random_csp(rng, 6),))
    small = candidate_menu(assign, 0.1, g1)
    large = candidate_menu(assign, 0.5, g1)
    for _ in range(200):
        phi = random_csp(rng, 6)
        if menu_violation(phi, small) == 0.0:
            assert menu_violation(phi, large) == 0.0


def test_incentive_check_k1_always_true(g1):
    rng = np.random.default_rng(8)
    for _ in range(20):
        assert incentive_check(CspAssignment((random_csp(rng, 6),)), g1)


def test_incentive_check_argmax_assignment_true():
    rng = np.random.default_rng(9)
    for _ in range(20):
        game = random_game(rng, 2, 2, 2)
        assert incentive_check(per_type_argmax_assignment(game), game)


def test_incentive_check_adversarial_false():
    rng = np.random.default_rng(10)
    game = random_game(rng, 2, 2, 2)
    u2 = game.u_O(1).ravel()
    best = np.zeros(4)
    best[int(np.argmax(u2))] = 1.0
    worst = np.zeros(4)
    worst[int(np.argmin(u2))] = 1.0
    # type 1 is assigned the second type's worst point while type 2's
    # favorite goes to type 1: type 2 must envy
    assign = CspAssignment((Csp(best), Csp(worst)))
    assert not incentive_check(assign, game)


def test_response_satisfiable_unconstrained(g1):
    menu = HalfspaceMenu.unconstrained(6)
    for y in (np.array([1.0, 0.0]), np.array([0.3, 0.7])):
        assert response_satisfiable_at(menu, y, g1) is not None


def test_response_satisfiable_nsr_pure_s_forces_top_row(g1):
    x = response_satisfiable_at(no_swap_regret_menu(g1), np.array([0.0, 1.0]), g1)
    assert x is not None
    assert np.allclose(x, [1.0, 0.0, 0.0], atol=1e-8)


def test_response_satisfiable_empty_menu(g1):
    floor = float(np.min(g1.u_O(0))) - 1.0
    menu = HalfspaceMenu(g1.u_O(0).ravel()[None, :], np.array([floor]))
    for y in (np.array([1.0, 0.0]), np.array([0.5, 0.5])):
        assert response_satisfiable_at(menu, y, g1) is None


def test_response_satisfiable_misses_by_less_than_old_phase_one_slack():
    # x = 1 is forced, and the menu row asks x <= 1 - 2**-24: infeasible by
    # 6e-8, which the solve must report as infeasible rather than raise on
    game = BimatrixGame(np.zeros((1, 2)), ((np.array([[1.0, 0.0]]), 1.0),))
    assign = CspAssignment((Csp(np.array([1.0 - 2.0**-24, 2.0**-24])),))
    menu = candidate_menu(assign, 0.0, game)
    assert response_satisfiable_at(menu, np.array([1.0, 0.0]), game) is None


def test_response_satisfiability_upward_closed():
    rng = np.random.default_rng(11)
    for _ in range(10):
        game = random_game(rng, 3, 2, 2)
        assign = CspAssignment(tuple(random_csp(rng, 6) for _ in range(2)))
        tight = candidate_menu(assign, 0.0, game)
        loose = tight.relaxed(float(rng.uniform(0.05, 0.5)))
        for _ in range(10):
            y = rng.dirichlet(np.ones(2))
            if response_satisfiable_at(tight, y, game) is not None:
                assert response_satisfiable_at(loose, y, game) is not None


def test_nsr_menu_response_satisfiable_on_grid(g1):
    rng = np.random.default_rng(12)
    games = [g1] + [random_game(rng, 2, 2, 1) for _ in range(3)]
    for game in games:
        menu = no_swap_regret_menu(game)
        for t in np.arange(0.0, 1.0 + 1e-9, 0.05):
            y = np.array([t, 1.0 - t])
            assert response_satisfiable_at(menu, y, game) is not None


def test_menu_violation_inside_is_zero(g1):
    menu = candidate_menu(CspAssignment((half_cr_half_as(),)), 0.0, g1)
    assert menu_violation(Csp.point_mass(0, 1, 3, 2), menu) == 0.0  # u_O = 1 <= 2


def test_menu_violation_arithmetic(g1):
    menu = HalfspaceMenu(g1.u_O(0).ravel()[None, :], np.array([2.0]))
    assert menu_violation(Csp.point_mass(2, 0, 3, 2), menu) == pytest.approx(1.0)


def test_menu_violation_matches_bruteforce():
    rng = np.random.default_rng(13)
    for _ in range(50):
        normals = rng.uniform(-1, 1, size=(4, 6))
        rhs = rng.uniform(-0.5, 0.5, size=4)
        menu = HalfspaceMenu(normals, rhs)
        phi = random_csp(rng, 6)
        brute = max(0.0, max(float(n @ phi.weights - r) for n, r in zip(normals, rhs)))
        assert menu_violation(phi, menu) == pytest.approx(brute, abs=1e-12)


def test_menu_json_round_trip(g1):
    menu = candidate_menu(CspAssignment((half_cr_half_as(),)), 0.25, g1)
    back = HalfspaceMenu.from_json(menu.to_json())
    assert np.allclose(back.normals, menu.normals)
    assert np.allclose(back.rhs, menu.rhs)


def test_utility_set_thresholds(g1):
    menu = candidate_menu(CspAssignment((half_cr_half_as(),)), 0.5, g1)
    assert menu.rhs[0] == pytest.approx(2.5)

    def worth(u):  # a (C,R)/(A,S) mix the type values at u
        a = (u - 1.0) / 2.0
        return Csp.mix([(a, Csp.point_mass(2, 0, 3, 2)), (1.0 - a, Csp.point_mass(0, 1, 3, 2))])

    assert menu_violation(worth(2.5), menu) == 0.0
    assert menu_violation(worth(2.6), menu) > 0.0


def test_type_picks_raises_empty_menu_when_no_point_meets_the_rows():
    rows = [lp.simplex_row(2), (np.ones(2), lp.LE, 0.5)]
    with pytest.raises(EmptyMenu):
        type_picks(rows, [np.array([1.0, 0.0])], np.array([0.0, 1.0]))


@pytest.mark.parametrize("relax", [0.0, 0.2, 0.5])
def test_type_picks_gives_the_learner_its_best_point_near_the_type_top(relax):
    # Type 0 tops out at 1 on e0; among points with x0 + x1/2 >= 1 - relax -
    # TIE_SLACK the learner's best puts all the slack on x2. Type 1 tops out
    # at e2, where the learner gets 1 as well.
    types = [np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.0, 1.0])]
    first, second = type_picks([lp.simplex_row(3)], types, np.array([0.0, 0.0, 1.0]), relax)
    slack = relax + lp.TIE_SLACK
    assert first.point == pytest.approx([1.0 - slack, 0.0, slack], abs=1e-12)
    assert first.objective_value == pytest.approx(slack, abs=1e-12)
    assert second.point == pytest.approx([0.0, 0.0, 1.0], abs=1e-12)
