"""One phase 1 per constraint set, each objective list on its own fork.

`lp.solve_lexicographic_each` runs phase 1 once and each objective list on
a `_Tableau.fork` of the feasible tableau. Every list starts from the basis
that its own `lp.solve_lexicographic` call would reach, so its stages must
match that call byte for byte: status, value, point and dual. The same
holds one level up, where `type_leader_values` shares each follower
column's phase 1 between the types and `stackelberg_leader` solves one.

The games are g1, `random_game(default_rng([2300, m, n, k, s]))` for
m, n in {2, 3, 4}, k <= 3 and s < 6, a game whose learner action 2 is
strictly dominated (its leader program is infeasible for every type, so
they share an infeasible phase 1) and three games scaled by 1e6.
"""

import numpy as np
import pytest

from conftest import G1_UL, G1_UO, random_game, same_bits, scaled, stackelberg_leader
from menuopt import lp, maximin, menus, nr_commitment, stackelberg
from menuopt.core import BimatrixGame
from menuopt.stackelberg import type_leader_values


def games():
    yield "g1", BimatrixGame(G1_UL, ((G1_UO, 1.0),))
    for m in (2, 3, 4):
        for n in (2, 3, 4):
            for k in (1, 2, 3):
                for s in range(6):
                    yield f"{m}{n}{k}-{s}", random_game(np.random.default_rng([2300, m, n, k, s]), m, n, k)
    rng = np.random.default_rng(2301)
    u_L = np.array([[1.0, 2.0], [2.0, 0.5], [0.0, 1.0]])  # row 2 < row 0 everywhere
    yield "dominated", BimatrixGame(u_L, tuple((rng.uniform(-1.0, 1.0, (3, 2)), 1.0 / 3) for _ in range(3)))
    for shape in [(2, 3, 2), (3, 2, 2), (3, 3, 2)]:
        yield f"1e6-{shape}", scaled(random_game(np.random.default_rng([7000, *shape]), *shape), 1e6)


GAMES = dict(games())


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def forked_calls(game):
    """(objective lists, constraints, relax, stages) of every helper call that
    the exact layer's per-type loops make on `game`."""
    calls = []
    each = lp.solve_lexicographic_each

    def spy(objective_lists, constraints, relax=0.0):
        stages = each(objective_lists, constraints, relax)
        calls.append((objective_lists, constraints, relax, stages))
        return stages

    V = float(np.random.default_rng([2302, game.m, game.n, game.k]).uniform(game.u_L.min(), game.u_L.max()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "solve_lexicographic_each", spy)
        type_leader_values(game)
        nr_commitment.nsr_baseline_value(game)
        menus.eval_menu_value(menus.no_regret_menu(game), game, 0.05)
        maximin.threshold_assignment(game, V)
    return calls


@pytest.mark.parametrize("name", list(GAMES))
def test_type_leader_values_match_each_type_solved_alone(name):
    game = GAMES[name]
    together = stackelberg._leaders([game.u_O(i).T for i in range(game.k)], game.u_L.T)
    values, csps = type_leader_values(game)
    for i, res in enumerate(together):
        alone = stackelberg_leader(game.u_O(i).T, game.u_L.T)
        assert bits(res.value) == bits(alone.value) == bits(values[i])
        assert bits(res.leader_mix) == bits(alone.leader_mix)
        assert res.follower_action == alone.follower_action
        assert bits(res.csp.weights) == bits(alone.csp.weights)
        assert bits(csps[i].weights) == bits(alone.csp.weights.reshape(game.n, game.m).T.ravel())


@pytest.mark.parametrize("name", list(GAMES))
def test_forked_stages_match_separate_lexicographic_solves(name):
    calls = forked_calls(GAMES[name])
    if GAMES[name].k > 1:
        assert any(len(lists) > 1 for lists, *_ in calls)
    for objective_lists, constraints, relax, results in calls:
        assert len(results) == len(objective_lists)
        for objectives, stages in zip(objective_lists, results):
            alone = lp.solve_lexicographic(objectives, constraints, relax)
            assert len(stages) == len(alone)
            assert all(same_bits(a, b) for a, b in zip(stages, alone))


def test_a_dominated_follower_column_is_infeasible_for_every_type_at_once():
    infeasible = [stages for lists, _, _, stages in forked_calls(GAMES["dominated"])
                  if all(not s[0].is_optimal for s in stages)]
    assert len(infeasible) == 1
    assert [[s.status for s in stages] for stages in infeasible[0]] == [[lp.INFEASIBLE]] * 3


def nsr_program(game):
    menu = menus.no_swap_regret_menu(game)
    cons = [lp.simplex_row(game.m * game.n)] + [(row, lp.LE, float(b)) for row, b in zip(menu.normals, menu.rhs)]
    lists = [[game.u_O(i).ravel(), game.u_L.ravel()] for i in range(game.k)]
    return lists, cons


def test_forks_give_the_same_bits_in_any_order():
    lists, cons = nsr_program(GAMES["333-0"])
    forward = lp.solve_lexicographic_each(lists, cons, 0.05)
    backward = lp.solve_lexicographic_each(lists[::-1], cons, 0.05)[::-1]
    for a, b in zip(forward, backward):
        assert len(a) == len(b) == 2 and all(same_bits(x, y) for x, y in zip(a, b))


def test_a_fork_leaves_the_base_and_later_forks_as_they_were():
    lists, cons = nsr_program(GAMES["333-0"])
    base = lp._Tableau(*lp._materialize_rows(lp.LinearProgram(lists[0][0], cons))[1:])
    assert base.phase1()
    T, rels, A0, b0 = base.T.copy(), list(base.rels), base.A0.copy(), base.b0.copy()
    first = base.fork()
    top = first.maximize(lists[0][0])
    first.add_ge_row(lists[0][0], top.objective_value - lp.TIE_SLACK)
    assert first.maximize(lists[0][1]).is_optimal and len(first.rels) == len(rels) + 1
    assert bits(base.T) == bits(T) and base.rels == rels
    assert bits(base.A0) == bits(A0) and bits(base.b0) == bits(b0)
    # a fork taken after another fork has added its face row
    second = base.fork()
    objectives = lists[1]
    stages = [second.maximize(objectives[0])]
    second.add_ge_row(objectives[0], stages[0].objective_value - lp.TIE_SLACK)
    stages.append(second.maximize(objectives[1]))
    alone = lp.solve_lexicographic(objectives, cons)
    assert len(alone) == 2 and all(same_bits(a, b) for a, b in zip(stages, alone))
