"""Warm-started lexicographic stages against the cold loop they replaced.

`lp.solve_lexicographic` solves stage 1 as `solve_lp` does, then appends
each face row obj . x >= value - relax - TIE_SLACK to its tableau and runs
phase 2 from the last optimum. `lp.solve_lexicographic_each` does so for
several objective lists on forks of one phase 1; `solve_lexicographic` is
its one-list case. `cold_stages` is the loop they replaced, kept here as
the reference: one `solve_lp` per stage on the constraints and the face
rows so far. The programs are the objective lists the solvers hand to
`solve_lexicographic_each`, directly or through `solve_lexicographic`, on
seeded games, each list recorded as its own program: `commit-nr` programs
and the Stackelberg leader LPs they start from (one single-stage list per
type and follower column), menu values with and without relax, threshold
assignments, `simulate`'s hull pick of every type on the `commit-nr` menu
and extra points (the lifted program of
`playback.optimizer_best_response_policy`) and separator refinements at
k = 3. Each is solved both ways, and each later stage also by scipy's HiGHS
on the same program: the constraints plus the face rows at the stage values
found before it.

Stage 1 is bit-identical: status, point, value and dual. A later stage may
end at another vertex of its optimal face, so only its status and value are
compared, to 1e-8 * scale, where scale is `lp._scale` of the stage's right
sides and objective, the unit of the kernel's own tolerances.
"""

import numpy as np
import pytest

from conftest import random_game, same_bits, scaled
from menuopt import approachability, lp, maximin, menus, nr_commitment, playback
from menuopt.errors import NumericalFailure

scipy_opt = pytest.importorskip("scipy.optimize")

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
SHAPES = [(2, 2, 1), (2, 3, 2), (3, 2, 2), (3, 3, 2), (2, 2, 3), (3, 3, 3), (4, 3, 2)]
SEEDS = range(8)


def cold_stages(objectives, constraints, relax=0.0):
    cons = list(constraints)
    stages = []
    for obj in objectives:
        sol = lp.solve_lp(lp.LinearProgram(obj, cons))
        stages.append(sol)
        if not sol.is_optimal:
            break
        cons.append((obj, lp.GE, sol.objective_value - relax - lp.TIE_SLACK))
    return stages


def record_programs(calls):
    """(objectives, constraints, relax) of every objective list that `calls` solve."""
    seen = []
    warm = lp.solve_lexicographic_each

    def spy(objective_lists, constraints, relax=0.0):
        objective_lists = list(objective_lists)
        for objs in objective_lists:
            seen.append(([np.array(o, dtype=float) for o in objs], list(constraints), relax))
        return warm(objective_lists, constraints, relax)

    with pytest.MonkeyPatch.context() as mp:
        # `solve_lexicographic` calls the helper by its module name, so this records it too
        mp.setattr(lp, "solve_lexicographic_each", spy)
        for call in calls:
            call()
    return seen


def commit_nr_and_hull_picks(game):
    res = nr_commitment.optimal_no_regret_commitment(game)
    for i in range(game.k):
        playback.optimizer_best_response_policy(res.nsr_menu, res.extra_points, game.u_O(i), game.u_L, game)


def solver_calls(game, rng):
    V = float(rng.uniform(np.min(game.u_L), np.max(game.u_L)))
    calls = [
        lambda: commit_nr_and_hull_picks(game),
        lambda: nr_commitment.nsr_baseline_value(game),
        lambda: menus.eval_menu_value(menus.no_regret_menu(game), game, 0.05),
        lambda: maximin.threshold_assignment(game, V),
    ]
    if game.k == 3:
        G = rng.uniform(-1.0, 1.0, size=(3, game.m))
        calls.append(lambda: approachability._lexicographic_h(G, -lp.zero_sum_value(-G)[0]))
    return calls


@pytest.fixture(scope="module")
def programs():
    calls = []
    for m, n, k in SHAPES:
        for s in SEEDS:
            game = random_game(np.random.default_rng([1800, m, n, k, s]), m, n, k)
            calls += solver_calls(game, np.random.default_rng([1801, m, n, k, s]))
    # payoff scale 1e6
    for shape in [(2, 3, 2), (3, 2, 2), (3, 3, 2)]:
        game = scaled(random_game(np.random.default_rng([7000, *shape]), *shape), 1e6)
        calls += solver_calls(game, np.random.default_rng([1802, *shape]))
    return record_programs(calls)


def highs_max(obj, constraints):
    """max obj . x over x >= 0 and the rows, or None when infeasible or unbounded."""
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, rel, b in constraints:
        sign = -1.0 if rel == lp.GE else 1.0
        (A_eq if rel == lp.EQ else A_ub).append(sign * np.asarray(row, dtype=float))
        (b_eq if rel == lp.EQ else b_ub).append(sign * b)
    res = scipy_opt.linprog(
        -np.asarray(obj), A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
        A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
        bounds=(0, None), method="highs", options=_HIGHS,
    )
    return -res.fun if res.status == 0 else None


def check_against_references(objectives, constraints, relax, highs=True):
    """Largest stage >= 2 value gap, per scale, to the cold loop and to HiGHS.

    Returns (gap, cold loop failed). Where a later stage of the cold loop
    raises `NumericalFailure` and the warm stage solves, HiGHS alone checks it.
    """
    warm = lp.solve_lexicographic(objectives, constraints, relax)
    assert same_bits(warm[0], lp.solve_lp(lp.LinearProgram(objectives[0], constraints)))
    try:
        cold = cold_stages(objectives, constraints, relax)
    except NumericalFailure:
        cold = None
    else:
        assert [s.status for s in warm] == [s.status for s in cold]
    cons, worst = list(constraints), 0.0
    for j in range(1, len(warm)):
        cons.append((objectives[j - 1], lp.GE, warm[j - 1].objective_value - relax - lp.TIE_SLACK))
        if not warm[j].is_optimal:
            continue
        refs = [] if cold is None else [cold[j].objective_value]
        if highs:
            refs.append(highs_max(objectives[j], cons))
            assert refs[-1] is not None
        scale = lp._scale(np.array([b for *_, b in cons]), objectives[j])
        worst = max([worst] + [abs(warm[j].objective_value - ref) / scale for ref in refs])
    return worst, cold is None


def test_recorded_programs_match_the_cold_loop_and_highs(programs):
    assert len(programs) >= 300
    relaxed = sum(relax > 0 for *_, relax in programs)
    three_stage = sum(len(objs) == 3 for objs, *_ in programs)
    assert relaxed >= 50 and three_stage >= 15
    gaps, cold_failed = zip(*(check_against_references(*prog) for prog in programs))
    assert max(gaps) <= 1e-8
    assert sum(cold_failed) <= 1  # a singular basis in the cold loop; the warm stages solve it


def test_redundant_equality_row_is_dropped_in_phase_1():
    # the simplex row twice: phase 1 cannot pivot its second artificial out
    cons = [lp.simplex_row(3), lp.simplex_row(3), (np.array([1.0, 0.0, 0.0]), lp.LE, 0.6)]
    tableau = lp._Tableau(*lp._materialize_rows(lp.LinearProgram(np.ones(3), cons))[1:])
    assert tableau.phase1() and tableau.keep.sum() == 2
    objectives = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])]
    assert check_against_references(objectives, cons, 0.0)[0] <= 1e-8
    dual = lp.solve_lexicographic(objectives, cons)[-1].dual
    assert dual.size == 5 and np.all(dual[np.flatnonzero(~tableau.keep)] == 0.0)


def test_face_row_with_a_negative_right_side():
    # stage 1 has value -0.2, so the cold loop flips the face row's sign
    cons = [lp.simplex_row(3), (np.array([0.0, 0.0, 1.0]), lp.LE, 0.5)]
    objectives = [np.array([-1.0, -0.2, -1.0]), np.array([0.0, 0.0, 1.0])]
    for relax in (0.0, 0.3):
        assert check_against_references(objectives, cons, relax)[0] <= 1e-8
        face = lp.solve_lexicographic(objectives, cons, relax)[1]
        # the face row binds at x2 = (relax + TIE_SLACK) / 0.8, with its dual <= 0
        assert face.point[2] == pytest.approx(min(0.5, (relax + lp.TIE_SLACK) / 0.8), abs=1e-12)
        assert face.dual[-1] <= 0.0


def test_negative_surplus_is_set_to_zero():
    # At payoff scale 1e8 the stage-1 value's last bits exceed TIE_SLACK, and
    # the face row written in the optimal basis reads a surplus below 0.
    surplus = []
    add = lp._Tableau.add_ge_row

    def spy(tableau, row, rhs):
        surplus.append(float(tableau._std(row)[tableau.basis] @ tableau.T[:-1, -1]) - rhs)
        return add(tableau, row, rhs)

    game = scaled(random_game(np.random.default_rng([50, 3, 2, 1]), 3, 2, 1), 1e8)
    # the last program is the commitment's; the leader LPs come before it
    prog = record_programs([lambda: nr_commitment.optimal_no_regret_commitment(game)])[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp._Tableau, "add_ge_row", spy)
        # HiGHS's absolute tolerances cannot be met at this scale
        gap, cold_failed = check_against_references(*prog, highs=False)
    assert gap <= 1e-8 and not cold_failed and surplus[0] < 0.0


def test_face_row_above_the_optimum_is_clamped_to_zero_surplus():
    # A face row written 1e-12 above the optimum of 11 (x = (3, 1)) has a
    # negative surplus whatever basis the pivot rule ends in.
    obj = np.array([3.0, 2.0])
    cons = [(np.array(row), lp.LE, b) for row, b in (([1.0, 1.0], 4.0), ([1.0, 3.0], 6.0), ([1.0, 0.0], 3.0))]
    tableau = lp._Tableau(*lp._materialize_rows(lp.LinearProgram(obj, cons))[1:])
    assert tableau.phase1()
    first = tableau.maximize(obj)
    assert first.is_optimal and first.objective_value == 11.0
    tableau.add_ge_row(obj, first.objective_value + 1e-12)
    assert np.float64(tableau.T[-2, -1]).tobytes() == np.float64(0.0).tobytes()
    second = tableau.maximize(np.array([0.0, 1.0]))
    assert second.is_optimal
    assert second.point.tolist() == pytest.approx([3.0, 1.0], abs=1e-12)


def test_list_ends_at_the_first_stage_that_is_not_optimal():
    objectives = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    # stage 2 is unbounded (x1 has no upper row); infeasible from stage 1
    for cons in ([(np.array([1.0, 0.0]), lp.LE, 1.0)], [lp.simplex_row(2), (np.ones(2), lp.LE, 0.5)]):
        warm = lp.solve_lexicographic(objectives, cons)
        assert len(warm) < len(objectives)
        assert check_against_references(objectives, cons, 0.0)[0] <= 1e-8
