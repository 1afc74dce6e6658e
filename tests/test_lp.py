import itertools

import numpy as np
import pytest

from menuopt import lp
from menuopt.errors import InvalidInput


def simple(objective, constraints, bounds=None):
    return lp.LinearProgram(np.asarray(objective, float), constraints, bounds)


def test_single_variable_box():
    sol = lp.solve_lp(simple([1.0], [([1.0], lp.LE, 1.0), ([1.0], lp.GE, 0.0)]))
    assert sol.is_optimal
    assert sol.objective_value == pytest.approx(1.0, abs=1e-9)
    assert sol.point[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_box():
    sol = lp.solve_lp(simple([1.0], [([1.0], lp.LE, -1.0), ([1.0], lp.GE, 0.0)]))
    assert sol.status == lp.INFEASIBLE


def test_unbounded():
    sol = lp.solve_lp(simple([1.0], [([1.0], lp.GE, 0.0)]))
    assert sol.status == lp.UNBOUNDED


def brute_force_vertex_optimum(c, rows, rels, rhs):
    """Independent oracle: enumerate all constraint-intersection vertices."""
    c = np.asarray(c, float)
    d = c.size
    A = np.asarray(rows, float)
    b = np.asarray(rhs, float)
    best = None
    for idx in itertools.combinations(range(len(rows)), d):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, b[list(idx)])
        ok = True
        for row, rel, bb in zip(A, rels, b):
            v = row @ x
            if rel == lp.LE and v > bb + 1e-9:
                ok = False
            if rel == lp.GE and v < bb - 1e-9:
                ok = False
            if rel == lp.EQ and abs(v - bb) > 1e-9:
                ok = False
        if ok and (best is None or c @ x > best):
            best = c @ x
    return best


def test_textbook_two_variable_program():
    rows = [[1.0, 0.0], [0.0, 2.0], [3.0, 2.0], [1.0, 0.0], [0.0, 1.0]]
    rels = [lp.LE, lp.LE, lp.LE, lp.GE, lp.GE]
    rhs = [4.0, 12.0, 18.0, 0.0, 0.0]
    cons = list(zip(map(np.array, rows), rels, rhs))
    sol = lp.solve_lp(simple([3.0, 5.0], cons))
    assert sol.is_optimal
    oracle = brute_force_vertex_optimum([3.0, 5.0], rows, rels, rhs)
    assert oracle == pytest.approx(36.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(oracle, abs=1e-8)
    assert np.allclose(sol.point, [2.0, 6.0], atol=1e-8)


def test_bounds_are_materialized():
    sol = lp.solve_lp(simple([1.0, 1.0], [([1.0, 1.0], lp.LE, 3.0)], bounds=[(0.0, 2.0), (0.0, 2.0)]))
    assert sol.is_optimal
    assert sol.objective_value == pytest.approx(3.0, abs=1e-8)
    # dual covers the constraint plus four bound rows
    assert sol.dual.shape == (5,)


def test_nonfinite_input_rejected():
    with pytest.raises(InvalidInput):
        lp.solve_lp(simple([np.inf], [([1.0], lp.LE, 1.0)]))
    with pytest.raises(InvalidInput):
        lp.solve_lp(simple([1.0], [([np.nan], lp.LE, 1.0)]))


def random_feasible_lp(rng, d, extra_rows):
    """Random program guaranteed feasible at a random interior point."""
    x0 = rng.uniform(-1.0, 1.0, size=d)
    rows, rels, rhs = [], [], []
    for _ in range(extra_rows):
        a = rng.uniform(-1.0, 1.0, size=d)
        slack = rng.uniform(0.1, 1.0)
        rows.append(a)
        rels.append(lp.LE)
        rhs.append(float(a @ x0 + slack))
    for j in range(d):  # box to keep it bounded
        e = np.zeros(d)
        e[j] = 1.0
        rows.append(e)
        rels.append(lp.LE)
        rhs.append(float(x0[j] + rng.uniform(0.5, 2.0)))
        rows.append(e.copy())
        rels.append(lp.GE)
        rhs.append(float(x0[j] - rng.uniform(0.5, 2.0)))
    cons = list(zip(rows, rels, rhs))
    c = rng.uniform(-1.0, 1.0, size=d)
    return lp.LinearProgram(c, cons)


def test_duality_gap_on_500_random_programs():
    rng = np.random.default_rng(7)
    for _ in range(500):
        d = int(rng.integers(2, 6))
        prog = random_feasible_lp(rng, d, int(rng.integers(1, 8)))
        sol = lp.solve_lp(prog)
        assert sol.is_optimal
        assert lp.duality_gap(prog, sol) <= 1e-7


def test_against_scipy_on_random_programs():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(2, 5))
        prog = random_feasible_lp(rng, d, int(rng.integers(1, 6)))
        sol = lp.solve_lp(prog)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for row, rel, b in prog.constraints:
            if rel == lp.LE:
                A_ub.append(row)
                b_ub.append(b)
            elif rel == lp.GE:
                A_ub.append(-np.asarray(row))
                b_ub.append(-b)
            else:
                A_eq.append(row)
                b_eq.append(b)
        ref = scipy_opt.linprog(
            -prog.objective,
            A_ub=np.array(A_ub),
            b_ub=np.array(b_ub),
            A_eq=np.array(A_eq) if A_eq else None,
            b_eq=np.array(b_eq) if b_eq else None,
            bounds=[(None, None)] * d,
            method="highs",
        )
        assert ref.success
        assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-7)


def test_zero_sum_matching_pennies():
    value, x, y = lp.zero_sum_value(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert value == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(x, [0.5, 0.5], atol=1e-8)
    assert np.allclose(y, [0.5, 0.5], atol=1e-8)


def test_zero_sum_singleton():
    for c in (-2.5, 0.0, 3.25):
        value, x, y = lp.zero_sum_value(np.array([[c]]))
        assert value == pytest.approx(c, abs=1e-12)


def grid_zero_sum_oracle(M, resolution=1e-3):
    """min over gridded x of max over columns, fully vectorized."""
    steps = int(round(1.0 / resolution))
    t = np.arange(steps + 1) / steps
    if M.shape[0] == 2:
        xs = np.stack([t, 1.0 - t], axis=1)
    elif M.shape[0] == 3:
        a, b = np.meshgrid(t, t)
        keep = a + b <= 1.0 + 1e-12
        xs = np.stack([a[keep], b[keep], 1.0 - a[keep] - b[keep]], axis=1)
    else:
        raise ValueError("oracle supports 2 or 3 rows")
    return float(np.min(np.max(xs @ M, axis=1)))


def test_zero_sum_random_3x3_vs_grid_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = rng.uniform(-1.0, 1.0, size=(3, 3))
        value, _, _ = lp.zero_sum_value(M)
        assert value == pytest.approx(grid_zero_sum_oracle(M), abs=2e-3)


def test_zero_sum_antisymmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        M = rng.uniform(-2.0, 2.0, size=(int(rng.integers(2, 5)), int(rng.integers(2, 5))))
        v1, _, _ = lp.zero_sum_value(M)
        v2, _, _ = lp.zero_sum_value(-M.T)
        assert v1 == pytest.approx(-v2, abs=1e-8)


def test_zero_sum_dominated_row_is_inert():
    rng = np.random.default_rng(9)
    for _ in range(25):
        M = rng.uniform(-1.0, 1.0, size=(3, 3))
        v1, _, _ = lp.zero_sum_value(M)
        dominated = M[0] + rng.uniform(0.1, 1.0)  # worse row for the minimizer
        M2 = np.vstack([M, dominated])
        v2, _, _ = lp.zero_sum_value(M2)
        assert v1 == pytest.approx(v2, abs=1e-8)


def test_batch2_matches_exact_solver():
    rng = np.random.default_rng(13)
    stacks = rng.uniform(-2.0, 2.0, size=(200, 3, 2))
    vals = lp.zero_sum_value_batch2(stacks)
    for i in range(0, 200, 17):
        ref, _, _ = lp.zero_sum_value(stacks[i])
        assert vals[i] == pytest.approx(ref, abs=1e-9)


def test_minmax_rows_by_2_matches_and_certifies():
    rng = np.random.default_rng(17)
    for _ in range(100):
        M = rng.uniform(-1.0, 1.0, size=(int(rng.integers(2, 5)), 2))
        val, x = lp.minmax_rows_by_2(M)
        ref, _, _ = lp.zero_sum_value(M)
        assert val == pytest.approx(ref, abs=1e-9)
        assert float(np.max(x @ M)) == pytest.approx(val, abs=1e-9)


def test_simplex_rows_order_and_block_placement():
    rows = lp.simplex_rows(5, 1, 4)
    assert [rel for _, rel, _ in rows] == [lp.EQ, lp.GE, lp.GE, lp.GE]
    assert [rhs for _, _, rhs in rows] == [1.0, 0.0, 0.0, 0.0]
    assert np.array_equal(rows[0][0], [0, 1, 1, 1, 0])
    for j, (row, _, _) in zip(range(1, 4), rows[1:]):
        assert np.array_equal(row, np.eye(5)[j])
    full = lp.simplex_rows(3)
    assert len(full) == 4
    assert np.array_equal(np.array([row for row, _, _ in full]), np.vstack([np.ones(3), np.eye(3)]))


@pytest.mark.parametrize("relax", [0.0, 0.25])
def test_lexicographic_stage_keeps_relax_plus_tie_slack(relax):
    # stage 1 puts all mass on x0; stage 2 may then move relax + TIE_SLACK
    # of it to x1, and no more
    stages = lp.solve_lexicographic(list(np.eye(2)), lp.simplex_rows(2), relax)
    assert [s.status for s in stages] == [lp.OPTIMAL, lp.OPTIMAL]
    assert stages[0].objective_value == pytest.approx(1.0, abs=1e-15)
    assert stages[1].objective_value == pytest.approx(relax + lp.TIE_SLACK, abs=1e-15)


def test_lexicographic_stops_at_the_first_stage_that_is_not_optimal():
    objectives = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    empty = lp.solve_lexicographic(objectives, lp.simplex_rows(2) + [(np.ones(2), lp.LE, 0.5)])
    assert [s.status for s in empty] == [lp.INFEASIBLE]
    # x1 is free, so the second stage is unbounded and the third never runs
    open_top = lp.solve_lexicographic(objectives, [(np.array([1.0, 0.0]), lp.LE, 1.0)])
    assert [s.status for s in open_top] == [lp.OPTIMAL, lp.UNBOUNDED]


def test_lexicographic_matches_scipy_two_stage_solve():
    scipy_opt = pytest.importorskip("scipy.optimize")

    def highs_max(c, A_ub, b_ub):
        # max c . x over the simplex intersected with A_ub x <= b_ub
        d = c.size
        ref = scipy_opt.linprog(
            -c, A_ub=A_ub, b_ub=b_ub, A_eq=np.ones((1, d)), b_eq=[1.0],
            bounds=[(0, None)] * d, method="highs",
        )
        assert ref.success
        return -ref.fun

    rng = np.random.default_rng(23)
    for trial in range(30):
        d = int(rng.integers(2, 6))
        x0 = rng.dirichlet(np.ones(d))
        normals = rng.uniform(-1.0, 1.0, size=(int(rng.integers(0, 4)), d))
        rhs = normals @ x0 + rng.uniform(0.0, 0.3, size=len(normals))
        first, second = rng.uniform(-1.0, 1.0, size=(2, d))
        relax = [0.0, 0.05][trial % 2]
        cons = lp.simplex_rows(d) + [(a, lp.LE, float(b)) for a, b in zip(normals, rhs)]
        stages = lp.solve_lexicographic([first, second], cons, relax)
        top = highs_max(first, normals, rhs)
        floor = top - relax - lp.TIE_SLACK  # second stage keeps first . x >= floor
        tie = highs_max(second, np.vstack([normals, -first]), np.append(rhs, -floor))
        assert [s.objective_value for s in stages] == pytest.approx([top, tie], abs=1e-7)
