import itertools
from fractions import Fraction

import numpy as np
import pytest

from menuopt import lp
from menuopt.errors import InvalidInput, NumericalFailure

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # hypothesis is a test extra; its property test is skipped without it
    given = None


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
    # dual covers the constraint plus the two upper-bound rows; a lower
    # bound of 0 is the variables' own domain and costs no row
    assert sol.dual.shape == (3,)


def test_nonfinite_input_rejected():
    with pytest.raises(InvalidInput):
        lp.solve_lp(simple([np.inf], [([1.0], lp.LE, 1.0)]))
    with pytest.raises(InvalidInput):
        lp.solve_lp(simple([1.0], [([np.nan], lp.LE, 1.0)]))


def random_feasible_lp(rng, d, extra_rows):
    """Random program over free variables, feasible at a random interior point."""
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
    return lp.LinearProgram(c, cons, [(None, None)] * d)


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


def test_zero_sum_entry_below_pivot_tolerance_scale():
    # [[0, a], [a, e]] has value a^2 / (2a - e); phase 1 can end "unbounded"
    # here on a reduced cost of a few 1e-9, which must not read as infeasible
    a, e = 1.0 / 3.0, 3.3e-8
    value, x, y = lp.zero_sum_value(np.array([[0.0, a], [a, e]]))
    assert value == pytest.approx(a * a / (2 * a - e), abs=1e-9)
    assert np.allclose(x, [(a - e) / (2 * a - e), a / (2 * a - e)], atol=1e-9)
    assert np.allclose(y, x, atol=1e-9)


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


def exact_minmax_2_by_cols(M):
    """Exact value of the 2 x n game M and the interval [lo, hi] of optimal t.

    f(t) = max_j (t M[0,j] + (1 - t) M[1,j]) is convex and piecewise linear,
    so its minimum and both ends of its argmin lie in {0, 1} and the column
    crossings; every entry is converted to a Fraction exactly.
    """
    cols = [(Fraction(a), Fraction(b)) for a, b in np.asarray(M, dtype=float).T.tolist()]

    def f(t):
        return max(t * a + (1 - t) * b for a, b in cols)

    ts = {Fraction(0), Fraction(1)}
    for (aj, bj), (al, bl) in itertools.combinations(cols, 2):
        den = (aj - bj) - (al - bl)
        if den != 0 and 0 < (bl - bj) / den < 1:
            ts.add((bl - bj) / den)
    value = min(f(t) for t in ts)
    argmin = [t for t in ts if f(t) == value]
    return value, min(argmin), max(argmin)


def check_minmax_2_by_cols(M, tol=1e-12):
    """The closed form's value and x against exact arithmetic; returns them."""
    val, x = lp.minmax_2_by_cols(M)
    assert type(val) is float and x.shape == (2,)
    assert x[0] + x[1] == pytest.approx(1.0, abs=1e-15) and np.all(x >= 0.0)
    # the value is the payoff x caps every column at, computed as the solver does
    assert val == max(x[0] * a + x[1] * b for a, b in M.T.tolist())
    assert float(np.max(x @ M)) == pytest.approx(val, rel=0, abs=1e-15)
    value, lo, hi = exact_minmax_2_by_cols(M)
    assert abs(Fraction(val) - value) <= tol
    # x is optimal, up to the slopes within 1e-14 that the solver does not cross
    assert abs(max(Fraction(x[0]) * a + Fraction(x[1]) * b for a, b in M.T.tolist()) - value) <= tol
    return val, x, (lo, hi)


@pytest.mark.parametrize("n", range(1, 7))
def test_minmax_2_by_cols_matches_exact_and_simplex(n):
    rng = np.random.default_rng([19, n])
    games = [rng.uniform(-1.0, 1.0, size=(2, n)) for _ in range(40)]
    # small integer payoffs: ties, equal slopes and duplicate columns
    games += [rng.integers(-2, 3, size=(2, n)).astype(float) for _ in range(40)]
    for M in games:
        val, x, (lo, hi) = check_minmax_2_by_cols(M)
        assert lo - 1e-12 <= Fraction(x[0]) <= hi + 1e-12
        ref, ref_x, _ = lp.zero_sum_value(M)
        assert val == pytest.approx(ref, abs=1e-12)
        if lo == hi:
            assert np.allclose(x, ref_x, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "M, value, x",
    [
        # constant matrix: the tie rule keeps the first pure row
        ([[0.5, 0.5, 0.5], [0.5, 0.5, 0.5]], 0.5, [1.0, 0.0]),
        # duplicate columns: the same answer as matching pennies
        ([[1.0, -1.0, 1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]], 0.0, [0.5, 0.5]),
        # equal slopes: parallel lines never cross, so the lower row wins
        ([[1.0, 2.0, 3.0], [0.0, 1.0, 2.0]], 2.0, [0.0, 1.0]),
        # a flat column M[0,j] = M[1,j] floors the value at its height; the
        # first crossing that reaches the floor is kept
        ([[1.0, 0.25, -1.0], [-1.0, 0.25, 1.0]], 0.25, [0.625, 0.375]),
        ([[1.0, -0.5, -1.0], [-1.0, -0.5, 1.0]], 0.0, [0.5, 0.5]),
        # one column: the lower entry
        ([[3.0], [-2.0]], -2.0, [0.0, 1.0]),
        # a crossing that ties the best pure row does not replace it
        ([[0.0, 0.0], [1.0, -1.0]], 0.0, [1.0, 0.0]),
    ],
)
def test_minmax_2_by_cols_degenerate_games(M, value, x):
    M = np.array(M)
    val, got, _ = check_minmax_2_by_cols(M)
    assert val == value
    assert np.array_equal(got, x)
    assert val == pytest.approx(lp.zero_sum_value(M)[0], abs=1e-12)


@pytest.mark.parametrize("shape", [(1, 3), (3, 3), (3, 2), (2, 0), (2,), (2, 2, 2)])
def test_minmax_2_by_cols_rejects_other_shapes(shape):
    with pytest.raises(InvalidInput):
        lp.minmax_2_by_cols(np.zeros(shape))


if given is not None:
    # entries near 0 and slopes near the 1e-14 threshold; columns drawn from
    # a pool, so duplicate, flat and parallel columns are common
    _entry = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1e-300, -1e-15, 1e-15, 0.5]))
    _slope = st.one_of(
        st.floats(-1.0, 1.0),
        st.sampled_from([0.0, -0.0, 1e-16, -1e-16, 5e-15, 1e-14, -1e-14, 2e-14, 0.25]),
    )

    @st.composite
    def two_row_games(draw):
        n = draw(st.integers(1, 6))
        pool = draw(st.lists(st.tuples(_entry, _slope), min_size=1, max_size=n))
        cols = [draw(st.sampled_from(pool)) for _ in range(n)]
        return np.array([[b + d for b, d in cols], [b for b, _ in cols]])

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(two_row_games())
    def test_minmax_2_by_cols_property_against_exact(M):
        check_minmax_2_by_cols(M)

else:

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_minmax_2_by_cols_property_against_exact():
        pass


def test_simplex_row_block_placement():
    row, rel, rhs = lp.simplex_row(5, 1, 4)
    assert (rel, rhs) == (lp.EQ, 1.0)
    assert np.array_equal(row, [0, 1, 1, 1, 0])
    row, rel, rhs = lp.simplex_row(3)
    assert (rel, rhs) == (lp.EQ, 1.0)
    assert np.array_equal(row, np.ones(3))


@pytest.mark.parametrize("relax", [0.0, 0.25])
def test_lexicographic_stage_keeps_relax_plus_tie_slack(relax):
    # stage 1 puts all mass on x0; stage 2 may then move relax + TIE_SLACK
    # of it to x1, and no more
    stages = lp.solve_lexicographic(list(np.eye(2)), [lp.simplex_row(2)], relax)
    assert [s.status for s in stages] == [lp.OPTIMAL, lp.OPTIMAL]
    assert stages[0].objective_value == pytest.approx(1.0, abs=1e-15)
    assert stages[1].objective_value == pytest.approx(relax + lp.TIE_SLACK, abs=1e-15)


def test_lexicographic_stops_at_the_first_stage_that_is_not_optimal():
    objectives = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([1.0, 1.0])]
    empty = lp.solve_lexicographic(objectives, [lp.simplex_row(2), (np.ones(2), lp.LE, 0.5)])
    assert [s.status for s in empty] == [lp.INFEASIBLE]
    # x1 has no upper bound, so the second stage is unbounded and the third never runs
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
        cons = [lp.simplex_row(d)] + [(a, lp.LE, float(b)) for a, b in zip(normals, rhs)]
        stages = lp.solve_lexicographic([first, second], cons, relax)
        top = highs_max(first, normals, rhs)
        floor = top - relax - lp.TIE_SLACK  # second stage keeps first . x >= floor
        tie = highs_max(second, np.vstack([normals, -first]), np.append(rhs, -floor))
        assert [s.objective_value for s in stages] == pytest.approx([top, tie], abs=1e-7)


def random_mixed_domain_lp(rng, d, extra_rows):
    """Random bounded program whose variables are free, x >= 0 or boxed.

    Feasible at a random point x0 of the domain.  Free variables get box
    rows, x >= 0 ones an upper row, so the optimum is finite.
    """
    bounds, x0, cons = [], np.empty(d), []
    for j, kind in enumerate(rng.integers(0, 4, size=d)):
        e = np.eye(d)[j]
        if kind == 0:
            bounds.append((None, None))
            x0[j] = rng.uniform(-1.0, 1.0)
            cons.append((e, lp.GE, float(x0[j] - rng.uniform(0.5, 2.0))))
        elif kind == 1:
            bounds.append((0, None))
            x0[j] = rng.uniform(0.0, 1.0)
        else:  # boxed: [0, hi], or lo below or above 0
            lo = 0.0 if kind == 2 else float(rng.uniform(-1.0, 0.5))
            bounds.append((lo, lo + float(rng.uniform(0.5, 2.0))))
            x0[j] = rng.uniform(lo, bounds[-1][1])
        if kind < 2:
            cons.append((e, lp.LE, float(x0[j] + rng.uniform(0.5, 2.0))))
    for _ in range(extra_rows):
        a = rng.uniform(-1.0, 1.0, size=d)
        rel = (lp.LE, lp.GE, lp.EQ)[int(rng.integers(0, 3))]
        slack = {lp.LE: 1.0, lp.GE: -1.0, lp.EQ: 0.0}[rel] * rng.uniform(0.0, 0.5)
        cons.append((a, rel, float(a @ x0 + slack)))
    order = rng.permutation(len(cons))
    return lp.LinearProgram(rng.uniform(-1.0, 1.0, size=d), [cons[i] for i in order], bounds)


def test_mixed_domains_against_highs():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(29)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        prog = random_mixed_domain_lp(rng, d, int(rng.integers(1, 5)))
        sol = lp.solve_lp(prog)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for row, rel, b in prog.constraints:
            sign = -1.0 if rel == lp.GE else 1.0
            (A_eq if rel == lp.EQ else A_ub).append(sign * row)
            (b_eq if rel == lp.EQ else b_ub).append(sign * b)
        ref = scipy_opt.linprog(
            -prog.objective, A_ub=np.array(A_ub) if A_ub else None, b_ub=b_ub or None,
            A_eq=np.array(A_eq) if A_eq else None, b_eq=b_eq or None,
            bounds=prog.bounds, method="highs",
        )
        assert ref.success and sol.is_optimal
        assert sol.objective_value == pytest.approx(-ref.fun, abs=1e-8)
        for xj, (lo, hi) in zip(sol.point, prog.bounds):
            assert lo is None or xj >= lo - 1e-9
            assert hi is None or xj <= hi + 1e-9
        assert lp.duality_gap(prog, sol) <= 1e-7


# One-row programs max c.x s.t. x <= 1, handed to the certificate check
# with a claimed (x, value, dual): (c, x, y, free, sound).
CLAIMS = {
    "x >= 0 column at -0.5": ([-1.0], [-0.5], [0.5], [False], False),
    "free column at -0.5, reduced cost -1.5": ([-1.0], [-0.5], [0.5], [True], False),
    "x >= 0 column with reduced cost +1": ([1.0], [0.0], [0.0], [False], False),
    "x >= 0 column at 0 with reduced cost -1": ([-1.0], [0.0], [0.0], [False], True),
    "free column at 1 with reduced cost 0": ([1.0], [1.0], [1.0], [True], True),
}


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_certificate_checks_domain_and_reduced_cost_sign(name):
    c, x, y, free, sound = (np.array(v) for v in CLAIMS[name])
    args = (x, float(c @ x), y, np.ones((1, 1)), [lp.LE], np.ones(1), c, free.astype(bool))
    if sound:
        lp._certify(*args)
    else:
        with pytest.raises(NumericalFailure):
            lp._certify(*args)
