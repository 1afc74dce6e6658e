"""Dense linear-programming and zero-sum-game kernel.

Two-phase primal simplex on a dense numpy tableau with Bland's pivoting
rule throughout, so every solve is deterministic: identical programs give
identical bases, points, and duals.  Every optimal solve is certified
against its recovered dual before it is returned; a solve that cannot be
certified raises instead of returning a wrong status.

Orientation conventions: `LinearProgram.objective` is always maximized,
variables are x >= 0 unless `bounds` says otherwise (scipy's `linprog`
convention), and `zero_sum_value` treats the row player as the minimizer.

Two helpers give every solver module the same vocabulary.
`simplex_row` builds the row sum(x[lo:hi]) = 1; with the default domain
it makes x[lo:hi] a probability vector.  `solve_lexicographic` maximizes
a list of objectives in turn, each over the optimal face of the ones
before; it implements the package's tie rule once: an opponent type takes
its favourite point, and among points within relax + TIE_SLACK of that
favourite the learner's best one is chosen.

`zero_sum_values` values a stack of small zero-sum games without a
simplex per game.  An optimal mix of each player is a vertex fixed by a
square kernel, a pair of equal-size row and column supports (Shapley and
Snow 1950), so the least upper bound over every kernel's mix is the
value; the column player's kernels give the matching lower bound, which
certifies it.  `zero_sum_value_batch2` bounds every kernel of size <= 2 in
closed form, which values any game with two rows or two columns; larger
kernels take stacked linear solves.  `minmax_rows_by_2` gives the value
and x of one m x 2 game, and `minmax_2_by_cols` those of one 2 x n game.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidInput, NumericalFailure

LE = "<="
EQ = "="
GE = ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-8
_DUAL_TOL = 1e-7
TIE_SLACK = 1e-9  # slack of the optimal-face row between lexicographic stages
# Kernel count C(m + n, m) - 1 above which `zero_sum_values` runs one simplex
# per game: on 41 games of 5x5 (251 kernels) the enumeration took 32.0 ms
# and the simplex 26.2 ms (median of 9; 2-vCPU guest, BLAS at one thread).
_KERNEL_CAP = 100
_CERTIFY_TOL = 1e-9  # largest gap between the two players' bounds, per max(1, |M|)

Row = Tuple[np.ndarray, str, float]  # one constraint: row . x (rel) rhs


@dataclass(frozen=True)
class LinearProgram:
    """max objective . x  subject to row . x (rel) rhs for each constraint.

    `bounds`, when given, holds one (lower, upper) pair per variable, None
    meaning unbounded on that side; the default is (0, None), x >= 0, and
    (None, None) declares a free variable.  Bounds other than a lower 0
    become constraint rows (after `constraints`, lower before upper per
    variable), and the returned dual vector covers those rows as well.
    """

    objective: np.ndarray
    constraints: Sequence[Row]
    bounds: Optional[Sequence[Tuple[Optional[float], Optional[float]]]] = None


@dataclass(frozen=True)
class LpSolution:
    status: str
    point: Optional[np.ndarray]
    objective_value: float
    dual: Optional[np.ndarray] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL


def simplex_row(d: int, lo: int = 0, hi: Optional[int] = None) -> Row:
    """The row sum(x[lo:hi]) = 1, of length d.

    Coordinates outside [lo, hi) get zero weight, so block programs call
    this once per block.  x >= 0 needs no row: it is the default domain.
    """
    hi = d if hi is None else hi
    total = np.zeros(d)
    total[lo:hi] = 1.0
    return (total, EQ, 1.0)


def _scale(*arrays: np.ndarray) -> float:
    """max(1, largest |entry|): the unit of every feasibility tolerance."""
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays if a.size])


def _materialize_rows(lp: LinearProgram):
    """Flatten constraints plus bound rows into (c, A, rels, b, free) arrays."""
    c = np.asarray(lp.objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise InvalidInput("objective must be a nonempty vector")
    d = c.size
    rows, rels, rhs = [], [], []
    for row, rel, b in lp.constraints:
        row = np.asarray(row, dtype=float)
        if row.shape != (d,):
            raise InvalidInput(f"constraint row has shape {row.shape}, expected ({d},)")
        if rel not in (LE, EQ, GE):
            raise InvalidInput(f"unknown relation {rel!r}")
        rows.append(row)
        rels.append(rel)
        rhs.append(float(b))
    free = np.zeros(d, dtype=bool)
    if lp.bounds is not None:
        if len(lp.bounds) != d:
            raise InvalidInput("bounds length must match the number of variables")
        for j, (lo, hi) in enumerate(lp.bounds):
            # A column is x >= 0; a variable that may go below 0 is split.
            free[j] = lo is None or lo < 0
            for bound, rel in ((None if lo == 0 else lo, GE), (hi, LE)):
                if bound is not None:
                    rows.append(np.eye(1, d, j)[0])
                    rels.append(rel)
                    rhs.append(float(bound))
    A = np.array(rows, dtype=float) if rows else np.zeros((0, d))
    b = np.array(rhs, dtype=float)
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise InvalidInput("objective, constraint rows, and rhs must all be finite")
    return c, A, rels, b, free


def _bland_entering(red: np.ndarray, allowed: np.ndarray) -> int:
    cand = np.nonzero(allowed & (red > _PIVOT_TOL))[0]
    return int(cand[0]) if cand.size else -1


def _bland_leaving(T: np.ndarray, col: int, basis: np.ndarray) -> int:
    ratios = []
    for i in range(T.shape[0] - 1):
        a = T[i, col]
        if a > _PIVOT_TOL:
            ratios.append((T[i, -1] / a, basis[i], i))
    if not ratios:
        return -1
    ratios.sort(key=lambda t: (t[0], t[1]))
    return ratios[0][2]


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])
    T[:, col] = 0.0
    T[row, col] = 1.0


def _run_simplex(T, basis, cost, allowed, max_iters):
    """Drive `cost` (maximize) to optimality on tableau T. Returns status."""
    nrows = T.shape[0] - 1
    # Price out: objective row = cost - cost_B . rows, rhs column carries -z.
    T[-1, :] = 0.0
    T[-1, : cost.size] = cost
    for i in range(nrows):
        cb = cost[basis[i]]
        if cb != 0.0:
            T[-1] -= cb * T[i]
    for _ in range(max_iters):
        col = _bland_entering(T[-1, :-1], allowed)
        if col < 0:
            return OPTIMAL
        row = _bland_leaving(T, col, basis)
        if row < 0:
            return UNBOUNDED
        _pivot(T, row, col)
        basis[row] = col
    raise NumericalFailure("simplex iteration cap exceeded")


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex solve of `lp`, with dual certification when optimal."""
    c, A0, rels, b0, free = _materialize_rows(lp)
    d = c.size
    nrows = A0.shape[0]

    # Standard form: one column per variable, then a column -A[:, j] for the
    # w of each free x_j = u - w, then a slack column per inequality in row
    # order (+1 on <= rows, -1 on >= rows); rows are signed so that b >= 0.
    n_free = int(free.sum())
    ineq = [i for i, rel in enumerate(rels) if rel != EQ]
    n_slack = len(ineq)
    ncols = d + n_free + n_slack
    A = np.zeros((nrows, ncols))
    A[:, :d] = A0
    A[:, d : d + n_free] = -A0[:, free]
    A[ineq, d + n_free + np.arange(n_slack)] = [1.0 if rels[i] == LE else -1.0 for i in ineq]
    neg = b0 < 0
    A[neg] *= -1.0
    b = np.where(neg, -b0, b0)
    row_sign = np.where(neg, -1.0, 1.0)
    c_std = np.concatenate([c, -c[free], np.zeros(n_slack)])

    max_iters = 20000 + 200 * (nrows + ncols)

    # Phase 1: artificial basis on every row, minimize total artificial mass.
    total = ncols + nrows
    T = np.zeros((nrows + 1, total + 1))
    T[:-1, :ncols] = A
    T[:-1, ncols : ncols + nrows] = np.eye(nrows)
    T[:-1, -1] = b
    basis = np.arange(ncols, ncols + nrows)
    phase1_cost = np.zeros(total)
    phase1_cost[ncols:] = -1.0
    allowed = np.ones(total, dtype=bool)
    _run_simplex(T, basis, phase1_cost, allowed, max_iters)
    # The corner carries -z, the residual artificial mass. Phase 1 is bounded,
    # so an "unbounded" exit is round-off and only the residual decides.
    if T[-1, -1] > _FEAS_TOL * _scale(b):
        return LpSolution(INFEASIBLE, None, float("nan"))

    # Pivot artificials out of the basis; rows that cannot pivot are redundant.
    keep_rows = np.ones(nrows, dtype=bool)
    for i in range(nrows):
        if basis[i] >= ncols:
            piv_cols = np.nonzero(np.abs(T[i, :ncols]) > _PIVOT_TOL)[0]
            if piv_cols.size:
                _pivot(T, i, int(piv_cols[0]))
                basis[i] = int(piv_cols[0])
            else:
                keep_rows[i] = False
    if not np.all(keep_rows):
        sel = np.concatenate([keep_rows, [True]])
        T = T[sel]
        basis = basis[keep_rows]

    # Phase 2 on the real objective; artificial columns stay locked out.
    allowed = np.zeros(total, dtype=bool)
    allowed[:ncols] = True
    phase2_cost = np.zeros(total)
    phase2_cost[:ncols] = c_std
    status = _run_simplex(T, basis, phase2_cost, allowed, max_iters)
    if status == UNBOUNDED:
        return LpSolution(UNBOUNDED, None, float("inf"))

    z = np.zeros(total)
    z[basis] = T[:-1, -1]
    x = z[:d]
    x[free] -= z[d : d + n_free]
    value = float(c @ x)

    dual = _recover_dual(A, keep_rows, basis, c_std, row_sign)
    _certify(x, value, dual, A0, rels, b0, c, free)
    return LpSolution(OPTIMAL, x, value, dual)


def solve_lexicographic(
    objectives: Sequence[np.ndarray], constraints: Sequence[Row], relax: float = 0.0
) -> List[LpSolution]:
    """Maximize each objective in turn over the optimal face of the ones before.

    After an optimal stage the row obj . x >= value - relax - TIE_SLACK is
    appended to the constraints of the next stage.  Returns the solutions
    of the stages run: the list ends after the first stage that is not
    optimal, so the last entry is optimal exactly when every stage was.
    """
    cons = list(constraints)
    stages = []
    for obj in objectives:
        sol = solve_lp(LinearProgram(obj, cons))
        stages.append(sol)
        if not sol.is_optimal:
            break
        cons.append((obj, GE, sol.objective_value - relax - TIE_SLACK))
    return stages


def _recover_dual(A, keep_rows, basis, c_std, row_sign):
    """Duals from the final basis: solve B^T y = c_B on the kept rows."""
    kept_idx = np.nonzero(keep_rows)[0]
    Ak = A[kept_idx]
    B = Ak[:, basis]
    cb = c_std[basis]
    try:
        y_kept = np.linalg.solve(B.T, cb)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("singular basis during dual recovery") from exc
    y = np.zeros(keep_rows.size)
    y[kept_idx] = y_kept
    return y * row_sign


def _certify(x, value, dual, A0, rels, b0, c, free):
    """Primal feasibility, dual feasibility, and strong duality checks."""
    scale = _scale(b0, c)
    act = A0 @ x
    for i, rel in enumerate(rels):
        resid = act[i] - b0[i]
        ok = (
            (rel == LE and resid <= _FEAS_TOL * scale)
            or (rel == GE and resid >= -_FEAS_TOL * scale)
            or (rel == EQ and abs(resid) <= _FEAS_TOL * scale)
        )
        if not ok:
            raise NumericalFailure(f"primal constraint {i} violated by {resid:.3e}")
    if np.any(x[~free] < -_FEAS_TOL * scale):
        raise NumericalFailure(f"variable x >= 0 is {float(np.min(x[~free])):.3e}")
    # Maximization duals: <= rows carry y >= 0, >= rows y <= 0, = rows free.
    for i, rel in enumerate(rels):
        if rel == LE and dual[i] < -_DUAL_TOL * scale:
            raise NumericalFailure("dual sign violated on a <= row")
        if rel == GE and dual[i] > _DUAL_TOL * scale:
            raise NumericalFailure("dual sign violated on a >= row")
    # Reduced costs vanish on free variables and are <= 0 on x >= 0 ones.
    red = c - A0.T @ dual
    if np.any(red > _DUAL_TOL * scale) or np.any(red[free] < -_DUAL_TOL * scale):
        raise NumericalFailure("dual infeasibility: reduced costs have the wrong sign")
    gap = abs(float(dual @ b0) - value)
    if gap > _DUAL_TOL * scale:
        raise NumericalFailure(f"duality gap {gap:.3e} exceeds tolerance")


def duality_gap(lp: LinearProgram, sol: LpSolution) -> float:
    """|primal - dual| objective gap of a certified optimal solution."""
    if not sol.is_optimal:
        raise InvalidInput("duality gap is defined for optimal solutions only")
    b = _materialize_rows(lp)[3]
    return abs(float(sol.dual @ b) - sol.objective_value)


def zero_sum_value(M: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal strategies of the zero-sum game with matrix M.

    The row player picks x in the p-simplex to minimize x^T M y, the
    column player picks y in the q-simplex to maximize it.  Returns
    (value, x, y) where value = min_x max_y x^T M y, x attains it, and y
    certifies it from below (x'^T M y >= value for every x').
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise InvalidInput("payoff matrix must be 2-d and nonempty")
    if not np.all(np.isfinite(M)):
        raise InvalidInput("payoff matrix must be finite")
    p, q = M.shape
    # Variables (x_1..x_p, v): maximize -v s.t. M[:,j].x - v <= 0, sum x = 1.
    d = p + 1
    cons = []
    for j in range(q):
        row = np.concatenate([M[:, j], [-1.0]])
        cons.append((row, LE, 0.0))
    cons.append(simplex_row(d, 0, p))
    obj = np.zeros(d)
    obj[-1] = -1.0
    sol = solve_lp(LinearProgram(obj, cons, [(0, None)] * p + [(None, None)]))
    if not sol.is_optimal:
        raise NumericalFailure(f"zero-sum solve ended with status {sol.status}")
    x = sol.point[:p]
    x = np.maximum(x, 0.0)
    x /= x.sum()
    value = -sol.objective_value
    # The duals of the q column constraints recover the maximizer's mix.
    y = np.maximum(np.asarray(sol.dual[:q]), 0.0)
    tot = y.sum()
    if tot <= 0:
        raise NumericalFailure("degenerate dual mix in zero-sum solve")
    y = y / tot
    if abs(float(np.max(M.T @ x)) - value) > 1e-7 * max(1.0, abs(value)):
        raise NumericalFailure("zero-sum primal certificate failed")
    if float(np.min(M @ y)) < value - 1e-7 * max(1.0, abs(value), float(np.max(np.abs(M)))):
        raise NumericalFailure("zero-sum dual certificate failed")
    return value, x, y


def zero_sum_values(stack: np.ndarray) -> np.ndarray:
    """Row-minimizer values min_x max_y x^T M y of every game in a stack.

    `stack` has shape (N, m, n).  Games with at most two columns or rows
    take `zero_sum_value_batch2`.  Larger ones are valued by enumerating
    their square kernels, once for each player; a game whose bounds differ by
    more than 1e-9 * max(1, max|M|) is solved again by `zero_sum_value`, so
    no value is returned uncertified.  Shapes with more than `_KERNEL_CAP`
    kernels call `zero_sum_value` on every game.
    """
    stack = _checked_stack(stack)
    m, n = stack.shape[1:]
    if n <= 2:
        return zero_sum_value_batch2(stack)
    if m <= 2:
        return -zero_sum_value_batch2(-np.swapaxes(stack, 1, 2))
    if comb(m + n, m) - 1 > _KERNEL_CAP:
        return np.array([zero_sum_value(M)[0] for M in stack])
    upper = _kernel_upper_bounds(stack)
    lower = -_kernel_upper_bounds(-np.swapaxes(stack, 1, 2))
    scale = np.maximum(1.0, np.max(np.abs(stack), axis=(1, 2)))
    for g in np.nonzero(upper - lower > _CERTIFY_TOL * scale)[0]:
        upper[g] = zero_sum_value(stack[g])[0]
    return upper


def _checked_stack(stack: np.ndarray) -> np.ndarray:
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[1] == 0 or stack.shape[2] == 0:
        raise InvalidInput("expected a stack of shape (N, m, n) with m, n >= 1")
    if not np.all(np.isfinite(stack)):
        raise InvalidInput("payoff matrices must be finite")
    return stack


def _kernel_upper_bounds(stack: np.ndarray) -> np.ndarray:
    """Least max_j x . M[:, j] over the row mixes of every square kernel.

    Kernel (I, J) fixes x_I by M[I, J]^T x_I = v 1, sum(x_I) = 1.  Each
    solution with x >= -1e-12, clipped and renormalized, is a real mix, so
    its worst column bounds the value from above; `zero_sum_value_batch2`
    bounds kernels of size <= 2, stacked solves the rest.  The optimal mix's
    kernel is among them, so the least bound is the value up to round-off.
    """
    n_games, m, n = stack.shape
    best = zero_sum_value_batch2(stack)
    for s in range(3, min(m, n) + 1):
        border = np.zeros((n_games, s + 1, s + 1))
        border[:, :s, s] = -1.0
        border[:, s, :s] = 1.0
        rhs = np.zeros((n_games, s + 1, 1))
        rhs[:, s] = 1.0
        for rows in combinations(range(m), s):
            sub = stack[:, rows, :]
            for cols in combinations(range(n), s):
                border[:, :s, :s] = np.swapaxes(sub[:, :, cols], 1, 2)
                x = _solve_kernels(border, rhs)[:, :s, 0]
                with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
                    real = np.all(np.isfinite(x) & (x >= -1e-12), axis=1)
                    x = np.maximum(x, 0.0)
                    x /= x.sum(axis=1, keepdims=True)
                    bound = np.max(np.matmul(x[:, None, :], sub)[:, 0], axis=1)
                best = np.where(real & (bound < best), bound, best)
    return best


def _solve_kernels(border: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Stacked solve; a singular system yields NaN instead of failing the stack."""
    try:
        return np.linalg.solve(border, rhs)
    except np.linalg.LinAlgError:
        singular = np.linalg.det(border) == 0.0
        safe = np.where(singular[:, None, None], np.eye(border.shape[1]), border)
        out = np.linalg.solve(safe, rhs)
        out[singular] = np.nan
        return out


def zero_sum_value_batch2(stack: np.ndarray) -> np.ndarray:
    """Least bound over the kernels of size <= 2 of every game in a stack.

    `stack` has shape (N, m, n).  The candidates are the pure rows and, for
    every column pair (a, b) and row pair (i, j), the mix t e_i + (1 - t) e_j,
    0 < t < 1, at which columns a and b pay the same; it is bounded by the
    columns other than b.  This is the value min_x max_y x^T M y when m <= 2
    or n <= 2; with m, n >= 3 it is an upper bound, not the value.
    Vectorized; used on hot paths where a simplex per game would dominate.
    """
    stack = _checked_stack(stack)
    m, n = stack.shape[1:]
    best = np.max(stack, axis=2).min(axis=1)  # pure rows
    for a, b in combinations(range(n), 2):
        g = stack[:, :, a] - stack[:, :, b]
        others = stack[:, :, np.arange(n) != b]
        for i, j in combinations(range(m), 2):
            gi, gj = g[:, i], g[:, j]
            den = gj - gi
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(np.abs(den) > 1e-14, gj / den, np.nan)
            valid = np.isfinite(t) & (t > 0.0) & (t < 1.0)
            cross = np.max(t[:, None] * others[:, i] + (1.0 - t)[:, None] * others[:, j], axis=1)
            best = np.where(valid & (cross < best), cross, best)
    return best


def minmax_rows_by_2(M: np.ndarray) -> Tuple[float, np.ndarray]:
    """Single-game companion of `zero_sum_value_batch2`: value and argmin x.

    The best pure row is the first row of least max; a two-row crossing
    replaces it only when lower by more than 1e-15, and a pair whose
    column differences g are within 1e-14 has no crossing. It runs on
    Python floats, since at the forcing round's sizes numpy's per-call
    cost would exceed the arithmetic.
    """
    M = np.asarray(M, dtype=float)
    m, q = M.shape
    if q != 2:
        raise InvalidInput("expected a two-column matrix")
    rows = M.tolist()
    row_vals = [b if b >= a else a for a, b in rows]  # np.max's choice between equal zeros
    best = min(row_vals)
    support = {row_vals.index(best): 1.0}
    g = [a - b for a, b in rows]
    for i in range(m):
        for j in range(i + 1, m):
            den = g[j] - g[i]
            if abs(den) <= 1e-14:
                continue
            t = g[j] / den
            if not (0.0 < t < 1.0):
                continue
            cross = t * rows[i][0] + (1.0 - t) * rows[j][0]
            if cross < best - 1e-15:
                best = cross
                support = {i: t, j: 1.0 - t}
    x = np.zeros(m)
    x[list(support)] = list(support.values())
    return best, x


def minmax_2_by_cols(M: np.ndarray) -> Tuple[float, np.ndarray]:
    """Two-row companion of `minmax_rows_by_2`: value and argmin x.

    With x = (t, 1 - t), f(t) = max_j (t M[0,j] + (1 - t) M[1,j]) is convex
    and piecewise linear, so its least value lies at a pure row or where two
    columns' lines cross at some 0 < t < 1. The best pure row is the first
    row of least max; a crossing replaces it only when f there is lower by
    more than 1e-15, and a column pair whose slopes M[0,j] - M[1,j] are
    within 1e-14 has no crossing. Runs on Python floats, as its companion.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != 2 or M.shape[1] == 0:
        raise InvalidInput("expected a nonempty two-row matrix")
    rows = M.tolist()
    cols = list(zip(*rows))
    top, bottom = max(rows[0]), max(rows[1])
    best, x = (top, (1.0, 0.0)) if top <= bottom else (bottom, (0.0, 1.0))
    slope = [a - b for a, b in cols]
    n = len(cols)
    for j in range(n):
        for l in range(j + 1, n):
            den = slope[j] - slope[l]
            if abs(den) <= 1e-14:
                continue
            t = (cols[l][1] - cols[j][1]) / den
            if not (0.0 < t < 1.0):
                continue
            s = 1.0 - t
            val = max(t * a + s * b for a, b in cols)
            if val < best - 1e-15:
                best, x = val, (t, s)
    return best, np.array(x)
