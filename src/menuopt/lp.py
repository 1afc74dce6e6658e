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
"""

from __future__ import annotations

from dataclasses import dataclass
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


def zero_sum_value_batch2(stack: np.ndarray) -> np.ndarray:
    """Row-minimizer values for a stack of games with two columns.

    `stack` has shape (N, m, 2).  The value min_x max(x.M[:,0], x.M[:,1])
    of each game is found by enumerating the candidate minimizers: the
    simplex vertices plus every two-row crossing of the two column
    payoffs.  Vectorized; used on hot paths where calling the simplex per
    game would dominate the runtime.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[2] != 2:
        raise InvalidInput("expected a stack of shape (N, m, 2)")
    n_games, m, _ = stack.shape
    best = np.max(stack, axis=2).min(axis=1)  # pure rows
    g = stack[:, :, 0] - stack[:, :, 1]
    for i in range(m):
        for j in range(i + 1, m):
            gi, gj = g[:, i], g[:, j]
            den = gj - gi
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(np.abs(den) > 1e-14, gj / den, np.nan)
            valid = np.isfinite(t) & (t > 0.0) & (t < 1.0)
            cross = t * stack[:, i, 0] + (1.0 - t) * stack[:, j, 0]
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
