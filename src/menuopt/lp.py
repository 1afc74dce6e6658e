"""Dense linear-programming and zero-sum-game kernel.

Two-phase primal simplex on a dense numpy tableau.  The entering column
is the one of largest reduced cost; after a run of `_DEGENERATE_RUN`
degenerate pivots Bland's rule (Bland 1977) chooses it instead, until a
pivot moves the point, so no solve cycles.  The leaving row is the least
ratio, ties to the smallest basic column.  Every solve is deterministic:
identical programs give identical bases, points, and duals.  One private
`_Tableau` holds a program in standard form: phase 1 starts from the
slack basis, with an artificial only on the rows whose slack cannot be
basic, and finds a basic feasible point; phase 2 maximizes an objective
from the current basis, and `add_ge_row` appends a row that the current
point meets, so a later objective starts from the last optimum (a warm
start) instead of from scratch; several objective lists share one phase
1, each on its own `fork` of the feasible tableau.  Every optimal solve
is certified against its recovered dual before it is returned; a solve
that cannot be certified raises instead of returning a wrong status.

Orientation conventions: `LinearProgram.objective` is always maximized,
variables are x >= 0 unless `bounds` says otherwise (scipy's `linprog`
convention), and `zero_sum_value` treats the row player as the minimizer.

Three helpers give every solver module the same vocabulary.
`simplex_row` builds the row sum(x[lo:hi]) = 1; with the default domain
it makes x[lo:hi] a probability vector, and `normalized` turns a solved
point back into one.  `solve_lexicographic` maximizes a list of
objectives in turn, each over the optimal face of the ones before, and
`solve_lexicographic_each` several such lists.  The package's tie rule,
an opponent type taking its favourite point and the learner's best one
chosen among points within relax + TIE_SLACK of it, is
`menus.type_picks`, two stages of it.

`zero_sum_values` values a stack of small zero-sum games without a
simplex per game.  An optimal mix of each player is a vertex fixed by a
square kernel, a pair of equal-size row and column supports (Shapley and
Snow 1950), so the least upper bound over every kernel's mix is the
value; the column player's kernels give the matching lower bound, which
certifies it.  `zero_sum_value_batch2` bounds every kernel of size <= 2 in
closed form, which values any game with two rows or two columns; larger
kernels take stacked linear solves.  `minmax_rows_by_2` gives the value
and x of one m x 2 game, and `minmax_2_by_cols` those of one 2 x n game.
They serve the column player too: `maximizer_mix` takes the maximizer's y
of a game with two rows or two columns from them, run on -M^T, and only
larger games from the simplex.
"""

from __future__ import annotations

import copy
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
# Degenerate pivots in a row (leaving right side <= _PIVOT_TOL) after which
# Bland's rule enters, until the next pivot that moves the point.
_DEGENERATE_RUN = 50
_FEAS_TOL = 1e-8
_DUAL_TOL = 1e-7
TIE_SLACK = 1e-9  # slack of the optimal-face row between lexicographic stages
# Kernel count C(m + n, m) - 1 above which `zero_sum_values` runs one simplex
# per game: on 41 games of 5x5 (251 kernels) the enumeration took 32.0 ms
# and the simplex 26.2 ms (median of 9; 2-vCPU guest, BLAS at one thread).
_KERNEL_CAP = 100
_CERTIFY_TOL = 1e-9  # largest gap between the two players' bounds, per max(1, |M|)
_FLOAT = np.dtype(float)  # the one native float64 dtype: `is` tells a float array apart

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


def normalized(x: np.ndarray) -> np.ndarray:
    """x clipped at 0 and divided by its sum along the last axis."""
    x = np.maximum(x, 0.0)
    return x / x.sum(axis=-1, keepdims=True)


def _scale(*arrays: np.ndarray) -> float:
    """max(1, largest |entry|): the unit of every feasibility tolerance."""
    return max([1.0] + [float(np.abs(a).max()) for a in arrays if a.size])


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
    if not (np.isfinite(c).all() and np.isfinite(A).all() and np.isfinite(b).all()):
        raise InvalidInput("objective, constraint rows, and rhs must all be finite")
    return c, A, rels, b, free


def _bland_entering(red: np.ndarray) -> int:
    """First column whose reduced cost exceeds `_PIVOT_TOL`, or -1."""
    mask = red > _PIVOT_TOL
    col = int(mask.argmax())
    return col if mask[col] else -1


def _bland_leaving(T: np.ndarray, col: int, basis: List[int]) -> int:
    """Row of least ratio rhs / a over entries a > `_PIVOT_TOL`, or -1.

    A tie goes to the row whose basic column is smallest. Runs on Python
    floats, one `tolist()` per column, which beats numpy scalars at these
    sizes and divides the same way.
    """
    rhs = T[:-1, -1].tolist()
    best, best_ratio = -1, float("inf")
    for i, a in enumerate(T[:-1, col].tolist()):
        if a > _PIVOT_TOL:
            ratio = rhs[i] / a
            if ratio < best_ratio or (ratio == best_ratio and (best < 0 or basis[i] < basis[best])):
                best, best_ratio = i, ratio
    return best


def _pivot(T: np.ndarray, row: int, col: int, scratch: np.ndarray) -> None:
    """Pivot T on (row, col); `scratch`, of T's shape, takes the rank-one update."""
    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    np.multiply.outer(factors, T[row], out=scratch)
    T -= scratch
    T[:, col] = 0.0
    T[row, col] = 1.0


class _Tableau:
    """One program in standard form on a dense tableau that outlives a solve.

    Columns: one per variable, a column -A[:, j] for the w of each free
    x_j = u - w, a slack per inequality in row order (+1 on <= rows, -1 on
    >= rows), a surplus per row that `add_ge_row` appends, then the right
    side. Rows are signed so that b >= 0, a >= row with b <= 0 flipped so
    that its slack has +1, and the last row carries the reduced costs and
    -z. `A`, `row_sign` and `keep` are the standard-form rows that dual
    recovery reads; `A0`, `rels` and `b0` are the rows as given, which
    `_certify` checks.
    """

    def __init__(self, A0: np.ndarray, rels: List[str], b0: np.ndarray, free: np.ndarray):
        nrows, d = A0.shape
        n_free = int(free.sum())
        ineq = [i for i, rel in enumerate(rels) if rel != EQ]
        ncols = d + n_free + len(ineq)
        A = np.zeros((nrows, ncols))
        A[:, :d] = A0
        A[:, d : d + n_free] = -A0[:, free]
        A[ineq, d + n_free + np.arange(len(ineq))] = [1.0 if rels[i] == LE else -1.0 for i in ineq]
        flip = (b0 < 0) | ((np.array(rels) == GE) & (b0 <= 0))
        A[flip] *= -1.0
        self.A0, self.rels, self.b0, self.free, self.n_free = A0, list(rels), b0, free, n_free
        self.A, self.row_sign = A, np.where(flip, -1.0, 1.0)
        self.keep = np.ones(nrows, dtype=bool)
        self.max_iters = 20000 + 200 * (nrows + ncols)
        # Phase 1 starts from the slack basis: a row whose slack has +1 starts
        # with it basic at b; every other row, = rows among them, gets an artificial.
        basis = [-1] * nrows
        for k, i in enumerate(ineq):
            if A[i, d + n_free + k] > 0.0:
                basis[i] = d + n_free + k
        art = [i for i in range(nrows) if basis[i] < 0]
        T = np.zeros((nrows + 1, ncols + len(art) + 1))
        T[:-1, :ncols] = A
        T[art, ncols + np.arange(len(art))] = 1.0
        T[:-1, -1] = np.abs(b0)
        for k, i in enumerate(art):
            basis[i] = ncols + k
        self.T, self.basis, self.scratch = T, basis, np.empty_like(T)

    def fork(self) -> "_Tableau":
        """A copy with its own `T`, `basis`, `rels` and `scratch`, which phase 2
        and `add_ge_row` write into; the arrays they replace are shared."""
        twin = copy.copy(self)
        twin.T, twin.basis, twin.rels = self.T.copy(), list(self.basis), list(self.rels)
        twin.scratch = np.empty_like(twin.T)
        return twin

    def _std(self, c: np.ndarray) -> np.ndarray:
        """c on the standard-form columns: -c on each w, 0 on slacks and surpluses."""
        d = c.size
        out = np.zeros(self.A.shape[1])
        out[:d] = c
        out[d : d + self.n_free] = -c[self.free]
        return out

    def _run(self, cost: np.ndarray) -> str:
        """Drive `cost` (maximize) to optimality from the current basis.

        Enters the column of largest reduced cost (the first on a tie), or
        Bland's column once `_DEGENERATE_RUN` pivots in a row have left
        the point where it was, until one moves it again.
        """
        T, basis, scratch = self.T, self.basis, self.scratch
        # Price out: objective row = cost - cost_B . rows, rhs column carries -z.
        T[-1, :] = 0.0
        T[-1, : cost.size] = cost
        for i in range(T.shape[0] - 1):
            cb = cost[basis[i]]
            if cb != 0.0:
                T[-1] -= cb * T[i]
        degenerate = 0
        for _ in range(self.max_iters):
            red = T[-1, :-1]
            if degenerate < _DEGENERATE_RUN:
                col = int(red.argmax())
                if red[col] <= _PIVOT_TOL:
                    return OPTIMAL
            else:
                col = _bland_entering(red)
                if col < 0:
                    return OPTIMAL
            row = _bland_leaving(T, col, basis)
            if row < 0:
                return UNBOUNDED
            degenerate = degenerate + 1 if T[row, -1] <= _PIVOT_TOL else 0
            _pivot(T, row, col, scratch)
            basis[row] = col
        raise NumericalFailure("simplex iteration cap exceeded")

    def phase1(self) -> bool:
        """Reach a basic feasible point, or return False: the program is infeasible.

        Minimizes the mass of the artificial columns (none when every row
        starts with its slack basic), drops them, pivots the artificials
        still basic out and drops the rows where none can pivot, which are
        redundant.
        """
        ncols = self.A.shape[1]
        cost = np.zeros(self.T.shape[1] - 1)
        cost[ncols:] = -1.0
        self._run(cost)
        # The corner carries -z, the residual artificial mass. Phase 1 is bounded,
        # so an "unbounded" exit is round-off and only the residual decides.
        if self.T[-1, -1] > _FEAS_TOL * _scale(self.b0):
            return False
        # No artificial column enters again, and a pivot on another column never
        # reads one. So the right side moves next to the real columns, and views
        # that leave the artificials out carry on; every other entry is as it was.
        self.T[:, ncols] = self.T[:, -1]
        self.T, self.scratch = self.T[:, : ncols + 1], self.scratch[:, : ncols + 1]
        T, basis = self.T, self.basis
        for i in range(len(basis)):
            if basis[i] >= ncols:
                piv_cols = np.nonzero(np.abs(T[i, :ncols]) > _PIVOT_TOL)[0]
                if piv_cols.size:
                    _pivot(T, i, int(piv_cols[0]), self.scratch)
                    basis[i] = int(piv_cols[0])
                else:
                    self.keep[i] = False
        if not self.keep.all():
            self.T = T[np.append(self.keep, True)]
            self.scratch = np.empty_like(self.T)
            self.basis = [j for j, kept in zip(basis, self.keep) if kept]
        return True

    def maximize(self, c: np.ndarray) -> LpSolution:
        """Phase 2 on objective c from the current basis, certified when optimal."""
        c_std = self._std(c)
        if self._run(c_std) == UNBOUNDED:
            return LpSolution(UNBOUNDED, None, float("inf"))
        basis = np.array(self.basis)
        z = np.zeros(c_std.size)
        z[basis] = self.T[:-1, -1]
        d = c.size
        x = z[:d]
        x[self.free] -= z[d : d + self.n_free]
        value = float(c @ x)
        # Duals from the final basis: solve B^T y = c_B on the kept rows.
        rows = np.nonzero(self.keep)[0]
        try:
            y_kept = np.linalg.solve(self.A[rows][:, basis].T, c_std[basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular basis during dual recovery") from exc
        dual = np.zeros(self.keep.size)
        dual[rows] = y_kept
        dual *= self.row_sign
        _certify(x, value, dual, self.A0, self.rels, self.b0, c, self.free)
        return LpSolution(OPTIMAL, x, value, dual)

    def add_ge_row(self, row: np.ndarray, rhs: float) -> None:
        """Append row . x >= rhs, which the current point must meet, surplus basic.

        The row is written in the current basis: its surplus s is basic at
        row . x* - rhs, so the tableau stays primal feasible and phase 2 can
        go on from it. Round-off can leave that right side just below 0
        when the slack is small beside the values (TIE_SLACK beside values
        near 1e8); it is then set to 0, which loosens the tableau's copy of
        the row by that round-off, and `_certify` checks the row as given.
        """
        T, basis = self.T, self.basis
        nrows, ncols = T.shape[0] - 1, T.shape[1] - 1
        self.scratch = None  # freed before the grown tableau is allocated
        std = self._std(row)
        coef = std[basis]
        new = np.zeros(ncols + 2)
        new[:ncols] = coef @ T[:-1, :-1] - std
        new[basis] = 0.0
        new[ncols] = 1.0
        new[-1] = max(0.0, float(coef @ T[:-1, -1]) - rhs)
        grown = np.zeros((nrows + 2, ncols + 2))
        grown[:nrows, :ncols] = T[:-1, :-1]
        grown[:nrows, -1] = T[:-1, -1]
        grown[nrows] = new
        self.T, self.scratch = grown, np.empty_like(grown)
        basis.append(ncols)
        A = np.zeros((self.A.shape[0] + 1, ncols + 1))
        A[:-1, :-1] = self.A
        A[-1, :-1] = std
        A[-1, -1] = -1.0
        self.A = A
        self.row_sign = np.append(self.row_sign, 1.0)
        self.keep = np.append(self.keep, True)
        self.A0 = np.vstack([self.A0, row])
        self.rels.append(GE)
        self.b0 = np.append(self.b0, rhs)
        self.max_iters += 400  # one more row and column


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex solve of `lp`, with dual certification when optimal."""
    c, A0, rels, b0, free = _materialize_rows(lp)
    tableau = _Tableau(A0, rels, b0, free)
    if not tableau.phase1():
        return LpSolution(INFEASIBLE, None, float("nan"))
    return tableau.maximize(c)


def solve_lexicographic(
    objectives: Sequence[np.ndarray], constraints: Sequence[Row], relax: float = 0.0
) -> List[LpSolution]:
    """Maximize each objective in turn over the optimal face of the ones before.

    Stage 1 is `solve_lp` on the constraints. After an optimal stage the
    row obj . x >= value - relax - TIE_SLACK joins the tableau, met by the
    stage's optimum with its surplus basic, and the next stage runs phase 2
    from that basis; it is certified against the constraints and every
    face row so far. Returns the solutions of the stages run: the list ends
    after the first stage that is not optimal, so the last entry is optimal
    exactly when every stage was. It is `solve_lexicographic_each` of one list.
    """
    return solve_lexicographic_each([objectives], constraints, relax)[0]


def solve_lexicographic_each(
    objective_lists: Sequence[Sequence[np.ndarray]], constraints: Sequence[Row], relax: float = 0.0
) -> List[List[LpSolution]]:
    """`solve_lexicographic` of each list, one phase 1 for all: each list runs on
    its own fork, from the basis, and to the bits, of a call of its own."""
    if not (np.isfinite(relax) and relax >= 0.0):
        raise InvalidInput("relax must be finite and >= 0")
    lists = [[np.asarray(obj, dtype=float) for obj in objectives] for objectives in objective_lists]
    if not any(lists):
        return [[] for _ in lists]
    c, A0, rels, b0, free = _materialize_rows(LinearProgram(next(filter(None, lists))[0], constraints))
    if any(obj.shape != c.shape or not np.isfinite(obj).all() for objs in lists for obj in objs):
        raise InvalidInput("objectives must be finite vectors of one length")
    base = _Tableau(A0, rels, b0, free)
    if not base.phase1():
        return [[LpSolution(INFEASIBLE, None, float("nan"))] if objs else [] for objs in lists]
    results = []
    for i, objectives in enumerate(lists):
        # Forks are taken before the base is used, so the last list may have it.
        tableau = base if i == len(lists) - 1 else base.fork()
        stages = [tableau.maximize(objectives[0])] if objectives else []
        for prev, obj in zip(objectives, objectives[1:]):
            if not stages[-1].is_optimal:
                break
            tableau.add_ge_row(prev, stages[-1].objective_value - relax - TIE_SLACK)
            stages.append(tableau.maximize(obj))
        results.append(stages)
    return results


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
    if (x[~free] < -_FEAS_TOL * scale).any():
        raise NumericalFailure(f"variable x >= 0 is {float(np.min(x[~free])):.3e}")
    # Maximization duals: <= rows carry y >= 0, >= rows y <= 0, = rows free.
    for i, rel in enumerate(rels):
        if rel == LE and dual[i] < -_DUAL_TOL * scale:
            raise NumericalFailure("dual sign violated on a <= row")
        if rel == GE and dual[i] > _DUAL_TOL * scale:
            raise NumericalFailure("dual sign violated on a >= row")
    # Reduced costs vanish on free variables and are <= 0 on x >= 0 ones.
    red = c - A0.T @ dual
    if (red > _DUAL_TOL * scale).any() or (red[free] < -_DUAL_TOL * scale).any():
        raise NumericalFailure("dual infeasibility: reduced costs have the wrong sign")
    gap = abs(float(dual @ b0) - value)
    if gap > _DUAL_TOL * scale:
        raise NumericalFailure(f"duality gap {gap:.3e} exceeds tolerance")


def zero_sum_value(M: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """Value and optimal strategies of the zero-sum game with matrix M.

    The row player picks x in the p-simplex to minimize x^T M y, the
    column player picks y in the q-simplex to maximize it.  Returns
    (value, x, y) where value = min_x max_y x^T M y, x attains it, and y
    certifies it from below (x'^T M y >= value for every x').
    """
    M = _checked_game(M)
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
    x = normalized(sol.point[:p])
    value = -sol.objective_value
    # The duals of the q column constraints recover the maximizer's mix.
    if not np.any(sol.dual[:q] > 0.0):
        raise NumericalFailure("degenerate dual mix in zero-sum solve")
    y = normalized(sol.dual[:q])
    if abs(float(np.max(M.T @ x)) - value) > 1e-7 * max(1.0, abs(value)):
        raise NumericalFailure("zero-sum primal certificate failed")
    _check_dual(M, value, y)
    return value, x, y


def maximizer_mix(M: np.ndarray) -> np.ndarray:
    """The column player's optimal mix y of the zero-sum game with matrix M.

    y maximizes min_x x^T M y.  The column player's game is the row
    minimizer's game on -M^T, so a game with two columns takes
    `minmax_2_by_cols(-M.T)` and one with two rows `minmax_rows_by_2(-M.T)`,
    with their tie rules; any other shape takes `zero_sum_value`.  Every y
    passes `zero_sum_value`'s dual check, min(M y) >= value - 1e-7 *
    max(1, |value|, max|M|), or the call raises.
    """
    M = _checked_game(M)
    m, n = M.shape
    if n == 2:
        neg_value, y = minmax_2_by_cols(-M.T)
    elif m == 2:
        neg_value, y = minmax_rows_by_2(-M.T)
    else:
        return zero_sum_value(M)[2]
    y = np.array(y)
    _check_dual(M, -neg_value, y)
    return y


def _checked_game(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.size == 0:
        raise InvalidInput("payoff matrix must be 2-d and nonempty")
    if not np.all(np.isfinite(M)):
        raise InvalidInput("payoff matrix must be finite")
    return M


def _check_dual(M: np.ndarray, value: float, y: np.ndarray) -> None:
    """y guarantees the column player value, up to 1e-7 * max(1, |value|, max|M|)."""
    if float(np.min(M @ y)) < value - 1e-7 * max(1.0, abs(value), float(np.max(np.abs(M)))):
        raise NumericalFailure("zero-sum dual certificate failed")


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
                    x = normalized(x)
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


def minmax_rows_by_2(M: np.ndarray) -> Tuple[float, Tuple[float, ...]]:
    """Single-game companion of `zero_sum_value_batch2`: value and argmin x,
    x as a tuple of floats.

    The best pure row is the first row of least max; a two-row crossing
    replaces it only when lower by more than 1e-15, and a pair whose
    column differences g are within 1e-14 has no crossing. It runs on
    Python floats, since at the forcing round's sizes numpy's per-call
    cost would exceed the arithmetic.
    """
    if type(M) is not np.ndarray or M.dtype is not _FLOAT:
        M = np.asarray(M, dtype=float)
    m, q = M.shape
    if q != 2:
        raise InvalidInput("expected a two-column matrix")
    rows = M.tolist()
    row_vals = [b if b >= a else a for a, b in rows]  # np.max's choice between equal zeros
    best = min(row_vals)
    pure, pair = row_vals.index(best), None
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
                best, pair = cross, (i, j, t)
    x = [0.0] * m
    if pair is None:
        x[pure] = 1.0
    else:
        i, j, t = pair
        x[i], x[j] = t, 1.0 - t
    return best, tuple(x)


def minmax_2_by_cols(M: np.ndarray) -> Tuple[float, Tuple[float, float]]:
    """Two-row companion of `minmax_rows_by_2`: value and argmin x, a pair
    of floats.

    With x = (t, 1 - t), f(t) = max_j (t M[0,j] + (1 - t) M[1,j]) is convex
    and piecewise linear, so its least value lies at a pure row or where two
    columns' lines cross at some 0 < t < 1. The best pure row is the first
    row of least max; a crossing replaces it only when f there is lower by
    more than 1e-15, and a column pair whose slopes M[0,j] - M[1,j] are
    within 1e-14 has no crossing. Runs on Python floats, as its companion.
    """
    if type(M) is not np.ndarray or M.dtype is not _FLOAT:
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
    return best, x
