"""Stackelberg equilibria of normal-form games via best-response-region LPs.

One LP per follower pure action: maximize the leader's payoff over leader
mixes for which that action is a (weak) follower best response, then keep
the best follower action.  Weak inequalities implement tie-breaking in
the leader's favor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from . import lp
from .core import BimatrixGame, Csp
from .errors import InvalidInput

_TIE_TOL = 1e-9


@dataclass(frozen=True)
class StackelbergResult:
    value: float
    leader_mix: np.ndarray
    follower_action: int
    csp: Csp  # product profile leader_mix (x) e_{follower_action}, leader rows


def stackelberg_leader(
    leader_payoff: np.ndarray, follower_payoff: np.ndarray
) -> StackelbergResult:
    """Leader commits to a mix over rows; follower best-responds by column.

    Ties among equally good follower columns are broken by the lowest
    column index.  Columns that are never a best response yield an
    infeasible subproblem and are skipped.
    """
    A = np.asarray(leader_payoff, dtype=float)
    B = np.asarray(follower_payoff, dtype=float)
    if A.shape != B.shape or A.ndim != 2:
        raise InvalidInput("leader and follower payoffs must share an a-by-b shape")
    a, b = A.shape
    best: Optional[Tuple[float, int, np.ndarray]] = None
    for f in range(b):
        cons = lp.simplex_rows(a)
        for g in range(b):
            if g == f:
                continue
            cons.append((B[:, g] - B[:, f], lp.LE, 0.0))
        sol = lp.solve_lp(lp.LinearProgram(A[:, f], cons))
        if not sol.is_optimal:
            continue  # f is strictly dominated for the follower
        if best is None or sol.objective_value > best[0] + _TIE_TOL:
            x = np.maximum(sol.point, 0.0)
            best = (sol.objective_value, f, x / x.sum())
    if best is None:
        raise InvalidInput("no follower action admits a best-response region")
    value, f, x = best
    e_f = np.zeros(b)
    e_f[f] = 1.0
    return StackelbergResult(value, x, f, Csp.outer(x, e_f))


def type_leader_values(game: BimatrixGame) -> Tuple[np.ndarray, List[Csp]]:
    """Per-type leader values with the opponent leading and the learner following.

    Returns (v, csps) where v[i] is type i's Stackelberg leader value and
    csps[i] is the induced profile re-expressed in standard (learner row,
    opponent column) indexing.
    """
    values = np.zeros(game.k)
    csps: List[Csp] = []
    for i in range(game.k):
        res = stackelberg_leader(game.u_O(i).T, game.u_L.T)
        values[i] = res.value
        # Leader rows were opponent actions; transpose back to standard order.
        mat = res.csp.weights.reshape(game.n, game.m).T
        csps.append(Csp(mat.ravel()))
    return values, csps
