"""Per-type Stackelberg leader values via best-response-region LPs.

Each opponent type leads and the learner follows.  One phase 1 per
follower column is shared by every type: each type maximizes its payoff
over the leader mixes for which that column is a (weak) follower best
response, then keeps its best column.  Weak inequalities implement
tie-breaking in the leader's favor.
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


def _leaders(leader_payoffs: List[np.ndarray], follower_payoff: np.ndarray) -> List[StackelbergResult]:
    """Each leader payoff's Stackelberg outcome against one follower payoff.

    The leader commits to a mix over rows; the follower best-responds by
    column.  Ties among equally good follower columns are broken by the
    lowest column index.  Columns that are never a best response yield an
    infeasible subproblem and are skipped.
    """
    As = [np.asarray(A, dtype=float) for A in leader_payoffs]
    B = np.asarray(follower_payoff, dtype=float)
    if B.ndim != 2 or any(A.shape != B.shape for A in As):
        raise InvalidInput("leader and follower payoffs must share an a-by-b shape")
    a, b = B.shape
    best: List[Optional[Tuple[float, int, np.ndarray]]] = [None] * len(As)
    for f in range(b):
        cons = [lp.simplex_row(a)] + [(B[:, g] - B[:, f], lp.LE, 0.0) for g in range(b) if g != f]
        for i, (sol,) in enumerate(lp.solve_lexicographic_each([[A[:, f]] for A in As], cons)):
            # An infeasible region means f is strictly dominated for the follower.
            if sol.is_optimal and (best[i] is None or sol.objective_value > best[i][0] + _TIE_TOL):
                best[i] = (sol.objective_value, f, lp.normalized(sol.point))
    if None in best:
        raise InvalidInput("no follower action admits a best-response region")
    return [StackelbergResult(value, x, f, Csp.outer(x, np.eye(b)[f])) for value, f, x in best]


def type_leader_values(game: BimatrixGame) -> Tuple[np.ndarray, List[Csp]]:
    """Per-type leader values with the opponent leading and the learner following.

    Returns (v, csps) where v[i] is type i's Stackelberg leader value and
    csps[i] is the induced profile re-expressed in standard (learner row,
    opponent column) indexing.
    """
    results = _leaders([game.u_O(i).T for i in range(game.k)], game.u_L.T)
    # Leader rows were opponent actions; transpose back to standard order.
    csps = [Csp(res.csp.weights.reshape(game.n, game.m).T.ravel()) for res in results]
    return np.array([res.value for res in results]), csps
