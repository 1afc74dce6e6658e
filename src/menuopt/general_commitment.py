"""Approximately optimal unconstrained commitment via ellipsoid cuts.

The search runs over per-type profile assignments in R^{k*m*n}.  The
feasible region is the incentive-compatible set intersected with the
assignments whose candidate menu is a valid menu; the latter is accessed
only through the approachability tester, whose invalidity certificates
convert into separating hyperplanes.  Central-cut ellipsoid iterations
shrink the localization set until its objective range is below eps/2.
The constant cut normals are built once per call; P starts as k*I and
each update computes its (i, j) and (j, i) entries from the same
operands, so P stays exactly symmetric without re-symmetrising.
When u_L is all 0 the objective is constant, and the first centre that
passes every check ends the search.  To value the returned menu, use
`menus.eval_menu_value`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from . import lp
from .approachability import (
    TesterNet,
    separator_for_thresholds,
    test_assignment_valid,
    verdict_for_thresholds,
    water_fill_repair,
)
from .core import BimatrixGame, Csp, CspAssignment, assignment_value
from .errors import InvalidInput
from .menus import HalfspaceMenu, candidate_menu, incentive_rows

_EQ_TOL_FRACTION = 0.01  # relax the simplex and IC rows by eps/100


@dataclass(frozen=True)
class GeneralCommitment:
    assignment: CspAssignment
    menu: HalfspaceMenu
    extra_points: Tuple[Csp, ...]
    value_lower_bound: float
    converged: bool
    iterations: int
    verdict_approachable: bool


def _clean_assignment(vec: np.ndarray, k: int) -> CspAssignment:
    mn = vec.size // k
    profiles = []
    for i in range(k):
        w = np.maximum(vec[i * mn : (i + 1) * mn], 0.0)
        s = w.sum()
        w = np.full(mn, 1.0 / mn) if s <= 0 else w / s
        profiles.append(Csp(w))
    return CspAssignment(tuple(profiles))


def optimize_general(
    game: BimatrixGame,
    eps: float,
    delta: Optional[float] = None,
    max_iters: Optional[int] = None,
    on_cut=None,
) -> GeneralCommitment:
    """Search the valid incentive-compatible assignments for learner value.

    Returns the best assignment found, its eps-relaxed candidate menu
    (with the assigned profiles as explicit extra points), and a lower
    bound on the achievable learner value; `converged` is False when the
    iteration cap ended the search early, in which case best-so-far is
    still returned.
    """
    if not (0 < eps < np.inf):
        raise InvalidInput("eps must be positive and finite")
    mn = game.m * game.n
    if delta is None:
        delta = eps / (8.0 * np.sqrt(mn))
    if delta > eps / 4.0 * (1.0 + 1e-9):
        raise InvalidInput("delta must be at most eps/4")
    k = game.k
    d = k * mn
    if max_iters is None:
        max_iters = int(400 * d * max(1.0, np.log10(max(10.0, game.p_max / eps))) + 2000)
    elif max_iters < 1:
        raise InvalidInput("max_iters must be at least 1")
    # relaxation of the simplex and incentive rows; scaled so that cleaning
    # the final point moves utilities by well under eps
    tol = eps * _EQ_TOL_FRACTION / (max(1.0, game.p_max) * (mn + 1))

    center = np.full(d, 1.0 / mn)
    P = float(k) * np.eye(d)  # ball of radius sqrt(k) covers the whole domain
    obj = np.outer(game.alphas, game.u_L.ravel()).ravel()
    # with u_L = 0 every valid assignment is optimal and the objective cut
    # would be the zero vector, so the first passing centre ends the search
    flat = not np.any(obj)

    uo_flat = np.array([game.u_O(i).ravel() for i in range(k)])
    # the cut normals that stay fixed during the search, signed for the
    # central cut below
    sum_rows = np.kron(np.eye(k), np.ones(mn))  # row i is 1 on block i
    neg_sum_rows, neg_units, neg_obj = -sum_rows, -np.eye(d), -obj
    neg_ic_rows = -incentive_rows(game)  # in ic_gap's (i, j != i) order
    net = TesterNet.build(game, delta)  # shared by every verdict below
    best_vec: Optional[np.ndarray] = None
    best_val = -np.inf
    converged = False
    iters = 0
    if mn == 1:
        # every type's only profile is the single pair; there is nothing to
        # search, and at k = 1 the ellipsoid update would divide by d*d - 1 = 0
        best_vec, converged, max_iters = np.ones(d), True, 0
    else:
        # the update's constants: P <- d²/(d²-1) (P - 2/(d+1) g g^T), x <- x - g/(d+1)
        dd1, two_d1, d1 = d * d / (d * d - 1.0), 2.0 / (d + 1.0), d + 1.0

    for iters in range(1, max_iters + 1):
        # the block-sum, sign and IC checks read Python lists; max, min and
        # index keep argmax's and argmin's first-index tie rule
        blocks = center.reshape(k, mn)
        sums = np.add.reduce(blocks, axis=1).tolist()
        negs = np.minimum.reduce(blocks, axis=1).tolist()
        off = [abs(s - 1.0) for s in sums]
        if max(off) > tol:
            i = off.index(max(off))
            cut = neg_sum_rows[i] if sums[i] < 1.0 else sum_rows[i]
        elif min(negs) < -tol:
            i = negs.index(min(negs))
            cut = neg_units[i * mn + blocks[i].tolist().index(negs[i])]
        else:
            own = (uo_flat @ blocks.T).tolist()  # own[i][j] = u_{O,i}(phi_j)
            ic_gap = [row[i] - x for i, row in enumerate(own) for j, x in enumerate(row) if j != i]
            if min(ic_gap, default=0.0) < -tol:
                cut = neg_ic_rows[ic_gap.index(min(ic_gap))]
            else:
                # thresholds are linear in the raw center, so the tester and
                # the separator run on it directly; cuts then pass exactly
                # through the queried point
                c_raw = np.einsum("ij,ij->i", uo_flat, blocks)
                verdict = verdict_for_thresholds(game, c_raw, delta, net)
                if verdict.approachable:
                    val = float(obj @ center)
                    if val > best_val:
                        best_val = val
                        best_vec = center.copy()
                    if flat:
                        converged = True
                        break
                    cut = neg_obj
                else:
                    h, offset, margin = separator_for_thresholds(
                        game, c_raw, verdict.certificate_y
                    )
                    a = (h[:, None] * uo_flat).ravel()
                    if on_cut is not None:
                        on_cut(center.copy(), a.copy(), offset, margin)
                    cut = -a

        # central cut keeping {x : cut . x <= cut . center}
        Pa = P @ cut
        denom = float(cut @ Pa)
        if not 0.0 < denom < np.inf:
            raise lp.NumericalFailure("ellipsoid collapsed")
        g = Pa / math.sqrt(denom)
        center = center - g / d1
        P = dd1 * (P - two_d1 * np.multiply.outer(g, g))
        if best_vec is not None:
            spread = math.sqrt(max(0.0, float(obj @ P @ obj)))
            if float(obj @ center) + spread - best_val <= eps / 2.0:
                converged = True
                break

    if best_vec is None:
        # cap hit before any feasible point: fall back to the always-valid
        # per-type-favorite assignment, whose candidate menu is everything
        profiles = []
        for i in range(k):
            top = int(np.argmax(uo_flat[i]))
            w = np.zeros(mn)
            w[top] = 1.0
            profiles.append(Csp(w))
        assign = CspAssignment(tuple(profiles))
        converged = False
    else:
        assign = _clean_assignment(best_vec, k)

    verdict = test_assignment_valid(assign, game, delta, net)
    if not verdict.approachable:
        assign = water_fill_repair(assign, game, min(1.0, eps))
        verdict = test_assignment_valid(assign, game, delta, net)
    menu = candidate_menu(assign, eps, game)
    return GeneralCommitment(
        assignment=assign,
        menu=menu,
        extra_points=tuple(assign.profiles),
        value_lower_bound=float(assignment_value(game, assign)),
        converged=converged,
        iterations=iters,
        verdict_approachable=bool(verdict.approachable),
    )
