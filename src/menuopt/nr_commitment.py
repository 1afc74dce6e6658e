"""Optimal commitment over no-regret play, as a single linear program.

The learner offers the no-swap-regret polytope plus one hand-picked
profile per opponent type.  The program maximizes the prior-weighted
learner value of the picked profiles subject to: each profile is
no-regret, each type weakly prefers its own profile to every other
type's, and each type values its profile at least at its Stackelberg
leader value (its best point of the no-swap-regret polytope).

This module and what it imports (`core`, `lp`, `menus`, `stackelberg`)
form the exact layer: none of them imports an approximate solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import lp
from .core import BimatrixGame, Csp, CspAssignment
from .errors import EmptyMenu
from .menus import HalfspaceMenu, eval_menu_value, incentive_rows, no_regret_menu, no_swap_regret_menu
from .stackelberg import type_leader_values


@dataclass(frozen=True)
class NoRegretCommitment:
    assignment: CspAssignment
    value: float
    nsr_menu: HalfspaceMenu
    extra_points: Tuple[Csp, ...]
    stackelberg_values: np.ndarray


def optimal_no_regret_commitment(game: BimatrixGame) -> NoRegretCommitment:
    """Solve for the best no-regret menu commitment.

    Always feasible: the per-type Stackelberg profiles satisfy every
    constraint.  Among value-optimal assignments, a second solve picks
    the one maximizing the opponents' own utilities, which makes the
    returned representative deterministic on degenerate faces.
    """
    k, mn = game.k, game.m * game.n
    d = k * mn
    v, _ = type_leader_values(game)
    nr = no_regret_menu(game)
    # per type: simplex, no-regret and floor rows; then the incentive rows
    cons = []
    for i in range(k):
        block = slice(i * mn, (i + 1) * mn)
        cons.append(lp.simplex_row(d, i * mn, (i + 1) * mn))
        for c in range(nr.n_constraints):
            row = np.zeros(d)
            row[block] = nr.normals[c]
            cons.append((row, lp.LE, float(nr.rhs[c])))
        row = np.zeros(d)
        row[block] = game.u_O(i).ravel()
        cons.append((row, lp.GE, float(v[i])))
    cons += [(row, lp.GE, 0.0) for row in incentive_rows(game)]
    obj = np.outer(game.alphas, game.u_L.ravel()).ravel()
    tie_obj = game.opponent_payoffs.ravel()
    stages = lp.solve_lexicographic([obj, tie_obj], cons)
    first = stages[0]
    if not first.is_optimal:
        raise lp.NumericalFailure(f"commitment program ended {first.status}")
    # A failed tie-break keeps the value-optimal first-stage point.
    point = stages[-1].point if stages[-1].is_optimal else first.point
    profiles = [Csp(lp.normalized(point[i * mn : (i + 1) * mn])) for i in range(k)]
    assignment = CspAssignment(tuple(profiles))
    return NoRegretCommitment(
        assignment=assignment,
        value=float(first.objective_value),
        nsr_menu=no_swap_regret_menu(game),
        extra_points=tuple(profiles),
        stackelberg_values=v,
    )


def nsr_baseline_value(game: BimatrixGame) -> float:
    """Learner value of committing to any no-swap-regret algorithm.

    This is the menu value of the no-swap-regret polytope at eps = 0
    (`eval_menu_value`): each type picks its favorite point there,
    breaking ties in the learner's favor.
    """
    try:
        return eval_menu_value(no_swap_regret_menu(game), game, 0.0)
    except EmptyMenu as exc:  # the no-swap-regret polytope is never empty
        raise lp.NumericalFailure("no-swap-regret polytope solve failed") from exc
