"""Optimal commitment over no-regret play, as a single linear program.

The learner offers the no-swap-regret polytope plus one hand-picked
profile per opponent type.  The program maximizes the prior-weighted
learner value of the picked profiles subject to: each profile is
no-regret, each type weakly prefers its own profile to every other
type's, and each type values its profile at least at its Stackelberg
leader value (its best point of the no-swap-regret polytope).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import lp
from .core import BimatrixGame, Csp, CspAssignment
from .errors import EmptyMenu, InvalidInput
from .general_commitment import eval_menu_value
from .menus import HalfspaceMenu, no_regret_menu, no_swap_regret_menu
from .stackelberg import type_leader_values


@dataclass(frozen=True)
class NoRegretCommitment:
    assignment: CspAssignment
    value: float
    nsr_menu: HalfspaceMenu
    extra_points: Tuple[Csp, ...]
    stackelberg_values: np.ndarray


def _assignment_lp_rows(game: BimatrixGame, v: np.ndarray):
    """Shared constraint rows over the k*m*n assignment variables."""
    k, mn = game.k, game.m * game.n
    d = k * mn
    nr = no_regret_menu(game)
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
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            row = np.zeros(d)
            row[i * mn : (i + 1) * mn] = game.u_O(i).ravel()
            row[j * mn : (j + 1) * mn] -= game.u_O(i).ravel()
            cons.append((row, lp.GE, 0.0))
    return cons


def optimal_no_regret_commitment(
    game: BimatrixGame, objective: str = "expected"
) -> NoRegretCommitment:
    """Solve for the best no-regret menu commitment.

    Always feasible: the per-type Stackelberg profiles satisfy every
    constraint.  Among value-optimal assignments, a second solve picks
    the one maximizing the opponents' own utilities, which makes the
    returned representative deterministic on degenerate faces.

    `objective="worst_case"` swaps the prior-weighted learner value for
    the minimum over types (epigraph formulation); the feasible set is
    identical.
    """
    k, mn = game.k, game.m * game.n
    d = k * mn
    v, _ = type_leader_values(game)
    cons = _assignment_lp_rows(game, v)
    obj = np.zeros(d)
    for i in range(k):
        obj[i * mn : (i + 1) * mn] = game.alphas[i] * game.u_L.ravel()

    if objective == "worst_case":
        # free epigraph variable t <= u_L(phi_i) for every type; maximize t
        cons_t = [(np.concatenate([row, [0.0]]), rel, rhs) for row, rel, rhs in cons]
        for i in range(k):
            row = np.zeros(d + 1)
            row[i * mn : (i + 1) * mn] = game.u_L.ravel()
            row[-1] = -1.0
            cons_t.append((row, lp.GE, 0.0))
        obj_t = np.zeros(d + 1)
        obj_t[-1] = 1.0
        first = lp.solve_lp(lp.LinearProgram(obj_t, cons_t, [(0, None)] * d + [(None, None)]))
        if not first.is_optimal:
            raise lp.NumericalFailure(f"commitment program ended {first.status}")
        point = first.point[:d]
        value = first.objective_value
    elif objective == "expected":
        tie_obj = np.zeros(d)
        for i in range(k):
            tie_obj[i * mn : (i + 1) * mn] = game.u_O(i).ravel()
        stages = lp.solve_lexicographic([obj, tie_obj], cons)
        first = stages[0]
        if not first.is_optimal:
            raise lp.NumericalFailure(f"commitment program ended {first.status}")
        value = first.objective_value
        # A failed tie-break keeps the value-optimal first-stage point.
        point = stages[-1].point if stages[-1].is_optimal else first.point
    else:
        raise InvalidInput(f"unknown objective {objective!r}")
    profiles = []
    for i in range(k):
        w = np.maximum(point[i * mn : (i + 1) * mn], 0.0)
        profiles.append(Csp(w / w.sum()))
    assignment = CspAssignment(tuple(profiles))
    return NoRegretCommitment(
        assignment=assignment,
        value=float(value),
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
