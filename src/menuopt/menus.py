"""Halfspace menus: regret polytopes, candidate menus, membership tests,
and a menu's learner value.

A menu is a convex set of correlated strategy profiles, represented here
as the intersection of the profile simplex with finitely many linear
inequalities normal . phi <= rhs.  Emptiness is a legal state.  Its value
to the learner (`eval_menu_value`) is the prior-weighted learner payoff of
each type's eps-relaxed pick from it (`type_picks`, the package's tie rule).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from . import lp
from .core import BimatrixGame, Csp, CspAssignment, bilinear_value
from .errors import EmptyMenu, InvalidInput, NumericalFailure


@dataclass(frozen=True)
class HalfspaceMenu:
    """normals (r, m*n) and rhs (r,), meaning normals @ phi <= rhs."""

    normals: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        normals = np.atleast_2d(np.array(self.normals, dtype=float))
        rhs = np.atleast_1d(np.array(self.rhs, dtype=float))
        if normals.shape[0] != rhs.shape[0]:
            raise InvalidInput("one rhs per constraint row required")
        if not (np.all(np.isfinite(normals)) and np.all(np.isfinite(rhs))):
            raise InvalidInput("menu constraints must be finite")
        normals.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "rhs", rhs)

    @staticmethod
    def unconstrained(dim: int) -> "HalfspaceMenu":
        return HalfspaceMenu(np.zeros((0, dim)), np.zeros(0))

    @property
    def n_constraints(self) -> int:
        return self.normals.shape[0]

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    def violation(self, w: np.ndarray) -> float:
        """max(0, worst constraint violation of the profile weights w)."""
        if self.n_constraints == 0:
            return 0.0
        return float(max(0.0, np.max(self.normals @ w - self.rhs)))

    def relaxed(self, eps: float) -> "HalfspaceMenu":
        return HalfspaceMenu(self.normals, self.rhs + eps)

    def to_json(self) -> str:
        return json.dumps(
            {
                "constraints": [
                    {"normal": n.tolist(), "rhs": float(r)}
                    for n, r in zip(self.normals, self.rhs)
                ]
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "HalfspaceMenu":
        try:
            doc = json.loads(text)
            rows = doc["constraints"]
            normals = np.array([c["normal"] for c in rows], dtype=float)
            rhs = np.array([c["rhs"] for c in rows], dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed menu document: {exc}") from exc
        if normals.size == 0:
            raise InvalidInput("menu document has no constraints; use unconstrained()")
        return HalfspaceMenu(normals, rhs)


def _deviation_gains(game: BimatrixGame) -> np.ndarray:
    """gains[i_star] is the flattened matrix u_L(i_star, j) - u_L(i, j)."""
    m, n = game.m, game.n
    gains = np.zeros((m, m * n))
    for i_star in range(m):
        g = game.u_L[i_star][None, :] - game.u_L  # (m, n)
        gains[i_star] = g.ravel()
    return gains


def no_regret_menu(game: BimatrixGame) -> HalfspaceMenu:
    """m constraints, one per learner deviation: gain of switching <= 0."""
    return HalfspaceMenu(_deviation_gains(game), np.zeros(game.m))


def no_regret_check(phi: Csp, game: BimatrixGame, tol: float = 1e-9) -> bool:
    return menu_violation(phi, no_regret_menu(game)) <= tol


def no_swap_regret_menu(game: BimatrixGame) -> HalfspaceMenu:
    """m(m-1) constraints: per played row i, no gain from swapping i -> i*."""
    m, n = game.m, game.n
    if m == 1:
        return HalfspaceMenu.unconstrained(n)
    normals = []
    for i in range(m):
        for i_star in range(m):
            if i_star == i:
                continue
            row = np.zeros((m, n))
            row[i] = game.u_L[i_star] - game.u_L[i]
            normals.append(row.ravel())
    return HalfspaceMenu(np.array(normals), np.zeros(m * (m - 1)))


def no_swap_regret_check(phi: Csp, game: BimatrixGame, tol: float = 1e-9) -> bool:
    return menu_violation(phi, no_swap_regret_menu(game)) <= tol


def candidate_menu(assign: CspAssignment, eps: float, game: BimatrixGame) -> HalfspaceMenu:
    """k constraints u_{O,i} . phi <= c_i, one per type.

    `rhs` holds the utility thresholds c_i = u_{O,i}(phi_i) + eps.
    """
    if eps < 0:
        raise InvalidInput("eps must be nonnegative")
    if len(assign) != game.k:
        raise InvalidInput("assignment size does not match the game")
    normals = np.array([game.u_O(i).ravel() for i in range(game.k)])
    rhs = np.array(
        [bilinear_value(game.u_O(i), assign[i]) + eps for i in range(game.k)]
    )
    return HalfspaceMenu(normals, rhs)


def incentive_rows(game: BimatrixGame) -> np.ndarray:
    """The k(k-1) incentive rows over k stacked profiles, in (i, j != i) order.

    Row (i, j) is u_{O,i} on block i minus u_{O,i} on block j, so
    row . phi >= 0 says that type i weakly prefers its own profile to j's.
    """
    k, mn = game.k, game.m * game.n
    rows = np.zeros((k * (k - 1), k * mn))
    pairs = [(i, j) for i in range(k) for j in range(k) if j != i]
    for row, (i, j) in zip(rows, pairs):
        u = game.u_O(i).ravel()
        row[i * mn : (i + 1) * mn] = u
        row[j * mn : (j + 1) * mn] -= u
    return rows


def type_picks(
    constraints: Sequence[lp.Row],
    type_objectives: Sequence[np.ndarray],
    learner_objective: np.ndarray,
    relax: float = 0.0,
) -> List[lp.LpSolution]:
    """Per type objective, the last stage of its list [type, learner] in one
    `lp.solve_lexicographic_each(lists, constraints, relax)`: the type's favourite
    point, tie broken for the learner among points within relax + TIE_SLACK of its top.
    """
    picks = []
    lists = [[obj, learner_objective] for obj in type_objectives]
    for stages in lp.solve_lexicographic_each(lists, constraints, relax):
        # Phase 1 ignores the objective, so a failed first stage means no point.
        if not stages[0].is_optimal:
            raise EmptyMenu("no point meets the menu's constraints")
        if not stages[-1].is_optimal:
            raise NumericalFailure("tie-breaking solve failed")
        picks.append(stages[-1])
    return picks


def eval_menu_value(menu: HalfspaceMenu, game: BimatrixGame, eps: float) -> float:
    """Learner value of a menu under eps-relaxed opponent best response:
    the prior-weighted learner payoff of each type's `type_picks` pick."""
    rows = [lp.simplex_row(game.m * game.n)]
    rows += [(normal, lp.LE, float(b)) for normal, b in zip(menu.normals, menu.rhs)]
    picks = type_picks(rows, game.opponent_payoffs.reshape(game.k, -1), game.u_L.ravel(), eps)
    return float(sum(alpha * pick.objective_value for alpha, pick in zip(game.alphas, picks)))


def response_satisfiable_at(
    menu: HalfspaceMenu, y: np.ndarray, game: BimatrixGame
) -> Optional[np.ndarray]:
    """Witness x with x (x) y inside the menu, or None if there is none."""
    y = np.asarray(y, dtype=float)
    if y.shape != (game.n,) or abs(y.sum() - 1.0) > 1e-9 or np.min(y) < -1e-12:
        raise InvalidInput("y must be a point of the opponent simplex")
    m, n = game.m, game.n
    cons = []
    for c in range(menu.n_constraints):
        # normal . (x (x) y) = x . (N @ y) for the reshaped normal N.
        w = menu.normals[c].reshape(m, n) @ y
        cons.append((w, lp.LE, float(menu.rhs[c])))
    cons.append(lp.simplex_row(m))
    sol = lp.solve_lp(lp.LinearProgram(np.zeros(m), cons))
    if not sol.is_optimal:
        return None
    return lp.normalized(sol.point)


def menu_violation(phi: Csp, menu: HalfspaceMenu) -> float:
    """max(0, worst constraint violation of phi); zero iff phi is inside."""
    if menu.n_constraints and menu.dim != phi.weights.size:
        raise InvalidInput("profile dimension does not match the menu")
    return menu.violation(phi.weights)
