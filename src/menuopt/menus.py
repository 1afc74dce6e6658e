"""Halfspace menus: regret polytopes, candidate menus, and membership tests.

A menu is a convex set of correlated strategy profiles, represented here
as the intersection of the profile simplex with finitely many linear
inequalities normal . phi <= rhs.  Emptiness is a legal state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .core import BimatrixGame, Csp, CspAssignment, bilinear_value
from .errors import InvalidInput


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

    def stacked_with(self, other: "HalfspaceMenu") -> "HalfspaceMenu":
        return HalfspaceMenu(
            np.vstack([self.normals, other.normals]), np.concatenate([self.rhs, other.rhs])
        )

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


@dataclass(frozen=True)
class UtilitySet:
    """Downward-closed orthant {u in R^k : u_i <= thresholds_i}."""

    thresholds: np.ndarray

    def __post_init__(self):
        t = np.atleast_1d(np.array(self.thresholds, dtype=float))
        if not np.all(np.isfinite(t)):
            raise InvalidInput("thresholds must be finite")
        t.setflags(write=False)
        object.__setattr__(self, "thresholds", t)

    def contains(self, u: np.ndarray, tol: float = 0.0) -> bool:
        return bool(np.all(np.asarray(u) <= self.thresholds + tol))


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
    """k constraints u_{O,i} . phi <= u_{O,i}(phi_i) + eps."""
    if eps < 0:
        raise InvalidInput("eps must be nonnegative")
    if len(assign) != game.k:
        raise InvalidInput("assignment size does not match the game")
    normals = np.array([game.u_O(i).ravel() for i in range(game.k)])
    rhs = np.array(
        [bilinear_value(game.u_O(i), assign[i]) + eps for i in range(game.k)]
    )
    return HalfspaceMenu(normals, rhs)


def candidate_utility_set(assign: CspAssignment, eps: float, game: BimatrixGame) -> UtilitySet:
    """Per-type utility thresholds c_i = u_{O,i}(phi_i) + eps."""
    thresholds = np.array(
        [bilinear_value(game.u_O(i), assign[i]) + eps for i in range(game.k)]
    )
    return UtilitySet(thresholds)


def incentive_check(assign: CspAssignment, game: BimatrixGame, slack: float = 0.0) -> bool:
    """Does every type weakly prefer its own profile (up to slack)?"""
    if slack < 0:
        raise InvalidInput("slack must be nonnegative")
    vals = np.array(
        [
            [bilinear_value(game.u_O(i), assign[j]) for j in range(len(assign))]
            for i in range(game.k)
        ]
    )
    own = np.diag(vals)
    return bool(np.all(own[:, None] >= vals - slack))


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
    cons += lp.simplex_rows(m)
    sol = lp.solve_lp(lp.LinearProgram(np.zeros(m), cons))
    if not sol.is_optimal:
        return None
    x = np.maximum(sol.point, 0.0)
    return x / x.sum()


def menu_violation(phi: Csp, menu: HalfspaceMenu) -> float:
    """max(0, worst constraint violation of phi); zero iff phi is inside."""
    if menu.n_constraints and menu.dim != phi.weights.size:
        raise InvalidInput("profile dimension does not match the menu")
    return menu.violation(phi.weights)
