"""Independent grid-search oracles for validating the solvers at desk scale.

Everything here enumerates lattices; nothing reuses a solver's own
optimization path, so these values are usable as ground truth (up to
their stated resolution slack) in tests.
"""

from __future__ import annotations

from math import comb
from typing import Optional, Tuple

import numpy as np

from .approachability import TesterNet, simplex_lattice, test_assignment_valid
from .core import BimatrixGame, CspAssignment
from .errors import GridTooLarge, InvalidInput
from .maximin import threshold_assignment
from .menus import candidate_menu, no_regret_menu, response_satisfiable_at
from .stackelberg import type_leader_values

_GRID_CAP = 10_000_000


def _lattice_denominator(resolution: float) -> int:
    if not (0 < resolution <= 1):
        raise InvalidInput("resolution must lie in (0, 1]")
    return max(1, int(round(1.0 / resolution)))


def grid_bruteforce_nr(game: BimatrixGame, resolution: float) -> float:
    """Best lattice assignment passing the no-regret commitment filters.

    Every filter matches the solver's constraint set up to float slack
    (1e-9), so every admitted lattice assignment is feasible for the
    solver and the solver's value must dominate this one.
    """
    D = _lattice_denominator(resolution)
    mn = game.m * game.n
    n_points = comb(D + mn - 1, mn - 1)
    if n_points**game.k > _GRID_CAP:
        raise GridTooLarge(f"{n_points}^{game.k} assignments exceed the cap")
    v, anchors = type_leader_values(game)
    # The per-type leader profiles are always filter-feasible, so the
    # enumeration set is never empty even at coarse resolutions.
    pts = np.vstack([simplex_lattice(mn, D)] + [a.weights for a in anchors])
    nr = no_regret_menu(game)
    nr_ok = np.max(pts @ nr.normals.T - nr.rhs, axis=1) <= 1e-9
    u_L_vals = pts @ game.u_L.ravel()
    u_O_vals = np.stack([pts @ game.u_O(i).ravel() for i in range(game.k)])
    cand = [np.nonzero(nr_ok & (u_O_vals[i] >= v[i] - 1e-9))[0] for i in range(game.k)]
    if any(c.size == 0 for c in cand):
        raise GridTooLarge("no lattice point passes the per-type filters")
    alphas = game.alphas
    if game.k == 1:
        return float(alphas[0] * np.max(u_L_vals[cand[0]]))
    if game.k == 2:
        a_idx, b_idx = cand
        best = -np.inf
        chunk = max(1, _GRID_CAP // max(1, b_idx.size) // 8)
        for start in range(0, a_idx.size, chunk):
            a_sel = a_idx[start : start + chunk]
            # incentive compatibility both ways, broadcast (A_chunk, B)
            ok = (u_O_vals[0][a_sel][:, None] >= u_O_vals[0][b_idx][None, :] - 1e-9) & (
                u_O_vals[1][b_idx][None, :] >= u_O_vals[1][a_sel][:, None] - 1e-9
            )
            vals = alphas[0] * u_L_vals[a_sel][:, None] + alphas[1] * u_L_vals[b_idx][None, :]
            vals = np.where(ok, vals, -np.inf)
            m = float(vals.max(initial=-np.inf))
            best = max(best, m)
        if not np.isfinite(best):
            raise GridTooLarge("no incentive-compatible lattice pair found")
        return best
    raise GridTooLarge("grid oracle supports at most two types")


def grid_menu_validity(
    assign: CspAssignment,
    game: BimatrixGame,
    y_resolution: float,
    eps: float = 0.0,
) -> Tuple[bool, Optional[np.ndarray]]:
    """Sampled response-satisfiability of the candidate menu of `assign`.

    Checks every opponent mix on a y-lattice; returns (True, None) when
    all succeed (grid-level evidence only) or (False, y) with the first
    failing mix (a sound invalidity certificate).  `eps` relaxes the
    candidate thresholds, matching the claim made by a passing
    approachability verdict at that same eps.
    """
    D = _lattice_denominator(y_resolution)
    if comb(D + game.n - 1, game.n - 1) > _GRID_CAP:
        raise GridTooLarge("opponent grid exceeds the cap")
    menu = candidate_menu(assign, eps, game)
    for y in simplex_lattice(game.n, D):
        if response_satisfiable_at(menu, y, game) is None:
            return False, y
    return True, None


def grid_maximin_opt(game: BimatrixGame, resolution: float, delta: float) -> float:
    """Descending scan for the highest certified-approachable value level.

    Returns the largest lattice V whose level-set assignment passes the
    approachability tester, raised to the floor min(u_L) when the scan
    steps past it; lower-bounds the true maximin optimum up to resolution
    plus tester slack. `resolution` is a step in payoff units, so it must
    be finite and positive but may exceed 1.
    """
    if not (np.isfinite(resolution) and resolution > 0):
        raise InvalidInput("resolution must be finite and positive")
    if game.m * game.n > 4 or game.k > 2:
        raise GridTooLarge("maximin oracle is restricted to tiny instances")
    hi = float(np.max(game.u_L))
    lo = float(np.min(game.u_L))
    steps = int(np.ceil((hi - lo) / resolution)) + 1
    if steps > 100_000:
        raise GridTooLarge("value grid exceeds the cap")
    net = TesterNet.build(game, delta)
    for s in range(steps + 1):
        V = hi - s * resolution
        assign = threshold_assignment(game, min(V, hi))
        if test_assignment_valid(assign, game, delta, net).approachable:
            return float(max(V, lo))
    return lo
