"""Approachability testing for candidate menus, cuts, and mass repair.

The tester works in utility space: a candidate menu with per-type
thresholds c is a valid menu iff the downward-closed orthant
{u : u_i <= c_i} can be forced by the learner, which holds iff every
supporting halfspace (direction a in the k-simplex) satisfies
min_x max_y sum_s a_s u_{O,s}(x, y) <= a . c.  A finite direction net
makes the check decidable up to an additive delta:

  * net spacing is delta / (4 * p_max) in L1 and the pass margin is
    delta / 2.  The map a -> (value - a . c) is 2 * p_max-Lipschitz in
    L1, so a direction violated by more than delta implies some net
    direction violated by more than delta / 2;
  * all net directions passing therefore certifies that the menu with
    thresholds c + delta is valid ("approachable after expansion");
  * a failing net direction yields an opponent mix y* under which no
    learner response lands inside the menu, a sound invalidity proof.

The net values do not depend on the thresholds c, so a `TesterNet`
evaluates them once for a (game, delta) and every verdict that a solver
asks of that game and delta reuses it.  A net lives as long as its
holder: a solver call, or a maximin aborter adversary, which keeps one
net across every run on the same game; there is no module-level cache.

A refuting direction's opponent mix y comes from `lp.maximizer_mix`, in
closed form when the game has two rows or two columns.  It becomes a
cut by Blackwell's separation argument: the zero-sum game between type
weights h and the learner under the refuting y.  At k <= 2 that game has
at most two rows and is solved in closed form too, so a k <= 2 search on
a game with m = 2 or n = 2 runs no simplex.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, comb, isfinite
from typing import Dict, Optional, Tuple

import numpy as np

from . import lp
from .core import BimatrixGame, Csp, CspAssignment
from .errors import CertificateInvalid, GridTooLarge, InvalidInput, NumericalFailure
from .menus import candidate_menu

_NET_CAP = 2_000_000  # refuse absurd nets instead of hanging
_NET_CHUNK = 65_536  # directions valued at once, so temporaries do not grow with the net


def simplex_lattice(dim: int, denominator: int) -> np.ndarray:
    """All points of the dim-simplex with coordinates in multiples of 1/D.

    Rows are ordered lexicographically by composition, largest first in
    the leading coordinate, so grids and certificates are reproducible.
    """
    if dim < 1 or denominator < 1:
        raise InvalidInput("dimension and denominator must be positive")
    count = comb(denominator + dim - 1, dim - 1)
    if count > _NET_CAP:
        raise GridTooLarge(f"lattice would have {count} points")
    # Expand one coordinate at a time: each prefix row with `rem` left over
    # becomes rem + 1 rows taking rem, rem - 1, ..., 0 next, in that order.
    prefix = np.zeros((1, 0), dtype=np.int64)
    rem = np.array([denominator], dtype=np.int64)
    for _ in range(dim - 1):
        reps = rem + 1
        parent = np.repeat(np.arange(rem.size), reps)
        taken = rem[parent] - (np.arange(parent.size) - np.repeat(np.cumsum(reps) - reps, reps))
        prefix = np.column_stack([prefix[parent], taken])
        rem = rem[parent] - taken
    out = np.column_stack([prefix, rem])
    return out / denominator


def direction_net(dim: int, spacing: float) -> np.ndarray:
    """Points of a finite cover of the dim-simplex with L1 mesh at most `spacing`."""
    if spacing <= 0:
        raise InvalidInput("net spacing must be positive")
    if dim == 1:
        return np.ones((1, 1))
    # Largest-remainder rounding onto the lattice with denominator D has
    # worst-case L1 error 2*floor(dim/2)*ceil(dim/2)/(dim*D).
    worst = 2 * (dim // 2) * ((dim + 1) // 2) / dim
    D = max(1, ceil(worst / spacing))
    return simplex_lattice(dim, D)


@dataclass(frozen=True)
class ApproachVerdict:
    """Either "the delta-expanded menu is forceable" or a refutation.

    When not approachable, `direction` is the violated supporting
    direction and `certificate_y` an opponent mix with
    u(x, y) outside the menu for every learner x.
    """

    approachable: bool
    delta: float
    direction: Optional[np.ndarray] = None
    certificate_y: Optional[np.ndarray] = None

    @property
    def outcome(self) -> str:
        return f"ApproachableExpanded({self.delta})" if self.approachable else "NotApproachable"


def _net_values(game: BimatrixGame, directions: np.ndarray) -> np.ndarray:
    """min_x max_y values of M_a for every direction row.

    The games M_a are formed and valued by `lp.zero_sum_values` one chunk
    of `_NET_CHUNK` directions at a time, so memory beyond the returned
    values is bounded by the chunk, not the net.
    """
    values = np.empty(len(directions))
    for lo in range(0, len(directions), _NET_CHUNK):
        chunk = slice(lo, lo + _NET_CHUNK)
        stack = np.tensordot(directions[chunk], game.opponent_payoffs, axes=(1, 0))  # (chunk, m, n)
        values[chunk] = lp.zero_sum_values(stack)
    return values


@dataclass(frozen=True, eq=False)
class TesterNet:
    """The direction net of one (game, delta) with every direction's value.

    The values come from `lp.zero_sum_values`, certified but without a
    simplex per direction.  The certificate y of a refuting direction is
    the maximizer's mix of M_a (`lp.maximizer_mix`: in closed form when
    m = 2 or n = 2, by the simplex otherwise), solved on first use and
    kept, so a solver that asks many verdicts of the same game solves each
    such game once.  A net lives as long as its holder, a solver call or a
    maximin aborter adversary (one net for all its runs on the same game).
    """

    game: BimatrixGame
    delta: float
    points: np.ndarray
    values: np.ndarray
    certificates: Dict[int, np.ndarray] = field(default_factory=dict, repr=False)
    __test__ = False  # not a pytest case, despite the name

    @staticmethod
    def build(game: BimatrixGame, delta: float) -> "TesterNet":
        if not (0 < delta < np.inf):
            raise InvalidInput("delta must be positive and finite")
        points = direction_net(game.k, delta / (4.0 * game.p_max) if game.p_max else np.inf)
        return TesterNet(game, delta, points, _net_values(game, points))

    def slacks(self, c: np.ndarray) -> np.ndarray:
        """Per-direction pass margins a . c + delta/2 - value."""
        return self.points @ np.asarray(c, dtype=float) + self.delta / 2.0 - self.values

    def certificate(self, index: int) -> np.ndarray:
        """Opponent mix of the zero-sum game of direction `index`."""
        y = self.certificates.get(index)
        if y is None:
            M_a = np.tensordot(self.points[index], self.game.opponent_payoffs, axes=(0, 0))
            y = self.certificates[index] = lp.maximizer_mix(M_a)
        return y.copy()


def _net_for(game: BimatrixGame, delta: float, net: Optional[TesterNet]) -> TesterNet:
    if net is None:
        return TesterNet.build(game, delta)
    if net.game is not game or net.delta != delta:
        raise InvalidInput("tester net was built for another game or delta")
    return net


def _thresholds(game: BimatrixGame, c: np.ndarray) -> np.ndarray:
    """c as a float array, or InvalidInput unless it holds one finite entry per type."""
    c = np.asarray(c, dtype=float)
    if c.shape != (game.k,) or not all(map(isfinite, c.tolist())):
        raise InvalidInput(f"thresholds must be a finite vector of length {game.k}")
    return c


def verdict_for_thresholds(
    game: BimatrixGame, c: np.ndarray, delta: float, net: Optional[TesterNet] = None
) -> ApproachVerdict:
    """Tester core over raw per-type utility thresholds c.

    c must be a finite vector of one threshold per type; a NaN would
    compare as no violation and pass.  `net`, when given, must have been
    built for this game object and delta.
    """
    c = _thresholds(game, c)
    net = _net_for(game, delta, net)
    bad = np.nonzero(net.slacks(c) < -1e-12)[0]
    if bad.size == 0:
        return ApproachVerdict(True, delta)
    i = int(bad[0])
    return ApproachVerdict(False, delta, direction=net.points[i].copy(), certificate_y=net.certificate(i))


def test_assignment_valid(
    assign: CspAssignment,
    game: BimatrixGame,
    delta: float,
    net: Optional[TesterNet] = None,
) -> ApproachVerdict:
    """Decide approximately whether the candidate menu of `assign` is valid.

    Passing certifies that the eps=delta candidate menu is a valid menu;
    failing returns the first violated net direction (in net order) plus
    its opponent certificate.
    """
    c = candidate_menu(assign, 0.0, game).rhs
    return verdict_for_thresholds(game, c, delta, net)


test_assignment_valid.__test__ = False  # not a pytest case, despite the name


def separator_for_thresholds(
    game: BimatrixGame, c: np.ndarray, certificate_y: np.ndarray
) -> Tuple[np.ndarray, float, float]:
    """Turn an invalidity certificate into a cut on per-type thresholds.

    Solves the zero-sum game between a type-weight vector h on the
    k-simplex and a learner mix x with payoff
    sum_i h_i (u_{O,i}(x, y*) - c_i) = h . G x.  A positive value (the
    margin) certifies the cut

        sum_i h_i u_{O,i}(phi'_i) >= offset = sum_i h_i c_i,

    which every assignment with a valid candidate menu satisfies with
    margin-sized slack while an assignment with thresholds c sits exactly
    on the boundary.
    Among optimal h the lexicographically largest (lowest index favored)
    is returned for determinism.  The margin is min_r G[0, r] at k = 1,
    `lp.minmax_2_by_cols` at k = 2 and the simplex at k >= 3.  Thresholds
    that are not one finite number per type, a certificate off the
    opponent's simplex (entries summing to 1 within 1e-9, none below
    -1e-12) and any margin not above 1e-9 are refused.
    """
    y = np.asarray(certificate_y, dtype=float)
    if y.shape != (game.n,):
        raise InvalidInput("certificate has wrong dimension")
    ys = y.tolist()
    # sum within 1e-9 of 1, entries >= -1e-12; a NaN or infinite entry
    # makes the sum NaN or infinite, so the sum test refuses it too
    if not (abs(sum(ys) - 1.0) <= 1e-9 and min(ys) >= -1e-12):
        raise InvalidInput("certificate must lie on the opponent's simplex")
    c = _thresholds(game, c)
    G = np.array([game.u_O(i) @ y - c[i] for i in range(game.k)])  # (k, m)
    if game.k == 1:
        margin = float(np.min(G))
    elif game.k == 2:
        margin = -lp.minmax_2_by_cols(-G)[0]
    else:
        margin = -lp.zero_sum_value(-G)[0]
    if not margin > 1e-9:  # a NaN margin is no margin
        raise CertificateInvalid(f"certificate has non-positive margin {margin}")
    h = _lexicographic_h(G, margin)
    offset = float(h @ c)
    return h, offset, margin


def _lexicographic_h(G: np.ndarray, margin: float) -> np.ndarray:
    """Lexicographically refine h over {h in simplex : G^T h >= margin - 1e-9}.

    At k = 2 the rows cut h = (t, 1 - t) to t in [lo, hi], and the two
    stages of `lp.solve_lexicographic` pick t = max(lo, hi - TIE_SLACK).
    """
    k, m = G.shape
    if k == 1:
        return np.ones(1)
    if k == 2:
        lo, hi = 0.0, 1.0
        for top, bottom in zip(*G.tolist()):
            slope, need = top - bottom, margin - 1e-9 - bottom  # slope * t >= need
            if slope > 0:
                lo = max(lo, need / slope)
            elif slope < 0:
                hi = min(hi, need / slope)
            elif need > 0:
                lo = np.inf  # a level column below the margin
        if lo > hi:
            raise CertificateInvalid("lexicographic refinement lost feasibility")
        t = max(lo, hi - lp.TIE_SLACK)
        return np.array([t, 1.0 - t])
    cons = [lp.simplex_row(k)]
    for col in range(m):
        cons.append((G[:, col], lp.GE, margin - 1e-9))
    stages = lp.solve_lexicographic(list(np.eye(k)), cons)
    if not stages[0].is_optimal:
        raise CertificateInvalid("lexicographic refinement lost feasibility")
    if not stages[-1].is_optimal:
        raise NumericalFailure("lexicographic refinement lost feasibility")
    return lp.normalized(stages[-1].point)


def water_fill_repair(
    assign: CspAssignment, game: BimatrixGame, eps: float
) -> CspAssignment:
    """Shift up to eps/k mass per type onto its favorite pure pair.

    For each type, mass is drained from pairs in increasing order of that
    type's payoff (never below zero) and deposited on the argmax pair,
    raising the type's own threshold and hence only relaxing its
    candidate-menu constraint.
    """
    if not (0.0 < eps <= 1.0):
        raise InvalidInput("eps must lie in (0, 1]")
    if len(assign) != game.k:
        raise InvalidInput("assignment size does not match the game")
    budget = eps / game.k
    repaired = []
    for i in range(game.k):
        u = game.u_O(i).ravel()
        w = assign[i].weights.copy()
        top = int(np.lexsort((np.arange(u.size), -u))[0])  # argmax, lowest index
        order = np.lexsort((np.arange(u.size), u))  # increasing u, then index
        moved = 0.0
        for j in order:
            if j == top:
                continue
            if moved >= budget - 1e-15:
                break
            take = min(w[j], budget - moved)
            w[j] -= take
            moved += take
        w[top] += moved
        repaired.append(Csp(w))
    return CspAssignment(tuple(repaired))
