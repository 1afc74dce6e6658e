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
asks of that game and delta reuses it.  A net lives only as long as the
call that built it; nothing is cached across calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, comb
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


def halfspace_value(game: BimatrixGame, a: np.ndarray) -> Tuple[float, np.ndarray, np.ndarray]:
    """Forceable level of the direction-a halfspace, with both strategies.

    Returns (value, x, y) for the zero-sum game on M_a = sum_s a_s u_{O,s}
    with the learner minimizing; the halfspace {u : a . u <= b} can be
    forced iff value <= b.
    """
    a = np.asarray(a, dtype=float)
    if a.shape != (game.k,) or np.min(a) < -1e-12 or abs(a.sum() - 1.0) > 1e-9:
        raise InvalidInput("direction must lie on the type simplex")
    M_a = np.tensordot(a, game.opponent_payoffs, axes=(0, 0))
    return lp.zero_sum_value(M_a)


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
    solved by the simplex (`halfspace_value`) on first use and kept, so a
    solver that asks many verdicts of the same game solves each such game
    once.  Build one per solver call.
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
        points = direction_net(game.k, delta / (4.0 * game.p_max))
        return TesterNet(game, delta, points, _net_values(game, points))

    def slacks(self, c: np.ndarray) -> np.ndarray:
        """Per-direction pass margins a . c + delta/2 - value."""
        return self.points @ np.asarray(c, dtype=float) + self.delta / 2.0 - self.values

    def certificate(self, index: int) -> np.ndarray:
        """Opponent mix of the zero-sum game of direction `index`."""
        y = self.certificates.get(index)
        if y is None:
            y = self.certificates[index] = halfspace_value(self.game, self.points[index])[2]
        return y.copy()


def _net_for(game: BimatrixGame, delta: float, net: Optional[TesterNet]) -> TesterNet:
    if net is None:
        return TesterNet.build(game, delta)
    if net.game is not game or net.delta != delta:
        raise InvalidInput("tester net was built for another game or delta")
    return net


def verdict_for_thresholds(
    game: BimatrixGame, c: np.ndarray, delta: float, net: Optional[TesterNet] = None
) -> ApproachVerdict:
    """Tester core over raw per-type utility thresholds c.

    `net`, when given, must have been built for this game object and delta.
    """
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
    sum_i h_i (u_{O,i}(x, y*) - c_i).  A positive value (the margin)
    certifies the cut

        sum_i h_i u_{O,i}(phi'_i) >= offset = sum_i h_i c_i,

    which every assignment with a valid candidate menu satisfies with
    margin-sized slack while an assignment with thresholds c sits exactly
    on the boundary.
    Among optimal h the lexicographically largest (lowest index favored)
    is returned for determinism.
    """
    y = np.asarray(certificate_y, dtype=float)
    if y.shape != (game.n,):
        raise InvalidInput("certificate has wrong dimension")
    c = np.asarray(c, dtype=float)
    G = np.array([game.u_O(i) @ y - c[i] for i in range(game.k)])  # (k, m)
    neg_value, h, _ = lp.zero_sum_value(-G)
    margin = -neg_value
    if margin <= 1e-9:
        raise CertificateInvalid(f"certificate has non-positive margin {margin}")
    h = _lexicographic_h(G, margin)
    offset = float(h @ c)
    return h, offset, margin


def _lexicographic_h(G: np.ndarray, margin: float) -> np.ndarray:
    """Lexicographically refine h over {h in simplex : G^T h >= margin}."""
    k, m = G.shape
    cons = [lp.simplex_row(k)]
    for col in range(m):
        cons.append((G[:, col], lp.GE, margin - 1e-9))
    stages = lp.solve_lexicographic(list(np.eye(k)), cons)
    if not stages[0].is_optimal:
        raise CertificateInvalid("lexicographic refinement lost feasibility")
    if not stages[-1].is_optimal:
        raise NumericalFailure("lexicographic refinement lost feasibility")
    h = np.maximum(stages[-1].point, 0.0)
    return h / h.sum()


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


def min_positive_gap(u: np.ndarray) -> float:
    """Smallest gap between distinct entries of u; 1.0 if all entries tie."""
    vals = np.unique(np.asarray(u, dtype=float).ravel())
    if vals.size < 2:
        return 1.0
    return float(np.min(np.diff(vals)))
