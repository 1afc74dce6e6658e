from fractions import Fraction
from typing import Tuple

import numpy as np
import pytest

from menuopt import lp
from menuopt.core import BimatrixGame, CspAssignment, bilinear_value
from menuopt.errors import InvalidInput
from menuopt.stackelberg import StackelbergResult, _leaders


# 3x2 running example: learner rows A, B, C; opponent columns R, S.
# Entries are (u_L, u_O) = A:(0,0),(3,1)  B:(7.1,0),(2.1,1)  C:(7,3),(1,0).
G1_UL = np.array([[0.0, 3.0], [7.1, 2.1], [7.0, 1.0]])
G1_UO = np.array([[0.0, 1.0], [0.0, 1.0], [3.0, 0.0]])

# Pair indices in the flattened row-major profile.
AR, AS, BR, BS, CR, CS = 0, 1, 2, 3, 4, 5

# Exact optimum of the no-regret commitment program on G1, proven by the
# primal/dual certificate in test_acceptance.py: the learner earns
# 969/140 = 193.8/28 with (A,S), (B,R), (C,R) mixed as 1/28, 18/28, 9/28.
G1_NR_VALUE = Fraction(969, 140)
G1_NR_WEIGHTS = (0, Fraction(1, 28), Fraction(18, 28), 0, Fraction(9, 28), 0)


@pytest.fixture(scope="session")
def g1() -> BimatrixGame:
    return BimatrixGame(G1_UL, ((G1_UO, 1.0),))


def random_game(rng: np.random.Generator, m: int, n: int, k: int) -> BimatrixGame:
    u_L = rng.uniform(-1.0, 1.0, size=(m, n))
    alphas = rng.dirichlet(np.ones(k))
    types = tuple(
        (rng.uniform(-1.0, 1.0, size=(m, n)), float(a)) for a in alphas
    )
    return BimatrixGame(u_L, types)


def scaled(game: BimatrixGame, s: float) -> BimatrixGame:
    """game with every payoff multiplied by s."""
    return BimatrixGame(game.u_L * s, tuple((u * s, alpha) for u, alpha in game.types))


def same_bits(a, b) -> bool:
    """Two `LpSolution`s with the same status, and byte for byte the same
    value, point and dual."""
    arrays = [(x.point, x.dual) if x.point is not None else () for x in (a, b)]
    return (a.status == b.status
            and np.float64(a.objective_value).tobytes() == np.float64(b.objective_value).tobytes()
            and [v.tobytes() for v in arrays[0]] == [v.tobytes() for v in arrays[1]])


def random_csp(rng: np.random.Generator, mn: int):
    from menuopt.core import Csp

    return Csp(rng.dirichlet(np.ones(mn)))


def random_tester_instance(rng: np.random.Generator, m: int, n: int, k: int, style: int):
    """A random game and one of four kinds of assignment to test.

    Styles: 0 independent random profiles, 1 a threshold assignment at a
    random level, 2 each type's favourite pure pair, 3 one random profile
    shared by every type.
    """
    from menuopt.core import Csp, CspAssignment
    from menuopt.maximin import threshold_assignment

    game = random_game(rng, m, n, k)
    if style == 0:
        assign = CspAssignment(tuple(random_csp(rng, m * n) for _ in range(k)))
    elif style == 1:
        V = float(rng.uniform(np.min(game.u_L), np.max(game.u_L)))
        assign = threshold_assignment(game, V)
    elif style == 2:
        profiles = []
        for i in range(k):
            w = np.zeros(m * n)
            w[int(np.argmax(game.u_O(i).ravel()))] = 1.0
            profiles.append(Csp(w))
        assign = CspAssignment(tuple(profiles))
    else:
        base = random_csp(rng, m * n)
        assign = CspAssignment(tuple(base for _ in range(k)))
    return game, assign


def duality_gap(prog: lp.LinearProgram, sol: lp.LpSolution) -> float:
    """|primal - dual| objective gap of a certified optimal solution."""
    if not sol.is_optimal:
        raise InvalidInput("duality gap is defined for optimal solutions only")
    b = lp._materialize_rows(prog)[3]
    return abs(float(sol.dual @ b) - sol.objective_value)


def min_positive_gap(u: np.ndarray) -> float:
    """Smallest gap between distinct entries of u; 1.0 if all entries tie."""
    vals = np.unique(np.asarray(u, dtype=float).ravel())
    if vals.size < 2:
        return 1.0
    return float(np.min(np.diff(vals)))


# Reference spellings of what the solvers compute inline: one direction's
# halfspace game valued by the simplex, a boolean incentive check, and one
# leader's Stackelberg outcome.


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


def stackelberg_leader(
    leader_payoff: np.ndarray, follower_payoff: np.ndarray
) -> StackelbergResult:
    """Leader commits to a mix over rows; follower best-responds by column.

    Ties among equally good follower columns are broken by the lowest
    column index.  Columns that are never a best response yield an
    infeasible subproblem and are skipped.
    """
    return _leaders([leader_payoff], follower_payoff)[0]
