from fractions import Fraction

import numpy as np
import pytest

from menuopt.core import BimatrixGame


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
