"""Programs on which the LP kernel has failed, checked against scipy's HiGHS.

Each entry is a `commit-nr` game, `random_game(default_rng(seed), m, n, k)`
from conftest.py, on which the kernel once ended the commitment program
"infeasible" or hit a singular basis while HiGHS solved it.  The reference
program is built here from its definition: per type i a profile phi_i on
the m*n simplex with no learner regret, type i's Stackelberg leader value
v_i at least, and no gain from taking another type's profile.  A marked
entry still fails; the kernel change that mends it removes its marker.
"""

import numpy as np
import pytest

from conftest import random_game
from menuopt.errors import NumericalFailure
from menuopt.nr_commitment import optimal_no_regret_commitment

scipy_opt = pytest.importorskip("scipy.optimize")

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}

CORPUS = [
    pytest.param(883, (8, 8, 3), id="8x8k3-883"),
    pytest.param(773, (7, 7, 3), id="7x7k3-773"),
    pytest.param([6, 6, 3, 5], (6, 6, 3), id="6x6k3-6635"),
    pytest.param([5, 5, 3, 3], (5, 5, 3), id="5x5k3-5533"),
    pytest.param(
        [5, 5, 3, 0], (5, 5, 3), id="5x5k3-5530",
        marks=pytest.mark.xfail(strict=True, raises=NumericalFailure,
                                reason="commitment program ended infeasible"),
    ),
]


def highs_max(c, A_ub, b_ub, A_eq, b_eq):
    """max c.x over x >= 0, or None when the program is infeasible."""
    res = scipy_opt.linprog(-np.asarray(c), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                            bounds=(0, None), method="highs", options=_HIGHS)
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    return -res.fun


def highs_leader_values(u_L, u_O):
    """Per type: its best value leading with y while the learner best-responds."""
    m, n = u_L.shape
    v = []
    for U in u_O:
        # y under which learner action a is a best response; ties favour the type
        vals = [highs_max(U[a], u_L - u_L[a], np.zeros(m), np.ones((1, n)), [1.0]) for a in range(m)]
        v.append(max(x for x in vals if x is not None))
    return np.array(v)


def highs_commitment_value(game):
    u_L = game.u_L
    u_O = [game.u_O(i) for i in range(game.k)]
    k, (m, n) = game.k, u_L.shape
    mn, d = m * n, game.k * m * n
    v = highs_leader_values(u_L, u_O)
    A_ub, b_ub = [], []
    for i in range(k):
        blk = slice(i * mn, (i + 1) * mn)
        for a in range(m):  # no gain from switching every learner action to a
            row = np.zeros(d)
            row[blk] = (u_L[a][None, :] - u_L).ravel()
            A_ub.append(row)
            b_ub.append(0.0)
        row = np.zeros(d)
        row[blk] = -u_O[i].ravel()
        A_ub.append(row)
        b_ub.append(-v[i])
        for j in range(k):
            if j != i:
                row = np.zeros(d)
                row[blk] = -u_O[i].ravel()
                row[j * mn : (j + 1) * mn] += u_O[i].ravel()
                A_ub.append(row)
                b_ub.append(0.0)
    A_eq = np.kron(np.eye(k), np.ones(mn))
    obj = np.concatenate([a * u_L.ravel() for a in game.alphas])
    return highs_max(obj, np.array(A_ub), b_ub, A_eq, np.ones(k))


@pytest.mark.parametrize("seed, shape", CORPUS)
def test_commit_nr_matches_highs(seed, shape):
    game = random_game(np.random.default_rng(seed), *shape)
    scale = max(1.0, float(np.max(np.abs(game.u_L))),
                *(float(np.max(np.abs(game.u_O(i)))) for i in range(game.k)))
    value = optimal_no_regret_commitment(game).value
    assert abs(value - highs_commitment_value(game)) <= 1e-9 * scale
