"""Solvers on games whose payoffs are all multiplied by a scale s.

Multiplying every payoff by s > 0 changes no decision: the optimal
assignment stays the same and every value scales by s, so each solver
should succeed at s = 1e-6 and s = 1e6 with eps and delta scaled along.
The marked cases fail instead, with `NumericalFailure`. The LP kernel
measures feasibility against max(1, |b|, |c|), which ignores the
constraint matrix and never drops below 1, and optimize_general's
relaxation uses max(1, p_max) the same way. Each such case is marked
`xfail(strict=True)`; the change that mends it removes its marker. The
tester-net cases pass: `lp.zero_sum_values` values their nets without
the simplex.

G(m, n, k) is `random_game(default_rng([7000, m, n, k]), m, n, k)`.
"""

import numpy as np
import pytest

from conftest import random_game
from menuopt.approachability import TesterNet
from menuopt.core import BimatrixGame
from menuopt.errors import NumericalFailure
from menuopt.general_commitment import optimize_general
from menuopt.nr_commitment import optimal_no_regret_commitment

EPS = 0.05


def G(m, n, k):
    return random_game(np.random.default_rng([7000, m, n, k]), m, n, k)


def scaled(game, s):
    return BimatrixGame(game.u_L * s, tuple((u * s, alpha) for u, alpha in game.types))


def fails(reason):
    return pytest.mark.xfail(strict=True, raises=NumericalFailure, reason=reason)


@pytest.mark.parametrize(
    "game,s",
    [
        pytest.param("g1", 1e-6, id="g1-1e-6", marks=fails("ellipsoid collapsed")),
        pytest.param((3, 2, 2), 1e-6, id="322-1e-6", marks=fails("ellipsoid collapsed")),
    ],
)
def test_optimize_general_at_scale(g1, game, s):
    base = g1 if game == "g1" else G(*game)
    res = optimize_general(scaled(base, s), EPS * s)
    assert res.converged


@pytest.mark.parametrize(
    "shape,s",
    [
        pytest.param((3, 2, 2), 1e-6, id="322-1e-6", marks=fails("commitment program ended infeasible")),
        pytest.param((2, 3, 2), 1e6, id="232-1e6", marks=fails("singular basis during dual recovery")),
        pytest.param((3, 3, 3), 1e-6, id="333-1e-6", marks=fails("singular basis during dual recovery")),
        pytest.param((3, 3, 3), 1e6, id="333-1e6", marks=fails("singular basis during dual recovery")),
    ],
)
def test_no_regret_commitment_at_scale(shape, s):
    game = G(*shape)
    res = optimal_no_regret_commitment(scaled(game, s))
    assert res.value == pytest.approx(s * optimal_no_regret_commitment(game).value, rel=1e-6)


@pytest.mark.parametrize(
    "shape,s",
    [
        pytest.param((3, 3, 3), 1e-6, id="333-1e-6"),
        pytest.param((3, 3, 3), 1e6, id="333-1e6"),
        pytest.param((3, 3, 2), 1e6, id="332-1e6"),
    ],
)
def test_tester_net_at_scale(shape, s):
    game = G(*shape)
    net = TesterNet.build(scaled(game, s), EPS * s)
    assert np.allclose(net.values, s * TesterNet.build(game, EPS).values, rtol=1e-6, atol=0)
