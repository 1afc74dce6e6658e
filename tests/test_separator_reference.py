"""Separating cuts at k <= 2 against the simplex program they replace.

`separator_for_thresholds` values the game h . G x between type weights h
and learner mixes x in closed form when k <= 2. `reference_separator` is
the program it replaced, written here the direct way: the margin by
`lp.zero_sum_value(-G)`, then h by `lp.solve_lexicographic` over the rows
of np.eye(k) on {h in simplex : G^T h >= margin - 1e-9}. Every separator
that `optimize_general` asks for on k = 1 and k = 2 games is recorded and
recomputed by the reference.

At k = 1, h and the offset are bit-identical. The margin is min_r G[0, r]
exactly; the simplex's value agrees with it except in the last bits when
rows of G tie, so it is compared to 1e-12, as at k = 2.
"""

import numpy as np
import pytest

from conftest import random_game
from menuopt import approachability, general_commitment, lp
from menuopt.approachability import _lexicographic_h, separator_for_thresholds
from menuopt.core import BimatrixGame
from menuopt.errors import CertificateInvalid

SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]
SEEDS = range(3)


def reference_separator(game, c, y):
    G = np.array([game.u_O(i) @ y - c[i] for i in range(game.k)])
    margin = -lp.zero_sum_value(-G)[0]
    k, m = G.shape
    cons = [lp.simplex_row(k)] + [(G[:, r], lp.GE, margin - 1e-9) for r in range(m)]
    h = np.maximum(lp.solve_lexicographic(list(np.eye(k)), cons)[-1].point, 0.0)
    h = h / h.sum()
    return h, float(h @ c), margin


@pytest.fixture(scope="module")
def separators(g1):
    """(game, c, y, separator) of every cut of the runs below, in order."""
    seen = []

    def record(game, c, y):
        out = separator_for_thresholds(game, c, y)
        seen.append((game, np.array(c, dtype=float), np.array(y, dtype=float), out))
        return out

    games = [g1] + [
        random_game(np.random.default_rng([m, n, k, s]), m, n, k)
        for k in (1, 2)
        for m, n in SHAPES
        for s in SEEDS
    ]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(general_commitment, "separator_for_thresholds", record)
        for game in games:
            general_commitment.optimize_general(game, eps=0.05)
    return seen


def test_the_sweep_covers_every_shape(separators):
    assert len(separators) >= 500
    shapes = {(game.m, game.n) for game, _, _, _ in separators}
    assert shapes == set(SHAPES)
    assert sum(game.k == 1 for game, _, _, _ in separators) >= 100
    assert sum(game.k == 2 for game, _, _, _ in separators) >= 300


def test_k1_separators_match_the_simplex(separators):
    for game, c, y, (h, offset, margin) in separators:
        if game.k != 1:
            continue
        ref_h, ref_offset, ref_margin = reference_separator(game, c, y)
        assert np.array_equal(h, ref_h)
        assert offset == ref_offset
        assert margin == float(np.min(game.u_O(0) @ y - c[0]))
        assert abs(margin - ref_margin) <= 1e-12


def test_k2_separators_match_the_simplex(separators):
    for game, c, y, (h, offset, margin) in separators:
        if game.k != 2:
            continue
        ref_h, ref_offset, ref_margin = reference_separator(game, c, y)
        assert np.max(np.abs(h - ref_h)) <= 1e-12
        assert abs(margin - ref_margin) <= 1e-12
        assert abs(offset - ref_offset) <= 1e-12


def column_game(*types):
    """A game with one opponent action whose type i pays types[i] per learner action.

    With y = (1) and c = 0 the separator's G is the rows of `types`.
    """
    columns = tuple((np.array(t, dtype=float)[:, None], 1.0 / len(types)) for t in types)
    return BimatrixGame(np.zeros((len(types[0]), 1)), columns)


def separator(*types):
    game = column_game(*types)
    return separator_for_thresholds(game, np.zeros(game.k), np.ones(1)), reference_separator(
        game, np.zeros(game.k), np.ones(1)
    )


def assert_matches(ours, ref):
    (h, offset, margin), (ref_h, ref_offset, ref_margin) = ours, ref
    assert np.max(np.abs(h - ref_h)) <= 1e-12
    assert abs(offset - ref_offset) <= 1e-12
    assert abs(margin - ref_margin) <= 1e-12


def test_one_learner_action():
    (h, _, margin), _ = separator([0.7])
    assert np.array_equal(h, [1.0]) and margin == 0.7
    ours, ref = separator([0.5], [0.2])
    assert ours[2] == 0.5
    assert ours[0][0] == 1.0 - lp.TIE_SLACK  # the tie stage gives up TIE_SLACK of h_0
    assert_matches(ours, ref)


def test_identical_types_have_every_slope_zero():
    ours, ref = separator([0.4, 0.3, 0.9], [0.4, 0.3, 0.9])
    assert ours[2] == 0.3
    assert ours[0][0] == 1.0 - lp.TIE_SLACK
    assert_matches(ours, ref)


def test_a_column_paying_both_types_the_same():
    # column 0 pays 0.4 whatever h is and sets the margin; the others leave
    # t in [0.375, 0.8], and h_0 takes the top less TIE_SLACK
    ours, ref = separator([0.4, 0.3, 0.9], [0.4, 0.8, 0.1])
    assert ours[2] == pytest.approx(0.4, abs=1e-15)
    assert ours[0][0] == pytest.approx(0.8 + 1e-9, abs=1e-15)
    assert_matches(ours, ref)


@pytest.mark.parametrize(
    "types",
    [([0.3, 0.0],), ([1e-9, 0.5],), ([0.5, -0.5], [-0.5, 0.5]), ([0.2, -0.1], [0.2, -0.1])],
    ids=["k1-zero", "k1-at-1e-9", "k2-zero", "k2-negative"],
)
def test_margin_at_most_1e9_is_refused(types):
    game = column_game(*types)
    with pytest.raises(CertificateInvalid, match="non-positive margin"):
        separator_for_thresholds(game, np.zeros(game.k), np.ones(1))


@pytest.mark.parametrize(
    "G, margin",
    [([[0.5, -0.5], [-0.5, 0.5]], 0.1), ([[0.3], [0.3]], 0.5)],
    ids=["crossing-rows", "flat-column"],
)
def test_an_empty_interval_is_refused(G, margin):
    with pytest.raises(CertificateInvalid, match="lost feasibility"):
        _lexicographic_h(np.array(G), margin)


@pytest.mark.parametrize("k, simplex_stages", [(1, 0), (2, 0), (3, 1 + 3)])
def test_only_k3_reaches_the_simplex(monkeypatch, k, simplex_stages):
    types = [[0.9, 0.2, 0.5], [0.1, 0.8, 0.6], [0.4, 0.4, 0.7]][:k]
    game = column_game(*types)
    calls = []
    maximize = lp._Tableau.maximize
    monkeypatch.setattr(lp._Tableau, "maximize", lambda tab, c: calls.append(c) or maximize(tab, c))
    h, _, margin = approachability.separator_for_thresholds(game, np.zeros(k), np.ones(1))
    assert len(calls) == simplex_stages  # zero_sum_value, then one stage per type
    assert margin > 0 and h.sum() == pytest.approx(1.0)
