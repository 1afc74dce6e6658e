import dataclasses
import json

import numpy as np
import pytest

from conftest import AS, CR, random_csp, random_game
from menuopt.core import (
    BimatrixGame,
    Csp,
    CspAssignment,
    Transcript,
    assignment_value,
    bilinear_value,
    csp_of_transcript,
)
from menuopt.errors import InvalidInput


def test_bilinear_point_mass_value(g1):
    phi = Csp.point_mass(0, 1, 3, 2)  # (A, S)
    assert bilinear_value(g1.u_L, phi) == pytest.approx(3.0)
    assert bilinear_value(g1.u_O(0), phi) == pytest.approx(1.0)


def test_bilinear_uniform_over_constant_matrix():
    for c in (-1.5, 0.0, 2.0):
        payoff = np.full((2, 3), c)
        assert bilinear_value(payoff, Csp.uniform(2, 3)) == pytest.approx(c)


def test_bilinear_half_cr_half_as(g1):
    phi = Csp.mix([(0.5, Csp.point_mass(2, 0, 3, 2)), (0.5, Csp.point_mass(0, 1, 3, 2))])
    assert bilinear_value(g1.u_L, phi) == pytest.approx(5.0)
    assert bilinear_value(g1.u_O(0), phi) == pytest.approx(2.0)


def test_bilinear_dimension_mismatch(g1):
    with pytest.raises(InvalidInput):
        bilinear_value(np.zeros((2, 2)), Csp.uniform(3, 2))


def test_bilinear_linearity_in_phi(g1):
    rng = np.random.default_rng(0)
    for _ in range(50):
        p1, p2 = random_csp(rng, 6), random_csp(rng, 6)
        lam = float(rng.uniform())
        mixed = Csp.mix([(lam, p1), (1 - lam, p2)])
        expect = lam * bilinear_value(g1.u_L, p1) + (1 - lam) * bilinear_value(g1.u_L, p2)
        assert bilinear_value(g1.u_L, mixed) == pytest.approx(expect, abs=1e-12)


def test_csp_of_single_pure_round():
    t = Transcript(np.array([[1.0, 0.0, 0.0]]), np.array([[0.0, 1.0]]))
    assert np.allclose(csp_of_transcript(t).weights, Csp.point_mass(0, 1, 3, 2).weights)


def test_csp_of_two_pure_rounds():
    xs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])  # C then A
    ys = np.array([[1.0, 0.0], [0.0, 1.0]])  # R then S
    w = csp_of_transcript(Transcript(xs, ys)).weights
    expect = np.zeros(6)
    expect[CR] = 0.5
    expect[AS] = 0.5
    assert np.allclose(w, expect)


def test_csp_of_uniform_mixed_rounds():
    xs = np.full((100, 3), 1.0 / 3.0)
    ys = np.full((100, 2), 0.5)
    w = csp_of_transcript(Transcript(xs, ys)).weights
    assert np.max(np.abs(w - 1.0 / 6.0)) <= 1e-12


def test_csp_of_empty_transcript():
    t = Transcript(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(InvalidInput):
        csp_of_transcript(t)


def test_csp_permutation_invariance():
    rng = np.random.default_rng(1)
    xs = rng.dirichlet(np.ones(3), size=20)
    ys = rng.dirichlet(np.ones(2), size=20)
    perm = rng.permutation(20)
    w1 = csp_of_transcript(Transcript(xs, ys)).weights
    w2 = csp_of_transcript(Transcript(xs[perm], ys[perm])).weights
    assert np.allclose(w1, w2, atol=1e-12)


def test_transcript_keeps_float_arrays_and_makes_them_read_only():
    xs = np.full((4, 3), 1.0 / 3.0)
    ys = np.full((4, 2), 0.5)
    t = Transcript(xs, ys)
    assert np.shares_memory(t.xs, xs) and np.shares_memory(t.ys, ys)
    with pytest.raises(ValueError):
        xs[0, 0] = 1.0
    with pytest.raises(ValueError):
        t.ys[0, 0] = 1.0


def test_transcript_converts_lists_and_int_arrays():
    ys = np.array([[0, 1], [1, 0]])
    t = Transcript([[1, 0, 0], [0, 0, 1]], ys)
    assert t.xs.dtype == t.ys.dtype == np.float64
    assert not t.xs.flags.writeable and not t.ys.flags.writeable
    ys[0, 0] = 5  # the caller's int array stays its own
    assert t.ys.tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert np.array_equal(csp_of_transcript(t).weights, [0.0, 0.5, 0.0, 0.0, 0.5, 0.0])


def test_assignment_value_g1(g1):
    phi = Csp.mix([(0.5, Csp.point_mass(2, 0, 3, 2)), (0.5, Csp.point_mass(0, 1, 3, 2))])
    assert assignment_value(g1, CspAssignment((phi,))) == pytest.approx(5.0)


def test_assignment_value_zero_payoff_pairs():
    u_L = np.array([[0.0, 1.0], [2.0, 0.0]])
    game = BimatrixGame(u_L, ((np.ones((2, 2)), 0.5), (np.zeros((2, 2)), 0.5)))
    assign = CspAssignment((Csp.point_mass(0, 0, 2, 2), Csp.point_mass(1, 1, 2, 2)))
    assert assignment_value(game, assign) == pytest.approx(0.0)


def test_assignment_value_matches_direct_sum():
    rng = np.random.default_rng(2)
    for _ in range(20):
        game = random_game(rng, 2, 2, 3)
        assign = CspAssignment(tuple(random_csp(rng, 4) for _ in range(3)))
        direct = sum(
            game.alphas[i] * bilinear_value(game.u_L, assign[i]) for i in range(3)
        )
        assert assignment_value(game, assign) == pytest.approx(direct, abs=1e-12)


def test_assignment_value_k_mismatch(g1):
    two = CspAssignment((Csp.uniform(3, 2), Csp.uniform(3, 2)))
    with pytest.raises(InvalidInput):
        assignment_value(g1, two)


def test_assignment_value_k1_equals_bilinear(g1):
    rng = np.random.default_rng(3)
    phi = random_csp(rng, 6)
    assert assignment_value(g1, CspAssignment((phi,))) == pytest.approx(
        bilinear_value(g1.u_L, phi)
    )


def test_game_invariants():
    with pytest.raises(InvalidInput):
        BimatrixGame(np.array([[np.nan]]), ((np.array([[0.0]]), 1.0),))
    with pytest.raises(InvalidInput):
        BimatrixGame(np.zeros((2, 2)), ((np.zeros((2, 2)), 0.5),))  # alphas sum to 0.5
    with pytest.raises(InvalidInput):
        BimatrixGame(np.zeros((2, 2)), ((np.zeros((3, 2)), 1.0),))  # shape mismatch
    with pytest.raises(InvalidInput):
        BimatrixGame(np.zeros((2, 2)), ((np.zeros((2, 2)), np.nan),))  # NaN passes the sum check
    with pytest.raises(InvalidInput):  # JSON's NaN literal
        BimatrixGame.from_json('{"m": 1, "n": 1, "u_L": [[0]], "types": [{"u_O": [[0]], "alpha": NaN}]}')


def test_csp_invariants():
    with pytest.raises(InvalidInput):
        Csp(np.array([0.5, 0.4]))  # mass 0.9
    with pytest.raises(InvalidInput):
        Csp(np.array([1.1, -0.1]))  # negative weight
    Csp(np.array([0.5 + 4e-10, 0.5]))  # within the simplex-sum tolerance


def test_types_are_immutable(g1):
    with pytest.raises(ValueError):
        g1.u_L[0, 0] = 99.0
    with pytest.raises(ValueError):
        Csp.uniform(2, 2).weights[0] = 1.0


def test_derived_game_values_are_cached_and_read_only():
    types = ((np.array([[1.0, 2.0]]), 0.4), (np.array([[3.0, -4.0]]), 0.6))
    game = BimatrixGame(np.array([[0.5, -7.1]]), types)
    before = (repr(game), game.to_json())
    assert game.alphas is game.alphas
    assert game.opponent_payoffs is game.opponent_payoffs
    assert np.array_equal(game.alphas, [0.4, 0.6])
    assert np.array_equal(game.opponent_payoffs, [[[1.0, 2.0]], [[3.0, -4.0]]])
    assert game.p_max == 7.1
    for derived in (game.alphas, game.opponent_payoffs):
        with pytest.raises(ValueError):
            derived[0] = 0.0
    # the cached values take no part in repr, JSON or equality
    assert (repr(game), game.to_json()) == before
    assert [f.name for f in dataclasses.fields(game)] == ["u_L", "types"]


def test_game_json_round_trip(g1):
    doc = g1.to_json()
    back = BimatrixGame.from_json(doc)
    assert np.allclose(back.u_L, g1.u_L)
    assert back.k == 1 and np.allclose(back.u_O(0), g1.u_O(0))
    parsed = json.loads(doc)
    assert set(parsed) == {"m", "n", "u_L", "types"}


def test_game_json_rejects_malformed():
    with pytest.raises(InvalidInput):
        BimatrixGame.from_json("{not json")
    with pytest.raises(InvalidInput):
        BimatrixGame.from_json(json.dumps({"m": 1, "n": 1, "u_L": [[0]], "types": []}))
    with pytest.raises(InvalidInput):
        BimatrixGame.from_json(
            json.dumps({"m": 2, "n": 1, "u_L": [[0]], "types": [{"u_O": [[0]], "alpha": 1}]})
        )
