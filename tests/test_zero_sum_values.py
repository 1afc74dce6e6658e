"""`lp.zero_sum_values`: stacked game values by square-kernel enumeration."""

import numpy as np
import pytest

from conftest import halfspace_value, random_game
from menuopt import lp
from menuopt.approachability import TesterNet
from menuopt.errors import InvalidInput

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra.numpy import arrays
except ImportError:  # hypothesis is a test extra; its property test is skipped without it
    given = None

RPS = np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])


def simplex_values(stack):
    return np.array([lp.zero_sum_value(M)[0] for M in stack])


def counting_simplex(monkeypatch):
    """Replace `lp.zero_sum_value` by a wrapper that records each matrix it solves."""
    solved, solve = [], lp.zero_sum_value

    def counted(M):
        solved.append(np.array(M))
        return solve(M)

    monkeypatch.setattr(lp, "zero_sum_value", counted)
    return solved


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 3), (4, 4), (3, 5)])
def test_agrees_with_the_simplex_on_random_games(shape, monkeypatch):
    stack = np.random.default_rng(list(shape)).uniform(-1.0, 1.0, size=(80, *shape))
    reference = simplex_values(stack)
    solved = counting_simplex(monkeypatch)
    values = lp.zero_sum_values(stack)
    assert np.max(np.abs(values - reference)) <= 1e-9
    assert not solved  # every game was certified by its two kernel bounds


@pytest.mark.parametrize(
    "M,value",
    [
        pytest.param(np.full((3, 3), 2.5), 2.5, id="constant"),
        pytest.param(np.zeros((3, 4)), 0.0, id="zero"),
        pytest.param(np.vstack([RPS, RPS[0]]), 0.0, id="duplicate-row"),
        pytest.param(np.column_stack([RPS, RPS[:, 1]]), 0.0, id="duplicate-column"),
        pytest.param(np.vstack([RPS, np.full(3, 2.0)]), 0.0, id="dominated-row"),
        # every column is a multiple of (1, 2, 3), so every square submatrix
        # of size 2 or 3 is singular; the third column is worst, least at row 0
        pytest.param(np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]), 3.0, id="singular-kernels"),
        # rows 0 and 1 and columns 0 and 1 repeat: max(x2, 1 - x2) is least at 1/2
        pytest.param(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]), 0.5, id="repeats"),
        pytest.param(np.eye(3), 1.0 / 3.0, id="identity-3"),
        pytest.param(np.eye(4), 0.25, id="identity-4"),
        pytest.param(np.array([[0.5, -1.0, 2.0, 4.0]]), 4.0, id="one-row"),
        pytest.param(np.array([[0.5], [-1.0], [2.0], [4.0]]), -1.0, id="one-column"),
    ],
)
def test_degenerate_games_worked_by_hand(M, value):
    got = lp.zero_sum_values(M[None])
    assert got.shape == (1,)
    assert got[0] == pytest.approx(value, abs=1e-12)
    assert got[0] == pytest.approx(lp.zero_sum_value(M)[0], abs=1e-9)


def test_two_row_and_two_column_games_keep_the_closed_form():
    rng = np.random.default_rng(23)
    tall = rng.uniform(-1.0, 1.0, size=(50, 4, 2))
    wide = rng.uniform(-1.0, 1.0, size=(50, 2, 4))
    assert np.array_equal(lp.zero_sum_values(tall), lp.zero_sum_value_batch2(tall))
    assert np.array_equal(lp.zero_sum_values(wide), -lp.zero_sum_value_batch2(-np.swapaxes(wide, 1, 2)))
    # one row or one column: the value is that row's max or that column's min
    assert np.array_equal(lp.zero_sum_values(wide[:, :1]), wide[:, 0].max(axis=1))
    assert np.array_equal(lp.zero_sum_values(tall[:, :, :1]), tall[:, :, 0].min(axis=1))


@pytest.mark.parametrize("shape", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_stacked_solves_start_at_kernels_of_size_3(shape, monkeypatch):
    stack = np.random.default_rng(list(shape)).uniform(-1.0, 1.0, size=(40, *shape))
    sizes, solve = [], lp._solve_kernels

    def recorded(border, rhs):
        sizes.append(border.shape[1])
        return solve(border, rhs)

    monkeypatch.setattr(lp, "_solve_kernels", recorded)
    lp.zero_sum_values(stack)
    # a kernel of size s is a bordered system of size s + 1; size 2 is closed form
    assert sizes and min(sizes) == 4


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_batch2_bounds_the_value_from_above(m, n):
    stack = np.random.default_rng([m, n, 2]).uniform(-1.0, 1.0, size=(60, m, n))
    bound, reference = lp.zero_sum_value_batch2(stack), simplex_values(stack)
    assert np.all(bound >= reference - 1e-9)
    if min(m, n) == 2:  # every kernel has size <= 2: the bound is the value
        assert np.max(np.abs(bound - reference)) <= 1e-9


@pytest.mark.parametrize("shape", [(4, 5), (5, 4), (5, 5)])
def test_shapes_over_the_kernel_cap_take_the_simplex(shape, monkeypatch):
    stack = np.random.default_rng(list(shape)).uniform(-1.0, 1.0, size=(6, *shape))
    reference = simplex_values(stack)
    solved = counting_simplex(monkeypatch)
    assert np.array_equal(lp.zero_sum_values(stack), reference)
    assert len(solved) == 6


def test_a_game_whose_bounds_disagree_is_solved_again(monkeypatch):
    stack = np.random.default_rng(31).uniform(-1.0, 1.0, size=(5, 3, 3))
    reference = simplex_values(stack)
    bounds, spoiled = lp._kernel_upper_bounds, []

    def spoil_game_2(games):
        upper = bounds(games)
        if not spoiled:  # the row player's side: game 2's bound is no longer tight
            upper[2] += 0.5
            spoiled.append(True)
        return upper

    monkeypatch.setattr(lp, "_kernel_upper_bounds", spoil_game_2)
    solved = counting_simplex(monkeypatch)
    values = lp.zero_sum_values(stack)
    assert len(solved) == 1 and np.array_equal(solved[0], stack[2])
    assert values[2] == reference[2]
    assert np.max(np.abs(values - reference)) <= 1e-9


def test_rejects_malformed_stacks():
    for values in (lp.zero_sum_values, lp.zero_sum_value_batch2):
        for bad in (np.zeros((3, 3)), np.zeros((2, 0, 3)), np.zeros((2, 3, 0)), np.zeros((3, 0, 2))):
            with pytest.raises(InvalidInput):
                values(bad)
        for entry in (np.nan, np.inf):
            for shape in ((1, 3, 2), (1, 3, 3)):
                with pytest.raises(InvalidInput):
                    values(np.full(shape, entry))
        assert values(np.zeros((0, 3, 3))).shape == (0,)


def test_generic_3x3_net_is_built_without_the_simplex(monkeypatch):
    game = random_game(np.random.default_rng([3, 3, 3, 0]), 3, 3, 3)

    def refuse(M):
        raise AssertionError("the net build ran the simplex")

    monkeypatch.setattr(lp, "zero_sum_value", refuse)
    net = TesterNet.build(game, 0.2)
    monkeypatch.undo()
    assert len(net.points) == 406
    reference = np.array([halfspace_value(game, a)[0] for a in net.points])
    assert np.max(np.abs(net.values - reference)) <= 1e-9


if given is not None:

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(3, 4).flatmap(
            lambda m: st.integers(3, 5).flatmap(
                lambda n: arrays(
                    float,
                    (m, n),
                    # a few small integers repeat rows, columns and kernels often
                    elements=st.one_of(st.integers(-2, 2), st.integers(-300, 300).map(lambda v: v / 100)),
                )
            )
        )
    )
    def test_value_lies_between_the_two_players_bounds(M):
        value = lp.zero_sum_values(M[None])[0]
        _, x, y = lp.zero_sum_value(M)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(M))))
        # any row mix bounds the value from above, any column mix from below
        assert float(np.min(M @ y)) - tol <= value <= float(np.max(M.T @ x)) + tol
        assert -lp._kernel_upper_bounds(-M.T[None])[0] <= value + tol

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 4).flatmap(
            lambda m: st.integers(2, 4).flatmap(lambda n: arrays(float, (m, n), elements=st.integers(-2, 2)))
        )
    )
    def test_batch2_bound_is_never_below_the_value(M):
        bound = lp.zero_sum_value_batch2(M[None])[0]
        value = lp.zero_sum_value(M)[0]
        assert bound >= value - 1e-9
        if min(M.shape) == 2:
            assert bound == pytest.approx(value, abs=1e-9)
