"""Property tests of one forcing round on small random games and of its
two-column solve (hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, event, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from menuopt import lp  # noqa: E402
from menuopt.core import BimatrixGame, Csp, CspAssignment  # noqa: E402
from menuopt.errors import NumericalFailure  # noqa: E402
from menuopt.maximin import ForcingState  # noqa: E402
from menuopt.menus import candidate_menu, response_satisfiable_at  # noqa: E402
from test_forcing_reference import reference_minmax_rows_by_2  # noqa: E402

payoff = st.floats(-1.0, 1.0, allow_nan=False)
weight = st.floats(0.0, 1.0, allow_nan=False)


def simplex_point(draw, size):
    w = np.array(draw(st.lists(weight, min_size=size, max_size=size)))
    assume(w.sum() > 1e-6)
    return w / w.sum()


@st.composite
def forcing_cases(draw):
    m, n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def matrix():
        return np.array(draw(st.lists(payoff, min_size=m * n, max_size=m * n))).reshape(m, n)

    alphas = simplex_point(draw, k)
    alphas[-1] = 1.0 - alphas[:-1].sum()
    game = BimatrixGame(matrix(), tuple((matrix(), float(a)) for a in alphas))
    assignment = CspAssignment(tuple(Csp(simplex_point(draw, m * n)) for _ in range(k)))
    return game, assignment, simplex_point(draw, k)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(forcing_cases())
def test_forcing_act_caps_the_weighted_game_or_certifies_an_abort(case):
    game, assignment, p = case
    state = ForcingState(game, assignment)
    state.p = p
    menu = candidate_menu(assignment, 0.0, game)
    try:
        x = state.act()
        if x is None:
            y = state.certificate()
            witness = response_satisfiable_at(menu, y, game)
    except NumericalFailure:
        # The dense simplex fails on some feasible programs whose entries or
        # margins sit near its tolerances (CHANGES.md, FOUND); it raises
        # instead of answering wrongly, and answers are what is checked here.
        event("LP kernel failure")
        return
    if x is not None:
        omega = np.tensordot(p, game.opponent_payoffs, axes=(0, 0))
        assert float(np.max(x @ omega)) <= float(p @ state.c) + 1e-8
    else:
        # y refutes the menu: no response keeps x (x) y inside it, except
        # one the LP accepts within its feasibility tolerance, which happens
        # when the abort margin (above maximin._SLACK = 2e-9) is below that tolerance
        event("refuted" if witness is None else "refuted within LP tolerance")
        assert witness is None or menu.violation(np.outer(witness, y).ravel()) <= 1e-7


# Entries near 0 and gaps near the 1e-14 and 1e-15 thresholds: equal
# columns give den = 0, a tiny gap g puts a crossing at t near 0 or 1.
entry = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1e-300, -1e-15, 1e-15, 0.5]))
gap = st.one_of(
    st.floats(-1.0, 1.0),
    st.sampled_from([0.0, -0.0, 1e-16, -1e-16, 5e-15, -5e-15, 1e-14, -1e-14, 2e-14, 1e-300]),
)


@st.composite
def two_column_games(draw):
    m = draw(st.integers(1, 6))
    pool = draw(st.lists(st.tuples(entry, gap), min_size=1, max_size=m))
    # rows drawn from a pool of at most m, so duplicate rows are common
    rows = [draw(st.sampled_from(pool)) for _ in range(m)]
    return np.array([[a, a + d] for a, d in rows])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(two_column_games())
def test_minmax_rows_by_2_equals_reference(M):
    val, x = lp.minmax_rows_by_2(M)
    ref_val, ref_x = reference_minmax_rows_by_2(M)
    assert val == ref_val
    assert type(val) is float
    assert x.tobytes() == ref_x.tobytes()
