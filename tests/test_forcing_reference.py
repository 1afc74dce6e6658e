"""The forcing round against a plain reference copy of it.

`ReferenceForcingState` is the forcing round written the direct way: Ω by
`np.tensordot` every round, a fresh solve every round, the numpy
two-column solve `reference_minmax_rows_by_2`, and a cumulative reward
vector rebuilt on every update. `run_blackwell_abort` and `run_maximin`
run once with it patched in for `maximin.ForcingState` and once with the
library's own round, and every transcript, reward, abort round and
certificate must be exactly equal. Both sides run on the same BLAS, so exact equality is a portable
check where byte digests of a run would not be.
"""

import numpy as np
import pytest

from conftest import random_game
from menuopt import lp, maximin
from menuopt.errors import InvalidInput
from menuopt.maximin import (
    make_aborter_adversary,
    make_schedule_adversary,
    random_adversary,
    run_blackwell_abort,
    run_maximin,
    threshold_assignment,
)
from menuopt.menus import candidate_menu

SHAPES = [(m, n, k) for m in (1, 2, 3) for n in (1, 2, 3) for k in (1, 2, 3)]
ADVERSARIES = {
    "aborter": lambda: make_aborter_adversary(0.1),
    "schedule": lambda: make_schedule_adversary(0),
    "random": lambda: random_adversary,
}
T = 120
_SLACK = 2 * lp.TIE_SLACK


def reference_minmax_rows_by_2(M):
    M = np.asarray(M, dtype=float)
    m, q = M.shape
    if q != 2:
        raise InvalidInput("expected a two-column matrix")
    row_vals = np.max(M, axis=1)
    i0 = int(np.argmin(row_vals))
    best = float(row_vals[i0])
    x = np.zeros(m)
    x[i0] = 1.0
    g = M[:, 0] - M[:, 1]
    for i in range(m):
        for j in range(i + 1, m):
            den = g[j] - g[i]
            if abs(den) <= 1e-14:
                continue
            t = g[j] / den
            if not (0.0 < t < 1.0):
                continue
            cross = t * M[i, 0] + (1.0 - t) * M[j, 0]
            if cross < best - 1e-15:
                best = float(cross)
                x = np.zeros(m)
                x[i] = t
                x[j] = 1.0 - t
    return best, x


def reference_hedge_weights(cumulative, t, p_max):
    k = cumulative.size
    if k == 1 or t == 0:
        return np.full(k, 1.0 / k)
    eta = np.sqrt(np.log(k) / t) / (2.0 * p_max)
    z = eta * cumulative
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


class ReferenceForcingState:
    def __init__(self, game, assignment):
        self.game = game
        self.assignment = assignment
        self.c = candidate_menu(assignment, 0.0, game).rhs
        self.p = np.full(game.k, 1.0 / game.k)
        self.t = 0
        self.cumulative = np.zeros(game.k)

    def _omega(self):
        return np.tensordot(self.p, self.game.opponent_payoffs, axes=(0, 0))

    def act(self):
        omega = self._omega()
        if self.game.n == 2:
            val, x = reference_minmax_rows_by_2(omega)
        else:
            val, x, _ = lp.zero_sum_value(omega)
        return x if val <= float(self.p @ self.c) + _SLACK else None

    def certificate(self):
        return lp.zero_sum_value(self._omega())[2]

    def observe(self, x, y):
        r = np.einsum("i,kij,j->k", x, self.game.opponent_payoffs, y) - self.c
        self.cumulative = self.cumulative + r
        self.t += 1
        self.p = reference_hedge_weights(self.cumulative, self.t, self.game.p_max)
        return r


def both_sides(monkeypatch, run):
    """run() with the library's round, then with the reference round."""
    ours = run()
    with monkeypatch.context() as patch:
        patch.setattr(maximin, "ForcingState", ReferenceForcingState)
        ref = run()
    return ours, ref


def game_for(m, n, k):
    return random_game(np.random.default_rng([9000, m, n, k]), m, n, k)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("m,n,k", SHAPES)
def test_blackwell_abort_equals_reference_round(monkeypatch, m, n, k, adversary):
    game = game_for(m, n, k)
    # a level halfway up the learner's payoffs: some shapes abort there
    V = 0.5 * (float(np.min(game.u_L)) + float(np.max(game.u_L)))
    assignment = threshold_assignment(game, V)
    ours, ref = both_sides(
        monkeypatch, lambda: run_blackwell_abort(game, assignment, ADVERSARIES[adversary](), T, seed=7)
    )
    assert np.array_equal(ours.transcript.xs, ref.transcript.xs)
    assert np.array_equal(ours.transcript.ys, ref.transcript.ys)
    assert np.array_equal(ours.rewards, ref.rewards)
    assert ours.aborted_at == ref.aborted_at
    assert (ours.certificate is None) == (ref.certificate is None)
    if ref.certificate is not None:
        assert np.array_equal(ours.certificate, ref.certificate)


@pytest.mark.parametrize("adversary", sorted(ADVERSARIES))
@pytest.mark.parametrize("m,n,k", SHAPES)
def test_maximin_equals_reference_round(monkeypatch, m, n, k, adversary):
    game = game_for(m, n, k)
    ours, ref = both_sides(
        monkeypatch, lambda: run_maximin(game, 0.1, ADVERSARIES[adversary](), T, seed=7)
    )
    assert np.array_equal(ours.transcript.xs, ref.transcript.xs)
    assert np.array_equal(ours.transcript.ys, ref.transcript.ys)
    assert np.array_equal(ours.rewards, ref.rewards)
    assert ours.abort_count == ref.abort_count
    assert ours.final_V == ref.final_V
    assert [e.start_round for e in ours.epochs] == [e.start_round for e in ref.epochs]
    assert np.array_equal(ours.per_type_avg, ref.per_type_avg, equal_nan=True)
    assert np.array_equal(ours.learner_avg, ref.learner_avg, equal_nan=True)

