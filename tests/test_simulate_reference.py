"""`playback.simulate` against a plain per-round copy of the round loop.

`reference_simulate` plays every round the direct way: it asks both
policies to act, shows both the round, and checks the menu on the running
profile. The library's `simulate` must give exactly the same report, field
for field, the same `on_round` calls, and leave the learner in the same
state, whether the opponent follows the published schedule to the end,
leaves it at some round, never joins it, or the learner publishes no track.
"""

from dataclasses import fields

import numpy as np
import pytest

from conftest import random_game
from menuopt.core import Csp, Transcript, bilinear_value, csp_of_transcript
from menuopt.errors import InvalidInput
from menuopt.maximin import threshold_assignment
from menuopt.menus import HalfspaceMenu, no_regret_menu
from menuopt.nr_commitment import optimal_no_regret_commitment
from menuopt.playback import (
    BlackwellAbortPolicy,
    ComposedAbortableLearner,
    FixedMixPolicy,
    MenuScheduleLearner,
    OpponentPolicy,
    SchedulePolicy,
    SimReport,
    optimizer_best_response_policy,
    schedule_for,
    simulate,
)
from test_playback import AbortAfter

T = 600


def reference_simulate(game, learner, opponent, T, type_index=0, chosen_target=None, menu=None, on_round=None):
    learner.reset(game, T, chosen_target)
    opponent.reset(game, T)
    xs = np.zeros((T, game.m))
    ys = np.zeros((T, game.n))
    avg = np.zeros(game.m * game.n)
    max_viol = 0.0
    viol = 0.0
    for t in range(T):
        x = learner.act(t)
        if x is None:
            raise InvalidInput("learner aborted outside a composed policy")
        y = opponent.act(t)
        xs[t] = x
        ys[t] = y
        learner.observe(t, x, y)
        opponent.observe(t, x, y)
        if on_round is not None:
            on_round(t, x, y)
        avg += np.outer(x, y).ravel()
        if menu is not None:
            viol = menu.violation(np.maximum(avg / (t + 1), 0.0))
            max_viol = max(max_viol, viol)
    transcript = Transcript(xs, ys)
    final = csp_of_transcript(transcript)
    per_type = np.array([bilinear_value(game.u_O(i), final) for i in range(game.k)])
    return SimReport(
        transcript=transcript,
        final_csp=final,
        learner_avg=float(bilinear_value(game.u_L, final)),
        opponent_avg=float(per_type[type_index]),
        per_type_avg=per_type,
        max_menu_violation=float(max_viol),
        final_menu_violation=float(viol),
    )


class LeavesSchedule(OpponentPolicy):
    """Plays the column track of `target`'s schedule up to round d, then the next column."""

    def __init__(self, target: Csp, d: int):
        self.target = target
        self.d = d

    def reset(self, game, T):
        self.columns = schedule_for(self.target, T) % game.n
        self.columns[self.d :] = (self.columns[self.d :] + 1) % game.n
        self.n = game.n

    def track(self):
        return self.columns

    def act(self, t):
        y = np.zeros(self.n)
        y[self.columns[t]] = 1.0
        return y


class TracklessLeavesSchedule(LeavesSchedule):
    def track(self):
        return None


def _bits(value):
    if isinstance(value, Transcript):
        return (_bits(value.xs), _bits(value.ys))
    if isinstance(value, Csp):
        return _bits(value.weights)
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    assert isinstance(value, float), type(value)
    return np.float64(value).tobytes()


def run_both(game, make_learner, make_opponent, T, **kw):
    """Runs the library and the reference on fresh policies; returns both learners."""
    sides = []
    for sim in (simulate, reference_simulate):
        learner, calls = make_learner(), []

        def on_round(t, x, y):
            calls.append((t, x.tobytes(), y.tobytes()))

        report = sim(game, learner, make_opponent(), T, on_round=on_round, **kw)
        sides.append((report, calls, learner))
    (got, got_calls, got_learner), (ref, ref_calls, ref_learner) = sides
    for f in fields(SimReport):
        assert _bits(getattr(got, f.name)) == _bits(getattr(ref, f.name)), f.name
    assert got_calls == ref_calls
    return got_learner, ref_learner


@pytest.fixture(scope="module", params=["g1", "3x3k2"])
def played(request, g1):
    """A game, a commit-nr learner over its no-regret hull, and the type-0 pick."""
    game = g1 if request.param == "g1" else random_game(np.random.default_rng(31), 3, 3, 2)
    res = optimal_no_regret_commitment(game)
    chosen, _, _ = optimizer_best_response_policy(
        res.nsr_menu, res.extra_points, game.u_O(0), game.u_L, game
    )
    targets = list(res.extra_points) + [chosen]

    def learner():
        return MenuScheduleLearner(no_regret_menu(game), targets, res.nsr_menu)

    return game, learner, chosen, len(targets) - 1


def _menus(game):
    return {
        "none": None,
        "unconstrained": HalfspaceMenu.unconstrained(game.m * game.n),
        "no-regret": no_regret_menu(game),
    }


@pytest.mark.parametrize("menu", ["none", "unconstrained", "no-regret"])
@pytest.mark.parametrize("d", [0, 1, T // 2, T - 1, T])
def test_defection_at_round_d(played, menu, d):
    game, learner, chosen, index = played
    for opponent in (LeavesSchedule, TracklessLeavesSchedule):
        got, ref = run_both(
            game, learner, lambda: opponent(chosen, d), T,
            chosen_target=index, menu=_menus(game)[menu], type_index=0,
        )
        assert got.defected == ref.defected == (d < T)
        assert got.rounds == ref.rounds == T
        assert _bits(got.avg) == _bits(ref.avg)


def test_schedule_policy_long_run(played):
    game, learner, chosen, index = played
    got, ref = run_both(
        game, learner, lambda: SchedulePolicy(chosen), 5000,
        chosen_target=index, menu=no_regret_menu(game),
    )
    assert not got.defected and not ref.defected
    assert _bits(got.avg) == _bits(ref.avg)


@pytest.mark.parametrize("y", ["first", "last", "mixed", "signed zeros"])
@pytest.mark.parametrize("menu", ["none", "unconstrained", "no-regret"])
def test_fixed_mix_opponent(played, y, menu):
    game, learner, _, index = played
    mix = {
        "first": np.eye(game.n)[0],
        "last": np.eye(game.n)[-1],
        "mixed": np.full(game.n, 1.0 / game.n),
        # equal to column 0 for the learner's defection check, but not in its bits
        "signed zeros": np.where(np.eye(game.n)[0] > 0, 1.0, -0.0),
    }[y]
    for chosen_target in (None, 0, index):
        got, ref = run_both(
            game, learner, lambda: FixedMixPolicy(mix), T,
            chosen_target=chosen_target, menu=_menus(game)[menu],
        )
        assert (got.defected, got.rounds) == (ref.defected, ref.rounds)
        assert _bits(got.avg) == _bits(ref.avg)


@pytest.mark.parametrize("menu", ["none", "unconstrained", "no-regret"])
def test_trackless_composed_learners(g1, menu):
    a = Csp.point_mass(2, 0, 3, 2)
    b = Csp.point_mass(0, 1, 3, 2)
    run_both(
        g1, lambda: ComposedAbortableLearner([AbortAfter(a, abort_at=T // 3), AbortAfter(b)]),
        lambda: SchedulePolicy(a), T, menu=_menus(g1)[menu],
    )
    assign = threshold_assignment(g1, 5.0)
    run_both(
        g1, lambda: ComposedAbortableLearner([BlackwellAbortPolicy(assign)]),
        lambda: SchedulePolicy(assign[0]), T, menu=_menus(g1)[menu],
    )
