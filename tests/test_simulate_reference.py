"""`playback.simulate` against a plain per-round copy of the round loop.

`reference_simulate` plays every round the direct way: it asks both
policies to act, shows both the round, and checks the menu on the running
profile. The library's `simulate` must give exactly the same report, field
for field, the same `on_round` calls, and leave the learner in the same
state, whether the opponent follows the published schedule to the end,
leaves it at some round, never joins it, or the learner publishes no track.

The menu check runs once over the finished transcript, replayed and
played rounds alike, and checks only near-maximal rounds again with the
kernel, so the menus below include faces on which every round is checked
again, a kernel that rounds apart from the batched screen, a maximum late
in the run, runs with no round replayed, a mix whose -1e-13 entry the
check must clip, transcripts cut into chunks of 7 rounds, and a sweep of
108 games.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from conftest import random_game
from menuopt import playback
from menuopt.core import BimatrixGame, Csp, Transcript, bilinear_value, csp_of_transcript
from menuopt.errors import InvalidInput
from menuopt.maximin import threshold_assignment
from menuopt.menus import HalfspaceMenu, no_regret_menu
from menuopt.nr_commitment import optimal_no_regret_commitment
from menuopt.playback import (
    BlackwellAbortPolicy,
    ComposedAbortableLearner,
    FixedMixPolicy,
    LearnerPolicy,
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
            calls.append((t, np.asarray(x, dtype=float).tobytes(), y.tobytes()))

        report = sim(game, learner, make_opponent(), T, on_round=on_round, **kw)
        sides.append((report, calls, learner))
    (got, got_calls, got_learner), (ref, ref_calls, ref_learner) = sides
    for f in fields(SimReport):
        assert _bits(getattr(got, f.name)) == _bits(getattr(ref, f.name)), f.name
    assert got_calls == ref_calls
    return got_learner, ref_learner


def integer_game():
    """3x3, k = 2, payoffs in -3..3; the type-0 pick weighs three pairs 1/3 each."""
    rng = np.random.default_rng([9300, 5])
    u_L = rng.integers(-3, 4, (3, 3)).astype(float)
    return BimatrixGame(u_L, tuple((rng.integers(-3, 4, (3, 3)).astype(float), 0.5) for _ in range(2)))


def commit_nr_play(game):
    """A commit-nr learner over the no-regret hull of `game`, and the type-0 pick."""
    res = optimal_no_regret_commitment(game)
    chosen, _, _ = optimizer_best_response_policy(
        res.nsr_menu, res.extra_points, game.u_O(0), game.u_L, game
    )
    targets = list(res.extra_points) + [chosen]

    def learner():
        return MenuScheduleLearner(no_regret_menu(game), targets, res.nsr_menu)

    return game, learner, chosen, len(targets) - 1


@pytest.fixture(scope="module", params=["g1", "3x3k2", "integer"])
def played(request, g1):
    games = {
        "g1": lambda: g1,
        "3x3k2": lambda: random_game(np.random.default_rng(31), 3, 3, 2),
        "integer": integer_game,
    }
    return commit_nr_play(games[request.param]())


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


class JitteredMenu(HalfspaceMenu):
    """A kernel that sums in another order than the batched screen.

    Its value is the correctly rounded sum of the rounded products, minus
    rhs, moved by a jitter drawn from the bits of w of up to 2u times the
    largest |N| or |rhs|: within 5u (max|N| + max|rhs|) of the exact
    value, inside the bound that the replay's recheck allows any
    summation order when mn >= 3.
    """

    def violation(self, w):
        sums = np.array([math.fsum(row * w) for row in self.normals]) - self.rhs
        size = np.finfo(float).eps * max(np.abs(self.normals).max(), np.abs(self.rhs).max())
        jitter = np.random.default_rng(w.view(np.uint64)).uniform(-size, size, sums.size)
        return float(max(0.0, np.max(sums + jitter)))


def _replay_menus(game, chosen):
    support = (chosen.weights > 0).astype(float)
    nr = no_regret_menu(game)
    return {
        # the schedule plays only pairs on this face, so every replayed round
        # reads 0.1 sum(w_t) - 0.1, zero up to round-off; the kernel and the
        # batched screen round it apart on some rounds, and on g1 the largest
        # violation falls on a round whose screened value is not the largest
        "face": HalfspaceMenu(0.1 * support[None], [0.1]),
        # the same face under a kernel that rounds apart from the screen on
        # every round, whatever the BLAS
        "jittered face": JitteredMenu(0.1 * support[None], [0.1]),
        # one ulp higher: on 3x3k2 every screened value is below 0, while the
        # kernel reads above 0 on some round
        "jittered raised face": JitteredMenu(0.1 * support[None], [np.nextafter(0.1, 1.0)]),
        "face+no-regret": HalfspaceMenu(np.vstack([0.1 * support, nr.normals]), np.append(0.1, nr.rhs)),
        "slack": HalfspaceMenu(np.ones((1, support.size)), [2.0]),
        "unconstrained": HalfspaceMenu.unconstrained(support.size),
    }


REPLAY_MENUS = ["face", "jittered face", "jittered raised face", "face+no-regret", "slack", "unconstrained"]


@pytest.mark.parametrize("chunk", [7, playback._CHECK_CHUNK], ids=["chunk7", "chunk-default"])
@pytest.mark.parametrize("menu", REPLAY_MENUS)
@pytest.mark.parametrize("d", [0, T // 2, T])
def test_replay_menu_check(played, monkeypatch, chunk, menu, d):
    # at d = 0 the opponent publishes no track, so no round is replayed and
    # the learner forces from round 0 on float-summed profiles
    game, learner, chosen, index = played
    monkeypatch.setattr(playback, "_CHECK_CHUNK", chunk)
    opponent = TracklessLeavesSchedule if d == 0 else LeavesSchedule
    got, ref = run_both(
        game, learner, lambda: opponent(chosen, d), T,
        chosen_target=index, menu=_replay_menus(game, chosen)[menu],
    )
    assert _bits(got.avg) == _bits(ref.avg)


@pytest.mark.parametrize("chunk", [7, playback._CHECK_CHUNK], ids=["chunk7", "chunk-default"])
@pytest.mark.parametrize("menu", REPLAY_MENUS)
def test_menu_check_clips_negative_profile_entries(played, monkeypatch, chunk, menu):
    # a mix with a -1e-13 entry leaves entries of the running profile below
    # 0, which the check clips to 0 before the kernel, as the loop does
    game, learner, chosen, index = played
    mix = np.eye(game.n)[0]
    mix[1] = -1e-13
    monkeypatch.setattr(playback, "_CHECK_CHUNK", chunk)
    got, ref = run_both(
        game, learner, lambda: FixedMixPolicy(mix), T,
        chosen_target=index, menu=_replay_menus(game, chosen)[menu],
    )
    assert (got.avg < 0).any()
    assert _bits(got.avg) == _bits(ref.avg)


class TrackLearner(LearnerPolicy):
    """Plays the rows of a fixed pair sequence and publishes it as its track."""

    def __init__(self, pairs):
        self.pairs = pairs

    def reset(self, game, T, chosen_target):
        self.rows = np.eye(game.m)[self.pairs // game.n]

    def act(self, t):
        return self.rows[t]

    def track(self):
        return self.pairs

    def fast_forward(self, d):
        pass


class TrackOpponent(OpponentPolicy):
    """Plays the columns of a fixed pair sequence."""

    def __init__(self, pairs):
        self.pairs = pairs

    def reset(self, game, T):
        self.columns = self.pairs % game.n
        self.cols = np.eye(game.n)[self.columns]

    def act(self, t):
        return self.cols[t]

    def track(self):
        return self.columns


@pytest.mark.parametrize("chunk", [7, playback._CHECK_CHUNK], ids=["chunk7", "chunk-default"])
def test_replay_maximum_reached_late(g1, monkeypatch, chunk):
    # pair 1 is played ever more often, so w_t[1] - 0.3 peaks late in the run
    rng = np.random.default_rng(9400)
    rising = rng.random(T) < np.linspace(0.0, 0.8, T)
    pairs = np.where(rising, 1, rng.choice([0, 2, 3, 4, 5], T))
    menu = HalfspaceMenu(np.eye(6)[[1, 0]], [0.3, 0.9])
    counts = np.cumsum(np.eye(6)[pairs], axis=0) / np.arange(1, T + 1)[:, None]
    assert np.argmax(counts[:, 1]) > T // 2
    monkeypatch.setattr(playback, "_CHECK_CHUNK", chunk)
    run_both(g1, lambda: TrackLearner(pairs), lambda: TrackOpponent(pairs), T, menu=menu)


# 108 games over every shape with m <= 4, n <= 3, k <= 3, one row or column
# included; each learner plays its type-0 pick to the end, and the run's
# menu check is the batched one throughout
SWEEP = [(m, n, k, s) for m in range(1, 5) for n in range(1, 4) for k in range(1, 4) for s in range(3)]


@pytest.mark.parametrize("m,n,k,s", SWEEP, ids=[f"{m}x{n}k{k}-{s}" for m, n, k, s in SWEEP])
def test_sweep_commit_nr_hull(m, n, k, s):
    game = random_game(np.random.default_rng([9100 + s, m, n, k]), m, n, k)
    game, learner, chosen, index = commit_nr_play(game)
    run_both(
        game, learner, lambda: SchedulePolicy(chosen), T,
        chosen_target=index, menu=no_regret_menu(game),
    )
