"""Maximin learner: value-threshold assignments plus abortable Blackwell play.

The learner maintains a value level V, assigns each opponent type its
favorite profile among those worth at least V to the learner, and runs
hedge-weighted halfspace forcing against the induced candidate menu.
Aborting is a legal outcome that certifies the menu was not forceable;
the epoch loop then lowers V and restarts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from . import lp
from .approachability import TesterNet, test_assignment_valid
from .core import (BimatrixGame, Csp, CspAssignment, Transcript, bilinear_value,
                   csp_of_transcript, schedule_blocks)
from .errors import EmptyMenu, InvalidInput, ThresholdInfeasible
from .menus import candidate_menu, type_picks

# threshold_assignment's tie-break stage may leave c up to lp.TIE_SLACK below
# a forceable level, so act() allows twice that before it aborts
_SLACK = 2 * lp.TIE_SLACK
_SCHEDULE_WRAP = 100_000  # rounds after which the schedule adversary starts over
_DRAW_BLOCK = 4096  # Dirichlet mixes the random adversary draws at once


def hedge_weights(cumulative: np.ndarray, t: int, p_max: float) -> np.ndarray:
    """Weights proportional to exp(eta_t * cumulative), uniform when p_max = 0,
    with eta_t = sqrt(ln k / t) / (2 * p_max) for rewards in [-2 p_max, 2 p_max]."""
    k = cumulative.size
    if k == 1 or t == 0 or p_max == 0:
        return np.full(k, 1.0 / k)
    return _hedge(cumulative, t, float(np.log(k)), 2.0 * p_max)


def _hedge(cumulative: np.ndarray, t: int, log_k: float, two_p_max: float) -> np.ndarray:
    # hedge_weights past its uniform cases, given ln k and 2 p_max; math.sqrt
    # rounds correctly as np.sqrt does, and in-place ufuncs give the same bits
    w = np.multiply(cumulative, math.sqrt(log_k / t) / two_p_max)
    w -= np.maximum.reduce(w)
    np.exp(w, out=w)
    w /= np.add.reduce(w)
    return w


class ForcingState:
    """Hedge-weighted halfspace forcing against one candidate menu.

    act() seeks x with sum_i p_i (u_{O,i}(x, y) - c_i) <= 0 for every
    opponent mix y (pure y suffice by linearity); when none exists, the
    dual mix y* of certificate() refutes response satisfiability of the
    menu and aborting is the only move left.

    act() solves the weighted game in closed form when it has two columns
    (`lp.minmax_rows_by_2`) or two rows (`lp.minmax_2_by_cols`), and by the
    simplex (`lp.zero_sum_value`) otherwise; certificate() always takes the
    simplex, since it needs the dual mix y. The solver is looked up on `lp`
    when the state is built.

    act() solves again only when the bytes of p differ from those of its
    last solve, and otherwise returns the kept answer; with k = 1, p never
    moves, so one solve serves the whole epoch. The x it returns is
    read-only, because the same array may serve many rounds.

    While act() keeps its x, observe(x, y) stores the reward of each float64
    y by y's bytes and returns the stored array when the same bytes come
    again: equal inputs give the same einsum bits. The store is used only
    when x is the kept array itself, is emptied when act() solves again,
    holds at most n + 1 rewards (the n pure columns of a schedule and one
    certificate), so fresh random mixes cannot grow it, and its arrays are
    read-only. observe() leaves p as it is where `hedge_weights` would
    return the uniform start (k = 1 or p_max = 0).
    """

    def __init__(self, game: BimatrixGame, assignment: CspAssignment):
        self.game = game
        self.assignment = assignment
        self.c = candidate_menu(assignment, 0.0, game).rhs
        self.p = np.full(game.k, 1.0 / game.k)
        self.t = 0
        self.cumulative = np.zeros(game.k)
        self._flat = game.opponent_payoffs.reshape(game.k, -1)
        self._shape = (game.m, game.n)
        if game.n == 2:
            self._solve = lp.minmax_rows_by_2
        elif game.m == 2:
            self._solve = lp.minmax_2_by_cols
        else:
            zero_sum_value = lp.zero_sum_value
            self._solve = lambda omega: zero_sum_value(omega)[:2]
        # ln k and 2 p_max for _hedge, or None where hedge_weights stays uniform
        self._hedge_args = (float(np.log(game.k)), 2.0 * game.p_max) if game.k > 1 and game.p_max else None
        self._kept = (b"", None)  # p's bytes at the last solve, and act()'s answer
        self._stored: Optional[Dict[bytes, np.ndarray]] = None  # opened once x is kept
        self._store_cap = game.n + 1

    def _omega(self) -> np.ndarray:
        # tensordot's own (1, k) x (k, m n) product: p @ flat may take another BLAS kernel
        return np.dot(self.p.reshape(1, -1), self._flat).reshape(self._shape)

    def act(self) -> Optional[np.ndarray]:
        """The round's action x, or None when only aborting remains."""
        key = self.p.tobytes()
        if key != self._kept[0]:
            val, x = self._solve(self._omega())
            x.flags.writeable = False
            self._kept = (key, x if val <= float(self.p @ self.c) + _SLACK else None)
            self._stored = None
        elif self._stored is None:
            self._stored = {}
        return self._kept[1]

    def certificate(self) -> np.ndarray:
        """The opponent mix that refutes the menu at the current weights."""
        return lp.zero_sum_value(self._omega())[2]

    def _reward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        r = np.einsum("i,kij,j->k", x, self.game.opponent_payoffs, y)
        r -= self.c
        return r

    def observe(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Feed the rewards u_{O,i}(x, y) - c_i; returns them."""
        stored = self._stored
        if stored is not None and x is self._kept[1] and type(y) is np.ndarray and y.dtype is lp._FLOAT:
            key = y.tobytes()
            r = stored.get(key)
            if r is None:
                r = self._reward(x, y)
                if len(stored) < self._store_cap:
                    r.flags.writeable = False
                    stored[key] = r
        else:
            r = self._reward(x, y)
        self.cumulative += r
        self.t += 1
        if self._hedge_args is not None:
            self.p = _hedge(self.cumulative, self.t, *self._hedge_args)
        return r


def threshold_assignment(game: BimatrixGame, V: float) -> CspAssignment:
    """Per type, its `menus.type_picks` pick of the level set {u_L(phi) >= V}:
    deterministic and incentive compatible."""
    if V > float(np.max(game.u_L)) + _SLACK:
        raise ThresholdInfeasible(f"no profile attains learner value {V}")
    base = [lp.simplex_row(game.m * game.n), (game.u_L.ravel(), lp.GE, float(V))]
    try:
        picks = type_picks(base, game.opponent_payoffs.reshape(game.k, -1), game.u_L.ravel())
    except EmptyMenu as exc:
        raise ThresholdInfeasible(f"level set at {V} is empty") from exc
    return CspAssignment(tuple(Csp(lp.normalized(pick.point)) for pick in picks))


class _RunGenerator(np.random.Generator):
    """A run's generator: the stream of `np.random.default_rng(seed)`, which
    also keeps the uniform mixes the random adversary has drawn ahead.

    `self.dirichlet(np.ones(n), size=B)` gives, row by row, the values of B
    single draws, so the kept rows replay single draws bit for bit, and the
    rows left when an epoch aborts serve the next epoch of the run. Drawing
    ahead is sound while the random adversary is the only policy that draws
    from the run's generator, as with every adversary of this module.
    """

    def __init__(self, seed: int):
        super().__init__(np.random.PCG64(seed))
        self._mixes = iter(())
        self._mix_n = 0

    def uniform_mix(self, n: int) -> np.ndarray:
        """The next `self.dirichlet(np.ones(n))`, read-only."""
        y = next(self._mixes, None) if n == self._mix_n else None
        if y is None:
            block = self.dirichlet(np.ones(n), size=_DRAW_BLOCK)
            block.flags.writeable = False
            self._mixes, self._mix_n = iter(block), n
            y = next(self._mixes)
        return y


# Adversaries are test instruments. An adversary is told of each epoch once,
# with the game and the epoch's assignment, and returns the round policy that
# maps the run's generator to the opponent's next mix.
RoundPolicy = Callable[[_RunGenerator], np.ndarray]
Adversary = Callable[[BimatrixGame, CspAssignment], RoundPolicy]


def random_adversary(game: BimatrixGame, assignment: CspAssignment) -> RoundPolicy:
    """Plays `rng.dirichlet(np.ones(n))` every round, from the blocks the
    run's generator draws ahead."""
    n = game.n
    return lambda rng: rng.uniform_mix(n)


def _one_hot(j: int, n: int) -> np.ndarray:
    y = np.zeros(n)
    y[j] = 1.0
    y.flags.writeable = False
    return y


def make_schedule_adversary() -> Adversary:
    """Plays the column track of a pure-pair schedule for type 0's assigned profile.

    The schedule restarts every epoch and wraps after 100,000 rounds. Its
    blocks are built only when the epoch reaches them, and a block holds at
    most as many pairs as those before it, so after r rounds of an epoch at
    most max(64, 2r) pairs are built. Each round yields one of n shared
    read-only one-hot columns.
    """

    def adversary(game: BimatrixGame, assignment: CspAssignment) -> RoundPolicy:
        pure = [_one_hot(j, game.n) for j in range(game.n)]

        def columns():
            while True:
                blocks = schedule_blocks(assignment[0])
                for j in islice(chain.from_iterable((block % game.n).tolist() for block in blocks), _SCHEDULE_WRAP):
                    yield pure[j]

        track = columns()
        return lambda rng: next(track)

    return adversary


def make_aborter_adversary(probe_delta: float = 0.02) -> Adversary:
    """Plays an invalidity certificate whenever the epoch's menu has one,
    otherwise falls back to the assigned schedule.

    One tester net, built at the first probe of a game, serves every epoch
    of the run and of later runs on the same game; a new game gets a new net.
    """
    schedule = make_schedule_adversary()
    net: Optional[TesterNet] = None

    def adversary(game: BimatrixGame, assignment: CspAssignment) -> RoundPolicy:
        nonlocal net
        if net is None or net.game is not game:
            net = TesterNet.build(game, probe_delta)
        verdict = test_assignment_valid(assignment, game, probe_delta, net)
        if verdict.approachable:
            return schedule(game, assignment)
        cert = verdict.certificate_y
        return lambda rng: cert

    return adversary


ADVERSARIES = {
    "random": lambda: random_adversary,
    "aborter": make_aborter_adversary,
    "bestresponse": make_schedule_adversary,
    "schedule": make_schedule_adversary,
}


@dataclass(frozen=True)
class BlackwellRun:
    transcript: Transcript
    rewards: np.ndarray  # (T, k) per-round constraint rewards
    aborted_at: Optional[int]
    certificate: Optional[np.ndarray]


class _Rounds:
    """The rounds played against one adversary, across forcing epochs, written
    into arrays allocated once per run; `played` counts the rounds so far."""

    def __init__(self, game: BimatrixGame, adversary: Adversary, seed: int, T: int):
        self.adversary = adversary
        self.rng = _RunGenerator(seed)
        self.xs = np.empty((T, game.m))
        self.ys = np.empty((T, game.n))
        self.rewards = np.empty((T, game.k))
        self.played = 0

    def play_epoch(self, state: ForcingState) -> int:
        """Plays on from the next round until the state aborts or the run ends.

        The adversary is told of the epoch at its first round that has an
        action. Returns the round it stopped at: T, or the round it aborted in.
        """
        act, observe, rng = state.act, state.observe, self.rng
        xs, ys, rewards = self.xs, self.ys, self.rewards
        policy = None
        for t in range(self.played, len(xs)):
            x = act()
            if x is None:
                self.played = t
                return t
            if policy is None:
                policy = self.adversary(state.game, state.assignment)
            y = policy(rng)
            xs[t] = x
            ys[t] = y
            rewards[t] = observe(x, y)
        self.played = len(xs)
        return self.played

    def arrays(self) -> Tuple[Transcript, np.ndarray]:
        t = self.played
        return Transcript(self.xs[:t], self.ys[:t]), self.rewards[:t]


def run_blackwell_abort(
    game: BimatrixGame,
    assignment: CspAssignment,
    adversary: Adversary,
    T: int,
    seed: int = 0,
) -> BlackwellRun:
    """Drive one abortable run for up to T rounds against an adversary."""
    if T < 1:
        raise InvalidInput("horizon must be at least one round")
    state = ForcingState(game, assignment)
    rounds = _Rounds(game, adversary, seed, T)
    t = rounds.play_epoch(state)
    transcript, rewards = rounds.arrays()
    if t == T:
        return BlackwellRun(transcript, rewards, aborted_at=None, certificate=None)
    return BlackwellRun(transcript, rewards, aborted_at=t, certificate=state.certificate())


@dataclass(frozen=True)
class EpochRecord:
    V: float
    start_round: int
    assignment: CspAssignment


@dataclass(frozen=True)
class MaximinRun:
    final_V: float
    transcript: Transcript
    per_type_avg: np.ndarray
    learner_avg: float
    abort_count: int
    epochs: Tuple[EpochRecord, ...]
    rewards: np.ndarray  # (T, k) per-round rewards against the epoch thresholds


def run_maximin(
    game: BimatrixGame,
    eps: float,
    adversary: Adversary,
    T: int,
    seed: int = 0,
) -> MaximinRun:
    """Epoch loop: start at the top learner value, back off eps per abort."""
    if T < 1:
        raise InvalidInput("horizon must be at least one round")
    if not (0 < eps < np.inf):
        raise InvalidInput("eps must be positive and finite")
    rounds = _Rounds(game, adversary, seed, T)
    V = float(np.max(game.u_L))
    assignment = threshold_assignment(game, V)
    epochs: List[EpochRecord] = [EpochRecord(V, 0, assignment)]
    abort_count = 0
    floor = float(np.min(game.u_L))
    while True:
        t = rounds.play_epoch(ForcingState(game, assignment))
        if t == T:
            break
        abort_count += 1
        if V - eps == V:
            raise InvalidInput(f"eps {eps} is too small to lower the level {V}")
        V -= eps
        if V < floor - eps:  # cannot happen for valid games; safety stop
            break
        assignment = threshold_assignment(game, max(V, floor))
        epochs.append(EpochRecord(V, t, assignment))
    transcript, rewards = rounds.arrays()
    if len(transcript):
        final = csp_of_transcript(transcript)
        per_type = np.array([bilinear_value(game.u_O(i), final) for i in range(game.k)])
        learner_avg = float(bilinear_value(game.u_L, final))
    else:  # only the safety stop ends a run before its first round
        per_type = np.full(game.k, np.nan)
        learner_avg = float("nan")
    return MaximinRun(
        final_V=V,
        transcript=transcript,
        per_type_avg=per_type,
        learner_avg=learner_avg,
        abort_count=abort_count,
        epochs=tuple(epochs),
        rewards=rewards,
    )
