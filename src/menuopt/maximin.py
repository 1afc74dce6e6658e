"""Maximin learner: value-threshold assignments plus abortable Blackwell play.

The learner maintains a value level V, assigns each opponent type its
favorite profile among those worth at least V to the learner, and runs
hedge-weighted halfspace forcing against the induced candidate menu.
Aborting is a legal outcome that certifies the menu was not forceable;
the epoch loop then lowers V and restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import lp
from .approachability import TesterNet, test_assignment_valid
from .core import (BimatrixGame, Csp, CspAssignment, Transcript, bilinear_value,
                   csp_of_transcript, schedule_pairs)
from .errors import InvalidInput, NumericalFailure, ThresholdInfeasible
from .menus import candidate_menu

# threshold_assignment's tie-break stage may leave c up to lp.TIE_SLACK below
# a forceable level, so act() allows twice that before it aborts
_SLACK = 2 * lp.TIE_SLACK
_SCHEDULE_WRAP = 100_000  # rounds after which the schedule adversary starts over


def hedge_weights(cumulative: np.ndarray, t: int, p_max: float) -> np.ndarray:
    """Weights proportional to exp(eta_t * cumulative), uniform when p_max = 0,
    with eta_t = sqrt(ln k / t) / (2 * p_max) for rewards in [-2 p_max, 2 p_max]."""
    k = cumulative.size
    if k == 1 or t == 0 or p_max == 0:
        return np.full(k, 1.0 / k)
    eta = np.sqrt(np.log(k) / t) / (2.0 * p_max)
    z = eta * cumulative
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


class ForcingState:
    """Hedge-weighted halfspace forcing against one candidate menu.

    act() seeks x with sum_i p_i (u_{O,i}(x, y) - c_i) <= 0 for every
    opponent mix y (pure y suffice by linearity); when none exists, the
    dual mix y* of certificate() refutes response satisfiability of the
    menu and aborting is the only move left.

    act() solves the weighted game in closed form when it has two columns
    (`lp.minmax_rows_by_2`) or two rows (`lp.minmax_2_by_cols`), and by the
    simplex (`lp.zero_sum_value`) otherwise; certificate() always takes the
    simplex, since it needs the dual mix y.

    act() solves again only when the bytes of p differ from those of its
    last solve, and otherwise returns the kept answer; with k = 1, p never
    moves, so one solve serves the whole epoch. The x it returns is
    read-only, because the same array may serve many rounds.
    """

    def __init__(self, game: BimatrixGame, assignment: CspAssignment):
        self.game = game
        self.assignment = assignment
        self.c = candidate_menu(assignment, 0.0, game).rhs
        self.p = np.full(game.k, 1.0 / game.k)
        self.t = 0
        self.cumulative = np.zeros(game.k)
        self._flat = game.opponent_payoffs.reshape(game.k, -1)
        self._kept = (b"", None)  # p's bytes at the last solve, and act()'s answer

    def _omega(self) -> np.ndarray:
        # tensordot's own (1, k) x (k, m n) product: p @ flat may take another BLAS kernel
        return np.dot(self.p.reshape(1, -1), self._flat).reshape(self.game.m, self.game.n)

    def act(self) -> Optional[np.ndarray]:
        """The round's action x, or None when only aborting remains."""
        key = self.p.tobytes()
        if key != self._kept[0]:
            omega = self._omega()
            if self.game.n == 2:
                val, x = lp.minmax_rows_by_2(omega)
            elif self.game.m == 2:
                val, x = lp.minmax_2_by_cols(omega)
            else:
                val, x, _ = lp.zero_sum_value(omega)
            x.flags.writeable = False
            self._kept = (key, x if val <= float(self.p @ self.c) + _SLACK else None)
        return self._kept[1]

    def certificate(self) -> np.ndarray:
        """The opponent mix that refutes the menu at the current weights."""
        return lp.zero_sum_value(self._omega())[2]

    def observe(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Feed the rewards u_{O,i}(x, y) - c_i; returns them."""
        r = np.einsum("i,kij,j->k", x, self.game.opponent_payoffs, y) - self.c
        self.cumulative += r
        self.t += 1
        self.p = hedge_weights(self.cumulative, self.t, self.game.p_max)
        return r


def threshold_assignment(game: BimatrixGame, V: float) -> CspAssignment:
    """Per type, its favorite profile among {u_L(phi) >= V}, learner-tie-broken.

    Two programs per type: the type's top utility over the level set,
    then the learner's best profile among those top points, which makes
    the assignment deterministic and incentive compatible.
    """
    mn = game.m * game.n
    if V > float(np.max(game.u_L)) + _SLACK:
        raise ThresholdInfeasible(f"no profile attains learner value {V}")
    base = [lp.simplex_row(mn), (game.u_L.ravel(), lp.GE, float(V))]
    profiles = []
    for i in range(game.k):
        stages = lp.solve_lexicographic([game.u_O(i).ravel(), game.u_L.ravel()], base)
        if not stages[0].is_optimal:
            raise ThresholdInfeasible(f"level set at {V} is empty")
        if not stages[-1].is_optimal:
            raise NumericalFailure("tie-breaking solve failed")
        w = np.maximum(stages[-1].point, 0.0)
        profiles.append(Csp(w / w.sum()))
    return CspAssignment(tuple(profiles))


# Adversaries are test instruments. An adversary is told of each epoch once,
# with the game and the epoch's assignment, and returns the round policy that
# maps the run's generator to the opponent's next mix.
RoundPolicy = Callable[[np.random.Generator], np.ndarray]
Adversary = Callable[[BimatrixGame, CspAssignment], RoundPolicy]


def random_adversary(game: BimatrixGame, assignment: CspAssignment) -> RoundPolicy:
    return lambda rng: rng.dirichlet(np.ones(game.n))


def _one_hot(j: int, n: int) -> np.ndarray:
    y = np.zeros(n)
    y[j] = 1.0
    y.flags.writeable = False
    return y


def make_schedule_adversary(type_index: int = 0) -> Adversary:
    """Plays the column track of a pure-pair schedule for its assigned profile.

    The schedule restarts every epoch and wraps after 100,000 rounds; its
    pairs are generated only as far as the epoch has played. Each round
    yields one of n shared read-only one-hot columns.
    """

    def adversary(game: BimatrixGame, assignment: CspAssignment) -> RoundPolicy:
        pure = [_one_hot(j, game.n) for j in range(game.n)]

        def columns():
            while True:
                for pair in islice(schedule_pairs(assignment[type_index]), _SCHEDULE_WRAP):
                    yield pure[pair % game.n]

        track = columns()
        return lambda rng: next(track)

    return adversary


def make_aborter_adversary(probe_delta: float = 0.02, type_index: int = 0) -> Adversary:
    """Plays an invalidity certificate whenever the epoch's menu has one,
    otherwise falls back to the assigned schedule.

    One tester net, built at the first probe, serves every epoch of the run.
    """
    schedule = make_schedule_adversary(type_index)
    net: Optional[TesterNet] = None

    def adversary(game: BimatrixGame, assignment: CspAssignment) -> RoundPolicy:
        nonlocal net
        if net is None:
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
    """The rounds played against one adversary, across forcing epochs."""

    def __init__(self, adversary: Adversary, seed: int):
        self.adversary = adversary
        self.rng = np.random.default_rng(seed)
        self.xs: List[np.ndarray] = []
        self.ys: List[np.ndarray] = []
        self.rewards: List[np.ndarray] = []

    def play_epoch(self, state: ForcingState, T: int) -> int:
        """Plays on from the next round until the state aborts or round T.

        The adversary is told of the epoch at its first round that has an
        action. Returns the round it stopped at: T, or the round it aborted in.
        """
        policy = None
        for t in range(len(self.xs), T):
            x = state.act()
            if x is None:
                return t
            if policy is None:
                policy = self.adversary(state.game, state.assignment)
            y = policy(self.rng)
            self.xs.append(x)
            self.ys.append(y)
            self.rewards.append(state.observe(x, y))
        return T

    def arrays(self, game: BimatrixGame) -> Tuple[Transcript, np.ndarray]:
        transcript = Transcript(np.reshape(self.xs, (-1, game.m)), np.reshape(self.ys, (-1, game.n)))
        return transcript, np.reshape(self.rewards, (-1, game.k))


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
    rounds = _Rounds(adversary, seed)
    t = rounds.play_epoch(state, T)
    transcript, rewards = rounds.arrays(game)
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
    rounds = _Rounds(adversary, seed)
    V = float(np.max(game.u_L))
    assignment = threshold_assignment(game, V)
    epochs: List[EpochRecord] = [EpochRecord(V, 0, assignment)]
    abort_count = 0
    floor = float(np.min(game.u_L))
    while True:
        t = rounds.play_epoch(ForcingState(game, assignment), T)
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
    transcript, rewards = rounds.arrays(game)
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
