"""Maximin learner: value-threshold assignments plus abortable Blackwell play.

The learner maintains a value level V, assigns each opponent type its
favorite profile among those worth at least V to the learner, and runs
hedge-weighted halfspace forcing against the induced candidate menu.
Aborting is a legal outcome that certifies the menu was not forceable;
the epoch loop then lowers V and restarts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import lp
from .approachability import TesterNet, test_assignment_valid
from .core import BimatrixGame, Csp, CspAssignment, Transcript, schedule_pairs
from .errors import InvalidInput, NumericalFailure, ThresholdInfeasible
from .menus import candidate_menu

# threshold_assignment's tie-break stage may leave c up to lp.TIE_SLACK below
# a forceable level, so act() allows twice that before it aborts
_SLACK = 2 * lp.TIE_SLACK
_SCHEDULE_WRAP = 100_000  # rounds after which the schedule adversary starts over


def hedge_weights(cumulative: np.ndarray, t: int, p_max: float) -> np.ndarray:
    """Weights proportional to exp(eta_t * cumulative), with the anytime rate
    eta_t = sqrt(ln k / t) / (2 * p_max) for rewards in [-2 p_max, 2 p_max]."""
    k = cumulative.size
    if k == 1 or t == 0:
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

    act() solves the weighted game again only when the bytes of p differ
    from those of its last solve, and otherwise returns the kept answer;
    with k = 1, p never moves, so one solve serves the whole epoch. The x
    it returns is read-only, because the same array may serve many rounds.
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


# Adversary policies are test instruments: callables mapping the visible
# epoch state to the opponent's next mix.
AdversaryFn = Callable[["EpochView", np.random.Generator], np.ndarray]


@dataclass
class EpochView:
    game: BimatrixGame
    V: float
    assignment: CspAssignment
    round_in_epoch: int
    hedge_p: np.ndarray
    epoch_index: int = 0


def random_adversary(view: EpochView, rng: np.random.Generator) -> np.ndarray:
    return rng.dirichlet(np.ones(view.game.n))


def make_schedule_adversary(type_index: int = 0) -> AdversaryFn:
    """Plays the column track of a pure-pair schedule for its assigned profile.

    The schedule restarts every epoch and wraps after 100,000 rounds; its
    pairs are generated only as far as the epoch has played.
    """
    cache: dict = {}

    def policy(view: EpochView, rng: np.random.Generator) -> np.ndarray:
        if cache.get("epoch") != view.epoch_index:
            cache["epoch"] = view.epoch_index
            cache["stream"] = schedule_pairs(view.assignment[type_index])
            cache["pairs"] = []
            cache["start"] = view.round_in_epoch
        t = (view.round_in_epoch - cache["start"]) % _SCHEDULE_WRAP
        pairs = cache["pairs"]
        while len(pairs) <= t:
            pairs.append(next(cache["stream"]))
        y = np.zeros(view.game.n)
        y[pairs[t] % view.game.n] = 1.0
        return y

    return policy


def make_aborter_adversary(probe_delta: float = 0.02, type_index: int = 0) -> AdversaryFn:
    """Plays an invalidity certificate whenever the epoch's menu has one,
    otherwise falls back to the assigned schedule.

    One tester net, built at the first probe, serves every epoch of the run.
    """
    schedule = make_schedule_adversary(type_index)
    cache: dict = {}

    def policy(view: EpochView, rng: np.random.Generator) -> np.ndarray:
        if cache.get("epoch") != view.epoch_index:
            cache["epoch"] = view.epoch_index
            if "net" not in cache:
                cache["net"] = TesterNet.build(view.game, probe_delta)
            verdict = test_assignment_valid(view.assignment, view.game, probe_delta, cache["net"])
            cache["cert"] = None if verdict.approachable else verdict.certificate_y
        if cache["cert"] is not None:
            return cache["cert"]
        return schedule(view, rng)

    return policy


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

    def __init__(self, adversary: AdversaryFn, seed: int):
        self.adversary = adversary
        self.rng = np.random.default_rng(seed)
        self.xs: List[np.ndarray] = []
        self.ys: List[np.ndarray] = []
        self.rewards: List[np.ndarray] = []

    def play_epoch(self, state: ForcingState, V: float, epoch_index: int, T: int) -> int:
        """Plays on from the next round until the state aborts or round T.

        Returns the round it stopped at: T, or the round it aborted in.
        """
        start = len(self.xs)
        for t in range(start, T):
            x = state.act()
            if x is None:
                return t
            view = EpochView(state.game, V, state.assignment, t - start, state.p, epoch_index)
            y = self.adversary(view, self.rng)
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
    adversary: AdversaryFn,
    T: int,
    seed: int = 0,
    V: float = float("nan"),
) -> BlackwellRun:
    """Drive one abortable run for up to T rounds against an adversary."""
    if T < 1:
        raise InvalidInput("horizon must be at least one round")
    state = ForcingState(game, assignment)
    rounds = _Rounds(adversary, seed)
    t = rounds.play_epoch(state, V, 0, T)
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
    adversary: AdversaryFn,
    T: int,
    seed: int = 0,
) -> MaximinRun:
    """Epoch loop: start at the top learner value, back off eps per abort."""
    if T < 1:
        raise InvalidInput("horizon must be at least one round")
    if eps <= 0:
        raise InvalidInput("eps must be positive")
    rounds = _Rounds(adversary, seed)
    V = float(np.max(game.u_L))
    assignment = threshold_assignment(game, V)
    epochs: List[EpochRecord] = [EpochRecord(V, 0, assignment)]
    abort_count = 0
    floor = float(np.min(game.u_L))
    while True:
        t = rounds.play_epoch(ForcingState(game, assignment), V, len(epochs) - 1, T)
        if t == T:
            break
        abort_count += 1
        V -= eps
        if V < floor - eps:  # cannot happen for valid games; safety stop
            break
        assignment = threshold_assignment(game, max(V, floor))
        epochs.append(EpochRecord(V, t, assignment))
    transcript, rewards = rounds.arrays(game)
    xs, ys = rounds.xs, rounds.ys
    if xs:
        per_type = np.array(
            [float(np.mean([x @ game.u_O(i) @ y for x, y in zip(xs, ys)])) for i in range(game.k)]
        )
        learner_avg = float(np.mean([x @ game.u_L @ y for x, y in zip(xs, ys)]))
    else:
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
