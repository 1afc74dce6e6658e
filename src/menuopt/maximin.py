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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
_BLOCK = 256  # rounds an epoch keeps in Python lists before it writes them into the run's arrays
_PYTHON_REWARD_MAX = 4  # the reward runs on Python floats at k >= 2 and m, n, k <= this


def hedge_weights(cumulative: np.ndarray, t: int, p_max: float) -> np.ndarray:
    """Weights proportional to exp(eta_t * cumulative), uniform when p_max = 0,
    with eta_t = sqrt(ln k / t) / (2 * p_max) for rewards in [-2 p_max, 2 p_max]."""
    k = cumulative.size
    if k == 1 or t == 0 or p_max == 0:
        return np.full(k, 1.0 / k)
    return _hedge(cumulative.tolist(), t, float(np.log(k)), 2.0 * p_max)


def _hedge(cumulative: List[float], t: int, log_k: float, two_p_max: float) -> np.ndarray:
    # hedge_weights past its uniform cases, given ln k and 2 p_max, on Python
    # floats but for np.exp and the division: math.sqrt rounds correctly as
    # np.sqrt does, and numpy adds fewer than 8 floats in sequence
    eta = math.sqrt(log_k / t) / two_p_max
    w = [v * eta for v in cumulative]
    top = max(w)
    e = np.exp([v - top for v in w])
    if len(w) < 8:
        total = 0.0
        for v in e.tolist():
            total += v
    else:
        total = np.add.reduce(e)
    e /= total
    return e


class ForcingState:
    """Hedge-weighted halfspace forcing against one candidate menu.

    act() seeks x with sum_i p_i (u_{O,i}(x, y) - c_i) <= 0 for every
    opponent mix y (pure y suffice by linearity); when none exists, the
    dual mix y* of certificate() refutes response satisfiability of the
    menu and aborting is the only move left.

    act() solves the weighted game in closed form when it has two columns
    (`lp.minmax_rows_by_2`) or two rows (`lp.minmax_2_by_cols`), and by the
    simplex (`lp.zero_sum_value`) otherwise; the solver is looked up on
    `lp` when the state is built. certificate() takes the opponent's mix y
    from `lp.maximizer_mix`, which runs the same two closed forms on the
    opponent's side and the simplex only at m, n >= 3.

    act() solves again only when the bytes of p differ from those of its
    last solve, and otherwise returns the kept answer; with k = 1, p never
    moves, so one solve serves the whole epoch. The x it returns is a tuple
    of floats, so the one object that serves many rounds cannot change.

    observe(x, y) feeds the rewards u_{O,i}(x, y) - c_i. They run on Python
    floats, in the order in which `np.einsum("i,kij,j->k")` sums, where a
    test pins that order (k >= 2 and m, n, k <= 4); elsewhere the einsum
    computes them. While x is kept, the rewards of the opponent mixes seen
    since the solve are kept too, by y's bytes, up to n + 1 of them (the n
    pure columns of a schedule and one certificate), so fresh random mixes
    cannot grow the memo; a new solve empties it. observe() leaves p as it
    is where `hedge_weights` would return the uniform start (k = 1 or
    p_max = 0).

    play(rounds) plays a whole epoch through the same solve, reward and hedge
    helpers, on Python floats and lists: numpy computes only Ω, p @ c on a
    new solve, the hedge step's exp and division, and the simplex at
    m, n >= 3. Its rows reach the run's arrays in blocks of at most _BLOCK
    rounds, and p, cumulative and t are written back when the epoch stops,
    so that act(), observe() and certificate() go on from there.
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
            self._minmax = lp.minmax_rows_by_2
        elif game.m == 2:
            self._minmax = lp.minmax_2_by_cols
        else:
            zero_sum_value = lp.zero_sum_value

            def simplex(omega: np.ndarray) -> Tuple[float, Tuple[float, ...]]:
                val, x, _ = zero_sum_value(omega)
                return val, tuple(x.tolist())

            self._minmax = simplex
        # ln k and 2 p_max for _hedge, or None where hedge_weights stays uniform
        self._hedge_args = (float(np.log(game.k)), 2.0 * game.p_max) if game.k > 1 and game.p_max else None
        # each type's payoffs in row-major order, where the reward runs on Python floats
        python_reward = game.k >= 2 and max(game.m, game.n, game.k) <= _PYTHON_REWARD_MAX
        self._payoffs = game.opponent_payoffs.reshape(game.k, -1).tolist() if python_reward else None
        self._c = self.c.tolist()
        self._kept = (b"", None)  # p's bytes at the last solve, and its answer
        self._stored: Optional[Dict[bytes, List[float]]] = None  # opened once x is kept
        self._store_cap = game.n + 1

    def _omega(self, p: np.ndarray) -> np.ndarray:
        # tensordot's own (1, k) x (k, m n) product, np.dot's kernel without its
        # dispatch: p @ flat may take another BLAS kernel
        return p.reshape(1, -1).dot(self._flat).reshape(self._shape)

    def _answer(self, p: np.ndarray) -> Optional[Tuple[float, ...]]:
        """The round's x at weights p as a tuple of floats, or None when only
        aborting remains; solved again only when p's bytes change."""
        key = p.tobytes()
        if key != self._kept[0]:
            val, x = self._minmax(self._omega(p))
            fits = val <= float(p.dot(self.c)) + _SLACK  # the ddot of p @ c, without its dispatch
            self._kept = (key, x if fits else None)
            self._stored = None
        elif self._stored is None:
            self._stored = {}
        return self._kept[1]

    def act(self) -> Optional[Tuple[float, ...]]:
        """The round's action x, or None when only aborting remains."""
        return self._answer(self.p)

    def certificate(self) -> np.ndarray:
        """The opponent mix that refutes the menu at the current weights."""
        return lp.maximizer_mix(self._omega(self.p))

    def _reward(self, x: Sequence[float], y: List[float]) -> List[float]:
        payoffs = self._payoffs
        if payoffs is None:
            return (np.einsum("i,kij,j->k", x, self.game.opponent_payoffs, y) - self.c).tolist()
        # x_i and y_j beside each u_ij of a type's payoffs in row-major order,
        # summed in that order as the einsum sums them
        row_of = [x_i for x_i in x for _ in y]
        col_of = y * len(x)
        r = []
        for u, c in zip(payoffs, self._c):
            total = 0.0
            for x_i, u_ij, y_j in zip(row_of, u, col_of):
                total += x_i * u_ij * y_j
            r.append(total - c)
        return r

    def _kept_reward(self, x: Tuple[float, ...], y: np.ndarray, y_list: List[float]) -> List[float]:
        # _reward of the kept x, served from the memo where it holds y's bytes
        stored = self._stored
        if stored is None:
            return self._reward(x, y_list)
        key = y.tobytes()
        r = stored.get(key)
        if r is None:
            r = self._reward(x, y_list)
            if len(stored) < self._store_cap:
                stored[key] = r
        return r

    def observe(self, x: Sequence[float], y: np.ndarray) -> np.ndarray:
        """Feed the rewards u_{O,i}(x, y) - c_i; returns them."""
        kept = self._kept[1]
        y = np.asarray(y, dtype=float)
        if kept is not None and x is kept:
            r = self._kept_reward(kept, y, y.tolist())
        else:
            r = self._reward(np.asarray(x, dtype=float).tolist(), y.tolist())
        cumulative = [a + b for a, b in zip(self.cumulative.tolist(), r)]
        self.cumulative = np.array(cumulative)
        self.t += 1
        if self._hedge_args is not None:
            self.p = _hedge(cumulative, self.t, *self._hedge_args)
        return np.array(r)

    def play(self, rounds: _Rounds) -> int:
        """Plays from round `rounds.played` until the state aborts or the run
        ends; returns the round it stopped at: T, or the round it aborted in.

        The adversary is told of the epoch at its first round that has an
        action. Rows reach the run's arrays in blocks of at most _BLOCK rounds.
        """
        answer_at, kept_reward, hedge_args, rng = self._answer, self._kept_reward, self._hedge_args, rounds.rng
        p, t, cumulative = self.p, self.t, self.cumulative.tolist()
        xs: List[float] = []
        ys: List[float] = []
        rewards: List[float] = []
        policy = None
        block = 0
        for _ in range(rounds.played, len(rounds.xs)):
            x = answer_at(p)
            if x is None:
                break
            if policy is None:
                policy = rounds.adversary(self.game, self.assignment)
            y = policy(rng)
            y_list = y.tolist()
            r = kept_reward(x, y, y_list)
            xs += x
            ys += y_list
            rewards += r
            cumulative = [a + b for a, b in zip(cumulative, r)]
            t += 1
            if hedge_args is not None:
                p = _hedge(cumulative, t, *hedge_args)
            block += 1
            if block == _BLOCK:
                rounds.write(block, xs, ys, rewards)
                xs, ys, rewards, block = [], [], [], 0
        rounds.write(block, xs, ys, rewards)
        self.p, self.t, self.cumulative = p, t, np.array(cumulative)
        return rounds.played


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

    def write(self, rounds: int, xs: List[float], ys: List[float], rewards: List[float]) -> None:
        """Records the next rounds, given as their x, y and reward rows laid end to end."""
        start, self.played = self.played, self.played + rounds
        for record, rows in ((self.xs, xs), (self.ys, ys), (self.rewards, rewards)):
            width = record.shape[1]
            record.reshape(-1)[start * width : self.played * width] = rows

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
    if seed < 0:
        raise InvalidInput("seed must be non-negative")
    state = ForcingState(game, assignment)
    rounds = _Rounds(game, adversary, seed, T)
    t = state.play(rounds)
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
    if seed < 0:
        raise InvalidInput("seed must be non-negative")
    if not (0 < eps < np.inf):
        raise InvalidInput("eps must be positive and finite")
    rounds = _Rounds(game, adversary, seed, T)
    V = float(np.max(game.u_L))
    assignment = threshold_assignment(game, V)
    epochs: List[EpochRecord] = [EpochRecord(V, 0, assignment)]
    abort_count = 0
    floor = float(np.min(game.u_L))
    while True:
        t = ForcingState(game, assignment).play(rounds)
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
