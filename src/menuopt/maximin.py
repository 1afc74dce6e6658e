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
from .core import BimatrixGame, Csp, CspAssignment, Transcript
from .errors import InvalidInput, ThresholdInfeasible
from .menus import candidate_utility_set

_SLACK = 1e-9
_SCHEDULE_WRAP = 100_000  # rounds after which the schedule adversary starts over


@dataclass(frozen=True)
class HedgeState:
    """Exponential weights over the k type constraints, anytime rate.

    weights are proportional to exp(eta_t * cumulative) with
    eta_t = sqrt(ln k / t) / (2 * p_max); rewards live in
    [-2 p_max, 2 p_max], hence the normalization.
    """

    p: np.ndarray
    t: int
    cumulative: np.ndarray
    p_max: float

    @staticmethod
    def fresh(k: int, p_max: float) -> "HedgeState":
        return HedgeState(np.full(k, 1.0 / k), 0, np.zeros(k), p_max)


def hedge_weights(cumulative: np.ndarray, t: int, p_max: float) -> np.ndarray:
    k = cumulative.size
    if k == 1 or t == 0:
        return np.full(k, 1.0 / k)
    eta = np.sqrt(np.log(k) / t) / (2.0 * p_max)
    z = eta * cumulative
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def hedge_update(
    state: HedgeState,
    x_t: np.ndarray,
    y_t: np.ndarray,
    assignment: CspAssignment,
    game: BimatrixGame,
) -> HedgeState:
    """Feed the per-type constraint rewards u_{O,i}(x,y) - u_{O,i}(phi_i)."""
    c = candidate_utility_set(assignment, 0.0, game).thresholds
    r = np.array([float(x_t @ game.u_O(i) @ y_t) - c[i] for i in range(game.k)])
    cum = state.cumulative + r
    t = state.t + 1
    return HedgeState(hedge_weights(cum, t, state.p_max), t, cum, state.p_max)


@dataclass(frozen=True)
class StepOutcome:
    """Either an action to play or an abort certificate, never both."""

    action: Optional[np.ndarray] = None
    certificate: Optional[np.ndarray] = None

    @property
    def aborted(self) -> bool:
        return self.certificate is not None


def _step_action(p: np.ndarray, uo: np.ndarray, c: np.ndarray, n: int):
    """Shared per-round solve: action x, or None when only aborting remains."""
    omega = np.tensordot(p, uo, axes=(0, 0))
    kappa = float(p @ c)
    if n == 2:
        val, x = lp.minmax_rows_by_2(omega)
    else:
        val, x, _ = lp.zero_sum_value(omega)
    if val <= kappa + _SLACK:
        return x, omega
    return None, omega


def blackwell_abort_step(
    state: HedgeState, assignment: CspAssignment, game: BimatrixGame
) -> StepOutcome:
    """One round: find x keeping every opponent mix inside the weighted cap.

    Solves for x with sum_i p_i (u_{O,i}(x, y) - c_i) <= 0 for all y
    (pure y suffice by linearity).  When no such x exists the dual mix y*
    certifies that the candidate menu is not response-satisfiable.
    """
    c = candidate_utility_set(assignment, 0.0, game).thresholds
    x, omega = _step_action(state.p, game.opponent_payoffs, c, game.n)
    if x is not None:
        return StepOutcome(action=x)
    _, _, y = lp.zero_sum_value(omega)
    return StepOutcome(certificate=y)


def threshold_assignment(game: BimatrixGame, V: float) -> CspAssignment:
    """Per type, its favorite profile among {u_L(phi) >= V}, learner-tie-broken.

    Two programs per type: the type's top utility over the level set,
    then the learner's best profile among those top points, which makes
    the assignment deterministic and incentive compatible.
    """
    mn = game.m * game.n
    if V > float(np.max(game.u_L)) + _SLACK:
        raise ThresholdInfeasible(f"no profile attains learner value {V}")
    base = [(np.ones(mn), lp.EQ, 1.0), (game.u_L.ravel(), lp.GE, float(V))]
    for j in range(mn):
        e = np.zeros(mn)
        e[j] = 1.0
        base.append((e, lp.GE, 0.0))
    profiles = []
    for i in range(game.k):
        top = lp.solve_lp(lp.LinearProgram(game.u_O(i).ravel(), base))
        if not top.is_optimal:
            raise ThresholdInfeasible(f"level set at {V} is empty")
        tie = lp.solve_lp(
            lp.LinearProgram(
                game.u_L.ravel(),
                list(base) + [(game.u_O(i).ravel(), lp.GE, top.objective_value - _SLACK)],
            )
        )
        w = np.maximum(tie.point, 0.0)
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
    from .playback import schedule_pairs  # local import avoids a cycle

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
    from .approachability import TesterNet, test_assignment_valid

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


def run_blackwell_abort(
    game: BimatrixGame,
    assignment: CspAssignment,
    adversary: AdversaryFn,
    T: int,
    seed: int = 0,
    V: float = float("nan"),
) -> BlackwellRun:
    """Drive one abortable run for up to T rounds against an adversary."""
    rng = np.random.default_rng(seed)
    state = HedgeState.fresh(game.k, game.p_max)
    uo = game.opponent_payoffs
    xs, ys, rows = [], [], []
    c = candidate_utility_set(assignment, 0.0, game).thresholds
    for t in range(T):
        x, omega = _step_action(state.p, uo, c, game.n)
        if x is None:
            _, _, y_cert = lp.zero_sum_value(omega)
            return BlackwellRun(
                Transcript(np.array(xs).reshape(len(xs), game.m), np.array(ys).reshape(len(ys), game.n)),
                np.array(rows).reshape(len(rows), game.k),
                aborted_at=t,
                certificate=y_cert,
            )
        view = EpochView(game, V, assignment, t, state.p, 0)
        y = adversary(view, rng)
        xs.append(x)
        ys.append(y)
        r = np.einsum("i,kij,j->k", x, uo, y) - c
        rows.append(r)
        cum = state.cumulative + r
        state = HedgeState(hedge_weights(cum, state.t + 1, state.p_max), state.t + 1, cum, state.p_max)
    return BlackwellRun(
        Transcript(np.array(xs), np.array(ys)), np.array(rows), aborted_at=None, certificate=None
    )


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
    rng = np.random.default_rng(seed)
    V = float(np.max(game.u_L))
    assignment = threshold_assignment(game, V)
    state = HedgeState.fresh(game.k, game.p_max)
    c = candidate_utility_set(assignment, 0.0, game).thresholds
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    rows: List[np.ndarray] = []
    epochs: List[EpochRecord] = [EpochRecord(V, 0, assignment)]
    abort_count = 0
    epoch_start = 0
    floor = float(np.min(game.u_L))
    uo = game.opponent_payoffs
    t = 0
    while t < T:
        x, _ = _step_action(state.p, uo, c, game.n)
        if x is None:
            abort_count += 1
            V -= eps
            if V < floor - eps:  # cannot happen for valid games; safety stop
                break
            assignment = threshold_assignment(game, max(V, floor))
            c = candidate_utility_set(assignment, 0.0, game).thresholds
            state = HedgeState.fresh(game.k, game.p_max)
            epoch_start = t
            epochs.append(EpochRecord(V, t, assignment))
            continue
        view = EpochView(game, V, assignment, t - epoch_start, state.p, len(epochs) - 1)
        y = adversary(view, rng)
        xs.append(x)
        ys.append(y)
        r = np.einsum("i,kij,j->k", x, uo, y) - c
        rows.append(r)
        cum = state.cumulative + r
        state = HedgeState(hedge_weights(cum, state.t + 1, state.p_max), state.t + 1, cum, state.p_max)
        t += 1
    transcript = Transcript(
        np.array(xs).reshape(len(xs), game.m), np.array(ys).reshape(len(ys), game.n)
    )
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
        rewards=np.array(rows).reshape(len(rows), game.k),
    )
