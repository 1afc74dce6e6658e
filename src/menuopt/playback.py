"""Realizing menus as executable learning policies, plus the simulator.

A menu commitment is played out as: the opponent picks a target profile,
both sides follow a published deterministic pure-pair schedule whose
running average converges to the target, and if the opponent ever
deviates from the schedule the learner switches permanently to halfspace
forcing dynamics that keep the running average near the menu.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from . import lp
from .core import (
    BimatrixGame,
    Csp,
    CspAssignment,
    Transcript,
    bilinear_value,
    csp_of_transcript,
    schedule_pairs,
)
from .errors import EmptyMenu, InvalidInput, InvalidTarget, NumericalFailure
from .maximin import ForcingState
from .menus import HalfspaceMenu, menu_violation


def schedule_for(target: Csp, T: int) -> np.ndarray:
    """The first T pairs of `schedule_pairs(target)` as an array."""
    if T < 1:
        raise InvalidInput("schedule horizon must be positive")
    return np.fromiter(islice(schedule_pairs(target), T), dtype=int, count=T)


def pair_to_actions(pair: int, m: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    x = np.zeros(m)
    y = np.zeros(n)
    x[pair // n] = 1.0
    y[pair % n] = 1.0
    return x, y


class LearnerPolicy:
    """Interface: reset, then alternately act() and observe(y)."""

    def reset(self, game: BimatrixGame, T: int, chosen_target: Optional[int]) -> None:
        raise NotImplementedError

    def act(self, t: int) -> Optional[np.ndarray]:
        """Mixed action for round t, or None to signal abort."""
        raise NotImplementedError

    def observe(self, t: int, x: np.ndarray, y: np.ndarray) -> None:
        pass


class OpponentPolicy:
    def reset(self, game: BimatrixGame, T: int) -> None:
        raise NotImplementedError

    def act(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def observe(self, t: int, x: np.ndarray, y: np.ndarray) -> None:
        pass


class MenuScheduleLearner(LearnerPolicy):
    """Published-schedule learner with halfspace-forcing fallback.

    The opponent's chosen target indexes `schedule_targets`.  Defection
    is an exact mismatch between the observed opponent mix and the
    scheduled pure action; afterwards each round plays the forcing action
    of the currently most violated constraint of the fallback menu (by
    default the committed menu itself; commitments built as "hull of a
    base menu plus extra points" pass the base menu here).
    """

    def __init__(
        self,
        menu: HalfspaceMenu,
        schedule_targets: Sequence[Csp],
        fallback_menu: Optional[HalfspaceMenu] = None,
    ):
        for tgt in schedule_targets:
            if menu_violation(tgt, menu) > 1e-9:
                raise InvalidTarget("schedule target lies outside the menu")
        self.menu = menu
        self.fallback = fallback_menu if fallback_menu is not None else menu
        self.targets = list(schedule_targets)
        self._forcing_cache: dict = {}

    def reset(self, game: BimatrixGame, T: int, chosen_target: Optional[int]) -> None:
        self.game = game
        self.defected = False
        self.avg = np.zeros(game.m * game.n)
        self.rounds = 0
        if self.targets and chosen_target is not None:
            target = self.targets[chosen_target]
        elif self.targets:
            target = self.targets[0]
        else:
            target = Csp.uniform(game.m, game.n)
        self.schedule = schedule_for(target, T)

    def _forcing_action(self, c: int) -> np.ndarray:
        if c not in self._forcing_cache:
            H = self.fallback.normals[c].reshape(self.game.m, self.game.n)
            _, x, _ = lp.zero_sum_value(H)
            self._forcing_cache[c] = x
        return self._forcing_cache[c]

    def act(self, t: int) -> np.ndarray:
        if not self.defected:
            x, _ = pair_to_actions(int(self.schedule[t]), self.game.m, self.game.n)
            return x
        if self.fallback.n_constraints == 0:
            return np.full(self.game.m, 1.0 / self.game.m)
        viol = self.fallback.normals @ (self.avg / max(1, self.rounds)) - self.fallback.rhs
        return self._forcing_action(int(np.argmax(viol)))

    def observe(self, t: int, x: np.ndarray, y: np.ndarray) -> None:
        if not self.defected:
            _, y_sched = pair_to_actions(int(self.schedule[t]), self.game.m, self.game.n)
            if not np.array_equal(y, y_sched):
                self.defected = True
        self.avg += np.outer(x, y).ravel()
        self.rounds += 1


class BlackwellAbortPolicy(LearnerPolicy):
    """Abortable halfspace-forcing learner for one candidate menu."""

    def __init__(self, assignment: CspAssignment):
        self.assignment = assignment

    def reset(self, game: BimatrixGame, T: int, chosen_target: Optional[int]) -> None:
        self.state = ForcingState(game, self.assignment)

    def act(self, t: int) -> Optional[np.ndarray]:
        return self.state.act()

    def observe(self, t: int, x: np.ndarray, y: np.ndarray) -> None:
        self.state.observe(x, y)


class ComposedAbortableLearner(LearnerPolicy):
    """Runs abortable subpolicies in order; the last one must never abort."""

    def __init__(self, subpolicies: Sequence[LearnerPolicy]):
        if not subpolicies:
            raise InvalidInput("at least one subpolicy required")
        self.subpolicies = list(subpolicies)

    def reset(self, game: BimatrixGame, T: int, chosen_target: Optional[int]) -> None:
        self.active = 0
        self.epoch_starts = [0]
        for p in self.subpolicies:
            p.reset(game, T, chosen_target)

    def act(self, t: int) -> np.ndarray:
        while True:
            x = self.subpolicies[self.active].act(t)
            if x is not None:
                return x
            if self.active + 1 >= len(self.subpolicies):
                raise InvalidInput("final subpolicy aborted")
            self.active += 1
            self.epoch_starts.append(t)

    def observe(self, t: int, x: np.ndarray, y: np.ndarray) -> None:
        self.subpolicies[self.active].observe(t, x, y)


class SchedulePolicy(OpponentPolicy):
    """Opponent side of a published pure-pair schedule."""

    def __init__(self, target: Csp):
        self.target = target

    def reset(self, game: BimatrixGame, T: int) -> None:
        self.game = game
        self.schedule = schedule_for(self.target, T)

    def act(self, t: int) -> np.ndarray:
        _, y = pair_to_actions(int(self.schedule[t]), self.game.m, self.game.n)
        return y


class FixedMixPolicy(OpponentPolicy):
    def __init__(self, y: np.ndarray):
        self.y = np.asarray(y, dtype=float)

    def reset(self, game: BimatrixGame, T: int) -> None:
        pass

    def act(self, t: int) -> np.ndarray:
        return self.y


def optimizer_best_response_policy(
    menu: HalfspaceMenu,
    extra_points: Sequence[Csp],
    u_O: np.ndarray,
    u_L: np.ndarray,
    game: BimatrixGame,
) -> Tuple[Csp, SchedulePolicy, int]:
    """Opponent's pick over conv(menu ∪ extra points), learner-tie-broken.

    Convex combinations mu * psi + sum_r lambda_r p_r are linearized with
    the scaled variable zeta = mu * psi.  Returns the chosen profile, a
    schedule policy realizing it, and the index of the chosen extra point
    (or -1 when the pick lies in the menu body).
    """
    mn = game.m * game.n
    r = len(extra_points)
    d = mn + 1 + r  # zeta, mu, lambdas

    # mu + sum(lambda) = 1 and zeta carries mu total mass
    mass = np.zeros(d)
    mass[:mn] = 1.0
    mass[mn] = -1.0
    cons = [lp.simplex_row(d, mn), (mass, lp.EQ, 0.0)]
    for c in range(menu.n_constraints):
        row = np.zeros(d)
        row[:mn] = menu.normals[c]
        row[mn] = -float(menu.rhs[c])
        cons.append((row, lp.LE, 0.0))

    def value_vector(payoff):
        vec = np.zeros(d)
        vec[:mn] = payoff.ravel()
        for j, p in enumerate(extra_points):
            vec[mn + 1 + j] = bilinear_value(payoff, p)
        return vec

    stages = lp.solve_lexicographic([value_vector(u_O), value_vector(u_L)], cons)
    if not stages[0].is_optimal:
        raise EmptyMenu("menu and extra points admit no profile")
    if not stages[-1].is_optimal:
        raise NumericalFailure("tie-breaking solve failed")
    z = stages[-1].point
    phi_w = z[:mn].copy()
    for j, p in enumerate(extra_points):
        phi_w += z[mn + 1 + j] * p.weights
    phi_w = np.maximum(phi_w, 0.0)
    chosen = Csp(phi_w / phi_w.sum())
    lam = z[mn + 1 :]
    picked = int(np.argmax(lam)) if r and np.max(lam) > 1.0 - 1e-6 else -1
    return chosen, SchedulePolicy(chosen), picked


@dataclass(frozen=True)
class SimReport:
    transcript: Transcript
    final_csp: Csp
    learner_avg: float
    opponent_avg: float
    per_type_avg: np.ndarray
    max_menu_violation: float
    final_menu_violation: float


def simulate(
    game: BimatrixGame,
    learner: LearnerPolicy,
    opponent: OpponentPolicy,
    T: int,
    type_index: int = 0,
    chosen_target: Optional[int] = None,
    menu: Optional[HalfspaceMenu] = None,
    on_round: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> SimReport:
    """Full-information round loop; deterministic given the policies."""
    if T < 1:
        raise InvalidInput("horizon must be positive")
    if menu is not None and menu.n_constraints and menu.dim != game.m * game.n:
        raise InvalidInput("profile dimension does not match the menu")
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
