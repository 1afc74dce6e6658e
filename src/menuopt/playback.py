"""Realizing menus as executable learning policies, plus the simulator.

A menu commitment is played out as: the opponent picks a target profile,
both sides follow a published deterministic pure-pair schedule whose
running average converges to the target, and if the opponent ever
deviates from the schedule the learner switches permanently to halfspace
forcing dynamics that keep the running average near the menu.  The
schedule of T rounds is built once per run, in numpy blocks that give
the pairs of the per-step apportionment loop bit for bit
(`core.schedule_blocks`), and kept by its target, not by the module.

Published tracks.  After `reset`, a policy whose play is fixed in advance
may publish it as an integer array over rounds 0..T-1: an opponent its
columns (`OpponentPolicy.track`), a learner its pairs i*n + j
(`LearnerPolicy.track`), meaning that it plays row i in that round and
stays on schedule if the opponent plays column j.  Let d be the first
round where the two columns differ.  Every round before d is known before
it is played, and `simulate` writes rounds [0, d) in bulk:

* the transcript rows are one-hot, written for all d rounds at once;
* `on_round` still sees every round, in order;
* neither policy acts or observes in those rounds.  The learner is told
  once to take on the state it would have after them
  (`LearnerPolicy.fast_forward(d)`); an opponent with a track keeps no
  state that its rounds would change.

The round loop then goes on from round d.  A policy without a track
(the default) makes d = 0, and every round is played one by one.

The menu is checked once, on the finished transcript (`_menu_violations`).
A running sum of the rounds' outer products gives each round's profile
bit for bit as a per-round loop would keep it, the menu is screened over
all rounds by one matrix product per chunk, within a bound e of
`HalfspaceMenu.violation`, and only the rounds within 2e of the screen's
maximum are checked again with that kernel, so every reported violation
is a value it returned.  The report is the same, bit for bit, whether a
round was replayed or played.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    schedule_blocks,
)
from .errors import InvalidInput, InvalidTarget
from .maximin import ForcingState
from .menus import HalfspaceMenu, menu_violation, type_picks


def schedule_for(target: Csp, T: int) -> np.ndarray:
    """The first T pairs of `schedule_blocks(target)` as a read-only array,
    built block by block.

    The target keeps the last schedule built from it, so the learner and
    the opponent of one run, who follow the same target, share a single
    build; no schedule outlives its target.
    """
    if T < 1:
        raise InvalidInput("schedule horizon must be positive")
    pairs = vars(target).get("_schedule")
    if pairs is None or pairs.size != T:
        blocks, built = [], 0
        for block in schedule_blocks(target):
            blocks.append(block)
            built += block.size
            if built >= T:
                break
        pairs = np.concatenate(blocks)[:T]
        pairs.flags.writeable = False
        vars(target)["_schedule"] = pairs
    return pairs


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

    def track(self) -> Optional[np.ndarray]:
        """Pair i*n + j for each of rounds 0..T-1: the policy plays row i and
        stays on its track if the opponent plays column j.  None when the
        play is not fixed in advance."""
        return None

    def fast_forward(self, d: int) -> None:
        """Take on the state after rounds 0..d-1 of the track, each met by
        the track's column; asked only of a policy with a track."""
        raise NotImplementedError


class OpponentPolicy:
    def reset(self, game: BimatrixGame, T: int) -> None:
        raise NotImplementedError

    def act(self, t: int) -> np.ndarray:
        raise NotImplementedError

    def observe(self, t: int, x: np.ndarray, y: np.ndarray) -> None:
        pass

    def track(self) -> Optional[np.ndarray]:
        """The pure columns of rounds 0..T-1, played whatever the learner
        does, or None when the play is not fixed in advance."""
        return None


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
        if chosen_target is not None and not 0 <= chosen_target < len(self.targets):
            raise InvalidInput(f"chosen target {chosen_target} is not an index of {len(self.targets)} schedule targets")
        if chosen_target is not None:
            target = self.targets[chosen_target]
        elif self.targets:
            target = self.targets[0]
        else:
            target = Csp.uniform(game.m, game.n)
        if target.weights.size != game.m * game.n:
            raise InvalidInput("schedule target dimension does not match the game")
        self.game = game
        self.defected = False
        self.avg = np.zeros(game.m * game.n)
        self.rounds = 0
        self.schedule = schedule_for(target, T)

    def track(self) -> np.ndarray:
        return self.schedule

    def fast_forward(self, d: int) -> None:
        self.avg = np.bincount(self.schedule[:d], minlength=self.avg.size).astype(float)
        self.rounds = d

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

    def act(self, t: int) -> Optional[Tuple[float, ...]]:
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
        if self.target.weights.size != game.m * game.n:
            raise InvalidInput("schedule target dimension does not match the game")
        self.game = game
        self.schedule = schedule_for(self.target, T)

    def act(self, t: int) -> np.ndarray:
        _, y = pair_to_actions(int(self.schedule[t]), self.game.m, self.game.n)
        return y

    def track(self) -> np.ndarray:
        return self.schedule % self.game.n


class FixedMixPolicy(OpponentPolicy):
    """Plays the mix y every round."""

    def __init__(self, y: np.ndarray):
        Csp(y)  # raises InvalidInput unless y is a distribution
        self.y = np.asarray(y, dtype=float)

    def reset(self, game: BimatrixGame, T: int) -> None:
        if self.y.size != game.n:
            raise InvalidInput(f"opponent mix has {self.y.size} entries, the game has {game.n} columns")

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

    z = type_picks(cons, [value_vector(u_O)], value_vector(u_L))[0].point
    phi_w = z[:mn].copy()
    for j, p in enumerate(extra_points):
        phi_w += z[mn + 1 + j] * p.weights
    chosen = Csp(lp.normalized(phi_w))
    lam = z[mn + 1 :]
    picked = int(np.argmax(lam)) if r and np.max(lam) > 1.0 - 1e-6 else -1
    return chosen, SchedulePolicy(chosen), picked


_CHECK_CHUNK = 1 << 16  # rounds screened per matrix product


def _menu_violations(menu: HalfspaceMenu, xs: np.ndarray, ys: np.ndarray) -> Tuple[float, float]:
    """The largest and the last `menu.violation` of the running profile over
    the rounds of `xs, ys`, with that kernel called only where it may be reached.

    The screen b_t = max_c(N_c . w_t - rhs_c) runs on w_t = max(S_t / (t + 1),
    0), S_t the running sum of the outer products x_s (x) y_s, s <= t, added
    in round order from 0.0, so w_t is bit for bit the profile a per-round
    loop keeps.  The screen and the kernel's v_t order one length-mn dot
    product apart, so |v_t - b_t| <= e = 2 gamma_{mn+2} (max|N| L (1 + mn u)
    + max|rhs|), L the chunk's largest computed ||w_t||_1, gamma_k = k u /
    (1 - k u), u = 2^-53, with FMA or without; the largest v_t lies on a
    round with b_t >= max(b) - 2e.  Each distinct w_t there is checked once.
    """
    if menu.n_constraints == 0:
        return 0.0, 0.0
    T, mn, u = len(xs), menu.dim, 2.0**-53
    gamma = (mn + 2) * u / (1 - (mn + 2) * u)
    scale = np.abs(menu.normals).max() * (1 + mn * u)
    best, total = 0.0, np.zeros(mn)
    for start in range(0, T, _CHECK_CHUNK):
        stop = min(start + _CHECK_CHUNK, T)
        W = np.einsum("ti,tj->tij", xs[start:stop], ys[start:stop]).reshape(stop - start, mn)
        W[0] += total
        np.cumsum(W, axis=0, out=W)
        total = W[-1].copy()
        W /= np.arange(start + 1, stop + 1)[:, None]
        np.maximum(W, 0.0, out=W)
        e = 2 * gamma * (scale * (W @ np.ones(mn)).max() + np.abs(menu.rhs).max())
        b = (menu.normals @ W.T - menu.rhs[:, None]).max(axis=0)
        near = {W[t].tobytes(): t for t in np.flatnonzero(b >= b.max() - 2 * e).tolist()}
        best = max([best, *(menu.violation(W[t].copy()) for t in near.values())])
    return best, menu.violation(W[-1].copy())


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
    """Full-information round loop; deterministic given the policies.

    The rounds before the first one where the opponent leaves the
    learner's published track are replayed in bulk (module docstring).
    The menu is checked after the last round, on the transcript, and only
    near-maximal rounds are checked with `menu.violation`
    (`_menu_violations`).
    """
    if T < 1:
        raise InvalidInput("horizon must be positive")
    if menu is not None and menu.n_constraints and menu.dim != game.m * game.n:
        raise InvalidInput("profile dimension does not match the menu")
    learner.reset(game, T, chosen_target)
    opponent.reset(game, T)
    m, n = game.m, game.n
    xs = np.zeros((T, m))
    ys = np.zeros((T, n))
    pairs, columns = learner.track(), opponent.track()
    d = 0
    if pairs is not None and columns is not None:
        agree = pairs % n == columns
        d = T if agree.all() else int(np.argmin(agree))
    if d:
        pairs = pairs[:d]
        xs[np.arange(d), pairs // n] = 1.0
        ys[np.arange(d), pairs % n] = 1.0
        if on_round is not None:
            for t in range(d):
                on_round(t, xs[t], ys[t])
        learner.fast_forward(d)
    for t in range(d, T):
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
    max_viol, viol = (0.0, 0.0) if menu is None else _menu_violations(menu, xs, ys)
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
