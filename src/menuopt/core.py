"""Game model, strategy profiles, transcripts, schedules, and value evaluation.

Conventions used everywhere in the package:
  * the learner owns the m rows, the opponent (optimizer) owns the n
    columns of every payoff matrix;
  * a correlated strategy profile (CSP) is a distribution over the m*n
    pure action pairs, flattened row-major: pair (i, j) sits at i*n + j;
  * payoffs are arbitrary finite reals; constants that depend on the
    payoff scale use `BimatrixGame.p_max`.

All types are immutable value objects after construction and safe to
share across workers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Tuple

import numpy as np

from .errors import InvalidInput

SUM_TOL = 1e-9  # simplex mass must match 1 this closely
NONNEG_TOL = 1e-12  # allowed negative slack on probabilities


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BimatrixGame:
    """Learner payoff matrix plus k typed opponent payoff matrices.

    `types` holds (payoff matrix, prior probability) pairs; the prior
    weights must be nonnegative and sum to one.  `alphas`,
    `opponent_payoffs` and `p_max` are computed on first use and kept, as
    read-only arrays; they take no part in equality or `repr`.
    """

    u_L: np.ndarray
    types: Tuple[Tuple[np.ndarray, float], ...]

    def __post_init__(self):
        u_L = _freeze(self.u_L)
        if u_L.ndim != 2 or u_L.size == 0:
            raise InvalidInput("u_L must be a nonempty matrix")
        if not np.all(np.isfinite(u_L)):
            raise InvalidInput("u_L must be finite")
        if not self.types:
            raise InvalidInput("at least one opponent type is required")
        frozen = []
        total = 0.0
        for u_O, alpha in self.types:
            u_O = _freeze(u_O)
            if u_O.shape != u_L.shape:
                raise InvalidInput("every u_O must match the shape of u_L")
            if not np.all(np.isfinite(u_O)):
                raise InvalidInput("u_O must be finite")
            alpha = float(alpha)
            if alpha < -1e-12:
                raise InvalidInput("type probabilities must be nonnegative")
            total += alpha
            frozen.append((u_O, alpha))
        if abs(total - 1.0) > 1e-12:
            raise InvalidInput(f"type probabilities sum to {total}, expected 1")
        object.__setattr__(self, "u_L", u_L)
        object.__setattr__(self, "types", tuple(frozen))

    @property
    def m(self) -> int:
        return self.u_L.shape[0]

    @property
    def n(self) -> int:
        return self.u_L.shape[1]

    @property
    def k(self) -> int:
        return len(self.types)

    @cached_property
    def alphas(self) -> np.ndarray:
        return _freeze([a for _, a in self.types])

    @cached_property
    def opponent_payoffs(self) -> np.ndarray:
        """All type payoff matrices stacked into shape (k, m, n)."""
        return _freeze([u for u, _ in self.types])

    @cached_property
    def p_max(self) -> float:
        """Largest absolute payoff entry; scales regret and net constants."""
        mats = [self.u_L] + [u for u, _ in self.types]
        return max(float(np.max(np.abs(u))) for u in mats)

    def u_O(self, i: int) -> np.ndarray:
        return self.types[i][0]

    def to_json(self) -> str:
        doc = {
            "m": self.m,
            "n": self.n,
            "u_L": self.u_L.tolist(),
            "types": [{"u_O": u.tolist(), "alpha": a} for u, a in self.types],
        }
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "BimatrixGame":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"invalid JSON: {exc}") from exc
        try:
            u_L = np.array(doc["u_L"], dtype=float)
            types = tuple((np.array(t["u_O"], dtype=float), float(t["alpha"])) for t in doc["types"])
            game = BimatrixGame(u_L, types)
            if int(doc["m"]) != game.m or int(doc["n"]) != game.n:
                raise InvalidInput("declared m/n do not match the matrices")
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed game document: {exc}") from exc
        return game


@dataclass(frozen=True)
class Csp:
    """Distribution over the m*n pure action pairs, flattened row-major."""

    weights: np.ndarray

    def __post_init__(self):
        w = _freeze(self.weights)
        if w.ndim != 1 or w.size == 0:
            raise InvalidInput("a profile must be a nonempty vector")
        if not np.all(np.isfinite(w)):
            raise InvalidInput("profile weights must be finite")
        if np.min(w) < -NONNEG_TOL:
            raise InvalidInput(f"negative weight {np.min(w)} in profile")
        if abs(float(np.sum(w)) - 1.0) > SUM_TOL:
            raise InvalidInput(f"profile mass {np.sum(w)} is not 1")
        object.__setattr__(self, "weights", w)

    @staticmethod
    def point_mass(i: int, j: int, m: int, n: int) -> "Csp":
        w = np.zeros(m * n)
        w[i * n + j] = 1.0
        return Csp(w)

    @staticmethod
    def uniform(m: int, n: int) -> "Csp":
        return Csp(np.full(m * n, 1.0 / (m * n)))

    @staticmethod
    def outer(x: np.ndarray, y: np.ndarray) -> "Csp":
        return Csp(np.outer(np.asarray(x, float), np.asarray(y, float)).ravel())

    @staticmethod
    def mix(parts: Sequence[Tuple[float, "Csp"]]) -> "Csp":
        w = sum(lam * p.weights for lam, p in parts)
        return Csp(w)


@dataclass(frozen=True)
class CspAssignment:
    """Ordered tuple of profiles, one per opponent type."""

    profiles: Tuple[Csp, ...]

    def __post_init__(self):
        profiles = tuple(self.profiles)
        if not profiles:
            raise InvalidInput("an assignment needs at least one profile")
        size = profiles[0].weights.size
        if any(p.weights.size != size for p in profiles):
            raise InvalidInput("all profiles must have the same dimension")
        object.__setattr__(self, "profiles", profiles)

    def __len__(self) -> int:
        return len(self.profiles)

    def __getitem__(self, i: int) -> Csp:
        return self.profiles[i]

    def to_json(self) -> str:
        return json.dumps({"profiles": [p.weights.tolist() for p in self.profiles]}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CspAssignment":
        try:
            doc = json.loads(text)
            profiles = tuple(Csp(np.array(p, dtype=float)) for p in doc["profiles"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"malformed assignment document: {exc}") from exc
        return CspAssignment(profiles)


@dataclass(frozen=True)
class Transcript:
    """Time-indexed mixed-action pairs; xs has shape (T, m), ys (T, n)."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = _freeze(self.xs)
        ys = _freeze(self.ys)
        if xs.ndim != 2 or ys.ndim != 2 or xs.shape[0] != ys.shape[0]:
            raise InvalidInput("xs and ys must be (T, m) and (T, n) with equal T")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return self.xs.shape[0]


def bilinear_value(payoff: np.ndarray, phi: Csp) -> float:
    """Expected payoff sum_{ij} phi_{ij} payoff[i, j]; linear in phi."""
    payoff = np.asarray(payoff, dtype=float)
    if payoff.size != phi.weights.size:
        raise InvalidInput(
            f"payoff has {payoff.size} entries but profile has {phi.weights.size}"
        )
    return float(payoff.ravel() @ phi.weights)


def csp_of_transcript(t: Transcript) -> Csp:
    """Time average of the per-round outer products x_t (x) y_t."""
    if len(t) == 0:
        raise InvalidInput("transcript has no rounds")
    avg = np.einsum("ti,tj->ij", t.xs, t.ys) / len(t)
    return Csp(avg.ravel())


def schedule_pairs(target: Csp) -> Iterator[int]:
    """Endless pure-pair sequence whose running average tracks `target`.

    Online largest-remainder apportionment: at step t play the pair with
    the largest deficit w * t - count, lowest index on ties.  The running
    average stays within O(mn/t) of the target in L1.

    The deficits are Python floats: each is the same IEEE product and
    difference that numpy's `w * t - counts` makes, and `index(max(...))`
    takes the first maximum, as `np.argmax` does, at a fraction of the cost
    on vectors of at most a few dozen entries.
    """
    w = target.weights.tolist()
    counts = [0.0] * len(w)
    t = 0
    while True:
        t += 1
        deficits = [wi * t - ci for wi, ci in zip(w, counts)]
        p = deficits.index(max(deficits))
        counts[p] += 1.0
        yield p


def assignment_value(game: BimatrixGame, phi_assign: CspAssignment) -> float:
    """Prior-weighted learner value sum_i alpha_i u_L(phi_i)."""
    if len(phi_assign) != game.k:
        raise InvalidInput(f"assignment has {len(phi_assign)} profiles, game has {game.k} types")
    return float(
        sum(alpha * bilinear_value(game.u_L, phi) for (_, alpha), phi in zip(game.types, phi_assign.profiles))
    )
