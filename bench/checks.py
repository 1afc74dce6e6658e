"""Correctness checks of menuopt's CLI result documents, computed apart from menuopt.

Every reference comes from scipy's HiGHS solver or from numpy code in this
file; nothing here imports menuopt. Each `check_*` function takes the game
document, the parsed result document and the command's parameters, and
returns a list of problems: empty when the result is correct.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import List, Optional

import numpy as np
from scipy.optimize import linprog

_HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_TIE_SLACK = 1e-9  # the learner tie-break slack of the two-stage solves
G1_NR_VALUE = Fraction(969, 140)  # the fixture's certified no-regret optimum
LATTICE_POINTS = {2: 20, 3: 10, 4: 6}  # opponent-mix lattice denominator by n
_DIRECTION_GRID = 200  # type-weight grid of the maximin oracle (k = 2)


class Game:
    """A game document as arrays: u_L (m, n), u_O (k, m, n), alpha (k,)."""

    def __init__(self, doc: dict):
        self.u_L = np.asarray(doc["u_L"], dtype=float)
        self.u_O = np.asarray([t["u_O"] for t in doc["types"]], dtype=float)
        self.alpha = np.asarray([t["alpha"] for t in doc["types"]], dtype=float)
        self.k, self.m, self.n = self.u_O.shape
        self.mn = self.m * self.n
        self.scale = max(1.0, float(np.max(np.abs(self.u_L))), float(np.max(np.abs(self.u_O))))


class Problems(list):
    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)

    def close(self, got, want, tol: float, what: str) -> None:
        got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
            self.append(f"{what}: got {got.tolist()}, reference {want.tolist()}")

    def distribution(self, w, size: int, what: str) -> bool:
        w = np.asarray(w, dtype=float)
        ok = w.shape == (size,) and bool(np.all(w >= -1e-12)) and abs(float(w.sum()) - 1.0) <= 1e-9
        self.expect(ok, f"{what} is not a probability vector of size {size}")
        return ok


# -- linear programs -----------------------------------------------------


def lp_max(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, bounds=(0, None)):
    """(value, x) of max c.x, or None when infeasible; other outcomes raise."""
    res = linprog(-np.asarray(c, dtype=float), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=bounds, method="highs", options=_HIGHS)
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"reference solve ended with status {res.status}: {res.message}")
    return -float(res.fun), res.x


def zero_sum_values(stack: np.ndarray) -> np.ndarray:
    """min_x max_y x.M.y for each (p, q) matrix M of the stack, row player minimising."""
    stack = np.asarray(stack, dtype=float)
    if stack.shape[2] == 2:
        # The row minimiser's best point is a pure row or a crossing of the
        # two column payoff lines along an edge between two rows.
        best = stack.max(axis=2).min(axis=1)
        p = stack.shape[1]
        for i, j in itertools.combinations(range(p), 2):
            d_i = stack[:, i, 0] - stack[:, i, 1]
            d_j = stack[:, j, 0] - stack[:, j, 1]
            den = d_j - d_i
            with np.errstate(divide="ignore", invalid="ignore"):
                t = d_j / den
                cross = t * stack[:, i, 0] + (1 - t) * stack[:, j, 0]
            inside = (np.abs(den) > 1e-15) & (t > 0) & (t < 1)
            best = np.where(inside & (cross < best), cross, best)
        return best
    out = []
    for M in stack:
        p, q = M.shape
        # variables (x, v): max -v s.t. M^T x - v <= 0, sum x = 1
        A_ub = np.hstack([M.T, -np.ones((q, 1))])
        A_eq = np.append(np.ones(p), 0.0)[None, :]
        value, _ = lp_max(np.append(np.zeros(p), -1.0), A_ub, np.zeros(q), A_eq, [1.0],
                          bounds=[(0, None)] * p + [(None, None)])
        out.append(-value)
    return np.array(out)


def response_gap(W: np.ndarray, rhs: np.ndarray) -> float:
    """min over learner mixes x of max_c (W[c].x - rhs[c]); <= 0 iff some x satisfies every row."""
    r, m = W.shape
    A_ub = np.hstack([W, -np.ones((r, 1))])
    A_eq = np.append(np.ones(m), 0.0)[None, :]
    value, _ = lp_max(np.append(np.zeros(m), -1.0), A_ub, rhs, A_eq, [1.0],
                      bounds=[(0, None)] * m + [(None, None)])
    return -value


@lru_cache(maxsize=None)
def simplex_lattice(dim: int, denominator: int) -> np.ndarray:
    pts = [c for c in itertools.product(range(denominator + 1), repeat=dim) if sum(c) == denominator]
    return np.array(pts, dtype=float) / denominator


def menu_gaps(g: Game, normals: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """response_gap of the menu {phi : normals.phi <= rhs} at every lattice opponent mix."""
    N = np.asarray(normals, dtype=float).reshape(-1, g.m, g.n)
    lattice = simplex_lattice(g.n, LATTICE_POINTS.get(g.n, 4))
    return np.array([response_gap(N @ y, np.asarray(rhs, dtype=float)) for y in lattice])


# -- references ----------------------------------------------------------


class Reference:
    """scipy references of one game, computed once and reused by every check."""

    def __init__(self, g: Game):
        self.g = g

    @cached_property
    def stackelberg(self) -> np.ndarray:
        """Per type: its best value leading against a best-responding learner."""
        g = self.g
        v = np.full(g.k, -np.inf)
        for i in range(g.k):
            for a in range(g.m):
                # opponent mixes y under which learner action a is a best response
                sol = lp_max(g.u_O[i, a], g.u_L - g.u_L[a], np.zeros(g.m), np.ones((1, g.n)), [1.0])
                if sol is not None:
                    v[i] = max(v[i], sol[0])
        return v

    def no_regret_rows(self) -> np.ndarray:
        """(m, mn): row i* is the gain of switching every learner action to i*."""
        g = self.g
        return np.array([(g.u_L[i_star][None, :] - g.u_L).ravel() for i_star in range(g.m)])

    @cached_property
    def nr_value(self) -> float:
        """Optimum of the no-regret commitment program, built from its definition."""
        g, v = self.g, self.stackelberg
        d = g.k * g.mn
        blocks = [slice(i * g.mn, (i + 1) * g.mn) for i in range(g.k)]
        rows, rhs = [], []
        for i, blk in enumerate(blocks):
            for gain in self.no_regret_rows():
                row = np.zeros(d)
                row[blk] = gain
                rows.append(row)
                rhs.append(0.0)
            row = np.zeros(d)
            row[blk] = -g.u_O[i].ravel()
            rows.append(row)
            rhs.append(-v[i])
            for j, other in enumerate(blocks):
                if j != i:
                    row = np.zeros(d)
                    row[blk] = -g.u_O[i].ravel()
                    row[other] = g.u_O[i].ravel()
                    rows.append(row)
                    rhs.append(0.0)
        A_eq = np.zeros((g.k, d))
        for i, blk in enumerate(blocks):
            A_eq[i, blk] = 1.0
        obj = np.concatenate([a * g.u_L.ravel() for a in g.alpha])
        sol = lp_max(obj, np.array(rows), np.array(rhs), A_eq, np.ones(g.k))
        if sol is None:
            raise RuntimeError("reference no-regret program is infeasible")
        return sol[0]

    @cached_property
    def nsr_baseline(self) -> float:
        """Prior-weighted learner value when each type takes its favourite
        no-swap-regret profile, ties broken for the learner."""
        g = self.g
        rows = []
        for a in range(g.m):
            for a_star in range(g.m):
                if a_star != a:
                    row = np.zeros((g.m, g.n))
                    row[a] = g.u_L[a_star] - g.u_L[a]
                    rows.append(row.ravel())
        A_ub = np.array(rows) if rows else np.zeros((0, g.mn))
        b_ub = np.zeros(len(rows))
        A_eq, b_eq = np.ones((1, g.mn)), [1.0]
        total = 0.0
        for i in range(g.k):
            top, _ = lp_max(g.u_O[i].ravel(), A_ub, b_ub, A_eq, b_eq)
            tie_A = np.vstack([A_ub, -g.u_O[i].ravel()])
            tie_b = np.append(b_ub, -(top - _TIE_SLACK))
            total += g.alpha[i] * lp_max(g.u_L.ravel(), tie_A, tie_b, A_eq, b_eq)[0]
        return total

    def level_thresholds(self, V: float) -> np.ndarray:
        """Per type, its top utility over the profiles worth at least V to the learner."""
        g = self.g
        A_ub, b_ub = -g.u_L.ravel()[None, :], [-V]
        return np.array([lp_max(g.u_O[i].ravel(), A_ub, b_ub, np.ones((1, g.mn)), [1.0])[0] for i in range(g.k)])

    def certified_valid(self, c: np.ndarray) -> bool:
        """True when the utility orthant {u <= c} is provably forceable.

        It is forceable iff a.c >= min_x max_y x.(sum_s a_s u_O_s).y for
        every type weighting a. For k = 1 that is one zero-sum value; for
        k = 2 the slack is 2 p_max-Lipschitz in L1, so a margin above
        2 p_max / G on a grid of G + 1 weightings certifies every a.
        """
        g = self.g
        if g.k == 1:
            return bool(zero_sum_values(g.u_O)[0] <= c[0] - 1e-7)
        if g.k != 2:
            raise ValueError("the maximin oracle handles k <= 2")
        margin = 2.0 * g.scale / _DIRECTION_GRID + 1e-7
        for ts in _coarse_to_fine(_DIRECTION_GRID):
            a = np.stack([ts, 1.0 - ts], axis=1)
            values = zero_sum_values(np.tensordot(a, g.u_O, axes=(1, 0)))
            if np.any(a @ c - values <= margin):
                return False
        return True


def _coarse_to_fine(G: int):
    """Batches of the grid fractions i/G, coarse ones first, each i once."""
    seen = set()
    step = G
    while step >= 1:
        batch = [i for i in range(0, G + 1, step) if i not in seen]
        seen.update(batch)
        if batch:
            yield np.array(batch, dtype=float) / G
        step //= 2


# -- checks of result documents --------------------------------------------


def check_stackelberg(ref: Reference, result: dict) -> List[str]:
    g, p = ref.g, Problems()
    per_type = result.get("per_type", [])
    p.expect(len(per_type) == g.k, f"stackelberg reports {len(per_type)} types, game has {g.k}")
    for entry in per_type[: g.k]:
        i = entry["type"]
        tol = 1e-7 * g.scale
        p.close(entry["value"], ref.stackelberg[i], tol, f"type {i} Stackelberg value")
        if not p.distribution(entry["csp"], g.mn, f"type {i} profile"):
            continue
        phi = np.asarray(entry["csp"]).reshape(g.m, g.n)
        p.close(float(np.sum(g.u_O[i] * phi)), entry["value"], tol, f"type {i} value of its profile")
        f = entry["outcome"]["learner_action"]
        y = phi[f]
        p.close(float(y.sum()), 1.0, 1e-9, f"type {i} profile mass on learner action {f}")
        p.expect(float(np.max((g.u_L - g.u_L[f]) @ y)) <= tol,
                 f"type {i}: learner action {f} is not a best response to the opponent's mix")
    return p


def check_commit_nr(ref: Reference, result: dict, fixture: Optional[str] = None) -> List[str]:
    g, p = ref.g, Problems()
    tol = 1e-6 * g.scale
    p.close(result["value"], ref.nr_value, tol, "no-regret commitment value")
    if fixture == "g1":
        p.expect(abs(Fraction(result["value"]) - G1_NR_VALUE) <= Fraction(1, 10**9),
                 f"g1 value {result['value']} is not 969/140")
    p.close(result["stackelberg_values"], ref.stackelberg, 1e-7 * g.scale, "Stackelberg floors")
    profiles = result["assignment"]
    if len(profiles) != g.k or not all(p.distribution(w, g.mn, f"profile {i}") for i, w in enumerate(profiles)):
        p.append("assignment has the wrong shape")
        return p
    phi = np.asarray(profiles)
    gains = ref.no_regret_rows()
    own = np.einsum("ix,jx->ij", g.u_O.reshape(g.k, g.mn), phi)  # own[i, j] = u_O_i(phi_j)
    feas = 1e-7 * g.scale
    p.expect(float(np.max(phi @ gains.T)) <= feas, "an assigned profile has positive regret")
    p.expect(bool(np.all(np.diag(own) >= ref.stackelberg - feas)), "a type gets less than its Stackelberg floor")
    p.expect(bool(np.all(np.diag(own)[:, None] >= own - feas)), "the assignment is not incentive compatible")
    p.close(float(g.alpha @ (phi @ g.u_L.ravel())), result["value"], 1e-8 * g.scale,
            "prior-weighted learner value of the assignment")
    p.close(result["nsr_baseline"], ref.nsr_baseline, tol, "no-swap-regret baseline")
    p.expect(result["nsr_baseline"] <= result["value"] + feas, "no-swap-regret baseline exceeds the value")
    return p


def check_commit_general(ref: Reference, result: dict, eps: float) -> List[str]:
    g, p = ref.g, Problems()
    p.expect(result["converged"] is True, "commit-general did not converge")
    p.expect(result["menu_certified"] is True, "commit-general menu is not certified")
    profiles = result["assignment"]
    if len(profiles) != g.k or not all(p.distribution(w, g.mn, f"profile {i}") for i, w in enumerate(profiles)):
        p.append("assignment has the wrong shape")
        return p
    phi = np.asarray(profiles)
    value = float(g.alpha @ (phi @ g.u_L.ravel()))
    p.close(result["value_lower_bound"], value, 1e-8 * g.scale, "value of the returned assignment")
    p.expect(result["value_lower_bound"] >= ref.nr_value - eps - 1e-7 * g.scale,
             f"value {result['value_lower_bound']} below the no-regret optimum {ref.nr_value} minus eps")
    cons = result["menu"]["constraints"]
    normals = np.asarray([c["normal"] for c in cons], dtype=float)
    rhs = np.asarray([c["rhs"] for c in cons], dtype=float)
    uo = g.u_O.reshape(g.k, g.mn)
    p.close(normals, uo, 1e-12, "menu normals")
    p.close(rhs, np.einsum("ix,ix->i", uo, phi) + eps, 1e-9 * g.scale, "menu right-hand sides")
    worst = float(np.max(menu_gaps(g, normals, rhs)))
    p.expect(worst <= 1e-9 * g.scale, f"menu is not response-satisfiable on the lattice (gap {worst:.3e})")
    return p


def thresholds_of(g: Game, assignment_doc: dict) -> np.ndarray:
    phi = np.asarray(assignment_doc["profiles"], dtype=float)
    return np.einsum("ix,ix->i", g.u_O.reshape(g.k, g.mn), phi)


def check_check_menu(ref: Reference, result: dict, assignment_doc: dict, delta: float) -> List[str]:
    g, p = ref.g, Problems()
    c = thresholds_of(g, assignment_doc)
    p.close(result["delta"], delta, 1e-12, "delta")
    uo = g.u_O.reshape(g.k, g.mn)
    if result["approachable"]:
        p.expect(result["outcome"] == f"ApproachableExpanded({delta})", f"outcome {result['outcome']!r}")
        p.expect(result["certificate_y"] is None, "a passing verdict carries a certificate")
        worst = float(np.max(menu_gaps(g, uo, c + delta)))
        p.expect(worst <= 1e-9 * g.scale,
                 f"delta-relaxed menu is not response-satisfiable on the lattice (gap {worst:.3e})")
    else:
        p.expect(result["outcome"] == "NotApproachable", f"outcome {result['outcome']!r}")
        y = result["certificate_y"]
        if p.distribution(y, g.n, "certificate_y"):
            p.distribution(result["direction"], g.k, "refuting direction")
            gap = response_gap(g.u_O @ np.asarray(y), c)
            # the refuting direction is violated by more than delta/2 on the net
            p.expect(gap >= delta / 2.0 - 1e-7 * g.scale,
                     f"certificate leaves a learner response within {gap:.3e} of the menu")
    return p


def check_maximin(ref: Reference, result: dict, eps: float, T: int) -> List[str]:
    g, p = ref.g, Problems()
    epochs = result["epochs"]
    levels = np.array([e["V"] for e in epochs])
    starts = [e["start_round"] for e in epochs]
    p.expect(len(epochs) >= 1, "no epochs")
    if not epochs:
        return p
    # run_maximin starts at max u_L and subtracts eps once per abort
    expected = [float(np.max(g.u_L))]
    for _ in levels[1:]:
        expected.append(expected[-1] - eps)
    p.close(levels, expected, 1e-12, "epoch levels (printed to 12 places)")
    p.expect(starts[0] == 0 and all(a <= b <= T for a, b in zip(starts, starts[1:])), f"epoch starts {starts}")
    p.expect(result["abort_count"] == len(epochs) - 1, "abort_count is not the number of epochs minus 1")
    p.close(result["final_V"], levels[-1], 1e-12, "final_V")
    lo, hi = float(np.min(g.u_L)), float(np.max(g.u_L))
    p.expect(lo - 1e-9 <= result["learner_avg"] <= hi + 1e-9, "learner_avg outside the learner's payoff range")
    per_type = np.asarray(result["per_type_avg"])
    p.expect(bool(np.all((per_type >= g.u_O.min(axis=(1, 2)) - 1e-9) & (per_type <= g.u_O.max(axis=(1, 2)) + 1e-9))),
             "per_type_avg outside the types' payoff ranges")
    if g.k <= 2:
        # A learner never aborts a level whose menu is forceable, so no
        # aborted level may be certified forceable by the reference.
        for V in expected[:-1]:
            c = ref.level_thresholds(max(V, lo))
            p.expect(not ref.certified_valid(c), f"aborted level {V} has a forceable menu")
    return p


def check_simulate(ref: Reference, result: dict, T: int, type_index: int) -> List[str]:
    g, p = ref.g, Problems()
    ok = p.distribution(result["final_csp"], g.mn, "final_csp") & p.distribution(result["chosen_csp"], g.mn, "chosen_csp")
    if not ok:
        return p
    final = np.asarray(result["final_csp"])
    chosen = np.asarray(result["chosen_csp"])
    p.close(result["learner_avg"], float(g.u_L.ravel() @ final), 1e-9 * g.scale, "learner_avg")
    p.close(result["per_type_avg"], g.u_O.reshape(g.k, g.mn) @ final, 1e-9 * g.scale, "per_type_avg")
    p.close(result["opponent_avg"], result["per_type_avg"][type_index], 1e-12, "opponent_avg")
    # Largest-deficit apportionment keeps every deficit above -1 and the
    # deficits sum to 0, so the L1 distance is at most 2(mn - 1)/T.
    dist = float(np.abs(final - chosen).sum())
    p.expect(dist <= 2.0 * (g.mn - 1) / T + 1e-9, f"final_csp is {dist:.3e} from chosen_csp in L1")
    p.expect(result["max_menu_violation"] >= 0.0, "negative menu violation")
    return p

