"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -rA -s` to see every line.
"""

import time
from fractions import Fraction

import numpy as np

from conftest import (
    AS,
    CR,
    G1_NR_VALUE,
    G1_NR_WEIGHTS,
    G1_UL,
    G1_UO,
    random_csp,
    random_game,
)
from menuopt import lp
from menuopt.approachability import (
    TesterNet,
    min_positive_gap,
    test_assignment_valid,
    water_fill_repair,
)
from menuopt.bruteforce import grid_bruteforce_nr, grid_maximin_opt, grid_menu_validity
from menuopt.core import BimatrixGame, Csp, CspAssignment, bilinear_value, csp_of_transcript
from menuopt.general_commitment import optimize_general
from menuopt.maximin import (
    make_aborter_adversary,
    random_adversary,
    run_blackwell_abort,
    run_maximin,
    threshold_assignment,
)
from menuopt.menus import (
    candidate_menu,
    no_regret_check,
    no_swap_regret_check,
    response_satisfiable_at,
)
from menuopt.nr_commitment import nsr_baseline_value, optimal_no_regret_commitment
from menuopt.playback import (
    ComposedAbortableLearner,
    FixedMixPolicy,
    optimizer_best_response_policy,
    MenuScheduleLearner,
    simulate,
)
from menuopt.stackelberg import type_leader_values


def report(name: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"{name} failed {tail}"


def g1_game() -> BimatrixGame:
    return BimatrixGame(G1_UL, ((G1_UO, 1.0),))


# --- criterion 1: fixture-table reproduction ------------------------------


def _exact(payoff) -> list:
    """Flattened payoff entries as exact decimals (7.1 -> 71/10)."""
    return [Fraction(repr(float(x))) for x in np.ravel(payoff)]


def _det3(a) -> Fraction:
    return (
        a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
    )


def test_criterion_1a_commit_nr_table_values():
    # The fixture's optimum, proven in exact arithmetic without the solver.
    # The program maximizes u_L . phi over profiles with sum(phi) = 1,
    # phi >= 0, one no-regret row gain[d] . phi <= 0 per deviation d, and
    # the opponent floor u_O . phi >= 1, its Stackelberg value (criterion 1b).
    u_L, u_O = _exact(G1_UL), _exact(G1_UO)
    m, n = G1_UL.shape
    gain = [[u_L[d * n + c % n] - u_L[c] for c in range(m * n)] for d in range(m)]

    def dot(row, phi):
        return sum(r * p for r, p in zip(row, phi))

    # Primal: the pinned profile is feasible and earns G1_NR_VALUE.
    phi = G1_NR_WEIGHTS
    assert sum(phi) == 1 and min(phi) >= 0
    assert max(dot(g, phi) for g in gain) <= 0
    assert dot(u_O, phi) >= 1
    assert dot(u_L, phi) == G1_NR_VALUE
    # Dual: multipliers y (simplex), lam (no-regret rows) and mu (floor)
    # with every reduced cost >= 0 bound u_L . phi <= y - mu for every
    # feasible phi, and that bound is the primal value.
    y, lam, mu = Fraction(71, 10), (0, Fraction(61, 14), 0), Fraction(5, 28)
    reduced = [
        y + dot(lam, [g[c] for g in gain]) - mu * u_O[c] - u_L[c] for c in range(m * n)
    ]
    assert min(reduced) >= 0, reduced
    assert y - mu == G1_NR_VALUE
    # Uniqueness: by complementary slackness every optimum lives on the
    # cells of zero reduced cost and is tight on the rows with nonzero
    # multipliers.  That square system is nonsingular, so phi is the only
    # optimum.
    support = [c for c in range(m * n) if reduced[c] == 0]
    tight = [[1] * (m * n)] + [g for l, g in zip(lam, gain) if l] + [u_O]
    assert len(support) == len(tight) == 3
    assert _det3([[row[c] for c in support] for row in tight]) != 0

    t0 = time.time()
    game = g1_game()
    res = optimal_no_regret_commitment(game)
    elapsed = time.time() - t0
    # The half/half (C,R)/(A,S) menu is feasible, so its learner value 5 is
    # a lower witness for the optimum.
    w = np.zeros(m * n)
    w[CR] = w[AS] = 0.5
    half = Csp(w)
    half_value = bilinear_value(game.u_L, half)
    ok = (
        abs(res.value - float(G1_NR_VALUE)) <= 1e-6
        and np.allclose(
            res.assignment[0].weights, np.array(G1_NR_WEIGHTS, dtype=float), atol=1e-6
        )
        and elapsed < 1.0
        and no_regret_check(half, game)
        and bilinear_value(game.u_O(0), half) >= res.stackelberg_values[0]
        and abs(half_value - 5.0) <= 1e-9
        and half_value <= res.value
    )
    report(
        "criterion 1a (commit-nr value 969/140 at the certified unique optimum)",
        ok,
        f"solver value {res.value:.10f}, half/half witness {half_value:.4f}, "
        f"elapsed {elapsed:.2f}s",
    )


def test_criterion_1b_stackelberg_outcome():
    t0 = time.time()
    game = g1_game()
    v, csps = type_leader_values(game)
    elapsed = time.time() - t0
    as_mass = csps[0].weights[AS]
    ok = abs(v[0] - 1.0) <= 1e-9 and abs(as_mass - 1.0) <= 1e-8 and elapsed < 1.0
    report("criterion 1b (stackelberg type 0 value 1 at (A,S))", ok, f"value {v[0]:.9f}")


def test_criterion_1c_nsr_baseline():
    t0 = time.time()
    base = nsr_baseline_value(g1_game())
    elapsed = time.time() - t0
    ok = abs(base - 3.0) <= 1e-6 and elapsed < 1.0
    report("criterion 1c (no-swap-regret baseline 3)", ok, f"baseline {base:.9f}")


# --- criterion 2: oracle dominance ----------------------------------------


def test_criterion_2_oracle_dominance():
    t0 = time.time()
    worst_lo, worst_hi = np.inf, np.inf
    for seed in range(50):
        rng = np.random.default_rng(seed)
        m, n = (2, 2) if seed % 2 == 0 else (3, 2)
        k = 2 if seed % 4 == 3 else 1
        game = random_game(rng, m, n, k)
        value = optimal_no_regret_commitment(game).value
        oracle = grid_bruteforce_nr(game, 0.1)
        slack = 0.1 * (m + k) * game.p_max
        worst_lo = min(worst_lo, value - (oracle - 1e-6))
        worst_hi = min(worst_hi, (oracle + slack) - value)
        assert value >= oracle - 1e-6, f"seed {seed}: {value} < {oracle}"
        assert value <= oracle + slack, f"seed {seed}: {value} > {oracle}+{slack}"
    elapsed = time.time() - t0
    ok = elapsed < 120.0
    report(
        "criterion 2 (oracle dominance on 50 seeded games)",
        ok,
        f"margins {worst_lo:.2e}/{worst_hi:.3f}, elapsed {elapsed:.1f}s",
    )


# --- criterion 3: tester soundness ----------------------------------------


def _criterion3_instance(seed: int):
    rng = np.random.default_rng(1000 + seed)
    m, n = (2, 2) if seed % 2 == 0 else (3, 2)
    k = 1 + seed % 3
    game = random_game(rng, m, n, k)
    style = seed % 4
    if style == 0:
        assign = CspAssignment(tuple(random_csp(rng, m * n) for _ in range(k)))
    elif style == 1:
        V = float(rng.uniform(np.min(game.u_L), np.max(game.u_L)))
        assign = threshold_assignment(game, V)
    elif style == 2:
        profiles = []
        for i in range(k):
            w = np.zeros(m * n)
            w[int(np.argmax(game.u_O(i).ravel()))] = 1.0
            profiles.append(Csp(w))
        assign = CspAssignment(tuple(profiles))
    else:
        base = random_csp(rng, m * n)
        assign = CspAssignment(tuple(base for _ in range(k)))
    return game, assign


def test_criterion_3_tester_soundness():
    delta = 0.05
    n_approach, n_refute = 0, 0
    for seed in range(200):
        game, assign = _criterion3_instance(seed)
        verdict = test_assignment_valid(assign, game, delta)
        if verdict.approachable:
            n_approach += 1
            ok, y = grid_menu_validity(assign, game, 0.05, eps=delta)
            assert ok, f"seed {seed}: grid refuted an approachable verdict at y={y}"
        else:
            n_refute += 1
            menu = candidate_menu(assign, 0.0, game)
            witness = response_satisfiable_at(menu, verdict.certificate_y, game)
            assert witness is None, f"seed {seed}: certificate not sound"
    ok = n_approach >= 40 and n_refute >= 40
    report(
        "criterion 3 (tester soundness, 200 instances, zero contradictions)",
        ok,
        f"{n_approach} certified / {n_refute} refuted",
    )


# --- criterion 4: general commitment --------------------------------------


def test_criterion_4_general_commitment():
    t0 = time.time()
    game = g1_game()
    res = optimize_general(game, eps=0.05)
    assert res.converged
    gate = float(G1_NR_VALUE) - 0.05
    ok_g1 = res.value_lower_bound >= gate
    worst = np.inf
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        tiny = random_game(rng, 2, 2, 1)
        nr = optimal_no_regret_commitment(tiny).value
        gen = optimize_general(tiny, eps=0.05)
        assert gen.converged, f"seed {seed} did not converge"
        worst = min(worst, gen.value_lower_bound - (nr - 0.05))
        assert gen.value_lower_bound >= nr - 0.05, f"seed {seed}"
    elapsed = time.time() - t0
    ok = ok_g1 and elapsed < 300.0
    report(
        "criterion 4 (general commitment dominates no-regret minus eps)",
        ok,
        f"fixture bound {res.value_lower_bound:.4f} >= {gate:.4f}, "
        f"worst margin {worst:.4f}, elapsed {elapsed:.1f}s",
    )


# --- criterion 5: abortable-forcing regret --------------------------------


def _comfortable_assignment(seed: int):
    """Random tiny game plus an assignment certified with healthy margin."""
    rng = np.random.default_rng(3000 + seed)
    k = 1 + seed % 3
    while True:
        game = random_game(rng, 2, 2, k)
        V = float(np.min(game.u_L)) + 0.05
        assign = threshold_assignment(game, V)
        if TesterNet.build(game, 0.05).slacks(candidate_menu(assign, 0.0, game).rhs).min() >= 0.05:
            return game, assign


def test_criterion_5_blackwell_regret():
    T = 100_000
    worst = np.inf
    for seed in range(20):
        game, assign = _comfortable_assignment(seed)
        run = run_blackwell_abort(game, assign, random_adversary, T, seed=seed)
        assert run.aborted_at is None, f"seed {seed} aborted"
        cum = np.cumsum(run.rewards, axis=0).max(axis=1)
        bound = 4.0 * game.p_max * np.sqrt(np.arange(1, T + 1) * np.log(max(game.k, 1)))
        gap = float(np.min(bound - cum))
        worst = min(worst, gap)
        assert gap >= -1e-9, f"seed {seed}: regret bound violated by {-gap}"
    report(
        "criterion 5 (constraint regret within 4*P*sqrt(T ln k), zero aborts)",
        True,
        f"tightest margin {worst:.2f}",
    )


# --- criterion 6: maximin end-to-end --------------------------------------


def test_criterion_6_maximin_end_to_end():
    T = 100_000
    worst_v, worst_sim = np.inf, np.inf
    for seed in range(10):
        rng = np.random.default_rng(4000 + seed)
        k = 1 + seed % 2
        game = random_game(rng, 2, 2, k)
        run = run_maximin(game, 0.05, make_aborter_adversary(0.02), 3000, seed=seed)
        opt = grid_maximin_opt(game, 0.05, 0.02)
        worst_v = min(worst_v, run.final_V - (opt - 0.05 - 0.02))
        assert run.final_V >= opt - 0.05 - 0.02 - 1e-9, f"seed {seed}"
        final = run.epochs[-1].assignment
        menu = candidate_menu(final, 1e-9, game)
        for i in range(game.k):
            chosen, opp, _ = optimizer_best_response_policy(
                menu, list(final.profiles), game.u_O(i), game.u_L, game
            )
            learner = MenuScheduleLearner(
                menu, list(final.profiles) + [chosen], fallback_menu=menu
            )
            rep = simulate(
                game, learner, opp, T, type_index=i, chosen_target=len(final.profiles)
            )
            worst_sim = min(worst_sim, rep.learner_avg - (run.final_V - 0.05))
            assert rep.learner_avg >= run.final_V - 0.05, f"seed {seed} type {i}"
    report(
        "criterion 6 (maximin final value and simulated averages)",
        True,
        f"value margin {worst_v:.4f}, simulation margin {worst_sim:.4f}",
    )


# --- criterion 7: property suites ------------------------------------------


def test_criterion_7a_lp_duality_500():
    from test_lp import random_feasible_lp

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        prog = random_feasible_lp(rng, d, int(rng.integers(1, 8)))
        sol = lp.solve_lp(prog)
        assert sol.is_optimal
        worst = max(worst, lp.duality_gap(prog, sol))
        assert worst <= 1e-7
    report("criterion 7a (duality gap <= 1e-7 on 500 programs)", True, f"max gap {worst:.1e}")


def test_criterion_7b_zero_sum_antisymmetry():
    rng = np.random.default_rng(8)
    for _ in range(100):
        M = rng.uniform(-2, 2, size=(int(rng.integers(1, 5)), int(rng.integers(1, 5))))
        v1, _, _ = lp.zero_sum_value(M)
        v2, _, _ = lp.zero_sum_value(-M.T)
        assert abs(v1 + v2) <= 1e-8
    report("criterion 7b (zero-sum antisymmetry)", True)


def test_criterion_7c_swap_regret_containment():
    rng = np.random.default_rng(9)
    game = random_game(rng, 3, 3, 1)
    checked = 0
    for _ in range(1000):
        phi = random_csp(rng, 9)
        if no_swap_regret_check(phi, game, tol=1e-9):
            checked += 1
            assert no_regret_check(phi, game, tol=1e-9)
    # plus constructed members of the stronger polytope
    for _ in range(100):
        y = rng.dirichlet(np.ones(3))
        x = np.zeros(3)
        x[int(np.argmax(game.u_L @ y))] = 1.0
        phi = Csp.outer(x, y)
        assert no_swap_regret_check(phi, game)
        assert no_regret_check(phi, game)
    report("criterion 7c (swap-regret polytope inside regret polytope)", True)


def test_criterion_7d_upward_closure():
    rng = np.random.default_rng(10)
    for _ in range(20):
        game = random_game(rng, 3, 2, 2)
        assign = CspAssignment(tuple(random_csp(rng, 6) for _ in range(2)))
        menu = candidate_menu(assign, 0.0, game)
        relax = menu.relaxed(float(rng.uniform(0.01, 0.5)))
        for _ in range(10):
            y = rng.dirichlet(np.ones(2))
            if response_satisfiable_at(menu, y, game) is not None:
                assert response_satisfiable_at(relax, y, game) is not None
    report("criterion 7d (upward closure of response satisfiability)", True)


def test_criterion_7e_s_convexity_at_tester_granularity():
    rng = np.random.default_rng(11)
    delta = 0.05
    pairs = 0
    while pairs < 50:
        game = random_game(rng, 2, 2, 2)
        a1 = CspAssignment(tuple(random_csp(rng, 4) for _ in range(2)))
        a2 = CspAssignment(tuple(random_csp(rng, 4) for _ in range(2)))
        if not (
            test_assignment_valid(a1, game, delta).approachable
            and test_assignment_valid(a2, game, delta).approachable
        ):
            continue
        pairs += 1
        lam = float(rng.uniform())
        mix = CspAssignment(
            tuple(Csp(lam * a1[i].weights + (1 - lam) * a2[i].weights) for i in range(2))
        )
        assert test_assignment_valid(mix, game, 2 * delta).approachable
    report("criterion 7e (S-convexity at tester granularity, 50 pairs)", True)


def test_criterion_7f_water_filling():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        game = random_game(rng, 2, 2, k)
        eps = float(rng.uniform(0.05, 1.0))
        assign = CspAssignment(tuple(random_csp(rng, 4) for _ in range(k)))
        out = water_fill_repair(assign, game, eps)
        moved = sum(
            0.5 * float(np.abs(out[i].weights - assign[i].weights).sum()) for i in range(k)
        )
        assert moved <= eps + 1e-12  # total probability mass moved
        for i in range(k):
            u = game.u_O(i)
            floor = min(
                bilinear_value(u, assign[i]) + min_positive_gap(u) * eps / k,
                float(np.max(u)),
            )
            assert bilinear_value(u, out[i]) >= floor - 1e-9
    report("criterion 7f (water-filling displacement and utility floor)", True)


def test_criterion_7g_composition_identity():
    from test_playback import AbortAfter

    game = g1_game()
    a = Csp.point_mass(2, 0, 3, 2)
    b = Csp.point_mass(0, 1, 3, 2)
    T = 600
    learner = ComposedAbortableLearner([AbortAfter(a, abort_at=T // 3), AbortAfter(b)])
    rep = simulate(game, learner, FixedMixPolicy(np.array([1.0, 0.0])), T)
    # final profile is exactly the epoch-length-weighted mix of epoch profiles
    xs, ys = rep.transcript.xs, rep.transcript.ys
    cut = learner.epoch_starts[1]
    from menuopt.core import Transcript

    phi1 = csp_of_transcript(Transcript(xs[:cut], ys[:cut]))
    phi2 = csp_of_transcript(Transcript(xs[cut:], ys[cut:]))
    blend = (cut * phi1.weights + (T - cut) * phi2.weights) / T
    assert np.allclose(rep.final_csp.weights, blend, atol=1e-12)
    report("criterion 7g (composition profile identity)", True)
