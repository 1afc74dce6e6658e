import tracemalloc

import numpy as np
import pytest

from conftest import CR, random_game
from menuopt import lp
from menuopt.approachability import TesterNet, test_assignment_valid
from menuopt.bruteforce import grid_maximin_opt
from menuopt.core import BimatrixGame, Csp, CspAssignment, bilinear_value, csp_of_transcript
from menuopt.errors import InvalidInput, ThresholdInfeasible
from menuopt.maximin import (
    ADVERSARIES,
    ForcingState,
    hedge_weights,
    make_aborter_adversary,
    make_schedule_adversary,
    random_adversary,
    run_blackwell_abort,
    run_maximin,
    threshold_assignment,
)
from menuopt.menus import candidate_menu, response_satisfiable_at


def test_threshold_assignment_bottom_level_gives_argmaxes():
    rng = np.random.default_rng(80)
    for _ in range(10):
        game = random_game(rng, 2, 2, 2)
        V = float(np.min(game.u_L)) - 1.0
        assign = threshold_assignment(game, V)
        for i in range(game.k):
            got = bilinear_value(game.u_O(i), assign[i])
            assert got == pytest.approx(float(np.max(game.u_O(i))), abs=1e-7)


def test_threshold_assignment_top_level_unique_argmax():
    u_L = np.array([[1.0, 0.0], [0.2, -0.3]])
    game = BimatrixGame(u_L, ((np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0),))
    assign = threshold_assignment(game, 1.0)
    assert np.allclose(assign[0].weights, [1.0, 0.0, 0.0, 0.0], atol=1e-8)


def test_threshold_assignment_g1_level5(g1):
    # the u_O-optimal profile of the level-5 set is the pure pair (C, R):
    # learner value 7 >= 5 and opponent value 3 beat every mixture
    assign = threshold_assignment(g1, 5.0)
    expect = np.zeros(6)
    expect[CR] = 1.0
    assert np.allclose(assign[0].weights, expect, atol=1e-7)
    assert bilinear_value(g1.u_O(0), assign[0]) == pytest.approx(3.0, abs=1e-7)


def test_threshold_infeasible_above_max(g1):
    with pytest.raises(ThresholdInfeasible):
        threshold_assignment(g1, 7.2)


def test_threshold_assignment_is_incentive_compatible():
    from conftest import incentive_check

    rng = np.random.default_rng(81)
    for _ in range(10):
        game = random_game(rng, 2, 2, 2)
        V = float(rng.uniform(np.min(game.u_L), np.max(game.u_L)))
        assert incentive_check(threshold_assignment(game, V), game, slack=1e-7)


def test_step_never_aborts_on_argmax_assignment():
    rng = np.random.default_rng(82)
    for _ in range(5):
        game = random_game(rng, 2, 2, 1)
        w = np.zeros(4)
        w[int(np.argmax(game.u_O(0).ravel()))] = 1.0
        assign = CspAssignment((Csp(w),))
        state = ForcingState(game, assign)
        for _ in range(5):
            x = state.act()
            assert x is not None
            y = rng.dirichlet(np.ones(2))
            state.observe(x, y)


def _below_cap_assignment(game):
    """A k = 1 assignment 0.05 below the type's min-max value, which forcing
    cannot hold; None when the payoffs span less than 0.1 below that value."""
    cap, _, _ = lp.zero_sum_value(game.u_O(0))
    lo = float(np.min(game.u_O(0)))
    if cap - lo < 0.1:
        return None
    u = game.u_O(0).ravel()
    lam = ((cap - 0.05) - lo) / (float(np.max(u)) - lo)
    w = np.zeros(u.size)
    w[int(np.argmax(u))] = lam
    w[int(np.argmin(u))] = 1.0 - lam
    return CspAssignment((Csp(w),))


def test_step_aborts_below_cap_immediately():
    rng = np.random.default_rng(83)
    found = 0
    for _ in range(20):
        game = random_game(rng, 2, 2, 1)
        assign = _below_cap_assignment(game)
        if assign is None:
            continue
        found += 1
        state = ForcingState(game, assign)
        assert state.act() is None
        # the abort certificate refutes response satisfiability outright
        menu = candidate_menu(assign, 0.0, game)
        assert response_satisfiable_at(menu, state.certificate(), game) is None
    assert found >= 8


def test_run_aborted_in_its_first_round_has_an_empty_record():
    rng = np.random.default_rng(84)
    assign = None
    while assign is None:
        game = random_game(rng, 2, 3, 1)
        assign = _below_cap_assignment(game)
    run = run_blackwell_abort(game, assign, random_adversary, 100)
    assert run.aborted_at == 0
    assert run.transcript.xs.shape == (0, 2)
    assert run.transcript.ys.shape == (0, 3)
    assert run.rewards.shape == (0, 1)
    assert response_satisfiable_at(candidate_menu(assign, 0.0, game), run.certificate, game) is None


def test_step_plays_on_g1_level5_assignment(g1):
    assign = threshold_assignment(g1, 5.0)
    assert test_assignment_valid(assign, g1, 0.05).approachable
    state = ForcingState(g1, assign)
    rng = np.random.default_rng(84)
    for _ in range(20):
        x = state.act()
        assert x is not None
        state.observe(x, rng.dirichlet(np.ones(2)))


def counting(monkeypatch, name):
    """Patches lp.<name> to record each call; returns the list of calls."""
    calls = []
    solve = getattr(lp, name)
    monkeypatch.setattr(lp, name, lambda M: calls.append(M) or solve(M))
    return calls


def test_k1_epoch_solves_its_game_once(monkeypatch):
    # with k = 1 the hedge weights never move, so neither does the game
    game = random_game(np.random.default_rng([9000, 3, 3, 1]), 3, 3, 1)
    calls = counting(monkeypatch, "zero_sum_value")
    run = run_maximin(game, 0.1, make_schedule_adversary(), 300, seed=1)
    assert run.abort_count >= 1
    assert 1 <= len(calls) <= len(run.epochs)


@pytest.mark.parametrize("n", [2, 3])
def test_act_returns_a_read_only_x(n):
    # x is one tuple of floats, kept and served again until p moves
    game = random_game(np.random.default_rng([9100, 3, n, 1]), 3, n, 1)
    w = np.zeros(3 * n)
    w[int(np.argmax(game.u_O(0).ravel()))] = 1.0  # the type's favourite: never aborts
    state = ForcingState(game, CspAssignment((Csp(w),)))
    x = state.act()
    assert type(x) is tuple and [type(v) for v in x] == [float] * 3
    with pytest.raises(TypeError):
        x[0] = 0.5
    assert state.act() is x


@pytest.mark.parametrize("n,solver", [(2, "minmax_rows_by_2"), (3, "zero_sum_value")])
def test_act_solves_again_when_p_changes(monkeypatch, n, solver):
    rng = np.random.default_rng([9200, n])
    game = random_game(rng, 3, n, 2)
    assign = CspAssignment(tuple(Csp(rng.dirichlet(np.ones(3 * n))) for _ in range(2)))
    calls = counting(monkeypatch, solver)
    state = ForcingState(game, assign)
    state.act()
    state.act()
    assert len(calls) == 1
    state.p = np.array([0.3, 0.7])
    state.act()
    assert len(calls) == 2
    state.p[:] = [0.6, 0.4]  # the same array with new bytes
    state.act()
    assert len(calls) == 3
    state.p = state.p.copy()  # a new array with the same bytes
    state.act()
    assert len(calls) == 3


def test_two_row_rounds_run_without_the_simplex(monkeypatch):
    # with m = 2 and k = 2 the weights move every round, and every round's
    # game is solved in closed form; only an abort's certificate takes the simplex
    game = random_game(np.random.default_rng([9000, 2, 3, 2]), 2, 3, 2)
    assign = threshold_assignment(game, float(np.min(game.u_L)))

    def refuse(M):
        raise AssertionError("a forcing round ran the simplex")

    monkeypatch.setattr(lp, "zero_sum_value", refuse)
    calls = counting(monkeypatch, "minmax_2_by_cols")
    run = run_blackwell_abort(game, assign, random_adversary, 3000, seed=1)
    assert run.aborted_at is None
    assert len(calls) > 2900


def test_hedge_zero_reward_keeps_weights(g1):
    assign = threshold_assignment(g1, 5.0)
    c = candidate_menu(assign, 0.0, g1).rhs
    # engineered x, y with u_O(x, y) equal to the threshold -> zero reward
    state = ForcingState(g1, assign)
    state.t = 7
    state.observe(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0]))
    assert state.cumulative[0] == pytest.approx(3.0 - c[0])  # u_O(C,R)=3=c
    assert np.allclose(state.p, [1.0])


def test_hedge_state_matches_closed_form():
    rng = np.random.default_rng(91)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        t = int(rng.integers(1, 50))
        p_max = float(rng.uniform(0.5, 8.0))
        cum = rng.uniform(-3, 3, size=k)
        eta = np.sqrt(np.log(k) / t) / (2.0 * p_max)
        manual = np.exp(eta * cum - np.max(eta * cum))
        manual /= manual.sum()
        assert np.allclose(hedge_weights(cum, t, p_max), manual, atol=1e-12)
        assert abs(hedge_weights(cum, t, p_max).sum() - 1.0) <= 1e-12


def test_hedge_dominant_expert_takes_over():
    p_max = 1.0
    cum = np.zeros(2)
    prev = 0.5
    for t in range(1, 200):
        cum += np.array([1.0, -1.0])
        p = hedge_weights(cum, t, p_max)
        assert p[0] >= prev - 1e-12
        prev = p[0]
    assert prev > 0.99


def test_hedge_regret_bound_on_random_stream():
    rng = np.random.default_rng(85)
    for k in (2, 3):
        p_max = 1.0
        cum = np.zeros(k)
        total_weighted = 0.0
        for t in range(1, 2001):
            p = hedge_weights(cum, t - 1, p_max)
            r = rng.uniform(-2 * p_max, 2 * p_max, size=k)
            total_weighted += float(p @ r)
            cum += r
            regret = float(np.max(cum)) - total_weighted
            assert regret <= 4 * p_max * np.sqrt(t * np.log(k)) + 1e-9


def test_run_blackwell_regret_and_no_aborts():
    rng = np.random.default_rng(86)
    done = 0
    for _ in range(10):
        game = random_game(rng, 2, 2, 2)
        assign = threshold_assignment(game, float(np.min(game.u_L)))
        slacks = TesterNet.build(game, 0.05).slacks(candidate_menu(assign, 0.0, game).rhs)
        if slacks.min() < 0.05:  # want a comfortable margin
            continue
        done += 1
        run = run_blackwell_abort(game, assign, random_adversary, 3000, seed=done)
        assert run.aborted_at is None
        cum = np.cumsum(run.rewards, axis=0)
        bound = 4 * game.p_max * np.sqrt(
            (np.arange(1, 3001)) * np.log(game.k)
        )
        assert np.all(cum.max(axis=1) <= bound + 1e-9)
    assert done >= 3


def test_run_maximin_peak_stays_within_one_and_a_half_times_its_record():
    # x, y and the rewards go into arrays allocated once per run, and the
    # transcript takes x and y without a copy; one small array kept per
    # round, or a second copy of x and y, would take more than these bytes
    game = random_game(np.random.default_rng(1), 2, 2, 2)
    adversary = make_aborter_adversary()
    run_maximin(game, 0.05, adversary, 10)  # builds the tester net that later runs share
    T = 30_000
    tracemalloc.start()
    try:
        run = run_maximin(game, 0.05, adversary, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.abort_count > 0 and len(run.transcript) == T
    assert peak < 1.5 * T * (game.m + game.n + game.k) * 8


def test_run_blackwell_abort_peak_stays_within_one_and_a_half_times_its_record():
    # the same bound for one forcing epoch that plays all T rounds: its rows
    # reach the record in blocks of a few hundred rounds, never one list per epoch
    game = random_game(np.random.default_rng(1), 2, 2, 2)
    assignment = threshold_assignment(game, float(np.min(game.u_L)))  # favourite pairs: never aborts
    adversary = make_aborter_adversary()
    run_blackwell_abort(game, assignment, adversary, 10)  # builds the tester net that later runs share
    T = 30_000
    tracemalloc.start()
    try:
        run = run_blackwell_abort(game, assignment, adversary, T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.aborted_at is None and len(run.transcript) == T
    assert peak < 1.5 * T * (game.m + game.n + game.k) * 8


def test_run_maximin_constant_learner_payoff():
    rng = np.random.default_rng(87)
    game = BimatrixGame(np.full((2, 2), 0.4), ((rng.uniform(-1, 1, (2, 2)), 1.0),))
    run = run_maximin(game, 0.05, random_adversary, 500, seed=0)
    assert run.final_V == pytest.approx(0.4)
    assert run.abort_count == 0
    assert run.learner_avg == pytest.approx(0.4, abs=1e-9)


def _per_round_mean(payoff, transcript):
    """Reference average: the mean over rounds of x_t . payoff . y_t."""
    return float(np.mean([x @ payoff @ y for x, y in zip(transcript.xs, transcript.ys)]))


@pytest.mark.parametrize("shape", [(2, 2, 1), (2, 3, 2), (3, 2, 3)])
@pytest.mark.parametrize("adversary", ["random", "schedule", "aborter"])
def test_run_maximin_averages_are_the_transcript_profile(shape, adversary):
    # the averages are the payoffs of the time-averaged profile, spelled as
    # simulate spells them, and agree with the per-round mean to rounding
    game = random_game(np.random.default_rng([91, *shape]), *shape)
    run = run_maximin(game, 0.05, ADVERSARIES[adversary](), 1500, seed=1)
    final = csp_of_transcript(run.transcript)
    tol = 1e-12 * max(1.0, game.p_max)
    for i in range(game.k):
        assert run.per_type_avg[i] == bilinear_value(game.u_O(i), final)
        assert abs(run.per_type_avg[i] - _per_round_mean(game.u_O(i), run.transcript)) <= tol
    assert run.learner_avg == bilinear_value(game.u_L, final)
    assert abs(run.learner_avg - _per_round_mean(game.u_L, run.transcript)) <= tol


@pytest.mark.parametrize("eps", [0.0, -0.05, np.inf, np.nan])
def test_run_maximin_rejects_eps_that_is_not_positive_and_finite(g1, eps):
    with pytest.raises(InvalidInput, match="eps"):
        run_maximin(g1, eps, random_adversary, 10)


def test_runs_reject_a_negative_seed(g1):
    assign = threshold_assignment(g1, float(np.min(g1.u_L)))
    with pytest.raises(InvalidInput, match="seed"):
        run_maximin(g1, 0.05, random_adversary, 10, seed=-1)
    with pytest.raises(InvalidInput, match="seed"):
        run_blackwell_abort(g1, assign, random_adversary, 10, seed=-1)


def test_run_maximin_rejects_eps_too_small_to_lower_the_level(g1):
    # V - 1e-300 == V: the first abort would repeat at round 0 forever
    with pytest.raises(InvalidInput, match="too small"):
        run_maximin(g1, 1e-300, make_aborter_adversary(0.02), 2000)


def test_run_maximin_aborter_reaches_grid_opt():
    rng = np.random.default_rng(88)
    for trial in range(3):
        game = random_game(rng, 2, 2, 2)
        run = run_maximin(game, 0.05, make_aborter_adversary(0.02), 4000, seed=trial)
        opt = grid_maximin_opt(game, 0.05, 0.02)
        assert run.final_V >= opt - 0.05 - 0.02 - 1e-9


def test_run_maximin_menus_nest_across_epochs(g1):
    run = run_maximin(g1, 0.05, make_aborter_adversary(0.02), 2000, seed=1)
    assert run.abort_count >= 1
    prev = None
    for epoch in run.epochs:
        c = candidate_menu(epoch.assignment, 0.0, g1).rhs
        if prev is not None:
            assert np.all(c >= prev - 1e-9)  # relaxing thresholds only
        prev = c


def schedule_of_type(i):
    """The schedule adversary, handed type i's assigned profile as type 0's."""
    schedule = make_schedule_adversary()
    return lambda game, assignment: schedule(game, CspAssignment((assignment[i],)))


def test_run_maximin_bestresponse_per_type_cap():
    # the forcing dynamics cap each type's average at its threshold plus
    # the constraint-regret allowance; reaching the threshold from below
    # is the cooperative playback realization's job, not this loop's
    rng = np.random.default_rng(89)
    T = 4000
    for trial in range(3):
        game = random_game(rng, 2, 2, 2)
        for i in range(game.k):
            run = run_maximin(game, 0.05, schedule_of_type(i), T, seed=trial)
            final = run.epochs[-1].assignment
            c_i = bilinear_value(game.u_O(i), final[i])
            bound = 4 * game.p_max * np.sqrt(np.log(game.k) / T)
            tail = run.rewards[run.epochs[-1].start_round :, i]
            assert tail.mean() <= bound + 0.05
            assert run.per_type_avg[i] <= c_i + bound + 0.1


def test_schedule_adversary_follows_the_wrapped_schedule(g1):
    # round r of an epoch must play column j of pair schedule[r % 100000],
    # with the schedule computed by the reference loop below; rounds
    # 100,000-100,599 check the wrap
    target = Csp(np.array([0.1, 0.25, 0.3, 0.05, 0.2, 0.1]))
    assign = CspAssignment((target,))
    w, counts, ref = target.weights, np.zeros(6), []
    for t in range(1, 601):
        p = int(np.argmax(w * t - counts))
        ref.append(p)
        counts[p] += 1.0
    policy = make_schedule_adversary()(g1, assign)
    rng = np.random.default_rng(0)
    for r in range(100_600):
        y = policy(rng)
        if r % 100_000 < 600:
            expect = np.zeros(2)
            expect[ref[r % 100_000] % 2] = 1.0
            assert np.array_equal(y, expect)


def test_run_maximin_determinism(g1):
    a = run_maximin(g1, 0.05, make_aborter_adversary(0.02), 800, seed=3)
    b = run_maximin(g1, 0.05, make_aborter_adversary(0.02), 800, seed=3)
    assert a.final_V == b.final_V
    assert np.array_equal(a.transcript.xs, b.transcript.xs)
    assert np.array_equal(a.transcript.ys, b.transcript.ys)


def test_fast_step_matches_public_step():
    rng = np.random.default_rng(90)
    for _ in range(20):
        game = random_game(rng, 3, 2, 2)
        assign = CspAssignment(
            tuple(Csp(rng.dirichlet(np.ones(6))) for _ in range(2))
        )
        state = ForcingState(game, assign)
        state.p, state.t, state.cumulative = rng.dirichlet(np.ones(2)), 5, rng.uniform(-1, 1, 2)
        action = state.act()
        # generic-path reference: solve the weighted game exactly
        omega = np.tensordot(state.p, game.opponent_payoffs, axes=(0, 0))
        c = candidate_menu(assign, 0.0, game).rhs
        val, x, y = lp.zero_sum_value(omega)
        kappa = float(state.p @ c)
        assert (action is None) == (val > kappa + 2 * lp.TIE_SLACK)
        if action is not None:
            worst = float(np.max(action @ omega))
            assert worst <= kappa + 1e-8


def test_one_aborter_serves_runs_on_two_games():
    # the aborter keeps its tester net per game: a second game gets its own
    games = [random_game(np.random.default_rng([9600, s]), 2, 2, 2) for s in range(2)]
    shared = make_aborter_adversary(0.1)
    for game in games + games[:1]:
        reused = run_maximin(game, 0.1, shared, 400, seed=2)
        fresh = run_maximin(game, 0.1, make_aborter_adversary(0.1), 400, seed=2)
        assert reused.abort_count == fresh.abort_count >= 1
        assert [e.start_round for e in reused.epochs] == [e.start_round for e in fresh.epochs]
        assert np.array_equal(reused.transcript.xs, fresh.transcript.xs)
        assert np.array_equal(reused.transcript.ys, fresh.transcript.ys)
        assert np.array_equal(reused.rewards, fresh.rewards)
