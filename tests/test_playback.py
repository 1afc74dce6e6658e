import numpy as np
import pytest

from conftest import CR, random_game
from menuopt.approachability import test_assignment_valid
from menuopt.core import Csp, bilinear_value
from menuopt.errors import InvalidInput, InvalidTarget
from menuopt.general_commitment import optimize_general
from menuopt.maximin import make_aborter_adversary, run_maximin, threshold_assignment
from menuopt.menus import (
    HalfspaceMenu,
    candidate_menu,
    eval_menu_value,
    menu_violation,
    no_regret_menu,
    no_swap_regret_menu,
)
from menuopt.nr_commitment import optimal_no_regret_commitment
from menuopt.playback import (
    BlackwellAbortPolicy,
    ComposedAbortableLearner,
    FixedMixPolicy,
    LearnerPolicy,
    MenuScheduleLearner,
    OpponentPolicy,
    SchedulePolicy,
    optimizer_best_response_policy,
    pair_to_actions,
    schedule_for,
    simulate,
)


def motivating_menu_and_point(g1):
    phi = Csp.mix([(0.5, Csp.point_mass(2, 0, 3, 2)), (0.5, Csp.point_mass(0, 1, 3, 2))])
    return no_swap_regret_menu(g1), phi


def test_schedule_tracks_target():
    rng = np.random.default_rng(100)
    for T in (100, 10_000):
        target = Csp(rng.dirichlet(np.ones(6)))
        pairs = schedule_for(target, T)
        counts = np.bincount(pairs, minlength=6) / T
        assert np.abs(counts - target.weights).sum() <= 2 * 6 / np.sqrt(T)
        # actual guarantee is much tighter than the acceptance slack
        assert np.abs(counts - target.weights).sum() <= 2 * 6 / T + 1e-12


def test_cooperative_schedule_converges_to_target(g1):
    menu, phi = motivating_menu_and_point(g1)
    learner = MenuScheduleLearner(no_regret_menu(g1), [phi], fallback_menu=menu)
    report = simulate(g1, learner, SchedulePolicy(phi), 10_000, chosen_target=0)
    assert np.abs(report.final_csp.weights - phi.weights).sum() <= 2 * 6 / np.sqrt(10_000)
    assert report.learner_avg == pytest.approx(5.0, abs=0.01)


def test_defection_against_unconstrained_menu_keeps_zero_violation(g1):
    menu = HalfspaceMenu.unconstrained(6)
    learner = MenuScheduleLearner(menu, [Csp.uniform(3, 2)])
    defector = FixedMixPolicy(np.array([0.25, 0.75]))
    report = simulate(g1, learner, defector, 500, menu=menu)
    assert report.max_menu_violation == 0.0


def test_defection_against_certified_candidate_menu():
    rng = np.random.default_rng(101)
    delta = 0.05
    done = 0
    for trial in range(20):
        game = random_game(rng, 2, 2, 2)
        assign = threshold_assignment(game, float(np.min(game.u_L)) + 0.1)
        if not test_assignment_valid(assign, game, delta).approachable:
            continue
        done += 1
        menu = candidate_menu(assign, 0.0, game)
        learner = MenuScheduleLearner(menu.relaxed(1e-9), list(assign.profiles))
        T = 10_000
        defector = FixedMixPolicy(np.array([1.0, 0.0]))
        report = simulate(game, learner, defector, T, menu=menu)
        bound = delta + 8 * game.p_max * np.sqrt(np.log(game.k) / T)
        assert report.final_menu_violation <= bound
        if done >= 5:
            break
    assert done >= 3


def test_fallback_violation_step_increment_bound(g1):
    menu, phi = motivating_menu_and_point(g1)
    learner = MenuScheduleLearner(no_regret_menu(g1), [phi], fallback_menu=menu)
    defector = FixedMixPolicy(np.array([1.0, 0.0]))
    viols = []

    def track(t, x, y):
        pass

    report = simulate(g1, learner, defector, 400, menu=menu, on_round=track)
    # recompute the running violations and check per-round increments
    xs, ys = report.transcript.xs, report.transcript.ys
    avg = np.zeros(6)
    prev = 0.0
    for t in range(len(xs)):
        avg += np.outer(xs[t], ys[t]).ravel()
        v = menu_violation(Csp(np.maximum(avg / (t + 1), 0.0)), menu)
        if t > 0:
            assert v - prev <= 2 * g1.p_max / (t + 1) + 1e-9
        prev = v


def test_invalid_target_rejected(g1):
    menu, phi = motivating_menu_and_point(g1)
    with pytest.raises(InvalidTarget):
        MenuScheduleLearner(menu, [phi])  # phi is outside the NSR polytope


@pytest.mark.parametrize("y", [[2.0, -1.0], [0.5, 0.4], [np.nan, 1.0], [[0.5, 0.5]], []])
def test_fixed_mix_rejects_a_non_distribution(y):
    with pytest.raises(InvalidInput):
        FixedMixPolicy(np.array(y))


def test_fixed_mix_rejects_a_wrong_length_before_any_round(g1):
    rounds = []
    learner = MenuScheduleLearner(HalfspaceMenu.unconstrained(6), [Csp.uniform(3, 2)])
    with pytest.raises(InvalidInput):
        simulate(g1, learner, FixedMixPolicy(np.full(3, 1 / 3)), 50, on_round=lambda t, x, y: rounds.append(t))
    assert rounds == []


@pytest.mark.parametrize("chosen", [-1, 2, 5])
def test_schedule_learner_rejects_a_chosen_target_out_of_range(g1, chosen):
    menu, phi = motivating_menu_and_point(g1)
    learner = MenuScheduleLearner(no_regret_menu(g1), [phi, phi], fallback_menu=menu)
    with pytest.raises(InvalidInput):
        learner.reset(g1, 10, chosen)


@pytest.mark.parametrize("m, n", [(2, 2), (4, 2)])
def test_schedule_learner_rejects_a_target_of_another_dimension(g1, m, n):
    learner = MenuScheduleLearner(HalfspaceMenu.unconstrained(m * n), [Csp.uniform(m, n)])
    with pytest.raises(InvalidInput):
        learner.reset(g1, 10, 0)


def test_schedule_opponent_rejects_a_target_of_another_dimension(g1):
    # both column tracks are all 1, so the run would end on schedule
    learner = MenuScheduleLearner(HalfspaceMenu.unconstrained(6), [Csp.point_mass(0, 1, 3, 2)])
    opponent = SchedulePolicy(Csp.point_mass(3, 1, 4, 2))
    with pytest.raises(InvalidInput):
        simulate(g1, learner, opponent, 10, chosen_target=0)


def test_best_response_over_nsr_picks_stackelberg(g1):
    menu = no_swap_regret_menu(g1)
    chosen, policy, picked = optimizer_best_response_policy(
        menu, [], g1.u_O(0), g1.u_L, g1
    )
    assert picked == -1
    assert bilinear_value(g1.u_O(0), chosen) == pytest.approx(1.0, abs=1e-7)
    assert bilinear_value(g1.u_L, chosen) == pytest.approx(3.0, abs=1e-7)


def test_best_response_prefers_added_point(g1):
    menu, phi = motivating_menu_and_point(g1)
    chosen, policy, picked = optimizer_best_response_policy(
        menu, [phi], g1.u_O(0), g1.u_L, g1
    )
    assert picked == 0
    assert bilinear_value(g1.u_O(0), chosen) == pytest.approx(2.0, abs=1e-7)
    assert bilinear_value(g1.u_L, chosen) == pytest.approx(5.0, abs=1e-7)


def test_best_response_constant_opponent_maximizes_learner(g1):
    menu = no_swap_regret_menu(g1)
    const = np.zeros((3, 2))
    chosen, _, _ = optimizer_best_response_policy(menu, [], const, g1.u_L, g1)
    # all-ties: the learner-favoring tie-break finds the learner's best
    # no-swap-regret profile, the pure pair worth 7.1
    assert bilinear_value(g1.u_L, chosen) == pytest.approx(7.1, abs=1e-6)


def test_simulate_constant_pure_actions(g1):
    class PureLearner(LearnerPolicy):
        def reset(self, game, T, chosen):
            self.x = np.array([0.0, 1.0, 0.0])

        def act(self, t):
            return self.x

    report = simulate(g1, PureLearner(), FixedMixPolicy(np.array([1.0, 0.0])), 7)
    assert report.learner_avg == pytest.approx(7.1)
    assert report.opponent_avg == pytest.approx(0.0)


def test_simulated_motivating_menu_matches_example_value(g1):
    menu, phi = motivating_menu_and_point(g1)
    chosen, opp, _ = optimizer_best_response_policy(menu, [phi], g1.u_O(0), g1.u_L, g1)
    learner = MenuScheduleLearner(no_regret_menu(g1), [phi, chosen], fallback_menu=menu)
    report = simulate(g1, learner, opp, 10_000, chosen_target=1)
    assert 4.9 <= report.learner_avg <= 5.0


def test_simulated_commit_nr_menu_reaches_lp_value(g1):
    res = optimal_no_regret_commitment(g1)
    chosen, opp, _ = optimizer_best_response_policy(
        res.nsr_menu, res.extra_points, g1.u_O(0), g1.u_L, g1
    )
    learner = MenuScheduleLearner(
        no_regret_menu(g1), list(res.extra_points) + [chosen], fallback_menu=res.nsr_menu
    )
    report = simulate(g1, learner, opp, 10_000, chosen_target=len(res.extra_points))
    assert report.learner_avg == pytest.approx(res.value, abs=0.05)


def test_nsr_realization_simulates_to_baseline():
    # committing to the no-swap-regret polytope and letting each type walk
    # its leader schedule reproduces the baseline value in simulation
    from menuopt.nr_commitment import nsr_baseline_value
    from menuopt.stackelberg import type_leader_values

    rng = np.random.default_rng(102)
    for trial in range(5):
        game = random_game(rng, 2, 2, 1)
        menu = no_swap_regret_menu(game)
        chosen, opp, _ = optimizer_best_response_policy(menu, [], game.u_O(0), game.u_L, game)
        learner = MenuScheduleLearner(menu.relaxed(1e-9), [chosen])
        report = simulate(game, learner, opp, 10_000, chosen_target=0)
        assert report.learner_avg == pytest.approx(
            nsr_baseline_value(game), abs=0.05
        )
        # and the opponent's take matches its Stackelberg leader value
        v, _ = type_leader_values(game)
        assert report.opponent_avg == pytest.approx(float(v[0]), abs=0.05)


def test_cooperative_playback_gives_each_type_its_threshold(g1):
    # the cheap-talk realization (schedules) is what hands each type its
    # threshold value from below
    from menuopt.maximin import threshold_assignment

    assign = threshold_assignment(g1, 5.0)
    menu = candidate_menu(assign, 1e-9, g1)
    chosen, opp, _ = optimizer_best_response_policy(
        menu, list(assign.profiles), g1.u_O(0), g1.u_L, g1
    )
    learner = MenuScheduleLearner(menu, list(assign.profiles) + [chosen], fallback_menu=menu)
    rep = simulate(g1, learner, opp, 10_000, chosen_target=len(assign.profiles))
    c0 = bilinear_value(g1.u_O(0), assign[0])
    assert rep.opponent_avg >= c0 - 0.05


def test_menu_value_matches_simulation_on_general_menu(g1):
    res = optimize_general(g1, eps=0.05)
    chosen, opp, _ = optimizer_best_response_policy(
        res.menu, res.extra_points, g1.u_O(0), g1.u_L, g1
    )
    learner = MenuScheduleLearner(
        res.menu, list(res.extra_points) + [chosen], fallback_menu=res.menu
    )
    report = simulate(g1, learner, opp, 10_000, chosen_target=len(res.extra_points))
    menu_val = eval_menu_value(res.menu, g1, 0.05)
    assert report.learner_avg >= res.value_lower_bound - 0.05
    assert report.learner_avg <= menu_val + 0.05


class AbortAfter(LearnerPolicy):
    """Plays a fixed schedule, aborting after a set number of rounds."""

    def __init__(self, target, abort_at=None):
        self.target = target
        self.abort_at = abort_at

    def reset(self, game, T, chosen):
        self.game = game
        self.schedule = schedule_for(self.target, T)
        self.played = 0

    def act(self, t):
        if self.abort_at is not None and self.played >= self.abort_at:
            return None
        x, _ = pair_to_actions(int(self.schedule[self.played]), self.game.m, self.game.n)
        return x

    def observe(self, t, x, y):
        self.played += 1


def test_compose_single_policy_identity(g1):
    phi = Csp.point_mass(2, 0, 3, 2)
    solo = simulate(g1, AbortAfter(phi), FixedMixPolicy(np.array([1.0, 0.0])), 300)
    composed = simulate(
        g1, ComposedAbortableLearner([AbortAfter(phi)]), FixedMixPolicy(np.array([1.0, 0.0])), 300
    )
    assert np.array_equal(solo.transcript.xs, composed.transcript.xs)


def test_compose_two_policies_average_csps(g1):
    a = Csp.point_mass(2, 0, 3, 2)  # (C, R)
    b = Csp.point_mass(0, 1, 3, 2)  # (A, S)
    T = 400
    learner = ComposedAbortableLearner([AbortAfter(a, abort_at=T // 2), AbortAfter(b)])
    report = simulate(g1, learner, FixedMixPolicy(np.array([1.0, 0.0])), T)
    # exact convex split between the two epochs' schedules
    w = report.final_csp.weights
    assert w[CR] == pytest.approx(0.5, abs=1.0 / T)
    # epoch boundary recorded where the first policy aborted
    assert learner.epoch_starts == [0, T // 2]


def test_compose_replays_maximin_run(g1):
    T = 1500
    run = run_maximin(g1, 0.05, make_aborter_adversary(0.02), T, seed=5)
    assert run.abort_count >= 1

    class ReplayOpponent(OpponentPolicy):
        def reset(self, game, T_):
            self.t = 0

        def act(self, t):
            y = run.transcript.ys[self.t]
            return y

        def observe(self, t, x, y):
            self.t += 1

    policies = [BlackwellAbortPolicy(e.assignment) for e in run.epochs]
    learner = ComposedAbortableLearner(policies)
    report = simulate(g1, learner, ReplayOpponent(), len(run.transcript.xs))
    assert np.array_equal(report.transcript.xs, run.transcript.xs)
    assert [e.start_round for e in run.epochs] == [0] + learner.epoch_starts[1:]
