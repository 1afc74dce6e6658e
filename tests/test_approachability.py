import numpy as np
import pytest

from conftest import halfspace_value, min_positive_gap, random_csp, random_game
from menuopt import lp
from menuopt.approachability import (
    direction_net,
    separator_for_thresholds,
    simplex_lattice,
    test_assignment_valid,
    verdict_for_thresholds,
    water_fill_repair,
)
from menuopt.core import BimatrixGame, Csp, CspAssignment, bilinear_value
from menuopt.errors import CertificateInvalid, InvalidInput
from menuopt.menus import candidate_menu, response_satisfiable_at


def argmax_assignment(game):
    profiles = []
    for i in range(game.k):
        w = np.zeros(game.m * game.n)
        w[int(np.argmax(game.u_O(i).ravel()))] = 1.0
        profiles.append(Csp(w))
    return CspAssignment(tuple(profiles))


def half_cr_half_as():
    return Csp.mix([(0.5, Csp.point_mass(2, 0, 3, 2)), (0.5, Csp.point_mass(0, 1, 3, 2))])


def test_simplex_lattice_count_and_order():
    pts = simplex_lattice(3, 2)
    assert pts.shape == (6, 3)
    assert np.allclose(pts[0], [1.0, 0.0, 0.0])  # lexicographic, largest first
    assert np.allclose(pts.sum(axis=1), 1.0)


def reference_lattice(dim, D):
    """Recursive enumeration: leading coordinate from D down to 0."""
    if dim == 1:
        return [[D]]
    return [[v] + rest for v in range(D, -1, -1) for rest in reference_lattice(dim - 1, D - v)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("D", [1, 2, 3, 7, 12])
def test_simplex_lattice_matches_recursive_enumeration(dim, D):
    ref = np.array(reference_lattice(dim, D), dtype=float) / D
    got = simplex_lattice(dim, D)
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def test_direction_net_covers_in_l1():
    rng = np.random.default_rng(30)
    for dim in (1, 2, 3):
        points = direction_net(dim, 0.07)
        for _ in range(200):
            p = rng.dirichlet(np.ones(dim))
            d = np.abs(points - p).sum(axis=1).min()
            assert d <= 0.07 + 1e-12


def test_halfspace_value_k1_is_minimax_cap(g1):
    value, x, y = halfspace_value(g1, np.array([1.0]))
    ref, _, _ = lp.zero_sum_value(g1.u_O(0))
    assert value == pytest.approx(ref, abs=1e-9)
    assert value == pytest.approx(0.75, abs=1e-9)  # mixing A/B vs C row


def test_halfspace_value_identical_types():
    rng = np.random.default_rng(31)
    u = rng.uniform(-1, 1, size=(3, 2))
    game = BimatrixGame(rng.uniform(-1, 1, (3, 2)), ((u, 0.5), (u, 0.5)))
    v2, _, _ = halfspace_value(game, np.array([0.5, 0.5]))
    ref, _, _ = lp.zero_sum_value(u)
    assert v2 == pytest.approx(ref, abs=1e-9)


def grid_halfspace_oracle(game, a, resolution=1e-3):
    M = np.tensordot(a, game.opponent_payoffs, axes=(0, 0))
    steps = int(round(1.0 / resolution))
    t = np.arange(steps + 1) / steps
    if game.m == 2:
        xs = np.stack([t, 1.0 - t], axis=1)
    else:
        g1v, g2v = np.meshgrid(t, t)
        keep = g1v + g2v <= 1.0 + 1e-12
        xs = np.stack([g1v[keep], g2v[keep], 1.0 - g1v[keep] - g2v[keep]], axis=1)
    return float(np.min(np.max(xs @ M, axis=1)))


def test_halfspace_value_two_type_grid_oracle(g1):
    second = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    game = BimatrixGame(g1.u_L, ((g1.u_O(0), 0.5), (second, 0.5)))
    a = np.array([0.3, 0.7])
    value, _, _ = halfspace_value(game, a)
    assert value == pytest.approx(grid_halfspace_oracle(game, a), abs=2e-3)


def test_halfspace_value_lipschitz_in_direction():
    # The net argument rests on |value(a) - value(b)| <= p_max * |a - b|_1.
    rng = np.random.default_rng(32)
    for _ in range(30):
        game = random_game(rng, 2, 2, 3)
        a1 = rng.dirichlet(np.ones(3))
        a2 = rng.dirichlet(np.ones(3))
        v1, _, _ = halfspace_value(game, a1)
        v2, _, _ = halfspace_value(game, a2)
        assert abs(v1 - v2) <= game.p_max * np.abs(a1 - a2).sum() + 1e-9


def test_argmax_assignment_always_approachable():
    rng = np.random.default_rng(33)
    for _ in range(10):
        game = random_game(rng, 2, 2, int(rng.integers(1, 4)))
        for delta in (0.01, 0.1, 1.0):
            verdict = test_assignment_valid(argmax_assignment(game), game, delta)
            assert verdict.approachable


def test_k1_below_cap_not_approachable():
    rng = np.random.default_rng(34)
    for _ in range(10):
        game = random_game(rng, 2, 2, 1)
        cap, _, _ = lp.zero_sum_value(game.u_O(0))
        delta = 0.05
        # an assignment whose own value sits delta below the forceable cap
        lo = float(np.min(game.u_O(0)))
        if cap - delta - 1e-3 <= lo:
            continue  # cannot place a profile that far below the cap
        target = cap - delta - 1e-3
        phi = _profile_with_value(game.u_O(0), target)
        verdict = test_assignment_valid(CspAssignment((phi,)), game, delta)
        assert not verdict.approachable
        assert np.allclose(verdict.direction, [1.0])
        assert verdict.certificate_y is not None


def _profile_with_value(u, target):
    """Profile with u . phi == target, mixing the extreme pure pairs."""
    u = u.ravel()
    lo_i, hi_i = int(np.argmin(u)), int(np.argmax(u))
    lam = (target - u[lo_i]) / (u[hi_i] - u[lo_i])
    w = np.zeros(u.size)
    w[hi_i] = lam
    w[lo_i] = 1.0 - lam
    return Csp(w)


def test_g1_threshold_two_is_approachable(g1):
    verdict = test_assignment_valid(CspAssignment((half_cr_half_as(),)), g1, 0.05)
    assert verdict.approachable  # forceable cap 0.75 <= threshold 2


def test_not_approachable_certificate_is_sound():
    rng = np.random.default_rng(35)
    found = 0
    for _ in range(40):
        game = random_game(rng, 2, 2, 2)
        assign = CspAssignment(tuple(random_csp(rng, 4) for _ in range(2)))
        verdict = test_assignment_valid(assign, game, 0.05)
        if not verdict.approachable:
            found += 1
            menu = candidate_menu(assign, 0.0, game)
            assert response_satisfiable_at(menu, verdict.certificate_y, game) is None
    assert found >= 5


def test_monotone_in_thresholds():
    rng = np.random.default_rng(36)
    for _ in range(20):
        game = random_game(rng, 2, 2, 2)
        assign = CspAssignment(tuple(random_csp(rng, 4) for _ in range(2)))
        if not test_assignment_valid(assign, game, 0.05).approachable:
            continue
        lifted = water_fill_repair(assign, game, 0.5)  # only raises thresholds
        c0 = candidate_menu(assign, 0.0, game).rhs
        c1 = candidate_menu(lifted, 0.0, game).rhs
        assert np.all(c1 >= c0 - 1e-12)
        assert test_assignment_valid(lifted, game, 0.05).approachable


def test_separating_hyperplane_k1_margin(g1):
    cap, _, _ = lp.zero_sum_value(g1.u_O(0))
    phi = _profile_with_value(g1.u_O(0), 0.25)  # threshold 0.25 < cap 0.75
    assign = CspAssignment((phi,))
    verdict = test_assignment_valid(assign, g1, 0.05)
    assert not verdict.approachable
    c = candidate_menu(assign, 0.0, g1).rhs
    h, offset, margin = separator_for_thresholds(g1, c, verdict.certificate_y)
    assert np.allclose(h, [1.0])
    assert offset == pytest.approx(0.25, abs=1e-9)
    y = verdict.certificate_y
    ref = min(float(g1.u_O(0)[i] @ y) for i in range(3)) - 0.25
    assert margin == pytest.approx(ref, abs=1e-8)
    assert margin > 0


def test_separating_hyperplane_identical_types_tie_break():
    rng = np.random.default_rng(37)
    u = rng.uniform(-1, 1, size=(2, 2))
    game = BimatrixGame(rng.uniform(-1, 1, (2, 2)), ((u, 0.5), (u, 0.5)))
    cap, _, _ = lp.zero_sum_value(u)
    lo = float(np.min(u))
    target = lo + 0.25 * (cap - lo)
    phi = _profile_with_value(u, target)
    assign = CspAssignment((phi, phi))
    verdict = test_assignment_valid(assign, game, 0.05)
    assert not verdict.approachable
    c = candidate_menu(assign, 0.0, game).rhs
    h, _, margin = separator_for_thresholds(game, c, verdict.certificate_y)
    assert margin > 0
    assert np.allclose(h, [1.0, 0.0], atol=1e-8)


def test_separating_hyperplane_warm_start_bound():
    rng = np.random.default_rng(38)
    checked = 0
    for _ in range(40):
        game = random_game(rng, 2, 2, 2)
        assign = CspAssignment(tuple(random_csp(rng, 4) for _ in range(2)))
        verdict = test_assignment_valid(assign, game, 0.05)
        if verdict.approachable:
            continue
        checked += 1
        a = verdict.direction
        c = candidate_menu(assign, 0.0, game).rhs
        val, _, _ = halfspace_value(game, a)
        net_violation = val - float(a @ c)
        _, _, margin = separator_for_thresholds(game, c, verdict.certificate_y)
        assert margin >= net_violation - 1e-8
    assert checked >= 5


def test_separating_hyperplane_rejects_bogus_certificate():
    rng = np.random.default_rng(39)
    game = random_game(rng, 2, 2, 1)
    assign = argmax_assignment(game)  # candidate menu is everything
    with pytest.raises(CertificateInvalid):
        separator_for_thresholds(game, candidate_menu(assign, 0.0, game).rhs, np.array([1.0, 0.0]))


@pytest.mark.parametrize("c", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0], [0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
def test_verdict_rejects_thresholds_that_are_not_a_finite_vector_per_type(c):
    # a NaN threshold compared as no violation, so the tester passed it
    game = random_game(np.random.default_rng(0), 3, 2, 2)
    with pytest.raises(InvalidInput, match="thresholds"):
        verdict_for_thresholds(game, np.array(c), 0.05)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("y", [[np.nan, np.nan], [np.inf, 0.0], [-5.0, 6.0], [2.0, 2.0], [0.5, 0.4], [1.0 + 1e-12, -1e-11]])
def test_separator_rejects_a_certificate_off_the_simplex(k, y):
    # at k <= 2 these gave margins nan and inf, or cuts from y that are not mixes
    game = random_game(np.random.default_rng([40, k]), 3, 2, k)
    c = np.full(k, -2.0)  # below every payoff: any mix of the opponent refutes
    with pytest.raises(InvalidInput, match="simplex"):
        separator_for_thresholds(game, c, np.array(y))


@pytest.mark.parametrize("y", [[1.0, 0.0], [1.0 + 1e-10, -1e-12], [0.3, 0.7]])
def test_separator_accepts_mixes_within_the_simplex_tolerances(y):
    game = random_game(np.random.default_rng([40, 2]), 3, 2, 2)
    assert separator_for_thresholds(game, np.full(2, -2.0), np.array(y))[2] > 0.0


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, "short"])
def test_separator_rejects_thresholds_that_are_not_a_finite_vector_per_type(k, bad):
    # at k = 2 a NaN threshold gave a cut
    game = random_game(np.random.default_rng([41, k]), 3, 2, k)
    c = np.full(k, -2.0)
    if bad == "short":
        c = c[1:]
    else:
        c[0] = bad
    with pytest.raises(InvalidInput, match="thresholds"):
        separator_for_thresholds(game, c, np.array([0.5, 0.5]))


def test_water_fill_point_mass_on_top_unchanged():
    u = np.array([[0.0, 1.0], [2.0, 3.0]])
    game = BimatrixGame(np.zeros((2, 2)), ((u, 1.0),))
    top = Csp.point_mass(1, 1, 2, 2)
    out = water_fill_repair(CspAssignment((top,)), game, 0.4)
    assert np.allclose(out[0].weights, top.weights)


def test_water_fill_two_pair_example():
    # mn = 2 with utilities (0, 1): moving 0.2 from the worst pair onto the
    # best takes (0.5, 0.5) to (0.3, 0.7) and gains exactly 0.2
    u = np.array([[0.0, 1.0]])
    game = BimatrixGame(np.zeros((1, 2)), ((u, 1.0),))
    start = Csp(np.array([0.5, 0.5]))
    out = water_fill_repair(CspAssignment((start,)), game, 0.2)
    assert np.allclose(out[0].weights, [0.3, 0.7])
    gain = bilinear_value(u, out[0]) - bilinear_value(u, start)
    assert gain == pytest.approx(0.2)


def test_water_fill_full_budget_reaches_point_mass():
    u = np.array([[0.0, 1.0], [2.0, 3.0]])
    game = BimatrixGame(np.zeros((2, 2)), ((u, 1.0),))
    out = water_fill_repair(CspAssignment((Csp.uniform(2, 2),)), game, 1.0)
    assert np.allclose(out[0].weights, [0.0, 0.0, 0.0, 1.0])


def test_water_fill_budget_and_floor_properties():
    rng = np.random.default_rng(40)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        game = random_game(rng, 2, 2, k)
        eps = float(rng.uniform(0.05, 1.0))
        assign = CspAssignment(tuple(random_csp(rng, 4) for _ in range(k)))
        out = water_fill_repair(assign, game, eps)
        moved_total = 0.0
        for i in range(k):
            diff = out[i].weights - assign[i].weights
            moved = 0.5 * np.abs(diff).sum()
            moved_total += moved
            assert moved <= eps / k + 1e-12
            u = game.u_O(i)
            B = min_positive_gap(u)
            top = float(np.max(u))
            floor = min(bilinear_value(u, assign[i]) + B * eps / k, top)
            assert bilinear_value(u, out[i]) >= floor - 1e-9
        assert moved_total <= eps + 1e-12


def test_min_positive_gap_all_equal_is_one():
    assert min_positive_gap(np.full((2, 2), 3.0)) == 1.0
    assert min_positive_gap(np.array([[0.0, 0.25], [1.0, 0.25]])) == pytest.approx(0.25)


def test_direction_rejects_bad_input(g1):
    with pytest.raises(InvalidInput):
        halfspace_value(g1, np.array([0.5, 0.5]))  # wrong k
    with pytest.raises(InvalidInput):
        test_assignment_valid(CspAssignment((Csp.uniform(3, 2),)), g1, 0.0)
