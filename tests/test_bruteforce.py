import numpy as np
import pytest

from conftest import halfspace_value, random_csp, random_game
from menuopt import lp
from menuopt.bruteforce import grid_bruteforce_nr, grid_maximin_opt, grid_menu_validity
from menuopt.core import BimatrixGame, Csp, CspAssignment
from menuopt.errors import EmptyMenu, GridTooLarge, InvalidInput
from menuopt.menus import HalfspaceMenu, candidate_menu, menu_violation, no_regret_menu
from menuopt.nr_commitment import optimal_no_regret_commitment

# Lattice optimum of the 3x2 fixture at quarter resolution, computed by
# this oracle and cross-checked by hand: 1/4 (C,R) + 1/2 (B,R) + 1/4 (A,S)
# passes every filter and no lattice assignment does better.
G1_GRID_QUARTER = 6.05


def test_one_by_one():
    game = BimatrixGame(np.array([[0.4]]), ((np.array([[1.0]]), 1.0),))
    assert grid_bruteforce_nr(game, 0.25) == pytest.approx(0.4)


def test_constant_learner_payoff():
    rng = np.random.default_rng(60)
    game = BimatrixGame(np.full((2, 2), -0.7), ((rng.uniform(-1, 1, (2, 2)), 1.0),))
    for res in (0.5, 0.25, 0.125):
        assert grid_bruteforce_nr(game, res) == pytest.approx(-0.7)


def test_g1_quarter_resolution(g1):
    value = grid_bruteforce_nr(g1, 0.25)
    assert value == pytest.approx(G1_GRID_QUARTER, abs=1e-9)
    # the exact solver must dominate its own lattice under-approximation
    assert optimal_no_regret_commitment(g1).value >= value - 1e-6


def test_oracle_is_deterministic(g1):
    assert grid_bruteforce_nr(g1, 0.25) == grid_bruteforce_nr(g1, 0.25)


def test_grid_cap():
    game = BimatrixGame(np.zeros((4, 4)), ((np.zeros((4, 4)), 1.0),))
    with pytest.raises(GridTooLarge):
        grid_bruteforce_nr(game, 0.01)


def argmax_assignment(game):
    profiles = []
    for i in range(game.k):
        w = np.zeros(game.m * game.n)
        w[int(np.argmax(game.u_O(i).ravel()))] = 1.0
        profiles.append(Csp(w))
    return CspAssignment(tuple(profiles))


def test_menu_validity_argmax_assignment():
    rng = np.random.default_rng(61)
    for _ in range(5):
        game = random_game(rng, 2, 2, 2)
        ok, cert = grid_menu_validity(argmax_assignment(game), game, 0.1)
        assert ok and cert is None


def test_menu_validity_below_cap_certificate():
    rng = np.random.default_rng(62)
    found = 0
    for _ in range(20):
        game = random_game(rng, 2, 2, 1)
        cap, _, _ = lp.zero_sum_value(game.u_O(0))
        lo = float(np.min(game.u_O(0)))
        if cap - lo < 0.2:
            continue
        found += 1
        u = game.u_O(0).ravel()
        lam = (cap - 0.1 - lo) / (float(np.max(u)) - lo)
        w = np.zeros(4)
        w[int(np.argmax(u))] = lam
        w[int(np.argmin(u))] = 1.0 - lam
        assign = CspAssignment((Csp(w),))
        ok, cert = grid_menu_validity(assign, game, 0.05)
        assert not ok and cert is not None
        # consistent with the halfspace view at the all-mass direction
        val, _, _ = halfspace_value(game, np.array([1.0]))
        assert val > cap - 0.1
    assert found >= 5


def test_menu_validity_empty_candidate_menu():
    # two exactly opposed types, worst-for-2 assigned to 1 and vice versa:
    # no profile can satisfy both threshold constraints
    u1 = np.array([[1.0, -1.0], [0.5, -0.5]])
    game = BimatrixGame(np.zeros((2, 2)), ((u1, 0.5), (-u1, 0.5)))
    lo = Csp.point_mass(0, 1, 2, 2)  # u1 = -1
    hi = Csp.point_mass(0, 0, 2, 2)  # u1 = +1
    assign = CspAssignment((lo, hi))
    menu = candidate_menu(assign, 0.0, game)
    ok, cert = grid_menu_validity(assign, game, 0.25)
    assert not ok
    assert np.allclose(cert, [1.0, 0.0])  # first grid point already fails
    assert menu_violation(Csp.uniform(2, 2), menu) > 0


def test_maximin_opt_constant_learner():
    rng = np.random.default_rng(63)
    game = BimatrixGame(np.full((2, 2), 0.3), ((rng.uniform(-1, 1, (2, 2)), 1.0),))
    assert grid_maximin_opt(game, 0.05, 0.02) == pytest.approx(0.3)


def test_maximin_opt_zero_sum_matches_security_value():
    rng = np.random.default_rng(64)
    for _ in range(5):
        u_L = rng.uniform(-1, 1, size=(2, 2))
        game = BimatrixGame(u_L, ((-u_L, 1.0),))
        got = grid_maximin_opt(game, 0.05, 0.02)
        security = -lp.zero_sum_value(-u_L)[0]  # max_x min_y u_L
        assert abs(got - security) <= 0.05 + 0.02 + 1e-9


def test_maximin_opt_aligned_coordination():
    u = np.array([[1.0, 0.0], [0.0, 0.6]])
    game = BimatrixGame(u, ((u.copy(), 1.0),))
    got = grid_maximin_opt(game, 0.05, 0.02)
    assert got == pytest.approx(1.0, abs=1e-9)


def test_distance_point_inside_is_zero(g1):
    menu = candidate_menu(CspAssignment((Csp.uniform(3, 2),)), 0.5, g1)
    phi = Csp.uniform(3, 2)
    assert euclidean_distance_to_polytope(phi.weights, menu) <= 1e-8


def test_distance_single_active_halfspace():
    # simplex face cut by x_0 <= 0.25; the point mass on coordinate 0
    # projects straight down the normal that mixes simplex and halfspace
    dim = 3
    normal = np.array([1.0, 0.0, 0.0])
    menu = HalfspaceMenu(normal[None, :], np.array([0.25]))
    point = np.array([1.0, 0.0, 0.0])
    got = euclidean_distance_to_polytope(point, menu)
    # exact projection onto {sum=1, x>=0, x0<=0.25} is (0.25, 0.375, 0.375)
    expect = float(np.linalg.norm(point - np.array([0.25, 0.375, 0.375])))
    assert got == pytest.approx(expect, abs=1e-6)


def quadratic_grid_distance(point, menu, resolution):
    from menuopt.approachability import simplex_lattice

    pts = simplex_lattice(point.size, int(round(1.0 / resolution)))
    ok = np.max(pts @ menu.normals.T - menu.rhs, axis=1) <= 1e-12
    return float(np.min(np.linalg.norm(pts[ok] - point, axis=1)))


def test_distance_matches_grid_projection():
    rng = np.random.default_rng(65)
    for _ in range(5):
        normal = rng.uniform(-1, 1, size=3)
        menu = HalfspaceMenu(normal[None, :], np.array([float(rng.uniform(0.0, 0.3))]))
        point = rng.dirichlet(np.ones(3))
        try:
            ref = quadratic_grid_distance(point, menu, 1e-3)
        except ValueError:
            continue
        got = euclidean_distance_to_polytope(point, menu)
        assert got == pytest.approx(ref, abs=1e-3)


@pytest.mark.parametrize(
    "u_L", [np.array([[0.3, -0.5, 0.8]]), np.array([[0.4, -0.1], [0.4, -0.1]])], ids=["m=1", "equal-rows"]
)
def test_distance_with_zero_normals(u_L):
    # every no-regret normal is zero here, so the menu is the whole simplex
    game = BimatrixGame(u_L, ((np.zeros_like(u_L), 1.0),))
    menu = no_regret_menu(game)
    assert not np.any(menu.normals)
    inside = np.full(u_L.size, 1.0 / u_L.size)
    assert euclidean_distance_to_polytope(inside, menu) <= 1e-12
    outside = np.zeros(u_L.size)
    outside[0] = 1.2  # nearest simplex point is the vertex e_0
    assert euclidean_distance_to_polytope(outside, menu) == pytest.approx(0.2, abs=1e-9)


def test_distance_empty_menu_raises():
    normal = np.ones(4)
    menu = HalfspaceMenu(normal[None, :], np.array([0.5]))  # sum(x) <= 0.5 impossible
    with pytest.raises(EmptyMenu):
        euclidean_distance_to_polytope(np.full(4, 0.25), menu)


def test_violation_surrogate_vs_euclidean_distance():
    # constraint-space violation and true distance agree up to the norm of
    # the constraint row (Cauchy-Schwarz), checked on random menus
    rng = np.random.default_rng(66)
    for _ in range(10):
        normal = rng.uniform(-1, 1, size=4)
        menu = HalfspaceMenu(normal[None, :], np.array([float(rng.uniform(-0.2, 0.2))]))
        phi = random_csp(rng, 4)
        viol = menu_violation(phi, menu)
        try:
            dist = euclidean_distance_to_polytope(phi.weights, menu)
        except EmptyMenu:
            continue
        assert viol <= dist * float(np.linalg.norm(normal)) + 1e-6
        if viol == 0.0:
            assert dist <= 1e-6


# The L2 reference the distance tests above measure menus with; no solver
# projects, so it lives here, beside its only user.
def euclidean_distance_to_polytope(point: np.ndarray, menu: HalfspaceMenu) -> float:
    """Exact L2 distance from `point` to the menu (simplex ∩ halfspaces).

    Dykstra's alternating projections onto the simplex and each
    halfspace, iterated to 1e-6; used to spot-check the constraint-space
    violation surrogate.
    """
    point = np.asarray(point, dtype=float)
    if point.shape != (menu.dim,) and menu.n_constraints > 0:
        raise InvalidInput("point dimension must match the menu")
    dim = point.size
    feas = [lp.simplex_row(dim)]
    for c in range(menu.n_constraints):
        feas.append((menu.normals[c], lp.LE, float(menu.rhs[c])))
    if not lp.solve_lp(lp.LinearProgram(np.zeros(dim), feas)).is_optimal:
        raise EmptyMenu("menu has no intersection with the simplex")

    def project_simplex(v: np.ndarray) -> np.ndarray:
        u = np.sort(v)[::-1]
        css = np.cumsum(u) - 1.0
        rho = np.nonzero(u - css / (np.arange(dim) + 1) > 0)[0][-1]
        theta = css[rho] / (rho + 1.0)
        return np.maximum(v - theta, 0.0)

    sets = [("simplex", None, None)] + [
        ("half", menu.normals[c], float(menu.rhs[c])) for c in range(menu.n_constraints)
    ]
    x = point.copy()
    corrections = [np.zeros(dim) for _ in sets]
    for _ in range(100_000):
        x_prev = x.copy()
        for s, (kind, a, b) in enumerate(sets):
            yv = x + corrections[s]
            if kind == "simplex":
                proj = project_simplex(yv)
            elif a @ a > 0.0:
                proj = yv - (max(0.0, a @ yv - b) / (a @ a)) * a
            else:
                proj = yv  # a zero normal holds everywhere: the program above showed 0 <= b
            corrections[s] = yv - proj
            x = proj
        if np.linalg.norm(x - x_prev) < 1e-10:
            break
    return float(np.linalg.norm(point - x))
