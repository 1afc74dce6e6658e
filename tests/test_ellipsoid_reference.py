"""`optimize_general` against a frozen copy of its earlier ellipsoid loop.

`reference_optimize_general` is the loop as it stood before the cut
normals were built once per call and the checks read Python lists: a
fresh normal per iteration, the block-sum, sign and IC checks through
`np.abs`, `np.any`, `argmax` and `argmin`, and `_ellipsoid_cut`, which
symmetrised P after every update. The reference asserts at every step
that the symmetrisation returns P bit for bit, since P starts as k*I and
both (i, j) and (j, i) of each update come from the same operands.

On every game below the two must report the same `on_cut` sequence and
the same `GeneralCommitment`, bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from conftest import G1_UL, G1_UO, random_game, scaled
from menuopt import lp
from menuopt.approachability import (
    TesterNet,
    separator_for_thresholds,
    test_assignment_valid,
    verdict_for_thresholds,
    water_fill_repair,
)
from menuopt.core import BimatrixGame, Csp, CspAssignment, assignment_value
from menuopt.general_commitment import (
    _EQ_TOL_FRACTION,
    GeneralCommitment,
    _clean_assignment,
    optimize_general,
)
from menuopt.menus import candidate_menu

from test_degenerate_games import GENERAL_GAMES


def reference_cut(center, P, a):
    d = center.size
    Pa = P @ a
    denom = float(a @ Pa)
    if denom <= 0:
        raise lp.NumericalFailure("ellipsoid collapsed")
    g = Pa / np.sqrt(denom)
    center = center - g / (d + 1.0)
    P = (d * d / (d * d - 1.0)) * (P - (2.0 / (d + 1.0)) * np.outer(g, g))
    symmetric = 0.5 * (P + P.T)
    assert symmetric.tobytes() == P.tobytes()
    return center, symmetric


def reference_optimize_general(game, eps, delta=None, max_iters=None, on_cut=None):
    mn = game.m * game.n
    if delta is None:
        delta = eps / (8.0 * np.sqrt(mn))
    k = game.k
    d = k * mn
    if max_iters is None:
        max_iters = int(400 * d * max(1.0, np.log10(max(10.0, game.p_max / eps))) + 2000)
    tol = eps * _EQ_TOL_FRACTION / (max(1.0, game.p_max) * (mn + 1))

    center = np.full(d, 1.0 / mn)
    P = float(k) * np.eye(d)
    obj = np.outer(game.alphas, game.u_L.ravel()).ravel()
    flat = not np.any(obj)

    uo_flat = np.array([game.u_O(i).ravel() for i in range(k)])
    net = TesterNet.build(game, delta)
    best_vec = None
    best_val = -np.inf
    converged = False
    iters = 0
    if mn == 1:
        best_vec, converged, max_iters = np.ones(d), True, 0

    for iters in range(1, max_iters + 1):
        cut = None
        keep_ge = False

        blocks = center.reshape(k, mn)
        sums = blocks.sum(axis=1)
        negs = blocks.min(axis=1)
        if np.any(np.abs(sums - 1.0) > tol):
            i = int(np.argmax(np.abs(sums - 1.0)))
            a = np.zeros(d)
            a[i * mn : (i + 1) * mn] = 1.0
            cut, keep_ge = a, sums[i] < 1.0
        elif np.any(negs < -tol):
            i = int(np.argmin(negs))
            j = int(np.argmin(blocks[i]))
            a = np.zeros(d)
            a[i * mn + j] = 1.0
            cut, keep_ge = a, True
        else:
            own = uo_flat @ blocks.T
            ic_gap = own.diagonal()[:, None] - own
            if np.min(ic_gap) < -tol:
                i, j = np.unravel_index(int(np.argmin(ic_gap)), ic_gap.shape)
                a = np.zeros(d)
                a[i * mn : (i + 1) * mn] = uo_flat[i]
                a[j * mn : (j + 1) * mn] -= uo_flat[i]
                cut, keep_ge = a, True
            else:
                c_raw = np.einsum("ij,ij->i", uo_flat, blocks)
                verdict = verdict_for_thresholds(game, c_raw, delta, net)
                if verdict.approachable:
                    val = float(obj @ center)
                    if val > best_val:
                        best_val = val
                        best_vec = center.copy()
                    if flat:
                        converged = True
                        break
                    cut, keep_ge = obj.copy(), True
                else:
                    h, offset, margin = separator_for_thresholds(game, c_raw, verdict.certificate_y)
                    a = np.zeros(d)
                    for i in range(k):
                        a[i * mn : (i + 1) * mn] = h[i] * uo_flat[i]
                    if on_cut is not None:
                        on_cut(center.copy(), a.copy(), offset, margin)
                    cut, keep_ge = a, True

        center, P = reference_cut(center, P, -cut if keep_ge else cut)
        if best_vec is not None:
            spread = float(np.sqrt(max(0.0, obj @ P @ obj)))
            if float(obj @ center) + spread - best_val <= eps / 2.0:
                converged = True
                break

    if best_vec is None:
        profiles = []
        for i in range(k):
            w = np.zeros(mn)
            w[int(np.argmax(uo_flat[i]))] = 1.0
            profiles.append(Csp(w))
        assign = CspAssignment(tuple(profiles))
        converged = False
    else:
        assign = _clean_assignment(best_vec, k)

    verdict = test_assignment_valid(assign, game, delta, net)
    if not verdict.approachable:
        assign = water_fill_repair(assign, game, min(1.0, eps))
        verdict = test_assignment_valid(assign, game, delta, net)
    return GeneralCommitment(
        assignment=assign,
        menu=candidate_menu(assign, eps, game),
        extra_points=tuple(assign.profiles),
        value_lower_bound=float(assignment_value(game, assign)),
        converged=converged,
        iterations=iters,
        verdict_approachable=bool(verdict.approachable),
    )


def bits(obj):
    """obj with every float and array replaced by its bytes."""
    if dataclasses.is_dataclass(obj):
        return tuple(bits(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(bits(x) for x in obj)
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (float, np.floating)):
        return np.float64(obj).tobytes()
    return obj


SMALL = [(2, 2), (3, 2), (2, 3), (3, 3)]
G1 = BimatrixGame(G1_UL, ((G1_UO, 1.0),))
# (id, game, eps, delta)
CASES = (
    [(f"{m}x{n}k{k}-{s}", random_game(np.random.default_rng([9300, m, n, k, s]), m, n, k), 0.05, None)
     for k in (1, 2) for m, n in SMALL for s in range(13)]
    + [(f"3x3k{k}-{s}-eps0.5", random_game(np.random.default_rng([9300, 3, 3, k, s]), 3, 3, k), 0.5, 0.1)
       for k in (1, 2) for s in range(10)]
    + [(f"{m}x2k3-{s}", random_game(np.random.default_rng([9300, m, 2, 3, s]), m, 2, 3), 0.5, None)
       for m in (2, 3) for s in range(10)]
    + [(name, make(), 0.05, None) for name, make in sorted(GENERAL_GAMES.items())]
    + [(f"g1x{s:g}", scaled(G1, s), 0.05 * s, None) for s in (1e-3, 1e3)]
)


@pytest.mark.parametrize("game,eps,delta", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_same_cuts_and_result_as_the_reference(game, eps, delta):
    cuts = {"now": [], "reference": []}

    def recorder(seen):
        return lambda center, a, offset, margin: seen.append(bits((center, a, offset, margin)))

    got = optimize_general(game, eps, delta, on_cut=recorder(cuts["now"]))
    want = reference_optimize_general(game, eps, delta, on_cut=recorder(cuts["reference"]))
    assert cuts["now"] == cuts["reference"]
    assert bits(got) == bits(want)
