"""Deciding whether a candidate menu is realizable by any learning algorithm.

A candidate menu caps each opponent type's utility at its assigned
profile's value.  The menu is realizable iff the learner can force the
type-utility vector into the capped orthant; the tester checks every
supporting halfspace direction on a finite net and returns either a
certified verdict for the slightly expanded menu or an opponent mix
under which no learner response stays inside.
"""

import numpy as np

from menuopt import (
    BimatrixGame,
    Csp,
    CspAssignment,
    bilinear_value,
    response_satisfiable_at,
    candidate_menu,
    test_assignment_valid,
    water_fill_repair,
)
from menuopt.approachability import separator_for_thresholds

game = BimatrixGame.from_json(open("demos/games/g1.json").read())

# Threshold 2 (the half/half profile) is easily forceable: the learner can
# hold the opponent to 0.75 by mixing rows A and C.
mix = Csp.mix([(0.5, Csp.point_mass(2, 0, 3, 2)), (0.5, Csp.point_mass(0, 1, 3, 2))])
good = CspAssignment((mix,))
print("threshold", bilinear_value(game.u_O(0), mix), "->", test_assignment_valid(good, game, 0.05).outcome)

# Threshold 0 (all mass on the opponent's worst pair) is hopeless.
bad = CspAssignment((Csp.point_mass(0, 0, 3, 2),))
verdict = test_assignment_valid(bad, game, 0.05)
print("threshold 0.0 ->", verdict.outcome)
print("  violated direction:", verdict.direction)
print("  opponent certificate y:", np.round(verdict.certificate_y, 4))

# The certificate is airtight: no learner response lands in the menu.
menu = candidate_menu(bad, 0.0, game)
print("  any x with x (x) y inside the menu?", response_satisfiable_at(menu, verdict.certificate_y, game))

# Certificates convert into cuts usable by outer optimization loops.
h, offset, margin = separator_for_thresholds(game, menu.rhs, verdict.certificate_y)
print("  cut: type weights", h, "offset", round(offset, 4), "margin", round(margin, 4))

# Water-filling repairs near-feasible assignments by shifting mass onto
# each type's favorite pair, which only relaxes its own cap.
repaired = water_fill_repair(bad, game, eps=0.6)
print("\nafter water-filling:", test_assignment_valid(repaired, game, 0.05).outcome,
      "at threshold", round(bilinear_value(game.u_O(0), repaired[0]), 4))
