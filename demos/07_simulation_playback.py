"""Realizing a menu as an executable policy and simulating repeated play.

The committed menu is played out as published pure-pair schedules: the
opponent picks its favorite offered profile, both sides follow the
schedule, and the running average converges to the pick.  If the
opponent ever deviates, the learner switches permanently to halfspace
forcing, which keeps the running average near the fallback menu so
deviation never pays.
"""

import numpy as np

from menuopt import (
    BimatrixGame,
    MenuScheduleLearner,
    menu_violation,
    no_regret_menu,
    optimal_no_regret_commitment,
    optimizer_best_response_policy,
    simulate,
)
from menuopt.playback import FixedMixPolicy

game = BimatrixGame.from_json(open("demos/games/g1.json").read())
res = optimal_no_regret_commitment(game)

# The opponent's rational pick over the offered hull, tie-broken for the
# learner, and a cooperative schedule realizing it.
chosen, opp_policy, picked = optimizer_best_response_policy(
    res.nsr_menu, res.extra_points, game.u_O(0), game.u_L, game
)
print("opponent picks extra point", picked, "worth",
      round(float(game.u_O(0).ravel() @ chosen.weights), 4), "to itself")

learner = MenuScheduleLearner(
    no_regret_menu(game), list(res.extra_points) + [chosen], fallback_menu=res.nsr_menu
)
report = simulate(game, learner, opp_policy, T=10_000, chosen_target=len(res.extra_points))
print("cooperative play: learner average", round(report.learner_avg, 4),
      "(solver promised", round(res.value, 4), ")")

# A defector forfeits the schedule: the learner's fallback drags the
# average profile into the no-swap-regret polytope.
defector = FixedMixPolicy(np.array([1.0, 0.0]))
report2 = simulate(game, learner, defector, T=10_000, menu=res.nsr_menu)
print("defection: learner average", round(report2.learner_avg, 4),
      " final fallback-menu violation", f"{report2.final_menu_violation:.2e}")
print("defector's own take:", round(report2.opponent_avg, 4),
      "vs", round(float(res.stackelberg_values[0]), 4), "it could have had")
print("residual violation of running profile:",
      f"{menu_violation(report2.final_csp, res.nsr_menu):.2e}")
