"""Commitment solvers for repeated bimatrix games against typed opponents.

A learner who commits to a learning algorithm effectively commits to a
convex set of reachable average play distributions (a menu); each
opponent type then steers play to its favorite point of that set.  This
package computes optimal menus under a no-regret restriction (exactly,
by linear programming), approximately without restrictions (by ellipsoid
search with an approachability separation oracle), and online for the
maximin objective (by abortable Blackwell forcing), plus simulators that
realize menus as executable policies and brute-force oracles that verify
everything at desk scale.
"""

from .core import (
    BimatrixGame,
    Csp,
    CspAssignment,
    Transcript,
    assignment_value,
    bilinear_value,
    csp_of_transcript,
)
from .errors import (
    CertificateInvalid,
    EmptyMenu,
    GridTooLarge,
    InvalidInput,
    InvalidTarget,
    MenuOptError,
    NumericalFailure,
    ThresholdInfeasible,
)
from .lp import LinearProgram, LpSolution, solve_lp, zero_sum_value
from .menus import (
    HalfspaceMenu,
    candidate_menu,
    eval_menu_value,
    incentive_check,
    menu_violation,
    no_regret_check,
    no_regret_menu,
    no_swap_regret_check,
    no_swap_regret_menu,
    response_satisfiable_at,
)
from .stackelberg import StackelbergResult, stackelberg_leader, type_leader_values
from .approachability import (
    ApproachVerdict,
    TesterNet,
    halfspace_value,
    test_assignment_valid,
    water_fill_repair,
)
from .nr_commitment import NoRegretCommitment, nsr_baseline_value, optimal_no_regret_commitment
from .general_commitment import GeneralCommitment, optimize_general
from .maximin import ForcingState, MaximinRun, run_blackwell_abort, run_maximin, threshold_assignment
from .playback import (
    ComposedAbortableLearner,
    MenuScheduleLearner,
    SimReport,
    optimizer_best_response_policy,
    schedule_for,
    simulate,
)
from .bruteforce import (
    euclidean_distance_to_polytope,
    grid_bruteforce_nr,
    grid_maximin_opt,
    grid_menu_validity,
)

__version__ = "0.1.0"
