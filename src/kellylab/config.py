"""Central numeric tolerances and default experiment settings.

Every magic constant used for validation or convergence lives here so the
rest of the package never hard-codes its own epsilons.
"""

PROB_SUM_TOL = 1e-12        # |sum(p) - 1| allowed at model construction
FEAS_TOL = 1e-9             # slack for allocation feasibility comparisons
RUIN_EPS = 1e-12            # wealth factor below this is treated as the ruin boundary
ENUM_BUDGET = 10**6         # max outcome sequences for exact enumeration
DEFAULT_DT_YEARS = 1.0 / 252.0   # daily betting
GRID_STEP = 1e-2            # coarse fraction grid for constrained searches
REFINE_TOL = 1e-4           # bracket width for boundary refinement
MAX_OPT_ITER = 10**5        # projected-ascent iteration budget
OPT_TOL = 1e-8              # projected-gradient and flat-objective tolerance of the optimizer
OBJ_FLAT_WINDOW = 5         # iterations of flat objective required for convergence
