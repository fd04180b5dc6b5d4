"""Central numeric tolerances and default experiment settings.

Every magic constant used for validation or convergence lives here so the
rest of the package never hard-codes its own epsilons.
"""

PROB_SUM_TOL = 1e-12        # |sum(p) - 1| allowed at model construction
FEAS_TOL = 1e-9             # slack for allocation feasibility comparisons
SCREEN_MARGIN = 1e-9        # partial slack below -this stops a Monte Carlo row of a search
RUIN_EPS = 1e-12            # wealth factor below this is treated as the ruin boundary
ENUM_BUDGET = 10**6         # max outcome sequences for exact enumeration
DEFAULT_DT_YEARS = 1.0 / 252.0   # daily betting
GRID_STEP = 0.02            # simplex grid step of the two-asset constrained search
REFINE_TOL = 1e-4           # bracket width of the constrained searches' ray bisection
MAX_OPT_ITER = 10**5        # multi-asset optimizer's safety cap on iterations
OPT_TOL = 1e-12             # optimizer stop: Frank-Wolfe gap <= this * max(1, |g|)
