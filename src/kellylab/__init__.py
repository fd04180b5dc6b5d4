"""kellylab: log-optimal betting fractions, their approximations, and drawdown risk.

A small laboratory for repeated-gamble allocation: exact expected-log-growth
maximization over finite-support return models, the classical closed-form
approximations with their feasibility repairs and failure modes, Monte Carlo
and exact drawdown analysis with constrained optimization, adaptive
sliding-window betting, and ingestion of daily price data into empirical
return models. A CLI (`kellylab`) wires it all into reproducible experiments.
"""

from .adaptive import AdaptiveRun, WealthPath, run_adaptive
from .approx import (ApproxSolution, DegenerateModelError, approx_solution, gbm_solution,
                     inefficiency_threshold, project_simplex_ray, repair_allocation, saturate,
                     taylor_gain_raw, taylor_solution)
from .drawdown import (ConstrainedResult, ConstraintSpec, EnumerationBudgetError, Estimate,
                       MonteCarloConfig, ProbeReport, coin_drawdown_probability, convexity_probe,
                       dbar_samples, drawdown_exceedance_exact, enumerate_dbar,
                       expected_complementary_exact, expected_drawdown_exact, expected_drawdown_mc,
                       expected_log_complementary, maximize_growth_constrained, mean_se,
                       sample_path_indices, write_level_set_csv)
from .gamble import (GambleModel, ModelValidationError, MomentSet, dump_model,
                     independent_join, is_feasible, load_model, make_coin, model_from_dict,
                     moments, sample_indices)
from .growth import (GrowthResult, annualized_return, growth_gradient, log_growth,
                     maximize_growth, project_allocation)
from .ingest import LoadReport, PriceDataError, PriceTable, load_prices, to_returns

__version__ = "0.1.0"
