"""Wealth paths and drawdown statistics.

The wealth recursion V(k+1) = (1 + K'X(k)) V(k) drives everything here:

* Monte Carlo estimation of expected maximum drawdown and of the probability
  that drawdown stays below a level, with common random numbers across
  betting fractions so sweeps and set-membership comparisons stay coherent;
* exact enumeration of all outcome sequences at desk scale (atom_count^N up
  to a fixed budget), used as the oracle for every estimator;
* the closed-form ruin-chance 1 - p^N for the even-money coin;
* growth maximization under three drawdown constraint styles, including the
  concave log-complementary surrogate;
* an empirical convexity probe for two-asset drawdown constraint sets.

Relative wealth level is tracked by the recursion r <- min(1, r * factor)
rather than by dividing V by its running peak: the first drop from a peak is
then the exact float factor, so threshold events classify exactly and the
even-coin enumeration matches 1 - p^N to summation accuracy.

One private kernel runs that recursion, with the running minimum
d <- min(d, r), for Monte Carlo and enumeration alike. It takes the
per-atom factors of a batch of fractions and the atom-index rows of a block
of paths, one row per step. The CRN matrix of sample_path_indices is
step-major, (n_steps, paths), so each row is contiguous. dbar_samples takes
one allocation, giving (paths,), or a (B, n_assets) batch, giving (B, paths),
and every row of a batch is bitwise the single-fraction result. Enumeration
generates its index rows per block of sequences and gets each sequence's
probability as the kernel's output for the row of model weights.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import ENUM_BUDGET, GRID_STEP, REFINE_TOL
from .gamble import GambleModel, as_allocation, is_feasible, sample_indices, wealth_factors
from .growth import growth_gradient, log_growth, maximize_growth, project_allocation


class EnumerationBudgetError(ValueError):
    """atom_count^N exceeds the exact-enumeration budget."""


class InfeasibleConstraintError(ValueError):
    """No feasible betting fraction satisfies the drawdown constraint."""


@dataclass(frozen=True, eq=False)
class WealthPath:
    """Realized wealth trajectory V(0..N) plus the outcome sequence behind it."""

    values: np.ndarray       # (N+1,)
    outcomes: np.ndarray     # (N, n)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        outcomes = np.atleast_2d(np.asarray(self.outcomes, dtype=float))
        if values.ndim != 1 or values.size != outcomes.shape[0] + 1:
            raise ValueError("values must have one more entry than outcomes")
        if values[0] <= 0.0:
            raise ValueError("initial wealth must be positive")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "outcomes", outcomes)


@dataclass(frozen=True)
class DrawdownStats:
    """Maximum percentage drawdown of a path, its complement, and log complement."""

    max_drawdown: float      # in [0, 1]
    complementary: float     # 1 - max_drawdown
    log_complementary: float  # log(complementary), -inf on ruin


@dataclass(frozen=True)
class ConstraintSpec:
    """Drawdown constraint: E[D] <= eps, P(D <= eps) >= 1 - delta, or the
    concave surrogate E[log(1 - D)] >= log(1 - eps)."""

    kind: str                      # "expected" | "probabilistic" | "surrogate"
    epsilon: float
    delta: Optional[float] = None  # probabilistic only

    def __post_init__(self):
        if self.kind not in ("expected", "probabilistic", "surrogate"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if not (0.0 < self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon!r}")
        if self.kind == "probabilistic":
            if self.delta is None or not (0.0 < self.delta < 1.0):
                raise ValueError(f"delta must be in (0, 1), got {self.delta!r}")

    # The statistic and the two membership rules below apply to the
    # "expected" and "probabilistic" kinds, which are judged from dbar samples.

    def statistic(self, dbar: np.ndarray) -> tuple:
        """(estimate, std_error) from per-path complementary drawdowns:
        E[D] for "expected", P(D <= epsilon) for "probabilistic"."""
        if self.kind == "expected":
            return mean_se(1.0 - dbar)
        return mean_se((dbar >= 1.0 - self.epsilon).astype(float))

    def contains(self, estimate: float) -> bool:
        """Plain rule: the estimate itself lies in the set.

        The convexity probe and the `drawdown` CLI sweep use it; they report
        the set as estimated.
        """
        if self.kind == "expected":
            return estimate <= self.epsilon
        return estimate >= 1.0 - self.delta

    def contains_conservatively(self, estimate: float, std_error: float) -> bool:
        """Conservative rule: a probabilistic constraint needs the whole
        3-sigma band of its estimate above the floor 1 - delta; an expected
        one is judged as in the plain rule.

        The constrained searches use it, so a chosen fraction is unlikely to
        break the constraint by sampling noise alone.
        """
        if self.kind == "expected":
            return estimate <= self.epsilon
        return estimate - 3.0 * std_error >= 1.0 - self.delta


@dataclass(frozen=True)
class MonteCarloConfig:
    paths: int = 10_000
    seed: int = 0


@dataclass(frozen=True)
class LogDrawdownEstimate:
    """E[log(1 - D)] value; exact=False flags a Monte Carlo fallback."""

    value: float
    exact: bool
    std_error: Optional[float] = None


# ---------------------------------------------------------------------------
# Paths and per-path statistics
# ---------------------------------------------------------------------------

def simulate_path(model: GambleModel, k, n_steps: int, v0: float,
                  rng: np.random.Generator) -> WealthPath:
    """Simulate V(0..N) under fraction k; wealth absorbed at 0 after total loss."""
    kv = as_allocation(k, model.n_assets)
    if not is_feasible(kv, model):
        raise ValueError(f"allocation {kv!r} is infeasible for this model")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if v0 <= 0.0:
        raise ValueError("v0 must be positive")
    outcomes = model.xs[sample_indices(model, n_steps, rng)]
    factors = np.maximum(1.0 + outcomes @ kv, 0.0)
    values = np.empty(n_steps + 1)
    values[0] = v0
    values[1:] = v0 * np.cumprod(factors)
    return WealthPath(values=values, outcomes=outcomes)


def max_drawdown(path) -> DrawdownStats:
    """Largest peak-to-trough relative decline, via a single running-peak pass.

    Accepts a WealthPath or a bare value sequence.
    """
    values = np.asarray(getattr(path, "values", path), dtype=float)
    if values[0] <= 0.0:
        raise ValueError("initial wealth must be positive")
    peak = np.maximum.accumulate(values)
    dbar = float(np.min(values / peak))
    return DrawdownStats(
        max_drawdown=1.0 - dbar,
        complementary=dbar,
        log_complementary=math.log(dbar) if dbar > 0.0 else -math.inf,
    )


def coin_drawdown_probability(p: float, n_steps: int) -> float:
    """For the even-money coin bet at any fraction in (0, 1): P(D >= K) = 1 - p^N."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return 1.0 - p ** n_steps


# ---------------------------------------------------------------------------
# The drawdown kernel, shared by Monte Carlo and enumeration
# ---------------------------------------------------------------------------

# A kernel block is (paths x fractions) of about this many elements: small
# enough that its three work arrays stay in cache, large enough that numpy's
# per-call cost is spread over many elements.
_BLOCK_ELEMENTS = 32_768
_MIN_BLOCK_PATHS = 256
# Paths per chunk when filling the step-major index matrix.
_SAMPLE_CHUNK = 256


def _min_recursion(factors: np.ndarray, n_paths: int, rows) -> np.ndarray:
    """Per path, the running minimum of r <- min(1, r * f), r starting at 1.

    factors is (B, m): per-atom factors, one row per fraction. rows(lo, hi)
    yields the atom-index rows of paths lo..hi-1, one row per step in order.
    Returns (B, n_paths). Indices must lie in [-m, m): mode="wrap" maps them
    as fancy indexing does but does not check them.

    A block holds its paths as rows and its fractions as columns, so the
    gather copies one contiguous run of B factors per path.
    """
    b = factors.shape[0]
    by_atom = np.ascontiguousarray(factors.T)
    out = np.empty((b, n_paths))
    width = max(_MIN_BLOCK_PATHS, _BLOCK_ELEMENTS // max(b, 1))
    for lo in range(0, n_paths, width):
        hi = min(lo + width, n_paths)
        r = np.ones((hi - lo, b))
        d = np.ones((hi - lo, b))
        f = np.empty((hi - lo, b))
        for row in rows(lo, hi):
            by_atom.take(row, axis=0, out=f, mode="wrap")
            r *= f
            np.minimum(r, 1.0, out=r)
            np.minimum(d, r, out=d)
        out[:, lo:hi] = d.T
    return out


def _checked_factors(model: GambleModel, ks) -> np.ndarray:
    """(B, m) wealth factors of a sequence of B allocations; each must be feasible."""
    factors = np.empty((len(ks), model.n_atoms))
    for i, k in enumerate(ks):
        kv = as_allocation(k, model.n_assets)
        if not is_feasible(kv, model):
            raise ValueError(f"allocation {kv!r} is infeasible for this model")
        factors[i] = wealth_factors(model, kv)
    return factors


# ---------------------------------------------------------------------------
# Monte Carlo engine (common random numbers = shared index matrix)
# ---------------------------------------------------------------------------

def sample_path_indices(model: GambleModel, paths: int, n_steps: int, seed: int) -> np.ndarray:
    """Step-major (n_steps, paths) atom-index matrix; reuse it across fractions for CRN.

    Column i holds the draws of row i of sample_indices(model, (paths, n_steps),
    default_rng(seed)): chunks of paths are drawn in order from one generator.
    """
    rng = np.random.default_rng(seed)
    out = np.empty((n_steps, paths), dtype=np.intp)
    for lo in range(0, paths, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, paths)
        out[:, lo:hi] = sample_indices(model, (hi - lo, n_steps), rng).T
    return out


def dbar_samples(model: GambleModel, k, indices: np.ndarray) -> np.ndarray:
    """Per-path complementary drawdown min V(k)/V(l) for the given outcome indices.

    indices is the step-major (n_steps, paths) matrix of sample_path_indices.
    k is one allocation, giving (paths,), or a (B, n_assets) batch, giving
    (B, paths) whose row b is bitwise the single call for k[b].
    """
    batch = np.ndim(k) == 2
    factors = _checked_factors(model, k if batch else [k])
    m = model.n_atoms
    if indices.size and (indices.min() < -m or indices.max() >= m):
        raise IndexError(f"atom index out of range for a model with {m} atoms")
    dbar = _min_recursion(factors, indices.shape[1], lambda lo, hi: indices[:, lo:hi])
    return dbar if batch else dbar[0]


def mean_se(samples: np.ndarray) -> tuple:
    """(mean, standard error of the mean) of a sample."""
    n = samples.size
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se


def expected_drawdown_mc(model: GambleModel, k, n_steps: int, paths: int,
                         seed: int) -> tuple:
    """(estimate, std_error) of E[D] from `paths` independently sampled paths."""
    if paths < 100:
        raise ValueError("need at least 100 paths")
    indices = sample_path_indices(model, paths, n_steps, seed)
    return mean_se(1.0 - dbar_samples(model, k, indices))


def drawdown_probability_mc(model: GambleModel, k, n_steps: int, epsilon: float,
                            paths: int, seed: int) -> tuple:
    """(estimate, std_error) of P(D <= epsilon)."""
    if paths < 100:
        raise ValueError("need at least 100 paths")
    if not (0.0 < epsilon <= 1.0):
        raise ValueError("epsilon must be in (0, 1]")
    indices = sample_path_indices(model, paths, n_steps, seed)
    hit = (dbar_samples(model, k, indices) >= 1.0 - epsilon).astype(float)
    return mean_se(hit)


# ---------------------------------------------------------------------------
# Exact enumeration engine
# ---------------------------------------------------------------------------

def enumerate_dbar(model: GambleModel, k, n_steps: int,
                   budget: int = ENUM_BUDGET) -> tuple:
    """(probability, complementary drawdown) over every outcome sequence.

    Sequence s takes atom (s // m^(N-1-j)) % m at step j. The kernel runs on
    those index rows, generated per block of sequences, with the model
    weights as a second factor row: every weight is <= 1, so that row's
    running minimum is the running product, i.e. the sequence probability.
    Raises EnumerationBudgetError when atom_count^n_steps exceeds the budget.
    """
    factors = _checked_factors(model, [k])
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    m = model.n_atoms
    total = m ** n_steps
    if total > budget:
        raise EnumerationBudgetError(
            f"{m}^{n_steps} = {total} sequences exceed the budget of {budget}"
        )

    def rows(lo, hi):
        seq = np.arange(lo, hi)
        stride = total
        for _ in range(n_steps):
            stride //= m
            yield (seq // stride) % m

    dbar, prob = _min_recursion(np.vstack([factors, model.probs]), total, rows)
    return prob, dbar


def expected_drawdown_exact(model: GambleModel, k, n_steps: int,
                            budget: int = ENUM_BUDGET) -> float:
    """Probability-weighted E[D] over all outcome sequences."""
    prob, dbar = enumerate_dbar(model, k, n_steps, budget)
    return float(prob @ (1.0 - dbar))


def expected_complementary_exact(model: GambleModel, k, n_steps: int,
                                 budget: int = ENUM_BUDGET) -> float:
    """Probability-weighted E[1 - D]."""
    prob, dbar = enumerate_dbar(model, k, n_steps, budget)
    return float(prob @ dbar)


def drawdown_exceedance_exact(model: GambleModel, k, n_steps: int, threshold: float,
                              budget: int = ENUM_BUDGET) -> float:
    """Exact P(D >= threshold), classified in complementary space for float
    consistency with the Monte Carlo estimators."""
    prob, dbar = enumerate_dbar(model, k, n_steps, budget)
    return float(prob[dbar <= 1.0 - threshold].sum())


def expected_log_complementary(model: GambleModel, k, n_steps: int,
                               budget: int = ENUM_BUDGET,
                               mc: MonteCarloConfig = MonteCarloConfig()) -> LogDrawdownEstimate:
    """E[log(1 - D)]: exact by enumeration when it fits the budget, otherwise a
    flagged Monte Carlo estimate. -inf whenever ruin has positive probability."""
    return _log_complementary(model, k, n_steps, budget,
                              lambda: sample_path_indices(model, mc.paths, n_steps, mc.seed))


def _log_complementary(model, k, n_steps, budget, crn) -> LogDrawdownEstimate:
    """expected_log_complementary; crn() gives the Monte Carlo fallback's index matrix."""
    kv = as_allocation(k, model.n_assets)
    if not is_feasible(kv, model):
        raise ValueError(f"allocation {kv!r} is infeasible for this model")
    if np.min(wealth_factors(model, kv)) <= 0.0:
        # Some atom wipes the account; that sequence has positive mass.
        return LogDrawdownEstimate(value=-math.inf, exact=True)
    try:
        prob, dbar = enumerate_dbar(model, kv, n_steps, budget)
        return LogDrawdownEstimate(value=float(prob @ np.log(dbar)), exact=True)
    except EnumerationBudgetError:
        est, se = mean_se(np.log(dbar_samples(model, kv, crn())))
        return LogDrawdownEstimate(value=est, exact=False, std_error=se)


# ---------------------------------------------------------------------------
# Constrained growth maximization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstrainedResult:
    """GrowthResult fields plus how the constraint was handled."""

    k_star: np.ndarray
    g_star: float
    iterations: int
    converged: bool
    method: str
    constraint_estimate: float
    constraint_std_error: Optional[float] = None


def _grid_1d(step: float = GRID_STEP) -> np.ndarray:
    count = int(round(1.0 / step)) + 1
    return np.linspace(0.0, 1.0, count)


def _batch_stats(model, spec, ks, indices) -> list:
    """[(estimate, std_error)] of spec's statistic for each allocation in ks,
    from one kernel call on the shared index matrix."""
    batch = np.reshape(np.asarray(ks, dtype=float), (-1, model.n_assets))
    return [spec.statistic(dbar) for dbar in dbar_samples(model, batch, indices)]


class _ConstraintEvaluator:
    """Conservative constraint checks of one search, all on one CRN matrix.

    Calling it checks one allocation; batch() checks a sequence of
    allocations in one kernel call. Both give (ok, estimate,
    std_error) and count into evals.
    """

    def __init__(self, model, n_steps, spec, mc):
        self.model = model
        self.spec = spec
        self.indices = sample_path_indices(model, mc.paths, n_steps, mc.seed)
        self.evals = 0

    def batch(self, ks) -> list:
        self.evals += len(ks)
        return [(self.spec.contains_conservatively(est, se), est, se)
                for est, se in _batch_stats(self.model, self.spec, ks, self.indices)]

    def __call__(self, kv) -> tuple:
        return self.batch([kv])[0]


def _constrained_mc_1d(model, n_steps, spec, mc, unconstrained):
    evaluate = _ConstraintEvaluator(model, n_steps, spec, mc)

    k_un = float(unconstrained.k_star[0])
    ok, est, se = evaluate(np.array([k_un]))
    if ok:
        return ConstrainedResult(unconstrained.k_star, unconstrained.g_star,
                                 evaluate.evals, True, "unconstrained-feasible", est, se)

    grid = _grid_1d()
    flags = [ok for ok, _, _ in evaluate.batch(grid)]
    feasible_idx = [i for i, ok in enumerate(flags) if ok]
    if not feasible_idx:
        raise InfeasibleConstraintError(
            f"no fraction on the grid satisfies {spec.kind} <= {spec.epsilon}"
        )
    growths = [log_growth(np.array([grid[i]]), model) for i in feasible_idx]
    i_best = feasible_idx[int(np.argmax(growths))]

    lo = grid[i_best]
    # Refine toward the infeasible neighbor on the ascending-growth side.
    if i_best + 1 < grid.size and not flags[i_best + 1] and lo < k_un:
        hi = grid[i_best + 1]
        while hi - lo > REFINE_TOL:
            mid = 0.5 * (lo + hi)
            ok, _, _ = evaluate(np.array([mid]))
            if ok:
                lo = mid
            else:
                hi = mid
    k_out = np.array([min(lo, k_un)])
    ok, est, se = evaluate(k_out)
    return ConstrainedResult(k_out, log_growth(k_out, model), evaluate.evals, True,
                             "grid-refine", est, se)


def _constrained_mc_2d(model, n_steps, spec, mc, unconstrained):
    evaluate = _ConstraintEvaluator(model, n_steps, spec, mc)

    ok, est, se = evaluate(unconstrained.k_star)
    if ok:
        return ConstrainedResult(unconstrained.k_star, unconstrained.g_star,
                                 evaluate.evals, True, "unconstrained-feasible", est, se)

    # One kernel call per k1 row of the grid; points are visited in the same
    # order as a point-by-point scan, and the strict > keeps the first best.
    axis = np.arange(0.0, 1.0 + 1e-12, 2 * GRID_STEP)
    best = None
    for k1 in axis:
        row = [kv for kv in (np.array([k1, k2]) for k2 in axis if k1 + k2 <= 1.0 + 1e-12)
               if is_feasible(kv, model)]
        for kv, (ok, est, se) in zip(row, evaluate.batch(row)):
            if not ok:
                continue
            g = log_growth(kv, model)
            if best is None or g > best[1]:
                best = (kv, g, est, se)
    if best is None:
        raise InfeasibleConstraintError(
            f"no grid point satisfies {spec.kind} <= {spec.epsilon}"
        )
    kv, g, est, se = best
    return ConstrainedResult(kv, g, evaluate.evals, True, "grid-scan", est, se)


def _constrained_surrogate(model, n_steps, spec, mc, budget, unconstrained):
    target = math.log(1.0 - spec.epsilon)
    # A Monte Carlo fallback samples its index matrix once, on first use, and
    # every later evaluation of this search reuses it.
    crn = functools.cache(lambda: sample_path_indices(model, mc.paths, n_steps, mc.seed))

    def h(kv):
        return _log_complementary(model, kv, n_steps, budget, crn).value

    evals = 1
    if h(unconstrained.k_star) >= target:
        return ConstrainedResult(unconstrained.k_star, unconstrained.g_star,
                                 evals, True, "unconstrained-feasible",
                                 h(unconstrained.k_star))

    if model.n_assets == 1:
        # h is concave with h(0) = 0 > target, so {h >= target} on [0, k_un]
        # is an interval starting at 0; bisect for its right end.
        lo, hi = 0.0, float(unconstrained.k_star[0])
        while hi - lo > REFINE_TOL * 1e-2:
            mid = 0.5 * (lo + hi)
            evals += 1
            if h(np.array([mid])) >= target:
                lo = mid
            else:
                hi = mid
        k_out = np.array([lo])
        return ConstrainedResult(k_out, log_growth(k_out, model), evals, True,
                                 "surrogate-bisect", h(k_out))

    # Ascent on g with a restoration step: shrink any step that leaves the
    # surrogate-feasible region (which is convex, so shrinking works).
    kv = np.zeros(model.n_assets)
    g = 0.0
    for _ in range(500):
        grad = growth_gradient(kv, model)
        t = 0.5
        moved = False
        while t > 1e-10:
            trial = project_allocation(kv + t * grad)
            evals += 1
            if (np.min(1.0 + model.xs @ trial) > 0.0 and h(trial) >= target
                    and log_growth(trial, model) > g + 1e-12):
                kv, g = trial, log_growth(trial, model)
                moved = True
                break
            t *= 0.5
        if not moved:
            break
    return ConstrainedResult(kv, g, evals, True, "surrogate-ascent", h(kv))


def maximize_growth_constrained(model: GambleModel, n_steps: int, spec: ConstraintSpec,
                                mc: MonteCarloConfig = MonteCarloConfig(),
                                budget: int = ENUM_BUDGET) -> ConstrainedResult:
    """Maximize log growth subject to a drawdown constraint.

    surrogate: concave program (objective and constraint both concave) solved
    exactly-at-desk-scale; expected/probabilistic: grid plus boundary
    refinement for one asset, grid scan for two (no convexity guarantee is
    claimed for those constraint sets, so no interior method is used).
    Raises InfeasibleConstraintError when nothing on the grid qualifies.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    unconstrained = maximize_growth(model)
    if spec.kind == "surrogate":
        return _constrained_surrogate(model, n_steps, spec, mc, budget, unconstrained)
    if model.n_assets == 1:
        return _constrained_mc_1d(model, n_steps, spec, mc, unconstrained)
    if model.n_assets == 2:
        return _constrained_mc_2d(model, n_steps, spec, mc, unconstrained)
    raise ValueError("Monte Carlo constrained search supports 1 or 2 assets")


# ---------------------------------------------------------------------------
# Convexity probe for two-asset constraint sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbePoint:
    k1: float
    k2: float
    estimate: float
    std_error: float
    in_set: bool


@dataclass(frozen=True)
class MidpointCheck:
    k_a: tuple
    k_b: tuple
    k_mid: tuple
    estimate: float
    std_error: float
    violation: bool
    significant: bool


@dataclass(frozen=True)
class ProbeReport:
    spec: ConstraintSpec
    n_steps: int
    paths: int
    seed: int
    grid: list = field(default_factory=list)        # ProbePoint
    checks: list = field(default_factory=list)      # MidpointCheck
    pairs_tested: int = 0

    @property
    def violations(self) -> list:
        return [c for c in self.checks if c.violation]

    @property
    def significant_violations(self) -> int:
        return sum(1 for c in self.checks if c.violation and c.significant)

    @property
    def inconclusive_violations(self) -> int:
        return sum(1 for c in self.checks if c.violation and not c.significant)


def _probe_boundary_gap(spec, est):
    """How far past the boundary a violating estimate sits."""
    if spec.kind == "expected":
        return est - spec.epsilon
    return (1.0 - spec.delta) - est


def convexity_probe(model: GambleModel, n_steps: int, spec: ConstraintSpec,
                    grid_resolution: int = 20, pair_samples: int = 50,
                    mc: MonteCarloConfig = MonteCarloConfig()) -> ProbeReport:
    """Estimate a two-asset drawdown constraint set on a grid, then test
    midpoints of random in-set pairs for membership.

    A midpoint falling outside the estimated set is a violation; violations
    within 3 standard errors of the boundary are tagged inconclusive. The
    output is data for inspection, not a verdict: a significant violation is
    a finding about the set, not an error.
    """
    if model.n_assets != 2:
        raise ValueError("convexity probe requires a 2-asset model")
    if spec.kind == "surrogate":
        raise ValueError("probe applies to expected/probabilistic sets")
    if grid_resolution < 20:
        raise ValueError("grid_resolution must be >= 20")
    indices = sample_path_indices(model, mc.paths, n_steps, mc.seed)

    # Membership uses the plain rule: the probe reports the set as estimated.
    axis = np.linspace(0.0, 1.0, grid_resolution)
    points = [kv for kv in (np.array([k1, k2]) for k1 in axis for k2 in axis
                            if k1 + k2 <= 1.0 + 1e-12)
              if is_feasible(kv, model)]
    grid = []
    in_points = []
    for kv, (est, se) in zip(points, _batch_stats(model, spec, points, indices)):
        inside = spec.contains(est)
        grid.append(ProbePoint(float(kv[0]), float(kv[1]), est, se, inside))
        if inside:
            in_points.append(kv)

    # The pairs depend only on the rng and the in-set points, so every
    # midpoint is drawn first and all are estimated in one kernel call.
    checks = []
    if len(in_points) >= 2:
        rng = np.random.default_rng(mc.seed + 1)
        pairs = [rng.choice(len(in_points), size=2, replace=False)
                 for _ in range(pair_samples)]
        mids = [0.5 * (in_points[ia] + in_points[ib]) for ia, ib in pairs]
        stats = _batch_stats(model, spec, mids, indices)
        for (ia, ib), mid, (est, se) in zip(pairs, mids, stats):
            a, b = in_points[ia], in_points[ib]
            violation = not spec.contains(est)
            significant = violation and _probe_boundary_gap(spec, est) > 3.0 * se
            checks.append(MidpointCheck(
                k_a=(float(a[0]), float(a[1])),
                k_b=(float(b[0]), float(b[1])),
                k_mid=(float(mid[0]), float(mid[1])),
                estimate=est, std_error=se,
                violation=violation, significant=significant,
            ))

    return ProbeReport(spec=spec, n_steps=n_steps, paths=mc.paths, seed=mc.seed,
                       grid=grid, checks=checks, pairs_tested=len(checks))


def write_level_set_csv(report: ProbeReport, path) -> None:
    """Grid CSV with columns k1, k2, estimate, std_error, in_set."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k1", "k2", "estimate", "std_error", "in_set"])
        for pt in report.grid:
            writer.writerow([repr(pt.k1), repr(pt.k2), repr(pt.estimate),
                             repr(pt.std_error), int(pt.in_set)])
