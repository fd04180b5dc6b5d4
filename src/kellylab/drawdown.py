"""Drawdown statistics of the wealth recursion V(k+1) = (1 + K'X(k)) V(k).

* Monte Carlo estimation of expected maximum drawdown and of the probability
  that drawdown stays below a level, with common random numbers across
  betting fractions so sweeps and set-membership comparisons stay coherent;
* exact enumeration of all outcome sequences at desk scale (atom_count^N up
  to a fixed budget), used as the oracle for every estimator;
* the closed-form ruin-chance 1 - p^N for the even-money coin;
* growth maximization under three drawdown constraint styles, including the
  concave log-complementary surrogate;
* an empirical convexity probe for two-asset drawdown constraint sets.

ConstraintSpec holds the one boundary rule: slack(estimate) is the signed
distance of an estimate inside its constraint, and contains(estimate) is
slack(estimate) >= 0. The constrained searches, the probe and the CLI all
judge membership and report slack through it. Every constrained search, of
every kind, estimates the constraint through one evaluator: it samples the
CRN matrix on first use, estimates each allocation once, and gives the
search's answer the estimate the search itself judged.

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
from dataclasses import dataclass
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


@dataclass(frozen=True)
class ConstraintSpec:
    """Drawdown constraint: E[D] <= eps, P(D <= eps) >= 1 - delta, or the
    concave surrogate E[log(1 - D)] >= log(1 - eps).

    slack(estimate) is how far an estimate of the constrained quantity sits
    inside the set (negative outside); contains(estimate) is slack >= 0.
    """

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

    def statistic(self, dbar: np.ndarray) -> tuple:
        """(estimate, std_error) from per-path complementary drawdowns:
        E[D] for "expected", P(D <= epsilon) for "probabilistic"."""
        if self.kind == "expected":
            return mean_se(1.0 - dbar)
        return mean_se((dbar >= 1.0 - self.epsilon).astype(float))

    def slack(self, estimate: float) -> float:
        """eps - E[D], P - (1 - delta), or h - log(1 - eps) for the surrogate."""
        if self.kind == "expected":
            return self.epsilon - estimate
        if self.kind == "probabilistic":
            return estimate - (1.0 - self.delta)
        return estimate - math.log(1.0 - self.epsilon)

    def contains(self, estimate: float) -> bool:
        """Plain rule: the estimate itself lies in the set.

        The convexity probe and the `drawdown` CLI sweep use it; both
        report the set as estimated.
        """
        return self.slack(estimate) >= 0.0

    def contains_conservatively(self, estimate: float, std_error: float) -> bool:
        """Conservative rule: a probabilistic constraint needs the whole
        3-sigma band of its estimate inside the set; an expected one is
        judged as in the plain rule.

        The constrained searches use it, so a chosen fraction is unlikely to
        break the constraint by sampling noise alone.
        """
        if self.kind == "probabilistic":
            estimate -= 3.0 * std_error
        return self.contains(estimate)


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
# The even-coin formula
# ---------------------------------------------------------------------------

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
    if paths < 1 or n_steps < 1:
        raise ValueError(f"need paths >= 1 and n_steps >= 1, got {paths} and {n_steps}")
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


# ---------------------------------------------------------------------------
# Exact enumeration engine
# ---------------------------------------------------------------------------

def _enumerable(model: GambleModel, n_steps: int) -> bool:
    """True iff all atom_count^n_steps outcome sequences fit ENUM_BUDGET."""
    return model.n_atoms ** n_steps <= ENUM_BUDGET


def enumerate_dbar(model: GambleModel, k, n_steps: int) -> tuple:
    """(probability, complementary drawdown) over every outcome sequence.

    Sequence s takes atom (s // m^(N-1-j)) % m at step j. The kernel runs on
    those index rows, generated per block of sequences, with the model
    weights as a second factor row: every weight is <= 1, so that row's
    running minimum is the running product, i.e. the sequence probability.
    Raises EnumerationBudgetError when atom_count^n_steps exceeds ENUM_BUDGET.
    """
    factors = _checked_factors(model, [k])
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    m = model.n_atoms
    total = m ** n_steps
    if not _enumerable(model, n_steps):
        raise EnumerationBudgetError(
            f"{m}^{n_steps} = {total} sequences exceed the budget of {ENUM_BUDGET}"
        )

    def rows(lo, hi):
        seq = np.arange(lo, hi)
        stride = total
        for _ in range(n_steps):
            stride //= m
            yield (seq // stride) % m

    dbar, prob = _min_recursion(np.vstack([factors, model.probs]), total, rows)
    return prob, dbar


def expected_drawdown_exact(model: GambleModel, k, n_steps: int) -> float:
    """Probability-weighted E[D] over all outcome sequences."""
    prob, dbar = enumerate_dbar(model, k, n_steps)
    return float(prob @ (1.0 - dbar))


def expected_complementary_exact(model: GambleModel, k, n_steps: int) -> float:
    """Probability-weighted E[1 - D]."""
    prob, dbar = enumerate_dbar(model, k, n_steps)
    return float(prob @ dbar)


def drawdown_exceedance_exact(model: GambleModel, k, n_steps: int, threshold: float) -> float:
    """Exact P(D >= threshold), classified in complementary space for float
    consistency with the Monte Carlo estimators."""
    prob, dbar = enumerate_dbar(model, k, n_steps)
    return float(prob[dbar <= 1.0 - threshold].sum())


def expected_log_complementary(model: GambleModel, k, n_steps: int,
                               mc: MonteCarloConfig = MonteCarloConfig()) -> LogDrawdownEstimate:
    """E[log(1 - D)]: exact by enumeration when it fits ENUM_BUDGET, otherwise a
    flagged Monte Carlo estimate. -inf whenever ruin has positive probability."""
    return _log_complementary(model, k, n_steps,
                              lambda: sample_path_indices(model, mc.paths, n_steps, mc.seed))


def _log_complementary(model, k, n_steps, crn) -> LogDrawdownEstimate:
    """expected_log_complementary; crn() gives the Monte Carlo fallback's index matrix."""
    if np.min(_checked_factors(model, [k])) <= 0.0:
        # Some atom wipes the account; that sequence has positive mass.
        return LogDrawdownEstimate(value=-math.inf, exact=True)
    if _enumerable(model, n_steps):
        prob, dbar = enumerate_dbar(model, k, n_steps)
        return LogDrawdownEstimate(value=float(prob @ np.log(dbar)), exact=True)
    est, se = mean_se(np.log(dbar_samples(model, k, crn())))
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


def _batch_stats(model, spec, ks, indices) -> list:
    """[(estimate, std_error)] of spec's statistic for each allocation in ks,
    from one kernel call on the shared index matrix."""
    batch = np.reshape(np.asarray(ks, dtype=float), (-1, model.n_assets))
    return [spec.statistic(dbar) for dbar in dbar_samples(model, batch, indices)]


class _ConstraintEvaluator:
    """Conservative constraint checks of one search, for every kind.

    Calling it checks one allocation; batch() checks a sequence of
    allocations, estimating the new ones in one kernel call. Both give
    (ok, estimate, std_error). The surrogate's estimate is E[log(1 - D)]
    with std_error None. The CRN index matrix is sampled on first use, so an
    enumerable surrogate search never samples it. Each allocation is
    estimated once and remembered; evals counts the estimates made.
    """

    def __init__(self, model, n_steps, spec, mc):
        self.model, self.n_steps, self.spec, self.mc = model, n_steps, spec, mc
        self.seen = {}

    @functools.cached_property
    def indices(self) -> np.ndarray:
        return sample_path_indices(self.model, self.mc.paths, self.n_steps, self.mc.seed)

    @property
    def evals(self) -> int:
        return len(self.seen)

    def batch(self, ks) -> list:
        """ks: float64 allocation vectors of length n_assets; their bytes key the memo."""
        keys = [kv.tobytes() for kv in ks]
        new = {key: kv for key, kv in zip(keys, ks) if key not in self.seen}
        if self.spec.kind == "surrogate":
            stats = [(_log_complementary(self.model, kv, self.n_steps,
                                         lambda: self.indices).value, None)
                     for kv in new.values()]
        else:
            stats = _batch_stats(self.model, self.spec, list(new.values()),
                                 self.indices) if new else []
        for key, (est, se) in zip(new, stats):
            self.seen[key] = (self.spec.contains_conservatively(est, se), est, se)
        return [self.seen[key] for key in keys]

    def __call__(self, kv) -> tuple:
        return self.batch([kv])[0]


def _grid_refine(model, evaluate, unconstrained):
    """One asset: best feasible point of the coarse grid, then bisection
    toward its infeasible neighbour on the ascending-growth side."""
    k_un = float(unconstrained.k_star[0])
    grid = np.linspace(0.0, 1.0, int(round(1.0 / GRID_STEP)) + 1)
    flags = [ok for ok, _, _ in evaluate.batch(grid[:, None])]
    feasible_idx = [i for i, ok in enumerate(flags) if ok]
    if not feasible_idx:
        raise InfeasibleConstraintError(
            f"no fraction on the grid satisfies {evaluate.spec.kind} <= {evaluate.spec.epsilon}"
        )
    i_best = max(feasible_idx, key=lambda i: log_growth(np.array([grid[i]]), model))

    lo = grid[i_best]
    if i_best + 1 < grid.size and not flags[i_best + 1] and lo < k_un:
        hi = grid[i_best + 1]
        while hi - lo > REFINE_TOL:
            mid = 0.5 * (lo + hi)
            if evaluate(np.array([mid]))[0]:
                lo = mid
            else:
                hi = mid
    k = np.array([min(lo, k_un)])
    return k, log_growth(k, model), "grid-refine"


def _grid_scan(model, evaluate, unconstrained):
    """Two assets: best feasible point of the simplex grid, one kernel call
    per k1 row. Points are visited in the order of a point-by-point scan, and
    the strict > keeps the first best. Every atom is >= -1, so every point of
    the simplex grid is a feasible allocation."""
    axis = np.arange(0.0, 1.0 + 1e-12, 2 * GRID_STEP)
    best = None
    for k1 in axis:
        row = [np.array([k1, k2]) for k2 in axis if k1 + k2 <= 1.0 + 1e-12]
        for kv, (ok, _, _) in zip(row, evaluate.batch(row)):
            if not ok:
                continue
            g = log_growth(kv, model)
            if best is None or g > best[1]:
                best = (kv, g)
    if best is None:
        raise InfeasibleConstraintError(
            f"no grid point satisfies {evaluate.spec.kind} <= {evaluate.spec.epsilon}"
        )
    return (*best, "grid-scan")


def _surrogate_bisect(model, evaluate, unconstrained):
    """One asset: h is concave with h(0) = 0 > log(1 - eps), so the set it
    admits on [0, k_un] is an interval starting at 0; bisect for its right end."""
    lo, hi = 0.0, float(unconstrained.k_star[0])
    while hi - lo > REFINE_TOL * 1e-2:
        mid = 0.5 * (lo + hi)
        if evaluate(np.array([mid]))[0]:
            lo = mid
        else:
            hi = mid
    k = np.array([lo])
    return k, log_growth(k, model), "surrogate-bisect"


def _surrogate_ascent(model, evaluate, unconstrained):
    """Ascent on g with a restoration step: shrink any step that leaves the
    surrogate-feasible region (which is convex, so shrinking works). h is
    -inf at any ruinous trial, so the constraint check also rejects those."""
    kv = np.zeros(model.n_assets)
    g = 0.0
    for _ in range(500):
        grad = growth_gradient(kv, model)
        t = 0.5
        while t > 1e-10:
            trial = project_allocation(kv + t * grad)
            if evaluate(trial)[0]:
                g_trial = log_growth(trial, model)
                if g_trial > g + 1e-12:
                    kv, g = trial, g_trial
                    break
            t *= 0.5
        else:
            break   # no step size improved g
    return kv, g, "surrogate-ascent"


def maximize_growth_constrained(model: GambleModel, n_steps: int, spec: ConstraintSpec,
                                mc: MonteCarloConfig = MonteCarloConfig()) -> ConstrainedResult:
    """Maximize log growth subject to a drawdown constraint.

    surrogate: concave program (objective and constraint both concave) solved
    exactly-at-desk-scale; expected/probabilistic: grid plus boundary
    refinement for one asset, grid scan for two (no convexity guarantee is
    claimed for those constraint sets, so no interior method is used).
    Every search checks the constraint through one _ConstraintEvaluator and
    starts by testing the unconstrained optimum.
    Raises InfeasibleConstraintError when nothing on the grid qualifies.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if spec.kind == "surrogate":
        search = _surrogate_bisect if model.n_assets == 1 else _surrogate_ascent
    elif model.n_assets in (1, 2):
        search = _grid_refine if model.n_assets == 1 else _grid_scan
    else:
        raise ValueError("Monte Carlo constrained search supports 1 or 2 assets")
    unconstrained = maximize_growth(model)
    evaluate = _ConstraintEvaluator(model, n_steps, spec, mc)
    if evaluate(unconstrained.k_star)[0]:
        k, g, method = unconstrained.k_star, unconstrained.g_star, "unconstrained-feasible"
    else:
        k, g, method = search(model, evaluate, unconstrained)
    _, est, se = evaluate(k)
    return ConstrainedResult(k, g, evaluate.evals, True, method, est, se)


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
    k_mid: tuple
    estimate: float
    std_error: float
    violation: bool
    significant: bool


@dataclass(frozen=True)
class ProbeReport:
    grid: list      # ProbePoint
    checks: list    # MidpointCheck

    @property
    def pairs_tested(self) -> int:
        return len(self.checks)

    @property
    def violations(self) -> list:
        return [c for c in self.checks if c.violation]

    @property
    def significant_violations(self) -> int:
        return sum(1 for c in self.checks if c.violation and c.significant)

    @property
    def inconclusive_violations(self) -> int:
        return sum(1 for c in self.checks if c.violation and not c.significant)


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
    # Every atom is >= -1, so every point of the simplex grid is feasible.
    axis = np.linspace(0.0, 1.0, grid_resolution)
    points = [np.array([k1, k2]) for k1 in axis for k2 in axis if k1 + k2 <= 1.0 + 1e-12]
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
        for mid, (est, se) in zip(mids, _batch_stats(model, spec, mids, indices)):
            violation = not spec.contains(est)
            significant = violation and -spec.slack(est) > 3.0 * se
            checks.append(MidpointCheck(
                k_mid=(float(mid[0]), float(mid[1])),
                estimate=est, std_error=se,
                violation=violation, significant=significant,
            ))

    return ProbeReport(grid=grid, checks=checks)


def write_level_set_csv(report: ProbeReport, path) -> None:
    """Grid CSV with columns k1, k2, estimate, std_error, in_set."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k1", "k2", "estimate", "std_error", "in_set"])
        for pt in report.grid:
            writer.writerow([repr(pt.k1), repr(pt.k2), repr(pt.estimate),
                             repr(pt.std_error), int(pt.in_set)])
