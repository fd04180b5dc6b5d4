"""Drawdown statistics of the wealth recursion V(k+1) = (1 + K'X(k)) V(k):
Monte Carlo estimates with common random numbers (CRN) across fractions,
exact enumeration (the oracle of every estimator), the even coin's ruin
chance 1 - p^N, growth maximization under three drawdown constraints, and a
two-asset convexity probe. Each argument is stated once, below.

Batches. One allocation is a batch of one: log_growth, dbar_samples,
enumerate_dbar, the exact statistics and expected_log_complementary take one
allocation or a (B, n_assets) batch on one path, and mean_se one sample or a
(B, paths) block. gamble._checked_factors takes each row's factors from a
matvec of its own, one per row of a stacked matmul, and every reduction runs
along the row, so row b of a batch is bitwise the call for k[b] alone.

The recursion. Relative wealth is r <- min(1, r * factor), not V over its
running peak, so the first drop from a peak is the exact float factor:
threshold events classify exactly, and the even-coin enumeration matches
1 - p^N to summation accuracy. _recursion_step applies one step, with the
running minimum d <- min(d, r), for both engines.

The Monte Carlo kernel. dbar_samples runs the step-major (n_steps, paths)
CRN matrix, one contiguous row per step, in blocks of paths. It clamps r
against a block of ones, which numpy does faster than against the scalar
1.0, with the same bits. A row whose every factor is >= 1, such as K = 0,
keeps r = 1 and is 1.0 without running a step. Unscreened, the steps run in
one chunk, so r and d hold one block of paths at a time. Screened, r and d
hold every path of the live rows, and the steps run in chunks between
screens, each over every block. Each array is made where its size is known.
The (B, paths) result is made once, when the last chunk starts, after the
last screen (or after the steps if the screens dropped every row): NaN rows,
1.0 for the rows that never draw down, and each block writes its d there, so
a dropped row stays NaN and no screen writes to it. The (n_atoms, live rows)
factor table, the factor and ones blocks and r and d are made at one site,
the top of the first chunk, and again there after a screen drops rows; a
screened call's r and d are not remade but cut to the kept rows.

Enumeration. enumerate_dbar forks every state once per atom at each step,
with one _recursion_step call for the whole batch: the (B, 1, K) states
times the (B, m, 1) factors fill a (B, m, K) block, which becomes the next
step's (B, 1, m K) states. Atom j's children are the contiguous slice
[:, j], so the newest atom leads the sequence index. It clamps against the
scalar 1.0, since the block's shape changes at every step.

Chunks and reductions. Both engines run a batch in chunks of rows, each
reduced before the next runs, so no batch is held at once and no row's
result depends on its chunk: Monte Carlo through dbar_chunks, of at most
_MC_CHUNK floats per (rows, paths) array, enumeration of about _ENUM_CHUNK
sequences. dbar_chunks releases a CRN matrix handed over to it before the
last reduce. Each engine reduces a chunk's samples(dbar) by one rule:
_enumerated_rows takes their _expectation (every exact statistic),
_batch_stats and the CLI sweep their mean_se along axis 1.

The evaluator. Each constrained search estimates the constraint through one
_ConstraintEvaluator, which samples the CRN matrix on first use, estimates
each allocation once and remembers its verdict, (admitted, Estimate), with
None for the Estimate of a row a screen dropped. A search answers K = 0 or a
point the evaluator admitted, so the answer's Estimate is the one judged.

The screen. A step can only lower d, so the partial mean of 1 - d can only
rise and that of 1{d >= 1 - eps} only fall: a partial estimate's slack only
falls as steps are added, and the conservative est - 3 se is at most est. So
an expected or probabilistic search screens its rows after steps 8 * 2^j
below N, and drops those whose partial slack is below -SCREEN_MARGIN, which
covers the rounding of two differently ordered sums. A row that a screen
after every 8 steps would drop after s steps is dropped at the first screen
at or after s, so it runs fewer than 2s steps, in about log2(N / 8) screens
rather than N / 8 (at 1000 paths a screen of a few rows costs a step or
two). A dropped row would fail the search's rule at step N, so it is
remembered as infeasible, with no estimate; no answer's row is dropped, as
every answer is admitted. A row that never draws down has slack eps or
delta, which no screen drops. The sweep, the probe and expected_drawdown_mc
report every estimate and are not screened, nor is the surrogate, whose
statistic needs a log of every partial d.

The ray rule. Every constraint set is star-shaped about K = 0. Along a ray
K = t * u, each segment's sum of log(1 + t * u'x) is concave in t and 0 at
t = 0; a path's log(1 - D), the minimum of these sums and 0, is then
concave, 0 at t = 0 and <= 0, so it never rises as t grows, nor do E[1 - D],
P(D <= eps) and E[log(1 - D)]: the admitted t form one interval [0, rho]. g
is concave along the ray, so "g still rises at t, and t * u is admitted"
holds on [0, min(rho, peak)) and nowhere past it, peak the maximizer of g on
the ray: bisecting a bracket on that test ends at the ray's best admitted
point, estimating the constraint only where g rises. _ray_best bisects a
batch of rays together, one evaluate.batch per level. By concavity no point
of a bracket [lo, hi] has a g above the tangent bound g(lo) + g'(lo)
(hi - lo), so a ray stops once that bound falls below the batch's best
g(lo); the ray that ends best never does.

The prefetch. While an expected or probabilistic ray is the one live ray of
its batch, it checks in one evaluate.batch every 3 levels the 7 midpoints
those levels can visit, each computed as its level computes it; the levels
find their verdicts in the memo, so the answer is bitwise that of plain
bisection, in a third of the kernel calls. Several live rays share a kernel
call per level already, and most midpoints they would add are never visited;
a surrogate ray's rows run every step, so the points it skips would cost as
much as those it checks. Neither prefetches.

The split. A surrogate ray splits its bracket where the line through its
ends' slacks crosses 0 (regula falsi with the Illinois step: an end kept
twice in a row halves its slack), at least _SPLIT_MARGIN of the bracket from
either end, and at the midpoint while an end has no finite slack or lies
past the peak of g. The split moves lo or hi as a midpoint would, so width
and guarantee are those of bisection, in about half the levels, since the
surrogate statistic is smooth in t.

The searches. _ray_search runs once the unconstrained optimum k_un is
outside the set. One asset: the ray u = 1, bisected on [0, k_un]
(<kind>-bisect). Two assets, expected or probabilistic: grid-ray, the ray
through the grid walk's answer, from it to the ray's growth peak. The grid
walk checks the points of the simplex grid of step GRID_STEP by falling g,
sorted stably, _GRID_CHUNK at a time, up to the first chunk that holds an
admitted point: no admitted point has a larger g, nor one of equal g earlier
in scan order, so it is the answer a check of every point gives. The grid
holds K = 0, which every expected and probabilistic constraint admits. Every
other case: the fan (<kind>-fan), five rounds from the simplex centre, each
with a fan of 9 rays per pair of assets that moves the pair's share of the
best direction so far, over the whole pair line in round 1 and later over
+-1 spacing of the best direction at a quarter of the spacing. A width of
REFINE_TOL is a large share of a small t, so the best ray is then searched
alone to width REFINE_TOL * t, t its total bet: g is concave along the ray
and 0 at t = 0, so g'(t) t <= g(t) and the last bracket costs at most
REFINE_TOL of g. A ray's split points depend on its own estimates only, and
are dyadic elsewhere, so a ray that a later fan or the last search repeats
hits the memo.

What the fan claims. The surrogate set is convex, as each path's log(1 - D)
is a minimum of functions concave in K, under CRN or exactly. A point
between admitted points on rays of directions u1 and u2 is then admitted,
with a g at least the smaller of theirs, on a ray of direction between u1
and u2: the best g of a ray is quasi-concave in its direction, so the best
direction of a pair line is within one spacing of a fan's best ray, and the
surrogate on two assets (one pair) ends within 1/2048 in direction of the
constrained optimum. On three or more assets a fan moves one pair's share at
a time, and the expected and probabilistic sets need not be convex: there
the fan claims only an admitted answer with a g at least that of the best
admitted point of the centre ray, the first fan's.

README "Numerical notes" state what these arguments guarantee and cost.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .gamble import GambleModel, _checked_factors, _write_csv, sample_indices
from .growth import _maximize_1d, log_growth, maximize_growth

SCREEN_MARGIN = 1e-9        # partial slack below -this stops a Monte Carlo row of a search
ENUM_BUDGET = 10**6         # max outcome sequences for exact enumeration
GRID_STEP = 0.02            # simplex grid step of the two-asset constrained search
REFINE_TOL = 1e-4           # bracket width of the constrained searches' ray bisection


class EnumerationBudgetError(ValueError):
    """atom_count^N exceeds the exact-enumeration budget."""


def _log_dbar(dbar: np.ndarray) -> np.ndarray:
    """log(1 - D) = log(dbar) per path, -inf without a warning on a path
    whose wealth reached 0 or underflowed to it."""
    with np.errstate(divide="ignore"):
        return np.log(dbar)


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
        elif self.delta is not None:
            raise ValueError(f"delta applies only to a probabilistic constraint, not {self.kind!r}")

    def samples(self, dbar: np.ndarray) -> np.ndarray:
        """Per-path samples of the statistic, any shape: D = 1 - dbar for
        "expected", the indicator of D <= epsilon for "probabilistic", and
        log(1 - D) = log(dbar) for "surrogate", -inf on a ruined path."""
        if self.kind == "expected":
            return 1.0 - dbar
        if self.kind == "probabilistic":
            return (dbar >= 1.0 - self.epsilon).astype(float)
        return _log_dbar(dbar)

    def slack(self, estimate: float) -> float:
        """eps - E[D], P - (1 - delta), or h - log(1 - eps) for the surrogate."""
        if self.kind == "expected":
            return self.epsilon - estimate
        if self.kind == "probabilistic":
            return estimate - (1.0 - self.delta)
        return estimate - math.log(1.0 - self.epsilon)

    def contains(self, estimate: float) -> bool:
        """Plain rule, slack(estimate) >= 0: the probe and the `drawdown`
        sweep use it, as both report the set as estimated."""
        return self.slack(estimate) >= 0.0

    def contains_conservatively(self, estimate: float, std_error: float) -> bool:
        """Conservative rule of the constrained searches: a probabilistic
        constraint needs the whole 3-sigma band of its estimate inside the
        set, so a chosen fraction is unlikely to break the constraint by
        sampling noise alone; other kinds take the plain rule."""
        if self.kind == "probabilistic":
            estimate -= 3.0 * std_error
        return self.contains(estimate)


class Estimate(NamedTuple):
    """A drawdown statistic: its value, and the standard error of a Monte
    Carlo mean, or None for an exact one (enumeration)."""

    value: float
    std_error: Optional[float] = None

    @property
    def exact(self) -> bool:
        return self.std_error is None


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
# The recursion step, shared by Monte Carlo and enumeration
# ---------------------------------------------------------------------------

def _recursion_step(r: np.ndarray, d: np.ndarray, f: np.ndarray, one, out=None) -> None:
    """One step of the recursion: r' <- min(1, r * f), d' <- min(d, r'), with
    f broadcast against r and d, one the scalar 1.0 or ones shaped like r',
    written into the pair out, or in place on (r, d) by default."""
    r_out, d_out = (r, d) if out is None else out
    np.multiply(r, f, out=r_out)
    np.minimum(r_out, one, out=r_out)
    np.minimum(d, r_out, out=d_out)


# ---------------------------------------------------------------------------
# Monte Carlo engine (common random numbers = shared index matrix)
# ---------------------------------------------------------------------------

# A dbar_samples block is (paths x fractions) of about this many elements:
# small enough that its three work arrays stay in cache, large enough that
# numpy's per-call cost is spread over many elements.
_BLOCK_ELEMENTS = 32_768
_MIN_BLOCK_PATHS = 256
# Step of a screened dbar_samples call's first screen (each later one is at
# twice the step); also the index rows it converts to intp at once.
_SCREEN_STEPS = 8
# Paths per chunk when filling the step-major index matrix.
_SAMPLE_CHUNK = 256
# Floats of one (rows, paths) array of a dbar_chunks chunk, which has
# max(1, _MC_CHUNK // paths) rows: a 21-fraction sweep on 10000 paths and a
# search batch of 64 rows on 1000 paths are one chunk.
_MC_CHUNK = 2**18


def sample_path_indices(model: GambleModel, paths: int, n_steps: int, seed: int) -> np.ndarray:
    """Step-major (n_steps, paths) atom-index matrix; reuse it across fractions for CRN.

    Column i holds the draws of row i of sample_indices(model, (paths, n_steps),
    default_rng(seed)), in the smallest signed dtype that holds -n_atoms
    (int8 up to 128 atoms, an eighth of the memory of intp indices).
    """
    if paths < 1 or n_steps < 1:
        raise ValueError(f"need paths >= 1 and n_steps >= 1, got {paths} and {n_steps}")
    rng = np.random.default_rng(seed)
    out = np.empty((n_steps, paths), dtype=np.min_scalar_type(-model.n_atoms))
    for lo in range(0, paths, _SAMPLE_CHUNK):
        hi = min(lo + _SAMPLE_CHUNK, paths)
        out[:, lo:hi] = sample_indices(model, (hi - lo, n_steps), rng).T
    return out


def dbar_samples(model: GambleModel, k, indices: np.ndarray, screen=None) -> np.ndarray:
    """Per-path complementary drawdown min V(k)/V(l) for the given outcome indices.

    indices is the step-major (n_steps, paths) matrix of sample_path_indices.
    k is one allocation, giving (paths,), or a (B, n_assets) batch, giving
    (B, paths). screen, if given, is called after steps 8, 16, 32, ... below
    N with the (paths, live rows) running minima so far, and returns a bool
    mask of the live rows to go on with; it may drop a row only when more
    steps cannot change its verdict (see _screen). A dropped row is NaN, a
    row that never draws down is 1.0 without running a step or being
    screened, and every other row is bitwise the unscreened one. The result
    is made once, after the last screen. See "The Monte Carlo kernel" in the
    module docstring for the layouts and where each array is made.
    """
    factors = _checked_factors(model, k)
    m = model.n_atoms
    if indices.size and (indices.min() < -m or indices.max() >= m):
        raise IndexError(f"atom index out of range for a model with {m} atoms")
    n_steps, n_paths = indices.shape
    # A row whose every factor is >= 1 keeps r = 1, so its d is 1.
    flat = np.logical_and.reduce(factors >= 1.0, axis=1)
    live = np.flatnonzero(~flat)
    # Each row of the result, until a kept row's d is written there.
    unset = np.where(flat, 1.0, np.nan)[:, None]
    start, stop = 0, (_SCREEN_STEPS if screen is not None else n_steps)
    while live.size:
        stop = min(stop, n_steps)
        if stop == n_steps:
            # Made before the working state: made after it, a fresh 820-point
            # probe-convexity run took 26.1k minor faults, not 21.2k.
            dbar = unset.repeat(n_paths, axis=1)
        if not start or f.shape[1] != live.size:
            # The working state of the live rows, on the first chunk and after
            # a screen that dropped rows. A block holds its paths as rows and
            # its fractions as columns, so the gather copies one contiguous
            # run of factors per path. mode="wrap" maps indices in [-m, m) as
            # fancy indexing does, without checking them.
            by_atom = np.ascontiguousarray(factors[live].T)
            width = max(_MIN_BLOCK_PATHS, _BLOCK_ELEMENTS // live.size)
            f = np.empty((min(width, n_paths), live.size))
            ones = np.ones_like(f)
            if screen is None:
                r, d = np.empty((2, *f.shape))
            elif not start:
                r, d = np.ones((2, n_paths, live.size))
        for lo in range(0, n_paths, width):
            hi = min(lo + width, n_paths)
            if screen is None:
                rb, db = r[:hi - lo], d[:hi - lo]
                rb.fill(1.0)
                db.fill(1.0)
            else:
                rb, db = r[lo:hi], d[lo:hi]
            fb, ob = f[:hi - lo], ones[:hi - lo]
            for t in range(start, stop, _SCREEN_STEPS):
                # take() converts int8 indices on every call; convert a slab once.
                for row in indices[t:t + _SCREEN_STEPS, lo:hi].astype(np.intp):
                    by_atom.take(row, axis=0, out=fb, mode="wrap")
                    _recursion_step(rb, db, fb, ob)
            if stop == n_steps:
                dbar[live, lo:hi] = db.T
        if stop == n_steps:
            break
        keep = screen(d)
        if not keep.all():
            live = live[keep]
            r, d = r.compress(keep, axis=1), d.compress(keep, axis=1)
        start, stop = stop, 2 * stop
    else:
        dbar = unset.repeat(n_paths, axis=1)
    return dbar if np.ndim(k) == 2 else dbar[0]


def dbar_chunks(model: GambleModel, k, indices: np.ndarray, screen=None):
    """The (rows, paths) dbar_samples of each chunk of max(1, _MC_CHUNK //
    paths) rows of one allocation or a (B, n_assets) batch k, one kernel
    call per chunk, run as the consumer asks for it. It keeps no chunk once
    yielded, and lets go of indices before it yields the last chunk, so a
    consumer that drops each chunk holds one at a time, and a matrix that
    only this call references is freed before the last chunk is reduced."""
    ks = np.atleast_2d(k)
    rows = max(1, _MC_CHUNK // indices.shape[1])
    for lo in range(0, len(ks), rows):
        # Popped as it is yielded, so the suspended frame holds no chunk.
        box = [dbar_samples(model, ks[lo:lo + rows], indices, screen=screen)]
        if lo + rows >= len(ks):
            del indices
        yield box.pop()


def mean_se(samples: np.ndarray):
    """Estimate(mean, standard error of the mean) of a 1-D sample, or a list
    of them for a (B, paths) block, one per row, reduced once along axis 1.
    A row holding -inf has mean -inf and standard error NaN."""
    block = np.atleast_2d(samples)
    n = block.shape[1]
    est = block.mean(axis=1)
    with np.errstate(invalid="ignore"):
        se = block.std(axis=1, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(est)
    rows = list(map(Estimate, est.tolist(), se.tolist()))
    return rows if np.ndim(samples) == 2 else rows[0]


def expected_drawdown_mc(model: GambleModel, k, n_steps: int, paths: int = 10_000, seed: int = 0):
    """Estimate of E[D], with its standard error, from `paths` independently
    sampled paths; a list of them for a (B, n_assets) batch."""
    if paths < 100:
        raise ValueError("need at least 100 paths")
    indices = sample_path_indices(model, paths, n_steps, seed)
    return _batch_stats(model, lambda dbar: 1.0 - dbar, k, indices)


# ---------------------------------------------------------------------------
# Exact enumeration engine
# ---------------------------------------------------------------------------

# Sequences of one chunk of enumerated rows: a batch is enumerated in chunks
# of rows that hold about this many sequences together (at least one row),
# so a 21-fraction sweep never holds every row at once.
_ENUM_CHUNK = 2**16


def _enumerable(model: GambleModel, n_steps: int) -> bool:
    """True iff all atom_count^n_steps outcome sequences fit ENUM_BUDGET.
    Two or more atoms pass it by step ENUM_BUDGET.bit_length(), so the power
    is never built past that step."""
    return model.n_atoms ** min(n_steps, ENUM_BUDGET.bit_length()) <= ENUM_BUDGET


def require_enumerable(model: GambleModel, n_steps: int) -> None:
    """Raise ValueError when n_steps < 1, and EnumerationBudgetError when
    atom_count^n_steps exceeds ENUM_BUDGET, stating the count as that power,
    which is never built."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if not _enumerable(model, n_steps):
        raise EnumerationBudgetError(
            f"{model.n_atoms}^{n_steps} sequences exceed the budget of {ENUM_BUDGET}")


# (n_steps, probability row) of each live model, for the last N it was
# enumerated at. An entry goes when its model does, so a row is not kept
# past the run that built it.
_SEQUENCE_PROBS = weakref.WeakKeyDictionary()


def _sequence_probs(model: GambleModel, n_steps: int) -> np.ndarray:
    """Read-only probability of every outcome sequence, in enumerate_dbar's
    order: each step puts the model weights in front, p[a_t] times the row
    of the steps before it, so the newest atom leads the index."""
    cached = _SEQUENCE_PROBS.get(model)
    if cached is None or cached[0] != n_steps:
        prob = np.ones(1)
        for _ in range(n_steps):
            prob = np.multiply.outer(model.probs, prob).ravel()
        prob.flags.writeable = False
        cached = _SEQUENCE_PROBS[model] = (n_steps, prob)
    return cached[1]


def enumerate_dbar(model: GambleModel, k, n_steps: int) -> tuple:
    """(probability, complementary drawdown) over every outcome sequence.

    k is one allocation, giving a (S,) drawdown row for S = atom_count^N
    sequences, or a (B, n_assets) batch, giving (B, S). The sequence whose
    step t draws atom a_t is at index s = sum_t a_t m^t: the first step is
    the least significant digit. The probability row is read-only and kept
    while the model lives, for the last N it was enumerated at. Raises
    EnumerationBudgetError when S exceeds ENUM_BUDGET. See "Enumeration" in
    the module docstring.
    """
    factors = _checked_factors(model, k)
    require_enumerable(model, n_steps)
    b, m = factors.shape
    r = d = np.ones((b, 1, 1))
    for _ in range(n_steps):
        r_next, d_next = np.empty((2, b, m, r.shape[2]))
        _recursion_step(r, d, factors[:, :, None], 1.0, out=(r_next, d_next))
        r, d = r_next.reshape(b, 1, -1), d_next.reshape(b, 1, -1)
    return _sequence_probs(model, n_steps), d.reshape(b, -1) if np.ndim(k) == 2 else d.ravel()


def _enumerated_rows(model: GambleModel, samples, k, n_steps: int):
    """Exact expectation of the per-sequence samples(dbar) of one
    allocation, or a list of them, one per row, for a (B, n_assets) batch,
    enumerated in chunks of about _ENUM_CHUNK sequences. samples may return
    dbar itself: each chunk's dbar is its own, freed before the next runs."""
    require_enumerable(model, n_steps)
    ks, out = np.atleast_2d(k), []
    rows = max(1, _ENUM_CHUNK // model.n_atoms ** n_steps)
    for lo in range(0, len(ks), rows):
        prob, dbar = enumerate_dbar(model, ks[lo:lo + rows], n_steps)
        out += [_expectation(prob, row) for row in samples(dbar)]
        del dbar
    return out if np.ndim(k) == 2 else out[0]


def _expectation(prob: np.ndarray, x: np.ndarray) -> float:
    """sum(prob * x) by numpy's pairwise sum, which uses no BLAS and no
    threads: its digits do not depend on the thread count, and its rounding
    error grows with log(S), not S, over S sequences. x is the caller's
    temporary and is overwritten with the products: a second array of S
    floats per row would be mapped and faulted in anew for each row, which
    doubles the CPU of the N = 16 exact column (480 page faults a row)."""
    return float(np.add.reduce(np.multiply(prob, x, out=x)))


def expected_drawdown_exact(model: GambleModel, k, n_steps: int):
    """Probability-weighted E[D] over all outcome sequences: a float for one
    allocation, or a list of floats for a (B, n_assets) batch."""
    return _enumerated_rows(model, lambda dbar: 1.0 - dbar, k, n_steps)


def expected_complementary_exact(model: GambleModel, k, n_steps: int):
    """Probability-weighted E[1 - D]: a float, or a list for a batch."""
    return _enumerated_rows(model, lambda dbar: dbar, k, n_steps)


def drawdown_exceedance_exact(model: GambleModel, k, n_steps: int, threshold: float):
    """Exact P(D >= threshold), classified in complementary space for float
    consistency with the Monte Carlo estimators: a float, or a list for a
    batch."""
    return _enumerated_rows(model, lambda dbar: (dbar <= 1.0 - threshold).astype(float), k,
                            n_steps)


def expected_log_complementary(model: GambleModel, k, n_steps: int, paths: int = 10_000,
                               seed: int = 0):
    """Estimate of E[log(1 - D)]: exact by enumeration when it fits
    ENUM_BUDGET, otherwise a Monte Carlo mean with its standard error; exact
    -inf whenever ruin has positive probability. A (B, n_assets) batch gives
    a list of them, one per row."""
    return _log_complementary_batch(
        model, k, n_steps, lambda: sample_path_indices(model, paths, n_steps, seed))


def _log_complementary_batch(model, k, n_steps, crn):
    """expected_log_complementary with crn() giving the Monte Carlo
    fallback's index matrix, called only when some row needs it. A row with
    a zero wealth factor is -inf without being estimated."""
    ks = np.atleast_2d(k)
    ruinous = _checked_factors(model, ks).min(axis=1) <= 0.0
    # Some atom wipes the account; that sequence has positive mass.
    out = [Estimate(-math.inf)] * len(ruinous)
    live = np.flatnonzero(~ruinous)
    if _enumerable(model, n_steps):
        rows = map(Estimate, _enumerated_rows(model, _log_dbar, ks[live], n_steps))
    else:
        rows = _batch_stats(model, _log_dbar, ks[live], crn()) if live.size else []
    for i, row in zip(live, rows):
        out[i] = row
    return out if np.ndim(k) == 2 else out[0]


# ---------------------------------------------------------------------------
# Constrained growth maximization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ConstrainedResult:
    """GrowthResult fields plus how the constraint was handled. iterations
    counts the allocations the search estimated, prefetched midpoints that
    its bisection skips included; perfbench's tracer reports it per op as
    drawdown.constraint_evals_per_op. constraint is the Estimate the answer
    was judged by: exact for an enumerated surrogate, else a Monte Carlo
    mean with its standard error."""

    k_star: np.ndarray
    g_star: float
    iterations: int
    converged: bool
    method: str
    constraint: Estimate


def _screen(spec: ConstraintSpec, n_paths: int):
    """Keep mask of a screened kernel call (see "The screen" in the module
    docstring): the rows whose partial slack is not below -SCREEN_MARGIN,
    widened by n_paths * eps for each of the two sums, the partial mean's
    down the paths axis and the final one's pairwise."""
    tol = SCREEN_MARGIN + 2 * n_paths * np.finfo(float).eps
    # np.add.reduce and the division are what .mean computes, bit for bit,
    # without its per-call wrapper.
    return lambda d: spec.slack(np.add.reduce(spec.samples(d), axis=0) / n_paths) >= -tol


def _batch_stats(model, samples, k, indices, screen=None):
    """Estimate, with its standard error, of the per-path samples(dbar) of
    one allocation, or a list of them for a (B, n_assets) batch k, each
    bitwise mean_se of that allocation's samples alone, from the chunks of
    dbar_chunks. screen is passed to dbar_samples; a row it drops is None."""
    out = []
    for dbar in dbar_chunks(model, k, indices, screen):
        kept = ~np.isnan(dbar[:, 0])
        # The samples of dbar, or of its kept rows once a screen dropped
        # some, are the one (rows, paths) block mean_se reduces, with its own
        # temporary: dbar is freed before it does, and the block before the
        # next chunk runs.
        x = samples(dbar if kept.all() else dbar[kept])
        del dbar
        rows = iter(mean_se(x))
        del x
        out += [next(rows) if keep else None for keep in kept]
    return out if np.ndim(k) == 2 else out[0]


class _ConstraintEvaluator:
    """Conservative constraint checks of one search (see "The evaluator" in
    the module docstring).

    batch(ks) gives (admitted, Estimate) per allocation, estimating the
    unseen ones together: through _batch_stats, screened by _screen, or
    through _log_complementary_batch for a surrogate. A screened-out row is
    (False, None). Calling it checks one allocation; evals counts the
    estimates made.
    """

    def __init__(self, model, n_steps, spec, paths, seed):
        self.model, self.n_steps, self.spec = model, n_steps, spec
        self.paths, self.seed = paths, seed
        self.seen = {}

    @functools.cached_property
    def indices(self) -> np.ndarray:
        return sample_path_indices(self.model, self.paths, self.n_steps, self.seed)

    @property
    def evals(self) -> int:
        return len(self.seen)

    def batch(self, ks) -> list:
        """ks: float64 allocation vectors of length n_assets; their bytes key the memo."""
        keys = [kv.tobytes() for kv in ks]
        new = {key: kv for key, kv in zip(keys, ks) if key not in self.seen}
        if new:
            batch = np.array(list(new.values()))
            if self.spec.kind == "surrogate":
                stats = _log_complementary_batch(self.model, batch, self.n_steps,
                                                 lambda: self.indices)
            else:
                stats = _batch_stats(self.model, self.spec.samples, batch, self.indices,
                                     _screen(self.spec, self.paths))
            for key, est in zip(new, stats):
                self.seen[key] = (est is not None and self.spec.contains_conservatively(*est),
                                  est)
        return [self.seen[key] for key in keys]

    def __call__(self, kv) -> tuple:
        return self.batch([kv])[0]


# Grid points in one evaluate.batch of the grid walk: one kernel call per
# chunk, and a chunk is checked only if every point before it was infeasible.
# Of 16, 32, 64 and 128, 64 gave the fastest searches.
_GRID_CHUNK = 64


def _best_feasible(evaluate, points, g):
    """Index of the admitted point of largest g among the (P, n_assets)
    points, the first in scan order on a tie, by the grid walk of "The
    searches" in the module docstring. The points hold K = 0, which every
    expected or probabilistic constraint admits (E[D] = 0, or P(D <= eps) = 1
    with std_error 0)."""
    order = np.argsort(-g, kind="stable")
    for lo in range(0, order.size, _GRID_CHUNK):
        chunk = order[lo:lo + _GRID_CHUNK]
        for i, (ok, _) in zip(chunk, evaluate.batch(points[chunk])):
            if ok:
                return int(i)


def _simplex_grid(axis) -> np.ndarray:
    """(P, 2) points of axis x axis with k1 + k2 <= 1, k1 then k2 ascending.
    Every atom is >= -1, so every point is a feasible allocation."""
    return np.array([[k1, k2] for k1 in axis for k2 in axis if k1 + k2 <= 1.0 + 1e-12])


def _along(xu: np.ndarray, probs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rows (g, g') at t[r] along each ray r, whose atom returns are the
    column xu[:, r]; both are -inf where some wealth factor 1 + t * xu is not
    positive."""
    f = 1.0 + xu * t
    safe = np.where(f > 0.0, f, 1.0)
    return np.where(f.min(axis=0) > 0.0, [probs @ np.log(safe), probs @ (xu / safe)], -math.inf)


# Bisection levels whose midpoints a screened search checks ahead, in one
# evaluate.batch of 2 ** _PREFETCH_LEVELS - 1 points of its one live ray.
# Of 2, 3 and 4 levels, 3 gave the fastest one-asset searches.
_PREFETCH_LEVELS = 3

# Least share of its bracket that a surrogate ray's interpolated split keeps
# from either end. Of 2**-4, 2**-7, 2**-10 and none, 2**-7 made the fewest
# kernel calls on the two-asset surrogate searches.
_SPLIT_MARGIN = 2.0 ** -7


def _midpoints(lo, hi, tol, levels):
    """Every midpoint that the next `levels` levels of bisecting [lo, hi] to
    width tol can visit, each computed as _ray_best computes it."""
    if not levels or not hi - lo > tol:
        return []
    mid = 0.5 * (lo + hi)
    return [mid, *_midpoints(lo, mid, tol, levels - 1), *_midpoints(mid, hi, tol, levels - 1)]


def _split(lo, hi, s_lo, s_hi):
    """Where each surrogate ray with end slacks s_lo > 0 > s_hi splits its
    bracket [lo, hi] (see "The split" in the module docstring)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        w = s_lo / (s_lo - s_hi)
    return np.where((w > 0.0) & (w < 1.0),
                    lo + np.clip(w, _SPLIT_MARGIN, 1.0 - _SPLIT_MARGIN) * (hi - lo), 0.5 * (lo + hi))


def _ray_best(model, evaluate, k_lo, us, lo, hi, tol):
    """(K, g) per ray r of the best admitted point of the ray t * us[r],
    sum(us[r]) = 1, by "The ray rule", "The prefetch" and "The split" of the
    module docstring: the brackets [lo, hi] (per ray, or one for all), each
    lo admitted, are bisected together to width tol. The tangent bound takes
    g and g' from the ray's return column; the answer's g is log_growth's.
    k_lo, an admitted point of every ray, is a ray's answer when its t stays
    at sum(k_lo) or gains no g over k_lo."""
    xu = model.xs @ us.T
    lo, hi = (np.full(len(us), end, dtype=float) for end in (lo, hi))
    g, slope = _along(xu, model.probs, lo)
    live = hi - lo > tol
    spec = evaluate.spec
    surrogate = spec.kind == "surrogate"
    # A surrogate ray's end slacks, t = 0 having that of E[log(1 - D)] = 0,
    # and +1 or -1 as lo or hi moved last.
    s_lo = np.where(lo == 0.0, spec.slack(0.0), math.nan)
    s_hi, last = np.full(len(us), math.nan), np.zeros(len(us))
    for level in itertools.count():
        if not live.any():
            break
        if not surrogate and np.count_nonzero(live) == 1 and level % _PREFETCH_LEVELS == 0:
            evaluate.batch([t * us[r] for r in np.flatnonzero(live)
                            for t in _midpoints(lo[r], hi[r], tol, _PREFETCH_LEVELS)])
        mid = _split(lo, hi, s_lo, s_hi) if surrogate else 0.5 * (lo + hi)
        g_mid, slope_mid = _along(xu, model.probs, mid)
        checked = live & (slope_mid > 0.0)
        verdicts = evaluate.batch(mid[checked, None] * us[checked])
        ok = checked.copy()
        ok[checked] = [admitted for admitted, _ in verdicts]
        cut = live & ~ok
        if surrogate:
            s_mid = np.full(len(us), math.nan)
            s_mid[checked] = [spec.slack(est.value) for _, est in verdicts]
            # The Illinois step: an end kept twice in a row halves its slack.
            s_lo, s_hi = (np.where(ok, s_mid, np.where(cut & (last < 0), 0.5 * s_lo, s_lo)),
                          np.where(cut, s_mid, np.where(ok & (last > 0), 0.5 * s_hi, s_hi)))
            last = np.where(ok, 1.0, np.where(cut, -1.0, last))
        lo, g, slope = np.where(ok, [mid, g_mid, slope_mid], [lo, g, slope])
        hi = np.where(cut, mid, hi)
        live &= (hi - lo > tol) & (g + slope * (hi - lo) >= g.max())
    k = lo[:, None] * us
    g, g_lo = log_growth(k, model), log_growth(k_lo, model)
    better = (lo != k_lo.sum()) & (g > g_lo)
    return np.where(better[:, None], k, k_lo), np.where(better, g, g_lo)


# Rays of one fan, and the rounds of the fan search (see the module
# docstring).
_FAN_RAYS = 9
_FAN_ROUNDS = 5


def _fan(model, evaluate):
    """(K, g) of the fan of "The searches" in the module docstring, on two or
    more assets; the best direction so far changes only to a ray of larger g."""
    n = model.n_assets
    u, k, g = np.full(n, 1.0 / n), np.zeros(n), 0.0
    offsets = np.linspace(-1.0, 1.0, _FAN_RAYS)
    for rnd, (i, j) in itertools.product(range(_FAN_ROUNDS), itertools.combinations(range(n), 2)):
        share = u[i] + u[j]
        # A pair that holds no share has a line of one direction, u itself.
        centre = u[i] / share if rnd and share else 0.5
        fan = np.unique(np.clip(centre + 0.5 * (2.0 / (_FAN_RAYS - 1)) ** rnd * offsets, 0.0, 1.0))
        us = np.tile(u, (fan.size, 1))
        us[:, [i, j]] = share * np.stack([fan, 1.0 - fan], axis=1)
        ks, gs = _ray_best(model, evaluate, np.zeros(n), us, 0.0, 1.0, REFINE_TOL)
        r = int(np.argmax(gs))
        if gs[r] > g:
            u, k, g = us[r], ks[r], float(gs[r])
    if g > 0.0:
        k, g = _ray_best(model, evaluate, np.zeros(n), u[None], 0.0, 1.0, REFINE_TOL * k.sum())
        k, g = k[0], float(g[0])
    return k, g


def _ray_search(model, evaluate, k_un):
    """(K, g, method) of the search that "The searches" in the module
    docstring names, once the unconstrained optimum k_un is outside the set.
    The one-asset ray is bisected to width REFINE_TOL, or REFINE_TOL * 1e-2
    for the surrogate. grid-ray checks its ray's growth peak first, the
    answer if admitted, and otherwise bisects from the grid point to it to
    width REFINE_TOL; a grid answer of K = 0 has no ray and is the answer.
    """
    kind = evaluate.spec.kind
    if model.n_assets == 1:
        tol = REFINE_TOL * 1e-2 if kind == "surrogate" else REFINE_TOL
        k, g = _ray_best(model, evaluate, np.zeros(1), np.ones((1, 1)), 0.0, k_un, tol)
        return k[0], float(g[0]), f"{kind}-bisect"
    if model.n_assets > 2 or kind == "surrogate":
        return (*_fan(model, evaluate), f"{kind}-fan")
    points = _simplex_grid(np.arange(0.0, 1.0 + 1e-12, GRID_STEP))
    k = points[_best_feasible(evaluate, points, log_growth(points, model))]
    s = k.sum()
    if s == 0.0:
        return k, 0.0, "grid-ray"
    u = k / s
    peak, _ = _maximize_1d(model.xs @ u, model.probs)
    lo = peak if evaluate(peak * u)[0] else s
    k, g = _ray_best(model, evaluate, k, u[None], lo, peak, REFINE_TOL)
    return k[0], float(g[0]), "grid-ray"


def maximize_growth_constrained(model: GambleModel, n_steps: int, spec: ConstraintSpec,
                                paths: int = 10_000, seed: int = 0) -> ConstrainedResult:
    """Maximize log growth subject to a drawdown constraint.

    Returns the unconstrained optimum when the search's evaluator admits it,
    and otherwise the answer of the search _ray_search picks, with what that
    search claims. Each search is finite and ends at its tolerances, so
    converged is always True. Raises ValueError when n_steps < 1.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    unconstrained = maximize_growth(model)
    evaluate = _ConstraintEvaluator(model, n_steps, spec, paths, seed)
    if evaluate(unconstrained.k_star)[0]:
        k, g, method = unconstrained.k_star, unconstrained.g_star, "unconstrained-feasible"
    else:
        k, g, method = _ray_search(model, evaluate, unconstrained.k_star)
    return ConstrainedResult(k, g, evaluate.evals, True, method, evaluate(k)[1])


# ---------------------------------------------------------------------------
# Convexity probe for two-asset constraint sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbePoint:
    k1: float
    k2: float
    estimate: Estimate
    in_set: bool


@dataclass(frozen=True)
class MidpointCheck:
    k_mid: tuple
    estimate: Estimate
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
                    paths: int = 10_000, seed: int = 0) -> ProbeReport:
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
    if pair_samples < 1:
        raise ValueError("pair_samples must be >= 1")
    indices = sample_path_indices(model, paths, n_steps, seed)

    # Membership uses the plain rule: the probe reports the set as estimated.
    points = _simplex_grid(np.linspace(0.0, 1.0, grid_resolution))
    grid = []
    in_points = []
    for kv, est in zip(points, _batch_stats(model, spec.samples, points, indices)):
        inside = spec.contains(est.value)
        grid.append(ProbePoint(float(kv[0]), float(kv[1]), est, inside))
        if inside:
            in_points.append(kv)

    # The pairs depend only on the rng and the in-set points, so every
    # midpoint is drawn first and all are estimated in one batch.
    checks = []
    if len(in_points) >= 2:
        rng = np.random.default_rng(seed + 1)
        pairs = [rng.choice(len(in_points), size=2, replace=False)
                 for _ in range(pair_samples)]
        mids = [0.5 * (in_points[ia] + in_points[ib]) for ia, ib in pairs]
        for mid, est in zip(mids, _batch_stats(model, spec.samples, mids, indices)):
            violation = not spec.contains(est.value)
            significant = violation and -spec.slack(est.value) > 3.0 * est.std_error
            checks.append(MidpointCheck((float(mid[0]), float(mid[1])), est, violation,
                                        significant))

    return ProbeReport(grid=grid, checks=checks)


def write_level_set_csv(report: ProbeReport, path) -> None:
    """Grid CSV with columns k1, k2, estimate, std_error, in_set, each float
    as its repr: the file `probe-convexity --out` writes."""
    _write_csv(path, ["k1", "k2", "estimate", "std_error", "in_set"],
               ([repr(pt.k1), repr(pt.k2), *map(repr, pt.estimate), int(pt.in_set)]
                for pt in report.grid))
