"""Expected-log-growth maximization over the feasible betting set.

The objective g(K) = sum_atoms p * log(1 + K'x) is concave; the feasible set
{K >= 0, sum K <= 1, min_atoms K'x >= -1} is the nonnegative simplex with
slack intersected with the survival half-spaces. Because every atom component
is >= -1, survival holds automatically on the simplex; only the sum(K) = 1
face can zero a wealth factor, which the line search treats as a barrier.

For one asset the maximizer is found by bisection on the derivative (cheap,
~1e-13 accurate); for several assets by Newton and projected gradient steps,
stopped on the Frank-Wolfe gap (see maximize_growth).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gamble import GambleModel, _checked_factors, as_allocation

RUIN_EPS = 1e-12            # wealth factor below this is treated as the ruin boundary
MAX_OPT_ITER = 10**5        # multi-asset optimizer's safety cap on iterations
OPT_TOL = 1e-12             # optimizer stop: Frank-Wolfe gap <= this * max(1, |g|)


@dataclass(frozen=True, eq=False)
class GrowthResult:
    """Outcome of a growth maximization: argmax, value (nats/period), effort, status, gap."""

    k_star: np.ndarray
    g_star: float
    iterations: int
    converged: bool
    gap: float


def log_growth(k, model: GambleModel):
    """g(K) = sum over atoms of p * log(1 + K'x); -inf if any atom zeroes the factor.

    k is one allocation, giving a float, or a (B, n_assets) batch, giving a
    (B,) array (see "Batches" in the drawdown module docstring):
    each row keeps its own matvec, log and dot, as the stacked matmul of the
    (B, 1, m) logs with the (m, 1) weights runs one dot per row.
    """
    with np.errstate(divide="ignore"):   # a zero factor's log is -inf, and so is g
        logs = np.log(_checked_factors(model, k))
    g = np.matmul(logs[:, None, :], model.probs[:, None])[:, 0, 0]
    return g if np.ndim(k) == 2 else float(g[0])


def growth_gradient(k, model: GambleModel) -> np.ndarray:
    """Gradient of g: component i is sum of p * x_i / (1 + K'x).

    Requires a strictly interior point (all wealth factors positive).
    """
    kv = as_allocation(k, model.n_assets)
    f = 1.0 + model.xs @ kv
    if np.min(f) <= 0.0:
        raise ValueError("gradient undefined on or beyond the ruin boundary")
    return (model.probs / f) @ model.xs


def annualized_return(g: float, dt_years: float) -> float:
    """Convert per-period log growth to an annualized simple rate: (e^g - 1) / dt."""
    if not dt_years > 0.0:
        raise ValueError(f"dt_years must be positive, got {dt_years!r}")
    return (math.exp(g) - 1.0) / dt_years


def project_allocation(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {k: k >= 0, sum(k) <= 1}."""
    w = np.maximum(v, 0.0)
    if float(w.sum()) <= 1.0:
        return w
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    j = np.arange(1, v.size + 1)
    # j = 1 always qualifies (u_1 > u_1 - 1), but at |v| ~ 1e16, as a
    # near-singular Newton step gives, the rounded test can miss it.
    kept = u * j > css - 1.0
    kept[0] = True
    rho = int(np.nonzero(kept)[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _maximize_1d(x: np.ndarray, p: np.ndarray) -> tuple:
    """(t, iterations): the t in [0, 1] maximizing sum p * log(1 + t * x) for
    a return column x, which may round below -1 on a ray through two
    total-loss assets, and its weights p."""

    def deriv(t: float) -> float:
        f = 1.0 + t * x
        if np.min(f) <= 0.0:
            return -math.inf
        return float(np.sum(p * x / f))

    if deriv(0.0) <= 0.0:
        return 0.0, 1
    if deriv(1.0) >= 0.0:
        return 1.0, 1
    lo, hi, iterations = 0.0, 1.0, 1
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        iterations += 1
        lo, hi = (mid, hi) if deriv(mid) > 0.0 else (lo, mid)
    return 0.5 * (lo + hi), iterations


def _newton_direction(model: GambleModel, k: np.ndarray, grad: np.ndarray,
                      free: np.ndarray) -> np.ndarray:
    """Newton direction of g moving only the components in the boolean mask
    free, and keeping sum(K) if the unit-sum face is active; the zero vector
    where there is none (nothing free, a singular or non-finite solve)."""
    free = np.nonzero(free)[0]
    f = 1.0 + model.xs @ k
    xf = model.xs[:, free]
    hess = -(xf * (model.probs / f**2)[:, None]).T @ xf
    d = np.zeros_like(k)
    try:
        if float(k.sum()) >= 1.0 - 1e-10:
            nf = free.size
            kkt = np.zeros((nf + 1, nf + 1))
            kkt[:nf, :nf] = hess
            kkt[:nf, nf] = 1.0
            kkt[nf, :nf] = 1.0
            rhs = np.concatenate([-grad[free], [0.0]])
            d[free] = np.linalg.solve(kkt, rhs)[:nf]
        else:
            d[free] = np.linalg.solve(hess, -grad[free])
    except np.linalg.LinAlgError:
        return np.zeros_like(k)
    return d if np.all(np.isfinite(d)) else np.zeros_like(k)


def _line_search(model, k, g, grad, direction):
    """Backtrack along a projected arc, t = 1, 1/2, ... down to 1e-18, to
    the first trial away from the ruin boundary that passes the Armijo test;
    None if no step does."""
    t = 1.0
    while t > 1e-18:
        trial = project_allocation(k + t * direction)
        if float(np.min(1.0 + model.xs @ trial)) >= RUIN_EPS:
            g_trial = log_growth(trial, model)
            if g_trial > g and g_trial >= g + 1e-4 * float(grad @ (trial - k)):
                return trial, g_trial
        t *= 0.5
    return None


def _fw_gap(k: np.ndarray, grad: np.ndarray) -> float:
    """Frank-Wolfe gap max(0, max_i grad_i) - grad.K, floored at 0 against rounding:
    on this concave problem a bound on g* - g(K) (Jaggi, ICML 2013)."""
    return max(0.0, max(0.0, float(np.max(grad))) - float(grad @ k))


def _maximize_nd(model: GambleModel) -> GrowthResult:
    k = np.zeros(model.n_assets)
    g = 0.0
    for it in range(1, MAX_OPT_ITER + 1):
        grad = growth_gradient(k, model)
        gap = _fw_gap(k, grad)
        if gap <= OPT_TOL * max(1.0, abs(g)):
            return GrowthResult(k, g, it, True, gap)
        # The uphill Newton step first; the projected gradient step, which
        # releases pinned components, only where Newton does not rise.
        newton = _newton_direction(model, k, grad, k > 1e-10)
        step = ((np.any(newton) and float(grad @ newton) >= 0.0
                 and _line_search(model, k, g, grad, newton))
                or _line_search(model, k, g, grad, grad))
        if step is None:
            # g cannot tell the steps left apart, but the gap can: of the full
            # Newton steps on the same face and on the face of every K_i > 0
            # (a coin of edge 1e-11 has its optimum below 1e-10), take the one
            # that lowers the gap most. A rounded grad.d < 0 does not veto it.
            trials = [project_allocation(k + d)
                      for d in (newton, _newton_direction(model, k, grad, k > 0.0))]
            gaps = [_fw_gap(t, growth_gradient(t, model))
                    if float(np.min(1.0 + model.xs @ t)) >= RUIN_EPS else math.inf for t in trials]
            i = int(np.argmin(gaps))
            if gaps[i] >= gap:
                return GrowthResult(k, g, it, False, gap)
            step = trials[i], log_growth(trials[i], model)
        k, g = step
    return GrowthResult(k, g, MAX_OPT_ITER, False, _fw_gap(k, growth_gradient(k, model)))


def maximize_growth(model: GambleModel) -> GrowthResult:
    """Maximize g(K) over the feasible set.

    Deterministic. gap, the Frank-Wolfe gap at k_star, bounds g* - g_star.
    On two or more assets converged means gap <= OPT_TOL * max(1, |g_star|);
    a run that stops short of it, or at MAX_OPT_ITER, says converged=False.
    On one asset converged is the bisection's verdict (K within ~1e-13).
    """
    if model.n_assets == 1:
        t, iterations = _maximize_1d(model.xs[:, 0], model.probs)
        k = np.array([t])
        return GrowthResult(k, log_growth(k, model), iterations, True,
                            _fw_gap(k, growth_gradient(k, model)))
    return _maximize_nd(model)
