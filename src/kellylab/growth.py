"""Expected-log-growth maximization over the feasible betting set.

The objective g(K) = sum_atoms p * log(1 + K'x) is concave; the feasible set
{K >= 0, sum K <= 1, min_atoms K'x >= -1} is the nonnegative simplex with
slack intersected with the survival half-spaces. Because every atom component
is >= -1, survival holds automatically on the simplex; only the sum(K) = 1
face can zero a wealth factor, which the line search treats as a barrier.

For one asset the maximizer is found by bisection on the derivative (cheap,
~1e-13 accurate); for several assets by projected gradient ascent with a
backtracking line search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import MAX_OPT_ITER, OBJ_FLAT_WINDOW, OPT_TOL, RUIN_EPS
from .gamble import GambleModel, as_allocation, is_feasible


@dataclass(frozen=True, eq=False)
class GrowthResult:
    """Outcome of a growth maximization: argmax, value (nats/period), effort, status."""

    k_star: np.ndarray
    g_star: float
    iterations: int
    converged: bool


def log_growth(k, model: GambleModel) -> float:
    """g(K) = sum over atoms of p * log(1 + K'x); -inf if any atom zeroes the factor."""
    kv = as_allocation(k, model.n_assets)
    if not is_feasible(kv, model):
        raise ValueError(f"allocation {kv!r} is infeasible for this model")
    f = 1.0 + model.xs @ kv
    if np.any(f <= 0.0):
        return -math.inf
    return float(model.probs @ np.log(f))


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
    if dt_years <= 0.0:
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
    rho = int(np.nonzero(u * j > (css - 1.0))[0][-1])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _maximize_1d(model: GambleModel) -> GrowthResult:
    x = model.xs[:, 0]
    p = model.probs

    def deriv(kk: float) -> float:
        f = 1.0 + kk * x
        if np.min(f) <= 0.0:
            return -math.inf
        return float(np.sum(p * x / f))

    iterations = 1
    if deriv(0.0) <= 0.0:
        return GrowthResult(np.array([0.0]), 0.0, iterations, True)
    if deriv(1.0) >= 0.0:
        k = np.array([1.0])
        return GrowthResult(k, log_growth(k, model), iterations, True)
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    k = np.array([0.5 * (lo + hi)])
    return GrowthResult(k, log_growth(k, model), iterations, True)


def _newton_direction(model: GambleModel, k: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """Ascent direction from a second-order model restricted to the active face.

    Components pinned at zero stay zero; if the unit-sum face is active the
    direction is solved with the matching equality constraint. Returns the
    zero vector when no usable direction exists (degenerate Hessian, nothing
    free): plain projected ascent then takes over.
    """
    free = np.nonzero(k > 1e-10)[0]
    if free.size == 0:
        return np.zeros_like(k)
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
    if not np.all(np.isfinite(d)) or float(grad @ d) < 0.0:
        return np.zeros_like(k)
    return d


def _line_search(model, k, g, grad, direction):
    """Backtrack along a projected arc; None if no acceptable step exists."""
    t = 1.0
    while t > 1e-18:
        trial = project_allocation(k + t * direction)
        step = trial - k
        if float(np.min(1.0 + model.xs @ trial)) >= RUIN_EPS:
            g_trial = log_growth(trial, model)
            if g_trial > g and g_trial >= g + 1e-4 * float(grad @ step):
                return trial, g_trial
        t *= 0.5
    return None


def _maximize_nd(model: GambleModel) -> GrowthResult:
    k = np.zeros(model.n_assets)
    g = 0.0
    recent = [g]
    for it in range(1, MAX_OPT_ITER + 1):
        grad = growth_gradient(k, model)
        pg = project_allocation(k + grad) - k
        flat = (
            len(recent) == OBJ_FLAT_WINDOW
            and (max(recent) - min(recent)) <= OPT_TOL * max(1.0, abs(g))
        )
        if float(np.max(np.abs(pg))) <= OPT_TOL and flat:
            return GrowthResult(k, g, it, True)
        # Take the better of a face-restricted Newton step and a projected
        # gradient step; the gradient step is what releases pinned components.
        best = None
        newton = _newton_direction(model, k, grad)
        if np.any(newton != 0.0):
            best = _line_search(model, k, g, grad, newton)
        pga = _line_search(model, k, g, grad, grad)
        if pga is not None and (best is None or pga[1] > best[1]):
            best = pga
        if best is None:
            # No float-visible ascent left: stationary at machine resolution.
            return GrowthResult(k, g, it, float(np.max(np.abs(pg))) <= OPT_TOL)
        k, g = best
        recent.append(g)
        if len(recent) > OBJ_FLAT_WINDOW:
            recent.pop(0)
    return GrowthResult(k, g, MAX_OPT_ITER, False)


def maximize_growth(model: GambleModel) -> GrowthResult:
    """Maximize g(K) over the feasible set.

    Deterministic: identical inputs give identical outputs. Non-convergence
    within the iteration budget is reported via converged=False, never as a
    silently wrong answer. OPT_TOL sits at the float limit of
    objective-comparison methods (position accuracy ~1e-8); the one-asset
    bisection path is accurate to ~1e-13.
    """
    if model.n_assets == 1:
        return _maximize_1d(model)
    return _maximize_nd(model)
