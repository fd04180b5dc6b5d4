"""Closed-form approximate betting fractions and their feasibility repairs.

Two classical shortcuts replace the exact log-growth maximization:

* second-order expansion of the log -> kappa = (second moment matrix)^{-1} E[X]
* diffusion-style treatment of returns -> kappa = (covariance)^{-1} E[X]

Both can land outside the feasible set; the repairs are a scalar clamp to
[0, 1] and a ray projection back onto the unit-sum face. This module also
gives the unclamped expansion fraction on the single-risky-bet family (win
gamma with probability p, lose the stake otherwise) and the threshold reward
beyond which that fraction decreases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gamble import GambleModel, moments


class DegenerateModelError(ValueError):
    """Moment matrix is singular, so the closed-form fraction is undefined."""


@dataclass(frozen=True, eq=False)
class ApproxSolution:
    kappa_raw: np.ndarray
    k_repaired: np.ndarray
    method: str              # "taylor" | "gbm"
    repair: str              # "none" | "saturation" | "projection"


def _solve(matrix: np.ndarray, rhs: np.ndarray, label: str) -> np.ndarray:
    try:
        sol = np.linalg.solve(matrix, rhs)
    except np.linalg.LinAlgError:
        raise DegenerateModelError(f"{label} matrix is singular (degenerate gamble)")
    if not np.all(np.isfinite(sol)) or np.linalg.cond(matrix) > 1e14:
        raise DegenerateModelError(f"{label} matrix is numerically singular")
    return sol


def taylor_solution(model: GambleModel) -> np.ndarray:
    """Unrepaired second-order fraction: E[XX^T]^{-1} E[X]."""
    m = moments(model)
    return _solve(m.second_moment, m.mean, "second-moment")


def gbm_solution(model: GambleModel) -> np.ndarray:
    """Unrepaired diffusion fraction: Cov(X)^{-1} E[X]."""
    m = moments(model)
    return _solve(m.covariance, m.mean, "covariance")


def saturate(x: float) -> float:
    """Clamp a scalar fraction to [0, 1]."""
    return min(1.0, max(0.0, float(x)))


def project_simplex_ray(k) -> np.ndarray:
    """Rescale a nonnegative vector onto the unit-sum face: k_i / sum(k).

    Preserves component ratios (it is a ray projection, not a Euclidean one).
    """
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    if np.any(kv < 0.0):
        raise ValueError("ray projection needs nonnegative components")
    s = float(kv.sum())
    if s <= 0.0:
        raise ValueError("ray projection undefined for the all-zero vector")
    return kv / s


def repair_allocation(kappa) -> tuple:
    """Make an approximate fraction feasible.

    Scalars get the clamp. Vectors get negatives clamped to 0 first, then the
    ray projection if the sum still exceeds 1; feasible inputs pass through
    untouched. Returns (repaired vector, repair tag).
    """
    kv = np.atleast_1d(np.asarray(kappa, dtype=float))
    if kv.size == 1:
        rep = np.array([saturate(kv[0])])
        tag = "none" if rep[0] == kv[0] else "saturation"
        return rep, tag
    clipped = np.maximum(kv, 0.0)
    clamped = bool(np.any(clipped != kv))
    if float(clipped.sum()) > 1.0:
        return project_simplex_ray(clipped), "projection"
    return clipped, ("saturation" if clamped else "none")


def approx_solution(model: GambleModel, method: str) -> ApproxSolution:
    """Raw approximate fraction plus its feasibility repair."""
    if method == "taylor":
        raw = taylor_solution(model)
    elif method == "gbm":
        raw = gbm_solution(model)
    else:
        raise ValueError(f"unknown method {method!r}")
    repaired, tag = repair_allocation(raw)
    return ApproxSolution(kappa_raw=raw, k_repaired=repaired, method=method, repair=tag)


# ---------------------------------------------------------------------------
# Reward-monotonicity analysis on the (gamma, -1) coin family
# ---------------------------------------------------------------------------

def taylor_gain_raw(gamma: float, p: float) -> float:
    """Unclamped expansion fraction (p*gamma + p - 1) / (p*gamma^2 - p + 1)."""
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    return (p * gamma + p - 1.0) / (p * gamma * gamma - p + 1.0)


def inefficiency_threshold(p: float) -> float:
    """Reward level beyond which the unclamped fraction decreases in gamma:
    (1 - p + sqrt(1 - p)) / p."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must be in (0, 1)")
    q = 1.0 - p
    return (q + math.sqrt(q)) / p
