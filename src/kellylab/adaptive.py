"""Adaptive betting on an even-money coin with unknown win probability.

The bettor watches outcomes, estimates the win probability as the relative
frequency over a sliding window of the last M outcomes, and bets the
plug-in fraction 2*p_hat - 1 (clamped to [0, 1], since the raw formula goes
negative whenever p_hat < 1/2). No betting happens during the first M steps:
that is the training period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drawdown import WealthPath


@dataclass(frozen=True, eq=False)
class AdaptiveRun:
    """Everything one adaptive session produced.

    estimates[i] and fractions[i] belong to step k = window + i; the path
    covers all N steps from V(0) = 1 (flat through training).
    """

    estimates: np.ndarray
    fractions: np.ndarray
    path: WealthPath
    window: int


def run_adaptive(p_true: float, n_steps: int, window: int, seed: int = 0) -> AdaptiveRun:
    """Simulate the even coin at p_true with window-frequency betting.

    Deterministic given the seed. Holds K=0 for the first `window` steps;
    at step k >= window it estimates p as the share of wins among the
    outcomes of steps k-window..k-1 and bets clip(2 * estimate - 1, 0, 1).
    """
    if not (0.0 < p_true < 1.0):
        raise ValueError("p_true must be in (0, 1)")
    if not window < n_steps:
        raise ValueError("window must be smaller than n_steps")
    if window < 1:
        raise ValueError("window must be >= 1")

    rng = np.random.default_rng(seed)
    x = np.where(rng.random(n_steps) < p_true, 1.0, -1.0)

    win_counts = np.concatenate([[0.0], np.cumsum(x > 0.0)])
    p_hats = (win_counts[window:n_steps] - win_counts[:n_steps - window]) / window
    fractions = np.clip(2.0 * p_hats - 1.0, 0.0, 1.0)

    values = np.empty(n_steps + 1)
    values[0] = v = 1.0
    for k in range(n_steps):
        if k >= window:
            v = (1.0 + fractions[k - window] * x[k]) * v
        values[k + 1] = v

    path = WealthPath(values=values, outcomes=x.reshape(-1, 1))
    return AdaptiveRun(estimates=p_hats, fractions=fractions, path=path, window=window)


def trace_rows(run: AdaptiveRun):
    """Per-step rows (k, outcome, p_hat, k_hat, wealth); p_hat blank in training."""
    x = run.path.outcomes[:, 0]
    values = run.path.values
    for k in range(x.size):
        if k < run.window:
            p_str, k_hat = "", 0.0
        else:
            p_str = repr(float(run.estimates[k - run.window]))
            k_hat = float(run.fractions[k - run.window])
        yield (k, repr(float(x[k])), p_str, repr(k_hat), repr(float(values[k + 1])))
