"""Adaptive betting on an even-money coin with unknown win probability.

The bettor watches outcomes, estimates the win probability as the relative
frequency over a sliding window of the last M outcomes, and bets the
plug-in fraction 2*p_hat - 1 (clamped to [0, 1], since the raw formula goes
negative whenever p_hat < 1/2). No betting happens during the first M steps:
that is the training period.

The coin is `make_coin(1, -1, p_true)`, drawn by `gamble.sample_indices`: a
run at seed s sees path 0 of `drawdown.sample_path_indices(coin, 1, n_steps, s)`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gamble import _reprs, make_coin, sample_indices


@dataclass(frozen=True, eq=False)
class WealthPath:
    """Realized wealth trajectory V(0..N) plus the outcome sequence behind it."""

    values: np.ndarray       # (N+1,)
    outcomes: np.ndarray     # (N, n)


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

    Deterministic given the seed: sample_indices draws the outcomes of
    make_coin(1, -1, p_true), path 0 of sample_path_indices(coin, 1, n_steps,
    seed). Holds K=0 for the first `window` steps; at step k >= window it
    estimates p as the share of wins among the outcomes of steps
    k-window..k-1 and bets clip(2 * estimate - 1, 0, 1).
    """
    coin = make_coin(1.0, -1.0, p_true)
    if not window < n_steps:
        raise ValueError("window must be smaller than n_steps")
    if window < 1:
        raise ValueError("window must be >= 1")

    outcomes = coin.xs[sample_indices(coin, n_steps, np.random.default_rng(seed))]
    x = outcomes[:, 0]

    win_counts = np.concatenate([[0.0], np.cumsum(x > 0.0)])
    p_hats = (win_counts[window:n_steps] - win_counts[:n_steps - window]) / window
    fractions = np.clip(2.0 * p_hats - 1.0, 0.0, 1.0)

    step = np.concatenate([np.ones(window), 1.0 + fractions * x[window:]])
    # A lost full bet (factor 0) leaves wealth 0 for good. The product stops
    # there, so a wealth that overflowed to inf is not multiplied by 0 (NaN).
    ruin = np.flatnonzero(step == 0.0)
    end = ruin[0] if ruin.size else n_steps
    values = np.concatenate([[1.0], np.cumprod(step[:end]), np.zeros(n_steps - end)])

    path = WealthPath(values=values, outcomes=outcomes)
    return AdaptiveRun(estimates=p_hats, fractions=fractions, path=path, window=window)


# Steps per block of the trace. Measured on a 200,000-step run written to a
# sink that keeps no text (shared 2-core VM): the traced peak of the write is
# 0.22 MiB at 512 steps, 0.28 at 1,024, 0.41 at 2,048, 0.67 at 4,096 and
# 1.19 at 8,192, against 21.6 MiB for the whole-run text. The CPU time of
# the write (minimum of 7) stayed at 0.42-0.47 s over that range, and was
# 0.43 s for the whole-run text.
_TRACE_BLOCK = 2048


def trace_rows(run: AdaptiveRun):
    """Yield the per-step rows (k, outcome, p_hat, k_hat, wealth) as text.

    p_hat is blank and k_hat 0.0 in training. The rows come one block of
    _TRACE_BLOCK steps at a time: each block formats its slice of each
    column with _reprs and reads the estimates and fractions at an offset,
    so at most one block of text is held, whatever the run's length.
    """
    x, values, w = run.path.outcomes[:, 0], run.path.values, run.window
    for start in range(0, x.size, _TRACE_BLOCK):
        stop = min(start + _TRACE_BLOCK, x.size)
        training = max(min(stop, w) - start, 0)
        bet = slice(max(start - w, 0), max(stop - w, 0))
        yield from zip(range(start, stop), _reprs(x[start:stop]),
                       [""] * training + _reprs(run.estimates[bet]),
                       ["0.0"] * training + _reprs(run.fractions[bet]),
                       _reprs(values[start + 1:stop + 1]))
