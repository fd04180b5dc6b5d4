"""The adaptive betting loop: sliding-window estimates, clamped fractions, paths."""

import numpy as np
import pytest

from kellylab import run_adaptive
from kellylab.adaptive import trace_rows


def estimate_p(outcomes, k, window):
    """Scalar oracle: share of strictly positive outcomes among outcomes[k-window:k]."""
    x = np.asarray(outcomes, dtype=float)
    if k < window or x.size < k:
        raise ValueError(f"no full window ends at step {k}")
    return float(np.count_nonzero(x[k - window:k] > 0.0)) / window


def windows(run):
    """(estimate, fraction, outcomes of its window) for every betting step."""
    x = run.path.outcomes[:, 0]
    w = run.window
    return [(run.estimates[i], run.fractions[i], x[i:i + w]) for i in range(run.estimates.size)]


# ---------------------------------------------------------------------------
# Window estimates
# ---------------------------------------------------------------------------

def test_all_wins_window():
    hits = [est for est, _, win in windows(run_adaptive(0.6, 400, 3, seed=0)) if np.all(win > 0)]
    assert hits and all(est == 1.0 for est in hits)


def test_all_losses_window():
    hits = [est for est, _, win in windows(run_adaptive(0.6, 400, 3, seed=0)) if np.all(win < 0)]
    assert hits and all(est == 0.0 for est in hits)


def test_alternating_window():
    pattern = [1.0, -1.0, 1.0, -1.0]
    hits = [est for est, _, win in windows(run_adaptive(0.6, 600, 4, seed=1))
            if list(win) == pattern]
    assert hits and all(est == 0.5 for est in hits)


def test_window_slides():
    # Step k's estimate drops the outcome of step k - window and adds step k - 1.
    run = run_adaptive(0.6, 300, 2, seed=2)
    x = run.path.outcomes[:, 0]
    assert np.array_equal(np.diff(run.estimates) * 2,
                          (x[2:-1] > 0).astype(float) - (x[:-3] > 0))


def test_zero_outcome_counts_as_loss():
    # The oracle's rule; run_adaptive itself draws only +1 and -1.
    assert estimate_p([0.0, 1.0], 2, 2) == 0.5
    assert set(np.unique(run_adaptive(0.6, 200, 10, seed=3).path.outcomes)) == {-1.0, 1.0}


def test_rejects_training_period_queries():
    with pytest.raises(ValueError):
        estimate_p([1, 1, 1], 2, 3)
    with pytest.raises(ValueError):
        estimate_p([1, 1], 3, 2)
    # The run has no estimate before its window is full.
    assert run_adaptive(0.6, 100, 30, seed=4).estimates.size == 100 - 30


# ---------------------------------------------------------------------------
# Fractions: clip(2 * estimate - 1, 0, 1)
# ---------------------------------------------------------------------------

def test_fair_coin_no_bet():
    hits = [k for est, k, _ in windows(run_adaptive(0.6, 400, 10, seed=5)) if est == 0.5]
    assert hits and all(k == 0.0 for k in hits)


def test_slight_edge():
    hits = [k for est, k, _ in windows(run_adaptive(0.6, 400, 10, seed=5)) if est == 0.6]
    assert hits and all(k == pytest.approx(0.2) for k in hits)


def test_clamped_below():
    hits = [k for est, k, _ in windows(run_adaptive(0.6, 400, 10, seed=5)) if est < 0.5]
    assert hits and all(k == 0.0 for k in hits)


def test_clamped_range():
    for seed in range(5):
        run = run_adaptive(0.6, 300, 5, seed=seed)
        assert np.all((0.0 <= run.fractions) & (run.fractions <= 1.0))
        assert np.array_equal(run.fractions, np.clip(2.0 * run.estimates - 1.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# run_adaptive
# ---------------------------------------------------------------------------

def test_run_shapes_and_training_freeze():
    run = run_adaptive(0.6, 200, 50, seed=0)
    assert run.estimates.size == 150 and run.fractions.size == 150
    assert run.path.values.size == 201
    assert np.all(run.path.values[: 51] == 1.0)


def test_estimates_match_estimate_p():
    run = run_adaptive(0.6, 120, 30, seed=1)
    x = run.path.outcomes[:, 0]
    for i, k in enumerate(range(30, 120)):
        assert run.estimates[i] == estimate_p(x, k, 30)
    assert np.array_equal(run.fractions, np.clip(2.0 * run.estimates - 1.0, 0.0, 1.0))


def test_path_reconstruction_is_exact():
    run = run_adaptive(0.6, 300, 50, seed=2)
    x = run.path.outcomes[:, 0]
    v = 1.0
    for k in range(300):
        if k >= 50:
            v = (1.0 + run.fractions[k - 50] * x[k]) * v
        assert v == run.path.values[k + 1]


def test_estimate_moves_at_most_one_over_window():
    run = run_adaptive(0.6, 500, 50, seed=3)
    steps = np.abs(np.diff(run.estimates))
    assert np.all(steps <= 1.0 / 50 + 1e-15)


def test_fractions_always_survival_feasible():
    for seed in range(10):
        run = run_adaptive(0.55, 400, 40, seed=seed)
        assert np.all(run.fractions >= 0.0) and np.all(run.fractions <= 1.0)
        assert np.all(run.path.values > 0.0)


def test_window_mean_is_unbiased():
    total, count = 0.0, 0
    for seed in range(40):
        run = run_adaptive(0.6, 1000, 50, seed=seed)
        total += float(run.estimates.sum())
        count += run.estimates.size
    assert abs(total / count - 0.6) < 0.01


def test_no_edge_coin_stays_near_start():
    finals = [run_adaptive(0.5, 600, 50, seed=s).path.values[-1] for s in range(40)]
    assert 0.05 < float(np.median(finals)) < 5.0


def test_deterministic_given_seed():
    a = run_adaptive(0.6, 400, 50, seed=42)
    b = run_adaptive(0.6, 400, 50, seed=42)
    assert np.array_equal(a.path.values, b.path.values)
    assert np.array_equal(a.estimates, b.estimates)
    assert list(trace_rows(a)) == list(trace_rows(b))


def test_validation():
    with pytest.raises(ValueError):
        run_adaptive(0.6, 100, 100)
    with pytest.raises(ValueError):
        run_adaptive(1.2, 100, 50)


def test_trace_rows_layout():
    run = run_adaptive(0.6, 60, 50, seed=5)
    rows = list(trace_rows(run))
    assert len(rows) == 60
    k, outcome, p_hat, k_hat, wealth = rows[0]
    assert k == 0 and p_hat == "" and k_hat == "0.0"
    assert rows[50][2] != ""
