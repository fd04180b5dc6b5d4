"""The adaptive betting loop: sliding-window estimates, clamped fractions, paths."""

import csv
import io
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellylab import ModelValidationError, make_coin, run_adaptive, sample_path_indices
from kellylab.adaptive import _TRACE_BLOCK as BLOCK, trace_rows
from kellylab.cli import main
from kellylab.gamble import _reprs


def estimate_p(outcomes, k, window):
    """Scalar oracle: share of strictly positive outcomes among outcomes[k-window:k]."""
    x = np.asarray(outcomes, dtype=float)
    if k < window or x.size < k:
        raise ValueError(f"no full window ends at step {k}")
    return float(np.count_nonzero(x[k - window:k] > 0.0)) / window


def trace_rows_oracle(run):
    """The per-cell trace writer: one repr per cell."""
    x = run.path.outcomes[:, 0]
    values = run.path.values
    for k in range(x.size):
        if k < run.window:
            p_str, k_hat = "", 0.0
        else:
            p_str = repr(float(run.estimates[k - run.window]))
            k_hat = float(run.fractions[k - run.window])
        yield (k, repr(float(x[k])), p_str, repr(k_hat), repr(float(values[k + 1])))


def trace_rows_whole_run(run):
    """The one-shot trace builder: the text of every row is made before the
    first row is written."""
    n, w = run.path.outcomes.shape[0], run.window
    return zip(range(n), _reprs(run.path.outcomes[:, 0]),
               [""] * w + _reprs(run.estimates),
               _reprs(np.concatenate([np.zeros(w), run.fractions])),
               _reprs(run.path.values[1:]))


def csv_bytes(rows):
    """The trace file that the CLI writes for these rows."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["k", "outcome", "p_hat", "k_hat", "wealth"])
    writer.writerows(rows)
    return buf.getvalue().encode()


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
    # The second run's wealth passes 1.8e308 near step 9600 and becomes inf
    # there, in the run and in this loop alike.
    for p_true, n, window, seed in [(0.6, 300, 50, 2), (0.7, 20_000, 100, 1)]:
        with np.errstate(over="ignore"):
            run = run_adaptive(p_true, n, window, seed=seed)
            x = run.path.outcomes[:, 0]
            assert run.path.values.shape == (n + 1,) and run.path.values[0] == 1.0
            v = 1.0
            for k in range(n):
                if k >= window:
                    v = (1.0 + run.fractions[k - window] * x[k]) * v
                assert v == run.path.values[k + 1]
        assert math.isinf(v) == (n == 20_000)


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
    with pytest.raises(ValueError, match="window must be >= 1"):
        run_adaptive(0.6, 100, 0)


@pytest.mark.parametrize("p_true", [0.0, 1.0, 1.2, -0.1, math.nan])
def test_p_true_outside_the_unit_interval_is_the_coins_error(p_true):
    # make_coin is the one check of p_true; its error is a ValueError.
    with pytest.raises(ModelValidationError, match=r"win probability must be in \(0, 1\)"):
        run_adaptive(p_true, 100, 50)


def test_run_adaptive_checks_the_coin_before_the_window():
    # Both p_true and the window are invalid; the coin's error comes first.
    with pytest.raises(ModelValidationError, match=r"win probability must be in \(0, 1\)"):
        run_adaptive(1.2, 100, 100)


@pytest.mark.parametrize("n", [51, 300, 5000])
@pytest.mark.parametrize("p", [0.52, 0.6, 0.9])
def test_outcomes_are_path_0_of_the_coin_sampler(p, n):
    # The adaptive coin is drawn by the sampler every Monte Carlo path uses.
    # Wealth may overflow at p 0.9; only the outcomes are compared.
    coin = make_coin(1.0, -1.0, p)
    for seed in range(5):
        path_0 = sample_path_indices(coin, 1, n, seed)[:, 0]
        with np.errstate(over="ignore"):
            outcomes = run_adaptive(p, n, 50, seed).path.outcomes
        assert outcomes.shape == (n, 1)
        assert np.array_equal(outcomes, coin.xs[path_0])


def test_trace_rows_layout():
    run = run_adaptive(0.6, 60, 50, seed=5)
    rows = list(trace_rows(run))
    assert len(rows) == 60
    k, outcome, p_hat, k_hat, wealth = rows[0]
    assert k == 0 and p_hat == "" and k_hat == "0.0"
    assert rows[50][2] != ""


def test_reprs_format_each_value_as_its_own_repr():
    # -0.0 and 0.0 compare equal but print differently; nan is unequal to itself.
    x = 0.1 + 0.2
    values = np.array([-0.0, 0.0, math.inf, math.nan, x, x, 5e-324, -math.inf])
    assert _reprs(values) == [repr(float(v)) for v in values]
    assert _reprs(values)[:2] == ["-0.0", "0.0"]


@settings(max_examples=25, deadline=None)
@given(p_true=st.floats(0.01, 0.99), n=st.integers(2, 20_000),
       window_share=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_trace_rows_equal_the_per_cell_oracle(p_true, n, window_share, seed):
    window = 1 + int(window_share * (n - 2))
    with np.errstate(over="ignore"):    # wealth may overflow to inf
        run = run_adaptive(p_true, n, window, seed=seed)
    assert list(trace_rows(run)) == list(trace_rows_oracle(run))


@pytest.mark.parametrize("p_true,n,window,last", [
    (0.8, 20_000, 200, math.inf),
    # Every step's factor is positive: wealth reaches 0 through subnormals.
    (0.5, 50_000, 16, 0.0),
], ids=["overflow-to-inf", "underflow-to-zero"])
def test_trace_rows_equal_the_per_cell_oracle_at_the_float_limits(p_true, n, window, last):
    with np.errstate(over="ignore"):
        run = run_adaptive(p_true, n, window, seed=0)
    assert run.path.values[-1] == last
    assert np.all(1.0 + run.fractions * run.path.outcomes[window:, 0] > 0.0)
    assert list(trace_rows(run)) == list(trace_rows_oracle(run))


def test_lost_full_bet_after_an_overflow_leaves_wealth_zero():
    # Wealth overflows to inf at step 1534, and the full bet of step 2805
    # loses: the wealth is 0 from there on, not inf * 0 = NaN (which numpy
    # also warns about, an error under pytest).
    with np.errstate(over="ignore"):
        run = run_adaptive(0.96, 3000, 150, seed=0)
    v = run.path.values
    assert np.isinf(v[1534]) and not np.isinf(v[1533])
    assert np.isinf(v[2804]) and np.all(v[2805:] == 0.0)
    assert list(trace_rows(run)) == list(trace_rows_oracle(run))


def test_adaptive_trace_file_is_the_oracle_rows_through_csv_writer(capsys, tmp_path):
    code = main(["adaptive", "--p-true", "0.58", "--n", "3000", "--window", "40",
                 "--runs", "2", "--seed", "3", "--out", str(tmp_path / "a")])
    capsys.readouterr()
    assert code == 0
    for i in range(2):
        expected = csv_bytes(trace_rows_oracle(run_adaptive(0.58, 3000, 40, seed=3 + i)))
        assert (tmp_path / f"a.run{i}.csv").read_bytes() == expected


@pytest.mark.parametrize("p_true,n,window,seed,last", [
    (0.6, BLOCK - 1, 50, 0, None),
    (0.6, BLOCK, 50, 1, None),
    (0.6, BLOCK + 1, 50, 2, None),
    (0.6, 3 * BLOCK + 7, 50, 3, None),
    # Training ends inside the second block, so that block starts with
    # blank p_hat cells.
    (0.6, 3 * BLOCK + 7, BLOCK + 100, 4, None),
    # A lost full bet at step 2321 leaves wealth 0 for the rest of the run.
    (0.6, 3 * BLOCK + 7, 14, 1, 0.0),
    # Wealth overflows to inf at step 3827.
    (0.8, 3 * BLOCK + 7, 200, 0, math.inf),
], ids=["block-1", "block", "block+1", "3block+7", "window-in-block-2", "ruin", "overflow"])
def test_streamed_trace_equals_the_whole_run_builder(p_true, n, window, seed, last):
    with np.errstate(over="ignore"):
        run = run_adaptive(p_true, n, window, seed=seed)
    if last is not None:
        assert run.path.values[-1] == last and run.path.values[BLOCK] != last
    assert csv_bytes(trace_rows(run)) == csv_bytes(trace_rows_whole_run(run))


def test_trace_writer_holds_one_block_of_text():
    # The whole run's text takes 21.6 MiB here, and copies of the run's
    # estimates and fractions about 3 MiB.
    run = run_adaptive(0.52, 200_000, 50, seed=0)
    with open(os.devnull, "w", newline="") as sink:
        writer = csv.writer(sink)
        tracemalloc.start()
        try:
            writer.writerows(trace_rows(run))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 2 * 2**20
