"""Per-path drawdowns, enumeration vs Monte Carlo, constraints, probe."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellylab import (ConstraintSpec, EnumerationBudgetError, GambleModel,
                      MonteCarloConfig, coin_drawdown_probability, convexity_probe,
                      dbar_samples, drawdown_exceedance_exact, enumerate_dbar,
                      expected_complementary_exact, expected_drawdown_exact,
                      expected_drawdown_mc, expected_log_complementary, independent_join,
                      is_feasible, log_growth, make_coin, maximize_growth,
                      maximize_growth_constrained, mean_se, sample_indices,
                      sample_path_indices, write_level_set_csv)
from kellylab.config import GRID_STEP

EVEN9 = make_coin(1.0, -1.0, 0.9)
SKEWED = make_coin(0.15, -0.95, 0.95)
TWO_COINS = independent_join(EVEN9, EVEN9)


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

def pairwise_drawdown(values):
    """O(N^2) scan over all peak/trough pairs; a peak at wealth 0 (after
    ruin) is skipped, since the peak before the ruin already gives 1."""
    best = 0.0
    for l in range(len(values)):
        if values[l] <= 0.0:
            continue
        for k in range(l, len(values)):
            best = max(best, (values[l] - values[k]) / values[l])
    return best


def enumerate_drawdowns_oracle(model, k, n_steps):
    """Pure-python itertools enumeration, independent of the vectorized engine."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    out = []
    for combo in itertools.product(range(model.n_atoms), repeat=n_steps):
        prob = 1.0
        values = [1.0]
        for idx in combo:
            prob *= float(model.probs[idx])
            values.append(values[-1] * max(1.0 + float(model.xs[idx] @ k), 0.0))
        out.append((prob, pairwise_drawdown(values)))
    return out


def path_values(model, k, column):
    """Wealth V(0..N) of one CRN path (a column of the index matrix), rebuilt
    step by step independently of the kernel."""
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    values = [1.0]
    for idx in column:
        values.append(values[-1] * max(1.0 + float(model.xs[idx] @ kv), 0.0))
    return values


def dbar_of_values(values):
    """Kernel dbar of a given wealth sequence V(0..N), V(0) = 1.

    Step j's ratio V(j+1)/V(j) becomes atom j of a one-asset model; at K = 1
    its factor is that ratio, so the path visiting atoms 0..N-1 in order
    reproduces the sequence. A step after ruin gets ratio 1.
    """
    v = np.asarray(values, dtype=float)
    ratios = np.divide(v[1:], v[:-1], out=np.ones(v.size - 1), where=v[:-1] > 0.0)
    model = GambleModel(xs=(ratios - 1.0)[:, None], probs=np.full(ratios.size, 1.0 / ratios.size))
    return float(dbar_samples(model, 1.0, np.arange(ratios.size)[:, None])[0])


# ---------------------------------------------------------------------------
# Per-path drawdown of the kernel
# ---------------------------------------------------------------------------

def test_zero_bet_constant_path():
    idx = sample_path_indices(SKEWED, 300, 50, seed=0)
    assert np.all(dbar_samples(SKEWED, 0.0, idx) == 1.0)


def test_total_loss_absorbs_at_zero():
    # Betting everything on an even coin: one loss is ruin, and ruin is final.
    coin = make_coin(1.0, -1.0, 0.6)
    idx = sample_path_indices(coin, 300, 5, seed=1)
    dbar = dbar_samples(coin, 1.0, idx)
    lost = (idx == 1).any(axis=0)
    assert lost.any() and not lost.all()
    assert np.all(dbar[lost] == 0.0) and np.all(dbar[~lost] == 1.0)


def test_path_reconstruction_against_independent_recursion():
    # Two assets: each path rebuilt from its column of the CRN matrix.
    k = np.array([0.2, 0.3])
    idx = sample_path_indices(TWO_COINS, 60, 40, seed=2)
    dbar = dbar_samples(TWO_COINS, k, idx)
    for j in range(idx.shape[1]):
        drawdown = pairwise_drawdown(path_values(TWO_COINS, k, idx[:, j]))
        assert 1.0 - dbar[j] == pytest.approx(drawdown, abs=1e-12)


def test_path_input_validation():
    idx = sample_path_indices(SKEWED, 100, 10, seed=0)
    with pytest.raises(ValueError, match="infeasible"):
        dbar_samples(SKEWED, 2.0, idx)
    with pytest.raises(ValueError, match="infeasible"):
        dbar_samples(SKEWED, -0.1, idx)
    with pytest.raises(ValueError, match="dimension"):
        dbar_samples(SKEWED, [0.1, 0.2], idx)


def test_drawdown_of_monotone_path_is_zero():
    assert dbar_of_values([1.0, 1.1, 1.1, 2.0]) == 1.0


def test_drawdown_of_small_example():
    assert 1.0 - dbar_of_values([1.0, 2.0, 1.0, 3.0]) == pytest.approx(0.5, abs=1e-15)


def test_ruin_path_has_unit_drawdown():
    dbar = dbar_of_values([1.0, 2.0, 0.0, 0.0])
    assert dbar == 0.0
    assert ConstraintSpec(kind="expected", epsilon=0.5).statistic(np.array([dbar])) == (1.0, 0.0)
    with np.errstate(divide="ignore"):
        assert np.log(dbar) == -math.inf


def test_single_pass_equals_pairwise_oracle():
    # Random models and fractions, paths rebuilt from the CRN matrix. Every
    # third model has an exact -1 atom bet at K = 1: a ruin factor, dbar = 0.
    rng = np.random.default_rng(5)
    for trial in range(30):
        m = int(rng.integers(2, 5))
        xs = rng.uniform(-0.9, 1.5, size=(m, 1))
        k = float(rng.uniform(0.0, 1.0))
        if trial % 3 == 0:
            xs[0, 0], k = -1.0, 1.0
        model = GambleModel(xs=xs, probs=rng.dirichlet(np.ones(m)))
        idx = sample_path_indices(model, 40, int(rng.integers(2, 40)), seed=trial)
        dbar = dbar_samples(model, k, idx)
        for j in range(idx.shape[1]):
            values = path_values(model, k, idx[:, j])
            assert 1.0 - dbar[j] == pytest.approx(pairwise_drawdown(values), abs=1e-12)
            assert (dbar[j] == 0.0) == (min(values) == 0.0)
        if trial % 3 == 0:
            assert np.array_equal(dbar == 0.0, (idx == 0).any(axis=0))


def test_drawdown_plus_complement_is_one_on_simulated_paths():
    rng = np.random.default_rng(6)
    expected = ConstraintSpec(kind="expected", epsilon=0.5)
    idx = sample_path_indices(SKEWED, 500, 80, seed=6)
    for k in rng.uniform(0.0, 1.0, size=20):
        dbar = dbar_samples(SKEWED, k, idx)
        assert np.all((0.0 <= dbar) & (dbar <= 1.0))
        est, _ = expected.statistic(dbar)
        assert abs(est + float(dbar.mean()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Analytic even-coin formula
# ---------------------------------------------------------------------------

def test_coin_probability_single_step():
    assert coin_drawdown_probability(0.7, 1) == pytest.approx(0.3, abs=1e-15)


def test_coin_probability_matches_itertools_enumeration():
    # Event {D >= K} is exactly {at least one loss} for the even coin.
    p, n, k = 0.9, 10, 0.8
    oracle = sum(prob for prob, d in enumerate_drawdowns_oracle(make_coin(1, -1, p), k, n)
                 if d >= k - 1e-12)
    assert coin_drawdown_probability(p, n) == pytest.approx(oracle, abs=1e-12)
    assert coin_drawdown_probability(p, n) == pytest.approx(1 - 0.9**10, abs=1e-15)


def test_exceedance_exact_equals_analytic():
    for p, k in ((0.5, 0.37), (0.9, 0.8), (0.99, 0.98)):
        coin = make_coin(1.0, -1.0, p)
        for n in (1, 5, 12, 16):
            assert abs(drawdown_exceedance_exact(coin, k, n, threshold=k)
                       - coin_drawdown_probability(p, n)) <= 1e-12


# ---------------------------------------------------------------------------
# Exact enumeration
# ---------------------------------------------------------------------------

def test_expected_drawdown_exact_zero_bet():
    assert expected_drawdown_exact(SKEWED, 0.0, 8) == 0.0


def test_expected_drawdown_exact_frozen_hand_value():
    # 8-sequence hand enumeration of coin(1,-1,0.9) at K=0.5, N=3.
    assert expected_drawdown_exact(EVEN9, 0.5, 3) == pytest.approx(0.1415, abs=1e-12)


def test_enumeration_matches_itertools_oracle():
    rng = np.random.default_rng(8)
    for _ in range(10):
        m = GambleModel(xs=rng.uniform(-0.9, 1.5, size=(2, 1)),
                        probs=np.array([0.3, 0.7]))
        k = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, 7))
        oracle = sum(p * d for p, d in enumerate_drawdowns_oracle(m, k, n))
        assert expected_drawdown_exact(m, k, n) == pytest.approx(oracle, abs=1e-12)


def test_enumeration_budget_enforced():
    with pytest.raises(EnumerationBudgetError):
        expected_drawdown_exact(EVEN9, 0.5, 21)


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_mc_zero_bet_is_exactly_zero():
    est, se = expected_drawdown_mc(SKEWED, 0.0, 100, 500, seed=0)
    assert est == 0.0 and se == 0.0


def test_mc_matches_exact_within_three_sigma():
    rng = np.random.default_rng(9)
    for _ in range(8):
        m = GambleModel(xs=rng.uniform(-0.9, 1.5, size=(2, 1)),
                        probs=np.array([0.4, 0.6]))
        k = float(rng.uniform(0.1, 1.0))
        n = int(rng.integers(3, 11))
        exact = expected_drawdown_exact(m, k, n)
        est, se = expected_drawdown_mc(m, k, n, 4000, seed=int(rng.integers(10**6)))
        assert abs(est - exact) <= 3 * max(se, 1e-12)


def test_mc_probability_trivial_cases():
    spec = ConstraintSpec(kind="probabilistic", epsilon=0.5, delta=0.1)
    idx = sample_path_indices(SKEWED, 500, 100, seed=0)
    assert spec.statistic(dbar_samples(SKEWED, 0.0, idx)) == (1.0, 0.0)
    # All in on the even coin: P(D <= 0.5) is the share of paths with no loss.
    idx = sample_path_indices(EVEN9, 500, 5, seed=0)
    est, _ = spec.statistic(dbar_samples(EVEN9, 1.0, idx))
    assert est == float(np.mean(~(idx == 1).any(axis=0)))


def test_mc_probability_matches_coin_formula():
    coin = make_coin(1.0, -1.0, 0.99)
    spec = ConstraintSpec(kind="probabilistic", epsilon=0.979, delta=0.1)
    idx = sample_path_indices(coin, 10_000, 252, seed=3)
    est, se = spec.statistic(dbar_samples(coin, 0.98, idx))
    assert abs(est - 0.99**252) <= 3 * se


def test_mc_standard_error_scales_as_sqrt_paths():
    # Quadrupling the path count should halve SE, within 20%.
    _, se1 = expected_drawdown_mc(SKEWED, 0.5, 100, 2_000, seed=4)
    _, se2 = expected_drawdown_mc(SKEWED, 0.5, 100, 8_000, seed=5)
    assert 0.4 <= se2 / se1 <= 0.6


def test_mc_requires_minimum_paths():
    with pytest.raises(ValueError):
        expected_drawdown_mc(SKEWED, 0.1, 10, 50, seed=0)


def test_common_random_numbers_are_reused():
    idx1 = sample_path_indices(SKEWED, 200, 50, seed=11)
    idx2 = sample_path_indices(SKEWED, 200, 50, seed=11)
    assert np.array_equal(idx1, idx2)
    d1 = dbar_samples(SKEWED, 0.3, idx1)
    d2 = dbar_samples(SKEWED, 0.3, idx2)
    assert np.array_equal(d1, d2)


# ---------------------------------------------------------------------------
# The shared drawdown kernel: step-major CRN matrix, fraction batches
# ---------------------------------------------------------------------------

FOUR_ATOMS = GambleModel(xs=[[0.4], [0.1], [-0.2], [-0.7]], probs=[0.3, 0.3, 0.25, 0.15])


def dbar_samples_loop(model, k, indices):
    """The per-fraction, path-major recursion the kernel replaced."""
    f_atom = np.maximum(1.0 + model.xs @ np.atleast_1d(np.asarray(k, dtype=float)), 0.0)
    paths, n_steps = indices.shape
    r = np.ones(paths)
    dbar = np.ones(paths)
    for j in range(n_steps):
        r *= f_atom[indices[:, j]]
        np.minimum(r, 1.0, out=r)
        np.minimum(dbar, r, out=dbar)
    return dbar


def enumerate_dbar_loop(model, k, n_steps):
    """The whole-array enumeration the kernel replaced."""
    f_atom = np.maximum(1.0 + model.xs @ np.atleast_1d(np.asarray(k, dtype=float)), 0.0)
    m = model.n_atoms
    total = m ** n_steps
    seq = np.arange(total, dtype=np.int64)
    r = np.ones(total)
    dbar = np.ones(total)
    prob = np.ones(total)
    stride = total
    for _ in range(n_steps):
        stride //= m
        idx = (seq // stride) % m
        r = r * f_atom[idx]
        np.minimum(r, 1.0, out=r)
        np.minimum(dbar, r, out=dbar)
        prob = prob * model.probs[idx]
    return prob, dbar


@pytest.mark.parametrize("model", [SKEWED, FOUR_ATOMS], ids=["2-atom", "4-atom"])
@pytest.mark.parametrize("paths", [100, 256, 700])
def test_step_major_matrix_is_transposed_sample(model, paths):
    # Below, equal to, and not a multiple of the sampling chunk of 256 paths.
    idx = sample_path_indices(model, paths, 37, seed=5)
    ref = sample_indices(model, (paths, 37), np.random.default_rng(5)).T
    assert idx.shape == (37, paths) and idx.dtype == np.intp
    assert np.array_equal(idx, ref)


@pytest.mark.parametrize("model,ks", [
    (FOUR_ATOMS, np.linspace(0.0, 1.0, 101)[:, None]),
    (TWO_COINS, np.array([[a, b] for a in np.linspace(0.0, 1.0, 21)
                          for b in np.linspace(0.0, 1.0, 21) if a + b <= 1.0])),
], ids=["1-asset", "2-asset"])
def test_batched_rows_equal_single_calls_bitwise(model, ks):
    # 1000 paths span several kernel blocks; 231 fractions exceed one block's width.
    idx = sample_path_indices(model, 1000, 60, seed=3)
    batch = dbar_samples(model, ks, idx)
    assert batch.shape == (len(ks), 1000)
    for kv, row in zip(ks, batch):
        single = dbar_samples(model, kv, idx)
        assert single.shape == (1000,)
        assert np.array_equal(row, single)
        assert np.array_equal(row, dbar_samples_loop(model, kv, idx.T))


@pytest.mark.parametrize("model", [EVEN9, SKEWED, FOUR_ATOMS, TWO_COINS],
                         ids=["even", "skewed", "4-atom", "2-asset"])
def test_enumeration_equals_whole_array_loop_bitwise(model):
    # N <= 10, or up to the enumeration budget: 4^10 exceeds it.
    rng = np.random.default_rng(17)
    for n in range(1, 11 if model.n_atoms == 2 else 10):
        k = rng.dirichlet(np.ones(model.n_assets + 1))[:model.n_assets]
        prob, dbar = enumerate_dbar(model, k, n)
        ref_prob, ref_dbar = enumerate_dbar_loop(model, k, n)
        assert np.array_equal(prob, ref_prob)
        assert np.array_equal(dbar, ref_dbar)


def test_enumeration_with_ruin_factor():
    prob, dbar = enumerate_dbar(EVEN9, 1.0, 8)
    ref_prob, ref_dbar = enumerate_dbar_loop(EVEN9, 1.0, 8)
    assert np.array_equal(prob, ref_prob) and np.array_equal(dbar, ref_dbar)
    assert dbar.min() == 0.0


def test_out_of_range_index_raises():
    idx = sample_path_indices(SKEWED, 300, 20, seed=1)
    idx[7, 123] = 2
    with pytest.raises(IndexError):
        dbar_samples(SKEWED, 0.3, idx)
    idx[7, 123] = -3
    with pytest.raises(IndexError):
        dbar_samples(SKEWED, [[0.1], [0.3]], idx)


def test_negative_index_counts_from_the_end():
    # As in fancy indexing, -1 is the last atom.
    idx = sample_path_indices(SKEWED, 300, 20, seed=1)
    neg = np.where(idx == 1, -1, idx)
    assert np.array_equal(dbar_samples(SKEWED, 0.4, neg), dbar_samples(SKEWED, 0.4, idx))


def test_batch_rejects_infeasible_row():
    idx = sample_path_indices(SKEWED, 100, 10, seed=1)
    with pytest.raises(ValueError, match="infeasible"):
        dbar_samples(SKEWED, [[0.2], [1.5]], idx)


# ---------------------------------------------------------------------------
# E[log(1 - D)] and the concave surrogate
# ---------------------------------------------------------------------------

def test_log_complementary_zero_bet():
    res = expected_log_complementary(SKEWED, 0.0, 8)
    assert res.value == 0.0 and res.exact


def test_log_complementary_ruin_is_minus_inf():
    res = expected_log_complementary(make_coin(1.0, -1.0, 0.6), 1.0, 5)
    assert res.value == -math.inf and res.exact


def test_log_complementary_midpoint_concavity():
    rng = np.random.default_rng(12)
    for _ in range(50):
        k1, k2 = rng.uniform(0.0, 0.99, size=2)
        e1 = expected_log_complementary(EVEN9, k1, 8).value
        e2 = expected_log_complementary(EVEN9, k2, 8).value
        em = expected_log_complementary(EVEN9, 0.5 * (k1 + k2), 8).value
        assert em >= 0.5 * (e1 + e2) - 1e-10


def test_jensen_direction():
    rng = np.random.default_rng(14)
    for _ in range(30):
        k = float(rng.uniform(0.0, 0.99))
        lhs = math.exp(expected_log_complementary(EVEN9, k, 8).value)
        rhs = expected_complementary_exact(EVEN9, k, 8)
        assert lhs <= rhs + 1e-12


def test_log_complementary_mc_fallback_is_flagged():
    # 2^30 sequences exceed ENUM_BUDGET.
    res = expected_log_complementary(EVEN9, 0.3, 30, mc=MonteCarloConfig(paths=2000, seed=1))
    assert not res.exact
    assert res.std_error is not None
    exact_small = expected_log_complementary(EVEN9, 0.3, 10).value
    # sanity: the MC value at a longer horizon sits below the short-horizon one
    assert res.value < exact_small


# ---------------------------------------------------------------------------
# Constrained maximization
# ---------------------------------------------------------------------------

def test_vacuous_constraint_recovers_unconstrained():
    spec = ConstraintSpec(kind="expected", epsilon=0.999999)
    res = maximize_growth_constrained(SKEWED, 30, spec,
                                      mc=MonteCarloConfig(paths=500, seed=0))
    assert res.method == "unconstrained-feasible"
    assert res.k_star[0] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_expected_drawdown_constraint_binds():
    spec = ConstraintSpec(kind="expected", epsilon=0.2)
    res = maximize_growth_constrained(SKEWED, 252, spec,
                                      mc=MonteCarloConfig(paths=2_000, seed=0))
    assert res.converged
    assert res.constraint_estimate <= 0.2 + 1e-12
    assert 0.05 <= res.k_star[0] <= 0.15


def test_probabilistic_constraint_is_conservative():
    spec = ConstraintSpec(kind="probabilistic", epsilon=0.5, delta=0.1)
    res = maximize_growth_constrained(EVEN9, 60, spec,
                                      mc=MonteCarloConfig(paths=2_000, seed=1))
    assert res.constraint_estimate - 3 * res.constraint_std_error >= 0.9 - 1e-12
    assert res.k_star[0] < maximize_growth(EVEN9).k_star[0]


def test_surrogate_solution_is_exactly_feasible():
    spec = ConstraintSpec(kind="surrogate", epsilon=0.3)
    res = maximize_growth_constrained(EVEN9, 10, spec)
    h = expected_log_complementary(EVEN9, res.k_star, 10).value
    assert h >= math.log(1 - 0.3)
    assert res.k_star[0] < maximize_growth(EVEN9).k_star[0]


def test_surrogate_two_assets():
    spec = ConstraintSpec(kind="surrogate", epsilon=0.25)
    res = maximize_growth_constrained(TWO_COINS, 6, spec)
    h = expected_log_complementary(TWO_COINS, res.k_star, 6).value
    assert h >= math.log(0.75) - 1e-12
    assert res.g_star > 0.0


@pytest.mark.parametrize("model,n_steps,spec,builds", [
    (SKEWED, 120, ConstraintSpec(kind="expected", epsilon=0.2), 1),
    (EVEN9, 60, ConstraintSpec(kind="probabilistic", epsilon=0.5, delta=0.1), 1),
    (TWO_COINS, 30, ConstraintSpec(kind="expected", epsilon=0.1), 1),
    (TWO_COINS, 12, ConstraintSpec(kind="surrogate", epsilon=0.2), 1),   # MC fallback
    (TWO_COINS, 6, ConstraintSpec(kind="surrogate", epsilon=0.1), 0),    # enumeration
], ids=["1d-expected", "1d-probabilistic", "2d-scan", "2d-surrogate-mc", "2d-surrogate-exact"])
def test_search_builds_crn_matrix_at_most_once(monkeypatch, model, n_steps, spec, builds):
    from kellylab import drawdown
    calls = []
    original = drawdown.sample_path_indices

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(drawdown, "sample_path_indices", counting)
    res = maximize_growth_constrained(model, n_steps, spec,
                                      mc=MonteCarloConfig(paths=300, seed=2))
    assert res.method != "unconstrained-feasible"
    assert len(calls) == builds


@pytest.mark.parametrize("n_steps,enumerates", [(12, False), (6, True)],
                         ids=["over-budget", "exact"])
def test_surrogate_chooses_estimator_without_calling_enumeration(monkeypatch, n_steps,
                                                                  enumerates):
    # 4^12 sequences exceed the budget: the Monte Carlo fallback is chosen by
    # counting sequences, not by asking enumerate_dbar to raise.
    from kellylab import drawdown
    seen = []
    original = drawdown.enumerate_dbar

    def counting(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(drawdown, "enumerate_dbar", counting)
    spec = ConstraintSpec(kind="surrogate", epsilon=0.1)
    res = maximize_growth_constrained(TWO_COINS, n_steps, spec,
                                      mc=MonteCarloConfig(paths=300, seed=2))
    assert res.method == "surrogate-ascent"
    assert (len(seen) > 0) == enumerates


@pytest.mark.parametrize("model,n_steps,spec,method", [
    (SKEWED, 120, ConstraintSpec(kind="expected", epsilon=0.2), "grid-refine"),
    (EVEN9, 60, ConstraintSpec(kind="probabilistic", epsilon=0.5, delta=0.1), "grid-refine"),
    (TWO_COINS, 30, ConstraintSpec(kind="expected", epsilon=0.1), "grid-scan"),
    (EVEN9, 10, ConstraintSpec(kind="surrogate", epsilon=0.3), "surrogate-bisect"),
    (SKEWED, 40, ConstraintSpec(kind="surrogate", epsilon=0.2), "surrogate-bisect"),  # MC
    (TWO_COINS, 6, ConstraintSpec(kind="surrogate", epsilon=0.1), "surrogate-ascent"),
    (TWO_COINS, 12, ConstraintSpec(kind="surrogate", epsilon=0.2), "surrogate-ascent"),  # MC
    (SKEWED, 30, ConstraintSpec(kind="expected", epsilon=0.999999), "unconstrained-feasible"),
], ids=["1d-expected", "1d-probabilistic", "2d-scan", "1d-surrogate-exact",
        "1d-surrogate-mc", "2d-surrogate-exact", "2d-surrogate-mc", "unconstrained-feasible"])
def test_search_estimates_each_allocation_once(monkeypatch, model, n_steps, spec, method):
    # Every estimate goes through _batch_stats (expected, probabilistic) or
    # _log_complementary (surrogate); record the allocations each one sees.
    from kellylab import drawdown
    seen = []
    batch_stats, log_complementary = drawdown._batch_stats, drawdown._log_complementary

    def counting_batch_stats(model, spec, ks, indices):
        seen.extend(np.asarray(k, dtype=float).tobytes() for k in ks)
        return batch_stats(model, spec, ks, indices)

    def counting_log_complementary(model, k, *args):
        seen.append(np.asarray(k, dtype=float).tobytes())
        return log_complementary(model, k, *args)

    monkeypatch.setattr(drawdown, "_batch_stats", counting_batch_stats)
    monkeypatch.setattr(drawdown, "_log_complementary", counting_log_complementary)
    res = maximize_growth_constrained(model, n_steps, spec,
                                      mc=MonteCarloConfig(paths=300, seed=2))
    assert res.method == method
    assert len(seen) == len(set(seen))
    assert res.iterations == len(seen)


def test_three_asset_search_dispatch(monkeypatch):
    from kellylab import drawdown
    calls = []
    original = drawdown.sample_path_indices

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(drawdown, "sample_path_indices", counting)
    three = independent_join(EVEN9, EVEN9, SKEWED)
    with pytest.raises(ValueError, match="1 or 2 assets"):
        maximize_growth_constrained(three, 30, ConstraintSpec(kind="expected", epsilon=0.1))
    assert calls == []
    res = maximize_growth_constrained(three, 4, ConstraintSpec(kind="surrogate", epsilon=0.1))
    assert res.method == "surrogate-ascent"
    assert calls == []   # 8^4 sequences are enumerated, so no CRN matrix is sampled


@pytest.mark.parametrize("paths,n_steps", [(0, 10), (10, 0), (-1, 10)])
def test_sample_path_indices_rejects_empty_sizes(paths, n_steps):
    with pytest.raises(ValueError, match="paths >= 1 and n_steps >= 1"):
        sample_path_indices(SKEWED, paths, n_steps, seed=0)


def test_grid_scan_keeps_first_of_tied_points():
    # Two identical, perfectly correlated assets: swapped allocations give the
    # same wealth factors bit for bit, so their growth and estimates tie. The
    # scan visits K1 in ascending order and keeps the first best point.
    m = GambleModel(xs=[[1.0, 1.0], [-1.0, -1.0]], probs=[0.8, 0.2])
    res = maximize_growth_constrained(m, 30, ConstraintSpec(kind="expected", epsilon=0.2),
                                      mc=MonteCarloConfig(paths=200, seed=1))
    assert res.method == "grid-scan"
    assert res.k_star[0] == 0.0 and res.k_star[1] > 0.0
    assert log_growth(res.k_star[::-1], m) == res.g_star


def test_membership_rules():
    expected = ConstraintSpec(kind="expected", epsilon=0.2)
    assert expected.contains(0.2) and not expected.contains(0.21)
    assert expected.contains_conservatively(0.2, 0.5)
    prob = ConstraintSpec(kind="probabilistic", epsilon=0.3, delta=0.1)
    assert prob.contains(0.9) and not prob.contains(0.89)
    # Conservative: the 3-sigma band must clear the floor 0.9.
    assert prob.contains_conservatively(0.93, 0.01)
    assert not prob.contains_conservatively(0.93, 0.011)
    dbar = np.array([1.0, 0.9, 0.6, 0.75])
    assert expected.statistic(dbar) == mean_se(1.0 - dbar)
    assert prob.statistic(dbar) == mean_se(np.array([1.0, 1.0, 0.0, 1.0]))


@pytest.mark.parametrize("spec,boundary", [
    (ConstraintSpec(kind="expected", epsilon=0.2), 0.2),
    (ConstraintSpec(kind="probabilistic", epsilon=0.3, delta=0.1), 1.0 - 0.1),
    (ConstraintSpec(kind="surrogate", epsilon=0.3), math.log(1.0 - 0.3)),
], ids=["expected", "probabilistic", "surrogate"])
def test_slack_and_contains_agree_in_sign(spec, boundary):
    # slack is eps - E[D], P - (1 - delta) or h - log(1 - eps): positive inside.
    inward = -1.0 if spec.kind == "expected" else 1.0
    assert spec.slack(boundary) == 0.0 and spec.contains(boundary)
    assert spec.slack(boundary + inward * 0.05) == pytest.approx(0.05, abs=1e-15)
    assert not spec.contains(np.nextafter(boundary, -inward * math.inf))
    assert spec.contains(np.nextafter(boundary, inward * math.inf))
    for est in (boundary, np.nextafter(boundary, 2.0), np.nextafter(boundary, -2.0),
                boundary - 0.3, boundary + 0.3, 0.0, 1.0, -math.inf):
        assert spec.contains(est) == (spec.slack(est) >= 0.0)
    if spec.kind != "expected":
        # A ruinous surrogate value, or a probability driven to -inf, is outside.
        assert spec.slack(-math.inf) == -math.inf and not spec.contains(-math.inf)


def test_constraint_spec_validation():
    with pytest.raises(ValueError):
        ConstraintSpec(kind="expected", epsilon=1.5)
    with pytest.raises(ValueError):
        ConstraintSpec(kind="probabilistic", epsilon=0.5)
    with pytest.raises(ValueError):
        ConstraintSpec(kind="nope", epsilon=0.5)


# ---------------------------------------------------------------------------
# Convexity probe
# ---------------------------------------------------------------------------

def test_probe_requires_two_assets():
    spec = ConstraintSpec(kind="expected", epsilon=0.3)
    with pytest.raises(ValueError, match="2-asset"):
        convexity_probe(SKEWED, 20, spec)


def test_probe_near_vacuous_level_has_no_violations():
    spec = ConstraintSpec(kind="expected", epsilon=0.999)
    rep = convexity_probe(TWO_COINS, 20, spec, grid_resolution=20, pair_samples=30,
                          mc=MonteCarloConfig(paths=400, seed=2))
    assert all(p.in_set for p in rep.grid)
    assert rep.significant_violations == 0 and len(rep.violations) == 0


def test_probe_on_deterministic_model_matches_direct_computation():
    # One atom: the path is deterministic, D(K) = 0 if 1+k'x >= 1 else 1-(1+k'x)^N.
    atom = np.array([0.2, -0.4])
    det = GambleModel(xs=[atom], probs=[1.0])
    n, eps = 12, 0.3
    spec = ConstraintSpec(kind="expected", epsilon=eps)
    rep = convexity_probe(det, n, spec, grid_resolution=20, pair_samples=40,
                          mc=MonteCarloConfig(paths=200, seed=3))
    for pt in rep.grid:
        f = 1.0 + atom @ np.array([pt.k1, pt.k2])
        expected = 0.0 if f >= 1.0 else 1.0 - f**n
        assert pt.estimate == pytest.approx(expected, abs=1e-12)
        assert pt.std_error <= 1e-15
        assert pt.in_set == (expected <= eps)
    assert rep.significant_violations == 0 and len(rep.violations) == 0


ATOM_COMPONENT = st.one_of(st.just(-1.0), st.floats(-1.0, 3.0))


@settings(max_examples=40, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, ATOM_COMPONENT), min_size=1, max_size=5),
       resolution=st.integers(20, 40))
def test_simplex_grids_are_feasible_for_any_model(atoms, resolution):
    # Every atom is >= -1, so no point of the 2-asset scan axis or of a probe
    # grid needs a feasibility filter; exact -1 atoms sit on the ruin boundary.
    model = GambleModel(xs=np.array(atoms), probs=np.full(len(atoms), 1.0 / len(atoms)))
    scan = np.arange(0.0, 1.0 + 1e-12, 2 * GRID_STEP)
    assert all(is_feasible([k1, k2], model) for k1 in scan for k2 in scan
               if k1 + k2 <= 1.0 + 1e-12)
    rep = convexity_probe(model, 1, ConstraintSpec(kind="expected", epsilon=0.5),
                          grid_resolution=resolution, pair_samples=2,
                          mc=MonteCarloConfig(paths=2, seed=0))
    assert len(rep.grid) == resolution * (resolution + 1) // 2
    assert all(is_feasible([pt.k1, pt.k2], model) for pt in rep.grid)


def test_probe_grid_csv_format(tmp_path):
    spec = ConstraintSpec(kind="probabilistic", epsilon=0.3, delta=0.2)
    rep = convexity_probe(TWO_COINS, 20, spec, grid_resolution=20, pair_samples=10,
                          mc=MonteCarloConfig(paths=300, seed=4))
    out = tmp_path / "grid.csv"
    write_level_set_csv(rep, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k1,k2,estimate,std_error,in_set"
    assert len(lines) == len(rep.grid) + 1
