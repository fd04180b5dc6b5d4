"""Per-path drawdowns, enumeration vs Monte Carlo, constraints, probe."""

import inspect
import itertools
import math
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kellylab import (ConstraintSpec, EnumerationBudgetError, Estimate, GambleModel,
                      coin_drawdown_probability, convexity_probe, dbar_samples,
                      drawdown_exceedance_exact, enumerate_dbar, expected_complementary_exact,
                      expected_drawdown_exact, expected_drawdown_mc, expected_log_complementary,
                      independent_join, is_feasible, log_growth, make_coin, maximize_growth,
                      maximize_growth_constrained, mean_se, sample_indices,
                      sample_path_indices, write_level_set_csv)
from kellylab import drawdown as drawdown_module
from kellylab.drawdown import GRID_STEP, REFINE_TOL
from kellylab.gamble import FEAS_TOL
from test_growth import benchmark_size_case

EVEN9 = make_coin(1.0, -1.0, 0.9)
SKEWED = make_coin(0.15, -0.95, 0.95)
TWO_COINS = independent_join(EVEN9, EVEN9)
# An atom return of a random model; exact -1 atoms sit on the ruin boundary.
ATOM_COMPONENT = st.one_of(st.just(-1.0), st.floats(-1.0, 3.0))


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


def mean_se_oracle(samples):
    """(mean, standard error) of a 1-D sample, computed on its own."""
    n = samples.size
    est = float(samples.mean())
    se = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return est, se


def allocation_oracle(k, n):
    """One betting fraction as a length-n float vector, or the dimension error."""
    arr = np.atleast_1d(np.asarray(k, dtype=float))
    if arr.ndim != 1 or arr.size != n:
        raise ValueError(f"allocation has dimension {arr.size}, model has {n} assets")
    return arr


def wealth_factors(model, k):
    """Per-atom wealth multipliers max(1 + k'x, 0) of one allocation."""
    kv = allocation_oracle(k, model.n_assets)
    return np.maximum(1.0 + model.xs @ kv, 0.0)


def is_feasible_oracle(k, model):
    """k >= 0, sum(k) <= 1 and min over atoms of 1 + k'x >= 0 (all within
    FEAS_TOL), checked one condition at a time for one allocation."""
    kv = allocation_oracle(k, model.n_assets)
    if np.any(kv < -FEAS_TOL):
        return False
    if float(kv.sum()) > 1.0 + FEAS_TOL:
        return False
    return float(np.min(1.0 + model.xs @ kv)) >= -FEAS_TOL


def log_growth_oracle(k, model):
    """g(K) of one allocation on a path of its own: its feasibility check,
    one matvec, then -inf or the log and the dot."""
    kv = allocation_oracle(k, model.n_assets)
    if not is_feasible_oracle(kv, model):
        raise ValueError(f"allocation {kv!r} is infeasible for this model")
    f = 1.0 + model.xs @ kv
    if np.any(f <= 0.0):
        return -math.inf
    return float(model.probs @ np.log(f))


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
    spec = ConstraintSpec(kind="expected", epsilon=0.5)
    assert mean_se(spec.samples(np.array([dbar]))) == (1.0, 0.0)
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
        est, _ = mean_se(expected.samples(dbar))
        assert abs(est + float(dbar.mean()) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Analytic even-coin formula
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n,message", [
    (0.0, 5, "p must be in"), (1.0, 5, "p must be in"), (0.6, 0, "n_steps must be >= 1")])
def test_coin_probability_checks_its_arguments(p, n, message):
    with pytest.raises(ValueError, match=message):
        coin_drawdown_probability(p, n)


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


def test_budget_is_decided_without_building_the_sequence_count():
    # 2^(10^8) would be a 12 MB int; the count is capped at the step where
    # two atoms pass the budget, and the message states it as the power.
    tracemalloc.start()
    try:
        enumerable = drawdown_module._enumerable(EVEN9, 10**8)
        with pytest.raises(EnumerationBudgetError) as err:
            drawdown_module.require_enumerable(EVEN9, 10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not enumerable and peak < 2**16
    assert str(err.value) == "2^100000000 sequences exceed the budget of 1000000"
    one_atom = GambleModel(xs=[[0.1]], probs=[1.0])
    assert drawdown_module._enumerable(one_atom, 10**8)
    assert [drawdown_module._enumerable(EVEN9, n) for n in (19, 20)] == [True, False]


@pytest.mark.parametrize("call", [
    lambda: enumerate_dbar(EVEN9, 0.5, 0),
    lambda: maximize_growth_constrained(EVEN9, 0, ConstraintSpec(kind="expected", epsilon=0.2)),
], ids=["enumerate_dbar", "maximize_growth_constrained"])
def test_zero_steps_are_rejected(call):
    with pytest.raises(ValueError, match="n_steps must be >= 1"):
        call()


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def test_mc_zero_bet_is_exactly_zero():
    est, se = expected_drawdown_mc(SKEWED, 0.0, 100, 500, seed=0)
    assert est == 0.0 and se == 0.0
    # A batch gives one (estimate, std_error) per row.
    assert expected_drawdown_mc(SKEWED, [[0.0], [0.5]], 100, 500, seed=0) == [
        (est, se), expected_drawdown_mc(SKEWED, 0.5, 100, 500, seed=0)]


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
    assert mean_se(spec.samples(dbar_samples(SKEWED, 0.0, idx))) == (1.0, 0.0)
    # All in on the even coin: P(D <= 0.5) is the share of paths with no loss.
    idx = sample_path_indices(EVEN9, 500, 5, seed=0)
    est, _ = mean_se(spec.samples(dbar_samples(EVEN9, 1.0, idx)))
    assert est == float(np.mean(~(idx == 1).any(axis=0)))


def test_mc_probability_matches_coin_formula():
    coin = make_coin(1.0, -1.0, 0.99)
    spec = ConstraintSpec(kind="probabilistic", epsilon=0.979, delta=0.1)
    idx = sample_path_indices(coin, 10_000, 252, seed=3)
    est, se = mean_se(spec.samples(dbar_samples(coin, 0.98, idx)))
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
    """Whole-array enumeration that reads each sequence's atom digits: the oracle
    for enumerate_dbar, which forks its states instead."""
    f_atom = np.maximum(1.0 + model.xs @ np.atleast_1d(np.asarray(k, dtype=float)), 0.0)
    m = model.n_atoms
    total = m ** n_steps
    seq = np.arange(total, dtype=np.int64)
    r = np.ones(total)
    dbar = np.ones(total)
    prob = np.ones(total)
    stride = 1
    for _ in range(n_steps):
        idx = (seq // stride) % m
        stride *= m
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
    # The smallest signed dtype that holds -n_atoms: int8 for both models.
    assert idx.shape == (37, paths) and idx.dtype == np.int8
    assert idx.dtype == np.min_scalar_type(-model.n_atoms)
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


TEN_ATOMS = GambleModel(xs=[[x] for x in np.linspace(-0.6, 0.75, 10)], probs=np.full(10, 0.1))


@pytest.mark.parametrize("model", [EVEN9, SKEWED, FOUR_ATOMS, TWO_COINS, TEN_ATOMS],
                         ids=["even", "skewed", "4-atom", "2-asset", "10-atom"])
def test_enumeration_equals_whole_array_loop_bitwise(model):
    # Two atoms up to N = 16, the largest exact N of the benchmark; four
    # and ten atoms up to the enumeration budget, which 4^10 and 10^7 exceed.
    rng = np.random.default_rng(17)
    for n in range(1, {2: 17, 4: 10, 10: 7}[model.n_atoms]):
        k = rng.dirichlet(np.ones(model.n_assets + 1))[:model.n_assets]
        prob, dbar = enumerate_dbar(model, k, n)
        ref_prob, ref_dbar = enumerate_dbar_loop(model, k, n)
        assert np.array_equal(prob, ref_prob)
        assert np.array_equal(dbar, ref_dbar)


def test_sequence_index_puts_the_first_step_least_significant():
    # At K = 1 the factors are 1.3, 0.9 and 0.65. The sequence whose step t
    # draws atom a_t is at index a_0 + 3 a_1 (+ 9 a_2), and holds the running
    # minimum of r <- min(1, r f) with the products taken in step order.
    model = GambleModel(xs=[[0.3], [-0.1], [-0.35]], probs=[0.5, 0.3, 0.2])
    prob, dbar = enumerate_dbar(model, 1.0, 2)
    assert dbar.tolist() == [1.0, 0.9, 0.65,
                             0.9, 0.9 * 0.9, 0.65 * 0.9,
                             0.65, 0.9 * 0.65, 0.65 * 0.65]
    assert prob.tolist() == [pa * pb for pb in (0.5, 0.3, 0.2) for pa in (0.5, 0.3, 0.2)]
    # At N = 2 a sequence and its reverse have the same bits; at N = 3 the
    # atoms (1, 2, 2) and (2, 2, 1) round apart, in dbar and in prob.
    prob, dbar = enumerate_dbar(model, 1.0, 3)
    assert (0.9 * 0.65) * 0.65 != (0.65 * 0.65) * 0.9
    assert dbar[1 + 3 * 2 + 9 * 2] == (0.9 * 0.65) * 0.65
    assert dbar[2 + 3 * 2 + 9 * 1] == (0.65 * 0.65) * 0.9
    assert prob[1 + 3 * 2 + 9 * 2] == (0.3 * 0.2) * 0.2
    assert prob[2 + 3 * 2 + 9 * 1] == (0.2 * 0.2) * 0.3


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, st.floats(0.05, 1.0)), min_size=2, max_size=5),
       k=st.floats(0.0, 1.0), n=st.integers(1, 6))
def test_enumeration_equals_whole_array_loop_for_any_model(atoms, k, n):
    weights = np.array([w for _, w in atoms])
    model = GambleModel(xs=[[x] for x, _ in atoms], probs=weights / weights.sum())
    prob, dbar = enumerate_dbar(model, k, n)
    ref_prob, ref_dbar = enumerate_dbar_loop(model, k, n)
    assert np.array_equal(prob, ref_prob)
    assert np.array_equal(dbar, ref_dbar)


def _one_asset_model(atoms):
    weights = np.array([w for _, w in atoms])
    return GambleModel(xs=[[x] for x, _ in atoms], probs=weights / weights.sum())


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, st.floats(0.05, 1.0)), min_size=2, max_size=5),
       coin2=st.one_of(st.none(), st.tuples(ATOM_COMPONENT, ATOM_COMPONENT,
                                            st.floats(0.05, 0.95))),
       fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=25),
       n=st.integers(1, 6))
def test_batched_enumeration_rows_equal_single_calls_and_loop(atoms, coin2, fractions, n):
    # A 1-asset model of 2-5 atoms, or its first two atoms joined with a
    # second coin; (a, (1 - a) c) is a feasible 2-asset allocation.
    model = _one_asset_model(atoms)
    if coin2 is None:
        ks = np.array([[a] for a, _ in fractions])
    else:
        model = independent_join(_one_asset_model(atoms[:2]),
                                 GambleModel(xs=[[coin2[0]], [coin2[1]]],
                                             probs=[coin2[2], 1.0 - coin2[2]]))
        ks = np.array([[a, (1.0 - a) * c] for a, c in fractions])
    prob, dbar = enumerate_dbar(model, ks, n)
    assert dbar.shape == (len(ks), model.n_atoms ** n)
    for kv, row in zip(ks, dbar):
        single_prob, single = enumerate_dbar(model, kv, n)
        ref_prob, ref = enumerate_dbar_loop(model, kv, n)
        assert np.array_equal(row, single) and np.array_equal(row, ref)
        assert np.array_equal(single_prob, prob) and np.array_equal(prob, ref_prob)


@settings(max_examples=40, deadline=None)
@given(coin=st.tuples(ATOM_COMPONENT, ATOM_COMPONENT, st.floats(0.05, 0.95)),
       coin2=st.one_of(st.none(), st.tuples(ATOM_COMPONENT, ATOM_COMPONENT,
                                            st.floats(0.05, 0.95))),
       fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                          min_size=1, max_size=8),
       n=st.integers(1, 8), threshold=st.floats(0.0, 1.0))
def test_exact_statistics_of_a_batch_equal_single_calls(coin, coin2, fractions, n, threshold):
    # A random coin, or its join with a second one; (a, (1 - a) c) is a
    # feasible 2-asset allocation. Row b of a batch is bitwise the call for
    # k[b] alone, for every exact statistic and the surrogate.
    def as_coin(c):
        return GambleModel(xs=[[c[0]], [c[1]]], probs=[c[2], 1.0 - c[2]])

    model = as_coin(coin)
    if coin2 is None:
        ks = np.array([[a] for a, _ in fractions])
    else:
        model = independent_join(model, as_coin(coin2))
        ks = np.array([[a, (1.0 - a) * c] for a, c in fractions])
    for stat in (expected_drawdown_exact, expected_complementary_exact,
                 lambda m, k, n: drawdown_exceedance_exact(m, k, n, threshold),
                 expected_log_complementary):
        batch = stat(model, ks, n)
        singles = [stat(model, kv, n) for kv in ks]
        assert batch == singles
        assert [np.float64(getattr(v, "value", v)).tobytes() for v in batch] == \
            [np.float64(getattr(v, "value", v)).tobytes() for v in singles]


def test_log_complementary_underflow_is_minus_inf_without_a_warning():
    # No atom is -1, but 0.001^n underflows to 0 on a long losing run; the
    # surrogate's log is -inf there, and pytest turns a RuntimeWarning into
    # an error.
    res = expected_log_complementary(make_coin(1.0, -0.999, 0.5), 1.0, 252,
                                     paths=200, seed=1)
    assert res.value == -math.inf and not res.exact


@pytest.mark.parametrize("model,n", [(SKEWED, 13), (SKEWED, 16), (FOUR_ATOMS, 7)],
                         ids=["2-atom-chunks", "2-atom-row-per-chunk", "4-atom"])
def test_batched_exact_column_equals_single_calls(model, n):
    # 21 fractions span several enumeration chunks and end in a partial one.
    ks = np.linspace(0.0, 1.0, 21)
    column = expected_drawdown_exact(model, ks[:, None], n)
    assert column == [expected_drawdown_exact(model, k, n) for k in ks]
    assert all(type(ed) is float for ed in column)


def test_probability_row_is_shared_and_read_only():
    prob, _ = enumerate_dbar(FOUR_ATOMS, 0.3, 5)
    again, _ = enumerate_dbar(FOUR_ATOMS, [[0.1], [0.6]], 5)
    assert again is prob
    assert not prob.flags.writeable
    with pytest.raises(ValueError):
        prob[0] = 1.0
    assert np.array_equal(prob, enumerate_dbar_loop(FOUR_ATOMS, 0.3, 5)[0])
    # The row is kept only while its model lives.
    from kellylab import drawdown
    model = make_coin(0.6, -0.45, 0.62)
    enumerate_dbar(model, 0.3, 4)
    held = len(drawdown._SEQUENCE_PROBS)
    del model
    assert len(drawdown._SEQUENCE_PROBS) == held - 1


def test_exact_column_holds_one_chunk_at_a_time():
    # One 2^16-sequence row at a time: the row's r and d, their parents and
    # the probability row come to about 5 rows of floats. Holding all 21
    # fractions would take over 40.
    model = make_coin(0.6, -0.45, 0.62)
    row_bytes = 8 * 2 ** 16
    tracemalloc.start()
    try:
        expected_drawdown_exact(model, np.linspace(0.0, 1.0, 21)[:, None], 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * row_bytes


def test_probe_holds_one_chunk_of_rows_at_a_time():
    # 1830 grid points on 2000 paths: one (1830, 2000) block of floats is
    # 29 MB, and holding the kernel's r and d beside the result and its
    # samples took about 4 of them. A chunk of 131 rows is 2.1 MB; the
    # probe holds a chunk's result and its samples, or the samples and the
    # temporary of their standard error, plus the CRN matrix and the grid.
    tracemalloc.start()
    try:
        report = convexity_probe(TWO_COINS, 20, ConstraintSpec(kind="expected", epsilon=0.3),
                                 grid_resolution=60, paths=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.grid) == 1830
    assert peak < 12e6


def test_expected_drawdown_mc_holds_one_chunk_of_rows_at_a_time():
    # 500 fractions on 2000 paths: one (500, 2000) block of floats is 8 MB,
    # and the result beside its samples took 16 MB. A chunk of 131 rows is
    # 2.1 MB, and the call holds a chunk's result and its samples.
    ks = np.linspace(0.0, 1.0, 500)[:, None]
    tracemalloc.start()
    try:
        stats = expected_drawdown_mc(SKEWED, ks, 50, 2000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stats) == 500
    assert peak < 8e6


def chunk_rows(rows, paths):
    """Rows of each chunk that dbar_chunks cuts a batch of `rows` rows into
    on `paths` paths; K = 0 runs no step, so each chunk is cheap."""
    ks, idx = np.zeros((rows, 1)), np.zeros((1, paths), dtype=np.int8)
    return [len(dbar) for dbar in drawdown_module.dbar_chunks(SKEWED, ks, idx)]


def test_screened_chunks_make_their_result_after_the_last_screen():
    # The grid walk's first batch on the README's two-coin case: the 64
    # highest-g points of the simplex grid on 10000 paths, screened for
    # E[D] <= 0.1, in chunks of 26, 26 and 12 rows. A chunk's r and d hold
    # every path of its live rows (4.2 MB for 26 rows). Its (26, 10000)
    # result (2.1 MB) is made once the screens have dropped most rows; made
    # before the first screen, it sat beside the full r and d (8.5 MB peak).
    spec = ConstraintSpec(kind="expected", epsilon=0.1)
    points = drawdown_module._simplex_grid(np.arange(0.0, 1.0 + 1e-12, GRID_STEP))
    ks = points[np.argsort(-log_growth(points, TWO_COINS), kind="stable")[:64]]
    idx = sample_path_indices(TWO_COINS, 10_000, 252, seed=0)
    assert chunk_rows(64, 10_000) == [26, 26, 12]
    tracemalloc.start()
    try:
        stats = drawdown_module._batch_stats(TWO_COINS, spec.samples, ks, idx,
                                             drawdown_module._screen(spec, 10_000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stats) == 64
    assert peak < 7.5 * 2**20


@pytest.mark.parametrize("coin", [EVEN9, SKEWED, make_coin(0.6, -0.45, 0.62)],
                         ids=["even", "skewed", "uneven"])
def test_exact_statistics_sum_to_fsum_accuracy(coin):
    # 2^16 sequences per fraction: each statistic is within 1e-14, relative,
    # of math.fsum of the same products, which rounds once. A sum of the
    # terms one after another drifts by up to about 1e-13 here.
    ks = np.linspace(0.0, 0.95, 20)
    prob, dbars = enumerate_dbar(coin, ks[:, None], 16)
    stats = {
        "E[D]": (expected_drawdown_exact(coin, ks[:, None], 16), lambda dbar: 1.0 - dbar),
        "E[1 - D]": (expected_complementary_exact(coin, ks[:, None], 16), lambda dbar: dbar),
        "E[log(1 - D)]": ([h.value for h in expected_log_complementary(coin, ks[:, None], 16)],
                          np.log),
        "P(D >= 0.3)": (drawdown_exceedance_exact(coin, ks[:, None], 16, 0.3),
                        lambda dbar: dbar <= 0.7),
    }
    for name, (values, x) in stats.items():
        for k, value, dbar in zip(ks, values, dbars):
            ref = math.fsum((prob * x(dbar)).tolist())
            assert abs(value - ref) <= 1e-14 * abs(ref), (name, k, value, ref)


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
    with pytest.raises(ValueError, match="dimension 2, model has 1 assets"):
        dbar_samples(SKEWED, [[0.2, 0.1]], idx)


# ---------------------------------------------------------------------------
# The batched evaluator path, row by row
# ---------------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(atoms=st.lists(st.lists(ATOM_COMPONENT, min_size=3, max_size=3), min_size=1, max_size=6),
       n_assets=st.integers(1, 3),
       rows=st.lists(st.lists(st.floats(-0.1, 1.1), min_size=3, max_size=3),
                     min_size=1, max_size=8))
def test_checked_factors_rows_equal_wealth_factors(atoms, n_assets, rows):
    # Feasibility is judged for the whole batch at once, by the oracle's
    # rule; the first infeasible row is named with the single-row message.
    from kellylab import drawdown
    model = GambleModel(xs=np.array(atoms)[:, :n_assets],
                        probs=np.full(len(atoms), 1 / len(atoms)))
    ks = np.array(rows)[:, :n_assets]
    bad = [kv for kv in ks if not is_feasible_oracle(kv, model)]
    if bad:
        with pytest.raises(ValueError) as err:
            drawdown._checked_factors(model, ks)
        assert str(err.value) == f"allocation {bad[0]!r} is infeasible for this model"
    else:
        factors = drawdown._checked_factors(model, ks)
        assert factors.shape == (len(ks), model.n_atoms)
        for kv, row in zip(ks, factors):
            assert np.array_equal(row, wealth_factors(model, kv))


@pytest.mark.parametrize("n_assets", [1, 2, 3, 5, "simplex-grid", "ingested-5", "ingested-20"])
def test_checked_factors_rows_are_bitwise_single_matvecs(n_assets):
    # A single (B, n) x (n, m) product rounds differently for n >= 2; the
    # stacked matmul of model.xs with the (B, n, 1) batch runs one matvec
    # per row. The named cases are the searches' grid and ingested-model
    # sizes (see test_growth.benchmark_size_case).
    from kellylab import drawdown
    if isinstance(n_assets, str):
        model, ks = benchmark_size_case(n_assets)
    else:
        rng = np.random.default_rng(n_assets)
        model = GambleModel(xs=rng.uniform(-1.0, 2.0, (7, n_assets)), probs=np.full(7, 1 / 7))
        ks = 0.3 * rng.dirichlet(np.ones(n_assets + 1), size=200)[:, :n_assets]
    factors = drawdown._checked_factors(model, ks)
    for kv, row in zip(ks, factors):
        assert np.array_equal(row, wealth_factors(model, kv))


@settings(max_examples=150, deadline=None)
@given(atoms=st.lists(st.lists(ATOM_COMPONENT, min_size=3, max_size=3), min_size=1, max_size=6),
       n_assets=st.integers(1, 3),
       rows=st.lists(st.lists(st.floats(-0.1, 1.1) | st.just(math.nan), min_size=1, max_size=4),
                     min_size=1, max_size=6))
def test_one_allocation_is_a_batch_of_one(atoms, n_assets, rows):
    # An allocation may be infeasible, hold NaN or have the wrong dimension;
    # one allocation and a batch of one take the same path, so they agree
    # with the single-allocation oracles bitwise, or raise the oracle's message.
    from kellylab.gamble import _checked_factors
    model = GambleModel(xs=np.array(atoms)[:, :n_assets],
                        probs=np.full(len(atoms), 1 / len(atoms)))
    for k in rows + [row[:n_assets] for row in rows if len(row) > n_assets]:
        kv = np.array(k)
        ones = [kv, list(k)] + ([k[0]] if len(k) == 1 else [])
        try:
            g, factors = log_growth_oracle(kv, model), wealth_factors(model, kv)
        except ValueError as err:
            for arg in ones + [kv[None]]:
                for call in (lambda: log_growth(arg, model), lambda: _checked_factors(model, arg)):
                    with pytest.raises(ValueError) as got:
                        call()
                    assert str(got.value) == str(err)
            assert len(k) != n_assets or not is_feasible(kv, model)
            continue
        assert is_feasible(kv, model)
        for arg in ones:
            assert type(log_growth(arg, model)) is float
            assert np.float64(log_growth(arg, model)).tobytes() == np.float64(g).tobytes()
            assert _checked_factors(model, arg).tobytes() == factors.tobytes()
        batch = log_growth(kv[None], model)
        assert batch.shape == (1,) and batch.tobytes() == np.float64(g).tobytes()
        assert _checked_factors(model, kv[None]).tobytes() == factors.tobytes()


@pytest.mark.parametrize("spec", [ConstraintSpec(kind="expected", epsilon=0.2),
                                  ConstraintSpec(kind="probabilistic", epsilon=0.2, delta=0.1)],
                         ids=["expected", "probabilistic"])
@pytest.mark.parametrize("paths", [1, 2, 999])
def test_batched_statistics_equal_mean_se_per_row(spec, paths):
    from kellylab import drawdown
    ks = np.array([[a, b] for a in np.linspace(0.0, 1.0, 11)
                   for b in np.linspace(0.0, 1.0, 11) if a + b <= 1.0])
    idx = sample_path_indices(TWO_COINS, paths, 40, seed=4)
    stats = drawdown._batch_stats(TWO_COINS, spec.samples, ks, idx)
    assert len(stats) == len(ks)
    dbars = [dbar_samples(TWO_COINS, kv, idx) for kv in ks]
    refs = [mean_se_oracle(spec.samples(dbar)) for dbar in dbars]
    assert stats == refs and mean_se(spec.samples(dbar_samples(TWO_COINS, ks, idx))) == refs
    for dbar, (est, se), ref in zip(dbars, stats, refs):
        assert mean_se(spec.samples(dbar)) == ref
        assert type(est) is float and type(se) is float


def test_monte_carlo_chunks_keep_every_bit(monkeypatch, tmp_path, capsys):
    # At 2000 paths a chunk holds 131 rows, so the probe's 210-point grid
    # runs as 131 + 79 rows. Here every batch is on 300 paths, one chunk by
    # default; chunks of 7 rows and of 1 row cut the probe's grid and
    # midpoints, the sweep, a screened and an unscreened batch,
    # expected_drawdown_mc and the surrogate's Monte Carlo fallback.
    from kellylab import drawdown
    from kellylab.cli import main
    assert chunk_rows(210, 2000) == [131, 79] and chunk_rows(2, 10**6) == [1, 1]
    assert chunk_rows(210, 300) == [210]
    spec = ConstraintSpec(kind="expected", epsilon=0.3)
    ks = np.random.default_rng(1).random((23, 2)) / 2
    idx = sample_path_indices(TWO_COINS, 300, 30, seed=2)

    def run_all(tag):
        probe = convexity_probe(TWO_COINS, 20, spec, pair_samples=40,
                                paths=300, seed=5)
        stats = [drawdown._batch_stats(TWO_COINS, spec.samples, ks, idx, screen)
                 for screen in (None, drawdown._screen(spec, 300))]
        mc = expected_drawdown_mc(TWO_COINS, ks, 30, 300, seed=2)
        fallback = drawdown._log_complementary_batch(TWO_COINS, ks, 30, lambda: idx)
        assert main(["drawdown", "--coin", "1,-1,0.9", "--n", "40", "--paths", "300",
                     "--seed", "3", "--k-grid", "23", "--out", str(tmp_path / tag)]) == 0
        files = [(tmp_path / f"{tag}.{part}.csv").read_bytes() for part in ("expected", "prob")]
        return (probe, stats, mc, fallback, capsys.readouterr().out.replace(tag, "out"),
                files)

    whole = run_all("whole")
    assert len(whole[0].grid) == 210 and len(whole[0].checks) == 40
    assert None in whole[1][1]                         # the screen dropped some rows
    assert whole[2] == whole[1][0]                     # the same CRN matrix
    assert not any(h.exact for h in whole[3])          # 4^30 sequences: Monte Carlo
    for rows, sizes in ((7, [7, 7, 7, 2]), (1, [1] * 23)):
        monkeypatch.setattr(drawdown, "_MC_CHUNK", rows * 300 + 299)
        assert chunk_rows(23, 300) == sizes
        assert run_all(f"cut{rows}") == whole


def test_chunk_loop_frees_each_result_and_a_handed_over_matrix(monkeypatch, capsys):
    # Chunks of 7 rows on 300 paths. A consumer that drops each chunk holds
    # no result at the next kernel call, and a matrix that only dbar_chunks
    # references is dead when the last chunk reaches the consumer. The test
    # loop, _batch_stats and the CLI sweep are the consumers; _batch_stats
    # also frees each result before mean_se reduces its samples.
    kernel, reduce = drawdown_module.dbar_samples, drawdown_module.mean_se
    results, matrix, seen = [], [], []

    def counted_kernel(*args, **kwargs):
        assert all(ref() is None for ref in results)
        out = kernel(*args, **kwargs)
        results.append(weakref.ref(out))
        return out

    def sampled(*args):
        idx = sample_path_indices(*args)
        matrix.append(weakref.ref(idx))
        return idx

    def counted_reduce(samples):
        seen.append((len(results), matrix[-1]() is not None,
                     any(ref() is not None for ref in results)))
        return reduce(samples)

    monkeypatch.setattr(drawdown_module, "_MC_CHUNK", 7 * 300)
    monkeypatch.setattr(drawdown_module, "dbar_samples", counted_kernel)
    monkeypatch.setattr(drawdown_module, "sample_path_indices", sampled)
    monkeypatch.setattr(drawdown_module, "mean_se", counted_reduce)
    ks = np.linspace(0.0, 1.0, 23)[:, None]
    chunks = drawdown_module.dbar_chunks(SKEWED, ks, sampled(SKEWED, 300, 20, 1))
    alive = []
    for dbar in chunks:
        alive.append((len(dbar), matrix[-1]() is not None))
        del dbar
    assert alive == [(7, True), (7, True), (7, True), (2, False)]

    results.clear()
    stats = drawdown_module._batch_stats(SKEWED, lambda dbar: 1.0 - dbar, ks,
                                         sampled(SKEWED, 300, 20, 1))
    assert len(stats) == 23 and len(results) == 4
    assert seen == [(1, True, False), (2, True, False), (3, True, False), (4, True, False)]

    results.clear()
    seen.clear()
    from kellylab.cli import main
    assert main(["drawdown", "--coin", "0.6,-0.45,0.62", "--n", "20", "--paths", "300",
                 "--k-grid", "23"]) == 0
    capsys.readouterr()
    # Two columns reduced per chunk; the sweep's matrix is dead at the last chunk's.
    assert [(n, held) for n, held, _ in seen] == [(1, True)] * 2 + [(2, True)] * 2 + [
        (3, True)] * 2 + [(4, False)] * 2


def test_every_monte_carlo_row_is_an_estimate_with_its_standard_error():
    # Every row of mean_se, expected_drawdown_mc and _batch_stats, the flat
    # row 1 included, carries a standard error, and a row the screen drops
    # (row 0 bets everything on an even coin) is None.
    from kellylab import drawdown
    ks = np.array([[1.0, 0.0], [0.0, 0.0], [0.1, 0.2], [0.45, 0.5]])
    paths, seed = 300, 2
    spec = ConstraintSpec(kind="expected", epsilon=0.05)
    idx = sample_path_indices(TWO_COINS, paths, 30, seed)
    dbar = dbar_samples(TWO_COINS, ks, idx)
    rows = [*mean_se(spec.samples(dbar)), mean_se(spec.samples(dbar[2])),
            *expected_drawdown_mc(TWO_COINS, ks, 30, paths, seed),
            expected_drawdown_mc(TWO_COINS, ks[2], 30, paths, seed),
            *drawdown._batch_stats(TWO_COINS, spec.samples, ks, idx),
            drawdown._batch_stats(TWO_COINS, spec.samples, ks[2], idx)]
    assert all(type(row) is Estimate and row.std_error is not None and not row.exact
               for row in rows)
    screened = drawdown._batch_stats(TWO_COINS, spec.samples, ks, idx,
                                     drawdown._screen(spec, paths))
    assert screened[0] is None and type(screened[1]) is Estimate
    assert all(row is None or row == full for row, full in zip(screened, rows))


@pytest.mark.parametrize("n_steps,exact", [(6, True), (8, True), (12, False)],
                         ids=["enumerable", "enumerable-row-per-chunk", "mc"])
def test_batched_surrogate_equals_expected_log_complementary(n_steps, exact):
    # Row 0 bets everything on the first even coin, so a loss ruins it.
    from kellylab import drawdown
    paths, seed = 300, 6
    ks = np.array([[1.0, 0.0], [0.0, 0.0], [0.1, 0.2], [0.3, 0.05], [0.45, 0.5], [0.2, 0.1]])
    built = []

    def crn():
        built.append(1)
        return sample_path_indices(TWO_COINS, paths, n_steps, seed)

    batch = drawdown._log_complementary_batch(TWO_COINS, ks, n_steps, crn)
    assert len(built) == (0 if exact else 1)
    assert [type(h) for h in batch] == [Estimate] * 6
    assert batch[0].value == -math.inf and batch[0].exact
    for kv, h in zip(ks, batch):
        assert h == expected_log_complementary(TWO_COINS, kv, n_steps, paths=paths, seed=seed)
    assert expected_log_complementary(TWO_COINS, ks, n_steps, paths=paths, seed=seed) == batch
    assert [h.exact for h in batch[1:]] == [exact] * 5
    # A batch of ruinous rows needs no index matrix.
    ruinous = drawdown._log_complementary_batch(TWO_COINS, ks[:1], n_steps, None)
    assert ruinous[0].value == -math.inf


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
    res = expected_log_complementary(EVEN9, 0.3, 30, paths=2000, seed=1)
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
                                      paths=500, seed=0)
    assert res.method == "unconstrained-feasible"
    assert res.k_star[0] == pytest.approx(2.0 / 3.0, abs=1e-6)


def test_expected_drawdown_constraint_binds():
    spec = ConstraintSpec(kind="expected", epsilon=0.2)
    res = maximize_growth_constrained(SKEWED, 252, spec,
                                      paths=2_000, seed=0)
    assert res.converged
    assert res.constraint.value <= 0.2 + 1e-12
    assert 0.05 <= res.k_star[0] <= 0.15


def test_probabilistic_constraint_is_conservative():
    spec = ConstraintSpec(kind="probabilistic", epsilon=0.5, delta=0.1)
    res = maximize_growth_constrained(EVEN9, 60, spec,
                                      paths=2_000, seed=1)
    assert res.constraint.value - 3 * res.constraint.std_error >= 0.9 - 1e-12
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
                                      paths=300, seed=2)
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
                                      paths=300, seed=2)
    assert res.method == "surrogate-fan"
    assert (len(seen) > 0) == enumerates


@pytest.mark.parametrize("model,n_steps,spec,method", [
    (SKEWED, 120, ConstraintSpec(kind="expected", epsilon=0.2), "expected-bisect"),
    (EVEN9, 60, ConstraintSpec(kind="probabilistic", epsilon=0.5, delta=0.1),
     "probabilistic-bisect"),
    (TWO_COINS, 30, ConstraintSpec(kind="expected", epsilon=0.1), "grid-ray"),
    (TWO_COINS, 30, ConstraintSpec(kind="probabilistic", epsilon=0.3, delta=0.1), "grid-ray"),
    (EVEN9, 10, ConstraintSpec(kind="surrogate", epsilon=0.3), "surrogate-bisect"),
    (SKEWED, 40, ConstraintSpec(kind="surrogate", epsilon=0.2), "surrogate-bisect"),  # MC
    (EVEN9, 252, ConstraintSpec(kind="surrogate", epsilon=0.3), "surrogate-bisect"),  # MC
    (TWO_COINS, 6, ConstraintSpec(kind="surrogate", epsilon=0.1), "surrogate-fan"),
    (TWO_COINS, 12, ConstraintSpec(kind="surrogate", epsilon=0.2), "surrogate-fan"),  # MC
    (SKEWED, 30, ConstraintSpec(kind="expected", epsilon=0.999999), "unconstrained-feasible"),
], ids=["1d-expected", "1d-probabilistic", "2d-scan", "2d-scan-probabilistic",
        "1d-surrogate-exact", "1d-surrogate-mc", "1d-surrogate-mc-n252", "2d-surrogate-exact",
        "2d-surrogate-mc", "unconstrained-feasible"])
def test_search_estimates_each_allocation_once(monkeypatch, model, n_steps, spec, method):
    # Every estimate goes through _batch_stats (expected, probabilistic) or
    # _log_complementary_batch (surrogate, whose Monte Carlo fallback calls
    # _batch_stats in turn); record the allocations that one level sees, and
    # those the step-0 screen rejects before any estimate. The answer's
    # Estimate is exact only for an enumerated surrogate; every other is a
    # Monte Carlo mean with its standard error.
    from kellylab import drawdown
    seen, rejected = [], []
    name, arg = ("_log_complementary_batch", 1) if spec.kind == "surrogate" else ("_batch_stats", 2)
    estimate = getattr(drawdown, name)
    screen0 = drawdown._ConstraintEvaluator._screen0

    def counting(*args):
        seen.extend(np.asarray(k, dtype=float).tobytes() for k in args[arg])
        return estimate(*args)

    def rejecting(self, ks):
        keep = screen0(self, ks)
        rejected.extend(kv.tobytes() for kv in ks[~keep])
        return keep

    monkeypatch.setattr(drawdown, name, counting)
    monkeypatch.setattr(drawdown._ConstraintEvaluator, "_screen0", rejecting)
    res = maximize_growth_constrained(model, n_steps, spec,
                                      paths=300, seed=2)
    assert res.method == method
    assert len(seen) == len(set(seen))
    assert len(rejected) == len(set(rejected)) and not set(seen) & set(rejected)
    assert res.iterations == len(seen) + len(rejected)
    assert type(res.constraint) is Estimate
    assert res.constraint.exact == (spec.kind == "surrogate" and drawdown._enumerable(model, n_steps))


def screen_steps(n_steps):
    """The steps after which a screened kernel call screens its rows:
    8, 16, 32, ... below n_steps."""
    return list(itertools.takewhile(lambda s: s < n_steps, (8 << j for j in itertools.count())))


@pytest.mark.parametrize("n_steps", [1, 5, 8, 9, 16, 17, 33, 40, 129, 252])
def test_screened_kernel_keeps_its_rows_bitwise(n_steps):
    # The screen drops every other live row after steps 8, 16, 32, ... below
    # N and sees the running minima of the steps so far; a dropped row is NaN
    # and every other row is the unscreened one. Row 0 bets nothing: it is
    # 1.0 and the screen never sees it.
    idx = sample_path_indices(FOUR_ATOMS, 500, n_steps, seed=3)
    ks = np.linspace(0.0, 1.0, 11)[:, None]
    steps = screen_steps(n_steps)
    live = np.arange(1, len(ks))
    seen = []

    def screen(d):
        nonlocal live
        seen.append(steps[len(seen)])
        assert np.array_equal(d, dbar_samples(FOUR_ATOMS, ks[live], idx[:seen[-1]]).T)
        live = live[::2]
        return np.arange(d.shape[1]) % 2 == 0

    out = dbar_samples(FOUR_ATOMS, ks, idx, screen=screen)
    assert seen == steps
    # A row that a screen after every 8 steps drops after s steps is dropped
    # at the first screen at or after s, or runs to N: fewer than 2s steps.
    for s in range(8, n_steps, 8):
        assert min([t for t in steps if t >= s] + [n_steps]) < 2 * s
    full = dbar_samples(FOUR_ATOMS, ks, idx)
    kept = np.r_[0, live]
    assert np.array_equal(out[kept], full[kept])
    assert (out[0] == 1.0).all()
    assert np.isnan(np.delete(out, kept, axis=0)).all()
    # int8 indices, intp indices and indices counted from the end agree.
    assert idx.dtype == np.int8
    assert np.array_equal(dbar_samples(FOUR_ATOMS, ks, idx.astype(np.intp)), full)
    assert np.array_equal(dbar_samples(FOUR_ATOMS, ks, (idx - 4).astype(np.int8)), full)


def test_screen_that_drops_every_row_stops_the_kernel():
    idx = sample_path_indices(SKEWED, 300, 40, seed=1)
    seen = []

    def drop_all(d):
        seen.append(d.shape)
        return np.zeros(d.shape[1], dtype=bool)

    assert np.isnan(dbar_samples(SKEWED, [[0.1], [0.5]], idx, screen=drop_all)).all()
    assert seen == [(300, 2)]


@pytest.mark.parametrize("live_rows", [130, 0], ids=["every-row-dropped", "every-row-flat"])
def test_screened_call_that_runs_no_last_chunk_gives_nan_and_flat_rows(live_rows):
    # Asset 2 never loses, so a row that bets on it alone never draws down.
    # 130 live rows make blocks of 256 paths; the screen drops every one of
    # them after step 8. With no live row left, or none to begin with, the
    # result is made after the steps: NaN rows, and 1.0 for the flat rows.
    model = GambleModel(xs=[[-0.5, 0.0], [0.4, 0.2]], probs=[0.3, 0.7])
    rng = np.random.default_rng(7)
    ks = rng.random((live_rows + 9, 2)) * [0.5, 0.5] + [1e-3, 0.0]
    flat = rng.permutation(len(ks)) < 9
    ks[flat, 0] = 0.0
    idx = sample_path_indices(model, 700, 40, seed=7)
    seen = []

    def drop_all(d):
        seen.append(d.shape)
        return np.zeros(d.shape[1], dtype=bool)

    expected = np.where(flat[:, None], 1.0, np.nan).repeat(700, axis=1)
    assert np.array_equal(dbar_samples(model, ks, idx, screen=drop_all), expected, equal_nan=True)
    assert seen == ([(700, live_rows)] if live_rows else [])


def dbar_samples_scalar_clamp(model, ks, indices, screen=None):
    """The blocked kernel as it was when it clamped r against the scalar 1.0
    and ran every row: the oracle for the kernel that clamps against a block
    of ones and skips the rows whose every factor is >= 1. The screen runs
    after steps 8, 16, 32, ... below N and sees only the other rows, as the
    kernel's does; a row it never sees runs its steps here all the same."""
    factors = np.array([wealth_factors(model, kv) for kv in ks])
    flat = (factors >= 1.0).all(axis=1)
    n_steps, n_paths = indices.shape
    by_atom = np.ascontiguousarray(factors.T)
    live = np.arange(factors.shape[0])
    r = np.ones((n_paths, live.size))
    d = np.ones((n_paths, live.size))
    stops = screen_steps(n_steps) if screen is not None else []
    for start, stop in zip([0] + stops, stops + [n_steps]):
        width = max(256, 32_768 // max(live.size, 1))
        f = np.empty((min(width, n_paths), live.size))
        for lo in range(0, n_paths, width):
            hi = min(lo + width, n_paths)
            rb, db, fb = r[lo:hi], d[lo:hi], f[:hi - lo]
            for t in range(start, stop, 8):
                for row in indices[t:t + 8, lo:hi].astype(np.intp):
                    by_atom.take(row, axis=0, out=fb, mode="wrap")
                    np.multiply(rb, fb, out=rb)
                    np.minimum(rb, 1.0, out=rb)
                    np.minimum(db, rb, out=db)
        if stop < n_steps and not flat[live].all():
            keep = flat[live]
            keep[~keep] = screen(d[:, ~keep])
            if not keep.all():
                live, by_atom = live[keep], by_atom.compress(keep, axis=1)
                r, d = r.compress(keep, axis=1), d.compress(keep, axis=1)
                if not live.size:
                    break
    dbar = np.full((factors.shape[0], n_paths), np.nan)
    dbar[live] = d.T
    return dbar


def assert_kernel_equals_scalar_clamp(model, ks, idx, seed):
    # The screen keeps a random share of the live rows at each screen; it
    # sees the same running minima in the same calls on both sides.
    assert np.array_equal(dbar_samples(model, ks, idx),
                          dbar_samples_scalar_clamp(model, ks, idx), equal_nan=True)
    seen = [[], []]
    for calls, kernel in zip(seen, (dbar_samples, dbar_samples_scalar_clamp)):
        rng = np.random.default_rng(seed)

        def screen(d, calls=calls, rng=rng):
            calls.append(d.copy())
            return rng.random(d.shape[1]) < 0.7

        calls.append(kernel(model, ks, idx, screen=screen))
    assert len(seen[0]) == len(seen[1])
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(*seen))


@settings(max_examples=40, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, st.floats(0.05, 1.0)), min_size=2, max_size=5),
       rows=st.integers(1, 300), paths=st.integers(1, 700), n_steps=st.integers(1, 30),
       seed=st.integers(0, 2**16))
def test_kernel_equals_scalar_clamp_loop_bitwise(atoms, rows, paths, n_steps, seed):
    # 1-300 rows: from 128 rows on, the block width is the 256-path floor;
    # most path counts are not a multiple of the width. Rows 0 and 1 bet
    # nothing and everything.
    model = _one_asset_model(atoms)
    ks = np.random.default_rng(seed).random((rows, 1))
    ks[:2] = [[0.0], [1.0]][:rows]
    idx = sample_path_indices(model, paths, n_steps, seed)
    assert_kernel_equals_scalar_clamp(model, ks, idx, seed)


@settings(max_examples=40, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, st.floats(0.05, 1.0)), min_size=2, max_size=5),
       rows=st.integers(1, 300), paths=st.integers(1, 1500), n_steps=st.integers(1, 40),
       seed=st.integers(0, 2**16))
def test_unscreened_blocks_equal_a_screen_that_keeps_every_row(atoms, rows, paths, n_steps,
                                                               seed):
    # Unscreened, r and d hold one block of paths at a time; screened, every
    # path. A screen that keeps every row still runs the screened layout, in
    # chunks of steps; both give the same bits. From 128 rows on, a block is
    # 256 paths, so most calls here run several blocks and a partial last one.
    model = _one_asset_model(atoms)
    ks = np.random.default_rng(seed).random((rows, 1))
    ks[:2] = [[0.0], [1.0]][:rows]
    idx = sample_path_indices(model, paths, n_steps, seed)
    seen = []

    def keep_all(d):
        seen.append(d.shape)
        return np.ones(d.shape[1], dtype=bool)

    out = dbar_samples(model, ks, idx)
    assert np.array_equal(out, dbar_samples(model, ks, idx, screen=keep_all))
    flat = all((wealth_factors(model, kv) >= 1.0).all() for kv in ks)
    assert len(seen) == (0 if flat else len(screen_steps(n_steps)))
    assert not np.isnan(out).any() and out.shape == (rows, paths)


@settings(max_examples=30, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, st.floats(0.0, 2.0), st.floats(0.05, 1.0)),
                      min_size=1, max_size=4),
       live_rows=st.integers(128, 200), flat_rows=st.integers(0, 12),
       extra_paths=st.integers(1, 600), n_steps=st.integers(1, 70),
       keep_share=st.floats(0.2, 1.0), seed=st.integers(0, 2**16))
def test_screened_result_keeps_drops_and_skips_rows(atoms, live_rows, flat_rows, extra_paths,
                                                   n_steps, keep_share, seed):
    # Asset 1 loses 0.5 on the first atom and asset 2 never loses, so a row
    # that bets on asset 1 draws down and one that bets on asset 2 alone has
    # every factor >= 1. 128 or more live rows make blocks of 256 paths, and
    # every call runs more paths than that. The screen drops a random share
    # of the live rows at each of its steps.
    weights = np.array([1.0] + [w for *_, w in atoms])
    model = GambleModel(xs=[[-0.5, 0.0]] + [[a, b] for a, b, _ in atoms],
                        probs=weights / weights.sum())
    rng = np.random.default_rng(seed)
    ks = rng.random((live_rows + flat_rows, 2)) * [0.499, 0.5] + [1e-3, 0.0]
    flat = rng.permutation(len(ks)) < flat_rows
    ks[flat, 0] = 0.0
    idx = sample_path_indices(model, 256 + extra_paths, n_steps, seed)
    live = np.flatnonzero(~flat)

    def screen(d):
        nonlocal live
        assert d.shape == (idx.shape[1], live.size)
        keep = rng.random(live.size) < keep_share
        live = live[keep]
        return keep

    out = dbar_samples(model, ks, idx, screen=screen)
    full = dbar_samples(model, ks, idx)
    assert np.array_equal(out[live], full[live])
    assert all(np.array_equal(out[i], dbar_samples_loop(model, ks[i], idx.T)) for i in live)
    assert (out[flat] == 1.0).all()
    dropped = np.ones(len(ks), dtype=bool)
    dropped[live] = False
    dropped[flat] = False
    assert np.isnan(out[dropped]).all()


def test_kernel_equals_scalar_clamp_loop_on_int16_indices():
    # 130 atoms take int16 indices.
    xs = np.linspace(-0.9, 0.9, 130)[:, None]
    model = GambleModel(xs=xs, probs=np.full(130, 1.0 / 130))
    idx = sample_path_indices(model, 1000, 20, seed=4)
    assert idx.dtype == np.int16
    assert_kernel_equals_scalar_clamp(model, np.linspace(0.0, 1.0, 21)[:, None], idx, 4)


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, st.floats(0.0, 2.0), st.floats(0.05, 1.0)),
                      min_size=2, max_size=5),
       rows=st.integers(1, 40), paths=st.integers(1, 400), n_steps=st.integers(1, 70),
       kind=st.sampled_from(["expected", "probabilistic"]), eps=st.floats(0.02, 0.9),
       delta=st.floats(0.01, 0.5), seed=st.integers(0, 2**16))
def test_kernel_skips_rows_that_never_draw_down(atoms, rows, paths, n_steps, kind, eps,
                                                 delta, seed):
    # Asset 2 never loses, so a row that bets on it alone, or on nothing,
    # has every factor >= 1; about half the rows do, and some others bet so
    # little on asset 1 that a factor is just below 1. Unscreened, screened
    # by the searches' rule and by a random one, the kernel that skips the
    # first kind equals bitwise the oracle that runs every row's steps.
    weights = np.array([w for *_, w in atoms])
    model = GambleModel(xs=[[a, b] for a, b, _ in atoms], probs=weights / weights.sum())
    rng = np.random.default_rng(seed)
    ks = rng.random((rows, 2)) / 2
    ks[rng.random(rows) < 0.5, 0] = 0.0
    ks[rng.random(rows) < 0.2] = 0.0
    ks[rng.random(rows) < 0.2, 0] *= 1e-4
    flat = np.array([(wealth_factors(model, kv) >= 1.0).all() for kv in ks])
    idx = sample_path_indices(model, paths, n_steps, seed)
    spec = ConstraintSpec(kind=kind, epsilon=eps,
                          delta=delta if kind == "probabilistic" else None)
    for screen in (None, drawdown_module._screen(spec, paths)):
        out = dbar_samples(model, ks, idx, screen=screen)
        assert np.array_equal(out, dbar_samples_scalar_clamp(model, ks, idx, screen=screen),
                              equal_nan=True)
        assert (out[flat] == 1.0).all()
    assert_kernel_equals_scalar_clamp(model, ks, idx, seed)


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.9, 0.999), loss=st.sampled_from([-1.0, -0.5, -0.05]),
       zero=st.one_of(st.just(0.0), st.floats(0.01, 0.3)),
       extra=st.lists(st.tuples(ATOM_COMPONENT, st.floats(0.001, 0.1)), max_size=3),
       joined=st.booleans(), scale=st.sampled_from([1.0, 1e-4]), rows=st.integers(1, 150),
       paths=st.integers(1, 2000), n_steps=st.integers(1, 70), seed=st.integers(0, 2**16))
@example(p=0.97, loss=-1.0, zero=0.0, extra=[], joined=False, scale=1.0, rows=21, paths=1700,
         n_steps=61, seed=0)
def test_idle_skip_keeps_every_bit(p, loss, zero, extra, joined, scale, rows, paths, n_steps,
                                   seed):
    # A coin (1, loss, p) at p 0.9-0.999, with an atom x = 0 of weight
    # `zero` and a few random atoms, joined with itself or not. Row 0 bets
    # nothing and row 1 everything: at loss -1 it is ruined and holds r = 0.
    # Some rows bet so little that a losing factor is just below 1, and at
    # scale 1e-4 every row does. A joined row bets k1 = k2, so the win-loss
    # atoms have factor exactly 1. From 128 rows on a block is 256 paths, so
    # most calls run several blocks and a partial last one; N is mostly not a
    # multiple of 8. The kernel that skips idle paths equals the dense one
    # byte for byte, -0.0 included.
    atoms = [(1.0, p), (loss, 1.0 - p)] + [(0.0, zero)] * (zero > 0.0) + extra
    weights = np.array([w for _, w in atoms])
    model = GambleModel(xs=[[x] for x, _ in atoms], probs=weights / weights.sum())
    rng = np.random.default_rng(seed)
    ks = rng.random((rows, 1))
    ks[rng.random(rows) < 0.2] *= 1e-4
    ks[:2] = [[0.0], [1.0]][:rows]
    ks *= scale
    if joined:
        model = independent_join(model, model)
        ks = np.hstack([ks, ks]) / 2
    idx = sample_path_indices(model, paths, n_steps, seed)
    out = dbar_samples(model, ks, idx)
    # With no rising atoms to skip on, every slab steps every path.
    with mock.patch.object(drawdown_module, "_rising_atoms", lambda model, by_atom: None):
        dense = dbar_samples(model, ks, idx)
    assert out.tobytes() == dense.tobytes()


def path_steps_of(model, ks, idx, screen=None):
    """(path-steps the recursion ran, dense path-steps, whether the static
    rule let the call skip) of one kernel call."""
    step, rule = drawdown_module._recursion_step, drawdown_module._rising_atoms
    work, skips = [0], []

    def counting(r, d, f, one, out=None):
        work[0] += r.shape[0]
        step(r, d, f, one, out)

    def ruling(model, by_atom):
        rising = rule(model, by_atom)
        skips.append(rising is not None)
        return rising

    with mock.patch.multiple(drawdown_module, _recursion_step=counting, _rising_atoms=ruling):
        dbar_samples(model, ks, idx, screen=screen)
    return work[0], idx.size, any(skips)


def test_idle_skip_steps_only_the_busy_paths():
    # On the even coin at p 0.97, most paths sit at their peak for whole
    # slabs, so the recursion runs at most 40% of the dense path-steps. The
    # skewed coin and the two-coin join draw a losing atom too often (the
    # rising mass q has q^8 < 1/2), and a screened call never skips: each of
    # them runs every path-step.
    axis = np.linspace(0.0, 1.0, 21)[:, None]
    coin = make_coin(1.0, -1.0, 0.97)
    idx = sample_path_indices(coin, 2000, 252, seed=1)
    done, dense, skips = path_steps_of(coin, axis, idx)
    assert done <= 0.4 * dense and skips
    keep_all = lambda d: np.ones(d.shape[1], dtype=bool)
    assert path_steps_of(coin, axis, idx, screen=keep_all) == (dense, dense, False)
    join = independent_join(make_coin(1.0, -1.0, 0.9), make_coin(0.5, -0.4, 0.6))
    pairs = np.array([[a, b] for a in axis[::2, 0] for b in axis[::2, 0] if a + b <= 1.0])
    for model, ks in ((make_coin(0.8, -0.6, 0.6), axis), (join, pairs)):
        idx = sample_path_indices(model, 2000, 252, seed=1)
        assert path_steps_of(model, ks, idx) == (dense, dense, False)
        assert path_steps_of(model, ks, idx, screen=keep_all) == (dense, dense, False)


COIN = st.builds(lambda win, loss, p: make_coin(win, -loss, p),
                 st.floats(0.05, 2.0), st.floats(0.05, 1.0), st.floats(0.05, 0.95))


@settings(max_examples=40, deadline=None)
@given(coin=COIN, coin2=st.one_of(st.none(), COIN),
       kind=st.sampled_from(["expected", "probabilistic"]), eps=st.floats(0.02, 0.9),
       delta=st.floats(0.01, 0.5), n=st.integers(1, 60), seed=st.integers(0, 2**16))
def test_screened_evaluator_keeps_every_verdict(coin, coin2, kind, eps, delta, n, seed):
    # Against one unscreened kernel call on the same CRN matrix: the same ok
    # for every row, the same (estimate, std_error) bit for bit for every row
    # kept, and a row dropped only if its full slack is negative.
    from kellylab import drawdown
    model = coin if coin2 is None else independent_join(coin, coin2)
    spec = ConstraintSpec(kind=kind, epsilon=eps,
                          delta=delta if kind == "probabilistic" else None)
    axis = np.linspace(0.0, 1.0, 21)
    ks = (axis[:, None] if coin2 is None
          else np.array([[a, b] for a in axis[::2] for b in axis[::2] if a + b <= 1.0]))
    evaluate = drawdown._ConstraintEvaluator(model, n, spec, paths=200, seed=seed)
    screened = evaluate.batch(list(ks))
    plain = drawdown._batch_stats(model, spec.samples, ks, evaluate.indices)
    for (ok, est), (full_est, full_se) in zip(screened, plain):
        assert ok == spec.contains_conservatively(full_est, full_se)
        if est is None:
            assert not ok and spec.slack(full_est) < 0.0
        else:
            assert est == (full_est, full_se)


@settings(max_examples=40, deadline=None)
@given(coin=COIN, coin2=st.one_of(st.none(), COIN),
       kind=st.sampled_from(["expected", "probabilistic", "surrogate"]),
       eps=st.floats(1e-9, 0.9), delta=st.floats(1e-9, 0.5), n=st.integers(1, 60),
       paths=st.integers(1, 200), seed=st.integers(0, 2**16))
def test_every_search_admits_the_zero_allocation(coin, coin2, kind, eps, delta, n, paths,
                                                 seed):
    # K = 0 is on the simplex grid and starts every one-asset ray, so every
    # search has a feasible point:
    # E[D] = 0, P(D <= eps) = 1 with std_error 0, and h = 0 > log(1 - eps).
    from kellylab import drawdown
    model = coin if coin2 is None else independent_join(coin, coin2)
    spec = ConstraintSpec(kind=kind, epsilon=eps,
                          delta=delta if kind == "probabilistic" else None)
    evaluate = drawdown._ConstraintEvaluator(model, n, spec, paths=paths, seed=seed)
    zero = np.zeros(model.n_assets)
    ok, (est, se) = evaluate.batch([np.full(model.n_assets, 1.0 / model.n_assets), zero])[1]
    assert ok
    assert est == (1.0 if kind == "probabilistic" else 0.0)
    # Only an enumerated surrogate has no standard error.
    assert se == (None if kind == "surrogate" and drawdown._enumerable(model, n) else 0.0)


# A coin with a positive edge, so that the constraint often binds.
EDGED_COIN = st.builds(lambda win, loss, p: make_coin(win, -loss, p),
                       st.floats(0.3, 2.0), st.floats(0.2, 1.0), st.floats(0.55, 0.95))


@settings(max_examples=60, deadline=None)
@given(coins=st.lists(EDGED_COIN, min_size=1, max_size=3),
       kind=st.sampled_from(["expected", "probabilistic", "surrogate"]),
       eps=st.floats(0.02, 0.5), delta=st.floats(0.01, 0.5), n=st.integers(1, 40),
       seed=st.integers(0, 2**16))
def test_search_answers_an_admitted_allocation(coins, kind, eps, delta, n, seed):
    # No search of any kind, on one, two or three assets, answers with a row
    # the screen dropped: the answer's memo entry is admitted and holds the
    # estimate reported.
    from kellylab import drawdown
    model = coins[0]
    for coin in coins[1:]:
        model = independent_join(model, coin)
    spec = ConstraintSpec(kind=kind, epsilon=eps,
                          delta=delta if kind == "probabilistic" else None)
    evaluators = []

    class Recording(drawdown._ConstraintEvaluator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            evaluators.append(self)

    with mock.patch.object(drawdown, "_ConstraintEvaluator", Recording):
        res = maximize_growth_constrained(model, n, spec, paths=60, seed=seed)
    evaluate, = evaluators
    ok, est = evaluate.seen[np.asarray(res.k_star, dtype=float).tobytes()]
    assert ok and est is not None
    assert est == res.constraint
    assert res.iterations == evaluate.evals


def test_drawdown_writes_its_csv_without_the_cli(tmp_path):
    # The library writes the probe's grid file itself: a fresh interpreter
    # that imports kellylab.drawdown and writes it never loads the CLI.
    import os
    import subprocess
    import sys
    import kellylab
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from kellylab import drawdown as d; "
            "d.write_level_set_csv(d.ProbeReport([d.ProbePoint(0.0, 0.5, d.Estimate(0.1, 0.01), "
            "True)], []), sys.argv[2]); print('kellylab.cli' in sys.modules)")
    src = os.path.dirname(os.path.dirname(kellylab.__file__))
    out = subprocess.run([sys.executable, "-c", code, src, str(tmp_path / "grid.csv")],
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"
    assert (tmp_path / "grid.csv").read_text().splitlines() == [
        "k1,k2,estimate,std_error,in_set", "0.0,0.5,0.1,0.01,1"]


def test_screen_cuts_grid_ray_work_by_more_than_half(monkeypatch):
    # Path-steps are counted at the recursion step; unscreened and dense,
    # every estimate runs all 30 steps on all 300 paths. The grid walk checks
    # the points of largest g first, which lie far outside the set.
    from kellylab import drawdown
    spec = ConstraintSpec(kind="expected", epsilon=0.1)
    step = drawdown._recursion_step
    work = []

    def counting(r, d, f, one, out=None):
        work[-1] += r.size
        step(r, d, f, one, out)

    monkeypatch.setattr(drawdown, "_recursion_step", counting)
    runs = []
    for screen, screen0 in ((drawdown._screen, drawdown._ConstraintEvaluator._screen0),
                            (lambda spec, n_paths: None,
                             lambda self, ks: np.ones(len(ks), dtype=bool))):
        monkeypatch.setattr(drawdown, "_screen", screen)
        monkeypatch.setattr(drawdown._ConstraintEvaluator, "_screen0", screen0)
        work.append(0)
        runs.append(maximize_growth_constrained(TWO_COINS, 30, spec, paths=300, seed=2))
    screened, plain = runs
    assert screened.method == "grid-ray"
    assert np.array_equal(screened.k_star, plain.k_star) and screened.g_star == plain.g_star
    assert screened.constraint == plain.constraint
    assert screened.iterations == plain.iterations
    # Unscreened rows skip idle paths, and this join's factors of exactly 1
    # make some; the dense count stays the reference.
    dense = plain.iterations * 300 * 30
    assert work[1] <= dense
    assert work[0] < 0.5 * dense


def test_step0_screen_halves_the_grid_walks_kernel_calls(monkeypatch):
    # The two-coin expected search of the constrained-2d-scan-symmetric
    # golden case on 300 paths, with and without the step-0 screen: the
    # same answer bit for bit, in at most half the kernel calls, and each
    # atom's share of the paths is counted at most once per search.
    from kellylab import drawdown
    spec = ConstraintSpec(kind="expected", epsilon=0.1)
    kernel, share = drawdown.dbar_samples, drawdown._ConstraintEvaluator._share
    calls, counted = [], []

    def counting(*args, **kwargs):
        calls[-1] += 1
        return kernel(*args, **kwargs)

    def sharing(self, atom):
        counted.append(atom)
        return share(self, atom)

    monkeypatch.setattr(drawdown, "dbar_samples", counting)
    monkeypatch.setattr(drawdown._ConstraintEvaluator, "_share", sharing)
    runs = []
    for screen0 in (drawdown._ConstraintEvaluator._screen0,
                    lambda self, ks: np.ones(len(ks), dtype=bool)):
        monkeypatch.setattr(drawdown._ConstraintEvaluator, "_screen0", screen0)
        calls.append(0)
        runs.append(maximize_growth_constrained(TWO_COINS, 50, spec, paths=300, seed=31))
    screened, plain = runs
    assert screened.method == plain.method == "grid-ray"
    assert screened.k_star.tobytes() == plain.k_star.tobytes()
    assert screened.g_star.hex() == plain.g_star.hex()
    assert screened.constraint == plain.constraint
    assert screened.iterations == plain.iterations
    assert calls[0] <= 0.5 * calls[1]
    assert counted and len(counted) == len(set(counted))


BOUND_COIN = st.builds(lambda win, loss, p: make_coin(win, -loss, p), st.floats(0.05, 2.0),
                       st.one_of(st.just(1.0), st.floats(0.05, 1.0)), st.floats(0.05, 0.95))


@settings(max_examples=60, deadline=None)
@given(coin=BOUND_COIN, coin2=st.one_of(st.none(), st.just("itself"), BOUND_COIN),
       kind=st.sampled_from(["expected", "probabilistic"]), eps=st.floats(0.02, 0.9),
       delta=st.floats(0.01, 0.5), n=st.integers(1, 80), paths=st.integers(1, 300),
       seed=st.integers(0, 2**16))
def test_step0_screen_rejects_only_refused_rows(coin, coin2, kind, eps, delta, n, paths, seed):
    # Every point of the 21-point axis or of the simplex grid that the
    # step-0 bound rejects has an unscreened estimate with negative slack,
    # which the searches' conservative rule refuses.
    from kellylab import drawdown
    model = (coin if coin2 is None
             else independent_join(coin, coin if isinstance(coin2, str) else coin2))
    spec = ConstraintSpec(kind=kind, epsilon=eps,
                          delta=delta if kind == "probabilistic" else None)
    axis = np.linspace(0.0, 1.0, 21)
    ks = axis[:, None] if coin2 is None else drawdown._simplex_grid(axis)
    evaluate = drawdown._ConstraintEvaluator(model, n, spec, paths=paths, seed=seed)
    rejected = ks[~evaluate._screen0(ks)]
    for est, se in drawdown._batch_stats(model, spec.samples, rejected, evaluate.indices):
        assert spec.slack(est) < 0.0
        assert not spec.contains_conservatively(est, se)


def full_scan_grid_refine(model, evaluate, k_un):
    """The 1-asset search as it was before the ray search: the best feasible
    point of a 101-point grid by argmax (the first one on a tie), then
    bisection toward its infeasible neighbour."""
    k_un = float(k_un[0])
    grid = np.linspace(0.0, 1.0, 101)
    flags = [ok for ok, _ in evaluate.batch(grid[:, None])]
    feasible_idx = [i for i, ok in enumerate(flags) if ok]
    i_best = feasible_idx[int(np.argmax(log_growth(grid[feasible_idx, None], model)))]
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


def full_scan_grid_scan(model, evaluate, k_un):
    """The 2-asset search as it was before the ray search: check every
    simplex grid point and keep the first feasible point of largest g in
    scan order."""
    axis = np.arange(0.0, 1.0 + 1e-12, GRID_STEP)
    feasible = []
    for k1 in axis:
        row = [np.array([k1, k2]) for k2 in axis if k1 + k2 <= 1.0 + 1e-12]
        feasible += [kv for kv, (ok, _) in zip(row, evaluate.batch(row)) if ok]
    g = log_growth(np.array(feasible), model)
    best = int(np.argmax(g))
    return feasible[best], float(g[best]), "grid-scan"


# A coin whose mean is positive: its unconstrained optimum bets, so a tight
# constraint sends the search to the ray.
EDGE_COIN = st.builds(lambda loss, p, edge: make_coin(loss * (1 - p) / p * (1 + edge), -loss, p),
                      st.floats(0.05, 1.0), st.floats(0.2, 0.95), st.floats(0.05, 3.0))


def search_and_oracle(model, n, kind, eps, delta, seed, oracle):
    """(search result, oracle result) on the same constraint and CRN matrix."""
    from kellylab import drawdown
    spec = ConstraintSpec(kind=kind, epsilon=eps,
                          delta=delta if kind == "probabilistic" else None)
    res = maximize_growth_constrained(model, n, spec, paths=200, seed=seed)
    with mock.patch.object(drawdown, "_ray_search", oracle):
        old = maximize_growth_constrained(model, n, spec, paths=200, seed=seed)
    assert spec.slack(res.constraint.value) >= 0.0
    return res, old


@settings(max_examples=50, deadline=None)
@given(coin=EDGE_COIN, coin2=st.one_of(st.just("twin"), st.just("same"), COIN),
       kind=st.sampled_from(["expected", "probabilistic"]), eps=st.floats(0.02, 0.3),
       delta=st.floats(0.01, 0.5), n=st.integers(5, 60), seed=st.integers(0, 2**16))
def test_two_asset_ray_search_never_loses_growth_to_the_grid_scan(coin, coin2, kind, eps,
                                                                  delta, n, seed):
    # Two perfectly correlated copies of a coin ("twin") give swapped grid
    # points the same wealth factors bit for bit, so their g tie exactly; an
    # independent join of a coin with itself ("same") has g symmetric in
    # (k1, k2) up to rounding. The ray starts at the scan's answer.
    if coin2 == "twin":
        model = GambleModel(xs=np.repeat(coin.xs, 2, axis=1), probs=coin.probs)
    else:
        model = independent_join(coin, coin if coin2 == "same" else coin2)
    res, old = search_and_oracle(model, n, kind, eps, delta, seed, full_scan_grid_scan)
    assert res.g_star >= old.g_star
    assert (res.method == "unconstrained-feasible") == (old.method == "unconstrained-feasible")


@settings(max_examples=50, deadline=None)
@given(coin=EDGE_COIN, coin2=st.one_of(st.just("twin"), st.just("same"), COIN),
       eps=st.floats(0.02, 0.3), n=st.integers(5, 60), seed=st.integers(0, 2**16))
@example(coin=GambleModel(xs=np.array([[0.3916626], [-0.18164062]]), probs=np.array([0.5, 0.5])),
         coin2=make_coin(1.0, -0.05, 0.40625), eps=0.1, n=16, seed=6139)
@example(coin=make_coin(3.199906556336572, -0.333447987147874, 0.27611020952465104),
         coin2=make_coin(0.05, -0.8535563787354469, 0.675337045411062), eps=0.02, n=5, seed=5)
def test_surrogate_fan_keeps_the_growth_of_the_grid_scan(coin, coin2, eps, n, seed):
    # The surrogate set is convex, so the fan's answer is within 1/2048 in
    # direction, and REFINE_TOL of g along its ray, of the constrained
    # optimum, which no admitted point of the simplex grid beats; 1e-3 of g
    # covers those two tolerances. With three rounds (1/128) and a width of
    # REFINE_TOL the first example lost 0.17% of g to the grid in
    # direction, and the second, whose answer is K = [0.02, 0] on the grid,
    # 0.2% along its ray.
    if coin2 == "twin":
        model = GambleModel(xs=np.repeat(coin.xs, 2, axis=1), probs=coin.probs)
    else:
        model = independent_join(coin, coin if coin2 == "same" else coin2)
    res, old = search_and_oracle(model, n, "surrogate", eps, None, seed, full_scan_grid_scan)
    assert res.method in ("surrogate-fan", "unconstrained-feasible")
    assert res.g_star >= (1.0 - 1e-3) * old.g_star


def test_surrogate_fan_reaches_the_enumerated_boundary():
    # Exact enumeration admits K = [0.3574, 0.5396], where g = 0.270999 (slack
    # 1.4e-5); a search that stops at the first boundary point it meets can
    # end far below it.
    model = independent_join(make_coin(1.0, -1.0, 0.9), make_coin(0.5, -0.4, 0.6))
    res = maximize_growth_constrained(model, 6, ConstraintSpec(kind="surrogate", epsilon=0.2))
    assert res.method == "surrogate-fan" and res.converged
    assert res.g_star >= 0.27
    assert expected_log_complementary(model, res.k_star, 6).value >= math.log(0.8)


@settings(max_examples=50, deadline=None)
@given(coins=st.tuples(EDGE_COIN, EDGE_COIN, EDGE_COIN),
       kind=st.sampled_from(["expected", "probabilistic"]), eps=st.floats(0.02, 0.3),
       delta=st.floats(0.01, 0.5), n=st.integers(5, 30), seed=st.integers(0, 2**16))
def test_three_asset_fan_keeps_the_growth_of_its_centre_ray(coins, kind, eps, delta, n, seed):
    # The expected and probabilistic sets need not be convex, so the fan
    # claims no optimum. Its first fan holds the centre ray u = (1/3, 1/3,
    # 1/3), and a ray stops early only once its tangent bound is below the
    # best g of its batch, so the answer's g is at least that of the centre
    # ray's best admitted point, which a plain bisection finds here; one
    # REFINE_TOL bracket of g covers the rounding of its growth slope.
    model = independent_join(*coins)
    spec = ConstraintSpec(kind=kind, epsilon=eps, delta=delta if kind == "probabilistic" else None)
    res = maximize_growth_constrained(model, n, spec, paths=200, seed=seed)
    fresh = drawdown_module._ConstraintEvaluator(model, n, spec, paths=200, seed=seed)
    assert fresh(res.k_star)[0]
    assert res.method in (f"{kind}-fan", "unconstrained-feasible")
    u = np.full(3, 1.0 / 3.0)
    xu = model.xs @ u

    def slope(t):
        return float(model.probs @ (xu / (1.0 + t * xu)))

    lo, hi = 0.0, 1.0
    while hi - lo > REFINE_TOL:
        mid = 0.5 * (lo + hi)
        if slope(mid) > 0.0 and fresh(mid * u)[0]:
            lo = mid
        else:
            hi = mid
    assert res.g_star >= log_growth(lo * u, model) - REFINE_TOL * slope(lo)


def test_split_interpolates_between_finite_slacks():
    # Rows: the line through (0, 1) and (1, -3) crosses 0 at 0.25; lo has no
    # slack yet; hi is ruinous; a crossing next to lo is kept 2**-7 of the
    # bracket away; the line through (0.25, 3) and (0.75, -1) crosses at 0.625.
    lo = np.array([0.0, 0.0, 0.0, 0.0, 0.25])
    hi = np.array([1.0, 1.0, 1.0, 1.0, 0.75])
    s_lo = np.array([1.0, math.nan, 1.0, 1e-30, 3.0])
    s_hi = np.array([-3.0, -1.0, -math.inf, -1.0, -1.0])
    assert drawdown_module._split(lo, hi, s_lo, s_hi).tolist() == [0.25, 0.5, 0.5, 2.0 ** -7, 0.625]


def bisect_surrogate(lo, hi, s_lo, s_hi):
    return 0.5 * (lo + hi)


@settings(max_examples=40, deadline=None)
@given(coin=EDGE_COIN, eps=st.floats(0.02, 0.5), n=st.integers(1, 60),
       paths=st.integers(1, 300), seed=st.integers(0, 2**16))
def test_interpolated_surrogate_ray_ends_where_bisection_does(coin, eps, n, paths, seed):
    # The verdict at an interpolated split moves lo or hi as at a midpoint,
    # so both searches end with an admitted lo within their width of the
    # same boundary point.
    spec = ConstraintSpec(kind="surrogate", epsilon=eps)
    res = maximize_growth_constrained(coin, n, spec, paths=paths, seed=seed)
    with mock.patch.object(drawdown_module, "_split", bisect_surrogate):
        bisected = maximize_growth_constrained(coin, n, spec, paths=paths, seed=seed)
    assert res.method == bisected.method
    assert spec.slack(res.constraint.value) >= 0.0
    assert abs(res.k_star[0] - bisected.k_star[0]) <= REFINE_TOL * 1e-2 * (1 + 1e-9)


def test_interpolated_surrogate_ray_takes_fewer_estimates():
    # The one-asset search of the constrained-1d-surrogate golden case and
    # the two-asset one of constrained-2d-surrogate-exact.
    cases = [(make_coin(1.0, -1.0, 0.9), 10, 0.3),
             (independent_join(make_coin(1.0, -1.0, 0.9), make_coin(0.5, -0.4, 0.6)), 6, 0.2)]
    for model, n, eps in cases:
        spec = ConstraintSpec(kind="surrogate", epsilon=eps)
        res = maximize_growth_constrained(model, n, spec)
        with mock.patch.object(drawdown_module, "_split", bisect_surrogate):
            bisected = maximize_growth_constrained(model, n, spec)
        assert res.iterations < bisected.iterations
        assert res.g_star >= bisected.g_star - 1e-6 * abs(bisected.g_star)


@settings(max_examples=50, deadline=None)
@given(coin=EDGE_COIN, kind=st.sampled_from(["expected", "probabilistic"]),
       eps=st.floats(0.02, 0.3), delta=st.floats(0.01, 0.5), n=st.integers(5, 60),
       seed=st.integers(0, 2**16))
def test_one_asset_bisection_lands_within_refine_tol_of_the_grid_refine(coin, kind, eps, delta,
                                                                         n, seed):
    # Both end in a bracket of width REFINE_TOL around the right end of the
    # feasible interval [0, rho].
    res, old = search_and_oracle(coin, n, kind, eps, delta, seed, full_scan_grid_refine)
    assert abs(res.k_star[0] - old.k_star[0]) < REFINE_TOL
    assert res.method in (f"{kind}-bisect", "unconstrained-feasible")
    assert (res.method == "unconstrained-feasible") == (old.method == "unconstrained-feasible")


@settings(max_examples=60, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, ATOM_COMPONENT, st.floats(0.05, 1.0)),
                      min_size=1, max_size=5),
       one_asset=st.booleans(), a=st.floats(0.0, 1.0),
       ts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20),
       n=st.integers(1, 60), seed=st.integers(0, 2**16))
def test_complementary_drawdown_never_rises_along_a_ray(atoms, one_asset, a, ts, n, seed):
    # Per path, log(1 - D) along K = t * u is a minimum of sums that are
    # concave in t and 0 at t = 0, so it never rises. In floats a factor
    # whose return along u cancels to within rounding of 0 can round one
    # ulp either side of 1 as t moves, so 1 - D may move up by n ulps.
    weights = np.array([w for _, _, w in atoms])
    xs = [[x1] if one_asset else [x1, x2] for x1, x2, _ in atoms]
    model = GambleModel(xs=xs, probs=weights / weights.sum())
    u = np.ones(1) if one_asset else np.array([a, 1.0 - a])
    t = np.sort(ts)
    dbar = dbar_samples(model, t[:, None] * u, sample_path_indices(model, 50, n, seed))
    assert (np.diff(dbar, axis=0) <= n * np.finfo(float).eps).all()


def test_ray_through_two_total_loss_coins_rounds_below_minus_one(monkeypatch):
    # u = (0.06, 0.58) / 0.64 gives the both-lose atom the return
    # -1.0000000000000002 along u, which a GambleModel rejects; the ray's
    # growth peak is found on the return column itself.
    from kellylab import drawdown
    kg = np.array([0.06, 0.58])
    u = kg / kg.sum()
    assert (TWO_COINS.xs @ u).min() < -1.0
    with pytest.raises(ValueError):
        GambleModel(xs=(TWO_COINS.xs @ u)[:, None], probs=TWO_COINS.probs)
    best_feasible = drawdown._best_feasible

    def at_kg(evaluate, points, g):
        best_feasible(evaluate, points, g)
        return int(np.flatnonzero((points == kg).all(axis=1))[0])

    # The unconstrained optimum admits this eps, so the search runs alone:
    # E[D] is 0.51 at kg and 0.71 at the ray's growth peak.
    monkeypatch.setattr(drawdown, "_best_feasible", at_kg)
    spec = ConstraintSpec(kind="expected", epsilon=0.6)
    evaluate = drawdown._ConstraintEvaluator(TWO_COINS, 20, spec,
                                             paths=200, seed=1)
    k, g, method = drawdown._ray_search(TWO_COINS, evaluate, maximize_growth(TWO_COINS).k_star)
    assert method == "grid-ray"
    assert g == log_growth(k, TWO_COINS) > log_growth(kg, TWO_COINS)
    assert np.allclose(k / k.sum(), u, rtol=0, atol=1e-15) and k.sum() > kg.sum()
    ok, est = evaluate(k)
    assert ok and 0.0 <= spec.slack(est.value) < 0.01


class FlagEvaluator:
    """Stands in for _ConstraintEvaluator: point i of np.arange(P)[:, None]
    is feasible iff i is in `feasible`; records the points of each batch."""

    def __init__(self, feasible):
        self.feasible, self.batches = set(feasible), []

    def batch(self, ks):
        self.batches.append([int(kv[0]) for kv in ks])
        return [(i in self.feasible, None) for i in self.batches[-1]]


@pytest.mark.parametrize("chunk", [1, 2, 3, 64])
def test_best_feasible_keeps_the_first_of_tied_points(monkeypatch, chunk):
    from kellylab import drawdown
    monkeypatch.setattr(drawdown, "_GRID_CHUNK", chunk)
    inf = math.inf
    g = np.array([1.0, 3.0, -inf, 3.0, 2.0, 3.0, -inf, 0.5])
    points = np.arange(g.size, dtype=float)[:, None]
    falling = [1, 3, 5, 4, 0, 7, 2, 6]   # stable order of falling g
    for feasible, best in [({0, 3, 5, 6}, 3), ({5, 7}, 5), ({4, 5}, 5), ({0, 7}, 0),
                           ({2, 6}, 2), ({6}, 6), (set(range(8)), 1)]:
        evaluate = FlagEvaluator(feasible)
        assert drawdown._best_feasible(evaluate, points, g) == best
        checked = sum(evaluate.batches, [])
        # Every batch is a chunk of the falling order, and the walk stops at
        # the chunk that holds the answer.
        assert checked == falling[:len(checked)]
        assert all(len(b) == chunk for b in evaluate.batches[:-1])
        assert best in evaluate.batches[-1]
        assert len(checked) == min(g.size, chunk * (falling.index(best) // chunk + 1))


def test_three_asset_search_dispatch(monkeypatch):
    from kellylab import drawdown
    calls = []
    original = drawdown.sample_path_indices

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(drawdown, "sample_path_indices", counting)
    three = independent_join(EVEN9, EVEN9, SKEWED)
    for kind, delta in (("expected", None), ("probabilistic", 0.1)):
        calls.clear()
        spec = ConstraintSpec(kind=kind, epsilon=0.1, delta=delta)
        res = maximize_growth_constrained(three, 30, spec, paths=200, seed=3)
        assert res.method == f"{kind}-fan"
        assert len(calls) == 1   # one CRN matrix serves every ray of every fan
        assert spec.slack(res.constraint.value) >= 0.0
    calls.clear()
    res = maximize_growth_constrained(three, 4, ConstraintSpec(kind="surrogate", epsilon=0.1))
    assert res.method == "surrogate-fan"
    assert calls == []   # 8^4 sequences are enumerated, so no CRN matrix is sampled


@pytest.mark.parametrize("kind,k_bits,g_bits,estimates", [
    ("expected", "d84d082b2b8ea23f6e6291a970fbbd3fa476eac07909b33f", "c313dec1b451993f", 3059),
    ("probabilistic", "b91275380c1e953fbd0333c14917af3fe3729222b00da13f", "5c50ed0c6eb38b3f", 3183),
], ids=["expected", "probabilistic"])
def test_fan_checks_only_each_levels_midpoints(kind, k_bits, g_bits, estimates):
    # The three-asset golden model. The bits and estimate counts are those
    # of the fan when every expected or probabilistic ray also checked ahead
    # the 7 midpoints of its next 3 levels, in a batch of 9 rays; checking
    # only each level's own midpoints keeps the answer and makes fewer
    # estimates, and no batch of a level is larger than its rays.
    import json
    from kellylab.gamble import model_from_dict
    from test_golden import INPUTS
    model = model_from_dict(json.loads(INPUTS["three-assets.json"]))
    spec = ConstraintSpec(kind=kind, epsilon=0.15, delta=0.1 if kind == "probabilistic" else None)
    res = maximize_growth_constrained(model, 20, spec, paths=300, seed=19)
    assert res.method == f"{kind}-fan"
    assert res.k_star.tobytes().hex() == k_bits
    assert np.float64(res.g_star).tobytes().hex() == g_bits
    assert res.iterations < estimates / 2
    evaluate = RecordingEvaluator(kind)
    us = np.tile([1.0 / 3] * 3, (9, 1))
    drawdown_module._ray_best(model, evaluate, np.zeros(3), us, 0.0, 1.0, REFINE_TOL)
    assert max(evaluate.batches) <= len(us)


@pytest.mark.parametrize("paths,n_steps", [(0, 10), (10, 0), (-1, 10)])
def test_sample_path_indices_rejects_empty_sizes(paths, n_steps):
    with pytest.raises(ValueError, match="paths >= 1 and n_steps >= 1"):
        sample_path_indices(SKEWED, paths, n_steps, seed=0)


def serial_ray_best(model, evaluate, k_lo, us, lo, hi, tol):
    """Plain bisection of _ray_best's rays, without the surrogate's split:
    each level checks only its own midpoints, in one evaluate.batch. The
    oracle for the expected and probabilistic rays of _ray_best."""
    xu = model.xs @ us.T
    lo, hi = (np.full(len(us), end, dtype=float) for end in (lo, hi))
    g, slope = drawdown_module._along(xu, model.probs, lo)
    live = hi - lo > tol
    while live.any():
        mid = 0.5 * (lo + hi)
        g_mid, slope_mid = drawdown_module._along(xu, model.probs, mid)
        ok = live & (slope_mid > 0.0)
        ok[ok] = [admitted for admitted, _ in evaluate.batch(mid[ok, None] * us[ok])]
        lo, g, slope = np.where(ok, [mid, g_mid, slope_mid], [lo, g, slope])
        hi = np.where(live & ~ok, mid, hi)
        live &= (hi - lo > tol) & (g + slope * (hi - lo) >= g.max())
    k = lo[:, None] * us
    g, g_lo = log_growth(k, model), log_growth(k_lo, model)
    better = (lo != k_lo.sum()) & (g > g_lo)
    return np.where(better[:, None], k, k_lo), np.where(better, g, g_lo)


def assert_search_equals_serial_ray_best(model, n_steps, spec, paths, seed):
    searched = maximize_growth_constrained(model, n_steps, spec, paths=paths, seed=seed)
    with mock.patch.object(drawdown_module, "_ray_best", serial_ray_best):
        serial = maximize_growth_constrained(model, n_steps, spec, paths=paths, seed=seed)
    assert searched.method == serial.method
    assert np.array_equal(searched.k_star, serial.k_star)
    assert (searched.g_star, searched.constraint) == (serial.g_star, serial.constraint)
    # Bisection checks the points it visits, and no others.
    assert searched.iterations == serial.iterations
    return searched


@pytest.mark.parametrize("model,n_steps,spec,method", [
    (SKEWED, 120, ConstraintSpec(kind="expected", epsilon=0.2), "expected-bisect"),
    (EVEN9, 60, ConstraintSpec(kind="probabilistic", epsilon=0.5, delta=0.1),
     "probabilistic-bisect"),
    (TWO_COINS, 30, ConstraintSpec(kind="expected", epsilon=0.1), "grid-ray"),
    (TWO_COINS, 30, ConstraintSpec(kind="probabilistic", epsilon=0.2, delta=0.2), "grid-ray"),
], ids=["1d-expected", "1d-probabilistic", "2d-expected", "2d-probabilistic"])
def test_prefetched_ray_equals_serial_bisection(model, n_steps, spec, method):
    # The ray search is plain bisection, bit for bit and estimate for
    # estimate.
    searched = assert_search_equals_serial_ray_best(model, n_steps, spec, paths=300, seed=2)
    assert searched.method == method


@settings(max_examples=30, deadline=None)
@given(coin=COIN, coin2=st.one_of(st.none(), COIN),
       kind=st.sampled_from(["expected", "probabilistic"]), eps=st.floats(0.02, 0.9),
       delta=st.floats(0.01, 0.5), n=st.integers(1, 40), seed=st.integers(0, 2**16))
def test_prefetched_ray_equals_serial_bisection_on_any_coins(coin, coin2, kind, eps, delta, n,
                                                             seed):
    model = coin if coin2 is None else independent_join(coin, coin2)
    spec = ConstraintSpec(kind=kind, epsilon=eps,
                          delta=delta if kind == "probabilistic" else None)
    assert_search_equals_serial_ray_best(model, n, spec, paths=150, seed=seed)


class RecordingEvaluator:
    """Admits every allocation and records the size of each batch."""

    def __init__(self, kind):
        self.spec = ConstraintSpec(kind=kind, epsilon=0.2,
                                   delta=0.1 if kind == "probabilistic" else None)
        self.batches = []

    def batch(self, ks):
        self.batches.append(len(ks))
        return [(True, Estimate(0.0, 0.0))] * len(ks)


@pytest.mark.parametrize("kind", ["surrogate", "expected", "probabilistic"])
def test_every_kinds_lone_ray_checks_one_midpoint_per_level(kind):
    # Every kind bisects [0, 0.5] to width 2**-11 in 10 levels, and each
    # level checks only its own midpoint, in one evaluate.batch.
    evaluate = RecordingEvaluator(kind)
    k, g = drawdown_module._ray_best(SKEWED, evaluate, np.zeros(1), np.ones((1, 1)),
                                     0.0, 0.5, 2.0 ** -11)
    plain = serial_ray_best(SKEWED, RecordingEvaluator(kind), np.zeros(1), np.ones((1, 1)),
                            0.0, 0.5, 2.0 ** -11)
    assert np.array_equal(k, plain[0]) and np.array_equal(g, plain[1])
    assert evaluate.batches == [1] * 10
    fan = RecordingEvaluator("surrogate")
    us = np.array([[1.0 - s, s] for s in np.linspace(0.0, 1.0, 9)])
    drawdown_module._ray_best(TWO_COINS, fan, np.zeros(2), us, 0.0, 1.0, REFINE_TOL)
    assert max(fan.batches) <= len(us)


def test_grid_scan_keeps_first_of_tied_points(monkeypatch):
    # Two identical, perfectly correlated assets: swapped allocations give the
    # same wealth factors bit for bit, so their growth and estimates tie. The
    # scan visits K1 in ascending order and keeps the first best point, and
    # the ray starts from it.
    from kellylab import drawdown
    starts = []
    ray_best = drawdown._ray_best

    def recording(model, evaluate, k_lo, us, lo, hi, tol):
        starts.append(k_lo)
        return ray_best(model, evaluate, k_lo, us, lo, hi, tol)

    monkeypatch.setattr(drawdown, "_ray_best", recording)
    m = GambleModel(xs=[[1.0, 1.0], [-1.0, -1.0]], probs=[0.8, 0.2])
    res = maximize_growth_constrained(m, 30, ConstraintSpec(kind="expected", epsilon=0.2),
                                      paths=200, seed=1)
    assert res.method == "grid-ray"
    (k_g,) = starts
    assert k_g[0] == 0.0 and k_g[1] > 0.0
    assert log_growth(k_g[::-1], m) == log_growth(k_g, m)
    assert res.k_star[0] == 0.0 and res.k_star[1] > k_g[1]
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
    assert mean_se(expected.samples(dbar)) == mean_se(1.0 - dbar)
    assert mean_se(prob.samples(dbar)) == mean_se(np.array([1.0, 1.0, 0.0, 1.0]))


def test_surrogate_statistic_is_mean_log_complement():
    # P(D <= eps) of these paths is 2/3, but E[log(1 - D)] = -0.266 < log 0.8.
    spec = ConstraintSpec(kind="surrogate", epsilon=0.2)
    dbar = np.array([1.0, 0.5, 0.9])
    est, se = mean_se(spec.samples(dbar))
    assert (est, se) == mean_se_oracle(np.log(dbar))
    assert est == pytest.approx(-0.2662, abs=1e-4) and not spec.contains(est)
    # A ruined path is -inf, with no RuntimeWarning (pytest makes them errors).
    assert spec.samples(np.array([0.0, 0.5]))[0] == -math.inf
    assert mean_se(spec.samples(np.array([0.0, 0.5])))[0] == -math.inf
    # The Monte Carlo surrogate estimate is this statistic of its paths.
    idx = sample_path_indices(TWO_COINS, 300, 12, 6)
    for kv in ([0.1, 0.2], [0.3, 0.05]):
        h = expected_log_complementary(TWO_COINS, kv, 12, paths=300, seed=6)
        assert (h.value, h.std_error) == mean_se(spec.samples(dbar_samples(TWO_COINS, kv, idx)))


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
    # Only the probabilistic kind has a delta.
    for kind in ("expected", "surrogate"):
        with pytest.raises(ValueError, match="delta"):
            ConstraintSpec(kind=kind, epsilon=0.5, delta=0.5)


# ---------------------------------------------------------------------------
# Convexity probe
# ---------------------------------------------------------------------------

def test_sampled_entry_points_take_paths_and_seed():
    # One convention for the sampling settings of every sampled statistic
    # and search: paths and seed, with the same defaults.
    import kellylab
    for fn in (expected_drawdown_mc, expected_log_complementary, maximize_growth_constrained,
               convexity_probe):
        params = inspect.signature(fn).parameters
        assert (params["paths"].default, params["seed"].default) == (10_000, 0), fn.__name__
        assert "mc" not in params, fn.__name__
    assert not hasattr(kellylab, "MonteCarloConfig")


def test_probe_requires_two_assets():
    spec = ConstraintSpec(kind="expected", epsilon=0.3)
    with pytest.raises(ValueError, match="2-asset"):
        convexity_probe(SKEWED, 20, spec)


@pytest.mark.parametrize("pairs", [0, -1])
def test_probe_requires_a_pair(pairs):
    spec = ConstraintSpec(kind="expected", epsilon=0.3)
    with pytest.raises(ValueError, match="pair_samples"):
        convexity_probe(TWO_COINS, 10, spec, pair_samples=pairs,
                        paths=100, seed=0)


def test_probe_near_vacuous_level_has_no_violations():
    spec = ConstraintSpec(kind="expected", epsilon=0.999)
    rep = convexity_probe(TWO_COINS, 20, spec, grid_resolution=20, pair_samples=30,
                          paths=400, seed=2)
    assert all(p.in_set for p in rep.grid)
    assert rep.significant_violations == 0 and len(rep.violations) == 0


def test_probe_on_deterministic_model_matches_direct_computation():
    # One atom: the path is deterministic, D(K) = 0 if 1+k'x >= 1 else 1-(1+k'x)^N.
    atom = np.array([0.2, -0.4])
    det = GambleModel(xs=[atom], probs=[1.0])
    n, eps = 12, 0.3
    spec = ConstraintSpec(kind="expected", epsilon=eps)
    rep = convexity_probe(det, n, spec, grid_resolution=20, pair_samples=40,
                          paths=200, seed=3)
    for pt in rep.grid:
        f = 1.0 + atom @ np.array([pt.k1, pt.k2])
        expected = 0.0 if f >= 1.0 else 1.0 - f**n
        assert pt.estimate.value == pytest.approx(expected, abs=1e-12)
        assert pt.estimate.std_error <= 1e-15
        assert pt.in_set == (expected <= eps)
    assert rep.significant_violations == 0 and len(rep.violations) == 0



@settings(max_examples=40, deadline=None)
@given(atoms=st.lists(st.tuples(ATOM_COMPONENT, ATOM_COMPONENT), min_size=1, max_size=5),
       resolution=st.integers(20, 40))
def test_simplex_grids_are_feasible_for_any_model(atoms, resolution):
    # Every atom is >= -1, so no point of the 2-asset scan axis or of a probe
    # grid needs a feasibility filter; exact -1 atoms sit on the ruin boundary.
    model = GambleModel(xs=np.array(atoms), probs=np.full(len(atoms), 1.0 / len(atoms)))
    scan = np.arange(0.0, 1.0 + 1e-12, GRID_STEP)
    assert all(is_feasible([k1, k2], model) for k1 in scan for k2 in scan
               if k1 + k2 <= 1.0 + 1e-12)
    rep = convexity_probe(model, 1, ConstraintSpec(kind="expected", epsilon=0.5),
                          grid_resolution=resolution, pair_samples=2,
                          paths=2, seed=0)
    assert len(rep.grid) == resolution * (resolution + 1) // 2
    assert all(is_feasible([pt.k1, pt.k2], model) for pt in rep.grid)


@pytest.mark.parametrize("spec,kwargs,message", [
    (ConstraintSpec(kind="surrogate", epsilon=0.2), {}, "expected/probabilistic"),
    (ConstraintSpec(kind="expected", epsilon=0.2), {"grid_resolution": 10},
     "grid_resolution must be >= 20"),
], ids=["surrogate", "coarse-grid"])
def test_probe_rejects_what_it_cannot_probe(spec, kwargs, message):
    with pytest.raises(ValueError, match=message):
        convexity_probe(TWO_COINS, 10, spec, paths=10, **kwargs)


def test_probe_grid_csv_format(tmp_path, capsys):
    # The CLI writes its grid file with write_level_set_csv: the same bytes,
    # each float as its repr and in_set as 0 or 1.
    from kellylab.cli import main
    spec = ConstraintSpec(kind="probabilistic", epsilon=0.3, delta=0.2)
    rep = convexity_probe(TWO_COINS, 20, spec, grid_resolution=20, pair_samples=10,
                          paths=300, seed=4)
    out = tmp_path / "grid.csv"
    write_level_set_csv(rep, out)
    assert main(["probe-convexity", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.9",
                 "--kind", "probabilistic", "--eps", "0.3", "--delta", "0.2", "--n", "20",
                 "--paths", "300", "--seed", "4", "--pairs", "10",
                 "--out", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    assert (tmp_path / "cli.grid.csv").read_bytes() == out.read_bytes()
    lines = out.read_text().splitlines()
    assert lines[0] == "k1,k2,estimate,std_error,in_set"
    assert lines[1:] == [f"{pt.k1!r},{pt.k2!r},{pt.estimate.value!r},{pt.estimate.std_error!r},"
                         f"{int(pt.in_set)}" for pt in rep.grid]
