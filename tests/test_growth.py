"""Log-growth evaluation, its gradient, and the maximizer."""

import math

import numpy as np
import pytest

from kellylab import (GambleModel, annualized_return, growth_gradient, is_feasible,
                      log_growth, make_coin, maximize_growth, moments)
from kellylab.growth import project_allocation

SKEWED = make_coin(0.15, -0.95, 0.95)


def random_model(rng, n_assets=None):
    n = n_assets or int(rng.integers(1, 4))
    m = int(rng.integers(2, 6))
    xs = rng.uniform(-0.9, 2.0, size=(m, n))
    p = rng.uniform(0.05, 1.0, size=m)
    return GambleModel(xs=xs, probs=p / p.sum())


def random_feasible(rng, n, scale_max=1.0):
    k = rng.uniform(0.0, 1.0, size=n)
    target = rng.uniform(0.0, scale_max)
    s = k.sum()
    return k * (target / s) if s > 0 else k


# ---------------------------------------------------------------------------
# log_growth
# ---------------------------------------------------------------------------

def test_zero_bet_zero_growth():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = random_model(rng)
        assert log_growth(np.zeros(m.n_assets), m) == 0.0


def test_growth_at_full_bet_on_skewed_coin():
    expected = 0.95 * math.log(1.15) + 0.05 * math.log(0.05)
    assert log_growth(1.0, SKEWED) == pytest.approx(expected, abs=1e-15)
    assert log_growth(1.0, SKEWED) == pytest.approx(-0.017, abs=1e-3)


def test_growth_near_optimum_of_skewed_coin():
    assert log_growth(0.6667, SKEWED) == pytest.approx(0.0404, abs=1e-4)


def test_total_loss_atom_gives_minus_infinity():
    assert log_growth(1.0, make_coin(1.0, -1.0, 0.6)) == -math.inf


def test_infeasible_allocation_rejected():
    with pytest.raises(ValueError, match="infeasible"):
        log_growth(1.5, SKEWED)


@pytest.mark.parametrize("seed", range(12))
def test_batched_log_growth_rows_equal_single_calls(seed):
    # Each row keeps its own matvec and dot: one (B, m) @ (m,) product rounds
    # differently. A -1 atom at a full bet zeroes a factor, giving -inf.
    rng = np.random.default_rng(seed)
    m = random_model(rng)
    if seed % 3 == 0:
        m = GambleModel(xs=np.vstack([m.xs, -np.ones(m.n_assets)]),
                        probs=np.append(0.9 * m.probs, 0.1))
    ks = np.array([random_feasible(rng, m.n_assets) for _ in range(40)]
                  + [np.full(m.n_assets, 1.0 / m.n_assets), np.zeros(m.n_assets)])
    g = log_growth(ks, m)
    assert g.shape == (len(ks),)
    for kv, gb in zip(ks, g):
        single = log_growth(kv, m)
        assert gb == single and type(single) is float
    assert (seed % 3 == 0) == (g[-2] == -math.inf)


def test_batched_log_growth_names_the_infeasible_row():
    with pytest.raises(ValueError, match=r"allocation array\(\[1\.5\]\) is infeasible"):
        log_growth(np.array([[0.2], [1.5], [2.0]]), SKEWED)
    assert log_growth(np.empty((0, 1)), SKEWED).shape == (0,)


# ---------------------------------------------------------------------------
# growth_gradient
# ---------------------------------------------------------------------------

def test_gradient_at_origin_is_mean():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_model(rng)
        assert np.allclose(growth_gradient(np.zeros(m.n_assets), m),
                           moments(m).mean, atol=1e-14)


def test_gradient_vanishes_at_coin_optimum():
    for p in (0.55, 0.7, 0.9):
        coin = make_coin(1.0, -1.0, p)
        assert growth_gradient(2 * p - 1, coin)[0] == pytest.approx(0.0, abs=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(13)
    h = 1e-6
    for _ in range(40):
        m = random_model(rng, n_assets=2)
        k = random_feasible(rng, 2, 0.9)
        grad = growth_gradient(k, m)
        fd = np.empty(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd[i] = (log_growth(k + e, m) - log_growth(k - e, m)) / (2 * h)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)


def test_gradient_rejects_ruin_boundary():
    with pytest.raises(ValueError, match="boundary"):
        growth_gradient(1.0, make_coin(1.0, -1.0, 0.6))


# ---------------------------------------------------------------------------
# maximize_growth
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", [0.55, 0.6, 0.75, 0.99])
def test_even_coin_closed_form(p):
    res = maximize_growth(make_coin(1.0, -1.0, p))
    assert res.converged
    assert res.k_star[0] == pytest.approx(2 * p - 1, abs=1e-9)


@pytest.mark.parametrize("p", [0.3, 0.5])
def test_even_coin_no_edge_means_no_bet(p):
    res = maximize_growth(make_coin(1.0, -1.0, p))
    assert res.k_star[0] == 0.0 and res.g_star == 0.0


def test_skewed_coin_optimum():
    res = maximize_growth(SKEWED)
    assert res.k_star[0] == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert res.g_star == pytest.approx(0.0404, abs=5e-4)


def test_nonpositive_mean_model_sits_out():
    # Oracle: dense grid scan at 1e-3 resolution confirms 0 is the argmax.
    m = GambleModel(xs=[[0.5, -0.2], [-0.5, 0.1]], probs=[0.4, 0.6])
    assert np.all(moments(m).mean <= 0)
    res = maximize_growth(m)
    assert np.allclose(res.k_star, 0.0, atol=1e-9)
    # The same (a, b) points as a scalar scan over a in grid, b in
    # grid[: int((1 - a) * 1000) + 1], in one vectorised evaluation of g.
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    counts = [int((1.0 - a) * 1000) + 1 for a in grid]
    ks = np.column_stack([np.repeat(grid, counts),
                          np.concatenate([grid[:c] for c in counts])])
    assert np.all(ks.sum(axis=1) <= 1.0 + 1e-9)
    factors = 1.0 + ks @ m.xs.T
    assert np.all(factors > 0.0)
    best = float(np.max(np.log(factors) @ m.probs))
    assert best <= res.g_star + 1e-12


def test_optimizer_beats_random_feasible_points():
    rng = np.random.default_rng(23)
    for _ in range(5):
        m = random_model(rng, n_assets=int(rng.integers(2, 4)))
        res = maximize_growth(m)
        assert res.converged
        for _ in range(1000):
            k = random_feasible(rng, m.n_assets)
            if is_feasible(k, m):
                assert log_growth(k, m) <= res.g_star + 1e-9


def test_optimizer_is_deterministic():
    rng = np.random.default_rng(31)
    m = random_model(rng, n_assets=3)
    a = maximize_growth(m)
    b = maximize_growth(m)
    assert np.array_equal(a.k_star, b.k_star)
    assert a.g_star == b.g_star and a.iterations == b.iterations


def test_growth_result_internally_consistent():
    res = maximize_growth(SKEWED)
    assert is_feasible(res.k_star, SKEWED)
    assert res.g_star == pytest.approx(log_growth(res.k_star, SKEWED), abs=1e-12)


def test_concavity_on_random_triples():
    rng = np.random.default_rng(37)
    for _ in range(200):
        m = random_model(rng)
        n = m.n_assets
        k1, k2 = random_feasible(rng, n, 0.95), random_feasible(rng, n, 0.95)
        lam = rng.uniform()
        mid = lam * k1 + (1 - lam) * k2
        g_mid = log_growth(mid, m)
        assert g_mid >= lam * log_growth(k1, m) + (1 - lam) * log_growth(k2, m) - 1e-10


# ---------------------------------------------------------------------------
# annualized_return
# ---------------------------------------------------------------------------

def test_zero_growth_zero_rate():
    assert annualized_return(0.0, 1 / 252) == 0.0


def test_rate_of_skewed_coin_optimum():
    g_star = maximize_growth(SKEWED).g_star
    assert annualized_return(g_star, 1 / 252) == pytest.approx(10.384, abs=0.02)


def test_rate_formula_value_at_full_bet():
    # Hand evaluation of (e^g - 1)*252 at g(1) = -0.0170128.
    g1 = log_growth(1.0, SKEWED)
    assert annualized_return(g1, 1 / 252) == pytest.approx(-4.2510, abs=1e-3)


def test_rate_requires_positive_dt():
    for dt in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            annualized_return(0.1, dt)


# ---------------------------------------------------------------------------
# projection onto {k >= 0, sum k <= 1}
# ---------------------------------------------------------------------------

def test_projection_is_closest_feasible_point():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        v = rng.uniform(-1.5, 2.5, size=n)
        proj = project_allocation(v)
        assert np.all(proj >= 0) and proj.sum() <= 1 + 1e-12
        for _ in range(30):
            q = random_feasible(rng, n)
            assert np.linalg.norm(proj - v) <= np.linalg.norm(q - v) + 1e-10


def test_projection_fixes_feasible_points():
    v = np.array([0.2, 0.3])
    assert np.array_equal(project_allocation(v), v)
