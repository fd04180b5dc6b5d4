"""Acceptance suite: one test per criterion, each printing a PASS line with the
measured values. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest

import kellylab as kl
from kellylab.adaptive import trace_rows

SKEWED = kl.make_coin(0.15, -0.95, 0.95)


def report(n, text):
    print(f"[criterion {n:>2}] PASS: {text}")


# ---------------------------------------------------------------------------
# 1. Even-coin closed form
# ---------------------------------------------------------------------------

def test_criterion_01_even_coin_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for p in (0.55, 0.6, 0.75, 0.99):
        res = kl.maximize_growth(kl.make_coin(1.0, -1.0, p))
        worst = max(worst, abs(res.k_star[0] - (2 * p - 1)))
        assert abs(res.k_star[0] - (2 * p - 1)) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"max |K* - (2p-1)| = {worst:.2e} in {elapsed:.3f}s")


# ---------------------------------------------------------------------------
# 2. Skewed-coin comparison table
# ---------------------------------------------------------------------------

def test_criterion_02_skewed_coin_table():
    t0 = time.perf_counter()
    res = kl.maximize_growth(SKEWED)
    g1 = kl.log_growth(1.0, SKEWED)
    kappa_t = kl.taylor_solution(SKEWED)[0]
    kappa_g = kl.gbm_solution(SKEWED)[0]
    r_star = kl.annualized_return(res.g_star, 1 / 252)

    assert abs(res.k_star[0] - 0.6667) <= 1e-3
    assert abs(res.g_star - 0.0404) <= 5e-4
    assert abs(g1 - (-0.017)) <= 1e-3
    assert abs(kappa_t - 1.4286) <= 1e-3
    assert abs(kappa_g - 1.6529) <= 1e-3
    assert abs(r_star - 10.384) <= 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, f"K*={res.k_star[0]:.4f} g*={res.g_star:.4f} g(1)={g1:.4f} "
              f"kappa=({kappa_t:.4f},{kappa_g:.4f}) r*={r_star:.3f} in {elapsed:.3f}s")


@pytest.mark.xfail(strict=True, reason=(
    "target r(1) = -3.443 is unreachable: the stated conversion "
    "(1/dt)(e^g - 1) applied to g(1) = -0.01701 gives -4.251; the same "
    "conversion does reproduce r(K*) = 10.384, so the -3.443 reference value "
    "is inconsistent with its own formula"))
def test_criterion_02_full_bet_rate_reference_value():
    r1 = kl.annualized_return(kl.log_growth(1.0, SKEWED), 1 / 252)
    print(f"[criterion  2] r(1) computed = {r1:.4f}, reference = -3.443")
    assert abs(r1 - (-3.443)) <= 0.005


# ---------------------------------------------------------------------------
# 3. Ray projection + empirical-PMF dominance
# ---------------------------------------------------------------------------

def test_criterion_03_projection_and_pipeline_dominance(tmp_path):
    proj = kl.project_simplex_ray([5.321, 2.725])
    assert np.allclose(proj, [0.661, 0.339], atol=1e-3)

    margins = []
    for seed in (101, 202):
        rng = np.random.default_rng(seed)
        days = 90
        dates = [f"2013-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(days)]
        cols = [100 * np.cumprod(1 + rng.normal(0.002, 0.02, days)) for _ in range(2)]
        f = tmp_path / f"prices{seed}.csv"
        f.write_text("date,AAA,BBB\n" + "\n".join(
            f"{dates[i]},{float(cols[0][i])!r},{float(cols[1][i])!r}"
            for i in range(days)) + "\n")
        series, _ = kl.load_prices(f)
        pmf = kl.to_returns(series)
        best = kl.maximize_growth(pmf)
        assert best.converged
        for method in ("taylor", "gbm"):
            sol = kl.approx_solution(pmf, method)
            g_rep = kl.log_growth(sol.k_repaired, pmf)
            assert best.g_star >= g_rep - 1e-9
            margins.append(best.g_star - g_rep)
    report(3, f"Proj=[{proj[0]:.4f},{proj[1]:.4f}]; optimizer margin over repaired "
              f"shortcuts in [{min(margins):.2e}, {max(margins):.2e}]")


# ---------------------------------------------------------------------------
# 4. Reward-monotonicity threshold
# ---------------------------------------------------------------------------

def test_criterion_04_inefficiency_threshold():
    g8 = kl.inefficiency_threshold(0.8)
    assert abs(g8 - 0.809) <= 1e-3
    h = 1e-6
    for p in (0.6, 0.7, 0.8, 0.9):
        g_star = kl.inefficiency_threshold(p)
        for gamma, sign in ((g_star - 0.05, 1.0), (g_star + 0.05, -1.0)):
            fd = (kl.taylor_gain_raw(gamma + h, p) - kl.taylor_gain_raw(gamma - h, p)) / (2 * h)
            assert sign * fd > 0.0
    report(4, f"threshold(0.8)={g8:.4f}; derivative sign flips across it for "
              f"p in {{0.6,0.7,0.8,0.9}}")


# ---------------------------------------------------------------------------
# 5. Analytic drawdown probability vs exact enumeration
# ---------------------------------------------------------------------------

def test_criterion_05_analytic_drawdown_formula():
    t0 = time.perf_counter()
    v = kl.coin_drawdown_probability(0.99, 252)
    assert abs(v - 0.9206) <= 5e-4

    worst = 0.0
    for p, k in ((0.5, 0.37), (0.9, 0.8), (0.99, 0.98)):
        coin = kl.make_coin(1.0, -1.0, p)
        for n in range(1, 17):
            diff = abs(kl.drawdown_exceedance_exact(coin, k, n, threshold=k)
                       - kl.coin_drawdown_probability(p, n))
            worst = max(worst, diff)
            assert diff <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(5, f"1-0.99^252={v:.4f}; max |enum - formula| = {worst:.2e} over "
              f"N<=16, p in {{0.5,0.9,0.99}} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Expected-drawdown curve values and the binding constraint
# ---------------------------------------------------------------------------

def test_criterion_06_expected_drawdown_and_constraint():
    t0 = time.perf_counter()
    est, se = kl.expected_drawdown_mc(SKEWED, 0.6667, 252, 10_000, seed=0)
    assert abs(est - 0.903) <= max(0.02, 3 * se)
    est1, _ = kl.expected_drawdown_mc(SKEWED, 1.0, 252, 10_000, seed=0)
    assert est1 >= 0.999

    spec = kl.ConstraintSpec(kind="expected", epsilon=0.2)
    res = kl.maximize_growth_constrained(SKEWED, 252, spec, paths=10_000, seed=0)
    assert res.converged
    assert 0.07 <= res.k_star[0] <= 0.13
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(6, f"E[D(0.6667)]={est:.4f} (se {se:.4f}), E[D(1)]={est1:.4f}, "
              f"argmax under E[D]<=0.2 at K={res.k_star[0]:.4f} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. Concavity of E[log(1-D)] and the Jensen bound
# ---------------------------------------------------------------------------

def test_criterion_07_log_complement_concavity_and_jensen():
    rng = np.random.default_rng(77)
    coin = kl.make_coin(1.0, -1.0, 0.9)
    two = kl.independent_join(coin, coin)

    worst_gap = math.inf
    worst_jensen = -math.inf

    def elog(model, k, n):
        r = kl.expected_log_complementary(model, k, n)
        assert r.exact
        return r.value

    for _ in range(200):
        k1, k2 = rng.uniform(0.0, 0.98, size=2)
        e1, e2 = elog(coin, k1, 10), elog(coin, k2, 10)
        em = elog(coin, 0.5 * (k1 + k2), 10)
        gap = em - 0.5 * (e1 + e2)
        worst_gap = min(worst_gap, gap)
        assert gap >= -1e-10
        j = math.exp(e1) - kl.expected_complementary_exact(coin, k1, 10)
        worst_jensen = max(worst_jensen, j)
        assert j <= 1e-12

    for _ in range(200):
        a = rng.uniform(0.0, 1.0, size=2)
        a *= rng.uniform(0.0, 0.98) / max(a.sum(), 1e-12)
        b = rng.uniform(0.0, 1.0, size=2)
        b *= rng.uniform(0.0, 0.98) / max(b.sum(), 1e-12)
        e1, e2 = elog(two, a, 6), elog(two, b, 6)
        em = elog(two, 0.5 * (a + b), 6)
        gap = em - 0.5 * (e1 + e2)
        worst_gap = min(worst_gap, gap)
        assert gap >= -1e-10
        j = math.exp(e1) - kl.expected_complementary_exact(two, a, 6)
        worst_jensen = max(worst_jensen, j)
        assert j <= 1e-12

    report(7, f"400 midpoint pairs: worst concavity margin {worst_gap:.2e}, "
              f"worst Jensen slack {worst_jensen:.2e}")


# ---------------------------------------------------------------------------
# 8. Monte Carlo vs exact enumeration on random instances
# ---------------------------------------------------------------------------

def test_criterion_08_mc_matches_enumeration():
    rng = np.random.default_rng(88)
    checked = 0
    worst_sigma = 0.0
    while checked < 20:
        n_atoms = int(rng.integers(2, 4))
        n_assets = int(rng.integers(1, 3))
        xs = rng.uniform(-0.9, 1.5, size=(n_atoms, n_assets))
        p = rng.uniform(0.1, 1.0, size=n_atoms)
        model = kl.GambleModel(xs=xs, probs=p / p.sum())
        n = int(rng.integers(2, 13))
        if model.n_atoms ** n > 10**6:
            continue
        k = rng.uniform(0.05, 1.0, size=n_assets)
        k *= rng.uniform(0.3, 1.0) / k.sum()
        if not kl.is_feasible(k, model):
            continue
        exact = kl.expected_drawdown_exact(model, k, n)
        est, se = kl.expected_drawdown_mc(model, k, n, 10_000,
                                          seed=int(rng.integers(10**9)))
        sigma = abs(est - exact) / max(se, 1e-15)
        worst_sigma = max(worst_sigma, sigma)
        assert abs(est - exact) <= 3.0 * max(se, 1e-15)
        checked += 1
    report(8, f"20 random instances: worst |mc - exact| = {worst_sigma:.2f} std errors")


# ---------------------------------------------------------------------------
# 9. Gradient vs central finite differences
# ---------------------------------------------------------------------------

def test_criterion_09_gradient_finite_differences():
    rng = np.random.default_rng(99)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 6))
        xs = rng.uniform(-0.9, 2.0, size=(m, n))
        p = rng.uniform(0.05, 1.0, size=m)
        model = kl.GambleModel(xs=xs, probs=p / p.sum())
        k = rng.uniform(0.0, 1.0, size=n)
        k *= rng.uniform(0.0, 0.9) / max(k.sum(), 1e-12)
        grad = kl.growth_gradient(k, model)
        fd = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd[i] = (kl.log_growth(k + e, model) - kl.log_growth(k - e, model)) / (2 * h)
        assert np.allclose(grad, fd, rtol=1e-6, atol=1e-9)
        denom = np.maximum(np.abs(fd), 1e-9)
        worst = max(worst, float(np.max(np.abs(grad - fd) / denom)))
    report(9, f"100 random interior points: worst relative gradient error {worst:.2e}")


# ---------------------------------------------------------------------------
# 10. Adaptive betting statistics and reproducibility
# ---------------------------------------------------------------------------

def test_criterion_10_adaptive_runs(tmp_path):
    total, count = 0.0, 0
    for i in range(200):
        run = kl.run_adaptive(0.6, 1000, 50, seed=1000 + i)
        total += float(run.estimates.sum())
        count += run.estimates.size
        assert np.all(run.fractions >= 0.0) and np.all(run.fractions <= 1.0)
    grand_mean = total / count
    assert abs(grand_mean - 0.6) <= 0.01

    def trace_bytes(seed):
        rows = trace_rows(kl.run_adaptive(0.6, 1000, 50, seed=seed))
        return "\n".join(",".join(map(str, r)) for r in rows).encode()

    assert trace_bytes(7) == trace_bytes(7)
    report(10, f"grand mean p_hat over 200 runs = {grand_mean:.4f}; all K in [0,1]; "
               f"fixed-seed trace byte-identical")


# ---------------------------------------------------------------------------
# 11. Convexity probe on the two-coin constraint sets
# ---------------------------------------------------------------------------

def test_criterion_11_two_coin_convexity_probe(tmp_path):
    coin = kl.make_coin(1.0, -1.0, 0.9)
    two = kl.independent_join(coin, coin)
    results = []
    for spec in (kl.ConstraintSpec(kind="expected", epsilon=0.3),
                 kl.ConstraintSpec(kind="probabilistic", epsilon=0.3, delta=0.2)):
        rep = kl.convexity_probe(two, 50, spec, grid_resolution=20, pair_samples=50,
                                 paths=2_000, seed=0)
        assert rep.pairs_tested == 50
        assert rep.significant_violations == 0
        out = tmp_path / f"{spec.kind}.grid.csv"
        kl.write_level_set_csv(rep, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k1,k2,estimate,std_error,in_set"
        assert len(lines) == len(rep.grid) + 1
        results.append(f"{spec.kind}: {len(rep.violations)} violations "
                       f"({rep.significant_violations} significant)")
    report(11, "; ".join(results) + "; grid CSVs emitted")
