"""Log-growth evaluation, its gradient, and the maximizer."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kellylab import (GambleModel, annualized_return, growth_gradient, independent_join,
                      is_feasible, log_growth, make_coin, maximize_growth, moments)
from kellylab import growth
from kellylab.config import GRID_STEP, MAX_OPT_ITER, OPT_TOL, RUIN_EPS
from kellylab.drawdown import _simplex_grid
from kellylab.growth import project_allocation

SKEWED = make_coin(0.15, -0.95, 0.95)
EVEN9 = make_coin(1.0, -1.0, 0.9)


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


def serial_log_growth(kv, model):
    """g of one allocation as one matvec, one log and one dot of its own."""
    with np.errstate(divide="ignore"):
        return float(model.probs @ np.log(np.maximum(1.0 + model.xs @ kv, 0.0)))


def benchmark_size_case(case):
    """(model, allocations) at the sizes the searches and the optimizer
    meet: the 1326-point simplex grid of the two-asset search on a two-coin
    join, or a 2000-atom model of 5 to 20 assets, as ingest builds them."""
    if case == "simplex-grid":
        return independent_join(EVEN9, EVEN9), _simplex_grid(np.arange(0.0, 1.0 + 1e-12, GRID_STEP))
    n = int(case.split("-")[1])
    rng = np.random.default_rng(n)
    model = GambleModel(xs=rng.normal(0.0, 0.02, (2000, n)).clip(-1.0),
                        probs=np.full(2000, 1 / 2000))
    return model, rng.dirichlet(np.ones(n + 1), size=60)[:, :n]


@pytest.mark.parametrize("seed", [*range(12), "simplex-grid", "ingested-5", "ingested-20"])
def test_batched_log_growth_rows_equal_single_calls(seed):
    # Each row keeps its own matvec and dot, as a stacked matmul computes
    # them: one (B, m) @ (m,) product rounds differently. A -1 atom at a full
    # bet zeroes a factor, giving -inf.
    if isinstance(seed, str):
        m, ks = benchmark_size_case(seed)
    else:
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
        assert gb == single == serial_log_growth(kv, m) and type(single) is float
    if not isinstance(seed, str):
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


# An atom component; a -1 on every asset of an atom puts the ruin boundary
# on the face sum(K) = 1, where the projected trials of a long step land.
COMPONENT = st.one_of(st.just(-1.0), st.floats(-1.0, 3.0))
VECTOR = st.lists(st.floats(-1e3, 1e3) | st.floats(-1.0, 1.0), min_size=4, max_size=4)


@settings(max_examples=150, deadline=None)
@given(atoms=st.lists(st.tuples(st.lists(COMPONENT, min_size=4, max_size=4),
                                st.floats(0.05, 1.0), st.booleans()), min_size=1, max_size=8),
       n_assets=st.integers(1, 4), weights=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
       direction=VECTOR, grad=VECTOR, use_gradient=st.booleans())
def test_line_search_step_is_safe_and_passes_the_armijo_test(atoms, n_assets, weights,
                                                             direction, grad, use_gradient):
    # From any feasible start and direction the search gives up, or returns a
    # feasible trial away from the ruin boundary whose g is its own and rises
    # by the Armijo fraction of the gradient's predicted gain.
    xs = np.array([[-1.0] * 4 if total_loss else x for x, _, total_loss in atoms])[:, :n_assets]
    p = np.array([w for _, w, _ in atoms])
    model = GambleModel(xs=xs, probs=p / p.sum())
    w = np.array(weights)
    k = (w[:n_assets] / w.sum() if w.sum() > 0 else np.zeros(n_assets))
    g = log_growth(k, model)
    grad = np.array(grad[:n_assets])
    if use_gradient and np.min(1.0 + model.xs @ k) > 0.0:
        grad = growth_gradient(k, model)
    for d in (np.array(direction[:n_assets]), grad):
        found = growth._line_search(model, k, g, grad, d)
        if found is None:
            continue
        trial, g_trial = found
        assert is_feasible(trial, model) and np.min(1.0 + model.xs @ trial) >= RUIN_EPS
        assert type(g_trial) is float and g_trial == log_growth(trial, model)
        assert g_trial > g and g_trial >= g + 1e-4 * float(grad @ (trial - k))


def window_maximize(model):
    """maximize_growth on two or more assets as it was before it stopped on
    its last step: converged once max|projected gradient| <= 1e-8 and g
    spans at most 1e-8 * max(1, |g|) over the last five iterates, taking the
    better of the Newton and projected gradient steps. It measures no gap,
    so its gap is NaN."""
    tol = 1e-8
    k = np.zeros(model.n_assets)
    g = 0.0
    recent = [g]
    for it in range(1, MAX_OPT_ITER + 1):
        grad = growth_gradient(k, model)
        pg = project_allocation(k + grad) - k
        flat = len(recent) == 5 and max(recent) - min(recent) <= tol * max(1.0, abs(g))
        if float(np.max(np.abs(pg))) <= tol and flat:
            return growth.GrowthResult(k, g, it, True, math.nan)
        best = None
        newton = growth._newton_direction(model, k, grad, k > 1e-10)
        if np.any(newton != 0.0) and float(grad @ newton) >= 0.0:
            best = growth._line_search(model, k, g, grad, newton)
        pga = growth._line_search(model, k, g, grad, grad)
        if pga is not None and (best is None or pga[1] > best[1]):
            best = pga
        if best is None:
            return growth.GrowthResult(k, g, it, float(np.max(np.abs(pg))) <= tol, math.nan)
        k, g = best
        recent = (recent + [g])[-5:]
    return growth.GrowthResult(k, g, MAX_OPT_ITER, False, math.nan)


def ingest_like_model(seed, noise=None, total_loss=0.0):
    """A model of 2 to 6 assets and 3 to 199 atoms of small returns, as
    ingest builds them. With noise, every column but the first is a
    multiple of the first plus normal noise of that size, so g is nearly
    flat along some direction. A total-loss atom of that mass puts
    the ruin boundary on the face sum(K) = 1."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(2, 7)), int(rng.integers(3, 200))
    xs = rng.normal(rng.uniform(0.0, 0.05, n), rng.uniform(0.01, 0.3, n), (m, n))
    if noise is not None:
        xs[:, 1:] = xs[:, :1] * rng.uniform(0.5, 1.5, n - 1) + rng.normal(0, noise, (m, n - 1))
    model = GambleModel(xs=xs.clip(-1.0), probs=rng.dirichlet(np.ones(m)))
    return with_total_loss(model, total_loss) if total_loss else model


def with_total_loss(model, mass):
    return GambleModel(xs=np.vstack([model.xs, -np.ones(model.n_assets)]),
                       probs=np.append((1.0 - mass) * model.probs, mass))


EDGE = st.builds(lambda loss, p, edge: make_coin(loss * (1 - p) / p * (1 + edge), -loss, p),
                 st.floats(0.05, 1.0), st.floats(0.2, 0.95), st.floats(0.0, 3.0))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["join", "ingest", "collinear"]), seed=st.integers(0, 2**32 - 1),
       coins=st.tuples(EDGE, EDGE), noise=st.sampled_from([1e-6, 1e-4]),
       total_loss=st.just(0.0) | st.floats(1e-4, 0.2))
@example(kind="collinear", seed=99, coins=(EVEN9, EVEN9), noise=1e-6, total_loss=0.0)
@example(kind="ingest", seed=100, coins=(EVEN9, EVEN9), noise=1e-6, total_loss=1e-3)
@example(kind="join", seed=0, coins=(make_coin(3.0, -0.5, 0.25), make_coin(0.375, -0.125, 0.5)),
         noise=1e-6, total_loss=0.0)
@example(kind="collinear", seed=2031, coins=(EVEN9, EVEN9), noise=1e-6, total_loss=0.0)
def test_stop_rule_keeps_the_window_answer(kind, seed, coins, noise, total_loss):
    # Joined coins (a coin that loses 1 gives a total-loss atom), ingest-like
    # models, and ingest-like models with near-collinear columns, whose
    # Hessian is nearly singular. The window loop's answer is a feasible
    # point, so the gap bounds how far above the answer it can lie. In the
    # first example a stop on a small last step ended 5.1e-9 of g below the
    # window loop; in the second the answer is 3.8e-13 below it, within its
    # gap of 3.8e-13. In the third, on the face sum(K) = 1, the Newton step
    # that closes the last gap of 6.8e-11 has a rounded grad.d of -4.7e-20.
    # In the fourth the Newton step on the face of every K_i > 0 leaves a gap
    # of 1.3e-11, and the one on the face of K_i > 1e-10 closes it.
    model = growth_family_model(kind, seed, coins, noise, total_loss)
    res, old = maximize_growth(model), window_maximize(model)
    assert res.converged or not old.converged
    assert old.g_star - res.g_star <= res.gap + 1e-15 * max(1.0, abs(old.g_star))


def growth_family_model(kind, seed, coins, noise, total_loss):
    if kind == "join":
        model = independent_join(*coins)
        return with_total_loss(model, total_loss) if total_loss else model
    return ingest_like_model(seed, noise if kind == "collinear" else None, total_loss)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["join", "ingest", "collinear"]), seed=st.integers(0, 2**32 - 1),
       coins=st.tuples(EDGE, EDGE), noise=st.sampled_from([1e-6, 1e-4]),
       total_loss=st.just(0.0) | st.floats(1e-10, 0.2))
@example(kind="ingest", seed=32, coins=(EVEN9, EVEN9), noise=1e-6, total_loss=0.0)
def test_gap_certifies_the_answer(kind, seed, coins, noise, total_loss):
    # The gap is the Frank-Wolfe gap at k_star, floored at 0 against rounding,
    # and within OPT_TOL of max(1, |g|) whenever the run says it converged.
    # Masses down to 1e-10 put the optimum within about 1e-8 of the ruin face.
    # In the example the rounded gap formula reads -1.4e-17 at the answer.
    model = growth_family_model(kind, seed, coins, noise, total_loss)
    res = maximize_growth(model)
    assert is_feasible(res.k_star, model) and res.g_star == log_growth(res.k_star, model)
    grad = growth_gradient(res.k_star, model)
    assert 0.0 <= res.gap == max(0.0, max(0.0, float(np.max(grad))) - float(grad @ res.k_star))
    assert not res.converged or res.gap <= OPT_TOL * max(1.0, abs(res.g_star))


@pytest.mark.parametrize("seed, total_loss", [(8, 1e-13), (53, 1e-4)])
def test_near_collinear_assets_do_not_crawl(seed, total_loss):
    # Taking the larger single-step gain kept these on projected gradient
    # steps: 54,347 and 6,149 iterations. The Newton step first ends them.
    res = maximize_growth(ingest_like_model(seed, noise=1e-6, total_loss=total_loss))
    assert res.converged and res.iterations <= 100


@pytest.mark.parametrize("edge", [1e-11, 5e-11, 1e-10])
def test_tiny_edge_joins_are_certified(edge):
    # The optimum bets about 1e-11 on the tiny-edge coin. g cannot resolve a
    # step to it, and the Newton face of the line search leaves components
    # below 1e-10 out; the fallback's face keeps them and closes the gap.
    for p in (0.4, 0.5, 0.6):
        coin = make_coin((1.0 - p + edge) / p, -1.0, p)
        for model in (independent_join(make_coin(1.0, -1.0, 0.5), coin),
                      independent_join(coin, SKEWED)):
            assert maximize_growth(model).converged


def test_near_singular_newton_step_does_not_break_the_projection():
    # A 6-asset near-collinear model whose Newton direction near the ruin
    # face reaches 1e16: its rounded projection test kept no index, and
    # maximize_growth raised IndexError.
    proj = project_allocation(np.array([1e16, 1.0]))
    assert np.all(proj >= 0.0) and proj.sum() <= 1.0
    model = ingest_like_model(0, noise=1e-6, total_loss=1e-13)
    res = maximize_growth(model)
    assert res.converged and is_feasible(res.k_star, model)


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
