"""Closed-form approximations, repairs, and the reward-monotonicity failure."""

import numpy as np
import pytest

from kellylab import (DegenerateModelError, GambleModel, approx_solution, gbm_solution,
                      inefficiency_threshold, make_coin, moments, project_simplex_ray,
                      repair_allocation, saturate, taylor_gain_raw, taylor_solution)

SKEWED = make_coin(0.15, -0.95, 0.95)


def random_1d_model(rng):
    m = int(rng.integers(2, 6))
    xs = rng.uniform(-0.9, 2.0, size=(m, 1))
    p = rng.uniform(0.05, 1.0, size=m)
    return GambleModel(xs=xs, probs=p / p.sum())


# ---------------------------------------------------------------------------
# taylor_solution / gbm_solution
# ---------------------------------------------------------------------------

def test_taylor_on_skewed_coin():
    assert taylor_solution(SKEWED)[0] == pytest.approx(1.4286, abs=1e-3)


def test_gbm_on_skewed_coin():
    assert gbm_solution(SKEWED)[0] == pytest.approx(1.6529, abs=1e-3)


def test_zero_mean_gives_zero_fraction():
    coin = make_coin(0.5, -0.5, 0.5)
    assert taylor_solution(coin)[0] == 0.0
    assert gbm_solution(coin)[0] == 0.0


def test_matrix_path_matches_scalar_ratios_1d():
    rng = np.random.default_rng(17)
    for _ in range(100):
        m = random_1d_model(rng)
        mo = moments(m)
        assert taylor_solution(m)[0] == pytest.approx(
            mo.mean[0] / mo.second_moment[0, 0], abs=1e-12)
        if mo.covariance[0, 0] > 1e-9:
            assert gbm_solution(m)[0] == pytest.approx(
                mo.mean[0] / mo.covariance[0, 0], abs=1e-12)


def test_gbm_at_least_taylor_for_positive_mean_1d():
    # VAR <= E[X^2], so the covariance-based fraction dominates.
    rng = np.random.default_rng(19)
    checked = 0
    while checked < 50:
        m = random_1d_model(rng)
        mo = moments(m)
        if mo.mean[0] <= 0 or mo.covariance[0, 0] < 1e-9:
            continue
        assert gbm_solution(m)[0] >= taylor_solution(m)[0] - 1e-12
        checked += 1


def test_degenerate_model_reported():
    point = GambleModel(xs=[[0.0], [0.0]], probs=[0.5, 0.5])
    with pytest.raises(DegenerateModelError):
        gbm_solution(point)
    with pytest.raises(DegenerateModelError):
        taylor_solution(point)


def test_near_collinear_assets_are_numerically_singular():
    # The solve succeeds, but the second-moment matrix's condition number is
    # about 1e18: its answer would be rounding noise.
    model = GambleModel(xs=[[0.5, 0.5], [-0.3, -0.3 + 1e-9]], probs=[0.5, 0.5])
    with pytest.raises(DegenerateModelError, match="second-moment matrix is numerically singular"):
        taylor_solution(model)


# ---------------------------------------------------------------------------
# saturate / project_simplex_ray / repair
# ---------------------------------------------------------------------------

def test_saturate():
    assert saturate(-0.5) == 0.0
    assert saturate(0.3) == 0.3
    assert saturate(1.4286) == 1.0


def test_ray_projection_matches_printed_two_stock_values():
    assert np.allclose(project_simplex_ray([5.321, 2.725]), [0.661, 0.339], atol=1e-3)
    assert np.allclose(project_simplex_ray([5.599, 2.681]), [0.676, 0.324], atol=1e-3)


def test_ray_projection_symmetry():
    assert np.allclose(project_simplex_ray([1.0, 1.0]), [0.5, 0.5])


def test_ray_projection_sums_to_one_and_keeps_ratios():
    rng = np.random.default_rng(29)
    for _ in range(100):
        v = rng.uniform(0.0, 5.0, size=int(rng.integers(2, 5))) + 1e-6
        proj = project_simplex_ray(v)
        assert abs(proj.sum() - 1.0) <= 1e-12
        assert np.allclose(proj / proj[0], v / v[0], rtol=1e-12)


def test_ray_projection_rejects_bad_input():
    with pytest.raises(ValueError):
        project_simplex_ray([0.0, 0.0])
    with pytest.raises(ValueError):
        project_simplex_ray([-0.1, 0.5])


def test_repair_scalar_saturates():
    k, tag = repair_allocation(1.4286)
    assert k[0] == 1.0 and tag == "saturation"
    k, tag = repair_allocation(0.4)
    assert k[0] == 0.4 and tag == "none"


def test_repair_vector_clips_then_projects():
    k, tag = repair_allocation([5.321, 2.725])
    assert tag == "projection"
    assert np.allclose(k, [0.661, 0.339], atol=1e-3)
    k, tag = repair_allocation([-0.2, 0.4])
    assert tag == "saturation" and np.allclose(k, [0.0, 0.4])
    k, tag = repair_allocation([0.2, 0.4])
    assert tag == "none" and np.allclose(k, [0.2, 0.4])


def test_approx_solution_wrapper():
    sol = approx_solution(SKEWED, "taylor")
    assert sol.method == "taylor" and sol.repair == "saturation"
    assert sol.kappa_raw[0] == pytest.approx(1.4286, abs=1e-3)
    assert sol.k_repaired[0] == 1.0
    with pytest.raises(ValueError):
        approx_solution(SKEWED, "magic")


# ---------------------------------------------------------------------------
# Reward-monotonicity failure of the expansion fraction
# ---------------------------------------------------------------------------

def test_threshold_at_p08():
    assert inefficiency_threshold(0.8) == pytest.approx(0.809, abs=1e-3)


def test_threshold_at_p05():
    assert inefficiency_threshold(0.5) == pytest.approx(2.414, abs=1e-3)


@pytest.mark.parametrize("gamma,p,message", [
    (0.0, 0.5, "gamma must be positive"), (-1.0, 0.5, "gamma must be positive"),
    (1.0, 0.0, "p must be in"), (1.0, 1.0, "p must be in")])
def test_taylor_gain_raw_checks_its_arguments(gamma, p, message):
    with pytest.raises(ValueError, match=message):
        taylor_gain_raw(gamma, p)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.5])
def test_threshold_checks_p(p):
    with pytest.raises(ValueError, match="p must be in"):
        inefficiency_threshold(p)


def test_threshold_limit_as_p_to_one():
    assert inefficiency_threshold(1 - 1e-12) == pytest.approx(0.0, abs=1e-5)


def clamped_fraction(gamma, p):
    """The repaired expansion fraction of the (gamma, -1) coin."""
    return saturate(taylor_gain_raw(gamma, p))


def test_curve_vanishes_for_tiny_reward():
    assert clamped_fraction(1e-9, 0.8) == 0.0


def test_monotonicity_failure_witness_p08():
    k1 = clamped_fraction(1.0, 0.8)
    k2 = clamped_fraction(2.0, 0.8)
    assert 0.0 < k2 < k1 < 1.0


def test_witness_report():
    # Past the threshold, a larger reward gets a smaller interior fraction.
    for p in (0.6, 0.8, 0.9):
        g_star = inefficiency_threshold(p)
        gamma_lo = next(g for g in g_star + np.arange(0.0, 6.0, 0.05)
                        if 0.0 < taylor_gain_raw(g, p) < 1.0)
        gamma_hi = gamma_lo + 1.0
        assert 0.0 < clamped_fraction(gamma_hi, p) < clamped_fraction(gamma_lo, p) < 1.0


@pytest.mark.parametrize("p", [0.6, 0.7, 0.8, 0.9])
def test_derivative_sign_flips_at_threshold(p):
    g_star = inefficiency_threshold(p)
    h = 1e-5

    def fd(g):
        return (taylor_gain_raw(g + h, p) - taylor_gain_raw(g - h, p)) / (2 * h)

    assert fd(g_star - 1e-6) > 0.0
    assert fd(g_star + 1e-6) < 0.0
