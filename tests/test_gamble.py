"""Gamble model construction, moments, feasibility, sampling, JSON round trip."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellylab import (GambleModel, ModelValidationError, dump_model, gamble, independent_join,
                      is_feasible, load_model, make_coin, model_from_dict, moments,
                      sample_indices)


def random_model(rng, n_assets=None, n_atoms=None):
    n = n_assets or int(rng.integers(1, 4))
    m = n_atoms or int(rng.integers(2, 6))
    xs = rng.uniform(-0.95, 2.0, size=(m, n))
    p = rng.uniform(0.05, 1.0, size=m)
    return GambleModel(xs=xs, probs=p / p.sum())


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_make_coin_even():
    m = make_coin(1.0, -1.0, 0.6)
    assert m.xs[0, 0] == 1.0 and m.probs[0] == 0.6
    assert m.xs[1, 0] == -1.0 and m.probs[1] == pytest.approx(0.4)


def test_make_coin_skewed():
    m = make_coin(0.15, -0.95, 0.95)
    assert m.n_assets == 1 and m.n_atoms == 2
    assert m.xs[0, 0] == 0.15 and m.probs[0] == 0.95
    assert m.xs[1, 0] == -0.95 and m.probs[1] == pytest.approx(0.05)


def test_make_coin_symmetric_mean_zero():
    m = make_coin(0.5, -0.5, 0.5)
    assert moments(m).mean[0] == 0.0


def test_make_coin_rejects_super_ruin():
    with pytest.raises(ModelValidationError):
        make_coin(1.0, -1.5, 0.6)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
def test_make_coin_rejects_degenerate_p(p):
    with pytest.raises(ModelValidationError):
        make_coin(1.0, -1.0, p)


def test_probabilities_must_sum_to_one():
    with pytest.raises(ModelValidationError, match="sum"):
        GambleModel(xs=[[1.0], [-1.0]], probs=[0.6, 0.5])


def test_probabilities_must_be_positive():
    with pytest.raises(ModelValidationError, match="positive"):
        GambleModel(xs=[[1.0], [-1.0]], probs=[1.0, 0.0])


def test_probabilities_must_not_exceed_one():
    # Within the sum tolerance, but not a probability.
    with pytest.raises(ModelValidationError, match="exceed 1"):
        GambleModel(xs=[[1.0]], probs=[1.0 + 1e-13])


def test_at_least_one_atom():
    with pytest.raises(ModelValidationError, match="atom"):
        GambleModel(xs=np.empty((0, 1)), probs=[])


def test_at_least_one_asset():
    with pytest.raises(ModelValidationError, match="at least one asset"):
        GambleModel(xs=np.empty((2, 0)), probs=[0.5, 0.5])
    with pytest.raises(ModelValidationError, match="at least one asset"):
        model_from_dict({"atoms": [{"x": [], "p": 1.0}]})


def test_returns_below_minus_one_rejected():
    with pytest.raises(ModelValidationError, match="-1"):
        GambleModel(xs=[[-1.0000001]], probs=[1.0])


def test_boundary_minus_one_allowed():
    m = GambleModel(xs=[[-1.0]], probs=[1.0])
    assert m.xs[0, 0] == -1.0


def test_duplicate_atoms_are_legal():
    m = GambleModel(xs=[[0.1], [0.1]], probs=[0.5, 0.5])
    assert m.n_atoms == 2


def test_model_is_immutable():
    m = make_coin(1.0, -1.0, 0.6)
    with pytest.raises(ValueError):
        m.xs[0, 0] = 2.0


def test_independent_join_two_coins():
    coin = make_coin(1.0, -1.0, 0.9)
    two = independent_join(coin, coin)
    assert two.n_assets == 2 and two.n_atoms == 4
    expected = {(1.0, 1.0): 0.81, (1.0, -1.0): 0.09, (-1.0, 1.0): 0.09, (-1.0, -1.0): 0.01}
    for x, p in zip(two.xs, two.probs):
        assert p == pytest.approx(expected[tuple(x)])


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

def test_moments_skewed_coin_hand_values():
    mo = moments(make_coin(0.15, -0.95, 0.95))
    # hand sums: 0.95*0.15 + 0.05*(-0.95); 0.95*0.0225 + 0.05*0.9025
    assert mo.mean[0] == pytest.approx(0.095, abs=1e-15)
    assert mo.second_moment[0, 0] == pytest.approx(0.0665, abs=1e-15)
    assert mo.covariance[0, 0] == pytest.approx(0.057475, abs=1e-15)


def test_moments_even_coin():
    mo = moments(make_coin(1.0, -1.0, 0.5))
    assert mo.mean[0] == 0.0
    assert mo.second_moment[0, 0] == 1.0


def test_moments_single_atom():
    m = GambleModel(xs=[[0.3, -0.2]], probs=[1.0])
    mo = moments(m)
    assert np.allclose(mo.mean, [0.3, -0.2])
    assert np.allclose(mo.covariance, 0.0, atol=1e-15)


def test_covariance_identity_and_symmetry():
    rng = np.random.default_rng(42)
    for _ in range(50):
        mo = moments(random_model(rng))
        assert np.array_equal(mo.covariance, mo.covariance.T)
        assert np.array_equal(mo.second_moment, mo.second_moment.T)
        assert np.allclose(mo.covariance,
                           mo.second_moment - np.outer(mo.mean, mo.mean), atol=1e-12)


def covariance_symmetrized_again(model):
    """The covariance as moments() built it with a second symmetrization:
    the oracle for dropping that step."""
    mean = model.probs @ model.xs
    second = model.xs.T @ (model.xs * model.probs[:, None])
    second = 0.5 * (second + second.T)
    cov = second - np.outer(mean, mean)
    return 0.5 * (cov + cov.T)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_assets=st.integers(1, 5), n_atoms=st.integers(1, 8))
def test_covariance_is_symmetric_without_a_second_symmetrization(seed, n_assets, n_atoms):
    model = random_model(np.random.default_rng(seed), n_assets=n_assets, n_atoms=n_atoms)
    cov = moments(model).covariance
    assert np.array_equal(cov, cov.T)
    assert cov.tobytes() == covariance_symmetrized_again(model).tobytes()


def test_covariance_is_psd():
    rng = np.random.default_rng(7)
    for _ in range(100):
        mo = moments(random_model(rng))
        assert np.linalg.eigvalsh(mo.covariance).min() >= -1e-10


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------

def test_zero_allocation_always_feasible():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = random_model(rng)
        assert is_feasible(np.zeros(m.n_assets), m)


def test_full_bet_on_even_coin_is_boundary_feasible():
    assert is_feasible(1.0, make_coin(1.0, -1.0, 0.6))


def test_simplex_violation_infeasible():
    coin = make_coin(1.0, -1.0, 0.9)
    two = independent_join(coin, coin)
    assert not is_feasible([0.7, 0.7], two)


def test_negative_component_infeasible():
    assert not is_feasible(-0.1, make_coin(1.0, -1.0, 0.6))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="dimension"):
        is_feasible([0.1, 0.2], make_coin(1.0, -1.0, 0.6))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_single_atom_always_sampled():
    m = GambleModel(xs=[[0.25]], probs=[1.0])
    rng = np.random.default_rng(0)
    assert int(sample_indices(m, (), rng)) == 0
    assert np.all(sample_indices(m, (20, 3), rng) == 0)


def test_sampling_law_of_large_numbers():
    m = make_coin(1.0, -1.0, 0.6)
    xs = m.xs[sample_indices(m, 10**6, np.random.default_rng(3))]
    freq = float(np.mean(xs[:, 0] > 0))
    assert abs(freq - 0.6) <= 3.0 * math.sqrt(0.24 / 1e6)


def test_sampling_is_bitwise_deterministic():
    m = make_coin(0.15, -0.95, 0.95)
    a = sample_indices(m, 1000, np.random.default_rng(99))
    b = sample_indices(m, 1000, np.random.default_rng(99))
    assert np.array_equal(a, b)
    rng1, rng2 = np.random.default_rng(5), np.random.default_rng(5)
    s1 = [int(sample_indices(m, (), rng1)) for _ in range(10)]
    s2 = [int(sample_indices(m, (), rng2)) for _ in range(10)]
    assert s1 == s2


def test_two_atom_sampler_matches_search():
    # The two-atom comparison u >= cum[0] gives the indices of the general
    # searchsorted path on the same uniforms.
    m = make_coin(0.15, -0.95, 0.95)
    u = np.random.default_rng(7).random((300, 40))
    cum = np.array([m.probs[0], 1.0])
    idx = sample_indices(m, (300, 40), np.random.default_rng(7))
    assert idx.dtype == np.intp
    assert np.array_equal(idx, np.searchsorted(cum, u, side="right"))


def test_sample_frequencies_match_probs():
    m = GambleModel(xs=[[0.0], [1.0], [2.0]], probs=[0.2, 0.3, 0.5])
    idx = sample_indices(m, 200_000, np.random.default_rng(11))
    freqs = np.bincount(idx, minlength=3) / idx.size
    assert np.allclose(freqs, [0.2, 0.3, 0.5], atol=0.01)


# ---------------------------------------------------------------------------
# JSON interface
# ---------------------------------------------------------------------------

def model_to_dict(model, provenance=None):
    """The model file's JSON object, built on its own: the oracle for dump_model."""
    out = {"atoms": [{"x": [float(v) for v in x], "p": float(p)}
                     for x, p in zip(model.xs, model.probs)]}
    if provenance:
        out["provenance"] = dict(provenance)
    return out


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    m = random_model(rng, n_assets=2, n_atoms=4)
    path = tmp_path / "model.json"
    dump_model(m, path, provenance={"note": "round trip"})
    loaded = load_model(path)
    assert np.allclose(loaded.xs, m.xs)
    assert np.allclose(loaded.probs, m.probs)
    assert json.loads(path.read_text())["provenance"] == {"note": "round trip"}
    dump_model(m, path)
    assert "provenance" not in json.loads(path.read_text())


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8)


BLOCK = gamble._DUMP_BLOCK


@settings(max_examples=80, deadline=None)
@given(n_assets=st.integers(1, 4), data=st.data(),
       n_atoms=st.integers(1, 6) | st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]),
       weights=st.sampled_from(["drawn", "equal", "nudged"]),
       provenance=st.none() | st.dictionaries(st.text(max_size=6), JSON_VALUE, max_size=4))
def test_dump_model_writes_json_indent_2(tmp_path_factory, n_assets, data, n_atoms, weights,
                                         provenance):
    # Every float repr is json's; -0.0, subnormals and long reprs included.
    # Long models repeat up to 6 drawn rows, and cross the block boundary.
    rows = data.draw(st.lists(st.lists(st.floats(-1.0, 1e300) | st.just(-0.0),
                                       min_size=n_assets, max_size=n_assets),
                              min_size=1, max_size=min(n_atoms, 6)))
    xs = np.array([rows[i % len(rows)] for i in range(n_atoms)])
    if weights == "drawn":
        probs = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n_atoms,
                                            max_size=n_atoms)))
        probs /= probs.sum()
    else:
        # Equal weights, as ingest writes them; "nudged" moves the last one by an ulp.
        probs = np.full(n_atoms, 1.0 / n_atoms)
        if weights == "nudged":
            probs[-1] = np.nextafter(probs[-1], 0.0)
    m = GambleModel(xs=xs, probs=probs)
    path = tmp_path_factory.mktemp("dump") / "model.json"
    dump_model(m, path, provenance=provenance)
    assert path.read_text(encoding="utf-8") == json.dumps(
        model_to_dict(m, provenance), indent=2) + "\n"


def test_dump_model_holds_one_block_at_a_time(tmp_path):
    # A 2,499 x 20 model, as an ingest of 2,500 rows writes it. Joining all
    # its atoms in one block traces 5.1 MiB; blocks of 256 trace 0.61 MiB.
    rng = np.random.default_rng(7)
    m = GambleModel(xs=rng.normal(0.0, 0.02, (2499, 20)), probs=np.full(2499, 1.0 / 2499))
    path = tmp_path / "model.json"
    dump_model(m, path, provenance={"note": "warm-up"})
    tracemalloc.start()
    try:
        dump_model(m, path, provenance={"note": "traced"})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert json.loads(path.read_text())["provenance"] == {"note": "traced"}


def test_loader_names_first_violation(tmp_path):
    cases = [
        ({"atoms": []}, "non-empty"),
        ({"atoms": [{"x": [0.5]}]}, '"x" and "p"'),
        ({"atoms": [{"x": [0.5], "p": 0.5}, {"x": [0.1], "p": 0.4}]}, "sum"),
        ({"atoms": [{"x": [-2.0], "p": 1.0}]}, "-1"),
        ({"nope": 1}, "atoms"),
    ]
    for data, fragment in cases:
        with pytest.raises(ModelValidationError, match=fragment):
            model_from_dict(data)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ModelValidationError, match="JSON"):
        load_model(bad)
