"""Finite-support gamble models.

A gamble is a joint probability mass function over return vectors: a finite
set of atoms x in R^n with strictly positive weights summing to one.
Everything downstream (growth optimization, drawdown simulation, adaptive
betting) consumes this representation, so construction is strict: bad inputs
fail here with a named violation.

Models are immutable after construction and safe to share across workers.
Sampling is driven by an explicit numpy Generator, so identical seeds give
bitwise-identical outcome sequences; parallel runs should split work by
deriving disjoint child seeds (e.g. via numpy SeedSequence.spawn).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import FEAS_TOL, PROB_SUM_TOL


class ModelValidationError(ValueError):
    """A gamble model (or model file) violates a construction invariant."""


def as_allocation(k, n: int) -> np.ndarray:
    """Coerce a betting fraction (scalar or sequence) to a length-n float vector."""
    arr = np.atleast_1d(np.asarray(k, dtype=float))
    if arr.ndim != 1 or arr.size != n:
        raise ValueError(f"allocation has dimension {arr.size}, model has {n} assets")
    return arr


@dataclass(frozen=True, eq=False)
class GambleModel:
    """Joint PMF over return vectors.

    xs:    (m, n) array, one atom per row; every component >= -1
           (-1 means total loss of the amount bet on that asset).
    probs: (m,) weights in (0, 1] summing to 1 within PROB_SUM_TOL.

    Duplicate atoms are legal and treated as independent point masses.
    """

    xs: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float, copy=True)
        if xs.ndim == 1:
            xs = xs.reshape(-1, 1)
        probs = np.array(self.probs, dtype=float, copy=True).reshape(-1)
        if xs.ndim != 2:
            raise ModelValidationError("atom array must be 2-dimensional (atoms x assets)")
        if probs.size == 0 or xs.shape[0] == 0:
            raise ModelValidationError("model needs at least one atom")
        if xs.shape[0] != probs.size:
            raise ModelValidationError(
                f"{xs.shape[0]} atoms but {probs.size} probabilities"
            )
        if not np.all(np.isfinite(xs)):
            raise ModelValidationError("atom returns must be finite")
        if not np.all(np.isfinite(probs)) or np.any(probs <= 0.0):
            raise ModelValidationError("atom probabilities must be strictly positive")
        if np.any(probs > 1.0):
            # The sum tolerance alone would admit a weight a hair above 1.
            raise ModelValidationError("atom probabilities must not exceed 1")
        if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
            raise ModelValidationError(
                f"probabilities sum to {probs.sum()!r}, expected 1 within {PROB_SUM_TOL}"
            )
        if np.any(xs < -1.0):
            raise ModelValidationError(
                "returns below -1 are not supported (cannot lose more than the stake)"
            )
        xs.setflags(write=False)
        probs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "probs", probs)

    @property
    def n_assets(self) -> int:
        return self.xs.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.xs.shape[0]


@dataclass(frozen=True, eq=False)
class MomentSet:
    """Exact first and second moments of a finite-support gamble.

    covariance == second_moment - outer(mean, mean) by construction.
    """

    mean: np.ndarray
    second_moment: np.ndarray
    covariance: np.ndarray


def make_coin(win: float, loss: float, p: float) -> GambleModel:
    """Two-outcome 1-D gamble: return `win` with probability p, else `loss`."""
    if not (0.0 < p < 1.0):
        raise ModelValidationError(f"win probability must be in (0, 1), got {p!r}")
    if loss < -1.0:
        raise ModelValidationError(f"loss {loss!r} below -1 is not supported")
    if not loss < win:
        raise ModelValidationError(f"need loss < win, got loss={loss!r} win={win!r}")
    return GambleModel(xs=np.array([[win], [loss]]), probs=np.array([p, 1.0 - p]))


def independent_join(*models: GambleModel) -> GambleModel:
    """Joint model of independent gambles: atom cross-product, probabilities multiply."""
    if not models:
        raise ValueError("need at least one model")
    xs = models[0].xs
    probs = models[0].probs
    for m in models[1:]:
        a = np.repeat(xs, m.n_atoms, axis=0)
        b = np.tile(m.xs, (xs.shape[0], 1))
        xs = np.hstack([a, b])
        probs = (probs[:, None] * m.probs[None, :]).reshape(-1)
    return GambleModel(xs=xs, probs=probs)


def moments(model: GambleModel) -> MomentSet:
    """Exact mean, second-moment matrix E[X X^T], and covariance (weighted atom sums)."""
    mean = model.probs @ model.xs
    second = model.xs.T @ (model.xs * model.probs[:, None])
    second = 0.5 * (second + second.T)
    cov = second - np.outer(mean, mean)
    cov = 0.5 * (cov + cov.T)
    for arr in (mean, second, cov):
        arr.setflags(write=False)
    return MomentSet(mean=mean, second_moment=second, covariance=cov)


def wealth_factors(model: GambleModel, k) -> np.ndarray:
    """Per-atom wealth multipliers max(1 + k'x, 0).

    Feasible allocations keep 1 + k'x >= 0 up to rounding; any negative
    residue is rounding noise on the ruin boundary, so it clamps to 0.
    """
    kv = as_allocation(k, model.n_assets)
    return np.maximum(1.0 + model.xs @ kv, 0.0)


def is_feasible(k, model: GambleModel) -> bool:
    """True iff k >= 0, sum(k) <= 1, and min over atoms of k'x >= -1 (all within FEAS_TOL)."""
    kv = as_allocation(k, model.n_assets)
    if np.any(kv < -FEAS_TOL):
        return False
    if float(kv.sum()) > 1.0 + FEAS_TOL:
        return False
    return float(np.min(1.0 + model.xs @ kv)) >= -FEAS_TOL


def _cumulative(model: GambleModel) -> np.ndarray:
    cum = np.cumsum(model.probs)
    cum[-1] = 1.0
    return cum


def sample_indices(model: GambleModel, shape, rng: np.random.Generator) -> np.ndarray:
    """Atom indices drawn i.i.d. per the model weights; deterministic given the rng state.

    Index i is the number of cumulative weights <= u for one uniform u in
    [0, 1). With two atoms that count is (u >= cum[0]), because u < cum[1] = 1,
    and the comparison gives the same indices as a search, only faster.
    """
    u = rng.random(shape)
    cum = _cumulative(model)
    if cum.size == 2:
        return np.asarray(u >= cum[0]).astype(np.intp)
    return np.searchsorted(cum, u, side="right")


# ---------------------------------------------------------------------------
# JSON model files: {"atoms": [{"x": [...], "p": ...}, ...], "provenance": {...}?}
# ---------------------------------------------------------------------------

def model_to_dict(model: GambleModel, provenance=None) -> dict:
    out = {"atoms": [{"x": [float(v) for v in x], "p": float(p)}
                     for x, p in zip(model.xs, model.probs)]}
    if provenance:
        out["provenance"] = dict(provenance)
    return out


def model_from_dict(data: dict) -> GambleModel:
    if not isinstance(data, dict) or "atoms" not in data:
        raise ModelValidationError('model file must be an object with an "atoms" list')
    raw = data["atoms"]
    if not isinstance(raw, list) or not raw:
        raise ModelValidationError('"atoms" must be a non-empty list')
    xs, probs = [], []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "x" not in entry or "p" not in entry:
            raise ModelValidationError(f'atom {i} must be an object with "x" and "p"')
        xs.append(entry["x"])
        probs.append(entry["p"])
    try:
        xs_arr = np.asarray(xs, dtype=float)
    except ValueError as exc:
        raise ModelValidationError(f"atom return vectors are ragged or non-numeric: {exc}")
    return GambleModel(xs=xs_arr, probs=np.asarray(probs, dtype=float))


def load_model(path) -> GambleModel:
    """Load and fully validate a JSON model file; the first violated invariant is named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelValidationError(f"not valid JSON: {exc}")
    return model_from_dict(data)


def dump_model(model: GambleModel, path, provenance=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model, provenance=provenance), fh, indent=2)
        fh.write("\n")
