"""Finite-support gamble models.

A gamble is a joint probability mass function over return vectors: a finite
set of atoms x in R^n with strictly positive weights summing to one.
Everything downstream (growth optimization, drawdown simulation, adaptive
betting) consumes this representation, so construction is strict: bad inputs
fail here with a named violation.

Models are immutable after construction. Sampling is driven by an explicit
numpy Generator, so identical seeds give bitwise-identical outcome sequences.
The package draws only through `sample_indices` and writes CSV only through
`_write_csv`; `_reprs` formats the model file's weights and the adaptive trace.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

PROB_SUM_TOL = 1e-12        # |sum(p) - 1| allowed at model construction
FEAS_TOL = 1e-9             # slack for allocation feasibility comparisons


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

    xs:    (m, n) array, one atom per row, with m >= 1 and n >= 1; every
           component >= -1 (-1 means total loss of the amount bet on that asset).
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
        if xs.shape[1] == 0:
            raise ModelValidationError("model needs at least one asset")
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
    for arr in (mean, second, cov):
        arr.setflags(write=False)
    return MomentSet(mean=mean, second_moment=second, covariance=cov)


def is_feasible(k, model: GambleModel) -> bool:
    """True iff one allocation k is feasible: k >= 0, sum(k) <= 1 and
    1 + k'x >= 0 on every atom, within FEAS_TOL, as _checked_factors checks."""
    kv = as_allocation(k, model.n_assets)
    try:
        _checked_factors(model, kv)
    except ValueError:
        return False
    return True


def _checked_factors(model: GambleModel, k) -> np.ndarray:
    """(B, m) wealth factors max(1 + K'x, 0) of a (B, n_assets) batch of
    allocations; one allocation is a (1, n_assets) batch.

    This is the feasibility rule: K >= 0, sum(K) <= 1 and 1 + K'x >= 0 on
    every atom x, each within FEAS_TOL. The batch is checked at once and the
    first infeasible row is named; a factor below 0 is then rounding noise
    on the ruin boundary, so it clamps to 0. Row b is the matvec
    model.xs @ k[b] on its own: the stacked matmul of model.xs with the
    (B, n, 1) batch runs one such matvec per row, where a single
    (B, n) x (n, m) product rounds differently.
    """
    kvs = np.asarray(k, dtype=float)
    if kvs.ndim != 2:
        kvs = as_allocation(kvs, model.n_assets)[None]
    elif kvs.shape[1] != model.n_assets:
        raise ValueError(f"allocation has dimension {kvs.shape[1]}, "
                         f"model has {model.n_assets} assets")
    factors = np.matmul(model.xs, kvs[:, :, None])[:, :, 0]
    factors += 1.0
    # The ufunc reductions are the array methods' own, without their
    # per-call wrapper: a one-row check is most of a log_growth call.
    ok = (np.logical_and.reduce(kvs >= -FEAS_TOL, axis=1)
          & (np.add.reduce(kvs, axis=1) <= 1.0 + FEAS_TOL)
          & (np.minimum.reduce(factors, axis=1) >= -FEAS_TOL))
    if not ok.all():
        raise ValueError(f"allocation {kvs[ok.argmin()]!r} is infeasible for this model")
    return np.maximum(factors, 0.0, out=factors)


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
        x, p = entry["x"], entry["p"]
        # JSON numbers only: json reads true and false as bools, an int subclass.
        if type(x) is not list or not {type(p), *map(type, x)} <= {int, float}:
            raise ModelValidationError(f'atom {i} needs "x" a list of numbers and "p" a number')
        xs.append(x)
        probs.append(p)
    try:
        xs_arr, probs_arr = np.asarray(xs, dtype=float), np.asarray(probs, dtype=float)
    except ValueError as exc:
        raise ModelValidationError(f"atom return vectors are ragged or non-numeric: {exc}")
    except OverflowError:
        # A JSON integer past the float range; only now look for its atom.
        for i, (x, p) in enumerate(zip(xs, probs)):
            try:
                [float(v) for v in (*x, p)]
            except OverflowError:
                break
        raise ModelValidationError(f"atom {i} holds a number too large for a float")
    return GambleModel(xs=xs_arr, probs=probs_arr)


def load_model(path) -> GambleModel:
    """Load and fully validate a JSON model file; the first violated invariant is named."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelValidationError(f"not valid JSON: {exc}")
    return model_from_dict(data)


def _write_csv(path, header, rows) -> None:
    """Write a CSV file of the header row and then rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _reprs(a: np.ndarray) -> list:
    """repr(float(v)) of every element of the float array a.

    Each distinct value of a is formatted once, so a trace block or a model's
    weights pay one repr per distinct value. Values are told apart by their
    bits, so -0.0 and 0.0 keep their own repr.
    """
    bits, where = np.unique(np.ascontiguousarray(a, dtype=np.float64).view(np.int64),
                            return_inverse=True)
    text = [repr(v) for v in bits.view(np.float64).tolist()]
    return [text[i] for i in where.tolist()]


# Atoms per write of dump_model. A block's rows, reprs and text are freed
# before the next block is built, so the block bounds the memory a dump holds.
# Measured on a 2,499 x 20 model (traced peak of one dump): 0.22 MiB at 64
# atoms, 0.61 MiB at 256, 2.2 MiB at 1,024 and 5.1 MiB at 4,096, while the
# dump's CPU time stayed within 5% from 32 to 1,024 atoms.
_DUMP_BLOCK = 256


def dump_model(model: GambleModel, path, provenance=None) -> None:
    """Write the model file laid out above as json.dumps writes it with
    indent=2, plus a newline; the provenance only when given.

    The atoms are laid out here from repr of each float, which is how json
    writes a finite float: json's indenting encoder is pure Python and slow
    on large models. Each return is repr'd once and the weights go through
    _reprs, which formats each distinct weight once; the atoms go out in
    blocks of _DUMP_BLOCK, one write per block, so the whole text is never
    held. The provenance goes through json itself.
    """
    probs = _reprs(model.probs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{\n  "atoms": [')
        for start in range(0, len(probs), _DUMP_BLOCK):
            atoms = zip(model.xs[start:start + _DUMP_BLOCK].tolist(),
                        probs[start:start + _DUMP_BLOCK])
            fh.write(("," if start else "") + ",".join([
                '\n    {\n      "x": [\n        ' + ",\n        ".join(map(repr, x))
                + '\n      ],\n      "p": ' + p + "\n    }" for x, p in atoms]))
        fh.write("\n  ]")
        if provenance:
            fh.write(',\n  "provenance": '
                     + json.dumps(dict(provenance), indent=2).replace("\n", "\n  "))
        fh.write("\n}\n")
