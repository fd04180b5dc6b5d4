"""Workload pools, run plans, generated inputs and per-op answer checks.

Each workload is a fixed pool of *rounds*. A round is a short list of
`kellylab` commands whose mix is the same in every round, so a run made of
whole rounds always has the same mix of op kinds and sizes, whatever its
seed. The pool is generated from a constant pool seed, so every op it can
issue has a reference digest recorded in `reference.json`; the workload seed
of a run only chooses the order of the rounds and of the ops inside each
round. No op appears twice in a run, so a cache kept across calls cannot
make a repeated op look cheap.

Why these workloads:

* mc_sweep puts Monte Carlo drawdown sweeps on the sampler and the drawdown
  recursion (N=252, 21 fractions on one index matrix of 1000 to 10000 paths,
  i.e. 2 to 20 MB), with a convexity probe and an adaptive run in each round
  of ten ops.
* constrained_search puts `constrained` on its cost model, constraint
  evaluations times the cost of one: 1-asset grid-refine at N=100..252, the
  2-asset 1327-point grid scan and the 2-asset surrogate that falls back to
  Monte Carlo and rebuilds its index matrix on every evaluation.
* exact_portfolio uses enumeration instead of sampled paths (drawdown --exact
  at N=12..16 and the 1-asset surrogate at N=12..15) and the multi-asset optimizer on
  ingested price files and on joined coins.
"""

from __future__ import annotations

import contextlib
import datetime
import glob
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("mc_sweep", "constrained_search", "exact_portfolio")

# Rounds per pool. A run issues a fixed number of rounds, a fifth to a third
# of its pool, so runs with different seeds issue mostly different ops.
POOL_ROUNDS = {"mc_sweep": 60, "constrained_search": 80, "exact_portfolio": 50}
POOL_SEED = {"mc_sweep": 11, "constrained_search": 12, "exact_portfolio": 13}

G_ROUNDING = 1e-12   # allowance when comparing an exact g with an approximate one

RUN = "{run}"   # placeholder for the per-run temporary directory in argv


@dataclass(frozen=True)
class Op:
    """One `kellylab` command and what its answer check needs to know."""

    key: str               # unique within the workload's pool
    kind: str
    argv: tuple
    facts: dict = field(default_factory=dict, compare=False)

    def resolve(self, run_dir: str) -> list:
        return [a.replace(RUN, run_dir) for a in self.argv]


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------

def _even_coin(rng, lo, hi) -> tuple:
    p = round(float(rng.uniform(lo, hi)), 4)
    return f"1,-1,{p}", p


def _skewed_coin(rng) -> str:
    win = round(float(rng.uniform(0.05, 1.5)), 3)
    loss = round(float(rng.uniform(-1.0, -0.05)), 3)
    p = round(float(rng.uniform(0.4, 0.95)), 3)
    return f"{win},{loss},{p}"


def _edge_coin(rng) -> str:
    """A coin with positive expected return, so betting nothing is not optimal."""
    if rng.random() < 0.5:
        return _even_coin(rng, 0.55, 0.9)[0]
    while True:
        win = round(float(rng.uniform(0.1, 1.5)), 3)
        loss = round(float(rng.uniform(-1.0, -0.1)), 3)
        p = round(float(rng.uniform(0.4, 0.95)), 3)
        if p * win + (1 - p) * loss > 0.02:
            return f"{win},{loss},{p}"


def _seed_arg(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


def _drawdown_op(key, rng, n, paths, exact, even) -> Op:
    if even:
        coin, p = _even_coin(rng, 0.95, 0.998) if n > 100 else _even_coin(rng, 0.55, 0.95)
    else:
        coin, p = _skewed_coin(rng), None
    argv = ["drawdown", "--coin", coin, "--n", str(n), "--paths", str(paths),
            "--seed", _seed_arg(rng), "--k-grid", "21",
            "--eps", f"{rng.uniform(0.1, 0.9):.3f}", "--delta", f"{rng.uniform(0.05, 0.3):.3f}",
            "--out", f"{RUN}/{key}"]
    if exact:
        argv.append("--exact")
    return Op(key, "drawdown", tuple(argv),
              {"even_p": p, "n": n, "paths": paths, "exact": exact})


# Sweeps per round by path count. Probe and adaptive ops usually run faster
# than a 5000-path sweep, so as many ops run faster than the 5000-path sweeps
# as run slower, and the median falls inside their class: at the edge between
# two classes a few slow or fast ops would move it a long way.
MC_SWEEPS = {1000: 1, 5000: 4, 10000: 3}


def _mc_sweep_round(r, rng) -> list:
    ops = []
    for paths, count in MC_SWEEPS.items():
        for j in range(count):
            ops.append(_drawdown_op(f"r{r:03d}-dd{paths}-{j}", rng, 252, paths, False,
                                    even=rng.random() < 0.5))
    c1 = _edge_coin(rng)
    c2 = _edge_coin(rng) if rng.random() < 0.5 else _skewed_coin(rng)
    kind = "expected" if rng.random() < 0.5 else "probabilistic"
    key = f"r{r:03d}-probe"
    ops.append(Op(key, "probe", (
        "probe-convexity", "--coin", c1, "--coin2", c2, "--kind", kind,
        "--eps", f"{rng.uniform(0.2, 0.5):.3f}", "--delta", f"{rng.uniform(0.1, 0.3):.3f}",
        "--n", "50", "--paths", "2000", "--seed", _seed_arg(rng), "--out", f"{RUN}/{key}")))
    key = f"r{r:03d}-adaptive"
    ops.append(Op(key, "adaptive", (
        "adaptive", "--p-true", f"{rng.uniform(0.52, 0.72):.4f}",
        "--n", str(int(rng.integers(1000, 20001))),
        "--window", str(int(rng.choice([20, 50, 100]))), "--runs", "1",
        "--seed", _seed_arg(rng), "--out", f"{RUN}/{key}")))
    return ops


def _constrained_op(key, coins, kind, n, paths, rng, **facts) -> Op:
    argv = ["constrained", "--coin", coins[0]]
    if len(coins) > 1:
        argv += ["--coin2", coins[1]]
    argv += ["--kind", kind, "--eps", f"{rng.uniform(0.1, 0.3):.3f}"]
    if kind == "probabilistic":
        argv += ["--delta", f"{rng.uniform(0.05, 0.2):.3f}"]
    argv += ["--n", str(n), "--paths", str(paths), "--seed", _seed_arg(rng)]
    return Op(key, "constrained", tuple(argv), {"kind": kind, **facts})


def _constrained_round(r, rng) -> list:
    ops = []
    # One N from each quarter of 100..252, so the one-asset costs spread
    # evenly, with no gap at the median, which lies among them.
    quarters = [int(rng.integers(100 + 38 * q, 138 + 38 * q + (q == 3))) for q in range(4)]
    for j, n in enumerate(rng.permutation(quarters)):
        kind = "expected" if j % 2 == 0 else "probabilistic"
        ops.append(_constrained_op(f"r{r:03d}-c1-{kind}-{n}", [_edge_coin(rng)],
                                   kind, int(n), 1000, rng))
    for kind in ("expected", "surrogate"):
        coins = [_edge_coin(rng), _edge_coin(rng)]
        ops.append(_constrained_op(f"r{r:03d}-c2-{kind}", coins, kind, 50, 1000, rng))
    return ops


@dataclass(frozen=True)
class PriceFile:
    """A generated price CSV: `symbols` columns of `rows` daily closes."""

    name: str
    symbols: int
    rows: int
    seed: int


PRICE_FILES = 25


def _price_files() -> list:
    rng = np.random.default_rng(POOL_SEED["exact_portfolio"] + 1000)
    return [PriceFile(f"prices{i:02d}.csv", int(rng.integers(5, 21)),
                      int(rng.integers(1000, 2501)), int(rng.integers(0, 2**31 - 1)))
            for i in range(PRICE_FILES)]


def _exact_portfolio_round(r, rng, files) -> list:
    ops = []
    # Enumeration doubles in cost with each step of N. One op at N=16 (4% of
    # a round) and three at N=15 put the 90th percentile inside the N=15
    # class, not at its edge.
    for j, (n_sur, n_dd) in enumerate(zip(rng.permutation([12, 13, 14, 15, 15]),
                                          rng.permutation(range(12, 17)))):
        tag = f"r{r:03d}-{j}"
        pf = files[int(rng.integers(len(files)))]
        picked = rng.permutation(pf.symbols)[:int(rng.integers(5, pf.symbols + 1))]
        symbols = ",".join(f"S{int(s):02d}" for s in picked)
        model = f"{RUN}/{tag}-ingest.model.json"
        ops.append(Op(f"{tag}-ingest", "ingest", (
            "ingest", "--data", f"{RUN}/{pf.name}", "--symbols", symbols, "--out", model),
            {"rows": pf.rows, "symbols": len(picked)}))
        ops.append(Op(f"{tag}-optmodel", "optimize-model", (
            "optimize", "--model", model, "--out", f"{RUN}/{tag}-optmodel.json"),
            {"after": f"{tag}-ingest"}))
        if rng.random() < 0.5:
            coins = [_even_coin(rng, 0.55, 0.99)[0], _even_coin(rng, 0.55, 0.99)[0]]
        else:
            coins = [_edge_coin(rng), _edge_coin(rng)]
        ops.append(Op(f"{tag}-optcoins", "optimize-coins", (
            "optimize", "--coin", coins[0], "--coin2", coins[1],
            "--out", f"{RUN}/{tag}-optcoins.json")))
        ops.append(_constrained_op(f"{tag}-surrogate", [_edge_coin(rng)], "surrogate",
                                   int(n_sur), 10000, rng))
        ops.append(_drawdown_op(f"{tag}-ddexact", rng, int(n_dd), 1000, True,
                                even=rng.random() < 0.3))
    return ops


def pool(workload: str) -> list:
    """Every round the workload can issue, in pool order."""
    rng = np.random.default_rng(POOL_SEED[workload])
    count = POOL_ROUNDS[workload]
    if workload == "mc_sweep":
        return [_mc_sweep_round(r, rng) for r in range(count)]
    if workload == "constrained_search":
        return [_constrained_round(r, rng) for r in range(count)]
    if workload == "exact_portfolio":
        files = _price_files()
        return [_exact_portfolio_round(r, rng, files) for r in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


def plan(workload: str, seed: int) -> list:
    """The rounds a run with this workload seed issues, in order."""
    rounds = pool(workload)
    rng = np.random.default_rng([seed, POOL_SEED[workload]])
    ordered = []
    for r in rng.permutation(len(rounds)):
        ops = [rounds[r][i] for i in rng.permutation(len(rounds[r]))]
        # An optimize --model op reads the model its ingest op writes.
        pos = {op.key: i for i, op in enumerate(ops)}
        for i, op in enumerate(ops):
            j = pos[op.facts["after"]] if "after" in op.facts else -1
            if j > i:
                ops[i], ops[j] = ops[j], ops[i]
                pos[ops[i].key], pos[ops[j].key] = i, j
        ordered.append(ops)
    return ordered


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------

def write_inputs(workload: str, run_dir: str) -> None:
    """Write the input files the workload's ops read (before any op is timed)."""
    if workload != "exact_portfolio":
        return
    start = datetime.date(2010, 1, 4)
    for pf in _price_files():
        rng = np.random.default_rng(pf.seed)
        drift = rng.uniform(-2e-4, 8e-4, pf.symbols)
        vol = rng.uniform(0.008, 0.03, pf.symbols)
        rets = rng.normal(drift, vol, size=(pf.rows - 1, pf.symbols))
        prices = 100.0 * np.vstack([np.ones(pf.symbols), np.cumprod(1.0 + rets, axis=0)])
        lines = ["date," + ",".join(f"S{j:02d}" for j in range(pf.symbols))]
        for i in range(pf.rows):
            day = (start + datetime.timedelta(days=i)).isoformat()
            lines.append(day + "," + ",".join(f"{x:.4f}" for x in prices[i]))
        with open(os.path.join(run_dir, pf.name), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Running one op, its digest and its answer check
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    rc: object            # exit code, or a string naming an uncaught exception
    seconds: float        # CPU time of the benchmark process during the call
    stdout: str
    files: dict           # output file name (relative to the run dir) -> bytes


def execute(main, op: Op, run_dir: str) -> Outcome:
    """Run one op in-process through `main(argv)`; only the call is timed.

    The time is the process's CPU time, not wall time: on a shared virtual
    machine wall time also counts the time the host runs other guests
    instead of this one, and that varies from run to run. One client with
    BLAS/OpenMP capped at one thread means CPU time is the op's own work.
    """
    argv = op.resolve(run_dir)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an op that crashes is a failed op, not a failed run
        rc = f"uncaught {type(exc).__name__}: {exc}"
    seconds = time.process_time() - t0
    files = {}
    for path in sorted(glob.glob(glob.escape(os.path.join(run_dir, op.key)) + ".*")):
        with open(path, "rb") as fh:
            files[os.path.basename(path)] = fh.read()
    return Outcome(rc, seconds, out.getvalue().replace(run_dir, RUN), files)


def digest(outcome: Outcome) -> str:
    """Digest of exit code, stdout and every output file, independent of the run dir."""
    h = hashlib.sha256(f"rc={outcome.rc}\n".encode())
    h.update(outcome.stdout.encode())
    for name, data in outcome.files.items():
        h.update(f"\n--- {name}\n".encode())
        h.update(data)
    return h.hexdigest()[:16]


def _value(stdout: str, label: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(label):
            return float(line[len(label):].split()[0])
    raise ValueError(f"no {label!r} line in output")


def _csv_rows(data: bytes) -> list:
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _within(estimate, target, se, paths) -> bool:
    # A sample standard error of 0 (all paths alike) is floored at the
    # estimator's resolution 1/paths.
    return abs(estimate - target) <= 5.0 * max(se, 1.0 / paths)


def _check_drawdown(op, out) -> str | None:
    f = op.facts
    files = out.files
    try:
        expected = _csv_rows(files[f"{op.key}.expected.csv"])
        prob = _csv_rows(files[f"{op.key}.prob.csv"])
    except KeyError as exc:
        return f"missing output {exc}"
    if len(expected) != 21 or len(prob) != 21:
        return "expected 21 fraction rows"
    if f["even_p"] is not None:
        analytic = 1.0 - f["even_p"] ** f["n"]
        for row in prob:
            k = float(row["k1"])
            if 0.0 < k < 1.0 and not _within(float(row["exceed_estimate"]), analytic,
                                             float(row["exceed_std_error"]), f["paths"]):
                return f"even coin: exceed(MC) {row['exceed_estimate']} vs 1-p^N {analytic!r} at K={k}"
    if f["exact"]:
        for row in expected:
            if not _within(float(row["estimate"]), float(row["exact"]),
                           float(row["std_error"]), f["paths"]):
                return f"exact E[D] {row['exact']} vs MC {row['estimate']} at K={row['k1']}"
    return None


def _check_optimize(op, out) -> str | None:
    name = f"{op.key}.json"
    if name not in out.files:
        return f"missing output {name}"
    solutions = json.loads(out.files[name])["solutions"]
    exact = solutions[0]
    if exact["solution"] != "exact" or not math.isfinite(exact["g"]):
        return f"exact g is not finite: {exact['g']!r}"
    for sol in solutions[1:]:
        # The optimizer's position tolerance (1e-8) leaves g within ~1e-15 of
        # its maximum, so an approximation at the optimum may read a few ulps
        # higher.
        if not exact["g"] >= sol["g"] - G_ROUNDING:
            return f"exact g {exact['g']!r} < {sol['solution']} g {sol['g']!r}"
    return None


def check(op: Op, out: Outcome) -> str | None:
    """None when the op's answer passes its checks, else the reason it failed."""
    if op.kind == "optimize-coins" and out.rc == 3 and "did not converge" in out.stdout:
        return "maximize_growth reports converged=False on a two-coin join"
    if out.rc != 0:
        return f"exit code {out.rc}"
    try:
        if op.kind == "drawdown":
            return _check_drawdown(op, out)
        if op.kind == "constrained":
            slack = _value(out.stdout, "constraint slack:")
            return None if slack >= 0.0 else f"constraint slack {slack} < 0"
        if op.kind in ("optimize-coins", "optimize-model"):
            return _check_optimize(op, out)
        if op.kind == "adaptive":
            wealth = [_value(out.stdout, "mean terminal V:"),
                      _value(out.stdout, "median terminal V:")]
            return None if all(map(math.isfinite, wealth)) else "run_adaptive wealth is not finite"
        if op.kind == "ingest":
            rows = _value(out.stdout, "rows read:")
            symbols = out.stdout.split("symbols:", 1)[1].splitlines()[0].split(",")
            if rows != op.facts["rows"] or len(symbols) != op.facts["symbols"]:
                return f"ingest read {rows} rows of {len(symbols)} symbols"
            return None if f"{op.key}.model.json" in out.files else "missing model file"
        if op.kind == "probe":
            return None if f"{op.key}.grid.csv" in out.files else "missing grid file"
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc}"
    raise ValueError(f"no check for op kind {op.kind!r}")
