"""Command-line laboratory driver.

Subcommands: optimize, drawdown, constrained, probe-convexity, adaptive,
ingest. Every run is fully determined by its flags plus the seed, and file
outputs are byte-identical across repeated runs. main() prints the
configuration echo and the human report to stdout once a run returns; a
rejected run prints only its error, to stderr. Machine output goes to --out
paths: CSV, or JSON for optimize unless --format csv, whose kappa_raw and k
cells hold ';'-joined reprs. A model comes from exactly one of --model or
--coin; --coin2 joins a second coin to it. On constrained, --delta goes only
with --kind probabilistic.

Exit codes: 0 success, 2 validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import math
import sys

import numpy as np

from . import approx, drawdown, growth
from .adaptive import run_adaptive, trace_rows
from .gamble import (GambleModel, ModelValidationError, _write_csv, dump_model,
                     independent_join, load_model, make_coin)
from .ingest import load_prices, to_returns

DEFAULT_DT_YEARS = 1.0 / 252.0   # daily betting

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3


def _parse_coin(text: str) -> GambleModel:
    parts = text.split(",")
    if len(parts) != 3:
        raise ModelValidationError(f"--coin wants win,loss,p but got {text!r}")
    try:
        win, loss, p = (float(v) for v in parts)
    except ValueError:
        raise ModelValidationError(f"--coin values must be numeric, got {text!r}")
    return make_coin(win, loss, p)


def _resolve_model(args) -> GambleModel:
    if bool(args.model) == bool(args.coin):
        raise ModelValidationError("give exactly one of --model or --coin")
    model = load_model(args.model) if args.model else _parse_coin(args.coin)
    if args.coin2:
        model = independent_join(model, _parse_coin(args.coin2))
    return model


# dest -> (rule, test) of every int and float flag; ConstraintSpec checks
# --eps and --delta. main() checks each flag a subcommand has before it
# runs, so no run starts on a value out of range.
_AT_LEAST_1 = (">= 1", lambda v: v >= 1)
_FLAG_RANGES = {
    **dict.fromkeys(("paths", "n", "k_grid", "pairs", "runs", "window"), _AT_LEAST_1),
    "seed": (">= 0", lambda v: v >= 0),
    "grid_resolution": (">= 20", lambda v: v >= 20),
    "p_true": ("in (0, 1)", lambda v: 0.0 < v < 1.0),
    "dt": ("> 0 and finite", lambda v: 0.0 < v < math.inf),
}


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _fmt_vec(v) -> str:
    return "[" + ", ".join(f"{float(x):.6f}" for x in np.atleast_1d(v)) + "]"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_optimize(args) -> int:
    model = _resolve_model(args)
    exact = growth.maximize_growth(model)
    rows = [("exact", None, exact.k_star, exact.g_star)]
    for method in ("taylor", "gbm"):
        try:
            sol = approx.approx_solution(model, method)
        except approx.DegenerateModelError as exc:
            print(f"{method}: {exc}")
            continue
        rows.append((method, sol.kappa_raw, sol.k_repaired, growth.log_growth(sol.k_repaired, model)))

    print(f"{'solution':<10} {'kappa_raw':<22} {'K':<22} {'g':>12} {'r':>12}")
    report = []
    for name, raw, k, g in rows:
        r = growth.annualized_return(g, args.dt)
        raw_s = _fmt_vec(raw) if raw is not None else "-"
        print(f"{name:<10} {raw_s:<22} {_fmt_vec(k):<22} {_fmt(g):>12} {_fmt(r):>12}")
        report.append({
            "solution": name,
            "kappa_raw": None if raw is None else np.atleast_1d(raw).tolist(),
            "k": np.atleast_1d(k).tolist(),
            "g": float(g),
            "r": float(r),
        })
    if not exact.converged:
        print(f"warning: optimizer did not converge in {exact.iterations} iterations "
              f"(gap {exact.gap:.2e})")
        return EXIT_NO_CONVERGENCE
    if args.out:
        if args.format == "json":
            with open(args.out, "w", encoding="utf-8") as fh:
                json.dump({"dt": args.dt, "solutions": report}, fh, indent=2)
                fh.write("\n")
        else:
            _write_csv(args.out, ["solution", "kappa_raw", "k", "g", "r"],
                       [[s["solution"],
                         "" if s["kappa_raw"] is None else ";".join(map(repr, s["kappa_raw"])),
                         ";".join(map(repr, s["k"])), repr(s["g"]), repr(s["r"])]
                        for s in report])
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_drawdown(args) -> int:
    model = _resolve_model(args)
    if model.n_assets != 1:
        raise ModelValidationError("drawdown sweep requires a 1-asset model")
    specs = (drawdown.ConstraintSpec(kind="expected", epsilon=args.eps),
             drawdown.ConstraintSpec(kind="probabilistic", epsilon=args.eps, delta=args.delta))
    k_values = np.linspace(0.0, 1.0, args.k_grid)
    exact = (drawdown.expected_drawdown_exact(model, k_values[:, None], args.n)
             if args.exact else None)

    even = model.n_atoms == 2 and sorted(model.xs[:, 0]) == [-1.0, 1.0]
    if even:
        p_win = float(model.probs[np.argmax(model.xs[:, 0])])
        analytic = drawdown.coin_drawdown_probability(p_win, args.n)
        print(f"even coin: analytic P(D >= K) = 1 - p^N = {_fmt(analytic)} for K in (0,1)")
    print(f"{'K':>8} {'E[D]':>10} {'se':>10} {'P(D<=eps)':>10} {'se':>10}"
          + ("  exceed(MC)  analytic" if even else "")
          + ("  exact" if args.exact else ""))
    # Each chunk of fractions is reduced one column at a time, so one samples
    # block is alive at once; the CRN matrix is handed over, so dbar_chunks
    # frees it before the last reduce. in_set columns use the plain rule.
    columns, exceeds = ([], []), []
    for dbars in drawdown.dbar_chunks(model, k_values[:, None], drawdown.sample_path_indices(
            model, args.paths, args.n, args.seed)):
        for spec, column in zip(specs, columns):
            column += drawdown.mean_se(spec.samples(dbars))
        if even:
            ks = k_values[len(exceeds):len(exceeds) + len(dbars), None]
            exceeds += drawdown.mean_se((dbars <= 1.0 - ks).astype(float))
        del dbars
    tables = ([], [])   # the rows of the expected and the probabilistic CSV
    for i, kk in enumerate(k_values):
        line = f"{kk:>8.4f}"
        for spec, column, rows in zip(specs, columns, tables):
            est, se = column[i]
            line += f" {est:>10.4f} {se:>10.5f}"
            rows.append([repr(float(kk)), repr(est), repr(se), int(spec.contains(est))])
        if even:
            inner, exceed = 0.0 < kk < 1.0, exceeds[i]
            line += f"  {exceed.value:>10.4f}  {_fmt(analytic) if inner else '-':>8}"
            tables[1][-1] += [repr(exceed.value), repr(exceed.std_error),
                              repr(analytic) if inner else ""]
        if args.exact:
            line += f"  {exact[i]:>8.4f}"
            tables[0][-1].append(repr(exact[i]))
        print(line)

    if args.out:
        header = ["k1", "estimate", "std_error", "in_set"]
        _write_csv(f"{args.out}.expected.csv", header + ["exact"] * args.exact, tables[0])
        _write_csv(f"{args.out}.prob.csv", header + [
            "exceed_estimate", "exceed_std_error", "analytic_exceed"] * even, tables[1])
        print(f"wrote {args.out}.expected.csv and {args.out}.prob.csv")
    return EXIT_OK


def cmd_constrained(args) -> int:
    model = _resolve_model(args)
    spec = drawdown.ConstraintSpec(kind=args.kind, epsilon=args.eps, delta=args.delta)
    result = drawdown.maximize_growth_constrained(model, args.n, spec, args.paths, args.seed)

    print(f"method:              {result.method}")
    print(f"K:                   {_fmt_vec(result.k_star)}")
    print(f"g(K):                {_fmt(result.g_star)}")
    print(f"r(K):                {_fmt(growth.annualized_return(result.g_star, args.dt))}")
    est = result.constraint
    print(f"constraint estimate: {_fmt(est.value)}"
          + ("" if est.exact else f" (se {_fmt(est.std_error)})"))
    print(f"constraint slack:    {_fmt(spec.slack(est.value))}")
    return EXIT_OK


def cmd_probe_convexity(args) -> int:
    model = _resolve_model(args)
    # --delta has a default here, and only the probabilistic set uses it.
    spec = drawdown.ConstraintSpec(kind=args.kind, epsilon=args.eps,
                                   delta=args.delta if args.kind == "probabilistic" else None)
    report = drawdown.convexity_probe(model, args.n, spec, grid_resolution=args.grid_resolution,
                                      pair_samples=args.pairs, paths=args.paths, seed=args.seed)
    inside = sum(1 for p in report.grid if p.in_set)
    print(f"grid points:            {len(report.grid)} ({inside} in set)")
    print(f"midpoint pairs tested:  {report.pairs_tested}")
    print(f"violations:             {len(report.violations)}")
    print(f"  significant:          {report.significant_violations}")
    print(f"  inconclusive:         {report.inconclusive_violations}")
    for c in report.checks:
        if c.violation:
            tag = "SIGNIFICANT" if c.significant else "inconclusive"
            est, se = c.estimate
            print(f"  {tag}: mid={c.k_mid} estimate={_fmt(est)} se={_fmt(se)}")
    if args.out:
        drawdown.write_level_set_csv(report, f"{args.out}.grid.csv")
        print(f"wrote {args.out}.grid.csv")
    return EXIT_OK


def cmd_adaptive(args) -> int:
    if args.window >= args.n:
        raise ModelValidationError("--window must be smaller than --n")
    terminal, grand_sum, grand_count = [], 0.0, 0
    k_min, k_max = math.inf, -math.inf
    for i in range(args.runs):
        run = run_adaptive(args.p_true, args.n, args.window, seed=args.seed + i)
        terminal.append(float(run.path.values[-1]))
        grand_sum += float(run.estimates.sum())
        grand_count += run.estimates.size
        k_min = min(k_min, float(run.fractions.min()))
        k_max = max(k_max, float(run.fractions.max()))
        if args.out:
            path = f"{args.out}.run{i}.csv"
            _write_csv(path, ["k", "outcome", "p_hat", "k_hat", "wealth"], trace_rows(run))
    print(f"runs:                {args.runs}")
    print(f"mean p_hat:          {_fmt(grand_sum / grand_count)}")
    print(f"K_hat range:         [{_fmt(k_min)}, {_fmt(k_max)}]")
    print(f"mean terminal V:     {_fmt(float(np.mean(terminal)))}")
    print(f"median terminal V:   {_fmt(float(np.median(terminal)))}")
    if args.out:
        print(f"wrote {args.runs} trace file(s) under {args.out}.run*.csv")
    return EXIT_OK


def cmd_ingest(args) -> int:
    symbols = None if args.symbols is None else args.symbols.split(",")
    table, report = load_prices(args.data, symbols=symbols)
    model = to_returns(table)
    print(f"rows read:    {report.rows_read}")
    print(f"rows dropped: {len(report.dropped_rows)}"
          + (f" (indices {list(report.dropped_rows)})" if report.dropped_rows else ""))
    print(f"symbols:      {', '.join(table.symbols)}")
    print(f"atoms:        {model.n_atoms} (weight {1.0 / model.n_atoms:.6g} each)")
    if args.out:
        dump_model(model, args.out, provenance=table.provenance)
        print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_model_flags(sp) -> None:
    sp.add_argument("--model", help="JSON model file")
    sp.add_argument("--coin", help="inline coin model: win,loss,p")
    sp.add_argument("--coin2", help="second coin, joined independently (2 assets)")


def _add_sampling_flags(sp, n: int, paths: int) -> None:
    sp.add_argument("--n", type=int, default=n)
    sp.add_argument("--paths", type=int, default=paths)
    sp.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="kellylab",
                                     description="Log-growth betting laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="exact vs approximate growth solutions")
    _add_model_flags(p)
    p.add_argument("--dt", type=float, default=DEFAULT_DT_YEARS,
                   help="years between bets (default 1/252)")
    p.add_argument("--out", help="JSON report path")
    p.add_argument("--format", choices=["csv", "json"], default="json")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("drawdown", help="drawdown curves over a fraction grid")
    _add_model_flags(p)
    _add_sampling_flags(p, 252, 10_000)
    p.add_argument("--eps", type=float, default=0.2)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--k-grid", type=int, default=21, dest="k_grid")
    p.add_argument("--exact", action="store_true",
                   help="add an exact-enumeration column (small N only)")
    p.add_argument("--out", help="CSV path prefix")
    p.set_defaults(func=cmd_drawdown)

    p = sub.add_parser("constrained", help="growth maximization under a drawdown constraint")
    _add_model_flags(p)
    p.add_argument("--kind", choices=["expected", "probabilistic", "surrogate"],
                   required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float)
    _add_sampling_flags(p, 252, 10_000)
    p.add_argument("--dt", type=float, default=DEFAULT_DT_YEARS)
    p.set_defaults(func=cmd_constrained)

    p = sub.add_parser("probe-convexity", help="empirical convexity probe (2 assets)")
    _add_model_flags(p)
    p.add_argument("--kind", choices=["expected", "probabilistic"], default="expected")
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.2)
    _add_sampling_flags(p, 50, 2_000)
    p.add_argument("--grid-resolution", type=int, default=20, dest="grid_resolution")
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--out", help="CSV path prefix")
    p.set_defaults(func=cmd_probe_convexity)

    p = sub.add_parser("adaptive", help="sliding-window adaptive betting runs")
    p.add_argument("--p-true", type=float, default=0.6, dest="p_true")
    p.add_argument("--n", type=int, default=1_000)
    p.add_argument("--window", type=int, default=50)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="trace CSV path prefix")
    p.set_defaults(func=cmd_adaptive)

    p = sub.add_parser("ingest", help="price CSV -> empirical model JSON")
    p.add_argument("--data", required=True, help="CSV with date + symbol columns")
    p.add_argument("--symbols", help="comma-separated column subset")
    p.add_argument("--out", help="model JSON path")
    p.set_defaults(func=cmd_ingest)

    return parser


# Built on the first main() call, not at import, and reused by every later
# call in the process: parse_args leaves the parser as it found it.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    report = io.StringIO()
    try:
        for flag, (rule, ok) in _FLAG_RANGES.items():
            if flag in args and not ok(getattr(args, flag)):
                raise ModelValidationError(
                    f"need --{flag.replace('_', '-')} {rule}, got {getattr(args, flag)}")
        with contextlib.redirect_stdout(report):
            code = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print("config: " + " ".join(f"{k.replace('_', '-')}={v}" for k, v in vars(args).items()
                                if k not in ("command", "func") and v is not None))
    print(report.getvalue(), end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
