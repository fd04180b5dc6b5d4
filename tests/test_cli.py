"""CLI subcommands: reports, file outputs, determinism, exit codes."""

import argparse
import ast
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kellylab import cli, dump_model, independent_join, load_model, make_coin, maximize_growth
from kellylab.cli import main
from test_growth import ingest_like_model


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_documented_exit_codes_are_the_cli_constants():
    # The README and the module docstring list every EXIT_* code and no other.
    codes = {v for k, v in vars(cli).items() if k.startswith("EXIT_")}
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for text in (readme, cli.__doc__):
        listed = re.search(r"Exit codes:([^.]*)\.", text).group(1)
        assert {int(c) for c in re.findall(r"\b(\d+) [a-z]", listed)} == codes


def test_console_script_runs_the_readme_first_command():
    # The `kellylab` script's target imports and is callable, and its module
    # runs the README's first command in a fresh interpreter with exit 0.
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))[
        "project"]["scripts"]
    module, func = scripts["kellylab"].split(":")
    assert (module, func) == ("kellylab.cli", "main")
    assert callable(getattr(importlib.import_module(module), func))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", module, "optimize", "--coin", "0.15,-0.95,0.95"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("config:")


def names_used(path) -> set:
    """Names and attributes a module reads, each top-level definition's own
    name excluded inside its body."""
    used = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name and name != getattr(stmt, "name", None):
                used.add(name)
    return used


def test_every_export_has_a_user():
    # A public name that only the tests use belongs in the tests.
    root = Path(__file__).parents[1]
    package = root / "src" / "kellylab"
    exported = [alias.asname or alias.name
                for stmt in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names]
    used = set().union(*(names_used(path) for path in package.glob("*.py")
                         if path.name != "__init__.py"),
                       names_used(root / "tests" / "test_acceptance.py"))
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert [name for name in exported
            if name not in used and not re.search(rf"\b{name}\b", readme)] == []


def test_every_module_constant_is_read():
    # A module-level UPPER_CASE constant that no module of the package reads
    # (loads, not only stores) is dead.
    package = Path(__file__).parents[1] / "src" / "kellylab"
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in package.glob("*.py")]
    constants = {node.id for tree in trees for stmt in tree.body
                 if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                 for node in ast.walk(stmt) if isinstance(node, ast.Name)
                 and isinstance(node.ctx, ast.Store) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", node.id)}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert constants and sorted(constants - read) == []


def test_each_shared_job_has_one_site():
    # Uniforms are drawn, CSV is written and floats are formatted in bulk at
    # one function each, all in gamble, and Monte Carlo batches are cut into
    # kernel calls by drawdown.dbar_chunks alone; a second site is a copy of
    # the job.
    package = Path(__file__).parents[1] / "src" / "kellylab"
    sites = {"random": set(), "writer": set(), "_reprs": set(), "dbar_samples": set()}
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            where = f"{path.stem}.{getattr(stmt, 'name', '')}"
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name in ("random", "writer", "dbar_samples"):
                        sites[name].add(where)
                if isinstance(node, ast.FunctionDef) and node.name == "_reprs":
                    sites["_reprs"].add(where)
    assert sites == {"random": {"gamble.sample_indices"}, "writer": {"gamble._write_csv"},
                     "_reprs": {"gamble._reprs"}, "dbar_samples": {"drawdown.dbar_chunks"}}


# ---------------------------------------------------------------------------
# optimize
# ---------------------------------------------------------------------------

def test_optimize_reports_reference_table(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "optimize", "--coin", "0.15,-0.95,0.95",
                           "--out", str(out_file))
    assert code == 0
    assert "config:" in out
    for fragment in ("0.666667", "0.040380", "1.428571", "1.652893",
                     "-0.017013", "10.383888"):
        assert fragment in out
    report = json.loads(out_file.read_text())
    names = [s["solution"] for s in report["solutions"]]
    assert names == ["exact", "taylor", "gbm"]


def test_optimize_even_coin_closed_form(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--coin", "1,-1,0.6")
    assert code == 0 and "0.200000" in out


def test_optimize_zero_mean_coin(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--coin", "0.5,-0.5,0.5")
    assert code == 0
    assert "[0.000000]" in out


def test_optimize_certifies_a_joined_even_coin_pair(capsys):
    # A stop on the last step left this join unconverged (exit 3): g could
    # no longer tell the steps apart while the gap was 6.7e-8.
    code, out, _ = run_cli(capsys, "optimize", "--coin", "1,-1,0.9075", "--coin2", "1,-1,0.9304")
    assert code == 0 and "warning" not in out


def test_optimize_names_the_gap_of_an_unconverged_run(capsys, tmp_path):
    # A total-loss atom of mass 1e-10 puts the optimum within about 1e-8 of
    # the ruin face, where g no longer resolves the steps that would close
    # the gap: the run is reported, not passed off as converged.
    model_path = tmp_path / "model.json"
    dump_model(ingest_like_model(39, total_loss=1e-10), model_path)
    res = maximize_growth(load_model(model_path))
    assert not res.converged
    code, out, _ = run_cli(capsys, "optimize", "--model", str(model_path))
    assert code == cli.EXIT_NO_CONVERGENCE
    assert out.splitlines()[-1] == (f"warning: optimizer did not converge in {res.iterations} "
                                    f"iterations (gap {res.gap:.2e})")


def test_optimize_requires_model(capsys):
    # --coin2 joins a second coin, so it is no model source of its own.
    for argv in ((), ("--coin2", "1,-1,0.6")):
        code, out, err = run_cli(capsys, "optimize", *argv)
        assert code == 2 and out == ""
        assert "--model" in err and "--coin" in err


def test_bad_coin_spec_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "optimize", "--coin", "1,-1")
    assert code == 2 and "coin" in err
    code, out, err = run_cli(capsys, "optimize", "--coin", "1,-1,x")
    assert (code, out) == (2, "")
    assert err == "error: --coin values must be numeric, got '1,-1,x'\n"


def test_optimize_reports_a_degenerate_approximation_and_goes_on(capsys, tmp_path):
    # One sure return: its covariance is 0, so the gbm fraction is undefined.
    path = tmp_path / "sure.json"
    path.write_text('{"atoms": [{"x": [0.1], "p": 1.0}]}')
    code, out, _ = run_cli(capsys, "optimize", "--model", str(path))
    assert code == 0
    assert "gbm: covariance matrix is singular (degenerate gamble)\n" in out
    assert [line.split()[0] for line in out.splitlines()[3:]] == ["exact", "taylor"]


@pytest.mark.parametrize("atom", ['{"x": [true], "p": true}', '{"x": ["0.5"], "p": "1"}',
                                  '{"x": 0.5, "p": 1.0}'], ids=["bool", "string", "scalar-x"])
def test_optimize_rejects_a_model_file_of_non_numbers(capsys, tmp_path, atom):
    path = tmp_path / "model.json"
    path.write_text('{"atoms": [' + atom + "]}")
    code, out, err = run_cli(capsys, "optimize", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == 'error: atom 0 needs "x" a list of numbers and "p" a number\n'


@pytest.mark.parametrize("atom", ['{"x": [1' + "0" * 400 + '], "p": 1}',
                                  '{"x": [0.5], "p": 1' + "0" * 400 + "}"], ids=["x", "p"])
def test_optimize_rejects_an_integer_past_the_float_range(capsys, tmp_path, atom):
    path = tmp_path / "model.json"
    path.write_text('{"atoms": [' + atom + "]}")
    code, out, err = run_cli(capsys, "optimize", "--model", str(path))
    assert (code, out) == (2, "")
    assert err == "error: atom 0 holds a number too large for a float\n"


@pytest.mark.parametrize("argv,n_assets", [
    (("optimize",), 1),
    (("drawdown", "--n", "10", "--paths", "100", "--k-grid", "3"), 1),
    (("constrained", "--kind", "expected", "--eps", "0.2", "--n", "10", "--paths", "100"), 1),
    (("probe-convexity", "--n", "10", "--paths", "100"), 2),
], ids=["optimize", "drawdown", "constrained", "probe-convexity"])
def test_model_and_coin_together_are_rejected_before_the_report(capsys, tmp_path, argv,
                                                                n_assets):
    # The file alone would run: both sources at once used to drop --coin.
    model_path = tmp_path / "model.json"
    coin = make_coin(1.0, -1.0, 0.9)
    dump_model(independent_join(*[coin] * n_assets), model_path)
    code, out, err = run_cli(capsys, *argv, "--model", str(model_path), "--coin", "1,-1,0.6")
    assert code == 2 and out == ""
    assert "--model" in err and "--coin" in err


@pytest.mark.parametrize("argv", [
    ("optimize",),
    ("constrained", "--kind", "expected", "--eps", "0.2", "--n", "10", "--paths", "100"),
], ids=["optimize", "constrained"])
def test_zero_asset_model_is_rejected_before_the_report(capsys, tmp_path, argv):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps({"atoms": [{"x": [], "p": 1.0}]}), encoding="utf-8")
    code, out, err = run_cli(capsys, *argv, "--model", str(model_path))
    assert code == 2 and "config:" not in out
    assert "at least one asset" in err


def fmt_with_inf_branch(x) -> str:
    """The formatter before it became one format spec: the oracle."""
    if isinstance(x, float):
        if math.isinf(x):
            return "-inf" if x < 0 else "inf"
        return f"{x:.6f}"
    return str(x)


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e300, -1e300, 5e-324,
                               0.0403797, np.float64(-0.017013), np.float64(np.inf),
                               np.float64(-np.inf), np.float64(np.nan)])
def test_fmt_prints_what_the_inf_branch_printed(x):
    assert cli._fmt(x) == fmt_with_inf_branch(x)


# ---------------------------------------------------------------------------
# drawdown
# ---------------------------------------------------------------------------

def test_drawdown_outputs_and_determinism(capsys, tmp_path):
    args = ["drawdown", "--coin", "1,-1,0.99", "--n", "60", "--paths", "500",
            "--k-grid", "5", "--eps", "0.5", "--seed", "9"]
    code, out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0
    assert "analytic" in out
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code == 0
    for suffix in (".expected.csv", ".prob.csv"):
        a = (tmp_path / ("a" + suffix)).read_bytes()
        b = (tmp_path / ("b" + suffix)).read_bytes()
        assert a == b


def test_drawdown_first_grid_row_is_exactly_zero(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "drawdown", "--coin", "0.15,-0.95,0.95", "--n", "40",
                         "--paths", "300", "--k-grid", "3", "--out", str(tmp_path / "dd"))
    assert code == 0
    lines = (tmp_path / "dd.expected.csv").read_text().splitlines()
    assert lines[0].split(",")[:4] == ["k1", "estimate", "std_error", "in_set"]
    first = lines[1].split(",")
    assert first[0] == "0.0" and first[1] == "0.0" and first[2] == "0.0"


def test_drawdown_exact_column(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "drawdown", "--coin", "1,-1,0.9", "--n", "8",
                           "--paths", "300", "--k-grid", "3", "--exact",
                           "--out", str(tmp_path / "dd"))
    assert code == 0 and "exact" in out
    header = (tmp_path / "dd.expected.csv").read_text().splitlines()[0]
    assert header.endswith(",exact")


def test_drawdown_budget_exceeded_is_validation_error(capsys):
    # The budget is checked before the config echo, so stdout stays empty.
    for extra in ((), ("--paths", "300", "--k-grid", "3")):
        code, out, err = run_cli(capsys, "drawdown", "--coin", "1,-1,0.9", "--n", "30",
                                 *extra, "--exact")
        assert code == 2
        assert err == "error: 2^30 sequences exceed the budget of 1000000\n"
        assert out == ""


def test_drawdown_budget_error_names_a_count_too_long_to_print(capsys):
    # 2^20000 has 6021 digits, past what Python prints of an int by default;
    # the count is stated as the power.
    code, out, err = run_cli(capsys, "drawdown", "--coin", "1,-1,0.6", "--n", "20000",
                             "--paths", "100", "--exact")
    assert (code, out) == (2, "")
    assert err == "error: 2^20000 sequences exceed the budget of 1000000\n"


def test_drawdown_rejects_two_asset_models(capsys):
    code, _, err = run_cli(capsys, "drawdown", "--coin", "1,-1,0.9",
                           "--coin2", "1,-1,0.9")
    assert code == 2 and "1-asset" in err


def test_drawdown_levels_are_validated_like_constraints(capsys):
    # Levels and sizes that no run can use exit 2 before the config echo.
    coin = ("--coin", "1,-1,0.9", "--n", "10", "--paths", "100")
    for argv, word in [
        (("drawdown", *coin, "--eps", "1.5"), "epsilon"),
        (("drawdown", *coin, "--eps", "2"), "epsilon"),
        (("drawdown", *coin, "--delta", "0"), "delta"),
        (("probe-convexity", *coin, "--coin2", "1,-1,0.8", "--grid-resolution", "5"),
         "--grid-resolution"),
        (("adaptive", "--p-true", "1.5", "--n", "100", "--window", "10"), "--p-true"),
        (("adaptive", "--n", "100", "--window", "0"), "--window"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and word in err, argv
        assert "config:" not in out, argv


# ---------------------------------------------------------------------------
# constrained
# ---------------------------------------------------------------------------

def test_constrained_expected(capsys):
    code, out, _ = run_cli(capsys, "constrained", "--coin", "0.15,-0.95,0.95",
                           "--kind", "expected", "--eps", "0.2", "--n", "120",
                           "--paths", "1000")
    assert code == 0
    assert "constraint slack" in out and "method" in out


def test_constrained_vacuous_returns_unconstrained(capsys):
    code, out, _ = run_cli(capsys, "constrained", "--coin", "0.15,-0.95,0.95",
                           "--kind", "expected", "--eps", "0.999", "--n", "40",
                           "--paths", "500")
    assert code == 0 and "unconstrained-feasible" in out and "0.666667" in out


def test_constrained_surrogate(capsys):
    code, out, _ = run_cli(capsys, "constrained", "--coin", "1,-1,0.9",
                           "--kind", "surrogate", "--eps", "0.3", "--n", "10")
    assert code == 0 and "surrogate-bisect" in out


def test_constrained_bad_epsilon(capsys):
    for argv, word in [(("--kind", "expected", "--eps", "2.0"), "epsilon"),
                       (("--kind", "probabilistic", "--eps", "0.3"), "delta")]:
        code, out, err = run_cli(capsys, "constrained", "--coin", "1,-1,0.9", *argv)
        assert code == 2 and word in err, argv
        assert "config:" not in out, argv


@pytest.mark.parametrize("kind", ["expected", "surrogate"])
def test_constrained_rejects_delta_off_the_probabilistic_kind(capsys, kind):
    # Only the probabilistic set has a delta: one given to another kind would
    # be echoed and never used.
    code, out, err = run_cli(capsys, "constrained", "--coin", "1,-1,0.9", "--kind", kind,
                             "--eps", "0.2", "--delta", "0.5", "--n", "20", "--paths", "200")
    assert code == 2 and out == "" and "delta" in err


@pytest.mark.parametrize("kind,args", [("expected", ()), ("probabilistic", ("--delta", "0.1"))])
def test_constrained_searches_three_assets_with_the_fan(capsys, tmp_path, kind, args):
    model = tmp_path / "three.json"
    dump_model(independent_join(independent_join(make_coin(1.0, -1.0, 0.9),
                                                 make_coin(0.5, -0.4, 0.6)),
                                make_coin(0.15, -0.95, 0.95)), model)
    code, out, _ = run_cli(capsys, "constrained", "--model", str(model), "--kind", kind,
                           "--eps", "0.2", *args, "--n", "20", "--paths", "100")
    assert code == 0
    assert re.search(r"^method: +(\S+)$", out, re.M).group(1) == f"{kind}-fan"
    assert float(re.search(r"^constraint slack: +(\S+)$", out, re.M).group(1)) >= 0.0
    # The surrogate fan takes any number of assets.
    code, out, _ = run_cli(capsys, "constrained", "--model", str(model), "--kind", "surrogate",
                           "--eps", "0.2", "--n", "5")
    assert code == 0 and "surrogate-fan" in out


@pytest.mark.parametrize("argv,size", [
    (("drawdown", "--coin", "1,-1,0.9", "--n", "20", "--k-grid", "3"), "--paths"),
    (("probe-convexity", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.9", "--n", "20"), "--paths"),
    (("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "surrogate", "--eps", "0.2",
      "--n", "40"), "--paths"),
    (("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.2",
      "--n", "40"), "--paths"),
    # 2^10 sequences: the surrogate is enumerated and never samples a path.
    (("constrained", "--coin", "1,-1,0.9", "--kind", "surrogate", "--eps", "0.3",
      "--n", "10"), "--paths"),
    (("drawdown", "--coin", "1,-1,0.9", "--paths", "100", "--k-grid", "3"), "--n"),
    (("drawdown", "--coin", "1,-1,0.9", "--paths", "100", "--exact"), "--n"),
    (("probe-convexity", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.9", "--paths", "100"),
     "--n"),
    (("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.2",
      "--paths", "100"), "--n"),
    (("constrained", "--coin", "1,-1,0.9", "--kind", "surrogate", "--eps", "0.3",
      "--paths", "100"), "--n"),
], ids=["drawdown", "probe-convexity", "constrained-surrogate", "constrained-expected",
        "constrained-surrogate-enumerable", "drawdown-n-0", "drawdown-exact-n-0",
        "probe-convexity-n-0", "constrained-expected-n-0", "constrained-surrogate-n-0"])
def test_zero_paths_is_validation_error(capsys, argv, size):
    code, out, err = run_cli(capsys, *argv, size, "0")
    assert code == 2 and f"{size} >= 1" in err
    assert "nan" not in out
    assert "config:" not in out


@pytest.mark.parametrize("argv", [
    ("drawdown", "--coin", "1,-1,0.9", "--n", "10", "--paths", "100", "--k-grid", "0"),
    ("drawdown", "--coin", "1,-1,0.9", "--n", "10", "--paths", "100", "--k-grid", "-2"),
    ("probe-convexity", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.8", "--n", "10",
     "--paths", "100", "--pairs", "0"),
    ("probe-convexity", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.8", "--n", "10",
     "--paths", "100", "--pairs", "-1"),
    ("optimize", "--coin", "1,-1,0.6", "--dt", "0"),
    ("optimize", "--coin", "1,-1,0.6", "--dt", "-1"),
    ("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.2",
     "--n", "20", "--paths", "100", "--dt", "0"),
    ("constrained", "--coin", "1,-1,0.9", "--kind", "surrogate", "--eps", "0.3",
     "--n", "10", "--dt", "-0.5"),
    ("drawdown", "--coin", "1,-1,0.9", "--n", "10", "--paths", "100", "--seed", "-1"),
    ("probe-convexity", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.8", "--n", "10",
     "--paths", "100", "--seed", "-1"),
    ("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.2",
     "--n", "20", "--paths", "100", "--seed", "-1"),
    # 2^10 sequences: the surrogate is enumerated and never samples a path.
    ("constrained", "--coin", "1,-1,0.9", "--kind", "surrogate", "--eps", "0.3",
     "--n", "10", "--seed", "-1"),
    ("adaptive", "--n", "100", "--window", "10", "--seed", "-1"),
    ("optimize", "--coin", "1,-1,0.6", "--dt", "inf"),
    ("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.2",
     "--n", "20", "--paths", "100", "--dt", "inf"),
], ids=["k-grid-0", "k-grid-negative", "pairs-0", "pairs-negative", "optimize-dt-0",
        "optimize-dt-negative", "constrained-dt-0", "constrained-surrogate-dt-negative",
        "drawdown-seed-negative", "probe-convexity-seed-negative",
        "constrained-seed-negative", "constrained-surrogate-enumerable-seed-negative",
        "adaptive-seed-negative", "optimize-dt-inf", "constrained-dt-inf"])
def test_sizes_without_data_are_rejected_before_the_report(capsys, argv):
    flag = next(a for a in argv if a in ("--k-grid", "--pairs", "--dt", "--seed"))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and flag in err
    assert "config:" not in out


def test_every_numeric_flag_has_a_range():
    # main() checks each range before a subcommand echoes its config, so a
    # number flag with no range could start a report that then exits 2.
    # ConstraintSpec checks --eps and --delta before the echo.
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    numeric = {action.dest for sub in subparsers.choices.values() for action in sub._actions
               if action.type in (int, float)}
    assert set(cli._FLAG_RANGES) == numeric - {"eps", "delta"}


DRAWDOWN_EXACT = ("drawdown", "--coin", "1,-1,0.6", "--n", "10", "--paths", "200",
                  "--k-grid", "5", "--exact", "--out", "dd")


@pytest.mark.parametrize("calls,codes", [
    ([("optimize", "--coin", "0.15,-0.95,0.95", "--out", "opt.json"),
      DRAWDOWN_EXACT,
      ("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.2",
       "--n", "20", "--paths", "200"),
      ("adaptive", "--n", "300", "--window", "20", "--runs", "2", "--out", "ad"),
      ("ingest", "--data", "missing.csv"),
      ("optimize", "--coin", "1,-1,0.6", "--format", "csv", "--out", "opt.csv")],
     [0, 0, 0, 0, 2, 0]),
    ([DRAWDOWN_EXACT, DRAWDOWN_EXACT[:-3]], [0, 0]),
    ([("drawdown", "--paths", "abc"),
      ("constrained", "--coin", "1,-1,0.6", "--eps", "0.2"),
      ("nosuch",),
      DRAWDOWN_EXACT[:-3],
      ("constrained", "--coin", "1,-1,0.9", "--kind", "surrogate", "--eps", "0.3",
       "--n", "10")],
     [2, 2, 2, 0, 0]),
], ids=["across-subcommands", "exact-then-plain", "after-argparse-errors"])
def test_one_parser_per_process_answers_as_a_fresh_one(capsys, monkeypatch, tmp_path,
                                                        calls, codes):
    # main() reuses one parser; each call gives the exit code, output and
    # files of a call through a parser built for it alone.
    monkeypatch.chdir(tmp_path)

    def run_all():
        results = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:   # argparse's own errors
                code = exc.code
            files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
            for p in tmp_path.iterdir():
                p.unlink()
            results.append((code, *capsys.readouterr(), files))
        return results

    reused = run_all()
    assert cli._parser() is cli._parser()
    assert [code for code, *_ in reused] == codes
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == reused
    if calls[-2:] == [DRAWDOWN_EXACT, DRAWDOWN_EXACT[:-3]]:
        # --exact does not stick: the plain sweep has no exact column.
        assert "exact=False" in reused[-1][1] and "exact\n" not in reused[-1][1]


# ---------------------------------------------------------------------------
# probe-convexity
# ---------------------------------------------------------------------------

def test_probe_runs_and_writes_grid(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "probe-convexity", "--coin", "1,-1,0.9",
                           "--coin2", "1,-1,0.9", "--n", "20", "--paths", "300",
                           "--pairs", "20", "--out", str(tmp_path / "probe"))
    assert code == 0
    assert "violations" in out
    header = (tmp_path / "probe.grid.csv").read_text().splitlines()[0]
    assert header == "k1,k2,estimate,std_error,in_set"


def test_probe_rejects_one_asset_model(capsys):
    # The library's own check runs before the config echo.
    code, out, err = run_cli(capsys, "probe-convexity", "--coin", "1,-1,0.9")
    assert code == 2 and out == ""
    assert err == "error: convexity probe requires a 2-asset model\n"


# ---------------------------------------------------------------------------
# adaptive
# ---------------------------------------------------------------------------

def test_adaptive_traces_are_reproducible(capsys, tmp_path):
    args = ["adaptive", "--p-true", "0.6", "--n", "200", "--window", "50",
            "--runs", "2", "--seed", "7"]
    code, out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    assert code == 0 and "mean p_hat" in out
    code, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    for i in range(2):
        assert (tmp_path / f"a.run{i}.csv").read_bytes() == (tmp_path / f"b.run{i}.csv").read_bytes()
    header = (tmp_path / "a.run0.csv").read_text().splitlines()[0]
    assert header == "k,outcome,p_hat,k_hat,wealth"


def test_adaptive_rejects_window_geq_n(capsys):
    code, _, err = run_cli(capsys, "adaptive", "--n", "50", "--window", "50")
    assert code == 2 and "window" in err


def test_adaptive_rejects_zero_runs(capsys):
    code, out, err = run_cli(capsys, "adaptive", "--n", "100", "--window", "10",
                             "--runs", "0")
    assert code == 2 and "--runs" in err
    assert "config:" not in out


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------

def test_ingest_writes_loadable_model(capsys, tmp_path):
    rng = np.random.default_rng(6)
    days = 30
    dates = [f"2013-01-{d:02d}" for d in range(1, days + 1)]
    pa = 100 * np.cumprod(1 + rng.normal(0.001, 0.02, days))
    pb = 200 * np.cumprod(1 + rng.normal(0.001, 0.02, days))
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("date,AAA,BBB\n" + "\n".join(
        f"{d},{float(a)!r},{float(b)!r}" for d, a, b in zip(dates, pa, pb)) + "\n")

    model_path = tmp_path / "model.json"
    code, out, _ = run_cli(capsys, "ingest", "--data", str(csv_path),
                           "--out", str(model_path))
    assert code == 0 and "atoms:        29" in out
    model = load_model(model_path)
    assert model.n_atoms == 29 and model.n_assets == 2
    assert json.loads(model_path.read_text())["provenance"]["symbols"] == ["AAA", "BBB"]

    code, out, _ = run_cli(capsys, "optimize", "--model", str(model_path))
    assert code == 0


@pytest.mark.parametrize("argv,message", [
    ((), "column 2 of the header has a blank name"),
    (("--symbols", "A,"), "a requested symbol is blank"),
    (("--symbols", ""), "a requested symbol is blank"),
], ids=["header", "symbols", "empty-symbols"])
def test_ingest_rejects_a_blank_symbol_name(capsys, tmp_path, argv, message):
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("date,A,\n2013-01-01,100.0,5.0\n2013-01-02,101.0,5.5\n")
    code, out, err = run_cli(capsys, "ingest", "--data", str(csv_path), *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_ingest_strips_header_names_and_requested_symbols(capsys, tmp_path):
    # Spaces after the commas of the header and of --symbols name nothing.
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text("date, A, B\n2013-01-01,100.0,5.0\n2013-01-02,101.0,5.5\n")
    model_path = tmp_path / "model.json"
    code, out, _ = run_cli(capsys, "ingest", "--data", str(csv_path), "--symbols", "B, A",
                           "--out", str(model_path))
    assert code == 0 and "symbols:      B, A\n" in out
    assert json.loads(model_path.read_text())["provenance"]["symbols"] == ["B", "A"]
    code, out, _ = run_cli(capsys, "ingest", "--data", str(csv_path), "--symbols", "A")
    assert code == 0 and "symbols:      A\n" in out


def test_ingest_missing_file_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "ingest", "--data", "/nonexistent.csv")
    assert code == 2


@pytest.mark.parametrize("text", ["", "date,AAA\n2013-01-01,100.0\n"],
                         ids=["empty-file", "one-row"])
def test_ingest_bad_data_is_rejected_before_the_report(capsys, tmp_path, text):
    csv_path = tmp_path / "prices.csv"
    csv_path.write_text(text)
    code, out, err = run_cli(capsys, "ingest", "--data", str(csv_path))
    assert code == 2 and err.startswith("error: ")
    assert out == ""
