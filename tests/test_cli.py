"""CLI subcommands: reports, file outputs, determinism, exit codes."""

import json

import numpy as np
import pytest

from kellylab import load_model
from kellylab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_optimize_requires_model(capsys):
    code, _, err = run_cli(capsys, "optimize")
    assert code == 2 and "model" in err


def test_bad_coin_spec_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "optimize", "--coin", "1,-1")
    assert code == 2 and "coin" in err


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
    code, _, err = run_cli(capsys, "drawdown", "--coin", "1,-1,0.9", "--n", "30",
                           "--paths", "300", "--k-grid", "3", "--exact")
    assert code == 2 and "budget" in err


def test_drawdown_rejects_two_asset_models(capsys):
    code, _, err = run_cli(capsys, "drawdown", "--coin", "1,-1,0.9",
                           "--coin2", "1,-1,0.9")
    assert code == 2 and "1-asset" in err


def test_drawdown_levels_are_validated_like_constraints(capsys):
    code, _, err = run_cli(capsys, "drawdown", "--coin", "1,-1,0.9", "--n", "10",
                           "--paths", "100", "--eps", "1.5")
    assert code == 2 and "epsilon" in err
    code, _, err = run_cli(capsys, "drawdown", "--coin", "1,-1,0.9", "--n", "10",
                           "--paths", "100", "--delta", "0")
    assert code == 2 and "delta" in err


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
    code, _, err = run_cli(capsys, "constrained", "--coin", "1,-1,0.9",
                           "--kind", "expected", "--eps", "2.0")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("drawdown", "--coin", "1,-1,0.9", "--n", "20", "--k-grid", "3"),
    ("probe-convexity", "--coin", "1,-1,0.9", "--coin2", "1,-1,0.9", "--n", "20"),
    ("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "surrogate", "--eps", "0.2",
     "--n", "40"),
    ("constrained", "--coin", "0.15,-0.95,0.95", "--kind", "expected", "--eps", "0.2",
     "--n", "40"),
], ids=["drawdown", "probe-convexity", "constrained-surrogate", "constrained-expected"])
def test_zero_paths_is_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--paths", "0")
    assert code == 2 and "paths >= 1" in err
    assert "nan" not in out


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
    code, _, err = run_cli(capsys, "probe-convexity", "--coin", "1,-1,0.9")
    assert code == 2 and "2-asset" in err


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


def test_ingest_missing_file_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "ingest", "--data", "/nonexistent.csv")
    assert code == 2
