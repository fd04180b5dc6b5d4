"""Steadiness self-check: repeat the benchmark over several seeds and report,
per end-to-end metric, the spread of its values against its bound.

    python3 perfbench/steady.py --seeds 10 --sets 2 --out steady.json

Run from the root of a source checkout. Each run is `perfbench/run.py` in its
own process with the `run_seconds` of BENCHMARK.json. The spread is the
distance between the first and third quartiles as a share of the median; a
metric with a bound is WIDE when the spread of any set exceeds a third of
it. With --sets 2 or more, each later set's median is compared with the
first's, and the two runs of each seed must issue the same ops and agree
exactly on which failed, why, and which drifted. Machine facts and the raw
values go to --out as JSON. Exits 1 when anything is WIDE, WORSE or
DISAGREES.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True, check=True).stdout.strip()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy, "platform": platform.platform(),
            "commit": git.stdout.strip() if git.returncode == 0 else None}


def one_run(workload, seed, seconds, trace, report_dir) -> dict:
    report = Path(report_dir) / f"{workload}-{seed}.json"
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace), "--report", str(report)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    with open(report, encoding="utf-8") as fh:
        result = json.load(fh)
    report.unlink()
    result["values"] = {name: m["value"] for name, m in result.pop("metrics").items()}
    return result


def disagreements(first, later) -> list:
    """Seeds whose two runs issued other ops, or other failing or drifted ops."""
    out = []
    for a, b in zip(first, later):
        for key in ("issued", "failures", "drifts"):
            if a[key] != b[key]:
                out.append(f"seed {a['seed']} {key}")
    return out


def summarize(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seeds", type=int, default=10, help="runs per set, seeds 1..N")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write machine facts and every value here")
    args = parser.parse_args(argv)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    better = {m["name"]: m["better"] for m in metrics}

    report = {"machine": machine(), "run_seconds": bench["run_seconds"], "trace": args.trace,
              "workloads": {}}
    steady = True
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="steady-", dir=tmp_root) as report_dir:
        for workload in args.workload or names:
            sets = []
            for _ in range(args.sets):
                runs = [one_run(workload, seed, bench["run_seconds"], args.trace, report_dir)
                        for seed in range(1, args.seeds + 1)]
                summary = {name: summarize([r["values"][name] for r in runs])
                           for name in runs[0]["values"]}
                sets.append({"runs": runs, "summary": summary})
            report["workloads"][workload] = sets
            all_runs = [r for s in sets for r in s["runs"]]
            print(f"{workload}: {sum(r['attempted'] for r in all_runs)} ops, "
                  f"all correct: {all(r['correct'] for r in all_runs)}")
            steady &= all(r["correct"] for r in all_runs)
            for later in sets[1:]:
                differ = disagreements(sets[0]["runs"], later["runs"])
                print(f"  failures and drifts {'DISAGREE: ' + ', '.join(differ) if differ else 'agree'}")
                steady &= not differ
            for r in all_runs:
                del r["issued"]   # only needed to compare the sets
            for name in sets[0]["summary"]:
                first = sets[0]["summary"][name]
                bound = bounds.get(name)
                spreads = [s["summary"][name]["spread"] for s in sets]
                line = (f"  {name:<44} median {first['median']:<12.6g} spread "
                        + " ".join(f"{x:.4f}" for x in spreads))
                if bound is not None:
                    wide = not all(x <= bound / 3 for x in spreads)
                    line += f" bound {bound:<5} {'WIDE' if wide else 'ok'}"
                    steady &= not wide
                for later in sets[1:]:
                    med = later["summary"][name]["median"]
                    shift = (med - first["median"]) / first["median"] if first["median"] else 0.0
                    worse = shift if better.get(name) == "lower" else -shift
                    line += f" | next median {med:.6g} ({shift:+.4f})"
                    if bound is not None and worse > bound:
                        line += " WORSE"
                        steady = False
                print(line)
    if not any(tmp_root.iterdir()):
        tmp_root.rmdir()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
