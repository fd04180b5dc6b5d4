"""Closed-loop benchmark of the `kellylab` command line.

    python3 perfbench/run.py --workload mc_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout. One process acts as one client: it
calls `kellylab.cli.main(argv)` in-process (with `src` on the path) for one op
at a time, checks each op's answer and compares its output digest with the
reference recorded at the seed commit.

A run does fixed work: the first `seconds / ROUND_SECONDS` rounds of the
seed's plan, which take about --seconds at the seed commit. So two runs with
the same seed issue the same ops, and their failures and drift agree exactly.
Op times are the process's CPU time (see `workloads.execute`).

--trace 0 measures the end-to-end metrics, with at least MIN_OPS ops.
Between rounds, with no op running, one cold import is timed for setup_s and
one machine_probe() for how much neighbours on the host slow this machine,
so the samples spread over the whole run. The time metrics are corrected by
that slowdown (see machine_probe). The last stdout line is the JSON
result; the lines before it report every metric, including fail_frac and
answer_drift_frac, by name. --report FILE also writes them, with the
failing and drifted ops, as JSON.

--trace 1 runs half as many rounds with each op run twice, once wrapped by
the tracer and once not, alternating which goes first, and reports the
per-layer metrics and the tracing overhead.
"""

import os

# One client on a 2-core machine: keep BLAS/OpenMP from starting extra threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_OPS = 100             # p90 needs at least 10 samples beyond it
MAX_RUN_SECONDS = 140     # stop issuing rounds past this, whatever else holds
SETUP_SAMPLES = 15        # cold imports and probes per run: one before and one after each round
# Median machine_probe() time on the reference machine (2-core Intel Xeon VM)
# when no neighbour slowed it.
PROBE_REF_S = 0.100
# CPU seconds one round takes at the seed commit on a 2-core machine; a
# traced run issues half as many rounds, since each op runs twice.
ROUND_SECONDS = {"mc_sweep": 2.5, "constrained_search": 1.75, "exact_portfolio": 1.5}

SETUP_CODE = ("import sys, time\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "t0 = time.process_time()\n"
              "import kellylab.cli\n"
              "print(repr(time.process_time() - t0))\n")


def setup_sample() -> float:
    """CPU time of one cold `import kellylab.cli` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


class Tally:
    """Answer checks and digest comparisons over the ops of a run.

    A failure is known, counted in `failed` but leaving the run correct, only
    if the same op failed for the same reason when the reference was recorded.
    """

    def __init__(self, digests: dict, known_failures: dict):
        self.digests = digests
        self.known_failures = known_failures
        self.issued = []
        self.failures = {}    # op key -> reason, "known: " prefixed if recorded
        self.drifts = []

    def add(self, op, outcome, check, digest) -> None:
        self.issued.append(op.key)
        reason = check(op, outcome)
        if reason is not None:
            if self.known_failures.get(op.key) == reason:
                reason = "known: " + reason
            else:
                print(f"FAILED {op.key}: {reason}", file=sys.stderr)
            self.failures[op.key] = reason
        if digest(outcome) != self.digests.get(op.key):
            self.drifts.append(op.key)

    @property
    def attempted(self) -> int:
        return len(self.issued)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def drifted(self) -> int:
        return len(self.drifts)

    @property
    def correct(self) -> bool:
        return all(r.startswith("known:") for r in self.failures.values())


def machine_probe() -> float:
    """CPU seconds of a fixed computation that uses no kellylab code.

    A column-by-column gather over a 4 MB index matrix, bound by memory like
    the samplers and drawdown kernels. Neighbours on a shared host slow such
    work by 10-30% for minutes at a time, CPU time included; the probe
    measures by how much, so the time metrics can be corrected for it. It is
    the same for every version of the program, so the correction cannot hide
    a change in the program's own speed.
    """
    import numpy as np
    idx = np.random.default_rng(0).integers(0, 2, size=(2000, 252))
    table = np.array([1.01, 0.99])
    t0 = time.process_time()
    for _ in range(32):
        r, m = np.ones(idx.shape[0]), np.ones(idx.shape[0])
        for j in range(idx.shape[1]):
            r *= table[idx[:, j]]
            np.minimum(r, 1.0, out=r)
            np.minimum(m, r, out=m)
    return time.process_time() - t0


def planned_rounds(workload, seconds, round_ops, traced) -> int:
    count = round(seconds / (ROUND_SECONDS[workload] * (2 if traced else 1)))
    return max(1 if traced else math.ceil(MIN_OPS / round_ops), count)


def run_untraced(wl, cli, rounds, run_dir, tally):
    """Issue the rounds; return the op times and the medians of the setup
    and probe samples taken between them."""
    latencies, setups, probes = [], [setup_sample()], [machine_probe()]
    gc.collect()
    begin = time.perf_counter()
    for ops in rounds:
        if time.perf_counter() - begin >= MAX_RUN_SECONDS:
            break
        for op in ops:
            outcome = wl.execute(cli.main, op, run_dir)
            latencies.append(outcome.seconds)
            tally.add(op, outcome, wl.check, wl.digest)
        setups.append(setup_sample())
        probes.append(machine_probe())
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_sample())
        probes.append(machine_probe())
    return latencies, statistics.median(setups), statistics.median(probes)


def run_traced(wl, cli, tracer, rounds, run_dir, tally):
    traced_s = untraced_s = 0.0
    ops_done = 0
    main = lambda argv: cli.main(argv)  # noqa: E731  looked up per call, so patches apply
    start = time.perf_counter()
    for ops in rounds:
        if time.perf_counter() - start >= MAX_RUN_SECONDS:
            break
        for op in ops:
            for traced in ((True, False) if ops_done % 2 == 0 else (False, True)):
                if traced:
                    with tracer.op(ops_done):
                        outcome = wl.execute(main, op, run_dir)
                    traced_s += outcome.seconds
                else:
                    outcome = wl.execute(main, op, run_dir)
                    untraced_s += outcome.seconds
                tally.add(op, outcome, wl.check, wl.digest)
            ops_done += 1
    return ops_done, traced_s / untraced_s - 1.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["mc_sweep", "constrained_search", "exact_portfolio"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", help="also write every metric and the failing and "
                                         "drifted ops to this JSON file")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kellylab" / "cli.py").is_file():
        print(f"error: no kellylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    from kellylab import cli

    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)
    tally = Tally(reference["digests"][args.workload],
                  reference["known_failures"][args.workload])
    rounds = wl.plan(args.workload, args.seed)
    raw = {}
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=tmp_root)
    try:
        wl.write_inputs(args.workload, run_dir)
        if args.trace:
            from tracer import Tracer, layer_metrics
            tracer = Tracer()
            count = planned_rounds(args.workload, args.seconds, len(rounds[0]), True)
            ops, overhead = run_traced(wl, cli, tracer, rounds[:count], run_dir, tally)
            metrics = layer_metrics(tracer.totals(), ops, overhead)
            print(f"{args.workload} seed={args.seed} traced: {ops} ops in {count} rounds, "
                  f"{len(tracer.spans)} spans")
        else:
            count = planned_rounds(args.workload, args.seconds, len(rounds[0]), False)
            latencies, setup, probe = run_untraced(wl, cli, rounds[:count], run_dir, tally)
            ordered = sorted(latencies)
            p90 = statistics.quantiles(ordered, n=10, method="inclusive")[-1]
            raw = {"setup_s": setup, "op_p50_s": statistics.median(ordered), "op_p90_s": p90,
                   "ops_per_s": len(ordered) / math.fsum(ordered), "probe_s": probe}
            # Times in seconds of a machine whose probe takes PROBE_REF_S.
            slowdown = probe / PROBE_REF_S
            metrics = {
                "setup_s": (setup / slowdown, "s"),
                "op_p50_s": (raw["op_p50_s"] / slowdown, "s"),
                "op_p90_s": (p90 / slowdown, "s"),
                "ops_per_s": (raw["ops_per_s"] * slowdown, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            beyond = sum(1 for x in ordered if x > p90)
            print(f"{args.workload} seed={args.seed}: {len(ordered)} ops in {count} rounds, "
                  f"{math.fsum(ordered):.1f} CPU s; p90 from {len(ordered)} samples "
                  f"({beyond} beyond it); probe {probe:.4f} s, slowdown {slowdown:.3f}; "
                  "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any(tmp_root.iterdir()):
            tmp_root.rmdir()

    report = dict(metrics)
    report["fail_frac"] = (tally.failed / tally.attempted, "ratio")
    report["answer_drift_frac"] = (tally.drifted / tally.attempted, "ratio")
    for name, (value, unit) in report.items():
        print(f"  {name:<46} {value:>14.6g} {unit}")
    for reason, n in sorted(Counter(tally.failures.values()).items()):
        print(f"  failed: {n} x {reason}")
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "correct": tally.correct, "attempted": tally.attempted,
                       "failed": tally.failed, "drifted": tally.drifted,
                       "metrics": {name: {"value": value, "unit": unit}
                                   for name, (value, unit) in report.items()},
                       "issued": tally.issued, "failures": tally.failures,
                       "drifts": tally.drifts, "raw": raw}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
