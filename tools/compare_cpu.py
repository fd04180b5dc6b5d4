"""Compare the benchmark answers, failures and per-op CPU of two source trees.

    python tools/compare_cpu.py BEFORE AFTER [--workload W] [--rounds R] [--repeat K] [--seed S]

BEFORE and AFTER are the roots of two checkouts, which are only read. Each
workload (every one, or only W) gets two worker processes, one per tree. A
worker puts its tree's src/ and perfbench/ on its path, writes no bytecode,
imports perfbench/run.py (for one BLAS thread and machine_probe) and
perfbench/workloads.py, runs machine_probe() once, as a benchmark run does,
and writes the workload's inputs in a temporary directory of its own.

The ops are the first R rounds (default: every round, so the whole pool) of
the workload's plan for seed S. The workers take them in turn, one op at a
time, alternating which tree runs an op first, so a neighbour that slows the
machine for a while slows both; an op that one tree does not plan runs on
the other alone. Each op runs K times in a row and counts its least CPU
time, and the digest and answer check of its first run, as
perfbench/workloads.py computes them.

Each workload prints a header with its failure count on each tree; one line
per op kind (the op key without its round and its numbers, e.g. c1-expected)
with the op count, the median and quartiles of the per-op ratio AFTER /
BEFORE, each tree's total CPU and the number of digests that differ; and one
line for each op whose digest differs ("not planned" on a tree that lacks
it) or whose failure appears, goes or changes its reason. Exit 0 when every
digest and failure agree, 1 otherwise, and 2 on bad arguments or when a
worker stops.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("mc_sweep", "constrained_search", "exact_portfolio")
NOT_PLANNED = (0.0, "not planned", None)   # (seconds, digest, failure) of an op a tree lacks


def op_kind(key: str) -> str:
    """The op key without its round prefix and its numeric parts:
    r012-c1-expected-143 -> c1-expected, r012-3-ingest -> ingest."""
    return "-".join(part for part in key.split("-")[1:] if not part.isdigit())


def quartiles(xs: list) -> tuple:
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def planned(wl, workload: str, seed: int, rounds) -> list:
    """The ops of the first `rounds` rounds (None: every round) of the plan."""
    return [op for ops in wl.plan(workload, seed)[:rounds] for op in ops]


def worker(tree: Path, workload: str, seed: int, rounds) -> None:
    """Print the planned op keys as one JSON line, then answer each stdin
    line "KEY REPEAT" with a JSON line {"seconds", "digest", "failure"}."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import run  # sets one BLAS thread before numpy loads
    import workloads as wl
    from kellylab import cli

    run.machine_probe()
    by_key = {op.key: op for op in planned(wl, workload, seed, rounds)}
    with tempfile.TemporaryDirectory(prefix="compare-cpu-") as run_dir:
        wl.write_inputs(workload, run_dir)
        print(json.dumps(list(by_key)), flush=True)
        for line in sys.stdin:
            key, repeat = line.split()
            op = by_key[key]
            outcomes = [wl.execute(cli.main, op, run_dir) for _ in range(int(repeat))]
            print(json.dumps({"seconds": min(o.seconds for o in outcomes),
                              "digest": wl.digest(outcomes[0]),
                              "failure": wl.check(op, outcomes[0])}), flush=True)


def report(before: dict, after: dict) -> tuple:
    """(kind lines, difference lines) from each tree's {key: (seconds,
    digest, failure)}, which holds only the ops that tree plans."""
    kinds = defaultdict(list)
    for key in sorted(before.keys() | after.keys()):
        kinds[op_kind(key)].append(key)
    lines, differences = [], []
    for kind, members in sorted(kinds.items()):
        old = [before.get(k, NOT_PLANNED) for k in members]
        new = [after.get(k, NOT_PLANNED) for k in members]
        ratios = [b[0] / a[0] for a, b in zip(old, new) if a[0] and b[0]]
        drift = 0
        for key, a, b in zip(members, old, new):
            if a[1] != b[1]:
                drift += 1
                differences.append(f"{key}: digest {a[1]} -> {b[1]}")
            if a[2] != b[2]:
                differences.append(f"{key}: known failure {a[2]!r} -> {b[2]!r}")
        q1, median, q3 = quartiles(ratios or [math.nan])
        lines.append(f"{kind}: {len(members)} ops, median ratio {median:.3f} "
                     f"(quartiles {q1:.3f}-{q3:.3f}), "
                     f"CPU {sum(a[0] for a in old):.3f} s -> {sum(b[0] for b in new):.3f} s, "
                     f"{drift} digests differ")
    return lines, differences


def measure(trees: list, workload: str, seed: int, rounds, repeat: int) -> list:
    """Each tree's {key: (seconds, digest, failure)} over the ops it plans,
    the two workers taking the ops in turn; None when a worker stops."""
    workers = [subprocess.Popen([sys.executable, __file__, "--worker", str(tree.resolve()),
                                 workload, str(seed), str(rounds or 0)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for tree in trees]
    try:
        plans = [json.loads(w.stdout.readline()) for w in workers]
        keys = list(dict.fromkeys(plans[0] + plans[1]))
        plans = [set(plan) for plan in plans]
        results = [{}, {}]
        for i, key in enumerate(keys):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if key in plans[side]:
                    workers[side].stdin.write(f"{key} {repeat}\n")
                    workers[side].stdin.flush()
                    answer = json.loads(workers[side].stdout.readline())
                    results[side][key] = (answer["seconds"], answer["digest"], answer["failure"])
    except (json.JSONDecodeError, BrokenPipeError):
        return None
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    return results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--rounds", type=int)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if (args.rounds is not None and args.rounds < 1) or args.repeat < 1 or args.seed < 0:
        parser.error("--rounds and --repeat must be >= 1 and --seed >= 0")
    return args


def main(argv) -> int:
    if argv[:1] == ["--worker"]:
        tree, workload, seed, rounds = argv[1:]
        worker(Path(tree), workload, int(seed), int(rounds) or None)   # 0: every round
        return 0
    args = parse_args(argv)
    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        results = measure(args.trees, workload, args.seed, args.rounds, args.repeat)
        if results is None:
            print("error: a worker stopped (its traceback is above)", file=sys.stderr)
            return 2
        lines, differences = report(*results)
        failures = [sum(r[2] is not None for r in side.values()) for side in results]
        print(f"{workload}: {len(set(results[0]) | set(results[1]))} ops in "
              f"{args.rounds or 'all'} rounds of seed {args.seed}, least CPU of {args.repeat} "
              f"runs per op, failures {failures[0]} -> {failures[1]}, "
              f"{args.trees[0]} -> {args.trees[1]}")
        print("\n".join(lines + differences), flush=True)
        if differences:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
