"""Compare the per-op CPU time of two source trees, interleaved.

    python tools/compare_cpu.py BEFORE AFTER --workload W [--rounds R] [--repeat K] [--seed S]

BEFORE and AFTER are the roots of two checkouts. Each tree runs in a worker
process of its own, which puts that tree's src/ and perfbench/ on its path,
imports its perfbench/run.py (for one BLAS thread and machine_probe) and its
perfbench/workloads.py, and changes neither. Each worker runs machine_probe()
once before any op, as a benchmark run does, so both start from the same
allocator state, and writes the workload's inputs in a temporary directory of
its own.

The ops are the first R rounds of the workload's plan for seed S. The two
workers take them in turn, one op at a time, alternating which tree runs an
op first, so a neighbour that slows the machine for a while slows both. Each
op runs K times in a row and counts its least CPU time; its answer digest is
that of its first run, as perfbench/workloads.py computes it.

One line per op kind (the op key without its round and its numbers, e.g.
c1-expected) gives the op count, the median of the per-op ratio AFTER /
BEFORE with its quartiles, the total CPU of each tree and the number of ops
whose digests differ. Exit 0 when every digest agrees, 1 otherwise, and 2 on
bad arguments, when a worker stops or when the two trees plan different ops.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

WORKLOADS = ("mc_sweep", "constrained_search", "exact_portfolio")


def op_kind(key: str) -> str:
    """The op key without its round prefix and its numeric parts:
    r012-c1-expected-143 -> c1-expected, r012-3-ingest -> ingest."""
    return "-".join(part for part in key.split("-")[1:] if not part.isdigit())


def quartiles(xs: list) -> tuple:
    """(first quartile, median, third quartile) of a non-empty list."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4, method="inclusive"))


def worker(tree: Path, workload: str, seed: int, rounds: int) -> None:
    """Print the planned op keys as one JSON line, then answer each stdin
    line "KEY REPEAT" with a JSON line {"seconds", "digest"}."""
    sys.path[:0] = [str(tree / "perfbench"), str(tree / "src")]
    import run  # sets one BLAS thread before numpy loads
    import workloads as wl
    from kellylab import cli

    run.machine_probe()
    ops = [op for ops in wl.plan(workload, seed)[:rounds] for op in ops]
    by_key = {op.key: op for op in ops}
    with tempfile.TemporaryDirectory(prefix="compare-cpu-") as run_dir:
        wl.write_inputs(workload, run_dir)
        print(json.dumps([op.key for op in ops]), flush=True)
        for line in sys.stdin:
            key, repeat = line.split()
            outcomes = [wl.execute(cli.main, by_key[key], run_dir) for _ in range(int(repeat))]
            print(json.dumps({"seconds": min(o.seconds for o in outcomes),
                              "digest": wl.digest(outcomes[0])}), flush=True)


def report(keys: list, before: dict, after: dict) -> tuple:
    """(lines, differing ops) from each tree's {key: (seconds, digest)}."""
    kinds = defaultdict(list)
    for key in keys:
        kinds[op_kind(key)].append(key)
    lines, differing = [], []
    for kind, members in sorted(kinds.items()):
        q1, median, q3 = quartiles([after[k][0] / before[k][0] for k in members])
        diff = [k for k in members if before[k][1] != after[k][1]]
        differing += diff
        lines.append(f"{kind}: {len(members)} ops, median ratio {median:.3f} "
                     f"(quartiles {q1:.3f}-{q3:.3f}), CPU {sum(before[k][0] for k in members):.3f}"
                     f" s -> {sum(after[k][0] for k in members):.3f} s, "
                     f"{len(diff)} digests differ")
    return lines, differing


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs=2, type=Path, metavar="TREE")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeat < 1 or args.seed < 0:
        parser.error("--rounds and --repeat must be >= 1 and --seed >= 0")
    return args


def main(argv) -> int:
    if argv[:1] == ["--worker"]:
        tree, workload, seed, rounds = argv[1:]
        worker(Path(tree), workload, int(seed), int(rounds))
        return 0
    args = parse_args(argv)
    workers = [subprocess.Popen([sys.executable, __file__, "--worker", str(tree.resolve()),
                                 args.workload, str(args.seed), str(args.rounds)],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
               for tree in args.trees]
    try:
        plans = [json.loads(w.stdout.readline()) for w in workers]
        if plans[0] != plans[1]:
            print("error: the two trees plan different ops", file=sys.stderr)
            return 2
        keys = plans[0]
        times = [{}, {}]
        for i, key in enumerate(keys):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                workers[side].stdin.write(f"{key} {args.repeat}\n")
                workers[side].stdin.flush()
                answer = json.loads(workers[side].stdout.readline())
                times[side][key] = (answer["seconds"], answer["digest"])
    except json.JSONDecodeError:
        print("error: a worker stopped (its traceback is above)", file=sys.stderr)
        return 2
    finally:
        for w in workers:
            w.stdin.close()
            w.wait()
    lines, differing = report(keys, *times)
    print(f"{args.workload}: {len(keys)} ops in {args.rounds} rounds of seed {args.seed}, "
          f"least CPU of {args.repeat} runs per op, {args.trees[0]} -> {args.trees[1]}")
    print("\n".join(lines + [f"digest differs: {key}" for key in differing]))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
