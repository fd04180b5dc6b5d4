"""Measure the cost of one `kellylab` command in a fresh interpreter.

    python tools/peak_memory.py [--src DIR]... [--repeat R] -- drawdown --paths 10000 ...

The command runs R times (default 1) per tree in a new interpreter each,
without tracing: each run prints its CPU seconds (user + system, import
included), its minor page faults and its peak resident set (ru_maxrss / 1024,
in MB as perfbench reports peak_rss_mb). Then each tree prints the median and
the min-max of the three over its R runs. One more interpreter per tree
imports kellylab, starts tracemalloc and runs the command twice: it prints
the traced peak of each run alone, in MB of 2^20 bytes (numpy reports its
arrays to tracemalloc). The first (cold) run also holds what the command
imports and caches on first use; the second (warm) run is what an in-process
benchmark op sees. The command's own stdout is discarded.

--src is a directory that holds the kellylab package (default: this
checkout's src). Give it twice to compare two trees: the trees then take
turns, the first running first in even rounds and the second in odd ones, so
a drift of the machine during the runs loads both alike.
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys

_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from kellylab.cli import main
if sys.argv[2] == "0":
    sys.exit(main(sys.argv[3:]))
import tracemalloc
tracemalloc.start()
for run in ("cold", "warm"):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    code = main(sys.argv[3:])
    sys.stderr.write(f"traced_peak_bytes {run} {tracemalloc.get_traced_memory()[1] - base}\\n")
sys.exit(code)
"""


def run(src: str, argv: list, trace: bool) -> tuple:
    """(exit code, rusage, stderr) of one fresh interpreter running argv."""
    proc = subprocess.Popen([sys.executable, "-c", _CHILD, src, "1" if trace else "0", *argv],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, err


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv:
        parser.error("give a kellylab command after --")
    srcs = args.src or [str(pathlib.Path(__file__).resolve().parents[1] / "src")]
    costs = [[] for _ in srcs]
    for rnd in range(args.repeat):
        for i in (range(len(srcs)) if rnd % 2 == 0 else reversed(range(len(srcs)))):
            code, usage, err = run(srcs[i], argv, trace=False)
            costs[i].append((usage.ru_utime + usage.ru_stime, usage.ru_minflt,
                             usage.ru_maxrss / 1024))
            print(f"{srcs[i]}  exit {code}  cpu_s {costs[i][-1][0]:.3f}  "
                  f"minor_faults {usage.ru_minflt}  max_rss_mb {costs[i][-1][2]:.2f}")
            if code:
                sys.stderr.write(err)
    for src, runs in zip(srcs, costs):
        cells = [f"{name} {statistics.median(col):{fmt}} ({min(col):{fmt}}-{max(col):{fmt}})"
                 for name, fmt, col in zip(("cpu_s", "minor_faults", "max_rss_mb"),
                                           (".3f", ".0f", ".2f"), zip(*runs))]
        print(f"{src}  median (min-max) of {len(runs)} runs:  " + "  ".join(cells))
    for src in srcs:
        code, _, err = run(src, argv, trace=True)
        peaks = [line.split()[1:] for line in err.splitlines()
                 if line.startswith("traced_peak_bytes ")]
        print(f"{src}  exit {code}  traced_peak_mb "
              + "  ".join(f"{run} {int(size) / 2**20:.2f}" for run, size in peaks)
              if len(peaks) == 2 else f"{src}  exit {code}  no traced peak:\n{err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
