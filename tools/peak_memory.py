"""Measure the cost of one `kellylab` command in a fresh interpreter.

    python tools/peak_memory.py [--src DIR] [--repeat R] -- drawdown --paths 10000 ...

The command runs R times (default 1) in a new interpreter each, without
tracing: each run prints its CPU seconds (user + system, import included),
its minor page faults and its peak resident set (ru_maxrss / 1024, in MB as
perfbench reports peak_rss_mb). One more interpreter imports kellylab, starts
tracemalloc and runs the command twice: it prints the traced peak of each
run alone, in MB of 2^20 bytes (numpy reports its arrays to tracemalloc).
The first (cold) run also holds what the command imports and caches on
first use; the second (warm) run is what an in-process benchmark op sees. The
command's own stdout is discarded. --src is the directory that holds the
kellylab package (default: this checkout's src).
"""

import argparse
import os
import pathlib
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
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv:
        parser.error("give a kellylab command after --")
    for _ in range(args.repeat):
        code, usage, err = run(args.src, argv, trace=False)
        print(f"exit {code}  cpu_s {usage.ru_utime + usage.ru_stime:.3f}  "
              f"minor_faults {usage.ru_minflt}  max_rss_mb {usage.ru_maxrss / 1024:.2f}")
        if code:
            sys.stderr.write(err)
    code, _, err = run(args.src, argv, trace=True)
    peaks = [line.split()[1:] for line in err.splitlines()
             if line.startswith("traced_peak_bytes ")]
    print(f"exit {code}  traced_peak_mb "
          + "  ".join(f"{run} {int(size) / 2**20:.2f}" for run, size in peaks)
          if len(peaks) == 2 else f"exit {code}  no traced peak:\n{err}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
