"""Compare the benchmark answers of two source trees.

    python tools/compare_answers.py BEFORE AFTER

BEFORE and AFTER are the roots of two checkouts. For each tree, the tool
copies its src/ and perfbench/ into a temporary directory of its own and runs
perfbench/record.py there: that script takes no arguments and rewrites the
reference.json beside it, so it never runs in the given trees, which are only
read. A record run takes about 2 minutes per tree on a 2-core machine.

The two fresh references are compared workload by workload. For each, one
line gives the op count, the number of ops whose digests differ and the
number of known failures (ops that fail their answer check) on each side;
then one line names each op whose digest differs and each op whose known
failure appears, goes or changes its reason. Exit 0 when both trees give the
same digest for every op and the same known failures, 1 otherwise, and 2
when not given exactly two trees.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def record(tree: Path, scratch: Path) -> dict:
    """The reference that perfbench/record.py writes for a copy of tree."""
    copy = scratch / "tree"
    for part in ("src", "perfbench"):
        shutil.copytree(tree / part, copy / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_tmp"))
    subprocess.run([sys.executable, str(copy / "perfbench" / "record.py")], cwd=copy, check=True)
    return json.loads((copy / "perfbench" / "reference.json").read_text(encoding="utf-8"))


def compare(before: dict, after: dict) -> tuple:
    """(summary lines, difference lines) of two references as record.py writes them."""
    summary, differences = [], []
    workloads = sorted(before["digests"].keys() | after["digests"].keys())
    for workload in workloads:
        old, new = before["digests"].get(workload, {}), after["digests"].get(workload, {})
        ops = sorted(old.keys() | new.keys())
        drift = [op for op in ops if old.get(op) != new.get(op)]
        differences += [f"{workload} {op}: digest {old.get(op)} -> {new.get(op)}" for op in drift]
        old_f = before["known_failures"].get(workload, {})
        new_f = after["known_failures"].get(workload, {})
        differences += [f"{workload} {op}: known failure {old_f.get(op)!r} -> {new_f.get(op)!r}"
                        for op in sorted(old_f.keys() | new_f.keys())
                        if old_f.get(op) != new_f.get(op)]
        summary.append(f"{workload}: {len(ops)} ops, {len(drift)} digests differ, "
                       f"known failures {len(old_f)} -> {len(new_f)}")
    return summary, differences


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tools/compare_answers.py BEFORE AFTER", file=sys.stderr)
        return 2
    references = []
    for tree in map(Path, argv):
        print(f"recording {tree}", flush=True)
        with tempfile.TemporaryDirectory(prefix="compare-answers-") as scratch:
            references.append(record(tree.resolve(), Path(scratch)))
    summary, differences = compare(*references)
    print("\n".join(summary + differences))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
