"""Record the reference answer of every op in every workload pool.

    python3 perfbench/record.py

Run from the root of a source checkout, at the commit whose answers are the
reference. Writes perfbench/reference.json: the digest of every op, and the
ops that fail their answer check at this commit with the reason. A later
run counts an op whose digest differs from this reference as answer drift,
and a failure as known only if the same op failed here for the same reason.
"""

import json
import os
import shutil
import sys
import tempfile
from collections import Counter

import run  # sets the thread caps before numpy is imported
import workloads as wl


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from kellylab import cli

    reference = {"digests": {}, "known_failures": {}}
    for workload in wl.WORKLOADS:
        digests, failures, seconds = {}, {}, Counter()
        (run.ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
        run_dir = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=run.ROOT / ".perfbench_tmp")
        try:
            wl.write_inputs(workload, run_dir)
            for ops in wl.pool(workload):
                for op in ops:
                    outcome = wl.execute(cli.main, op, run_dir)
                    digests[op.key] = wl.digest(outcome)
                    seconds[op.kind] += outcome.seconds
                    reason = wl.check(op, outcome)
                    if reason is not None:
                        failures[op.key] = reason
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        reference["digests"][workload] = digests
        reference["known_failures"][workload] = failures
        print(f"{workload}: {len(digests)} ops; seconds by kind "
              + ", ".join(f"{k}={v:.1f}" for k, v in sorted(seconds.items())))
        for reason, n in sorted(Counter(failures.values()).items()):
            print(f"  failed: {n} x {reason}")
    if not any((run.ROOT / ".perfbench_tmp").iterdir()):
        (run.ROOT / ".perfbench_tmp").rmdir()
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
