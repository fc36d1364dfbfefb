"""Record the bundle digest of every workload at the default seed.

The timed runs compare each default-seed build against these digests, so a
change that alters any network file or the manifest fails the gate. Rerun
only when the workloads themselves change, from the root of a checkout::

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import gate
import inputs
import measure
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    env = measure.child_env(HERE.parent / "src")
    digests = {}
    for workload in sorted(workloads.WORKLOADS):
        work = HERE / ".work" / f"record-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            inputs.generate(workload, gate.DEFAULT_SEED, work)
            done = measure.run(
                measure.bibnet_argv(
                    "build", "--corpus", str(work / "corpus"), "--queries", str(work / "queries"),
                    "--out", str(work / "bundle"), *workloads.WORKLOADS[workload].build_flags(),
                ),
                env,
                work,
            )
            if done.returncode != 0:
                print(f"{workload}: build failed: {done.stderr}", file=sys.stderr)
                return 1
            digests[workload] = gate.bundle_digest(work / "bundle")
            print(f"{workload}: {digests[workload]}")
        finally:
            shutil.rmtree(work, ignore_errors=True)
    gate.DIGESTS_FILE.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
