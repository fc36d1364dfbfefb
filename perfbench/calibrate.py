"""Fixed reference job that measures how fast the host is right now.

The host this benchmark was tuned on changes speed in steps of up to a third
that last from seconds to minutes (a fixed pure-Python loop measured 15 ms in
one half-minute and 23 ms in the next), and CPU time moves with wall time, so
neither more samples nor CPU time take the swings out of a run's medians.
``run.py`` therefore runs this job as a child before and after every timed
``bibnet`` process and scales that process's wall time by ``REFERENCE_S``
over the mean of the two runs of this job around it.

The job is the same kind of work a ``bibnet`` command does, and does not
touch the repository's code: interpreter start, importing NumPy, parsing and
dumping JSON, counting in dicts, sorting and a NumPy reduction, all on data
built from a fixed seed. It must never change: a change rescales every
normalised time.

Run as a script it does the work and prints a checksum::

    python3 perfbench/calibrate.py
"""

from __future__ import annotations

import json
import random
import sys

# Median wall time of this job, child process included, on the reference host
# (2-vCPU VM, Linux 6.18, Python 3.11.7, NumPy 2.4.6). A normalised time reads
# as seconds on that host at its median speed.
REFERENCE_S = 0.37


def work() -> int:
    # imported here: ``run.py`` imports this module for REFERENCE_S, and NumPy in the
    # benchmark process would raise the peak RSS its children report
    import numpy as np

    rng = random.Random(20130101)
    rows = [
        {
            "id": f"pub.{i:06d}",
            "year": 2015 + i % 8,
            "orgs": [f"grid.{rng.randrange(2000)}" for _ in range(1 + i % 4)],
            "concepts": [[f"c{rng.randrange(500)}", round(rng.random(), 3)] for _ in range(6)],
        }
        for i in range(2000)
    ]
    lines = [json.dumps(row) for row in rows]
    pairs: dict[tuple[str, str], int] = {}
    for line in lines:
        row = json.loads(line)
        names = sorted({c for c, relevance in row["concepts"] if relevance >= 0.2})
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                key = (names[a], names[b])
                pairs[key] = pairs.get(key, 0) + 1
    ranked = sorted(pairs.items(), key=lambda item: (-item[1], item[0]))
    weights = np.array([count for _, count in ranked], dtype=np.int64)
    codes = np.arange(len(ranked), dtype=np.int64) % 1000
    totals = np.bincount(codes, weights=weights, minlength=1000)
    dumped = json.dumps([[a, b, n] for (a, b), n in ranked[:2000]])
    return int(totals.sum()) + len(dumped)


if __name__ == "__main__":
    print(work())
    sys.exit(0)
