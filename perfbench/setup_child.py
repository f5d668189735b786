"""One fresh-process set-up of a workload: import ddbvp, build the inputs, warm up.

    python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR

run.py starts this a few times per run to measure ``setup_s``.  It prints
one JSON object, the set-up time in raw seconds and at reference speed (see
speed.py), and removes WORKDIR before it exits.  The timer starts before
numpy and ddbvp are imported.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from speed import SpeedProbe, at_reference  # noqa: E402


def main(workload: str, seed: int, workdir: str) -> None:
    probe = SpeedProbe("fraction")
    before = probe.sample()
    try:
        with probe.during():
            start = time.perf_counter()
            # The import is part of what is timed: it loads numpy and ddbvp.
            from workloads import WORKLOADS

            WORKLOADS[workload](seed, workdir).warm_up()
            elapsed = time.perf_counter() - start - probe.overhead
        inside = probe.samples
        after = probe.sample()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"raw_s": elapsed, "ref_s": at_reference(elapsed, before + inside + after)}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
