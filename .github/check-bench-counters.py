#!/usr/bin/env python3
"""Exact-counter gate over the benchmark's four workloads.

Usage: python3 .github/check-bench-counters.py PATH/TO/limbabench

Runs each workload once with `--seed 7 --seconds 1 --trace 1` and
compares its deterministic work counters with the values committed in
.github/bench-counters.json. Every counter must be equal, bit for bit;
no timing is compared. Exits 1 and names every difference otherwise.

The committed file lists only counters that came out equal in repeated
runs and under `taskset -c 0`. serve-cfd4k's `viz.report_kib` is left
out: it is the median over pushes that rotate over four recorded traces
whose reports differ in size, so it moves with how many pushes fit into
the run's one second.

After a change that is meant to move a counter, regenerate the file
from the new runs and commit it with the change.
"""

import json
import os
import subprocess
import sys

ARGS = ["--seed", "7", "--seconds", "1", "--trace", "1"]
COMMITTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "bench-counters.json")


def main() -> int:
    if len(sys.argv) != 2:
        print("usage: check-bench-counters.py PATH/TO/limbabench", file=sys.stderr)
        return 2
    binary = sys.argv[1]
    with open(COMMITTED) as f:
        committed = json.load(f)
    bad = []
    for workload, counters in committed.items():
        run = subprocess.run(
            [binary, "--workload", workload, *ARGS],
            capture_output=True,
            text=True,
        )
        if run.returncode != 0:
            bad.append(f"{workload}: exit {run.returncode}\n{run.stderr}")
            continue
        metrics = json.loads(run.stdout.strip().splitlines()[-1])["metrics"]
        for name, want in counters.items():
            got = metrics[name]["value"]
            if got != want:
                bad.append(f"{workload}: {name} = {got!r}, committed {want!r}")
        print(f"{workload}: {len(counters)} counters checked")
    if bad:
        print("\n".join(bad))
        return 1
    print("every counter equals the committed value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
