#!/usr/bin/env python3
"""Checks one perfbench result line: "correct": true, and the seed-1 pins.

Usage: tail -n 1 OUT | python3 tools/check_perfbench_result.py WORKLOAD SEED

The simulated workloads are deterministic, so at seed 1 their simulated
results do not depend on the host: ops_per_s (untraced runs) and sim.events
(traced runs) are pinned below.  A change that only makes the simulator
faster leaves them exactly as they are; a change that moves the simulated
schedule must update them here, on purpose.  svc_read_mostly runs on real
cores and has no pin.  Exits 1 on any mismatch.
"""

import json
import sys

PINS = {
    "sim_mesh": {"ops_per_s": 320068.81479518092, "sim.events": 1733142},
    "sim_kernel_faults": {"ops_per_s": 56337.4070576105, "sim.events": 1158881},
}
REL_TOL = 1e-9


def main():
    workload, seed = sys.argv[1], int(sys.argv[2])
    result = json.loads(sys.stdin.read())
    errors = []
    if result.get("correct") is not True:
        errors.append("not correct")
    pins = PINS.get(workload, {}) if seed == 1 else {}
    checked = 0
    for name, want in pins.items():
        metric = result.get("metrics", {}).get(name)
        if metric is None:
            continue  # ops_per_s is untraced only, sim.events traced only
        checked += 1
        got = metric["value"]
        if abs(got - want) > REL_TOL * abs(want):
            errors.append(f"{name} is {got!r}, pinned at {want!r}")
    if pins and checked == 0:
        errors.append("none of the pinned metrics is in the result")
    for e in errors:
        print(f"perfbench {workload}: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
