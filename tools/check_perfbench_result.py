#!/usr/bin/env python3
"""Checks one perfbench result line: "correct": true, and the seed-1 pins.

Usage: tail -n 1 OUT | python3 tools/check_perfbench_result.py WORKLOAD SEED

The simulated workloads are deterministic, so at seed 1 their simulated
results do not depend on the host.  Every simulated statistic is pinned
below: ops_per_s from untraced runs; sim.events, the simulated latency
(sim.mean_latency_us, sim.p99_us) and the workload's own kernel.* or mesh.*
statistics from traced runs.  A change that only makes the simulator faster
leaves them exactly as they are; a change that moves the simulated schedule
must update them here, on purpose.  svc_read_mostly runs on real cores and
has no pin.  Exits 1 on any mismatch.
"""

import json
import sys

PINS = {
    "sim_mesh": {
        "ops_per_s": 320068.81479518092,
        "sim.events": 1733142,
        "sim.mean_latency_us": 39.44318910416667,
        "sim.p99_us": 270,
        "mesh.local_read_frac": 0.9203532906049711,
        "mesh.retransmits": 6225,
        "mesh.rpcs_per_op": 0.7505416666666667,
        "mesh.update_amp": 2.678311499272198,
    },
    "sim_kernel_faults": {
        "ops_per_s": 56337.4070576105,
        "sim.events": 1158881,
        "sim.mean_latency_us": 216.50319083499923,
        "sim.p99_us": 1009.0625,
        "kernel.lock_overhead_us": 68.4582308165462,
        "kernel.mem_wait_us": 4.317783658863873,
        "kernel.ring_wait_us": 5.591173400924407e-05,
        "kernel.rpcs_per_fault": 0.24929178470254956,
        "kernel.would_deadlock_frac": 0.48325358851674644,
    },
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
            continue  # ops_per_s is untraced only, the rest traced only
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
