#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end metric's
run-to-run spread against its bound in BENCHMARK.json.

Usage (from the root of a checkout):

    python3 perfbench/check_spread.py --seeds 10 [--workload NAME ...] [--out runs.jsonl]

The spread of a metric is the distance between the first and third quartile
of its per-run values (statistics.quantiles(values, n=4)) as a share of
their median.  A metric is "steady" when its spread is below a third of its
bound, and within bound when below the bound itself.  Exits 1 if any run
fails or any spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--out", help="append every run's result line to this file")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for i in range(args.seeds):
            seed = args.seed_base + i
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds",
                                      str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print("%s seed %d: run failed (exit %d)" % (workload, seed, proc.returncode))
                print("  " + "\n  ".join(proc.stderr.strip().splitlines()[-3:]))
                ok = False
                continue
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed, "result": result}) + "\n")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        for name, bound in bounds.items():
            vals = values[name]
            if len(vals) < 2:
                continue
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q[2] - q[0]) / med if med else float("inf")
            verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "OVER"
            if spread > bound:
                ok = False
            print("%-18s %-14s median %-14.6g spread %.4f bound %.2f  %s"
                  % (workload, name, med, spread, bound, verdict))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
