#!/usr/bin/env python3
"""Builds the stack benchmark from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload svc_read_mostly --seed 7 --seconds 30 --trace 0 --rate 100000

Workloads: svc_read_mostly, sim_kernel_faults, sim_mesh.
The first call configures and builds perfbench/ (and the libraries under
src/) in the build directory named by $CARGO_TARGET_DIR, default
.bench_build; later calls only rebuild what changed.  The last line of
stdout is the benchmark's JSON result.  With --trace 1 the spans and
counters of the run are written under <build dir>/traces/.

Every flag is required.  BENCHMARK.json's command carries the default seed
(--seed 1) and the svc workload's fixed open-loop offered rate (--rate, ops/s,
all clients together); a --seed given after them, as for a held-out seed,
overrides the default because the last one wins.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc_read_mostly", "sim_kernel_faults", "sim_mesh")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; returns its exit code."""
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode


def build(out, env):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], env):
            return False
    return run_quiet(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
                      "perfbench_selftest"], env) == 0


def source_id():
    """The git commit when the checkout is a repository, else a content hash
    of the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
            return "git:" + sha
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--rate", type=float, required=True,
                        help="svc open-loop offered rate, ops/s")
    args = parser.parse_args()

    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # keep compiler scratch files in the checkout
    if not build(out, env):
        log("build failed")
        return 1
    if run_quiet([os.path.join(out, "perfbench_selftest")], env):
        log("percentile self-test failed")
        return 1

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(), "--rate", repr(args.rate)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
