#!/bin/sh
# Regenerates everything: build, full test suite, every bench, and the merged
# machine-readable results file BENCH_RESULTS.json.
#
# Flags:
#   --full    run benches at paper length (default is --smoke: small iteration
#             counts that exercise every code path in seconds)
#   --tsan    additionally build with -DHSIM_SANITIZE=thread in build-tsan/
#             and run every TSan-clean test binary under ThreadSanitizer
#             (the list the CI tsan job runs)
#   --hcheck  additionally rerun the hcheck model-checker suite with
#             HCHECK_EXHAUSTIVE=1 (deeper preemption bound, larger schedule
#             budgets — minutes, not seconds).  The bounded hcheck suite
#             always runs as part of ctest above.
#   --faults  additionally run the RPC fault campaign (fig7_fault_tests
#             --faults: drop/dup sweep with exact-once and determinism
#             checks) and merge its sweep into BENCH_RESULTS.json
#   --profile additionally run the Figure 5 profiled contention scenario,
#             write the lockprof export to build/bench/profile/, and render
#             the hprof contention report from it with build/tools/hprof
#   --check-regress  after merging BENCH_RESULTS.json, diff it against the
#             committed BENCH_BASELINE.json with tools/check_regress.py and
#             fail if any baseline series is missing or out of tolerance
set -e
cd "$(dirname "$0")"

SMOKE="--smoke"
TSAN=0
HCHECK=0
FAULTS=0
PROFILE=0
CHECK_REGRESS=0
for arg in "$@"; do
  case "$arg" in
    --full) SMOKE="" ;;
    --tsan) TSAN=1 ;;
    --hcheck) HCHECK=1 ;;
    --faults) FAULTS=1 ;;
    --profile) PROFILE=1 ;;
    --check-regress) CHECK_REGRESS=1 ;;
    *) echo "usage: $0 [--full] [--tsan] [--hcheck] [--faults] [--profile] [--check-regress]" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B build -S .
cmake --build build -j"$JOBS"

# A pipeline's exit status is tee's, and its left side runs in a subshell, so
# each failure inside one is appended to $FAILURES and checked afterwards.
FAILURES=build/run_all_failures.txt
rm -f "$FAILURES"
exit_if_failed() {
  if [ -s "$FAILURES" ]; then
    echo "run_all.sh: failed: $(tr '\n' ' ' < "$FAILURES")" >&2
    exit 1
  fi
}

{ ctest --test-dir build --output-on-failure -j"$JOBS" 2>&1 || echo ctest >> "$FAILURES"; } \
    | tee test_output.txt
exit_if_failed

# Every bench binary supports --json=PATH: the human table still goes to
# stdout while one hurricane-bench-report/1 document lands in reports/.
REPORTS=build/bench/reports
rm -rf "$REPORTS"
mkdir -p "$REPORTS"
{
  for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name="$(basename "$b")"
    echo "==== $name"
    # shellcheck disable=SC2086 # $SMOKE is intentionally word-split
    "$b" $SMOKE --json="$REPORTS/$name.json" || echo "$name" >> "$FAILURES"
  done
  if [ "$FAULTS" = 1 ]; then
    echo "==== fig7_fault_tests --faults"
    # shellcheck disable=SC2086
    ./build/bench/fig7_fault_tests $SMOKE --faults --json="$REPORTS/fig7_fault_campaign.json" \
        || echo "fig7_fault_tests --faults" >> "$FAILURES"
  fi
} 2>&1 | tee bench_output.txt
exit_if_failed

# Merge and schema-check the per-bench reports into BENCH_RESULTS.json.
python3 - "$REPORTS" <<'EOF'
import glob, json, sys

reports = []
for path in sorted(glob.glob(sys.argv[1] + "/*.json")):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "hurricane-bench-report/1", path
    for key in ("bench", "params", "series", "env"):
        assert key in doc, (path, key)
    for series in doc["series"]:
        assert set(series) >= {"name", "labels", "points"}, (path, series)
    reports.append(doc)

assert reports, "no bench reports were produced"
with open("BENCH_RESULTS.json", "w") as f:
    json.dump(reports, f, indent=1)
    f.write("\n")
print(f"BENCH_RESULTS.json: {len(reports)} reports, "
      f"{sum(len(r['series']) for r in reports)} series")
EOF

if [ "$CHECK_REGRESS" = 1 ]; then
  echo "==== check_regress: BENCH_RESULTS.json vs BENCH_BASELINE.json"
  python3 tools/check_regress.py
fi

if [ "$PROFILE" = 1 ]; then
  echo "==== fig5_lock_contention --profile (hprof pipeline)"
  PROFILE_DIR=build/bench/profile
  mkdir -p "$PROFILE_DIR"
  # shellcheck disable=SC2086
  ./build/bench/fig5_lock_contention $SMOKE \
      --profile="$PROFILE_DIR/fig5_lockprof.json" \
      --trace="$PROFILE_DIR/fig5_trace.json" > "$PROFILE_DIR/fig5_report.txt"
  tail -n +1 "$PROFILE_DIR/fig5_report.txt"
  # Surface the trace session's drop counters: a nonzero droppedSpans means
  # the overall event cap truncated the trace that Perfetto shows.
  python3 - "$PROFILE_DIR/fig5_trace.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
spans = doc.get("droppedSpans", 0)
mem = doc.get("droppedMemoryEvents", 0)
print(f"trace drops: droppedSpans={spans} droppedMemoryEvents={mem}"
      + ("  (trace is complete)" if spans == 0 else "  (TRACE TRUNCATED)"))
EOF
  echo "==== hprof CLI on the exported lockprof document"
  ./build/tools/hprof "$PROFILE_DIR/fig5_lockprof.json"
  ./build/tools/hprof --json "$PROFILE_DIR/fig5_lockprof.json" > "$PROFILE_DIR/fig5_hprof_report.json"
  # The shared kernel lock must rank first and hand off across clusters.
  python3 - "$PROFILE_DIR/fig5_hprof_report.json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hurricane-hprof-report/1", doc["schema"]
top = doc["sites"][0]
assert top["name"] == "kernel/shared", top["name"]
assert top["handoffs"]["cross_cluster"] > 0, top["handoffs"]
print(f"hprof report ok: kernel/shared ranks first, "
      f"{top['handoffs']['cross_cluster']} cross-cluster handoffs")
EOF
  # Lock statistics come only from lockprof exports: a trace is bad input.
  rc=0
  ./build/tools/hprof "$PROFILE_DIR/fig5_trace.json" > /dev/null 2>&1 || rc=$?
  if [ "$rc" != 1 ]; then
    echo "hprof on a Chrome trace exited $rc, expected 1" >&2
    exit 1
  fi
fi

if [ "$HCHECK" = 1 ]; then
  echo "==== hcheck exhaustive sweep (HCHECK_EXHAUSTIVE=1)"
  HCHECK_EXHAUSTIVE=1 ./build/tests/hcheck_tests
fi

if [ "$TSAN" = 1 ]; then
  TSAN_TESTS="hlock_tests hsvc_tests hload_tests halloc_tests hprof_tests
    hflight_tests hsim_tests hkernel_tests hmesh_tests hmetrics_tests"
  cmake -B build-tsan -S . -DHSIM_SANITIZE=thread
  # shellcheck disable=SC2086  # word-split the list into targets
  cmake --build build-tsan -j"$JOBS" --target $TSAN_TESTS hcluster_tests
  for t in $TSAN_TESTS; do
    ./build-tsan/tests/$t
  done
  ./build-tsan/tests/hcluster_tests --gtest_filter='Topology.*:ClusterRuntime.*:ReplicatedCounter.*'
fi
