#!/usr/bin/env python3
"""Compare BENCH_RESULTS.json against a committed baseline.

Usage:
    tools/check_regress.py [--baseline FILE] [--results FILE] [--self-test]

The baseline is a BENCH_RESULTS.json snapshot (an array of
hurricane-bench-report/1 documents) committed as BENCH_BASELINE.json.  Every
series in the baseline must still exist in the results (matched by bench name,
series name, and the full label set), every point must still exist (matched by
index), and every numeric field must stay inside the tolerance band:

  * coordinate fields (p, cap_us, hold_us, cluster_size, ...) must match
    exactly -- a changed sweep is a schema change, not noise;
  * frac_* fields (starvation fractions etc.) may move by +/- 0.1 absolute;
  * everything else passes when |new - old| <= 0.5 or the relative change is
    at most 35%.  The simulator is deterministic, but smoke runs are short and
    scheduling-order changes legitimately move tail metrics; the band is wide
    enough for that and still catches 2x regressions.

Only series present in the baseline are compared, so a bench gates exactly
the series recorded there: native_costs keeps its host-independent ratios in
the baseline and its raw nanoseconds and race rates out of it.

Extra series/points/fields in the results are allowed (new benches should not
fail the gate); anything missing or out of band fails it.  A key that repeats
within the baseline or the results fails it too: a bench must emit one series
per label set, with one point per sweep coordinate, or all but the last copy
would go uncompared.

Exit status: 0 clean, 1 regression or missing data, 2 usage/IO error.
Requires only the Python 3 standard library.
"""

import argparse
import json
import sys

# Sweep coordinates: must match exactly between baseline and results.
# "quantile" is the tail quantile of the hwhy blame series -- a changed
# quantile redefines the metric, so it is a coordinate, not a measurement.
COORD_KEYS = {"p", "cap_us", "hold_us", "cluster_size", "clusters", "procs",
              "processors", "drop_pct", "dup_pct", "iters", "offered_rps",
              "quantile", "machines"}

ABS_TOL = 0.5        # absolute slack for generic metrics
REL_TOL = 0.35       # relative slack for generic metrics
FRAC_ABS_TOL = 0.1   # absolute slack for frac_* fields (already in [0, 1])


def series_key(bench, series):
    return (bench, series.get("name", ""),
            tuple(sorted((series.get("labels") or {}).items())))


def index_reports(reports):
    """Maps (bench, series name, labels) -> list of points.

    Also returns the keys that occur more than once, in order of repetition.
    """
    out = {}
    repeated = []
    for report in reports:
        bench = report.get("bench", "")
        for series in report.get("series", []):
            key = series_key(bench, series)
            if key in out:
                repeated.append(key)
            out[key] = series.get("points", [])
    return out, repeated


def where(key):
    bench, name, labels = key
    return f"{bench}/{name}{dict(labels)}"


def field_ok(key, old, new):
    if not isinstance(old, (int, float)) or isinstance(old, bool):
        return old == new
    if not isinstance(new, (int, float)) or isinstance(new, bool):
        return False
    if key in COORD_KEYS:
        return old == new
    if key.startswith("frac_"):
        return abs(new - old) <= FRAC_ABS_TOL
    if abs(new - old) <= ABS_TOL:
        return True
    denom = max(abs(old), abs(new))
    return abs(new - old) <= REL_TOL * denom


def compare(baseline, results):
    """Returns a list of human-readable regression descriptions."""
    base_idx, base_repeated = index_reports(baseline)
    new_idx, new_repeated = index_reports(results)
    problems = [f"repeated series in baseline: {where(k)}" for k in base_repeated]
    problems += [f"repeated series in results: {where(k)}" for k in new_repeated]
    for key, base_points in sorted(base_idx.items()):
        at = where(key)
        new_points = new_idx.get(key)
        if new_points is None:
            problems.append(f"missing series: {at}")
            continue
        if len(new_points) < len(base_points):
            problems.append(f"{at}: {len(base_points)} points in baseline, "
                            f"only {len(new_points)} in results")
            continue
        for i, base_point in enumerate(base_points):
            new_point = new_points[i]
            for field, old in sorted(base_point.items()):
                if field not in new_point:
                    problems.append(f"{at}[{i}]: field {field!r} missing")
                    continue
                new = new_point[field]
                if not field_ok(field, old, new):
                    problems.append(
                        f"{at}[{i}].{field}: baseline {old!r} -> {new!r} "
                        f"(outside tolerance)")
    return problems


def self_test():
    """Exercises the comparator on synthetic documents; returns exit status."""
    base = [{"bench": "b", "params": {}, "env": {},
             "series": [{"name": "s", "labels": {"lock": "mcs"},
                         "points": [{"p": 4, "w_us": 100.0,
                                     "frac_over_2ms": 0.05}]}]}]
    same = json.loads(json.dumps(base))
    drifted = json.loads(json.dumps(base))
    drifted[0]["series"][0]["points"][0]["w_us"] = 120.0  # +20%: in band
    perturbed = json.loads(json.dumps(base))
    perturbed[0]["series"][0]["points"][0]["w_us"] = 250.0  # 2.5x: regression
    missing = [{"bench": "b", "params": {}, "env": {}, "series": []}]

    # The native_costs gate: same-run ratios take the generic band, the read
    # floor the frac_* band, and the ungated raw series stay out of the
    # baseline, so nothing in them is compared.
    native_base = [{"bench": "native_costs", "params": {}, "env": {},
                    "series": [{"name": "ratios", "labels": {},
                                "points": [{"ratio_mcs_h2_over_tas": 3.5,
                                            "frac_read_floor_met": 1.0}]}]}]
    native_drifted = json.loads(json.dumps(native_base))
    native_drifted[0]["series"][0]["points"][0]["ratio_mcs_h2_over_tas"] = 4.2
    native_doubled = json.loads(json.dumps(native_base))
    native_doubled[0]["series"][0]["points"][0]["ratio_mcs_h2_over_tas"] = 7.0
    native_floor = json.loads(json.dumps(native_base))
    native_floor[0]["series"][0]["points"][0]["frac_read_floor_met"] = 0.5
    native_extra = json.loads(json.dumps(native_base))
    native_extra[0]["series"].append({"name": "pair_ns", "labels": {"op": "tas"},
                                      "points": [{"median_ns": 1e9}]})

    # The hwhy blame gate: lock_wait share of the p99 tail per lock, plus the
    # hmcs-t-strictly-below-coarse indicator.  The indicator collapsing to 0
    # and a re-based quantile must both fail.
    blame_base = [{"bench": "svc_throughput", "params": {}, "env": {},
                   "series": [{"name": "blame", "labels": {"lock": "gate"},
                               "points": [{"procs": 16, "clusters": 4,
                                           "frac_hmcst_below_coarse": 1.0,
                                           "frac_reconcile_ok": 1.0}]},
                              {"name": "blame", "labels": {"lock": "hmcs-t"},
                               "points": [{"procs": 16, "clusters": 4,
                                           "quantile": 0.99,
                                           "frac_lock_wait_p99": 0.80}]}]}]
    blame_same = json.loads(json.dumps(blame_base))
    blame_broken = json.loads(json.dumps(blame_base))
    blame_broken[0]["series"][0]["points"][0]["frac_hmcst_below_coarse"] = 0.0
    blame_requantiled = json.loads(json.dumps(blame_base))
    blame_requantiled[0]["series"][1]["points"][0]["quantile"] = 0.9

    # The hmesh chaos gates: an acked write lost after failover, a ring sweep
    # re-based to fewer machines, and a collapsed local-read fraction must all
    # fail; the exact-count fields get no slack from the generic band.
    mesh_base = [{"bench": "mesh_scaling", "params": {}, "env": {},
                  "series": [{"name": "mesh_gates", "labels": {"scenario": "all"},
                              "points": [{"machines": 8,
                                          "read_speedup_8": 7.4,
                                          "chaos_lost_ops": 0.0,
                                          "chaos_replay_identical": 1.0}]},
                             {"name": "mesh_scaling",
                              "labels": {"workload": "read_mostly"},
                              "points": [{"machines": 8, "frac_local": 0.87}]}]}]
    mesh_same = json.loads(json.dumps(mesh_base))
    mesh_lost = json.loads(json.dumps(mesh_base))
    mesh_lost[0]["series"][0]["points"][0]["chaos_lost_ops"] = 2.0
    mesh_resized = json.loads(json.dumps(mesh_base))
    mesh_resized[0]["series"][1]["points"][0]["machines"] = 4
    mesh_remote = json.loads(json.dumps(mesh_base))
    mesh_remote[0]["series"][1]["points"][0]["frac_local"] = 0.4

    # A bench that emits one series per sweep point under the same labels: the
    # index would keep only the last copy, so the repeat itself must fail.
    repeated = json.loads(json.dumps(base))
    repeated[0]["series"].append(json.loads(json.dumps(base[0]["series"][0])))
    repeated[0]["series"][1]["points"][0]["p"] = 8

    checks = [
        ("identical results pass", compare(base, same) == []),
        ("repeated series key in results fails", compare(base, repeated) != []),
        ("repeated series key in baseline fails", compare(repeated, repeated) != []),
        ("in-band drift passes", compare(base, drifted) == []),
        ("perturbed metric fails", compare(base, perturbed) != []),
        ("missing series fails", compare(base, missing) != []),
        ("changed coordinate fails",
         compare(base, [{"bench": "b", "series": [
             {"name": "s", "labels": {"lock": "mcs"},
              "points": [{"p": 8, "w_us": 100.0,
                          "frac_over_2ms": 0.05}]}]}]) != []),
        ("ratio drifting +20% passes",
         compare(native_base, native_drifted) == []),
        ("ratio at 2x fails", compare(native_base, native_doubled) != []),
        ("read floor falling to 0.5 fails",
         compare(native_base, native_floor) != []),
        ("series absent from the baseline is not compared",
         compare(native_base, native_extra) == []
         and compare(missing, native_extra) == []),
        ("identical blame series passes", compare(blame_base, blame_same) == []),
        ("lost hmcs-t-below-coarse gate fails",
         compare(blame_base, blame_broken) != []),
        ("re-based blame quantile fails",
         compare(blame_base, blame_requantiled) != []),
        ("identical mesh series passes", compare(mesh_base, mesh_same) == []),
        ("lost chaos op fails", compare(mesh_base, mesh_lost) != []),
        ("re-based machine sweep fails", compare(mesh_base, mesh_resized) != []),
        ("collapsed local-read fraction fails",
         compare(mesh_base, mesh_remote) != []),
    ]
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"  {'ok' if ok else 'FAIL'}: {name}")
    if failed:
        print(f"self-test: {len(failed)} of {len(checks)} checks failed")
        return 1
    print(f"self-test: all {len(checks)} checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", default="BENCH_BASELINE.json")
    parser.add_argument("--results", default="BENCH_RESULTS.json")
    parser.add_argument("--self-test", action="store_true",
                        help="verify the comparator itself and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        with open(args.results) as f:
            results = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_regress: {e}", file=sys.stderr)
        return 2

    problems = compare(baseline, results)
    base_idx, _ = index_reports(baseline)
    n_points = sum(len(points) for points in base_idx.values())
    if problems:
        print(f"check_regress: {len(problems)} problem(s) against "
              f"{args.baseline}:")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"check_regress: OK (all {len(base_idx)} baseline series, {n_points} points, "
          f"within tolerance)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
