#!/usr/bin/env python3
"""Validate a BENCH_scale.json artifact against the bench-scale-v9 schema.

Usage: check_bench_schema.py [PATH] [--rows N]

PATH defaults to BENCH_scale.json in the current directory. --rows asserts
the exact scenario-row count (CI passes the count its smoke run produces).

The v9 schema is emitted by ScaleArtifact in crates/bench/src/scale.rs and
documented field-by-field in docs/BENCH_SCHEMA.md (calibration workload
and ceiling semantics included).
Beyond key presence, the structural invariants checked here are the ones a
broken profiler or a half-written emitter would violate:

  * the calibration workload has a positive wall time;
  * every row's `spec` is a non-empty scenario-grammar string whose head
    matches the row's nodes/density columns for homogeneous rows;
  * filter + outcome query time plus the neighbour-table write time
    cannot exceed the mode's end-to-end time;
  * the interference phase is a sub-interval of the outcome phase;
  * the event horizon cannot cull more cells than the sweep visited, and
    an incremental run that delivered anything must have swept candidates;
  * reach lists exist only in shadowed worlds, and a list-served candidate
    needs a rebuilt list;
  * the recorded speedup column must equal the wall-time ratio it
    summarises.
"""

import json
import sys

REQUIRED = [
    "spec",
    "nodes",
    "per_km2",
    "shadowing_sigma_db",
    "beacons_per_sec",
    "coverage",
    "incremental_s",
    "naive_s",
    "incremental_filter_s",
    "incremental_outcome_s",
    "incremental_interference_s",
    "incremental_observe_s",
    "incremental_bucket_ops",
    "sweep_cells_visited",
    "sweep_cells_culled",
    "sweep_batched_candidates",
    "sweep_scalar_candidates",
    "sweep_list_rebuilds",
    "sweep_list_candidates",
    "peak_rss_bytes",
    "speedup_naive_over_incremental",
]


def fail(msg):
    print(f"check_bench_schema: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main(argv):
    path = "BENCH_scale.json"
    rows = None
    args = argv[1:]
    while args:
        a = args.pop(0)
        if a == "--rows":
            rows = int(args.pop(0))
        else:
            path = a
    try:
        d = json.load(open(path))
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")

    if d.get("schema") != "bench-scale-v9":
        fail(f"schema is {d.get('schema')!r}, want 'bench-scale-v9'")
    cal = d.get("calibration")
    if not isinstance(cal, dict) or not isinstance(cal.get("seconds"), (int, float)):
        fail("missing calibration object with numeric 'seconds'")
    if cal["seconds"] <= 0:
        fail(f"calibration seconds must be positive, got {cal['seconds']}")
    scenarios = d.get("scenarios")
    if not isinstance(scenarios, list) or not scenarios:
        fail("scenarios must be a non-empty list")
    if rows is not None and len(scenarios) != rows:
        fail(f"expected {rows} scenario rows, found {len(scenarios)}")

    for row in scenarios:
        name = f"{row.get('nodes')}@{row.get('per_km2')}"
        for key in REQUIRED:
            if key not in row:
                fail(f"row {name}: missing key {key!r}")
        spec = row["spec"]
        if not isinstance(spec, str) or not spec:
            fail(f"row {name}: spec must be a non-empty string")
        if "+" not in spec and not spec.startswith(f"{row['nodes']}@{row['per_km2']}"):
            fail(f"row {name}: spec {spec!r} disagrees with nodes/per_km2 columns")
        profiled = (
            row["incremental_filter_s"]
            + row["incremental_outcome_s"]
            + row["incremental_observe_s"]
        )
        if profiled > row["incremental_s"]:
            fail(f"row {name}: query split plus table writes exceed end-to-end time")
        if row["incremental_observe_s"] < 0:
            fail(f"row {name}: negative neighbour-table write time")
        if row["incremental_interference_s"] > row["incremental_outcome_s"]:
            fail(f"row {name}: interference phase exceeds the outcome phase")
        for key in (
            "sweep_cells_visited",
            "sweep_cells_culled",
            "sweep_batched_candidates",
            "sweep_scalar_candidates",
            "sweep_list_rebuilds",
            "sweep_list_candidates",
        ):
            v = row[key]
            if not isinstance(v, int) or v < 0:
                fail(f"row {name}: {key} must be a non-negative integer, got {v!r}")
        if row["sweep_cells_culled"] > row["sweep_cells_visited"]:
            fail(f"row {name}: event horizon culled more cells than the sweep visited")
        listed = row["sweep_list_rebuilds"] + row["sweep_list_candidates"]
        if row["shadowing_sigma_db"] == 0 and listed:
            fail(f"row {name}: reach-list counters are non-zero in an unshadowed world")
        if row["sweep_list_candidates"] and not row["sweep_list_rebuilds"]:
            fail(f"row {name}: candidates served from reach lists never rebuilt")
        swept = row["sweep_batched_candidates"] + row["sweep_scalar_candidates"]
        if row["coverage"] > 1 and swept == 0:
            fail(f"row {name}: incremental run delivered but swept no candidates")
        if row["naive_s"] is not None:
            want = row["naive_s"] / row["incremental_s"]
            got = row["speedup_naive_over_incremental"]
            if got is None or abs(got - want) > 1e-4 * max(1.0, want):
                fail(f"row {name}: naive speedup column {got} != {want}")
        elif row["speedup_naive_over_incremental"] is not None:
            fail(f"row {name}: naive speedup must be null without a naive run")

    if "batched_eval" not in d:
        fail("missing batched_eval object")
    print(f"check_bench_schema: OK ({len(scenarios)} rows, schema bench-scale-v9)")


if __name__ == "__main__":
    main(sys.argv)
