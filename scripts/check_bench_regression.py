#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh BENCH_scale.json against the
committed floors in scripts/perf_floors.json.

Usage: check_bench_regression.py [BENCH_PATH] [FLOORS_PATH]

Two kinds of checks:

* **Speedup floors** (`floors`): each names a scenario (the canonical
  `--dense` spec text that produced the row) and a speedup metric. The
  gate fails when the fresh value is missing, null, or more than
  `tolerance` (fractional, e.g. 0.10 = 10%) below the floor — so a PR that
  slows the incremental delivery path relative to the naive oracle fails
  CI instead of silently eroding the headline numbers.
* **Absolute ceilings** (`absolute_ceilings`): speedup ratios are blind to
  a *uniform* slowdown (both modes 2x slower = same ratio). Each ceiling
  bounds `row[metric] / calibration.seconds` — the row's wall time in
  units of the fixed calibration workload measured in the same job
  (schema v4), which cancels runner speed. The gate fails when the
  normalised time exceeds `ceiling * (1 + absolute_tolerance)`.
* **RSS ceilings** (`rss_ceilings`): each bounds a row's `peak_rss_bytes`
  with an absolute byte count (memory needs no runner-speed calibration),
  so a memory regression at scale fails the gate too. `peak_rss_bytes` is
  a process high-water mark — monotone across rows — so a ceiling on a
  given row also covers every row that ran before it.

Values inside their bound print the headroom, which is the cue to tighten
the bound after a durable win.
"""

import json
import sys


def fail(msg):
    print(f"check_bench_regression: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def row_key(row):
    # v4 rows carry their canonical spec text; reconstruct it for older
    # artifacts so floors keep matching either way.
    if row.get("spec"):
        return row["spec"]
    sigma = row.get("shadowing_sigma_db") or 0.0
    key = f"{row['nodes']}@{row['per_km2']}"
    if sigma > 0.0:
        # format sigma the way the --dense spec writes it (no trailing .0)
        key += f"@{sigma:g}"
    return key


def main(argv):
    bench_path = argv[1] if len(argv) > 1 else "BENCH_scale.json"
    floors_path = argv[2] if len(argv) > 2 else "scripts/perf_floors.json"
    try:
        bench = json.load(open(bench_path))
        floors = json.load(open(floors_path))
    except (OSError, ValueError) as e:
        fail(f"cannot read inputs: {e}")

    tolerance = float(floors.get("tolerance", 0.0))
    rows = {row_key(r): r for r in bench.get("scenarios", [])}
    failures = []
    for f in floors["floors"]:
        scenario, metric, floor = f["scenario"], f["metric"], float(f["floor"])
        row = rows.get(scenario)
        if row is None:
            failures.append(f"scenario {scenario} missing from {bench_path} (rows: {sorted(rows)})")
            continue
        value = row.get(metric)
        if value is None:
            failures.append(f"{scenario}: metric {metric} is null/missing")
            continue
        cutoff = floor * (1.0 - tolerance)
        verdict = "OK" if value >= cutoff else "REGRESSED"
        print(
            f"check_bench_regression: {scenario} {metric} = {value:.3f} "
            f"(floor {floor:.3f}, cutoff {cutoff:.3f}) {verdict}"
        )
        if value < cutoff:
            failures.append(
                f"{scenario}: {metric} {value:.3f} fell below {cutoff:.3f} "
                f"(floor {floor:.3f} - {tolerance:.0%} tolerance)"
            )
    ceilings = floors.get("absolute_ceilings", [])
    if ceilings:
        cal = (bench.get("calibration") or {}).get("seconds")
        if not cal or cal <= 0:
            failures.append(
                "absolute ceilings configured but calibration.seconds is "
                f"missing/invalid in {bench_path} (schema v4 required)"
            )
        else:
            abs_tol = float(floors.get("absolute_tolerance", 0.0))
            for c in ceilings:
                scenario, metric = c["scenario"], c["metric"]
                ceiling = float(c["ceiling"])
                row = rows.get(scenario)
                if row is None:
                    failures.append(f"scenario {scenario} missing from {bench_path}")
                    continue
                value = row.get(metric)
                if value is None:
                    failures.append(f"{scenario}: metric {metric} is null/missing")
                    continue
                ratio = value / cal
                cutoff = ceiling * (1.0 + abs_tol)
                verdict = "OK" if ratio <= cutoff else "REGRESSED"
                print(
                    f"check_bench_regression: {scenario} {metric} = {value:.3f}s "
                    f"= {ratio:.2f}x calibration (ceiling {ceiling:.2f}x, "
                    f"cutoff {cutoff:.2f}x) {verdict}"
                )
                if ratio > cutoff:
                    failures.append(
                        f"{scenario}: {metric} {ratio:.2f}x calibration exceeded "
                        f"{cutoff:.2f}x (ceiling {ceiling:.2f}x + {abs_tol:.0%} tolerance)"
                    )
    for c in floors.get("rss_ceilings", []):
        scenario, ceiling = c["scenario"], int(c["ceiling_bytes"])
        row = rows.get(scenario)
        if row is None:
            failures.append(f"scenario {scenario} missing from {bench_path}")
            continue
        value = row.get("peak_rss_bytes")
        if value is None:
            failures.append(f"{scenario}: peak_rss_bytes is null/missing")
            continue
        verdict = "OK" if value <= ceiling else "REGRESSED"
        print(
            f"check_bench_regression: {scenario} peak_rss_bytes = "
            f"{value / 2**20:.0f} MiB (ceiling {ceiling / 2**20:.0f} MiB) {verdict}"
        )
        if value > ceiling:
            failures.append(
                f"{scenario}: peak RSS {value / 2**20:.0f} MiB exceeded "
                f"ceiling {ceiling / 2**20:.0f} MiB"
            )
    if failures:
        fail("; ".join(failures))
    print("check_bench_regression: all floors and ceilings held")


if __name__ == "__main__":
    main(sys.argv)
