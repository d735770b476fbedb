#!/usr/bin/env python3
"""Bench regression gate: committed baseline JSON vs a fresh run.

The microbench cells attach *deterministic* counters (virtual-clock
sim_seconds, superstep/work counts, serve qps/latency percentiles, the
replication factor, ...) next to the host-dependent wall times. Wall times
drift with the runner; the counters must not. This gate compares only an
allowlist of those deterministic counters and fails on ANY drift beyond a
small float tolerance — a change in either direction means the tracked
behaviour changed and the committed BENCH_*.json baseline must be
regenerated in the same commit that explains why.

Usage:
  tools/bench_gate.py BASELINE.json FRESH.json [--rel-tol 1e-4]

With --benchmark_report_aggregates_only=true both files hold _mean/_median/
_stddev/_cv rows; the gate reads the _mean rows (equal to every repetition
for deterministic counters). Plain per-repetition files work too.

The gate also asserts cross-row shape invariants on the FRESH file when the
relevant cells are present (independent of the baseline):
  * BM_ServeThroughput: qps_sim strictly increases from max_lanes=1 to 16.
  * BM_PipelineFusion: the composed lowering (arg 1) performs strictly
    fewer partitions/builds/engine_runs and scans fewer sweep slots than
    the sequential baseline (arg 0).
  * BM_ExchangeCodec: the delta-varint wire volume (exchange_MB_wire) is
    strictly below the uncompressed fallback (exchange_MB_raw) on every row.

Exit status: 0 clean, 1 on any mismatch or failed shape check, 2 on bad
invocation. Stdlib only.
"""

import argparse
import json
import sys

# Deterministic counters worth gating; anything else (wall times,
# items_per_second, cv rows) is host noise and ignored.
TRACKED_COUNTERS = frozenset({
    "sim_seconds", "supersteps",
    "partitions", "builds", "engine_runs", "global_syncs",
    "sweep_scanned", "sweep_work", "sweep_applies",
    "recoveries", "guard_MB", "recovery_MB",
    "exchange_MB_raw", "exchange_MB_wire", "state_MB",
    "replication_factor",
    "qps_sim", "batches",
    "lat_p50", "lat_p90", "lat_p99", "queue_p99", "service_p50",
})

AGGREGATE_SUFFIXES = ("_mean", "_median", "_stddev", "_cv")


def load_rows(path):
    """name -> {counter: value} for every tracked counter in the file.

    Aggregate files contribute their _mean rows under the unsuffixed name;
    per-repetition files contribute the first repetition of each name.
    """
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    for bench in doc.get("benchmarks", []):
        name = bench.get("name", "")
        if name.endswith(AGGREGATE_SUFFIXES):
            if not name.endswith("_mean"):
                continue
            name = name[: -len("_mean")]
        if name in rows:
            continue  # first repetition wins; they are identical anyway
        counters = {k: float(v) for k, v in bench.items()
                    if k in TRACKED_COUNTERS and isinstance(v, (int, float))}
        if counters:
            rows[name] = counters
    return rows


def close(a, b, rel_tol):
    return abs(a - b) <= rel_tol * max(abs(a), abs(b), 1.0)


def check_shapes(rows, errors):
    def counter(name, key):
        return rows.get(name, {}).get(key)

    serve_lo = counter("BM_ServeThroughput/1", "qps_sim")
    serve_hi = counter("BM_ServeThroughput/16", "qps_sim")
    if serve_lo is not None and serve_hi is not None:
        if not serve_hi > serve_lo:
            errors.append(
                "shape: BM_ServeThroughput qps_sim at max_lanes=16 "
                f"({serve_hi:g}) must exceed max_lanes=1 ({serve_lo:g})")

    seq, comp = rows.get("BM_PipelineFusion/0"), rows.get("BM_PipelineFusion/1")
    if seq and comp:
        for key in ("partitions", "builds", "engine_runs", "sweep_scanned"):
            if key in seq and key in comp and not comp[key] < seq[key]:
                errors.append(
                    f"shape: BM_PipelineFusion composed {key} ({comp[key]:g}) "
                    f"must be below sequential ({seq[key]:g})")

    for name, counters in sorted(rows.items()):
        if not name.startswith("BM_ExchangeCodec"):
            continue
        raw = counters.get("exchange_MB_raw")
        wire = counters.get("exchange_MB_wire")
        if raw is not None and wire is not None and not wire < raw:
            errors.append(
                f"shape: {name} exchange_MB_wire ({wire:g}) must be strictly "
                f"below exchange_MB_raw ({raw:g})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline", help="committed BENCH_*.json")
    ap.add_argument("fresh", help="freshly generated BENCH_*.json")
    ap.add_argument("--rel-tol", type=float, default=1e-4,
                    help="relative tolerance on counter equality")
    args = ap.parse_args()

    try:
        baseline = load_rows(args.baseline)
        fresh = load_rows(args.fresh)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_gate: cannot read input: {e}", file=sys.stderr)
        return 2

    errors = []
    for name, base_counters in sorted(baseline.items()):
        if name not in fresh:
            errors.append(f"missing: {name} present in baseline, absent fresh")
            continue
        for key, base_val in sorted(base_counters.items()):
            got = fresh[name].get(key)
            if got is None:
                errors.append(f"missing: {name} counter {key} absent fresh")
            elif not close(base_val, got, args.rel_tol):
                errors.append(f"drift: {name} {key} baseline {base_val:.9g} "
                              f"fresh {got:.9g}")
    for name in sorted(fresh):
        if name not in baseline:
            errors.append(
                f"untracked: {name} in fresh run has no committed baseline "
                "row — regenerate the BENCH json")

    check_shapes(fresh, errors)

    compared = sum(len(c) for n, c in baseline.items() if n in fresh)
    if errors:
        print(f"bench_gate: FAIL ({args.baseline} vs {args.fresh})")
        for e in errors:
            print(f"  {e}")
        return 1
    print(f"bench_gate: OK — {compared} counters across {len(baseline)} rows "
          f"match within rel tol {args.rel_tol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
