#!/usr/bin/env python3
"""Validate a BENCH_serving.json file against the documented schema.

CI runs this after the serving smoke invocations so a schema change in
bench_serving breaks the pipeline instead of downstream readers of the
JSON trajectories (bench/README.md documents every field).

usage: check_bench_schema.py BENCH_serving.json
       {churn|standard|zipf|loopback}
"""
import json
import sys

COMMON_FIELDS = {
    "bench", "case", "mode", "threads", "queries",
    "reduced_nodes", "boundary_nodes", "blocks",
    # Registry-derived per-query latency percentiles (PR 6).
    "query_latency_p50_us", "query_latency_p95_us", "query_latency_p99_us",
}

# Fields every row of the given mode must carry (bench/README.md).
MODE_FIELDS = {
    "churn": COMMON_FIELDS | {
        "mods_submitted", "update_batches", "mods_coalesced",
        "publish_latency_mean_seconds", "publish_latency_max_seconds",
        # Registry-derived publish-latency percentiles (PR 6).
        "publish_latency_p50_ms", "publish_latency_p95_ms",
        "publish_latency_p99_ms",
        "staleness_mean_mods", "staleness_max_mods",
        "staleness_mean_versions", "staleness_max_versions",
        "queries_per_second", "churn_wall_seconds",
        "publish_seconds",
        # Publish accounting (PR 5).
        "publish_bytes_materialized",
        "model_footprint_bytes",
        # Bounded-staleness back-pressure (PR 5).
        "staleness_bound_mods", "blocked_submits", "rejected_submits",
        "max_observed_staleness_mods",
        "identical",
    },
    "standard": COMMON_FIELDS | {
        "snapshot_build_seconds", "wall_seconds", "queries_per_second",
        "speedup", "identical", "max_rel_vs_reference",
        # Etree-reach statistics of the reach-limited query kernel.
        "reach_nodes_mean", "reach_nodes_p99", "factor_entries_touched_mean",
    },
    # Result-cache scenario (--churn --zipf S, PR 8).
    "zipf": COMMON_FIELDS | {
        "zipf_s", "pool_pairs", "mods_submitted",
        "cache_hit_rate", "cache_hits", "cache_misses", "cache_entries",
        "cache_evictions", "cache_invalidations",
        "queries_per_second", "queries_per_second_uncached",
        "identical",
    },
    # Network serving scenario (--loopback, PR 9): end-to-end QPS and
    # client-observed request latency through the net/ daemon core.
    "loopback": COMMON_FIELDS | {
        "clients", "queries_per_second",
        "request_latency_p50_us", "request_latency_p95_us",
        "request_latency_p99_us",
        "requests_total", "retry_later_responses",
        "mods_submitted", "mods_applied",
        "identical",
    },
}



def main() -> int:
    if len(sys.argv) != 3 or sys.argv[2] not in MODE_FIELDS:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path, mode = sys.argv[1], sys.argv[2]
    required = MODE_FIELDS[mode]
    with open(path, encoding="utf-8") as f:
        rows = json.load(f)
    if not isinstance(rows, list) or not rows:
        print(f"{path}: expected a non-empty JSON array", file=sys.stderr)
        return 1
    ok = True
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            print(f"{path}[{i}]: expected an object, got {type(row).__name__}",
                  file=sys.stderr)
            ok = False
            continue
        missing = required - row.keys()
        if missing:
            print(f"{path}[{i}]: missing fields {sorted(missing)}",
                  file=sys.stderr)
            ok = False
        if row.get("identical") is not True:
            print(f"{path}[{i}]: {mode} row not bit-identical",
                  file=sys.stderr)
            ok = False
        if mode == "loopback" \
                and row.get("mods_applied") != row.get("mods_submitted"):
            print(f"{path}[{i}]: loopback mod feed applied "
                  f"{row.get('mods_applied')} of "
                  f"{row.get('mods_submitted')} submitted mods",
                  file=sys.stderr)
            ok = False
        if mode == "zipf" and row.get("zipf_s", 0) >= 1.0 \
                and row.get("cache_hit_rate", 0) < 0.5:
            print(f"{path}[{i}]: cache hit rate "
                  f"{row.get('cache_hit_rate')} below the 0.5 floor at "
                  f"zipf_s {row.get('zipf_s')}", file=sys.stderr)
            ok = False
    if ok:
        print(f"{path}: {len(rows)} rows OK ({mode} schema)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
