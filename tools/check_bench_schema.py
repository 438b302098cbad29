#!/usr/bin/env python3
"""Validate a BENCH_serving.json file against the documented schema.

CI runs this after the serving smoke run so a schema change in
bench_serving breaks the pipeline instead of downstream readers of the
JSON trajectories (bench/README.md documents every field). Every row must
carry the fields below and report a bit-identical batch.

usage: check_bench_schema.py BENCH_serving.json
"""
import json
import sys

REQUIRED_FIELDS = {
    "bench", "case", "mode", "threads", "queries",
    "reduced_nodes", "boundary_nodes", "blocks",
    # Registry-derived per-query latency percentiles (PR 6).
    "query_latency_p50_us", "query_latency_p95_us", "query_latency_p99_us",
    "snapshot_build_seconds", "wall_seconds", "queries_per_second",
    "speedup", "identical", "max_rel_vs_reference",
    # Etree-reach statistics of the reach-limited query kernel.
    "reach_nodes_mean", "reach_nodes_p99", "factor_entries_touched_mean",
}


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = sys.argv[1]
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
        missing = REQUIRED_FIELDS - row.keys()
        if missing:
            print(f"{path}[{i}]: missing fields {sorted(missing)}",
                  file=sys.stderr)
            ok = False
        if row.get("identical") is not True:
            print(f"{path}[{i}]: row not bit-identical", file=sys.stderr)
            ok = False
    if ok:
        print(f"{path}: {len(rows)} rows OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
