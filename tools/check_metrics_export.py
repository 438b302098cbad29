#!/usr/bin/env python3
"""Validate a Prometheus text-exposition dump of the serving metrics.

CI runs this (through tools/loopback_smoke.py, "net" profile) on the dump
er_served writes with --final-metrics after its warm-up traffic and a
SIGTERM drain, so a rename or a broken exporter in src/obs/ fails the
pipeline instead of a downstream scrape. Checks:

  * the serving-stack metric families are present (query/publish latency
    histograms, staleness + queue-depth gauges, publish counter, trace
    spans),
  * every histogram's cumulative buckets are monotone non-decreasing and
    end in a "+Inf" bucket that equals <family>_count,
  * every family carries a # TYPE line matching how it is used,
  * the serve families (er_serve_*, er_query_*) carry their one frozen
    `mode` label value, and the per-block routing counters deleted with
    the sharded route are gone,
  * no family exports more label sets than its budget
    (LABEL_SET_BUDGET), so a label that grows with the data (a block id,
    a node, a version) fails here instead of in a scraper.

usage: check_metrics_export.py METRICS.prom [core|net]

The optional profile picks the required-family set: "core" (default) is
the serving-stack surface (query, updater, pool, store, reducer, span,
result-cache and deadline families); "net" adds the `er_net_*` daemon
families of an er_served dump.
"""
import re
import sys

# (family, expected type). The span family is labeled per stage; one stage
# from each half of the pipeline is pinned so partial instrumentation
# can't pass.
REQUIRED = [
    ("er_query_latency_seconds", "histogram"),
    ("er_query_batch_seconds", "histogram"),
    ("er_updater_publish_latency_seconds", "histogram"),
    ("er_updater_staleness_mods", "gauge"),
    ("er_updater_staleness_mods_high_water", "gauge"),
    ("er_updater_mods_submitted_total", "counter"),
    ("er_pool_queue_depth", "gauge"),
    ("er_pool_task_queue_wait_seconds", "histogram"),
    ("er_pool_task_run_seconds", "histogram"),
    ("er_store_publishes_total", "counter"),
    ("er_reducer_publish_seconds", "histogram"),
    # The publish's two factorization halves (pg/incremental.cpp).
    ("er_reducer_order_seconds", "histogram"),
    ("er_reducer_factor_seconds", "histogram"),
    ("er_span_seconds", "histogram"),
    # Result cache (serve/result_cache.hpp): families register eagerly at
    # cache construction, so they export even before the first lookup.
    ("er_cache_hits_total", "counter"),
    ("er_cache_misses_total", "counter"),
    ("er_cache_evictions_total", "counter"),
    ("er_cache_invalidations_total", "counter"),
    ("er_cache_entries", "gauge"),
    ("er_cache_bytes", "gauge"),
    ("er_cache_hit_latency_seconds", "histogram"),
    # Deadline accounting (serve/query_frontend.cpp): the family resolves
    # on every answered batch, so it exports even for deadline-free traffic.
    ("er_policy_deadline_miss_total", "counter"),
]
# The daemon surface (src/net/server.cpp): families register eagerly at
# Server construction, so even an idle daemon's dump must carry them all.
REQUIRED_NET = [
    ("er_net_connections_accepted_total", "counter"),
    ("er_net_connections_rejected_total", "counter"),
    ("er_net_requests_total", "counter"),
    ("er_net_rejected_total", "counter"),
    ("er_net_mods_applied_total", "counter"),
    ("er_net_bad_frames_total", "counter"),
    ("er_net_active_connections", "gauge"),
    ("er_net_queue_depth", "gauge"),
    ("er_net_request_latency_seconds", "histogram"),
]
PROFILES = {"core": REQUIRED, "net": REQUIRED + REQUIRED_NET}
# Serve families keep a `mode` label frozen at one value until a benchmark
# change renames it (DESIGN.md §6); no other value may appear.
SERVE_PREFIXES = ("er_serve_", "er_query_latency_seconds",
                  "er_query_batch_seconds")
FROZEN_MODE = "sharded"
# Deleted with the sharded route: a dump carrying them is stale.
FORBIDDEN = {"er_serve_same_block_queries_total",
             "er_serve_cross_block_queries_total"}
REQUIRED_SPAN_STAGES = {"reduce", "stitch", "publish"}
# Label-cardinality budget: the most distinct label sets (`le` excluded) a
# family may export. Set from the measured `er_served --final-metrics`
# dump of tools/loopback_smoke.py (16x16 grid, 4 blocks, --warmup 4), in
# which every family not listed exports exactly one label set. Margin: one
# label set above the measured count for the labeled families below, none
# for the others (a label on an unlabeled family is a schema change, made
# on purpose together with this table).
LABEL_SET_BUDGET = {
    "er_net_queue_depth": 2 + 1,              # queue = queries | mods
    "er_net_requests_total": 4 + 1,           # one per request opcode
    "er_net_request_latency_seconds": 4 + 1,  # one per request opcode
    "er_span_seconds": 7 + 1,                 # one per OBS_SPAN stage
}
DEFAULT_LABEL_SET_BUDGET = 1

SAMPLE_RE = re.compile(
    r'^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$')


def parse_labels(text):
    if not text:
        return {}
    out = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        out[key.strip()] = value.strip().strip('"')
    return out


def main() -> int:
    if len(sys.argv) not in (2, 3) or \
            (len(sys.argv) == 3 and sys.argv[2] not in PROFILES):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path = sys.argv[1]
    required = PROFILES[sys.argv[2] if len(sys.argv) == 3 else "core"]
    types = {}
    # samples: (name, frozen labels) -> float value, in file order per key.
    samples = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("# HELP"):
                continue
            if line.startswith("# TYPE"):
                _, _, name, kind = line.split(None, 3)
                types[name] = kind
                continue
            m = SAMPLE_RE.match(line)
            if not m:
                print(f"{path}:{lineno}: unparseable sample line: {line!r}",
                      file=sys.stderr)
                return 1
            value = float("nan") if m.group("value") == "null" else float(
                m.group("value"))
            samples.append((m.group("name"),
                            parse_labels(m.group("labels")), value))

    ok = True
    names = {name for name, _, _ in samples}

    for family, kind in required:
        if types.get(family) != kind:
            print(f"{path}: family {family!r} missing or not typed "
                  f"{kind!r} (got {types.get(family)!r})", file=sys.stderr)
            ok = False
            continue
        expected = {family} if kind != "histogram" else {
            family + "_bucket", family + "_sum", family + "_count"}
        missing = expected - names
        if missing:
            print(f"{path}: family {family!r} lacks samples {sorted(missing)}",
                  file=sys.stderr)
            ok = False

    for family in sorted(FORBIDDEN & (names | set(types))):
        print(f"{path}: deleted family {family!r} is still exported",
              file=sys.stderr)
        ok = False
    modes = {labels.get("mode")
             for name, labels, _ in samples if name.startswith(SERVE_PREFIXES)}
    if modes - {FROZEN_MODE}:
        print(f"{path}: serve families carry mode labels "
              f"{sorted(map(str, modes))}, expected only {FROZEN_MODE!r}",
              file=sys.stderr)
        ok = False

    label_sets = {}  # family -> {frozen non-le labels}
    for name, labels, _ in samples:
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            stem = name[:-len(suffix)]
            if name.endswith(suffix) and types.get(stem) == "histogram":
                family = stem
        label_sets.setdefault(family, set()).add(tuple(sorted(
            (k, v) for k, v in labels.items() if k != "le")))
    for family, sets in sorted(label_sets.items()):
        budget = LABEL_SET_BUDGET.get(family, DEFAULT_LABEL_SET_BUDGET)
        if len(sets) > budget:
            print(f"{path}: family {family!r} exports {len(sets)} label "
                  f"sets, over its budget of {budget}", file=sys.stderr)
            ok = False

    span_stages = {labels.get("stage")
                   for name, labels, _ in samples
                   if name == "er_span_seconds_count"}
    missing_stages = REQUIRED_SPAN_STAGES - span_stages
    if missing_stages:
        print(f"{path}: er_span_seconds lacks stages "
              f"{sorted(missing_stages)} (has {sorted(span_stages)})",
              file=sys.stderr)
        ok = False

    # Histogram sanity: per (family, non-le labels), buckets are cumulative
    # (monotone in file order), finish with le="+Inf", and +Inf == _count.
    buckets = {}   # (family, labels-key) -> [(le, value)...]
    counts = {}    # (family, labels-key) -> count value
    for name, labels, value in samples:
        if name.endswith("_bucket"):
            key_labels = tuple(sorted(
                (k, v) for k, v in labels.items() if k != "le"))
            buckets.setdefault((name[:-7], key_labels), []).append(
                (labels.get("le"), value))
        elif name.endswith("_count"):
            key_labels = tuple(sorted(labels.items()))
            counts[(name[:-6], key_labels)] = value
    for (family, key_labels), series in buckets.items():
        values = [v for _, v in series]
        if any(b > a for a, b in zip(values[1:], values)):
            print(f"{path}: {family}{dict(key_labels)} buckets are not "
                  f"cumulative", file=sys.stderr)
            ok = False
        if series[-1][0] != "+Inf":
            print(f"{path}: {family}{dict(key_labels)} does not end in a "
                  f"+Inf bucket", file=sys.stderr)
            ok = False
        elif counts.get((family, key_labels)) != series[-1][1]:
            print(f"{path}: {family}{dict(key_labels)} +Inf bucket "
                  f"{series[-1][1]} != count "
                  f"{counts.get((family, key_labels))}", file=sys.stderr)
            ok = False

    if ok:
        print(f"{path}: {len(samples)} samples, "
              f"{len(types)} families OK")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
