/// \file
/// Exporters for MetricsSnapshot (DESIGN.md §6): Prometheus text
/// exposition format — the payload of er_served's `/metrics` endpoint and
/// its `--final-metrics` dump — and the repo's BENCH-style flat JSON. Both
/// are deterministic functions of the snapshot (entries are already sorted
/// by name and labels), so exports golden-file cleanly.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace er::obs {

/// Prometheus text exposition format, version 0.0.4: `# HELP` / `# TYPE`
/// headers per family, counters/gauges as bare samples, histograms as
/// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snapshot);

/// BENCH-style flat JSON object: one key per metric — labels folded into
/// the key as `name{k=v,...}` — with counters/gauges as numbers and
/// histograms expanded to `_count`, `_sum`, `_max`, `_p50`, `_p95`,
/// `_p99` keys, matching the flat-row convention of BENCH_*.json files.
[[nodiscard]] std::string to_bench_json(const MetricsSnapshot& snapshot);

}  // namespace er::obs
