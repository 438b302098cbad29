// Shared fixtures of the serving test suites (test_serving.cpp,
// test_async_updater.cpp, test_result_cache.cpp): a small gridded
// ConductanceNetwork with random ports/pad shunts, mixed
// response/resistance query batches over its surviving nodes, the
// AsyncUpdater<->IncrementalReducer wiring, deterministic modification
// streams, and a reader for the series a test's own registry recorded.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "serve/async_updater.hpp"
#include "serve/query_frontend.hpp"
#include "util/rng.hpp"

namespace er {

struct ServeCase {
  ConductanceNetwork net;
  std::vector<char> ports;
};

/// nx-by-ny uniform grid with `nports` random ports, the first four of
/// which get pad shunts (so the stitched system is SPD).
inline ServeCase make_case(index_t nx, index_t ny, index_t nports,
                           std::uint64_t seed) {
  ServeCase c;
  c.net.graph = grid_2d(nx, ny, WeightKind::kUniform, seed);
  const index_t n = nx * ny;
  c.net.shunts.assign(static_cast<std::size_t>(n), 0.0);
  c.ports.assign(static_cast<std::size_t>(n), 0);
  Rng rng(seed + 1);
  index_t placed = 0;
  while (placed < nports) {
    const index_t v = rng.uniform_int(n);
    if (c.ports[static_cast<std::size_t>(v)]) continue;
    c.ports[static_cast<std::size_t>(v)] = 1;
    if (placed < 4) c.net.shunts[static_cast<std::size_t>(v)] = 50.0;
    ++placed;
  }
  return c;
}

/// Original node ids that survive the reduction.
inline std::vector<index_t> kept_originals(const ReducedModel& model) {
  std::vector<index_t> kept;
  for (std::size_t v = 0; v < model.node_map.size(); ++v)
    if (model.node_map[v] >= 0) kept.push_back(static_cast<index_t>(v));
  return kept;
}

/// Mixed batch over surviving original nodes: alternating response /
/// resistance queries on random pairs (naturally mixing intra- and
/// cross-block routing).
inline std::vector<PortQuery> mixed_batch(const std::vector<index_t>& nodes,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::vector<PortQuery> batch;
  batch.reserve(count);
  Rng rng(seed);
  const auto n = static_cast<index_t>(nodes.size());
  for (std::size_t i = 0; i < count; ++i) {
    PortQuery query;
    query.kind = i % 2 == 0 ? QueryKind::kResistance : QueryKind::kResponse;
    query.p = nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    query.q = nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    batch.push_back(query);
  }
  return batch;
}

/// The AsyncUpdater <-> IncrementalReducer wiring used throughout: the
/// worker applies the batch through the reducer (whose attached store
/// publishes the snapshot) and reports the resulting revision.
inline AsyncUpdater::UpdateFn bind_reducer(IncrementalReducer& reducer) {
  return [&reducer](const ConductanceNetwork& net,
                    const std::vector<index_t>& dirty) {
    reducer.update(net, dirty);
    return reducer.revision();
  };
}

/// A deterministic modification stream: nets[u] is the *cumulative*
/// network state after mods[0..u] (the AsyncUpdater submission contract —
/// each submitted network already contains every earlier modification).
struct ModStream {
  std::vector<ConductanceNetwork> nets;
  std::vector<GridModification> mods;
};

/// Build `count` random modifications over `base`, seeded seed0+1..
/// seed0+count. `structure` must be captured from the reducer *before*
/// any update runs (IncrementalReducer::structure() mutates during
/// update(), so the submitter snapshots the routing info up front).
inline ModStream make_mod_stream(const ConductanceNetwork& base,
                                 const BlockStructure& structure, int count,
                                 real_t fraction, real_t scale,
                                 std::uint64_t seed0) {
  ModStream stream;
  ConductanceNetwork current = base;
  for (int u = 1; u <= count; ++u) {
    const GridModification mod =
        random_modification(structure.num_blocks, fraction, scale,
                            seed0 + static_cast<std::uint64_t>(u));
    current = apply_modification(current, structure, mod);
    stream.nets.push_back(current);
    stream.mods.push_back(mod);
  }
  return stream;
}

/// Counter or gauge value of the series `name` (with `labels`) in a
/// registry the test owns; -1 when no such series exists.
inline std::int64_t series_value(const obs::MetricsRegistry& reg,
                                 const std::string& name,
                                 const obs::Labels& labels = {}) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricSnapshot* m = snap.find(name, labels);
  if (!m) return -1;
  return m->kind == obs::MetricKind::kGauge
             ? m->gauge
             : static_cast<std::int64_t>(m->counter);
}

/// Sample count of the histogram series `name` in a registry the test
/// owns; 0 when no such series exists.
inline std::uint64_t histogram_count(const obs::MetricsRegistry& reg,
                                     const std::string& name,
                                     const obs::Labels& labels = {}) {
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricSnapshot* m = snap.find(name, labels);
  return m ? m->histogram.count : 0;
}

}  // namespace er
