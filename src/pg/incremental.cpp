#include "pg/incremental.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace er {

GridModification random_modification(index_t num_blocks, real_t fraction,
                                     real_t resistance_scale,
                                     std::uint64_t seed) {
  if (num_blocks <= 0)
    throw std::invalid_argument("random_modification: no blocks");
  GridModification mod;
  mod.resistance_scale = resistance_scale;
  const auto want = std::min<index_t>(
      num_blocks,
      std::max<index_t>(
          1, static_cast<index_t>(fraction * static_cast<real_t>(num_blocks))));
  // Give every block an independent hashed priority and take the `want`
  // smallest: a uniform without-replacement draw whose outcome per block
  // depends only on (seed, block), never on enumeration order.
  std::vector<std::pair<std::uint64_t, index_t>> keyed;
  keyed.reserve(static_cast<std::size_t>(num_blocks));
  for (index_t b = 0; b < num_blocks; ++b)
    keyed.emplace_back(mix_seed(seed, static_cast<std::uint64_t>(b)), b);
  std::nth_element(keyed.begin(), keyed.begin() + (want - 1), keyed.end());
  mod.dirty_blocks.reserve(static_cast<std::size_t>(want));
  for (index_t i = 0; i < want; ++i)
    mod.dirty_blocks.push_back(keyed[static_cast<std::size_t>(i)].second);
  std::sort(mod.dirty_blocks.begin(), mod.dirty_blocks.end());
  return mod;
}

ConductanceNetwork apply_modification(const ConductanceNetwork& net,
                                      const BlockStructure& structure,
                                      const GridModification& mod) {
  std::vector<char> dirty(static_cast<std::size_t>(structure.num_blocks), 0);
  for (index_t b : mod.dirty_blocks) dirty[static_cast<std::size_t>(b)] = 1;

  ConductanceNetwork out;
  out.shunts = net.shunts;
  Graph g(net.graph.num_nodes());
  g.reserve_edges(net.graph.num_edges());
  // Scaling R by s scales conductance by 1/s.
  const real_t wscale = 1.0 / mod.resistance_scale;
  for (const auto& e : net.graph.edges()) {
    const index_t bu = structure.block_of[static_cast<std::size_t>(e.u)];
    const index_t bv = structure.block_of[static_cast<std::size_t>(e.v)];
    const bool in_dirty = bu == bv && dirty[static_cast<std::size_t>(bu)];
    g.add_edge(e.u, e.v, in_dirty ? e.weight * wscale : e.weight);
  }
  out.graph = std::move(g);
  return out;
}

IncrementalReducer::IncrementalReducer(const ConductanceNetwork& net,
                                       const std::vector<char>& is_port,
                                       const ReductionOptions& opts)
    : is_port_(is_port), opts_(opts) {
  Timer t;
  pool_ = transient_pool(opts_.parallel.num_threads);
  Timer phase;
  {
    OBS_SPAN("partition");
    structure_ = build_block_structure(net, is_port_, opts_, pool_.get());
  }
  const double partition_seconds = phase.seconds();
  phase.reset();
  blocks_.assign(static_cast<std::size_t>(structure_.num_blocks), {});
  {
    OBS_SPAN("reduce");
    parallel_for(pool_.get(), 0, structure_.num_blocks, 1,
                 [&](index_t lo, index_t hi) {
                   for (index_t b = lo; b < hi; ++b)
                     blocks_[static_cast<std::size_t>(b)] = reduce_block(
                         net, is_port_, structure_, b, opts_, pool_.get());
                 });
  }
  const double reduce_seconds = phase.seconds();
  ReducedModel stitched = stitch_blocks(net, structure_, blocks_, pool_.get());
  initial_seconds_ = t.seconds();
  stitched.stats.partition_seconds = partition_seconds;
  stitched.stats.reduce_seconds = reduce_seconds;
  stitched.stats.total_seconds = initial_seconds_;
  set_model(std::move(stitched));
}

void IncrementalReducer::set_model(ReducedModel&& next) {
  // Freeze the version: once behind the shared handle it is never written
  // again (the next update builds a fresh allocation), so snapshots alias
  // it. Warm the graph's lazy CSR cache first — building it later would
  // mutate `mutable` state under concurrent readers.
  (void)next.network.graph.adjacency_ptr();
  model_ = std::make_shared<const ReducedModel>(std::move(next));
}

const ReducedModel& IncrementalReducer::update(
    const ConductanceNetwork& modified,
    const std::vector<index_t>& dirty_blocks) {
  Timer t;
  // Validate before touching any state, so a rejected call leaves the
  // structure, the block cache and the model as they were.
  for (index_t b : dirty_blocks)
    if (b < 0 || b >= structure_.num_blocks)
      throw std::out_of_range("IncrementalReducer::update: bad block id");
  // Deduplicate so two tasks can never write the same blocks_ slot.
  std::vector<index_t> dirty = dirty_blocks;
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  Timer phase;
  {
    // The structure refresh is the update's partition stage (same span
    // name, so the aggregate covers both the initial build and updates).
    OBS_SPAN("partition");
    // Refresh cached block-internal edge weights from the modified network.
    BlockStructure st = structure_;
    for (auto& edges : st.block_edges) edges.clear();
    st.cut_edges.clear();
    for (const auto& e : modified.graph.edges()) {
      const index_t bu = st.block_of[static_cast<std::size_t>(e.u)];
      const index_t bv = st.block_of[static_cast<std::size_t>(e.v)];
      if (bu == bv)
        st.block_edges[static_cast<std::size_t>(bu)].push_back(e);
      else
        st.cut_edges.push_back(e);
    }
    structure_ = std::move(st);
  }
  const double structure_seconds = phase.seconds();

  // Only the dirty blocks are re-reduced; their slots are disjoint, so the
  // update parallelizes exactly like the initial reduction.
  phase.reset();
  {
    OBS_SPAN("reduce");
    parallel_for(pool_.get(), 0, static_cast<index_t>(dirty.size()), 1,
                 [&](index_t lo, index_t hi) {
                   for (index_t i = lo; i < hi; ++i) {
                     const index_t b = dirty[static_cast<std::size_t>(i)];
                     blocks_[static_cast<std::size_t>(b)] =
                         reduce_block(modified, is_port_, structure_, b,
                                      opts_, pool_.get());
                   }
                 });
  }
  const double reduce_seconds = phase.seconds();
  // The next model version is a full stitch of the block cache into a
  // fresh allocation; the current version stays frozen for the snapshots
  // that alias it.
  ReducedModel next = stitch_blocks(modified, structure_, blocks_, pool_.get());
  update_seconds_ = t.seconds();
  // The structure refresh plays the partition stage's role in an update.
  next.stats.partition_seconds = structure_seconds;
  next.stats.reduce_seconds = reduce_seconds;
  next.stats.total_seconds = update_seconds_;
  set_model(std::move(next));
  // Counted unconditionally so a model revision never reuses a version
  // number, whether or not a store is attached.
  ++revision_;
  if (store_) publish_current();
  return *model_;
}

void IncrementalReducer::attach_store(ModelStore* store) {
  if (!store)
    throw std::invalid_argument("IncrementalReducer::attach_store: null store");
  store_ = store;
  publish_current();
}

void IncrementalReducer::publish_current() {
  Timer t;
  OBS_SPAN("publish");
  // The snapshot is built completely off to the side and only then swapped
  // in, so queries racing with this publish never observe a half-built
  // model (DESIGN.md §4 publish protocol). It aliases the frozen model
  // version through its shared handle: a publish copies zero model bytes
  // and factors G once, on the reducer's pool (DESIGN.md §4.1). A throwing
  // build leaves the store on the previous version.
  const SnapshotPtr snap = ModelSnapshot::build(model_, revision_, pool_.get());
  store_->publish(snap);
  publish_bytes_materialized_ = snap->factor_bytes();
  publish_seconds_ = t.seconds();
  // Snapshot build+publish latency: the reducer-side half of the
  // publish-latency picture (the updater's er_updater_publish_latency_
  // seconds measures submit-to-publish, which adds queueing).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry
      .histogram("er_reducer_publish_seconds", {},
                 "Snapshot build + store publish per publish_current()")
      .record(publish_seconds_);
  // Its two factorization halves, so a publish's cost splits into the
  // ordering of G and the factor under it.
  registry
      .histogram("er_reducer_order_seconds", {},
                 "AMD ordering of G per publish_current()")
      .record(snap->order_seconds());
  registry
      .histogram("er_reducer_factor_seconds", {},
                 "Symbolic + numeric factor of G per publish_current()")
      .record(snap->factor_seconds());
}

}  // namespace er
