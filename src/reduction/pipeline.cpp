#include "reduction/pipeline.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "effres/approx_chol.hpp"
#include "effres/exact.hpp"
#include "effres/random_projection.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "partition/partition.hpp"
#include "reduction/port_merge.hpp"
#include "reduction/schur.hpp"
#include "reduction/sparsify.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace er {

const char* to_string(ErBackend b) {
  switch (b) {
    case ErBackend::kExact:
      return "exact";
    case ErBackend::kRandomProjection:
      return "random-projection";
    case ErBackend::kApproxChol:
      return "approx-chol";
  }
  return "?";
}

namespace {

// Per-block RNG streams: each block-indexed random site hashes (seed, block)
// into an independent stream so reduction results do not depend on the order
// (or thread) in which blocks are processed. Distinct tags keep the engine
// and sparsifier streams decorrelated within a block.
constexpr std::uint64_t kEngineStreamTag = 0x65722d656e67ULL;   // "er-eng"
constexpr std::uint64_t kSparsifyStreamTag = 0x65722d7370ULL;   // "er-sp"

std::uint64_t block_stream_seed(std::uint64_t seed, std::uint64_t tag,
                                index_t block) {
  return mix_seed(seed ^ tag, static_cast<std::uint64_t>(block));
}

std::unique_ptr<EffResEngine> make_engine(const Graph& g,
                                          const ReductionOptions& opts,
                                          index_t block, ThreadPool* pool) {
  switch (opts.backend) {
    case ErBackend::kExact:
      return std::make_unique<ExactEffRes>(g);
    case ErBackend::kRandomProjection: {
      RandomProjectionOptions rp;
      rp.auto_scale = opts.projection_scale;
      rp.seed = block_stream_seed(opts.seed, kEngineStreamTag, block);
      // Row solves chunk across the same pool as the block dispatch: the
      // thread reducing this block runs them, and idle workers join in.
      rp.pool = pool;
      return std::make_unique<RandomProjectionEffRes>(g, rp);
    }
    case ErBackend::kApproxChol: {
      ApproxCholOptions ac;
      ac.droptol = opts.droptol;
      ac.epsilon = opts.epsilon;
      // Alg. 2's columns run on the thread reducing this block and the
      // idle workers of the block dispatch's pool; with no pool (serial
      // reduction) the build runs serially.
      ac.pool = pool;
      ac.parallel.num_threads = 1;
      return std::make_unique<ApproxCholEffRes>(g, ac);
    }
  }
  throw std::logic_error("make_engine: unknown backend");
}

}  // namespace

BlockStructure build_block_structure(const ConductanceNetwork& input,
                                     const std::vector<char>& is_port,
                                     const ReductionOptions& opts,
                                     ThreadPool* pool) {
  const index_t n = input.num_nodes();
  index_t num_ports = 0;
  for (char p : is_port)
    if (p) ++num_ports;

  BlockStructure st;
  PartitionOptions popts;
  popts.num_parts = opts.num_blocks > 0
                        ? opts.num_blocks
                        : std::max<index_t>(1, num_ports / 50);
  popts.seed = opts.seed;
  const PartitionResult part = partition_graph(input.graph, popts, pool);
  st.num_blocks = popts.num_parts;
  st.block_of = part.part;

  st.is_interface.assign(static_cast<std::size_t>(n), 0);
  for (const auto& e : input.graph.edges()) {
    if (st.block_of[static_cast<std::size_t>(e.u)] !=
        st.block_of[static_cast<std::size_t>(e.v)]) {
      st.is_interface[static_cast<std::size_t>(e.u)] = 1;
      st.is_interface[static_cast<std::size_t>(e.v)] = 1;
      st.cut_edges.push_back(e);
    }
  }

  st.block_nodes.assign(static_cast<std::size_t>(st.num_blocks), {});
  for (index_t v = 0; v < n; ++v)
    st.block_nodes[static_cast<std::size_t>(
                       st.block_of[static_cast<std::size_t>(v)])]
        .push_back(v);
  st.block_edges.assign(static_cast<std::size_t>(st.num_blocks), {});
  for (const auto& e : input.graph.edges())
    if (st.block_of[static_cast<std::size_t>(e.u)] ==
        st.block_of[static_cast<std::size_t>(e.v)])
      st.block_edges[static_cast<std::size_t>(
                         st.block_of[static_cast<std::size_t>(e.u)])]
          .push_back(e);
  return st;
}

BlockReduced reduce_block(const ConductanceNetwork& input,
                          const std::vector<char>& is_port,
                          const BlockStructure& structure, index_t block,
                          const ReductionOptions& opts, ThreadPool* pool) {
  const index_t n = input.num_nodes();
  const auto& nodes = structure.block_nodes[static_cast<std::size_t>(block)];
  BlockReduced out;
  if (nodes.empty()) return out;
  const auto nb = static_cast<index_t>(nodes.size());

  // Local ids within the block.
  std::vector<index_t> local_of(static_cast<std::size_t>(n), -1);
  for (index_t l = 0; l < nb; ++l)
    local_of[static_cast<std::size_t>(nodes[static_cast<std::size_t>(l)])] = l;

  // Local system matrix: internal edges + shunts.
  TripletMatrix t(nb, nb);
  for (const auto& e : structure.block_edges[static_cast<std::size_t>(block)])
    t.stamp_conductance(local_of[static_cast<std::size_t>(e.u)],
                        local_of[static_cast<std::size_t>(e.v)], e.weight);
  for (index_t l = 0; l < nb; ++l) {
    const real_t s =
        input.shunts[static_cast<std::size_t>(nodes[static_cast<std::size_t>(l)])];
    if (s != 0.0) t.add(l, l, s);
  }
  const CscMatrix a_b = CscMatrix::from_triplets(t);

  // Keep ports and interfaces; eliminate non-port interiors.
  std::vector<index_t> keep_local, elim_local;
  for (index_t l = 0; l < nb; ++l) {
    const index_t v = nodes[static_cast<std::size_t>(l)];
    if (is_port[static_cast<std::size_t>(v)] ||
        structure.is_interface[static_cast<std::size_t>(v)])
      keep_local.push_back(l);
    else
      elim_local.push_back(l);
  }
  if (keep_local.empty()) return out;  // floating block: drop entirely

  Timer phase;
  const SchurResult schur = [&] {
    OBS_SPAN("schur", block);
    return schur_complement(a_b, keep_local, elim_local);
  }();
  out.schur_seconds = phase.seconds();

  const ConductanceNetwork net_b = network_from_matrix(schur.matrix);
  const auto ns = static_cast<index_t>(keep_local.size());
  out.kept_orig.reserve(static_cast<std::size_t>(ns));
  for (index_t s = 0; s < ns; ++s)
    out.kept_orig.push_back(
        nodes[static_cast<std::size_t>(keep_local[static_cast<std::size_t>(s)])]);

  // Effective resistances of the reduced block's edges (step 3), as one
  // batched query so the engine can chunk it across the pool.
  phase.reset();
  std::vector<real_t> edge_er(net_b.graph.num_edges(), 0.0);
  std::unique_ptr<EffResEngine> engine;
  if (net_b.graph.num_edges() > 0) {
    OBS_SPAN("er", block);
    engine = make_engine(net_b.graph, opts, block, pool);
    edge_er = engine->resistances(all_edge_queries(net_b.graph), pool);
  }
  out.er_seconds = phase.seconds();

  // Merge non-port nodes, then sparsify (step 4). The span runs to the end
  // of the function, so it also covers the merged-ER batch and the shunt
  // fold — the whole post-ER tail of the block.
  phase.reset();
  OBS_SPAN("sparsify", block);
  std::vector<char> mergeable(static_cast<std::size_t>(ns), 0);
  for (index_t s = 0; s < ns; ++s)
    mergeable[static_cast<std::size_t>(s)] =
        is_port[static_cast<std::size_t>(out.kept_orig[static_cast<std::size_t>(s)])]
            ? 0
            : 1;
  MergeOptions mo;
  mo.relative_threshold = opts.merge_threshold;
  const MergeResult merge =
      merge_by_effective_resistance(net_b.graph, edge_er, mergeable, mo);
  out.merge_map = merge.node_map;
  out.merged_count = merge.merged_count;

  // Representative S-index per merged id for post-merge ER queries.
  std::vector<index_t> rep_s(static_cast<std::size_t>(merge.merged_count), -1);
  for (index_t s = 0; s < ns; ++s) {
    const index_t mid = merge.node_map[static_cast<std::size_t>(s)];
    if (rep_s[static_cast<std::size_t>(mid)] == -1)
      rep_s[static_cast<std::size_t>(mid)] = s;
  }
  std::vector<real_t> merged_er(merge.merged.num_edges(), 0.0);
  if (merge.merged_count == ns) {
    // Nothing merged: the merged graph is net_b's edges sorted by (u, v),
    // with the same weights and identity representatives, so its ERs are
    // edge_er permuted. network_from_matrix emits the edges column by
    // column (v ascending, u < v), so a stable counting sort on u yields
    // the (u, v) order.
    std::vector<std::size_t> slot(static_cast<std::size_t>(ns) + 1, 0);
    for (const Edge& ed : net_b.graph.edges())
      ++slot[static_cast<std::size_t>(ed.u) + 1];
    for (std::size_t u = 0; u < static_cast<std::size_t>(ns); ++u)
      slot[u + 1] += slot[u];
    for (std::size_t e = 0; e < edge_er.size(); ++e)
      merged_er[slot[static_cast<std::size_t>(net_b.graph.edges()[e].u)]++] =
          edge_er[e];
  } else if (engine && merge.merged.num_edges() > 0) {
    std::vector<ResistanceQuery> merged_queries;
    merged_queries.reserve(merge.merged.num_edges());
    for (const Edge& ed : merge.merged.edges())
      merged_queries.emplace_back(rep_s[static_cast<std::size_t>(ed.u)],
                                  rep_s[static_cast<std::size_t>(ed.v)]);
    merged_er = engine->resistances(merged_queries, pool);
  }

  SparsifyOptions so;
  so.quality = opts.sparsify_quality;
  so.seed = block_stream_seed(opts.seed, kSparsifyStreamTag, block);
  out.sparse_graph =
      sparsify_by_effective_resistance(merge.merged, merged_er, so);
  out.sparsify_seconds = phase.seconds();

  // Shunts summed into merged representatives.
  out.shunts.assign(static_cast<std::size_t>(merge.merged_count), 0.0);
  for (index_t s = 0; s < ns; ++s)
    out.shunts[static_cast<std::size_t>(
        merge.node_map[static_cast<std::size_t>(s)])] +=
        net_b.shunts[static_cast<std::size_t>(s)];
  return out;
}

ReducedModel stitch_blocks(const ConductanceNetwork& input,
                           const BlockStructure& structure,
                           const std::vector<BlockReduced>& blocks,
                           ThreadPool* pool) {
  Timer stitch_timer;
  OBS_SPAN("stitch");
  const index_t n = input.num_nodes();
  const index_t nb = structure.num_blocks;
  ReducedModel out;
  out.stats.original_nodes = n;
  out.stats.original_edges = input.graph.num_edges();
  out.stats.blocks = nb;
  out.node_map.assign(static_cast<std::size_t>(n), -1);
  out.block_of = structure.block_of;
  out.block_kept.assign(static_cast<std::size_t>(nb), {});

  // Pass 1 (serial): prefix sums fix each block's global node base and its
  // slice of the edge array; per-block phase timings fold here in fixed
  // block order (they are CPU-second aggregates — see ReductionStats).
  std::vector<index_t> node_base(static_cast<std::size_t>(nb) + 1, 0);
  std::vector<std::size_t> edge_base(static_cast<std::size_t>(nb) + 1, 0);
  for (index_t b = 0; b < nb; ++b) {
    const BlockReduced& blk = blocks[static_cast<std::size_t>(b)];
    node_base[static_cast<std::size_t>(b) + 1] =
        node_base[static_cast<std::size_t>(b)] + blk.merged_count;
    edge_base[static_cast<std::size_t>(b) + 1] =
        edge_base[static_cast<std::size_t>(b)] +
        (blk.merged_count > 0 ? blk.sparse_graph.num_edges() : 0);
    out.stats.schur_cpu_seconds += blk.schur_seconds;
    out.stats.er_cpu_seconds += blk.er_seconds;
    out.stats.sparsify_cpu_seconds += blk.sparsify_seconds;
  }
  const index_t next_global = node_base[static_cast<std::size_t>(nb)];

  std::vector<Edge> reduced_edges(edge_base[static_cast<std::size_t>(nb)]);
  std::vector<real_t> reduced_shunts(static_cast<std::size_t>(next_global),
                                     0.0);
  out.representative.assign(static_cast<std::size_t>(next_global), -1);

  // Pass 2 (parallel): every block writes only its own node range
  // [node_base[b], node_base[b+1]), its own edge slice, and the node_map
  // entries of its own members — all disjoint across blocks, so the result
  // is identical at any thread count.
  parallel_for(pool, 0, nb, 1, [&](index_t lo, index_t hi) {
    for (index_t b = lo; b < hi; ++b) {
      const BlockReduced& blk = blocks[static_cast<std::size_t>(b)];
      if (blk.merged_count == 0) continue;
      const index_t base = node_base[static_cast<std::size_t>(b)];

      for (std::size_t s = 0; s < blk.kept_orig.size(); ++s) {
        const index_t v = blk.kept_orig[s];
        const index_t gid = base + blk.merge_map[s];
        out.node_map[static_cast<std::size_t>(v)] = gid;
        if (out.representative[static_cast<std::size_t>(gid)] == -1)
          out.representative[static_cast<std::size_t>(gid)] = v;
      }
      auto& kept = out.block_kept[static_cast<std::size_t>(b)];
      kept.reserve(static_cast<std::size_t>(blk.merged_count));
      for (index_t m = 0; m < blk.merged_count; ++m) {
        reduced_shunts[static_cast<std::size_t>(base + m)] =
            blk.shunts[static_cast<std::size_t>(m)];
        kept.push_back(base + m);
      }
      const std::size_t ebase = edge_base[static_cast<std::size_t>(b)];
      const auto& bedges = blk.sparse_graph.edges();
      for (std::size_t j = 0; j < bedges.size(); ++j)
        reduced_edges[ebase + j] = {base + bedges[j].u, base + bedges[j].v,
                                    bedges[j].weight};
    }
  });

  // Serial tail: cut edges need the completed node_map, and the coalesce
  // keeps its fixed, thread-count-independent edge order.
  for (const auto& e : structure.cut_edges) {
    const index_t gu = out.node_map[static_cast<std::size_t>(e.u)];
    const index_t gv = out.node_map[static_cast<std::size_t>(e.v)];
    if (gu >= 0 && gv >= 0 && gu != gv)
      reduced_edges.push_back({gu, gv, e.weight});
  }

  Graph rg(next_global);
  rg.reserve_edges(reduced_edges.size());
  for (const auto& e : reduced_edges) rg.add_edge(e.u, e.v, e.weight);
  out.network.graph = rg.coalesce_parallel_edges();
  out.network.shunts = std::move(reduced_shunts);
  out.stats.reduced_nodes = next_global;
  out.stats.reduced_edges = out.network.graph.num_edges();
  out.stats.stitch_seconds = stitch_timer.seconds();
  return out;
}

ModelPtr reduce_network_frozen(const ConductanceNetwork& input,
                               const std::vector<char>& is_port,
                               const ReductionOptions& opts) {
  const index_t n = input.num_nodes();
  if (is_port.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("reduce_network: is_port size mismatch");

  Timer total_timer;
  // The pool is shared by every stage: partitioner levels, block dispatch,
  // batched ER queries / RP row solves inside blocks, and the stitch.
  const std::unique_ptr<ThreadPool> pool = transient_pool(opts.parallel.num_threads);

  BlockStructure structure;
  Timer phase;
  {
    OBS_SPAN("partition");
    structure = build_block_structure(input, is_port, opts, pool.get());
  }
  const double partition_seconds = phase.seconds();

  // Steps 2-4 are independent per block; dispatch them across the pool.
  // Each task writes only its own slot, and every random stream is derived
  // from (seed, block), so the result is identical at any thread count.
  phase.reset();
  std::vector<BlockReduced> blocks(
      static_cast<std::size_t>(structure.num_blocks));
  {
    OBS_SPAN("reduce");
    parallel_for(pool.get(), 0, structure.num_blocks, 1,
                 [&](index_t lo, index_t hi) {
                   for (index_t b = lo; b < hi; ++b)
                     blocks[static_cast<std::size_t>(b)] = reduce_block(
                         input, is_port, structure, b, opts, pool.get());
                 });
  }
  const double reduce_seconds = phase.seconds();

  ReducedModel model = stitch_blocks(input, structure, blocks, pool.get());
  model.stats.partition_seconds = partition_seconds;
  model.stats.reduce_seconds = reduce_seconds;
  model.stats.total_seconds = total_timer.seconds();
  // Freeze the stitched model behind shared ownership: from here on it is
  // immutable, so serving snapshots alias it instead of copying. Warm the
  // graph's lazy CSR cache first — a frozen model may be read concurrently,
  // and the cache build mutates `mutable` state.
  (void)model.network.graph.adjacency_ptr();
  return std::make_shared<const ReducedModel>(std::move(model));
}

ReducedModel reduce_network(const ConductanceNetwork& input,
                            const std::vector<char>& is_port,
                            const ReductionOptions& opts) {
  // One-shot convenience wrapper: the copy out of the (locally owned,
  // refcount-1) shared model is noise next to the reduction itself.
  return *reduce_network_frozen(input, is_port, opts);
}

namespace {

/// Bit-exact graph equality (node count, edge order, endpoints, weights) —
/// the edge-level criterion shared by both determinism oracles below.
bool graphs_identical(const Graph& a, const Graph& b) {
  if (a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges())
    return false;
  for (std::size_t e = 0; e < a.num_edges(); ++e) {
    const Edge& ea = a.edges()[e];
    const Edge& eb = b.edges()[e];
    if (ea.u != eb.u || ea.v != eb.v || ea.weight != eb.weight) return false;
  }
  return true;
}

}  // namespace

bool blocks_identical(const BlockReduced& a, const BlockReduced& b) {
  if (a.kept_orig != b.kept_orig || a.merge_map != b.merge_map ||
      a.merged_count != b.merged_count || a.shunts != b.shunts)
    return false;
  return graphs_identical(a.sparse_graph, b.sparse_graph);
}

bool models_identical(const ReducedModel& a, const ReducedModel& b) {
  if (a.node_map != b.node_map || a.representative != b.representative ||
      a.block_of != b.block_of || a.block_kept != b.block_kept)
    return false;
  return graphs_identical(a.network.graph, b.network.graph) &&
         a.network.shunts == b.network.shunts;
}

}  // namespace er
