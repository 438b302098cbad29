#include "partition/partition.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace er {

namespace {

// Chunk grains for the per-level parallel loops. Results never depend on
// the chunking: every parallel site writes per-index slots only.
constexpr index_t kEdgeGrain = 2048;
constexpr index_t kNodeGrain = 2048;

// Per-level RNG streams: matching draws on level ell come from
// mix_seed(seed ^ tag, ell), the initial partition from its own stream, so
// no draw depends on how many draws another level consumed.
constexpr std::uint64_t kMatchStreamTag = 0x70742d6d61ULL;  // "pt-ma"
constexpr std::uint64_t kInitStreamTag = 0x70742d696eULL;   // "pt-in"

/// One level of the multilevel hierarchy.
struct Level {
  Graph graph;
  std::vector<real_t> node_weight;  // accumulated original node counts
  std::vector<index_t> map_to_coarse;  // fine node -> coarse node
};

/// Heavy-edge matching: visit nodes in random order, match each unmatched
/// node with its heaviest unmatched neighbour.
std::vector<index_t> heavy_edge_matching(const Graph& g, Rng& rng) {
  const index_t n = g.num_nodes();
  std::vector<index_t> match(static_cast<std::size_t>(n), -1);
  std::vector<index_t> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (index_t i = n; i-- > 1;)
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(i + 1))]);

  const auto& ptr = g.adjacency_ptr();
  const auto& nbr = g.neighbors();
  const auto& wts = g.adjacency_weights();
  for (index_t u : order) {
    if (match[static_cast<std::size_t>(u)] != -1) continue;
    index_t best = -1;
    real_t best_w = -1.0;
    for (offset_t k = ptr[static_cast<std::size_t>(u)];
         k < ptr[static_cast<std::size_t>(u) + 1]; ++k) {
      const index_t v = nbr[static_cast<std::size_t>(k)];
      if (v == u || match[static_cast<std::size_t>(v)] != -1) continue;
      if (wts[static_cast<std::size_t>(k)] > best_w) {
        best_w = wts[static_cast<std::size_t>(k)];
        best = v;
      }
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(u)] = best;
      match[static_cast<std::size_t>(best)] = u;
    } else {
      match[static_cast<std::size_t>(u)] = u;  // stays single
    }
  }
  return match;
}

/// Contract matched pairs into a coarser level. The matching (order-
/// dependent by design) stays serial; the heavy work — coarse-weight
/// accumulation and edge contraction + coalesce — chunks across `pool`
/// with per-index writes, so the level is identical at any thread count.
Level coarsen(const Graph& g, const std::vector<real_t>& node_weight,
              Rng& rng, ThreadPool* pool) {
  const index_t n = g.num_nodes();
  const auto match = heavy_edge_matching(g, rng);

  Level lvl;
  lvl.map_to_coarse.assign(static_cast<std::size_t>(n), -1);
  // members[c] = the (one or two) fine nodes contracted into c, first
  // member first: each coarse weight is summed over its own members in
  // that fixed order, independent of chunking.
  std::vector<std::pair<index_t, index_t>> members;
  members.reserve(static_cast<std::size_t>(n));
  for (index_t u = 0; u < n; ++u) {
    if (lvl.map_to_coarse[static_cast<std::size_t>(u)] != -1) continue;
    const index_t v = match[static_cast<std::size_t>(u)];
    const auto coarse_id = static_cast<index_t>(members.size());
    lvl.map_to_coarse[static_cast<std::size_t>(u)] = coarse_id;
    lvl.map_to_coarse[static_cast<std::size_t>(v)] = coarse_id;
    members.emplace_back(u, v);
  }
  const auto coarse_n = static_cast<index_t>(members.size());

  lvl.node_weight.assign(static_cast<std::size_t>(coarse_n), 0.0);
  parallel_for(pool, 0, coarse_n, kNodeGrain, [&](index_t lo, index_t hi) {
    for (index_t c = lo; c < hi; ++c) {
      const auto& [u, v] = members[static_cast<std::size_t>(c)];
      real_t w = node_weight[static_cast<std::size_t>(u)];
      if (v != u) w += node_weight[static_cast<std::size_t>(v)];
      lvl.node_weight[static_cast<std::size_t>(c)] = w;
    }
  });

  // Map every edge to coarse endpoints in parallel (cu == cv marks a
  // contracted self-loop), then compact in index order — fixed regardless
  // of chunking — and hand the result to the shared coalesce.
  const auto& edges = g.edges();
  std::vector<Edge> contracted(edges.size());
  parallel_for(pool, 0, static_cast<index_t>(edges.size()), kEdgeGrain,
               [&](index_t lo, index_t hi) {
                 for (index_t i = lo; i < hi; ++i) {
                   const Edge& e = edges[static_cast<std::size_t>(i)];
                   const index_t cu =
                       lvl.map_to_coarse[static_cast<std::size_t>(e.u)];
                   const index_t cv =
                       lvl.map_to_coarse[static_cast<std::size_t>(e.v)];
                   contracted[static_cast<std::size_t>(i)] = {cu, cv,
                                                              e.weight};
                 }
               });
  Graph cg(coarse_n);
  cg.reserve_edges(contracted.size());
  for (const auto& e : contracted)
    if (e.u != e.v) cg.add_edge(e.u, e.v, e.weight);
  lvl.graph = cg.coalesce_parallel_edges();
  return lvl;
}

/// Greedy region growing on the coarsest graph: grow each part by BFS from
/// an unassigned seed until the target weight is reached.
std::vector<index_t> initial_partition(const Graph& g,
                                       const std::vector<real_t>& node_weight,
                                       index_t k, Rng& rng) {
  const index_t n = g.num_nodes();
  std::vector<index_t> part(static_cast<std::size_t>(n), -1);
  real_t total = 0.0;
  for (real_t w : node_weight) total += w;
  const real_t target = total / static_cast<real_t>(k);

  const auto& ptr = g.adjacency_ptr();
  const auto& nbr = g.neighbors();

  std::vector<index_t> queue;
  index_t assigned = 0;
  for (index_t p = 0; p < k && assigned < n; ++p) {
    // Seed: random unassigned node.
    index_t seed = -1;
    for (int tries = 0; tries < 64 && seed < 0; ++tries) {
      const index_t cand = rng.uniform_int(n);
      if (part[static_cast<std::size_t>(cand)] == -1) seed = cand;
    }
    if (seed < 0) {
      for (index_t v = 0; v < n; ++v)
        if (part[static_cast<std::size_t>(v)] == -1) {
          seed = v;
          break;
        }
    }
    if (seed < 0) break;

    // Claim nodes when they are *popped*, not when pushed: on small-diameter
    // (heavy-tailed) graphs the BFS frontier can exceed the whole target, so
    // eager assignment would swallow most of the graph into one part.
    real_t grown = 0.0;
    queue.clear();
    queue.push_back(seed);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const index_t u = queue[head];
      if (part[static_cast<std::size_t>(u)] != -1) continue;
      part[static_cast<std::size_t>(u)] = p;
      grown += node_weight[static_cast<std::size_t>(u)];
      ++assigned;
      if (grown >= target && p + 1 < k) break;
      for (offset_t e = ptr[static_cast<std::size_t>(u)];
           e < ptr[static_cast<std::size_t>(u) + 1]; ++e) {
        const index_t v = nbr[static_cast<std::size_t>(e)];
        if (part[static_cast<std::size_t>(v)] == -1) queue.push_back(v);
      }
    }
  }
  // Any leftovers: attach to an adjacent part (or part 0).
  for (index_t v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] != -1) continue;
    index_t p = 0;
    for (offset_t e = ptr[static_cast<std::size_t>(v)];
         e < ptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const index_t u = nbr[static_cast<std::size_t>(e)];
      if (part[static_cast<std::size_t>(u)] != -1) {
        p = part[static_cast<std::size_t>(u)];
        break;
      }
    }
    part[static_cast<std::size_t>(v)] = p;
  }
  return part;
}

/// Boundary refinement: greedy positive-gain moves under a balance cap.
/// Two-phase per pass: the boundary scan — the heavy gain-relevant sweep
/// over every node's adjacency — runs across `pool` against the partition
/// as it stands at pass start, then moves are applied serially in node
/// order with exact live gains. The candidate set is a pure per-node
/// function of the pass-start partition, so the refined partition is
/// identical at any thread count (an interior node that turns boundary
/// mid-pass is picked up by the next pass).
void refine(const Graph& g, const std::vector<real_t>& node_weight, index_t k,
            real_t balance_factor, int passes, std::vector<index_t>& part,
            ThreadPool* pool) {
  const index_t n = g.num_nodes();
  // Touching the adjacency here also forces the lazy CSR build before the
  // parallel scan (concurrent first-builds of the cache would race).
  const auto& ptr = g.adjacency_ptr();
  const auto& nbr = g.neighbors();
  const auto& wts = g.adjacency_weights();

  std::vector<real_t> part_weight(static_cast<std::size_t>(k), 0.0);
  real_t total = 0.0;
  for (index_t v = 0; v < n; ++v) {
    part_weight[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
        node_weight[static_cast<std::size_t>(v)];
    total += node_weight[static_cast<std::size_t>(v)];
  }
  const real_t cap = balance_factor * total / static_cast<real_t>(k);

  std::vector<char> boundary(static_cast<std::size_t>(n), 0);
  std::vector<real_t> gain_to(static_cast<std::size_t>(k), 0.0);
  std::vector<index_t> touched;
  for (int pass = 0; pass < passes; ++pass) {
    // Phase 1 (parallel): flag nodes with a neighbor in another part.
    // Only such nodes can have a candidate move below.
    parallel_for(pool, 0, n, kNodeGrain, [&](index_t lo, index_t hi) {
      for (index_t v = lo; v < hi; ++v) {
        const index_t pv = part[static_cast<std::size_t>(v)];
        char flag = 0;
        for (offset_t e = ptr[static_cast<std::size_t>(v)];
             e < ptr[static_cast<std::size_t>(v) + 1]; ++e) {
          if (part[static_cast<std::size_t>(
                  nbr[static_cast<std::size_t>(e)])] != pv) {
            flag = 1;
            break;
          }
        }
        boundary[static_cast<std::size_t>(v)] = flag;
      }
    });

    // Phase 2 (serial): exact gains against the live partition, moves
    // applied in fixed node order.
    bool moved_any = false;
    for (index_t v = 0; v < n; ++v) {
      if (!boundary[static_cast<std::size_t>(v)]) continue;
      const index_t from = part[static_cast<std::size_t>(v)];
      touched.clear();
      real_t internal = 0.0;
      for (offset_t e = ptr[static_cast<std::size_t>(v)];
           e < ptr[static_cast<std::size_t>(v) + 1]; ++e) {
        const index_t pu = part[static_cast<std::size_t>(
            nbr[static_cast<std::size_t>(e)])];
        const real_t w = wts[static_cast<std::size_t>(e)];
        if (pu == from) {
          internal += w;
        } else {
          if (gain_to[static_cast<std::size_t>(pu)] == 0.0) touched.push_back(pu);
          gain_to[static_cast<std::size_t>(pu)] += w;
        }
      }
      // Positive-gain moves always; when the source part is overloaded,
      // zero/negative-gain moves to a lighter part are allowed too, so
      // refinement doubles as rebalancing.
      const bool from_over =
          part_weight[static_cast<std::size_t>(from)] > cap;
      index_t best = -1;
      real_t best_gain = from_over ? -1e30 : 0.0;
      for (index_t p : touched) {
        const real_t gain = gain_to[static_cast<std::size_t>(p)] - internal;
        const bool fits = part_weight[static_cast<std::size_t>(p)] +
                              node_weight[static_cast<std::size_t>(v)] <=
                          cap;
        const bool lighter = part_weight[static_cast<std::size_t>(p)] <
                             part_weight[static_cast<std::size_t>(from)];
        if (gain > best_gain && (fits || (from_over && lighter))) {
          best_gain = gain;
          best = p;
        }
        gain_to[static_cast<std::size_t>(p)] = 0.0;
      }
      if (best >= 0) {
        part_weight[static_cast<std::size_t>(from)] -=
            node_weight[static_cast<std::size_t>(v)];
        part_weight[static_cast<std::size_t>(best)] +=
            node_weight[static_cast<std::size_t>(v)];
        part[static_cast<std::size_t>(v)] = best;
        moved_any = true;
      }
    }
    if (!moved_any) break;
  }
}

}  // namespace

std::size_t PartitionResult::cut_edges(const Graph& g) const {
  std::size_t acc = 0;
  for (const auto& e : g.edges())
    if (part[static_cast<std::size_t>(e.u)] !=
        part[static_cast<std::size_t>(e.v)])
      ++acc;
  return acc;
}

real_t PartitionResult::balance(const Graph& g) const {
  if (num_parts == 0) return 0.0;
  std::vector<index_t> count(static_cast<std::size_t>(num_parts), 0);
  for (index_t p : part) ++count[static_cast<std::size_t>(p)];
  const index_t target =
      (g.num_nodes() + num_parts - 1) / num_parts;  // ceil(n/k)
  index_t mx = 0;
  for (index_t c : count) mx = std::max(mx, c);
  return static_cast<real_t>(mx) / static_cast<real_t>(target);
}

PartitionResult partition_graph(const Graph& g, const PartitionOptions& opts,
                                ThreadPool* pool) {
  if (opts.num_parts <= 0)
    throw std::invalid_argument("partition_graph: num_parts must be > 0");
  const index_t n = g.num_nodes();
  PartitionResult res;
  res.num_parts = opts.num_parts;
  if (opts.num_parts == 1 || n <= opts.num_parts) {
    // Trivial cases: all in one part, or one node per part round-robin.
    res.part.assign(static_cast<std::size_t>(n), 0);
    if (n <= opts.num_parts)
      for (index_t v = 0; v < n; ++v)
        res.part[static_cast<std::size_t>(v)] = v % opts.num_parts;
    return res;
  }

  // --- Coarsening phase. Each level's matching draws from its own
  // mix_seed stream, so a level's randomness never depends on how many
  // draws earlier levels consumed. ---
  std::vector<Level> levels;
  {
    Level base;
    base.graph = g;
    base.node_weight.assign(static_cast<std::size_t>(n), 1.0);
    levels.push_back(std::move(base));
  }
  const index_t coarse_target = std::max<index_t>(
      opts.num_parts * opts.coarsen_target_per_part, 2 * opts.num_parts);
  while (levels.back().graph.num_nodes() > coarse_target) {
    Rng level_rng(mix_seed(opts.seed ^ kMatchStreamTag,
                           static_cast<std::uint64_t>(levels.size() - 1)));
    Level next = coarsen(levels.back().graph, levels.back().node_weight,
                         level_rng, pool);
    // Stop if matching stalls (e.g. star graphs).
    if (next.graph.num_nodes() >
        static_cast<index_t>(0.95 * levels.back().graph.num_nodes()))
      break;
    levels.push_back(std::move(next));
  }

  // --- Initial partition on the coarsest level. ---
  Rng init_rng(mix_seed(opts.seed ^ kInitStreamTag, 0));
  std::vector<index_t> part =
      initial_partition(levels.back().graph, levels.back().node_weight,
                        opts.num_parts, init_rng);
  refine(levels.back().graph, levels.back().node_weight, opts.num_parts,
         opts.balance_factor, opts.refinement_passes, part, pool);

  // --- Uncoarsening with refinement. ---
  for (std::size_t lvl = levels.size(); lvl-- > 1;) {
    const Level& fine = levels[lvl - 1];
    const Level& coarse = levels[lvl];
    std::vector<index_t> fine_part(
        static_cast<std::size_t>(fine.graph.num_nodes()));
    for (index_t v = 0; v < fine.graph.num_nodes(); ++v)
      fine_part[static_cast<std::size_t>(v)] = part[static_cast<std::size_t>(
          coarse.map_to_coarse[static_cast<std::size_t>(v)])];
    part = std::move(fine_part);
    refine(fine.graph, fine.node_weight, opts.num_parts, opts.balance_factor,
           opts.refinement_passes, part, pool);
  }

  res.part = std::move(part);
  return res;
}

}  // namespace er
