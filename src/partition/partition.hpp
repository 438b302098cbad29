// Multilevel k-way graph partitioner — the role METIS plays in the paper's
// Alg. 1 (power-grid blocks). Heavy-edge-matching coarsening, greedy region
// growing for the initial partition, and boundary Fiduccia–Mattheyses-style
// refinement during uncoarsening.
//
// Quality target: balanced parts with a modest cut. Reduction accuracy in
// the downstream pipeline is dominated by the effective-resistance sampling,
// not by cut optimality, so this does not need METIS-level refinement.
//
// Concurrency (DESIGN.md §3): the heavy per-level work — edge contraction,
// coarse-weight accumulation, and the boundary scan that feeds refinement —
// chunks across an optional ThreadPool into per-index slots; the matching
// order, all moves, and every RNG draw (one mix_seed stream per level) stay
// serial, so the partition is bit-identical at any thread count.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "util/types.hpp"

namespace er {

struct PartitionOptions {
  index_t num_parts = 2;
  /// Allowed imbalance: max part weight <= balance_factor * (total/k).
  real_t balance_factor = 1.10;
  int refinement_passes = 4;
  /// Stop coarsening when the graph has at most this many nodes per part.
  index_t coarsen_target_per_part = 30;
  std::uint64_t seed = 1;
};

struct PartitionResult {
  index_t num_parts = 0;
  std::vector<index_t> part;  // node -> part id in [0, num_parts)

  /// Number of edges crossing parts.
  [[nodiscard]] std::size_t cut_edges(const Graph& g) const;
  /// max part node-count / ceil(n / k) — 1.0 is perfectly balanced.
  [[nodiscard]] real_t balance(const Graph& g) const;
};

/// Partition g into opts.num_parts parts. `pool` (optional) parallelizes
/// the per-level heavy work; the result is identical at any thread count.
PartitionResult partition_graph(const Graph& g, const PartitionOptions& opts,
                                ThreadPool* pool = nullptr);

}  // namespace er
