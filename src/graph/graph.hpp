// Weighted undirected graph G = (V, E, w) — the paper's input object.
//
// Storage is an edge list plus a CSR-style adjacency built on demand.
// Self-loops are rejected (they do not affect effective resistances);
// parallel edges are allowed and behave as conductances in parallel.
#pragma once

#include <vector>

#include "util/types.hpp"

namespace er {

/// One undirected edge with positive weight (conductance).
struct Edge {
  index_t u = 0;
  index_t v = 0;
  real_t weight = 1.0;
};

class Graph {
 public:
  Graph() = default;
  explicit Graph(index_t num_nodes) : num_nodes_(num_nodes) {}

  /// Add an undirected edge; weight must be > 0, u != v.
  void add_edge(index_t u, index_t v, real_t weight = 1.0);

  void reserve_edges(std::size_t m) { edges_.reserve(m); }

  [[nodiscard]] index_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  /// Sum of all edge weights.
  [[nodiscard]] real_t total_weight() const;

  /// Weighted degree of each node (sum of incident edge weights).
  [[nodiscard]] std::vector<real_t> weighted_degrees() const;

  /// Merge parallel edges (summing weights); returns the simplified graph.
  [[nodiscard]] Graph coalesce_parallel_edges() const;

  /// CSR adjacency access. adjacency_ptr has num_nodes()+1 entries;
  /// neighbors/adjacency_weights are parallel arrays of length
  /// 2*num_edges(). Built lazily; invalidated by add_edge.
  const std::vector<offset_t>& adjacency_ptr() const;
  const std::vector<index_t>& neighbors() const;
  const std::vector<real_t>& adjacency_weights() const;

  /// Plain (unweighted) degree.
  [[nodiscard]] index_t degree(index_t u) const;

 private:
  void build_adjacency() const;

  index_t num_nodes_ = 0;
  std::vector<Edge> edges_;

  // Lazy adjacency cache.
  mutable bool adj_valid_ = false;
  mutable std::vector<offset_t> adj_ptr_;
  mutable std::vector<index_t> adj_nbr_;
  mutable std::vector<real_t> adj_w_;
};

}  // namespace er
