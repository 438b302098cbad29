#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace er {

void Graph::add_edge(index_t u, index_t v, real_t weight) {
  if (u < 0 || u >= num_nodes_ || v < 0 || v >= num_nodes_)
    throw std::out_of_range("Graph::add_edge: node index out of range");
  if (u == v) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (!(weight > 0.0))
    throw std::invalid_argument("Graph::add_edge: weight must be positive");
  edges_.push_back({u, v, weight});
  adj_valid_ = false;
}

real_t Graph::total_weight() const {
  real_t acc = 0.0;
  for (const auto& e : edges_) acc += e.weight;
  return acc;
}

std::vector<real_t> Graph::weighted_degrees() const {
  std::vector<real_t> deg(static_cast<std::size_t>(num_nodes_), 0.0);
  for (const auto& e : edges_) {
    deg[static_cast<std::size_t>(e.u)] += e.weight;
    deg[static_cast<std::size_t>(e.v)] += e.weight;
  }
  return deg;
}

Graph Graph::coalesce_parallel_edges() const {
  // Normalize (u, v) with u < v, sort, and sum runs.
  std::vector<Edge> sorted = edges_;
  for (auto& e : sorted)
    if (e.u > e.v) std::swap(e.u, e.v);
  std::sort(sorted.begin(), sorted.end(), [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  });
  Graph out(num_nodes_);
  out.reserve_edges(sorted.size());
  for (std::size_t k = 0; k < sorted.size();) {
    std::size_t j = k;
    real_t w = 0.0;
    while (j < sorted.size() && sorted[j].u == sorted[k].u &&
           sorted[j].v == sorted[k].v) {
      w += sorted[j].weight;
      ++j;
    }
    out.add_edge(sorted[k].u, sorted[k].v, w);
    k = j;
  }
  return out;
}

void Graph::build_adjacency() const {
  const std::size_t n = static_cast<std::size_t>(num_nodes_);
  adj_ptr_.assign(n + 1, 0);
  for (const auto& e : edges_) {
    ++adj_ptr_[static_cast<std::size_t>(e.u) + 1];
    ++adj_ptr_[static_cast<std::size_t>(e.v) + 1];
  }
  for (std::size_t i = 0; i < n; ++i) adj_ptr_[i + 1] += adj_ptr_[i];

  adj_nbr_.resize(2 * edges_.size());
  adj_w_.resize(2 * edges_.size());
  std::vector<offset_t> next(adj_ptr_.begin(), adj_ptr_.end() - 1);
  for (std::size_t eid = 0; eid < edges_.size(); ++eid) {
    const Edge& e = edges_[eid];
    offset_t pu = next[static_cast<std::size_t>(e.u)]++;
    adj_nbr_[static_cast<std::size_t>(pu)] = e.v;
    adj_w_[static_cast<std::size_t>(pu)] = e.weight;
    offset_t pv = next[static_cast<std::size_t>(e.v)]++;
    adj_nbr_[static_cast<std::size_t>(pv)] = e.u;
    adj_w_[static_cast<std::size_t>(pv)] = e.weight;
  }
  adj_valid_ = true;
}

const std::vector<offset_t>& Graph::adjacency_ptr() const {
  if (!adj_valid_) build_adjacency();
  return adj_ptr_;
}

const std::vector<index_t>& Graph::neighbors() const {
  if (!adj_valid_) build_adjacency();
  return adj_nbr_;
}

const std::vector<real_t>& Graph::adjacency_weights() const {
  if (!adj_valid_) build_adjacency();
  return adj_w_;
}

index_t Graph::degree(index_t u) const {
  const auto& ptr = adjacency_ptr();
  return static_cast<index_t>(ptr[static_cast<std::size_t>(u) + 1] -
                              ptr[static_cast<std::size_t>(u)]);
}

}  // namespace er
