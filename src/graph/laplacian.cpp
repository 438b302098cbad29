#include "graph/laplacian.hpp"

#include <stdexcept>
#include <utility>

#include "graph/components.hpp"

namespace er {

CscMatrix laplacian(const Graph& g) {
  TripletMatrix t(g.num_nodes(), g.num_nodes());
  t.reserve(4 * g.num_edges());
  for (const auto& e : g.edges()) t.stamp_conductance(e.u, e.v, e.weight);
  return CscMatrix::from_triplets(t);
}

CscMatrix incidence(const Graph& g) {
  const auto m = static_cast<index_t>(g.num_edges());
  TripletMatrix t(m, g.num_nodes());
  t.reserve(2 * g.num_edges());
  for (std::size_t eid = 0; eid < g.num_edges(); ++eid) {
    const Edge& e = g.edges()[eid];
    t.add(static_cast<index_t>(eid), e.u, 1.0);
    t.add(static_cast<index_t>(eid), e.v, -1.0);
  }
  return CscMatrix::from_triplets(t);
}

CscMatrix edge_weight_matrix(const Graph& g) {
  const auto m = static_cast<index_t>(g.num_edges());
  TripletMatrix t(m, m);
  t.reserve(g.num_edges());
  for (std::size_t eid = 0; eid < g.num_edges(); ++eid)
    t.add(static_cast<index_t>(eid), static_cast<index_t>(eid),
          g.edges()[eid].weight);
  return CscMatrix::from_triplets(t);
}

CscMatrix grounded_laplacian(const Graph& g, real_t ground_conductance,
                             std::vector<index_t>* grounded_nodes,
                             std::vector<index_t>* component_of) {
  if (!(ground_conductance > 0.0))
    throw std::invalid_argument("grounded_laplacian: conductance must be > 0");
  TripletMatrix t(g.num_nodes(), g.num_nodes());
  t.reserve(4 * g.num_edges() + 4);
  for (const auto& e : g.edges()) t.stamp_conductance(e.u, e.v, e.weight);

  auto comp = connected_components(g);
  std::vector<index_t> reps(static_cast<std::size_t>(comp.count), -1);
  for (index_t v = 0; v < g.num_nodes(); ++v) {
    const index_t c = comp.label[static_cast<std::size_t>(v)];
    if (reps[static_cast<std::size_t>(c)] < 0) {
      reps[static_cast<std::size_t>(c)] = v;
      t.add(v, v, ground_conductance);
    }
  }
  if (grounded_nodes) *grounded_nodes = std::move(reps);
  if (component_of) *component_of = std::move(comp.label);
  return CscMatrix::from_triplets(t);
}

CscMatrix laplacian_with_shunts(const Graph& g,
                                const std::vector<real_t>& shunts) {
  if (shunts.size() != static_cast<std::size_t>(g.num_nodes()))
    throw std::invalid_argument("laplacian_with_shunts: size mismatch");
  TripletMatrix t(g.num_nodes(), g.num_nodes());
  t.reserve(4 * g.num_edges() + shunts.size());
  for (const auto& e : g.edges()) t.stamp_conductance(e.u, e.v, e.weight);
  for (index_t v = 0; v < g.num_nodes(); ++v)
    if (shunts[static_cast<std::size_t>(v)] != 0.0)
      t.add(v, v, shunts[static_cast<std::size_t>(v)]);
  return CscMatrix::from_triplets(t);
}

}  // namespace er
