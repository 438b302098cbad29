#include "serve/snapshot.hpp"

#include <stdexcept>
#include <utility>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "chol/cholesky.hpp"
#include "order/amd.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

/// Reduced nodes incident to an edge between two partition blocks
/// (block_kept[b] lists the reduced ids of block b).
index_t count_boundary_nodes(const ReducedModel& model) {
  const Graph& g = model.network.graph;
  std::vector<index_t> block_of(static_cast<std::size_t>(g.num_nodes()), -1);
  for (std::size_t b = 0; b < model.block_kept.size(); ++b)
    for (const index_t v : model.block_kept[b])
      block_of[static_cast<std::size_t>(v)] = static_cast<index_t>(b);
  std::vector<char> flag(block_of.size(), 0);
  for (const Edge& e : g.edges())
    if (block_of[static_cast<std::size_t>(e.u)] !=
        block_of[static_cast<std::size_t>(e.v)]) {
      flag[static_cast<std::size_t>(e.u)] = 1;
      flag[static_cast<std::size_t>(e.v)] = 1;
    }
  index_t count = 0;
  for (const char f : flag) count += f;
  return count;
}

}  // namespace

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    ModelPtr input_model, std::uint64_t version, ThreadPool* pool) {
  if (!input_model)
    throw std::invalid_argument("ModelSnapshot::build: null model");
  Timer timer;
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  // Alias the frozen model version: the producer (reduce_network_frozen
  // / IncrementalReducer) builds each version into a fresh allocation and
  // never mutates it afterwards, so the snapshot pins it instead of
  // copying O(nodes + edges) state per publish (DESIGN.md §4.1).
  snap->model_ = std::move(input_model);
  snap->version_ = version;
  snap->num_boundary_nodes_ = count_boundary_nodes(*snap->model_);
  const CscMatrix g = snap->model_->network.system_matrix();
  Timer phase;
  const std::vector<index_t> perm = amd_order(g);
  snap->order_seconds_ = phase.seconds();
  phase.reset();
  snap->factor_ = cholesky(g, perm, pool);
  snap->factor_seconds_ = phase.seconds();
  snap->build_seconds_ = timer.seconds();
  return snap;
}

// The factor is the largest block a publish allocates (~10 MB on the served
// G). glibc raises its mmap threshold to the size of the largest mmapped
// block freed so far, so once one factor has been freed, later factors of
// equal or smaller size come from a thread's arena instead, and freeing
// them keeps their pages resident for that arena's later use only. A
// process that retires several snapshots and then allocates on other
// threads peaks higher for it: perfbench's wire_zipf_churn (4-core host)
// peaked at 229 MiB without the trim and 193 MiB with it, and malloc_trim
// took 0.6-3 ms per retired snapshot.
ModelSnapshot::~ModelSnapshot() {
  factor_ = CholFactor();
  model_.reset();
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

index_t ModelSnapshot::reduced_id(index_t original) const {
  if (original < 0 ||
      static_cast<std::size_t>(original) >= model_->node_map.size())
    return -1;
  return model_->node_map[static_cast<std::size_t>(original)];
}

real_t squared_norm(const ReachWorkspace& rw) {
  real_t s = 0.0;
  for (const real_t y : rw.y) s += y * y;
  return s;
}

real_t reach_dot(const std::vector<index_t>& ra, const std::vector<real_t>& ya,
                 const std::vector<index_t>& rb, const std::vector<real_t>& yb) {
  real_t s = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ra.size() && j < rb.size()) {
    if (ra[i] < rb[j]) {
      ++i;
    } else if (rb[j] < ra[i]) {
      ++j;
    } else {
      s += ya[i++] * yb[j++];
    }
  }
  return s;
}

// With G = P^T L L^T P: a^T G^{-1} b = (L^{-1} P a) . (L^{-1} P b), and each
// factor is a forward-only reach solve.

real_t ModelSnapshot::response(index_t p, index_t q, Workspace& ws) const {
  unit_solve(p, ws.reach);
  // Keep the first solve while the workspace runs the second one.
  ws.first_reach.assign(ws.reach.reach.begin(), ws.reach.reach.end());
  ws.first_y.assign(ws.reach.y.begin(), ws.reach.y.end());
  unit_solve(q, ws.reach);
  return reach_dot(ws.first_reach, ws.first_y, ws.reach.reach, ws.reach.y);
}

real_t ModelSnapshot::resistance(index_t p, index_t q, Workspace& ws) const {
  if (p == q) return 0.0;
  difference_solve(p, q, ws.reach);
  return squared_norm(ws.reach);
}

void ModelSnapshot::unit_solve(index_t p, ReachWorkspace& ws) const {
  const real_t one = 1.0;
  const index_t pp = factor_.inv_perm[static_cast<std::size_t>(p)];
  factor_.sparse_forward(&pp, &one, 1, ws);
}

void ModelSnapshot::difference_solve(index_t p, index_t q,
                                     ReachWorkspace& ws) const {
  const index_t idx[2] = {factor_.inv_perm[static_cast<std::size_t>(p)],
                          factor_.inv_perm[static_cast<std::size_t>(q)]};
  const real_t vals[2] = {1.0, -1.0};
  factor_.sparse_forward(idx, vals, 2, ws);
}

}  // namespace er
