#include "effres/exact.hpp"

#include <limits>
#include <stdexcept>

#include "chol/cholesky.hpp"
#include "graph/laplacian.hpp"

namespace er {

ExactEffRes::ExactEffRes(const Graph& g)
    : n_(g.num_nodes()), factor_(cholesky(grounded_laplacian(g))) {}

real_t ExactEffRes::resistance(index_t p, index_t q) const {
  if (p < 0 || p >= n_ || q < 0 || q >= n_)
    throw std::out_of_range("ExactEffRes::resistance: node out of range");
  if (p == q) return 0.0;
  // Thread-safe without per-call allocation: each thread reuses one reach
  // workspace across queries (sparse_forward leaves it clean).
  static thread_local ReachWorkspace ws;
  // R = ||L^{-1} P (e_p - e_q)||^2, forward-only along the etree reach.
  // One etree per connected component: a reach spanning two trees means p
  // and q are disconnected, and no current flows between them.
  const index_t idx[2] = {factor_.inv_perm[static_cast<std::size_t>(p)],
                          factor_.inv_perm[static_cast<std::size_t>(q)]};
  const real_t vals[2] = {1.0, -1.0};
  factor_.sparse_forward(idx, vals, 2, ws);
  if (ws.trees > 1) return std::numeric_limits<real_t>::infinity();
  real_t r = 0.0;
  for (const real_t y : ws.y) r += y * y;
  return r;
}

}  // namespace er
