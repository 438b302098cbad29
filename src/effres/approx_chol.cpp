#include "effres/approx_chol.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "approxinv/depth.hpp"
#include "graph/laplacian.hpp"
#include "util/timer.hpp"

namespace er {

double ApproxCholStats::nnz_ratio(index_t n) const {
  if (n < 2) return 0.0;
  return static_cast<double>(inverse_nnz) /
         (static_cast<double>(n) * std::log2(static_cast<double>(n)));
}

ApproxCholEffRes::ApproxCholEffRes(const Graph& g,
                                   const ApproxCholOptions& opts)
    : n_(g.num_nodes()) {
  std::vector<index_t> grounds;
  std::vector<index_t> labels;
  const CscMatrix lg = grounded_laplacian(g, 1.0, &grounds, &labels);
  // Connected: no pair crosses, so component_ stays empty and queries skip
  // the label lookups.
  if (grounds.size() > 1) component_ = std::move(labels);

  Timer t;
  IcholOptions ic;
  ic.droptol = opts.droptol;
  factor_ = ichol(lg, ic);
  stats_.factor_seconds = t.seconds();
  stats_.factor_nnz = factor_.nnz();
  stats_.max_depth = max_filled_graph_depth(factor_);

  t.reset();
  const std::unique_ptr<ThreadPool> owned_pool =
      opts.pool == nullptr ? transient_pool(opts.parallel.num_threads) : nullptr;
  ApproxInverseOptions zi;
  zi.epsilon = opts.epsilon;
  zi.pool = opts.pool != nullptr ? opts.pool : owned_pool.get();
  z_ = ApproxInverse::build(factor_, zi);
  stats_.inverse_seconds = t.seconds();
  stats_.inverse_nnz = z_.nnz();
}

real_t ApproxCholEffRes::resistance(index_t p, index_t q) const {
  if (p < 0 || p >= n_ || q < 0 || q >= n_)
    throw std::out_of_range("ApproxCholEffRes::resistance: node out of range");
  if (p == q) return 0.0;
  if (!component_.empty() && component_[static_cast<std::size_t>(p)] !=
                                 component_[static_cast<std::size_t>(q)])
    return std::numeric_limits<real_t>::infinity();
  const index_t pp = factor_.inv_perm[static_cast<std::size_t>(p)];
  const index_t qq = factor_.inv_perm[static_cast<std::size_t>(q)];
  return z_.column_distance_squared(pp, qq);
}

}  // namespace er
