#include "effres/random_projection.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "chol/ichol.hpp"
#include "graph/laplacian.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace er {

double RandomProjectionStats::nnz_ratio(index_t n) const {
  if (n < 2) return 0.0;
  return static_cast<double>(projection_nnz) /
         (static_cast<double>(n) * std::log2(static_cast<double>(n)));
}

RandomProjectionEffRes::RandomProjectionEffRes(
    const Graph& g, const RandomProjectionOptions& opts)
    : n_(g.num_nodes()) {
  Timer timer;

  k_ = opts.dimensions > 0
           ? opts.dimensions
           : static_cast<index_t>(std::ceil(
                 opts.auto_scale *
                 std::log2(static_cast<double>(std::max<index_t>(n_, 2)))));

  std::vector<index_t> grounds;
  std::vector<index_t> labels;
  const CscMatrix lg = grounded_laplacian(g, 1.0, &grounds, &labels);
  // Connected: no pair crosses, so component_ stays empty and queries skip
  // the label lookups.
  if (grounds.size() > 1) component_ = std::move(labels);
  IcholOptions ic;
  ic.droptol = opts.ichol_droptol;
  const CholFactor precond_factor = ichol(lg, ic);
  const Preconditioner precond = ichol_preconditioner(precond_factor);

  PcgOptions pcg_opts;
  pcg_opts.rel_tolerance = opts.solver_tolerance;
  pcg_opts.max_iterations = opts.solver_max_iterations;

  embedding_.assign(static_cast<std::size_t>(k_) * static_cast<std::size_t>(n_),
                    0.0);
  const real_t inv_sqrt_k = 1.0 / std::sqrt(static_cast<real_t>(k_));

  // Row r of Y solves L y = B^T W^{1/2} q_r, with q_r a ±1/sqrt(k) vector
  // over edges. The right-hand side is assembled edge by edge without
  // forming B explicitly. Each row draws q_r from its own stream
  // mix_seed(seed, r) and writes a disjoint stride-k slice of the
  // embedding, so the rows parallelize with a bit-identical result at any
  // thread count; per-row counters are folded serially below.
  std::vector<int> row_iterations(static_cast<std::size_t>(k_), 0);
  std::vector<char> row_nonconverged(static_cast<std::size_t>(k_), 0);
  parallel_for(opts.pool, 0, k_, 1, [&](index_t lo, index_t hi) {
    std::vector<real_t> rhs(static_cast<std::size_t>(n_));
    for (index_t r = lo; r < hi; ++r) {
      Rng rng(mix_seed(opts.seed, static_cast<std::uint64_t>(r)));
      std::fill(rhs.begin(), rhs.end(), 0.0);
      for (const auto& e : g.edges()) {
        const real_t qe = rng.sign() * inv_sqrt_k * std::sqrt(e.weight);
        rhs[static_cast<std::size_t>(e.u)] += qe;
        rhs[static_cast<std::size_t>(e.v)] -= qe;
      }
      const PcgResult sol = pcg_solve(lg, rhs, precond, pcg_opts);
      row_iterations[static_cast<std::size_t>(r)] = sol.iterations;
      row_nonconverged[static_cast<std::size_t>(r)] = sol.converged ? 0 : 1;
      for (index_t v = 0; v < n_; ++v)
        embedding_[static_cast<std::size_t>(v) * k_ + r] =
            sol.x[static_cast<std::size_t>(v)];
    }
  });
  for (index_t r = 0; r < k_; ++r) {
    stats_.total_solver_iterations += row_iterations[static_cast<std::size_t>(r)];
    if (row_nonconverged[static_cast<std::size_t>(r)])
      ++stats_.nonconverged_rows;
  }

  stats_.dimensions = k_;
  stats_.build_seconds = timer.seconds();
  stats_.projection_nnz =
      static_cast<offset_t>(k_) * static_cast<offset_t>(n_);
}

real_t RandomProjectionEffRes::resistance(index_t p, index_t q) const {
  if (p < 0 || p >= n_ || q < 0 || q >= n_)
    throw std::out_of_range("RandomProjectionEffRes: node out of range");
  if (p == q) return 0.0;
  if (!component_.empty() && component_[static_cast<std::size_t>(p)] !=
                                 component_[static_cast<std::size_t>(q)])
    return std::numeric_limits<real_t>::infinity();
  const real_t* cp = embedding_.data() + static_cast<std::size_t>(p) * k_;
  const real_t* cq = embedding_.data() + static_cast<std::size_t>(q) * k_;
  real_t acc = 0.0;
  for (index_t r = 0; r < k_; ++r) {
    const real_t d = cp[r] - cq[r];
    acc += d * d;
  }
  return acc;
}

}  // namespace er
