// Algorithm 3 — effective resistances from the sparse approximate inverse
// of the (incomplete) Cholesky factor. This is the paper's headline method:
//
//   1. incomplete Cholesky on the grounded Laplacian (droptol; 0 is the
//      complete factor), in min-degree order,
//   2. Alg. 2 sparse approximate inverse Z̃ ≈ L^{-1} (epsilon),
//   3. per query (p, q): R(p,q) ≈ ||z̃_p - z̃_q||².
#pragma once

#include <vector>

#include "approxinv/approx_inverse.hpp"
#include "chol/factor.hpp"
#include "chol/ichol.hpp"
#include "effres/engine.hpp"
#include "graph/graph.hpp"

namespace er {

struct ApproxCholOptions {
  /// Incomplete-Cholesky drop tolerance (paper: 1e-3). The factor is ICT in
  /// min-degree order (chol/ichol.hpp); 0 keeps every fill entry and gives
  /// the complete factor in that order.
  real_t droptol = 1e-3;
  real_t epsilon = 1e-3;   // Alg. 2 truncation budget        (paper: 1e-3)
  /// Optional pool whose idle workers join the calling thread in building
  /// Alg. 2's columns from a ready queue (null = honor `parallel` below).
  /// Any thread may pass it, a worker of the same pool included
  /// (reduce_block). Z is bit-identical at any thread count (DESIGN.md §3).
  ThreadPool* pool = nullptr;
  /// When `pool` is null: threads for the Alg. 2 build (0 = all cores).
  /// The constructor starts a pool for the build only when this asks for
  /// > 1 thread.
  ParallelOptions parallel{0};
};

/// Timing/size diagnostics mirroring the columns of the paper's Table I.
struct ApproxCholStats {
  double factor_seconds = 0.0;
  double inverse_seconds = 0.0;
  offset_t factor_nnz = 0;
  offset_t inverse_nnz = 0;
  index_t max_depth = 0;  // `dpt` column
  /// nnz(Z̃) / (n log2 n) — the paper's normalized size column.
  [[nodiscard]] double nnz_ratio(index_t n) const;
};

class ApproxCholEffRes final : public EffResEngine {
 public:
  explicit ApproxCholEffRes(const Graph& g, const ApproxCholOptions& opts = {});

  [[nodiscard]] real_t resistance(index_t p, index_t q) const override;
  [[nodiscard]] std::string name() const override { return "approx-chol"; }

  [[nodiscard]] const ApproxCholStats& stats() const { return stats_; }
  [[nodiscard]] const ApproxInverse& approximate_inverse() const { return z_; }
  [[nodiscard]] const CholFactor& factor() const { return factor_; }

 private:
  index_t n_ = 0;
  /// Connected-component label per node (empty when the graph is
  /// connected): pairs across components answer +infinity, where
  /// Z̃'s columns alone would give a finite distance.
  std::vector<index_t> component_;
  CholFactor factor_;
  ApproxInverse z_;
  ApproxCholStats stats_;
};

}  // namespace er
