// Algorithm 3 — effective resistances from the sparse approximate inverse
// of the (incomplete) Cholesky factor. This is the paper's headline method:
//
//   1. incomplete Cholesky on the grounded Laplacian (droptol),
//   2. Alg. 2 sparse approximate inverse Z̃ ≈ L^{-1} (epsilon),
//   3. per query (p, q): R(p,q) ≈ ||z̃_p - z̃_q||².
#pragma once

#include <vector>

#include "approxinv/approx_inverse.hpp"
#include "chol/factor.hpp"
#include "chol/ichol.hpp"
#include "effres/engine.hpp"
#include "graph/graph.hpp"
#include "order/mindeg.hpp"

namespace er {

struct ApproxCholOptions {
  real_t droptol = 1e-3;   // incomplete-Cholesky drop tolerance (paper: 1e-3)
  real_t epsilon = 1e-3;   // Alg. 2 truncation budget        (paper: 1e-3)
  /// Min-degree, not AMD, even though the other complete factors use AMD:
  /// on com-DBLP-like AMD's pivot order grows the ICT factor from 1.06 M to
  /// 2.57 M entries (ichol 0.63 -> 3.0 s) and Z~ from 16.1 M to 28.9 M
  /// entries (build 3.0 -> 7.5 s on one thread); order/mindeg.hpp.
  Ordering ordering = Ordering::kMinDeg;
  /// Use the complete factorization instead of ICT (small graphs / tests).
  /// It keeps `ordering` (min-degree by default) rather than AMD, because
  /// Z~'s size follows the pivot order, not nnz(L): nnz(Z~) min-degree ->
  /// AMD on one thread is 2.12 M -> 3.53 M on barabasi_albert(5000, 3),
  /// 0.52 M -> 0.57 M on a 60 x 60 grid and 18.8 M -> 17.7 M on
  /// G2-circuit-like (195 x 195), with nnz(L) within 1.2 % either way.
  bool complete_factorization = false;
  /// Optional pool whose workers build Alg. 2's columns from a ready
  /// queue (null = honor `parallel` below). Callers already running on a
  /// pool worker (reduce_block) may pass the same pool: the build then
  /// runs serially on the caller. Z is bit-identical at any thread count
  /// (DESIGN.md §3).
  ThreadPool* pool = nullptr;
  /// When `pool` is null: threads for the Alg. 2 build (0 = all cores).
  /// The constructor starts a pool for the build only when this asks for
  /// > 1 thread and it is not already running on a pool worker.
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
