// Random-projection effective resistances — the WWW'15 baseline [1]
// (Mavroforakis, Garcia-Lebron, Koutis, Terzi), built on Spielman-Srivastava
// (paper Eq. (4)-(5)):
//
//   R(p,q) ≈ || Y e_p - Y e_q ||²  with  Y = Q W^{1/2} B L†,
//
// where Q is a k x m random ±1/sqrt(k) matrix. Each of the k rows costs one
// Laplacian solve; the authors use the CMG solver, this implementation uses
// PCG preconditioned with incomplete Cholesky (same role — see DESIGN.md §2).
//
// The preconditioner's ICT factor is min-degree ordered, not AMD: on
// com-DBLP-like AMD's pivot order grows the ICT factor from 1.06 M to
// 2.57 M entries and ichol from 0.63 to 3.0 s (order/mindeg.hpp).
#pragma once

#include <vector>

#include "chol/factor.hpp"
#include "effres/engine.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/pcg.hpp"

namespace er {

struct RandomProjectionOptions {
  /// Number of projection rows; 0 means auto: ceil(scale * log2(n)).
  index_t dimensions = 0;
  real_t auto_scale = 16.0;
  std::uint64_t seed = 12345;
  real_t solver_tolerance = 1e-8;
  int solver_max_iterations = 1000;
  real_t ichol_droptol = 1e-3;  // preconditioner quality
  /// Optional pool for the k per-row solves during construction (null =
  /// serial). Row r draws its projection vector from its own stream
  /// mix_seed(seed, r), so the embedding is bit-identical at any thread
  /// count (DESIGN.md §3). Any thread may pass it, a worker of the same
  /// pool included (reduce_block): the calling thread runs rows while
  /// idle workers join in.
  ThreadPool* pool = nullptr;
};

struct RandomProjectionStats {
  index_t dimensions = 0;
  double build_seconds = 0.0;
  long total_solver_iterations = 0;
  /// Rows whose PCG solve hit max_iterations without reaching the residual
  /// tolerance. Nonzero means the embedding — and any accuracy numbers
  /// derived from it — rests on unconverged solves; bench tables flag it.
  index_t nonconverged_rows = 0;
  /// nnz of the dense k x n projected matrix, normalized by n log2 n —
  /// the paper's nnz(Q)/(n log n) column.
  offset_t projection_nnz = 0;
  [[nodiscard]] double nnz_ratio(index_t n) const;
};

class RandomProjectionEffRes final : public EffResEngine {
 public:
  RandomProjectionEffRes(const Graph& g,
                         const RandomProjectionOptions& opts = {});

  [[nodiscard]] real_t resistance(index_t p, index_t q) const override;
  [[nodiscard]] std::string name() const override { return "random-projection"; }

  [[nodiscard]] const RandomProjectionStats& stats() const { return stats_; }

 private:
  index_t n_ = 0;
  index_t k_ = 0;
  /// Connected-component label per node (empty when the graph is
  /// connected): pairs across components answer +infinity, where
  /// the embedding alone would give a finite distance.
  std::vector<index_t> component_;
  // Column-major k x n embedding: column p is the k-vector of node p.
  std::vector<real_t> embedding_;
  RandomProjectionStats stats_;
};

}  // namespace er
