// Exact effective resistances via a complete sparse Cholesky factorization
// of the grounded Laplacian (paper Eq. (3) with the §II-A grounding trick,
// which is exact for balanced injections e_p - e_q).
#pragma once

#include <memory>

#include "chol/factor.hpp"
#include "effres/engine.hpp"
#include "graph/graph.hpp"
#include "order/mindeg.hpp"

namespace er {

class ExactEffRes final : public EffResEngine {
 public:
  explicit ExactEffRes(const Graph& g, Ordering ordering = Ordering::kMinDeg);

  /// Thread-safe single query: the solve vector is a thread-local scratch,
  /// so concurrent callers never share state and serial query loops don't
  /// allocate per call.
  [[nodiscard]] real_t resistance(index_t p, index_t q) const override;

  /// Batch override: each chunk solves with its own workspace, so queries
  /// chunk across a pool without sharing any mutable state.
  void resistances_into(const std::vector<ResistanceQuery>& queries,
                        std::vector<real_t>& out,
                        ThreadPool* pool = nullptr) const override;

  [[nodiscard]] std::string name() const override { return "exact"; }

  /// The underlying factor (e.g. for reuse as a solver).
  [[nodiscard]] const CholFactor& factor() const { return factor_; }

 private:
  real_t resistance_with(std::vector<real_t>& work, index_t p,
                         index_t q) const;

  index_t n_ = 0;
  CholFactor factor_;
};

}  // namespace er
