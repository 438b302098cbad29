// Exact effective resistances via a complete sparse Cholesky factorization
// of the grounded Laplacian (paper Eq. (3) with the §II-A grounding trick,
// which is exact for balanced injections e_p - e_q). A query is one
// forward-only reach solve: R(p, q) = ||L^{-1} P (e_p - e_q)||^2 over the
// etree reach of {p, q} (CholFactor::sparse_forward).
#pragma once

#include <memory>

#include "chol/factor.hpp"
#include "effres/engine.hpp"
#include "graph/graph.hpp"

namespace er {

class ExactEffRes final : public EffResEngine {
 public:
  explicit ExactEffRes(const Graph& g);

  /// Thread-safe single query: the reach workspace is a thread-local
  /// scratch, so concurrent callers never share state and serial query
  /// loops don't allocate per call. The inherited batch resistances_into
  /// chunks over it, so each pool worker reuses its own workspace. For p
  /// and q in different connected components the answer is +infinity (no
  /// path carries current between them); the grounded factor has one etree
  /// per component, so the reach detects this for free.
  [[nodiscard]] real_t resistance(index_t p, index_t q) const override;

  [[nodiscard]] std::string name() const override { return "exact"; }

  /// The underlying factor (e.g. for reuse as a solver).
  [[nodiscard]] const CholFactor& factor() const { return factor_; }

 private:
  index_t n_ = 0;
  CholFactor factor_;
};

}  // namespace er
