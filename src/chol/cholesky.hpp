// Complete sparse Cholesky factorization: left-looking and supernodal.
// The symbolic pass finds the etree, the column counts and the fundamental
// supernodes; the numeric pass factors each supernode as a dense
// trapezoid inside the factor's diag-first CSC arrays (DESIGN.md §4).
#pragma once

#include <vector>

#include "chol/factor.hpp"
#include "order/mindeg.hpp"
#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

/// Factor P A P^T = L L^T for a symmetric positive definite A.
/// `perm` maps new -> old; throws std::runtime_error if A is not SPD.
CholFactor cholesky(const CscMatrix& a, const std::vector<index_t>& perm);

/// Convenience overload that computes the ordering first. The default is
/// AMD, the ordering of every complete factor (order/amd.hpp).
CholFactor cholesky(const CscMatrix& a, Ordering ordering = Ordering::kAmd);

}  // namespace er
