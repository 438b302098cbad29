// Complete sparse Cholesky factorization: left-looking and supernodal.
// The symbolic pass finds the etree, the column counts, the fundamental
// supernodes and each supernode's fixed list of descendant updates; the
// numeric pass factors each supernode as a dense trapezoid inside the
// factor's diag-first CSC arrays (DESIGN.md §4), serially or on a pool.
#pragma once

#include <vector>

#include "chol/factor.hpp"
#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

class ThreadPool;

/// Factor P A P^T = L L^T for a symmetric positive definite A.
/// `perm` maps new -> old; throws std::runtime_error if A is not SPD.
///
/// With a `pool` of more than one thread the numeric pass runs on the
/// calling thread and the pool's idle workers (from any thread, a worker
/// of the same pool included): independent subtrees of the supernodal
/// etree side by side, and each wide supernode's gather and dense panels
/// split by target columns and row blocks. The factor is bitwise equal to
/// the serial one at every thread count, and a matrix that is not SPD
/// throws the same error. A null or 1-thread pool runs the serial pass.
CholFactor cholesky(const CscMatrix& a, const std::vector<index_t>& perm,
                    ThreadPool* pool = nullptr);

/// The complete factor in AMD order (order/amd.hpp), serially.
CholFactor cholesky(const CscMatrix& a);

}  // namespace er
