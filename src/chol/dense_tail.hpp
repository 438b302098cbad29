// The dense tail of a factor, shared by ICT (chol/ichol.cpp) and Alg. 2
// (approxinv/approx_inverse.cpp); DESIGN.md §4 "ICT's dense trailing block"
// and "Alg. 2's dense tail".
//
// On social graphs the min-degree order ends in a nearly dense block of hub
// columns. Both kernels keep those columns in one packed lower triangle and
// update from them by contiguous axpys instead of sparse scatters. One rule
// says where that block starts: after the first column that has at most
// kDenseMaxRows and at least kDenseMinRows rows below its diagonal and kept
// at least 1/kDenseKeptDivisor of them. ICT applies it to each column as it
// is built; Alg. 2 applies it to the finished factor, which finds the same
// column for a factor ichol built.
#pragma once

#include <cstddef>

#include "chol/factor.hpp"
#include "util/mapped.hpp"
#include "util/types.hpp"

namespace er {

// 2 048 columns are 16.8 MB of packed triangle.
constexpr index_t kDenseMaxRows = 2048;
constexpr index_t kDenseMinRows = 64;
constexpr index_t kDenseKeptDivisor = 4;

/// True when a column with `below` rows below its diagonal, `kept` of them
/// in the factor, is the last sparse one: the columns after it are dense.
constexpr bool is_last_sparse_column(index_t below, index_t kept) {
  return below <= kDenseMaxRows && below >= kDenseMinRows &&
         kDenseKeptDivisor * kept >= below;
}

/// First column of f's dense tail, or f.n when it has none.
inline index_t dense_tail_first(const CholFactor& f) {
  for (index_t j = 0; j < f.n; ++j) {
    const offset_t len = f.col_ptr[static_cast<std::size_t>(j) + 1] -
                         f.col_ptr[static_cast<std::size_t>(j)];
    if (is_last_sparse_column(f.n - 1 - j, static_cast<index_t>(len - 1))) return j + 1;
  }
  return f.n;
}

/// Columns [c, n) of a lower-triangular matrix as one packed triangle:
/// column j holds rows j..n-1 contiguously, diagonal first. The pages come
/// zero-filled from one anonymous mapping (util/mapped.hpp), so the block's
/// up to 16.8 MB go back to the OS when it is destroyed.
class PackedTriangle {
 public:
  PackedTriangle(index_t c, index_t n)
      : c_(c), m_(static_cast<std::size_t>(n - c)),
        memory_(map_zeroed(m_ * (m_ + 1) / 2 * sizeof(real_t))) {}

  [[nodiscard]] index_t first() const { return c_; }

  /// Entry (j, j) of column j >= first(); entry (i, j) is col(j)[i - j].
  [[nodiscard]] real_t* col(index_t j) const {
    const auto t = static_cast<std::size_t>(j - c_);
    return static_cast<real_t*>(memory_.get()) + t * (2 * m_ + 1 - t) / 2;
  }

 private:
  index_t c_;
  std::size_t m_;
  MappedBytes memory_;
};

}  // namespace er
