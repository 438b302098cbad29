// Algorithm 2 — sparse approximate inverse of the Cholesky factor.
//
// Columns of Z = L^{-1} obey the recurrence (paper Eq. (8))
//     z_j = (1/L_jj) e_j + sum_{i>j, L_ij != 0} (-L_ij / L_jj) z_i ,
// so column j needs the (approximate) columns i of its L pattern first.
// Every such i has a smaller filled-graph depth (Eq. (11)), so the columns
// of one depth level are independent: build() sweeps the levels from depth
// 0 upward and may run the columns of a level across a thread pool. After
// building z*_j, the k smallest-magnitude entries are truncated, with k the
// largest value keeping the relative 1-norm error below epsilon (Eq. (10));
// columns with at most log2(n) entries are never truncated (Alg. 2 line 3).
//
// Lemma 1 guarantees Z is nonnegative; Theorem 1 bounds the column error by
// depth(p) * epsilon. Both are exercised by tests.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "chol/factor.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/sparse_vector.hpp"
#include "util/types.hpp"

namespace er {

struct ApproxInverseOptions {
  /// Relative 1-norm truncation budget per column (paper's epsilon = 1e-3).
  real_t epsilon = 1e-3;
  /// Optional pool for the columns of one depth level (null = serial).
  /// Every column is computed by the same arithmetic in the same order
  /// whatever the pool size, so Z is bit-identical at any thread count
  /// (DESIGN.md §3). Called from a pool worker, the levels run inline.
  ThreadPool* pool = nullptr;
};

/// Sparse approximation of L^{-1}, stored column-wise in *permuted* (factor)
/// coordinates. Columns live in a shared pool in level order: depth 0
/// first, then each deeper level, j descending within a level. The layout
/// depends only on the factor, never on the thread count. All-edge queries
/// read it about 6% slower than the j-descending layout of a serial sweep;
/// relaying it out after the build would hold a second copy of the values
/// at the memory peak. Use column(j) / column_rows(j) / column_values(j)
/// for access.
class ApproxInverse {
 public:
  /// Run Alg. 2 on a (complete or incomplete) Cholesky factor.
  static ApproxInverse build(const CholFactor& factor,
                             const ApproxInverseOptions& opts = {});

  [[nodiscard]] index_t dimension() const { return n_; }
  [[nodiscard]] offset_t nnz() const { return static_cast<offset_t>(pool_rows_.size()); }

  [[nodiscard]] Span<index_t> column_rows(index_t j) const {
    return {pool_rows_.data() + col_offset_[static_cast<std::size_t>(j)],
            static_cast<std::size_t>(col_len_[static_cast<std::size_t>(j)])};
  }
  [[nodiscard]] Span<real_t> column_values(index_t j) const {
    return {pool_vals_.data() + col_offset_[static_cast<std::size_t>(j)],
            static_cast<std::size_t>(col_len_[static_cast<std::size_t>(j)])};
  }

  /// Copy of column j as a SparseVector.
  [[nodiscard]] SparseVector column(index_t j) const;

  /// ||z̃_p - z̃_q||_2^2 — the Alg. 3 query kernel, zero-copy.
  [[nodiscard]] real_t column_distance_squared(index_t p, index_t q) const;

  /// The permutation of the factor this inverse was built from (new -> old).
  [[nodiscard]] const std::vector<index_t>& perm() const { return perm_; }
  [[nodiscard]] const std::vector<index_t>& inv_perm() const { return inv_perm_; }

  /// Binary serialization: an expensive build can be cached on disk and
  /// reloaded for query-only sessions ("build once, query many").
  void save(std::ostream& out) const;
  static ApproxInverse load(std::istream& in);
  void save_file(const std::string& path) const;
  static ApproxInverse load_file(const std::string& path);

 private:
  index_t n_ = 0;
  std::vector<std::size_t> col_offset_;
  std::vector<index_t> col_len_;
  std::vector<index_t> pool_rows_;
  std::vector<real_t> pool_vals_;
  std::vector<index_t> perm_;
  std::vector<index_t> inv_perm_;
};

}  // namespace er
