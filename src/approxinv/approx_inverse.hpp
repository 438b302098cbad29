// Algorithm 2 — sparse approximate inverse of the Cholesky factor.
//
// Columns of Z = L^{-1} obey the recurrence (paper Eq. (8))
//     z_j = (1/L_jj) e_j + sum_{i>j, L_ij != 0} (-L_ij / L_jj) z_i ,
// so column j needs the (approximate) columns i of its L pattern first.
// build() runs a column as soon as those inputs exist: serially in the
// order j = n-1 .. 0, or on a thread pool from a ready queue. After
// building z*_j, the k smallest-magnitude entries are truncated, with k the
// largest value keeping the relative 1-norm error below epsilon (Eq. (10));
// columns with at most log2(n) entries are never truncated (Alg. 2 line 3).
//
// The column kernel: a column scatters its inputs through stamps, except in
// the factor's nearly dense hub tail (the rule of chol/dense_tail.hpp,
// which ICT shares). There the columns keep a dense copy in one packed
// triangle and a row bitset each: the first-touch row order comes from the
// bitsets and the values from fused axpys, four inputs per pass. The
// triangle is freed when the tail's last column is done. The truncation
// sorts only the magnitudes below a binade bound that the ascending sum
// cannot pass (approxinv/truncation.hpp), and a sparse column's rows are
// ordered by a two-pass radix sort. Z~ is bitwise equal to a stamp-scatter,
// full-sort build (DESIGN.md §4 "Alg. 2's dense tail").
//
// Lemma 1 guarantees Z is nonnegative; Theorem 1 bounds the column error by
// depth(p) * epsilon. Both are exercised by tests.
#pragma once

#include <memory>
#include <vector>

#include "chol/factor.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/sparse_vector.hpp"
#include "util/mapped.hpp"
#include "util/types.hpp"

namespace er {

struct ApproxInverseOptions {
  /// Relative 1-norm truncation budget per column (paper's epsilon = 1e-3),
  /// in [0, 1): build() throws std::invalid_argument otherwise.
  real_t epsilon = 1e-3;
  /// Optional pool: the calling thread and the pool's idle workers build
  /// the columns from a ready queue (null = serial). Every column is
  /// computed by the same arithmetic in the same order whatever the pool
  /// size, so Z's columns are bit-identical at any thread count
  /// (DESIGN.md §3). A 1-thread pool builds serially.
  ThreadPool* pool = nullptr;
};

/// Sparse approximation of L^{-1}, stored column-wise in *permuted* (factor)
/// coordinates. Each column is written once into a chunk of storage that
/// is never reallocated, so a column's address is fixed from the moment
/// it is built. Chunks fill in build order: j descending for a serial
/// build, completion order (close to j descending) on a pool. Use
/// column(j) / column_rows(j) / column_values(j) for access. Move-only:
/// the column table points into the chunks.
class ApproxInverse {
 public:
  /// Run Alg. 2 on a (complete or incomplete) Cholesky factor.
  static ApproxInverse build(const CholFactor& factor,
                             const ApproxInverseOptions& opts = {});

  [[nodiscard]] index_t dimension() const { return n_; }
  [[nodiscard]] offset_t nnz() const { return nnz_; }
  /// Storage chunks holding the columns.
  [[nodiscard]] std::size_t num_chunks() const { return chunks_.size(); }

  [[nodiscard]] Span<index_t> column_rows(index_t j) const {
    const Column& c = cols_[static_cast<std::size_t>(j)];
    return {c.rows, static_cast<std::size_t>(c.len)};
  }
  [[nodiscard]] Span<real_t> column_values(index_t j) const {
    const Column& c = cols_[static_cast<std::size_t>(j)];
    return {c.vals, static_cast<std::size_t>(c.len)};
  }

  /// Copy of column j as a SparseVector.
  [[nodiscard]] SparseVector column(index_t j) const;

  /// ||z̃_p - z̃_q||_2^2 — the Alg. 3 query kernel, zero-copy.
  [[nodiscard]] real_t column_distance_squared(index_t p, index_t q) const;

  /// The permutation of the factor this inverse was built from (new -> old).
  [[nodiscard]] const std::vector<index_t>& perm() const { return perm_; }
  [[nodiscard]] const std::vector<index_t>& inv_perm() const { return inv_perm_; }

 private:
  /// Where column j lives: `len` rows (ascending) and values.
  struct Column {
    index_t* rows = nullptr;
    real_t* vals = nullptr;
    index_t len = 0;
  };
  /// Fixed-size storage for `capacity` entries, values then rows, in one
  /// anonymous memory mapping; the columns in it are never moved.
  struct Chunk {
    explicit Chunk(std::size_t capacity);
    [[nodiscard]] real_t* vals() const { return static_cast<real_t*>(memory.get()); }
    [[nodiscard]] index_t* rows() const {
      return reinterpret_cast<index_t*>(vals() + capacity);
    }
    MappedBytes memory;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };
  class ReadyQueue;

  /// Storage for column j of `len` entries: the tail of the last chunk,
  /// or a new chunk when it does not fit there. Sets and returns cols_[j].
  Column place(index_t j, index_t len);

  index_t n_ = 0;
  offset_t nnz_ = 0;
  std::vector<Column> cols_;
  std::vector<Chunk> chunks_;
  std::vector<index_t> perm_;
  std::vector<index_t> inv_perm_;
};

}  // namespace er
