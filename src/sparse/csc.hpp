// Compressed sparse column (CSC) matrix — the workhorse format.
//
// Invariants maintained by every constructor/factory:
//   * col_ptr has size cols()+1, is non-decreasing, col_ptr[0] == 0;
//   * row indices within each column are strictly increasing;
//   * no explicit zeros are required, but they are permitted.
#pragma once

#include <string>
#include <vector>

#include "sparse/coo.hpp"
#include "util/types.hpp"

namespace er {

class CscMatrix {
 public:
  CscMatrix() = default;

  /// Empty matrix of the given shape (no nonzeros).
  CscMatrix(index_t rows, index_t cols);

  /// Raw constructor; validates the CSC invariants in debug builds.
  CscMatrix(index_t rows, index_t cols, std::vector<offset_t> col_ptr,
            std::vector<index_t> row_ind, std::vector<real_t> values);

  /// Compress a triplet matrix; duplicate entries are summed.
  static CscMatrix from_triplets(const TripletMatrix& t);

  /// Identity matrix of order n.
  static CscMatrix identity(index_t n);

  /// Build from a dense column-major buffer, dropping entries with
  /// |a_ij| <= tol (tol = 0 keeps exact nonzeros only).
  static CscMatrix from_dense(index_t rows, index_t cols,
                              const std::vector<real_t>& colmajor,
                              real_t tol = 0.0);

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] offset_t nnz() const { return col_ptr_.empty() ? 0 : col_ptr_.back(); }

  [[nodiscard]] const std::vector<offset_t>& col_ptr() const { return col_ptr_; }
  [[nodiscard]] const std::vector<index_t>& row_ind() const { return row_ind_; }
  [[nodiscard]] const std::vector<real_t>& values() const { return values_; }
  std::vector<real_t>& values() { return values_; }

  /// O(log nnz(col)) random access; returns 0 when the entry is absent.
  [[nodiscard]] real_t at(index_t row, index_t col) const;

  /// y = A x (dense vectors).
  void multiply(const std::vector<real_t>& x, std::vector<real_t>& y) const;
  [[nodiscard]] std::vector<real_t> multiply(const std::vector<real_t>& x) const;

  /// y += alpha * A x.
  void gaxpy(const std::vector<real_t>& x, real_t alpha,
             std::vector<real_t>& y) const;

  /// y = A^T x without forming the transpose.
  void multiply_transpose(const std::vector<real_t>& x,
                          std::vector<real_t>& y) const;

  [[nodiscard]] CscMatrix transpose() const;

  /// Symmetric permutation B = P A P^T where row/col i of B is
  /// row/col perm[i] of A (perm maps new index -> old index).
  /// A must be symmetric for the result to be meaningful.
  [[nodiscard]] CscMatrix permute_symmetric(const std::vector<index_t>& perm) const;

  /// Extract the submatrix A(rows_sel, cols_sel). Selections map
  /// new index -> old index and must contain valid unique indices.
  [[nodiscard]] CscMatrix extract(const std::vector<index_t>& rows_sel,
                                  const std::vector<index_t>& cols_sel) const;

  /// Strictly lower / lower-including-diagonal triangle.
  [[nodiscard]] CscMatrix lower_triangle(bool include_diagonal) const;

  /// Main diagonal as a dense vector (length min(rows, cols)).
  [[nodiscard]] std::vector<real_t> diagonal() const;

  /// C = A + alpha * B (shapes must match).
  [[nodiscard]] CscMatrix add(const CscMatrix& other, real_t alpha = 1.0) const;

  /// Exact structural+numerical symmetry test within tolerance.
  [[nodiscard]] bool is_symmetric(real_t tol = 0.0) const;

  /// Dense column-major copy (tests/small problems only).
  [[nodiscard]] std::vector<real_t> to_dense() const;

  /// Drop entries with |a_ij| <= tol; keeps the diagonal if keep_diagonal.
  [[nodiscard]] CscMatrix drop_small(real_t tol, bool keep_diagonal) const;

  /// max |a_ij|.
  [[nodiscard]] real_t max_abs() const;

  /// Verify the CSC invariants (sorted unique row indices, valid pointers).
  [[nodiscard]] bool check_invariants() const;

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<offset_t> col_ptr_{0};
  std::vector<index_t> row_ind_;
  std::vector<real_t> values_;
};

}  // namespace er
