// Cholesky factor container shared by the complete and incomplete
// factorizations, plus triangular solves: dense ones over all n columns and
// a reach-limited sparse forward solve for complete factors.
//
// Storage layout: CSC with the *diagonal entry first* in every column,
// followed by the off-diagonal rows in increasing order. This is the layout
// Alg. 2 (approximate inverse) consumes directly. A complete factor also
// records its fundamental supernodes: runs of columns j..l where each
// column's rows are its diagonal followed by the next column's rows, so the
// run is a dense column-major trapezoid inside the CSC arrays.
//
// The factor lives in *permuted* space: it factors P A P^T where
// perm[new] = old. Callers either work in permuted coordinates
// (approximate-inverse columns) or use solve(), which applies the
// permutations on the way in and out.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

/// Scratch and result of CholFactor::sparse_forward. Reuse one instance
/// across queries; never share one across threads. The scratch arrays are
/// all zero between calls: x and mark are sized once (to the factor's n)
/// and a call touches and resets them only along its reach; dense grows to
/// the most rows of a supernode seen and is reset after each use.
struct ReachWorkspace {
  /// Result: the rows of y = L^{-1} b that can be nonzero (the etree
  /// reach of b's support), ascending.
  std::vector<index_t> reach;
  /// Result: y[t] = (L^{-1} b)[reach[t]].
  std::vector<real_t> y;
  /// Result: etree roots in the reach — the number of connected
  /// components of the factored matrix that b's support touches.
  index_t trees = 0;

  std::vector<real_t> x;      ///< dense accumulator (zero between calls)
  std::vector<char> mark;     ///< reach marks (zero between calls)
  std::vector<real_t> dense;  ///< one supernode's rows (zero between calls)
};

struct CholFactor {
  index_t n = 0;
  std::vector<offset_t> col_ptr;  // size n+1
  std::vector<index_t> row_ind;   // diagonal first per column
  std::vector<real_t> values;
  std::vector<index_t> perm;      // new -> old
  std::vector<index_t> inv_perm;  // old -> new
  /// Elimination tree of P A P^T (parent[j] > j, -1 at a root; one tree
  /// per connected component). Kept by cholesky(); empty for incomplete
  /// factors, whose dropped fill breaks the reach argument below.
  std::vector<index_t> parent;
  /// Fundamental supernodes: super_last[j] is the last column of the
  /// supernode holding column j. Inside a supernode parent[j] == j + 1 and
  /// column j's rows are j followed by column j + 1's rows. Kept by
  /// cholesky(); empty for incomplete factors.
  std::vector<index_t> super_last;

  [[nodiscard]] offset_t nnz() const {
    return col_ptr.empty() ? 0 : col_ptr.back();
  }

  /// L(j, j); columns store the diagonal first.
  [[nodiscard]] real_t diag(index_t j) const {
    return values[static_cast<std::size_t>(col_ptr[static_cast<std::size_t>(j)])];
  }

  /// x := L^{-1} x (permuted space).
  void forward_solve(std::vector<real_t>& x) const;

  /// x := L^{-T} x (permuted space).
  void backward_solve(std::vector<real_t>& x) const;

  /// x := (L L^T)^{-1} x (permuted space).
  void solve_permuted(std::vector<real_t>& x) const;

  /// Solve A x = b in original coordinates (applies perm / inv_perm).
  [[nodiscard]] std::vector<real_t> solve(const std::vector<real_t>& b) const;

  /// Reach-limited forward solve (Gilbert-Peierls along the etree): y =
  /// L^{-1} b for the sparse rhs b = sum_t val[t] e_{idx[t]} (permuted
  /// space; duplicate indices add up). Only the etree paths from the k rhs
  /// indices to their roots can be nonzero in y; they are visited in
  /// ascending order with forward_solve's column update, one supernode at
  /// a time (a reach that enters a supernode holds the rest of it). A
  /// supernode's columns go four per pass over its gathered rows: the
  /// panel's 4x4 triangle, then one fused loop that gives each row below
  /// the panel its four subtractions in column order, skipping a column
  /// whose value is +-0 as forward_solve does. So ws.y is bitwise equal to
  /// forward_solve on ws.reach. The cost is the
  /// factor entries of the reach's columns. A workspace pays one O(n)
  /// sizing on its first call for a factor of this n; after that a call
  /// makes no O(n) pass, and allocates only while ws.reach / ws.y /
  /// ws.dense grow to the largest reach and supernode seen. Complete
  /// factors only: throws std::logic_error when `parent` or `super_last` is
  /// missing (incomplete factors), std::out_of_range on a bad index.
  void sparse_forward(const index_t* idx, const real_t* val, int k,
                      ReachWorkspace& ws) const;

  /// Approximate resident size in bytes (CSC arrays + permutations) — the
  /// unit of the serving layer's per-publish build-cost accounting.
  [[nodiscard]] std::size_t footprint_bytes() const {
    return col_ptr.size() * sizeof(offset_t) +
           row_ind.size() * sizeof(index_t) + values.size() * sizeof(real_t) +
           (perm.size() + inv_perm.size() + parent.size() + super_last.size()) *
               sizeof(index_t);
  }

  /// Row-sorted CSC copy of L (tests and diagnostics).
  [[nodiscard]] CscMatrix to_csc() const;

  /// Verify structural invariants (diag-first layout, sorted tails, perm,
  /// etree and supernodes when present).
  [[nodiscard]] bool check_invariants() const;
};

}  // namespace er
