#include "chol/cholesky.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "order/etree.hpp"

namespace er {

namespace {

/// Compute the nonzero pattern of row k of L: the etree reach of the
/// upper-triangular entries of column k. Pattern is returned in
/// s[top .. n-1] in topological order (CSparse cs_ereach).
index_t ereach(const CscMatrix& a, index_t k,
               const std::vector<index_t>& parent, std::vector<index_t>& s,
               std::vector<index_t>& w) {
  const index_t n = a.cols();
  index_t top = n;
  w[static_cast<std::size_t>(k)] = k;  // mark k itself
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_ind();
  for (offset_t p = cp[static_cast<std::size_t>(k)];
       p < cp[static_cast<std::size_t>(k) + 1]; ++p) {
    index_t i = ri[static_cast<std::size_t>(p)];
    if (i >= k) continue;  // upper entries only
    index_t len = 0;
    // Walk up the etree until hitting a marked node.
    while (w[static_cast<std::size_t>(i)] != k) {
      s[static_cast<std::size_t>(len++)] = i;
      w[static_cast<std::size_t>(i)] = k;
      i = parent[static_cast<std::size_t>(i)];
    }
    // Push the path onto the output stack (reversed => topological).
    while (len > 0) s[static_cast<std::size_t>(--top)] = s[static_cast<std::size_t>(--len)];
  }
  return top;
}

}  // namespace

CholFactor cholesky(const CscMatrix& a, const std::vector<index_t>& perm) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: not square");
  const index_t n = a.cols();
  if (perm.size() != static_cast<std::size_t>(n) || !is_permutation(perm))
    throw std::invalid_argument("cholesky: invalid permutation");

  const CscMatrix ap = a.permute_symmetric(perm);
  std::vector<index_t> parent = etree(ap);

  // --- Symbolic pass: column counts of L via per-row ereach. ---
  std::vector<index_t> s(static_cast<std::size_t>(n));
  std::vector<index_t> w(static_cast<std::size_t>(n), -1);
  std::vector<offset_t> count(static_cast<std::size_t>(n), 1);  // diagonals
  for (index_t k = 0; k < n; ++k) {
    const index_t top = ereach(ap, k, parent, s, w);
    for (index_t t = top; t < n; ++t)
      ++count[static_cast<std::size_t>(s[static_cast<std::size_t>(t)])];
  }

  CholFactor f;
  f.n = n;
  f.perm = perm;
  f.inv_perm = invert_permutation(perm);
  f.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j)
    f.col_ptr[static_cast<std::size_t>(j) + 1] =
        f.col_ptr[static_cast<std::size_t>(j)] + count[static_cast<std::size_t>(j)];
  const offset_t lnz = f.col_ptr.back();
  f.row_ind.assign(static_cast<std::size_t>(lnz), 0);
  f.values.assign(static_cast<std::size_t>(lnz), 0.0);

  // --- Numeric pass (up-looking): compute row k of L for k = 0..n-1. ---
  std::fill(w.begin(), w.end(), -1);
  std::vector<offset_t> next(f.col_ptr.begin(), f.col_ptr.end() - 1);
  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);

  const auto& cp = ap.col_ptr();
  const auto& ri = ap.row_ind();
  const auto& vv = ap.values();

  for (index_t k = 0; k < n; ++k) {
    const index_t top = ereach(ap, k, parent, s, w);

    // Scatter the upper part of column k of A into x; d = A(k,k).
    real_t d = 0.0;
    for (offset_t p = cp[static_cast<std::size_t>(k)];
         p < cp[static_cast<std::size_t>(k) + 1]; ++p) {
      const index_t i = ri[static_cast<std::size_t>(p)];
      if (i < k)
        x[static_cast<std::size_t>(i)] = vv[static_cast<std::size_t>(p)];
      else if (i == k)
        d = vv[static_cast<std::size_t>(p)];
    }

    // Sparse triangular solve along the pattern (topological order).
    for (index_t t = top; t < n; ++t) {
      const index_t j = s[static_cast<std::size_t>(t)];
      const offset_t jb = f.col_ptr[static_cast<std::size_t>(j)];
      const real_t lkj =
          x[static_cast<std::size_t>(j)] / f.values[static_cast<std::size_t>(jb)];
      x[static_cast<std::size_t>(j)] = 0.0;
      for (offset_t p = jb + 1; p < next[static_cast<std::size_t>(j)]; ++p)
        x[static_cast<std::size_t>(f.row_ind[static_cast<std::size_t>(p)])] -=
            f.values[static_cast<std::size_t>(p)] * lkj;
      d -= lkj * lkj;
      const offset_t pos = next[static_cast<std::size_t>(j)]++;
      f.row_ind[static_cast<std::size_t>(pos)] = k;
      f.values[static_cast<std::size_t>(pos)] = lkj;
    }

    if (d <= 0.0)
      throw std::runtime_error("cholesky: matrix is not positive definite");
    const offset_t pos = next[static_cast<std::size_t>(k)]++;
    f.row_ind[static_cast<std::size_t>(pos)] = k;  // diagonal first
    f.values[static_cast<std::size_t>(pos)] = std::sqrt(d);
  }
  f.parent = std::move(parent);
  return f;
}

CholFactor cholesky(const CscMatrix& a, Ordering ordering) {
  return cholesky(a, compute_ordering(a, ordering));
}

}  // namespace er
