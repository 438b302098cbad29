#include "sparse/csc.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace er {

CscMatrix::CscMatrix(index_t rows, index_t cols)
    : rows_(rows), cols_(cols), col_ptr_(static_cast<std::size_t>(cols) + 1, 0) {}

CscMatrix::CscMatrix(index_t rows, index_t cols, std::vector<offset_t> col_ptr,
                     std::vector<index_t> row_ind, std::vector<real_t> values)
    : rows_(rows),
      cols_(cols),
      col_ptr_(std::move(col_ptr)),
      row_ind_(std::move(row_ind)),
      values_(std::move(values)) {
  assert(check_invariants());
}

CscMatrix CscMatrix::from_triplets(const TripletMatrix& t) {
  const index_t rows = t.rows();
  const index_t cols = t.cols();
  const auto& entries = t.entries();

  // Count entries per column.
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  for (const auto& e : entries) ++col_ptr[static_cast<std::size_t>(e.col) + 1];
  for (index_t c = 0; c < cols; ++c)
    col_ptr[static_cast<std::size_t>(c) + 1] += col_ptr[static_cast<std::size_t>(c)];

  // Scatter into place.
  std::vector<offset_t> next(col_ptr.begin(), col_ptr.end() - 1);
  std::vector<index_t> row_ind(entries.size());
  std::vector<real_t> values(entries.size());
  for (const auto& e : entries) {
    const offset_t pos = next[static_cast<std::size_t>(e.col)]++;
    row_ind[static_cast<std::size_t>(pos)] = e.row;
    values[static_cast<std::size_t>(pos)] = e.value;
  }

  // Sort each column by row index and sum duplicates in place.
  std::vector<offset_t> new_col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  std::vector<std::pair<index_t, real_t>> scratch;
  offset_t write = 0;
  for (index_t c = 0; c < cols; ++c) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(c)];
    const offset_t end = col_ptr[static_cast<std::size_t>(c) + 1];
    scratch.clear();
    scratch.reserve(static_cast<std::size_t>(end - begin));
    for (offset_t k = begin; k < end; ++k)
      scratch.emplace_back(row_ind[static_cast<std::size_t>(k)],
                           values[static_cast<std::size_t>(k)]);
    std::sort(scratch.begin(), scratch.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    const offset_t col_start = write;
    for (const auto& [r, v] : scratch) {
      if (write > col_start && row_ind[static_cast<std::size_t>(write - 1)] == r) {
        values[static_cast<std::size_t>(write - 1)] += v;
      } else {
        row_ind[static_cast<std::size_t>(write)] = r;
        values[static_cast<std::size_t>(write)] = v;
        ++write;
      }
    }
    new_col_ptr[static_cast<std::size_t>(c) + 1] = write;
  }
  row_ind.resize(static_cast<std::size_t>(write));
  values.resize(static_cast<std::size_t>(write));

  return CscMatrix(rows, cols, std::move(new_col_ptr), std::move(row_ind),
                   std::move(values));
}

CscMatrix CscMatrix::identity(index_t n) {
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(n) + 1);
  std::vector<index_t> row_ind(static_cast<std::size_t>(n));
  std::vector<real_t> values(static_cast<std::size_t>(n), 1.0);
  for (index_t i = 0; i <= n; ++i) col_ptr[static_cast<std::size_t>(i)] = i;
  for (index_t i = 0; i < n; ++i) row_ind[static_cast<std::size_t>(i)] = i;
  return CscMatrix(n, n, std::move(col_ptr), std::move(row_ind),
                   std::move(values));
}

CscMatrix CscMatrix::from_dense(index_t rows, index_t cols,
                                const std::vector<real_t>& colmajor,
                                real_t tol) {
  if (colmajor.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols))
    throw std::invalid_argument("from_dense: buffer size mismatch");
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(cols) + 1, 0);
  std::vector<index_t> row_ind;
  std::vector<real_t> values;
  for (index_t c = 0; c < cols; ++c) {
    for (index_t r = 0; r < rows; ++r) {
      const real_t v = colmajor[static_cast<std::size_t>(c) * rows + r];
      if (std::abs(v) > tol) {
        row_ind.push_back(r);
        values.push_back(v);
      }
    }
    col_ptr[static_cast<std::size_t>(c) + 1] =
        static_cast<offset_t>(row_ind.size());
  }
  return CscMatrix(rows, cols, std::move(col_ptr), std::move(row_ind),
                   std::move(values));
}

real_t CscMatrix::at(index_t row, index_t col) const {
  if (row < 0 || row >= rows_ || col < 0 || col >= cols_)
    throw std::out_of_range("CscMatrix::at: index out of range");
  const auto begin = row_ind_.begin() + static_cast<std::ptrdiff_t>(
                                            col_ptr_[static_cast<std::size_t>(col)]);
  const auto end = row_ind_.begin() + static_cast<std::ptrdiff_t>(
                                          col_ptr_[static_cast<std::size_t>(col) + 1]);
  const auto it = std::lower_bound(begin, end, row);
  if (it == end || *it != row) return 0.0;
  return values_[static_cast<std::size_t>(it - row_ind_.begin())];
}

void CscMatrix::multiply(const std::vector<real_t>& x,
                         std::vector<real_t>& y) const {
  y.assign(static_cast<std::size_t>(rows_), 0.0);
  gaxpy(x, 1.0, y);
}

std::vector<real_t> CscMatrix::multiply(const std::vector<real_t>& x) const {
  std::vector<real_t> y;
  multiply(x, y);
  return y;
}

void CscMatrix::gaxpy(const std::vector<real_t>& x, real_t alpha,
                      std::vector<real_t>& y) const {
  if (x.size() != static_cast<std::size_t>(cols_) ||
      y.size() != static_cast<std::size_t>(rows_))
    throw std::invalid_argument("CscMatrix::gaxpy: size mismatch");
  for (index_t c = 0; c < cols_; ++c) {
    const real_t xc = alpha * x[static_cast<std::size_t>(c)];
    if (xc == 0.0) continue;
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k)
      y[static_cast<std::size_t>(row_ind_[static_cast<std::size_t>(k)])] +=
          values_[static_cast<std::size_t>(k)] * xc;
  }
}

void CscMatrix::multiply_transpose(const std::vector<real_t>& x,
                                   std::vector<real_t>& y) const {
  if (x.size() != static_cast<std::size_t>(rows_))
    throw std::invalid_argument("multiply_transpose: size mismatch");
  y.assign(static_cast<std::size_t>(cols_), 0.0);
  for (index_t c = 0; c < cols_; ++c) {
    real_t acc = 0.0;
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k)
      acc += values_[static_cast<std::size_t>(k)] *
             x[static_cast<std::size_t>(row_ind_[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(c)] = acc;
  }
}

CscMatrix CscMatrix::transpose() const {
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(rows_) + 1, 0);
  std::vector<index_t> row_ind(static_cast<std::size_t>(nnz()));
  std::vector<real_t> values(static_cast<std::size_t>(nnz()));

  // Count entries per row of A == per column of A^T.
  for (offset_t k = 0; k < nnz(); ++k)
    ++col_ptr[static_cast<std::size_t>(row_ind_[static_cast<std::size_t>(k)]) + 1];
  for (index_t r = 0; r < rows_; ++r)
    col_ptr[static_cast<std::size_t>(r) + 1] += col_ptr[static_cast<std::size_t>(r)];

  std::vector<offset_t> next(col_ptr.begin(), col_ptr.end() - 1);
  for (index_t c = 0; c < cols_; ++c) {
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const index_t r = row_ind_[static_cast<std::size_t>(k)];
      const offset_t pos = next[static_cast<std::size_t>(r)]++;
      row_ind[static_cast<std::size_t>(pos)] = c;
      values[static_cast<std::size_t>(pos)] = values_[static_cast<std::size_t>(k)];
    }
  }
  // Columns of the transpose are sorted automatically because we sweep
  // columns of A in increasing order.
  return CscMatrix(cols_, rows_, std::move(col_ptr), std::move(row_ind),
                   std::move(values));
}

CscMatrix CscMatrix::permute_symmetric(const std::vector<index_t>& perm) const {
  if (rows_ != cols_ || perm.size() != static_cast<std::size_t>(cols_))
    throw std::invalid_argument("permute_symmetric: shape/permutation mismatch");
  // inv_perm maps old index -> new index.
  std::vector<index_t> inv(static_cast<std::size_t>(cols_));
  for (index_t i = 0; i < cols_; ++i) {
    const index_t old = perm[static_cast<std::size_t>(i)];
    if (old < 0 || old >= cols_)
      throw std::invalid_argument("permute_symmetric: invalid permutation");
    inv[static_cast<std::size_t>(old)] = i;
  }

  TripletMatrix t(rows_, cols_);
  t.reserve(static_cast<std::size_t>(nnz()));
  for (index_t c = 0; c < cols_; ++c) {
    const index_t nc = inv[static_cast<std::size_t>(c)];
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const index_t nr =
          inv[static_cast<std::size_t>(row_ind_[static_cast<std::size_t>(k)])];
      t.add(nr, nc, values_[static_cast<std::size_t>(k)]);
    }
  }
  return from_triplets(t);
}

CscMatrix CscMatrix::extract(const std::vector<index_t>& rows_sel,
                             const std::vector<index_t>& cols_sel) const {
  // Map old row -> new row (or -1 if not selected).
  std::vector<index_t> row_map(static_cast<std::size_t>(rows_), -1);
  for (std::size_t i = 0; i < rows_sel.size(); ++i) {
    const index_t old = rows_sel[i];
    if (old < 0 || old >= rows_)
      throw std::out_of_range("extract: row selection out of range");
    row_map[static_cast<std::size_t>(old)] = static_cast<index_t>(i);
  }

  TripletMatrix t(static_cast<index_t>(rows_sel.size()),
                  static_cast<index_t>(cols_sel.size()));
  for (std::size_t j = 0; j < cols_sel.size(); ++j) {
    const index_t c = cols_sel[j];
    if (c < 0 || c >= cols_)
      throw std::out_of_range("extract: column selection out of range");
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const index_t nr =
          row_map[static_cast<std::size_t>(row_ind_[static_cast<std::size_t>(k)])];
      if (nr >= 0)
        t.add(nr, static_cast<index_t>(j), values_[static_cast<std::size_t>(k)]);
    }
  }
  return from_triplets(t);
}

CscMatrix CscMatrix::lower_triangle(bool include_diagonal) const {
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  std::vector<index_t> row_ind;
  std::vector<real_t> values;
  row_ind.reserve(static_cast<std::size_t>(nnz()) / 2 + 1);
  values.reserve(static_cast<std::size_t>(nnz()) / 2 + 1);
  for (index_t c = 0; c < cols_; ++c) {
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const index_t r = row_ind_[static_cast<std::size_t>(k)];
      if (r > c || (include_diagonal && r == c)) {
        row_ind.push_back(r);
        values.push_back(values_[static_cast<std::size_t>(k)]);
      }
    }
    col_ptr[static_cast<std::size_t>(c) + 1] =
        static_cast<offset_t>(row_ind.size());
  }
  return CscMatrix(rows_, cols_, std::move(col_ptr), std::move(row_ind),
                   std::move(values));
}

std::vector<real_t> CscMatrix::diagonal() const {
  const index_t n = std::min(rows_, cols_);
  std::vector<real_t> d(static_cast<std::size_t>(n), 0.0);
  for (index_t c = 0; c < n; ++c) d[static_cast<std::size_t>(c)] = at(c, c);
  return d;
}

CscMatrix CscMatrix::add(const CscMatrix& other, real_t alpha) const {
  if (rows_ != other.rows_ || cols_ != other.cols_)
    throw std::invalid_argument("CscMatrix::add: shape mismatch");
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  std::vector<index_t> row_ind;
  std::vector<real_t> values;
  row_ind.reserve(static_cast<std::size_t>(nnz() + other.nnz()));
  values.reserve(static_cast<std::size_t>(nnz() + other.nnz()));
  for (index_t c = 0; c < cols_; ++c) {
    offset_t ka = col_ptr_[static_cast<std::size_t>(c)];
    const offset_t ea = col_ptr_[static_cast<std::size_t>(c) + 1];
    offset_t kb = other.col_ptr_[static_cast<std::size_t>(c)];
    const offset_t eb = other.col_ptr_[static_cast<std::size_t>(c) + 1];
    // Merge two sorted runs.
    while (ka < ea || kb < eb) {
      index_t ra = ka < ea ? row_ind_[static_cast<std::size_t>(ka)] : rows_;
      index_t rb = kb < eb ? other.row_ind_[static_cast<std::size_t>(kb)] : rows_;
      if (ra < rb) {
        row_ind.push_back(ra);
        values.push_back(values_[static_cast<std::size_t>(ka++)]);
      } else if (rb < ra) {
        row_ind.push_back(rb);
        values.push_back(alpha * other.values_[static_cast<std::size_t>(kb++)]);
      } else {
        row_ind.push_back(ra);
        values.push_back(values_[static_cast<std::size_t>(ka++)] +
                         alpha * other.values_[static_cast<std::size_t>(kb++)]);
      }
    }
    col_ptr[static_cast<std::size_t>(c) + 1] =
        static_cast<offset_t>(row_ind.size());
  }
  return CscMatrix(rows_, cols_, std::move(col_ptr), std::move(row_ind),
                   std::move(values));
}

bool CscMatrix::is_symmetric(real_t tol) const {
  if (rows_ != cols_) return false;
  const CscMatrix t = transpose();
  if (t.nnz() != nnz()) {
    // Structure can still match numerically if explicit zeros differ; fall
    // through to the value comparison on the union.
  }
  const CscMatrix diff = add(t, -1.0);
  return diff.max_abs() <= tol;
}

std::vector<real_t> CscMatrix::to_dense() const {
  std::vector<real_t> d(static_cast<std::size_t>(rows_) *
                            static_cast<std::size_t>(cols_),
                        0.0);
  for (index_t c = 0; c < cols_; ++c)
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k)
      d[static_cast<std::size_t>(c) * rows_ +
        row_ind_[static_cast<std::size_t>(k)]] +=
          values_[static_cast<std::size_t>(k)];
  return d;
}

CscMatrix CscMatrix::drop_small(real_t tol, bool keep_diagonal) const {
  std::vector<offset_t> col_ptr(static_cast<std::size_t>(cols_) + 1, 0);
  std::vector<index_t> row_ind;
  std::vector<real_t> values;
  for (index_t c = 0; c < cols_; ++c) {
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const index_t r = row_ind_[static_cast<std::size_t>(k)];
      const real_t v = values_[static_cast<std::size_t>(k)];
      if (std::abs(v) > tol || (keep_diagonal && r == c)) {
        row_ind.push_back(r);
        values.push_back(v);
      }
    }
    col_ptr[static_cast<std::size_t>(c) + 1] =
        static_cast<offset_t>(row_ind.size());
  }
  return CscMatrix(rows_, cols_, std::move(col_ptr), std::move(row_ind),
                   std::move(values));
}

real_t CscMatrix::max_abs() const {
  real_t m = 0.0;
  for (real_t v : values_) m = std::max(m, std::abs(v));
  return m;
}

bool CscMatrix::check_invariants() const {
  if (col_ptr_.size() != static_cast<std::size_t>(cols_) + 1) return false;
  if (col_ptr_.front() != 0) return false;
  if (col_ptr_.back() != static_cast<offset_t>(row_ind_.size())) return false;
  if (row_ind_.size() != values_.size()) return false;
  for (index_t c = 0; c < cols_; ++c) {
    if (col_ptr_[static_cast<std::size_t>(c)] >
        col_ptr_[static_cast<std::size_t>(c) + 1])
      return false;
    for (offset_t k = col_ptr_[static_cast<std::size_t>(c)];
         k < col_ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
      const index_t r = row_ind_[static_cast<std::size_t>(k)];
      if (r < 0 || r >= rows_) return false;
      if (k > col_ptr_[static_cast<std::size_t>(c)] &&
          row_ind_[static_cast<std::size_t>(k - 1)] >= r)
        return false;
    }
  }
  return true;
}

}  // namespace er
