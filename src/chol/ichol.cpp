#include "chol/ichol.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "chol/dense_tail.hpp"
#include "order/mindeg.hpp"

namespace er {

namespace {

/// One left-looking ICT attempt on the permuted matrix. Returns false on
/// pivot breakdown (caller shifts and retries).
bool ict_attempt(const CscMatrix& ap, const IcholOptions& opts, real_t shift,
                 real_t global_scale, CholFactor& f) {
  const index_t n = ap.cols();
  const auto& cp = ap.col_ptr();
  const auto& ri = ap.row_ind();
  const auto& vv = ap.values();

  // Absolute dropping threshold: droptol relative to the typical branch
  // conductance of the whole graph (see header comment).
  const real_t keep_threshold = opts.droptol * global_scale;

  // Columns of L built incrementally; compressed at the end.
  std::vector<std::vector<index_t>> lrow(static_cast<std::size_t>(n));
  std::vector<std::vector<real_t>> lval(static_cast<std::size_t>(n));

  // Left-looking traversal state: for column k already factored,
  // cursor[k] points at the next off-diagonal entry with row >= current j;
  // link[k] chains columns whose cursor row equals the current column.
  std::vector<offset_t> cursor(static_cast<std::size_t>(n), 0);
  std::vector<index_t> link_head(static_cast<std::size_t>(n), -1);
  std::vector<index_t> link_next(static_cast<std::size_t>(n), -1);

  // Dense scatter workspace. Before the switch, touched[i] == j marks row i
  // live in column j and `pattern` lists the live rows; inside the block,
  // every row below j is live and holds +0 until it is updated.
  std::vector<real_t> w(static_cast<std::size_t>(n), 0.0);
  std::vector<index_t> pattern;
  std::vector<char> keep_flags;
  std::vector<index_t> touched(static_cast<std::size_t>(n), -1);
  // Deferred diagonal corrections from dropped branches (compensation).
  std::vector<real_t> diag_corr(static_cast<std::size_t>(n), 0.0);
  std::unique_ptr<PackedTriangle> block;  // the dense trailing block

  auto attach = [&](index_t k, index_t row) {
    link_next[static_cast<std::size_t>(k)] = link_head[static_cast<std::size_t>(row)];
    link_head[static_cast<std::size_t>(row)] = k;
  };

  for (index_t j = 0; j < n; ++j) {
    const bool dense = block != nullptr;
    pattern.clear();
    real_t dj = 0.0;

    // Scatter A(j:n, j); apply the diagonal shift.
    for (offset_t p = cp[static_cast<std::size_t>(j)];
         p < cp[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = ri[static_cast<std::size_t>(p)];
      if (i < j) continue;
      const real_t v = vv[static_cast<std::size_t>(p)];
      if (i == j) {
        dj = v * (1.0 + shift);
        continue;
      }
      if (!dense && touched[static_cast<std::size_t>(i)] != j) {
        touched[static_cast<std::size_t>(i)] = j;
        w[static_cast<std::size_t>(i)] = 0.0;
        pattern.push_back(i);
      }
      w[static_cast<std::size_t>(i)] += v;
    }

    // Apply updates from all columns k < j with L(j,k) != 0, in link-list
    // order. Inside the block, a column k of the block subtracts its whole
    // dense copy below j; its zeros leave every nonzero w[i] as it is.
    // Up to four such columns in a row of the list wait in `fused` and go
    // in one pass over w: each row still takes one subtraction per column
    // in list order, but w is loaded and stored once per four columns.
    const real_t* fused_col[4] = {};
    real_t fused_ljk[4] = {};
    int fused = 0;
    auto subtract_fused = [&] {
      real_t* wj = w.data() + j + 1;
      const index_t len = n - j - 1;
      if (fused == 4) {
        const real_t *d0 = fused_col[0], *d1 = fused_col[1], *d2 = fused_col[2],
                     *d3 = fused_col[3];
        const real_t l0 = fused_ljk[0], l1 = fused_ljk[1], l2 = fused_ljk[2],
                     l3 = fused_ljk[3];
        for (index_t t = 0; t < len; ++t) {
          real_t x = wj[t];
          x -= d0[t] * l0;
          x -= d1[t] * l1;
          x -= d2[t] * l2;
          x -= d3[t] * l3;
          wj[t] = x;
        }
      } else {
        for (int q = 0; q < fused; ++q)
          for (index_t t = 0; t < len; ++t) wj[t] -= fused_col[q][t] * fused_ljk[q];
      }
      fused = 0;
    };
    index_t k = link_head[static_cast<std::size_t>(j)];
    link_head[static_cast<std::size_t>(j)] = -1;
    while (k != -1) {
      const index_t knext = link_next[static_cast<std::size_t>(k)];
      const auto& rk = lrow[static_cast<std::size_t>(k)];
      const auto& vk = lval[static_cast<std::size_t>(k)];
      const auto cur = static_cast<std::size_t>(cursor[static_cast<std::size_t>(k)]);
      const real_t ljk = vk[cur];

      dj -= ljk * ljk;
      if (dense && k >= block->first()) {
        fused_col[fused] = block->col(k) + (j + 1 - k);
        fused_ljk[fused++] = ljk;
        if (fused == 4) subtract_fused();
      } else if (dense) {
        subtract_fused();
        for (std::size_t p = cur + 1; p < rk.size(); ++p)
          w[static_cast<std::size_t>(rk[p])] -= vk[p] * ljk;
      } else {
        for (std::size_t p = cur + 1; p < rk.size(); ++p) {
          const index_t i = rk[p];
          if (touched[static_cast<std::size_t>(i)] != j) {
            touched[static_cast<std::size_t>(i)] = j;
            w[static_cast<std::size_t>(i)] = 0.0;
            pattern.push_back(i);
          }
          w[static_cast<std::size_t>(i)] -= vk[p] * ljk;
        }
      }

      // Advance k's cursor to its next off-diagonal row and re-attach.
      if (cur + 1 < rk.size()) {
        cursor[static_cast<std::size_t>(k)] = static_cast<offset_t>(cur + 1);
        attach(k, rk[cur + 1]);
      }
      k = knext;
    }
    subtract_fused();

    if (opts.diagonal_compensation)
      dj += diag_corr[static_cast<std::size_t>(j)];
    // Breakdown: caller shifts & retries. NaN fails dj > 0, and a
    // non-finite pivot breaks down at every shift.
    if (!(dj > 0.0 && std::isfinite(dj))) return false;

    // The rows to decide on, ascending. Inside the block an exact zero is
    // left out: the passes below drop it without compensation anyway.
    if (dense) {
      for (index_t i = j + 1; i < n; ++i)
        if (w[static_cast<std::size_t>(i)] != 0.0) pattern.push_back(i);
    } else {
      std::sort(pattern.begin(), pattern.end());
    }

    // Threshold dropping (absolute; see header). With compensation, a
    // dropped subdiagonal value w_i (an intermediate-graph branch of
    // conductance -w_i between i and j) is removed from *both* diagonals:
    // from d_j now and from node i's future pivot. A pivot floor keeps
    // extreme columns factorable; entries whose compensation would sink the
    // pivot below the floor are kept instead.
    auto& rj = lrow[static_cast<std::size_t>(j)];
    auto& vj = lval[static_cast<std::size_t>(j)];
    const real_t pivot_floor = opts.compensation_pivot_floor * dj;

    // First pass: decide drops and apply compensation to d_j.
    keep_flags.assign(pattern.size(), 1);
    for (std::size_t pi = 0; pi < pattern.size(); ++pi) {
      const index_t i = pattern[pi];
      const real_t v = w[static_cast<std::size_t>(i)];
      const bool small = std::abs(v) < keep_threshold || v == 0.0;
      if (!small) continue;
      if (opts.diagonal_compensation && v != 0.0) {
        // Opening the branch subtracts (-v) from both endpoints' diagonals;
        // for M-matrix columns v < 0, so dj + v < dj.
        if (dj + v <= pivot_floor) continue;  // keep instead of dropping
        dj += v;
        diag_corr[static_cast<std::size_t>(i)] += v;
      }
      keep_flags[pi] = 0;
    }

    if (!(dj > 0.0 && std::isfinite(dj))) return false;
    const real_t ljj = std::sqrt(dj);
    rj.push_back(j);  // diagonal first
    vj.push_back(ljj);
    for (std::size_t pi = 0; pi < pattern.size(); ++pi) {
      if (!keep_flags[pi]) continue;
      const index_t i = pattern[pi];
      const real_t v = w[static_cast<std::size_t>(i)];
      if (v == 0.0) continue;
      rj.push_back(i);
      vj.push_back(v / ljj);
    }
    if (rj.size() > 1) attach(j, rj[1]);
    cursor[static_cast<std::size_t>(j)] = 1;  // first off-diagonal slot

    if (dense) {
      // Keep the dense copy of column j and clear its rows of w to +0.
      real_t* copy = block->col(j);
      for (std::size_t p = 0; p < rj.size(); ++p) copy[rj[p] - j] = vj[p];
      std::fill(w.begin() + j + 1, w.end(), 0.0);
    } else {
      const index_t below = n - 1 - j;
      const auto kept = static_cast<index_t>(rj.size()) - 1;
      if (is_last_sparse_column(below, kept)) {
        block = std::make_unique<PackedTriangle>(j + 1, n);
        std::fill(w.begin() + j + 1, w.end(), 0.0);
      }
    }
  }

  // Compress into the factor.
  f.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  offset_t nnz = 0;
  for (index_t j = 0; j < n; ++j)
    nnz += static_cast<offset_t>(lrow[static_cast<std::size_t>(j)].size());
  f.row_ind.resize(static_cast<std::size_t>(nnz));
  f.values.resize(static_cast<std::size_t>(nnz));
  offset_t pos = 0;
  for (index_t j = 0; j < n; ++j) {
    const auto& rj = lrow[static_cast<std::size_t>(j)];
    const auto& vj = lval[static_cast<std::size_t>(j)];
    for (std::size_t p = 0; p < rj.size(); ++p) {
      f.row_ind[static_cast<std::size_t>(pos)] = rj[p];
      f.values[static_cast<std::size_t>(pos)] = vj[p];
      ++pos;
    }
    f.col_ptr[static_cast<std::size_t>(j) + 1] = pos;
  }
  return true;
}

}  // namespace

CholFactor ichol(const CscMatrix& a, const std::vector<index_t>& perm,
                 const IcholOptions& opts) {
  if (a.rows() != a.cols()) throw std::invalid_argument("ichol: not square");
  const index_t n = a.cols();
  if (perm.size() != static_cast<std::size_t>(n) || !is_permutation(perm))
    throw std::invalid_argument("ichol: invalid permutation");
  // +inf would drop every off-diagonal, leaving a diagonal "factor".
  if (!(opts.droptol >= 0.0 && std::isfinite(opts.droptol)))
    throw std::invalid_argument("ichol: droptol must be finite and >= 0");

  const CscMatrix ap = a.permute_symmetric(perm);

  // Global conductance scale: median |off-diagonal| of A. Robust to hub
  // columns and to overall unit changes.
  real_t global_scale = 1.0;
  {
    std::vector<real_t> mags;
    mags.reserve(static_cast<std::size_t>(ap.nnz()));
    const auto& cp = ap.col_ptr();
    const auto& ri = ap.row_ind();
    const auto& vv = ap.values();
    for (index_t c = 0; c < n; ++c)
      for (offset_t p = cp[static_cast<std::size_t>(c)];
           p < cp[static_cast<std::size_t>(c) + 1]; ++p)
        if (ri[static_cast<std::size_t>(p)] > c &&
            vv[static_cast<std::size_t>(p)] != 0.0)
          mags.push_back(std::abs(vv[static_cast<std::size_t>(p)]));
    if (!mags.empty()) {
      auto mid = mags.begin() + static_cast<std::ptrdiff_t>(mags.size() / 2);
      std::nth_element(mags.begin(), mid, mags.end());
      global_scale = *mid;
    }
  }

  CholFactor f;
  f.n = n;
  f.perm = perm;
  f.inv_perm = invert_permutation(perm);

  real_t shift = 0.0;
  for (int attempt = 0; attempt <= opts.max_shift_retries; ++attempt) {
    if (ict_attempt(ap, opts, shift, global_scale, f)) return f;
    shift = shift == 0.0 ? opts.initial_shift : 2.0 * shift;
  }
  throw std::runtime_error("ichol: breakdown persisted after max shifts");
}

CholFactor ichol(const CscMatrix& a, const IcholOptions& opts) {
  return ichol(a, mindeg_order(a), opts);
}

}  // namespace er
