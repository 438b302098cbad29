#include "chol/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "order/etree.hpp"

namespace er {

namespace {

/// Column counts of L, diagonal included, from the lower triangle of
/// P A P^T and its etree: the row-subtree skeleton method of Gilbert, Ng
/// and Peyton (CSparse cs_counts), O(nnz(A) alpha(n)) instead of a walk
/// over every entry of L. Row i of L is the subtree of the etree spanned
/// by the leaves j with A(i, j) != 0; counting each leaf once and each
/// least common ancestor of consecutive leaves minus once, then summing
/// up the tree, gives |column j|.
std::vector<offset_t> column_counts(const CscMatrix& lower,
                                    const std::vector<index_t>& parent) {
  const index_t n = lower.cols();
  const auto un = static_cast<std::size_t>(n);
  const std::vector<index_t> post = postorder(parent);
  std::vector<index_t> first(un, -1);     // first postorder index in j's subtree
  std::vector<index_t> maxfirst(un, -1);  // largest first[j] seen for row i
  std::vector<index_t> prevleaf(un, -1);  // previous leaf of row i's subtree
  std::vector<index_t> ancestor(un);      // disjoint-set forest for the LCAs
  std::vector<offset_t> delta(un, 0);
  for (index_t k = 0; k < n; ++k) {
    index_t j = post[static_cast<std::size_t>(k)];
    delta[static_cast<std::size_t>(j)] = first[static_cast<std::size_t>(j)] == -1 ? 1 : 0;
    for (; j != -1 && first[static_cast<std::size_t>(j)] == -1;
         j = parent[static_cast<std::size_t>(j)])
      first[static_cast<std::size_t>(j)] = k;
  }
  for (index_t i = 0; i < n; ++i) ancestor[static_cast<std::size_t>(i)] = i;
  const auto& cp = lower.col_ptr();
  const auto& ri = lower.row_ind();
  for (index_t k = 0; k < n; ++k) {
    const index_t j = post[static_cast<std::size_t>(k)];
    const auto uj = static_cast<std::size_t>(j);
    if (parent[uj] != -1) --delta[static_cast<std::size_t>(parent[uj])];
    for (offset_t p = cp[uj]; p < cp[uj + 1]; ++p) {
      const index_t i = ri[static_cast<std::size_t>(p)];
      const auto ui = static_cast<std::size_t>(i);
      if (i <= j || first[uj] <= maxfirst[ui]) continue;  // j not a leaf of row i
      maxfirst[ui] = first[uj];
      const index_t jprev = prevleaf[ui];
      prevleaf[ui] = j;
      ++delta[uj];
      if (jprev == -1) continue;  // j is row i's first leaf
      index_t q = jprev;  // least common ancestor of jprev and j
      while (q != ancestor[static_cast<std::size_t>(q)]) q = ancestor[static_cast<std::size_t>(q)];
      for (index_t t = jprev; t != q;) {
        const index_t up = ancestor[static_cast<std::size_t>(t)];
        ancestor[static_cast<std::size_t>(t)] = q;
        t = up;
      }
      --delta[static_cast<std::size_t>(q)];
    }
    if (parent[uj] != -1) ancestor[uj] = parent[uj];
  }
  for (index_t j = 0; j < n; ++j)  // children precede parents
    if (parent[static_cast<std::size_t>(j)] != -1)
      delta[static_cast<std::size_t>(parent[static_cast<std::size_t>(j)])] +=
          delta[static_cast<std::size_t>(j)];
  return delta;
}

/// The lower triangle of P A P^T by columns, rows ascending, built in one
/// pass from the entries A(i, j) with new(i) <= new(j): the upper triangle,
/// which is all the factorization reads (its transpose is the upper
/// triangle the etree and row patterns walk).
CscMatrix permuted_lower(const CscMatrix& a, const std::vector<index_t>& perm,
                         const std::vector<index_t>& inv_perm) {
  const index_t n = a.cols();
  const auto& acp = a.col_ptr();
  const auto& ari = a.row_ind();
  const auto& avv = a.values();
  std::vector<offset_t> lcp(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j = 0; j < n; ++j) {
    const index_t nj = inv_perm[static_cast<std::size_t>(j)];
    for (offset_t p = acp[static_cast<std::size_t>(j)];
         p < acp[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = inv_perm[static_cast<std::size_t>(ari[static_cast<std::size_t>(p)])];
      if (i <= nj) ++lcp[static_cast<std::size_t>(i) + 1];
    }
  }
  for (index_t j = 0; j < n; ++j)
    lcp[static_cast<std::size_t>(j) + 1] += lcp[static_cast<std::size_t>(j)];
  std::vector<offset_t> next(lcp.begin(), lcp.end() - 1);
  std::vector<index_t> lri(static_cast<std::size_t>(lcp.back()));
  std::vector<real_t> lvv(lri.size());
  // Sweeping new columns in order appends each lower column's rows
  // ascending.
  for (index_t nj = 0; nj < n; ++nj) {
    const auto j = static_cast<std::size_t>(perm[static_cast<std::size_t>(nj)]);
    for (offset_t p = acp[j]; p < acp[j + 1]; ++p) {
      const index_t i = inv_perm[static_cast<std::size_t>(ari[static_cast<std::size_t>(p)])];
      if (i > nj) continue;
      const auto q = static_cast<std::size_t>(next[static_cast<std::size_t>(i)]++);
      lri[q] = nj;
      lvv[q] = avv[static_cast<std::size_t>(p)];
    }
  }
  return CscMatrix(n, n, std::move(lcp), std::move(lri), std::move(lvv));
}

/// Where a supernode's entries live: column f0 + c of supernode f0..l0
/// holds rows R[c..m) of the supernode's m rows R, and L(R[i], f0 + c)
/// sits at col(c)[i].
struct SupernodeView {
  real_t* lx;
  const offset_t* col_ptr;
  index_t f0;

  [[nodiscard]] real_t* col(index_t c) const {
    return lx + col_ptr[static_cast<std::size_t>(f0 + c)] - c;
  }
};

/// syrk_subtract for an A of kw < 4 columns: one dot product per entry,
/// with row j's values held in registers across the target column.
template <int kKw>
void syrk_subtract_narrow(const real_t* const* a, const index_t* pos,
                          index_t nr, index_t nc, const SupernodeView& t) {
  const real_t* ak[kKw];
  for (int k = 0; k < kKw; ++k) ak[k] = a[k];
  for (index_t j = 0; j < nc; ++j) {
    real_t b[kKw];
    for (int k = 0; k < kKw; ++k) b[k] = ak[k][j];
    real_t* tc = t.col(pos[j]);
    for (index_t i = j; i < nr; ++i) {
      real_t acc = ak[0][i] * b[0];
      for (int k = 1; k < kKw; ++k) acc += ak[k][i] * b[k];
      tc[pos[i]] -= acc;
    }
  }
}

/// T(pos[i], pos[j]) -= sum_{k < kw} a[k][i] * a[k][j] for 0 <= j < nc,
/// j <= i < nr: subtract the lower trapezoid of A A^T, where A is the
/// nr x kw matrix whose column k starts at a[k], from the target
/// supernode's m x w trapezoid T (T(i, c) = t.col(c)[i]); pos maps A's
/// rows to the target's, and its first nc entries are < w. Wide A runs
/// register-blocked 4 x 4 tiles; narrow A (most descendants in a sparse
/// grid factor) one dot product per entry.
void syrk_subtract(const real_t* const* a, index_t kw, const index_t* pos,
                   index_t nr, index_t nc, const SupernodeView& t) {
  switch (kw) {
    case 1: return syrk_subtract_narrow<1>(a, pos, nr, nc, t);
    case 2: return syrk_subtract_narrow<2>(a, pos, nr, nc, t);
    case 3: return syrk_subtract_narrow<3>(a, pos, nr, nc, t);
    default: break;
  }
  constexpr index_t kT = 4;
  for (index_t j0 = 0; j0 < nc; j0 += kT) {
    const index_t mj = std::min(kT, nc - j0);
    for (index_t i0 = j0; i0 < nr; i0 += kT) {
      const index_t mi = std::min(kT, nr - i0);
      real_t acc[kT][kT] = {};  // acc[jj][ii]
      if (mi == kT && mj == kT) {
        for (index_t k = 0; k < kw; ++k) {
          const real_t* ai = a[k] + i0;
          const real_t* aj = a[k] + j0;
          for (index_t jj = 0; jj < kT; ++jj)
            for (index_t ii = 0; ii < kT; ++ii) acc[jj][ii] += ai[ii] * aj[jj];
        }
      } else {
        for (index_t k = 0; k < kw; ++k) {
          const real_t* ai = a[k] + i0;
          const real_t* aj = a[k] + j0;
          for (index_t jj = 0; jj < mj; ++jj)
            for (index_t ii = 0; ii < mi; ++ii) acc[jj][ii] += ai[ii] * aj[jj];
        }
      }
      for (index_t jj = 0; jj < mj; ++jj) {
        real_t* tc = t.col(pos[j0 + jj]);
        for (index_t ii = std::max<index_t>(0, j0 + jj - i0); ii < mi; ++ii)
          tc[pos[i0 + ii]] -= acc[jj][ii];
      }
    }
  }
}

/// Columns of the diagonal block a dense supernode factors per panel.
constexpr index_t kPanel = 16;

}  // namespace

CholFactor cholesky(const CscMatrix& a, const std::vector<index_t>& perm) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: not square");
  const index_t n = a.cols();
  if (perm.size() != static_cast<std::size_t>(n) || !is_permutation(perm))
    throw std::invalid_argument("cholesky: invalid permutation");
  const auto un = static_cast<std::size_t>(n);

  std::vector<index_t> inv_perm = invert_permutation(perm);
  const CscMatrix lower = permuted_lower(a, perm, inv_perm);
  const CscMatrix ap = lower.transpose();
  std::vector<index_t> parent = etree(ap);

  // --- Symbolic pass: column counts, supernodes, row indices. ---
  const std::vector<offset_t> count = column_counts(lower, parent);

  CholFactor f;
  f.n = n;
  f.perm = perm;
  f.inv_perm = std::move(inv_perm);
  f.col_ptr.assign(un + 1, 0);
  for (std::size_t j = 0; j < un; ++j) f.col_ptr[j + 1] = f.col_ptr[j] + count[j];
  const offset_t lnz = f.col_ptr.back();
  f.row_ind.assign(static_cast<std::size_t>(lnz), 0);
  f.values.assign(static_cast<std::size_t>(lnz), 0.0);

  // Fundamental supernodes: j and j+1 share one when j+1 is j's etree
  // parent and column j's rows are j followed by column j+1's rows. No
  // amalgamation, so the pattern gains no explicit zeros.
  f.super_last.assign(un, 0);
  for (index_t j = n; j-- > 0;) {
    const auto uj = static_cast<std::size_t>(j);
    f.super_last[uj] = j + 1 < n && parent[uj] == j + 1 && count[uj] == count[uj + 1] + 1
                           ? f.super_last[uj + 1]
                           : j;
  }

  // Supernode s holds columns super_ptr[s] .. super_ptr[s + 1] - 1.
  std::vector<index_t> super_ptr;
  std::vector<index_t> super_of(un);
  for (index_t j = 0; j < n; j = f.super_last[static_cast<std::size_t>(j)] + 1) {
    for (index_t c = j; c <= f.super_last[static_cast<std::size_t>(j)]; ++c)
      super_of[static_cast<std::size_t>(c)] = static_cast<index_t>(super_ptr.size());
    super_ptr.push_back(j);
  }
  const auto ns = static_cast<index_t>(super_ptr.size());
  super_ptr.push_back(n);
  const index_t* sp = super_ptr.data();
  std::vector<index_t> super_parent(static_cast<std::size_t>(ns));  // -1 at a root
  for (index_t sn = 0; sn < ns; ++sn) {
    const index_t up = parent[static_cast<std::size_t>(sp[sn + 1] - 1)];
    super_parent[static_cast<std::size_t>(sn)] =
        up < 0 ? -1 : super_of[static_cast<std::size_t>(up)];
  }

  // Row indices. A supernode's first column lists its own columns, then
  // each row k below them: ereach over supernodes, since row k of L enters
  // a supernode at some column and then runs through its last one. Rows
  // arrive in ascending k; column f0 + c lists the same rows from
  // position c on.
  index_t* lr = f.row_ind.data();
  const offset_t* lp = f.col_ptr.data();
  {
    std::vector<offset_t> next(static_cast<std::size_t>(ns));
    std::vector<index_t> mark(static_cast<std::size_t>(ns), -1);
    for (index_t sn = 0; sn < ns; ++sn) {
      offset_t& q = next[static_cast<std::size_t>(sn)];
      q = lp[sp[sn]];
      for (index_t c = sp[sn]; c < sp[sn + 1]; ++c) lr[q++] = c;
    }
    const auto& ucp = ap.col_ptr();
    const auto& uri = ap.row_ind();
    for (index_t k = 0; k < n; ++k) {
      for (offset_t p = ucp[static_cast<std::size_t>(k)]; p < ucp[static_cast<std::size_t>(k) + 1];
           ++p) {
        index_t sn = super_of[static_cast<std::size_t>(uri[static_cast<std::size_t>(p)])];
        while (sn >= 0 && sp[sn + 1] <= k && mark[static_cast<std::size_t>(sn)] != k) {
          mark[static_cast<std::size_t>(sn)] = k;
          lr[next[static_cast<std::size_t>(sn)]++] = k;
          sn = super_parent[static_cast<std::size_t>(sn)];
        }
      }
    }
    for (index_t sn = 0; sn < ns; ++sn) {
      const index_t f0 = sp[sn];
      for (index_t c = f0 + 1; c < sp[sn + 1]; ++c)
        std::copy(lr + lp[f0] + (c - f0), lr + lp[f0 + 1], lr + lp[c]);
    }
  }

  // --- Numeric pass (left-looking, supernodal). Each supernode gathers the
  // updates of the supernodes below it that have rows in its columns, then
  // factors its trapezoid densely in place. Descendant lists
  // (CHOLMOD-style): a finished supernode waits in the list of the
  // supernode holding its next unconsumed row, which sits at position
  // pos[d] of its rows. ---
  std::vector<index_t> head(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> link(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> pos(static_cast<std::size_t>(ns), 0);
  const auto& cp = lower.col_ptr();
  const auto& ri = lower.row_ind();
  const auto& vv = lower.values();
  std::vector<index_t> relmap(un);  // row -> position in the current supernode
  std::vector<index_t> relpos(un);  // a descendant's rows, mapped by relmap
  std::vector<real_t> xacc(un, 0.0);  // one column by global row (zero between uses)
  std::vector<const real_t*> apanel(un);
  auto wait_for_next_row = [&](index_t d, index_t p, const index_t* rows) {
    pos[static_cast<std::size_t>(d)] = p;
    const auto next = static_cast<std::size_t>(super_of[static_cast<std::size_t>(rows[p])]);
    link[static_cast<std::size_t>(d)] = head[next];
    head[next] = d;
  };

  for (index_t sn = 0; sn < ns; ++sn) {
    const index_t f0 = sp[sn];
    const index_t l1 = sp[sn + 1];  // one past the last column
    const index_t wd = l1 - f0;
    const SupernodeView view{f.values.data(), lp, f0};
    const auto m = static_cast<index_t>(lp[f0 + 1] - lp[f0]);
    const index_t* rows = lr + lp[f0];

    // Each descendant d, with its rows R_d at [p1, p2) in this supernode's
    // columns and [p1, p3) the rest of its column, gives
    // update(a, kw, R_d + p1, p3 - p1, p2 - p1) with a[k] its column k
    // from row p1 on, and then waits for its next row.
    auto for_each_descendant = [&](auto&& update) {
      for (index_t d = head[static_cast<std::size_t>(sn)]; d != -1;) {
        const index_t dnext = link[static_cast<std::size_t>(d)];
        const index_t fd = sp[d];
        const index_t kw = sp[d + 1] - fd;
        const auto p3 = static_cast<index_t>(lp[fd + 1] - lp[fd]);
        const index_t p1 = pos[static_cast<std::size_t>(d)];
        const index_t* drows = lr + lp[fd];
        index_t p2 = p1 + 1;
        while (p2 < p3 && drows[p2] < l1) ++p2;
        const SupernodeView dview{f.values.data(), lp, fd};
        for (index_t k = 0; k < kw; ++k)
          apanel[static_cast<std::size_t>(k)] = dview.col(k) + p1;
        update(apanel.data(), kw, drows + p1, p3 - p1, p2 - p1);
        if (p2 < p3) wait_for_next_row(d, p2, drows);
        d = dnext;
      }
    };

    if (wd == 1) {
      // A single column (most of a sparse grid factor) accumulates by
      // global row, as a left-looking column Cholesky would, and skips
      // the relative map.
      for (offset_t p = cp[static_cast<std::size_t>(f0)];
           p < cp[static_cast<std::size_t>(f0) + 1]; ++p)
        xacc[static_cast<std::size_t>(ri[static_cast<std::size_t>(p)])] =
            vv[static_cast<std::size_t>(p)];
      for_each_descendant([&](const real_t* const* a, index_t kw, const index_t* drows,
                              index_t nr, index_t) {
        for (index_t k = 0; k < kw; ++k) {
          const real_t* ak = a[k];
          const real_t b = ak[0];
          for (index_t i = 0; i < nr; ++i)
            xacc[static_cast<std::size_t>(drows[i])] -= ak[i] * b;
        }
      });
      real_t* lc = view.col(0);
      for (index_t i = 0; i < m; ++i) {
        lc[i] = xacc[static_cast<std::size_t>(rows[i])];
        xacc[static_cast<std::size_t>(rows[i])] = 0.0;
      }
    } else {
      for (index_t i = 0; i < m; ++i) relmap[static_cast<std::size_t>(rows[i])] = i;
      for (index_t c = 0; c < wd; ++c) {
        real_t* lc = view.col(c);
        for (offset_t p = cp[static_cast<std::size_t>(f0 + c)];
             p < cp[static_cast<std::size_t>(f0 + c) + 1]; ++p)
          lc[relmap[static_cast<std::size_t>(ri[static_cast<std::size_t>(p)])]] =
              vv[static_cast<std::size_t>(p)];
      }
      for_each_descendant([&](const real_t* const* a, index_t kw, const index_t* drows,
                              index_t nr, index_t nc) {
        for (index_t i = 0; i < nr; ++i)
          relpos[static_cast<std::size_t>(i)] = relmap[static_cast<std::size_t>(drows[i])];
        syrk_subtract(a, kw, relpos.data(), nr, nc, view);
      });
    }

    // Dense factorization of the trapezoid, kPanel columns at a time: the
    // panel takes the updates of the supernode's earlier columns, then its
    // own columns are factored left-looking.
    for (index_t c0 = 0; c0 < wd; c0 += kPanel) {
      const index_t c1 = std::min(wd, c0 + kPanel);
      if (c0 > 0) {
        for (index_t k = 0; k < c0; ++k)
          apanel[static_cast<std::size_t>(k)] = view.col(k) + c0;
        for (index_t i = c0; i < m; ++i) relpos[static_cast<std::size_t>(i - c0)] = i;
        syrk_subtract(apanel.data(), c0, relpos.data(), m - c0, c1 - c0, view);
      }
      for (index_t c = c0; c < c1; ++c) {
        real_t* lc = view.col(c);
        for (index_t k = c0; k < c; ++k) {
          const real_t* lk = view.col(k);
          const real_t b = lk[c];
          for (index_t i = c; i < m; ++i) lc[i] -= lk[i] * b;
        }
        const real_t d = lc[c];
        // NaN fails d > 0, so non-finite input cannot factor silently.
        if (!(d > 0.0 && std::isfinite(d)))
          throw std::runtime_error("cholesky: matrix is not positive definite");
        const real_t ljj = std::sqrt(d);
        lc[c] = ljj;
        const real_t inv = 1.0 / ljj;
        for (index_t i = c + 1; i < m; ++i) lc[i] *= inv;
      }
    }
    if (wd < m) wait_for_next_row(sn, wd, rows);
  }
  f.parent = std::move(parent);
  return f;
}

CholFactor cholesky(const CscMatrix& a, Ordering ordering) {
  return cholesky(a, compute_ordering(a, ordering));
}

}  // namespace er
