#include "chol/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "order/amd.hpp"
#include "order/etree.hpp"
#include "order/mindeg.hpp"
#include "parallel/task_heap.hpp"

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
void syrk_subtract_narrow(const real_t* const* a, const index_t* pos, index_t r0,
                          index_t nr, index_t nc, const SupernodeView& t) {
  const real_t* ak[kKw];
  for (int k = 0; k < kKw; ++k) ak[k] = a[k];
  for (index_t j = 0; j < nc; ++j) {
    real_t b[kKw];
    for (int k = 0; k < kKw; ++k) b[k] = ak[k][j];
    real_t* tc = t.col(pos[j]);
    for (index_t i = std::max(j, r0); i < nr; ++i) {
      real_t acc = ak[0][i] * b[0];
      for (int k = 1; k < kKw; ++k) acc += ak[k][i] * b[k];
      tc[pos[i]] -= acc;
    }
  }
}

/// T(pos[i], pos[j]) -= sum_{k < kw} a[k][i] * a[k][j] for 0 <= j < nc,
/// max(j, r0) <= i < nr: subtract rows r0.. of the lower trapezoid of
/// A A^T, where A is the nr x kw matrix whose column k starts at a[k], from
/// the target supernode's m x w trapezoid T (T(i, c) = t.col(c)[i]); pos
/// maps A's rows to the target's, and its first nc entries are < w. Wide A
/// runs register-blocked 4 x 4 tiles; narrow A (most descendants in a
/// sparse grid factor) one dot product per entry. Either way an entry takes
/// one subtraction of its products summed in k order, whether a full tile
/// or an edge tile holds it, so a split that moves r0 or A's first row
/// moves tile boundaries but no bits.
void syrk_subtract(const real_t* const* a, index_t kw, const index_t* pos,
                   index_t r0, index_t nr, index_t nc, const SupernodeView& t) {
  switch (kw) {
    case 1: return syrk_subtract_narrow<1>(a, pos, r0, nr, nc, t);
    case 2: return syrk_subtract_narrow<2>(a, pos, r0, nr, nc, t);
    case 3: return syrk_subtract_narrow<3>(a, pos, r0, nr, nc, t);
    default: break;
  }
  constexpr index_t kT = 4;
  for (index_t j0 = 0; j0 < nc; j0 += kT) {
    const index_t mj = std::min(kT, nc - j0);
    for (index_t i0 = std::max(j0, r0); i0 < nr; i0 += kT) {
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

/// One update a supernode gathers: rows [p1, p2) of descendant d's row
/// list fall in the target's columns.
struct Update {
  index_t d;
  index_t p1;
  index_t p2;
};

/// The updates each supernode gathers, in the order a serial left-looking
/// pass with CHOLMOD-style descendant lists delivers them: a finished
/// supernode waits in the list of the supernode holding its next
/// unconsumed row, and the lists are LIFO. Replaying the lists once here
/// gives every supernode a fixed, read-only update order, so the numeric
/// pass shares no list between threads. Updates of supernode sn are
/// upd[upd_ptr[sn] .. upd_ptr[sn + 1]).
void descendant_updates(const std::vector<index_t>& super_ptr,
                        const std::vector<index_t>& super_of, const offset_t* lp,
                        const index_t* lr, std::vector<offset_t>& upd_ptr,
                        std::vector<Update>& upd) {
  const auto ns = static_cast<index_t>(super_ptr.size()) - 1;
  const index_t* sp = super_ptr.data();
  std::vector<index_t> head(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> link(static_cast<std::size_t>(ns), -1);
  std::vector<index_t> pos(static_cast<std::size_t>(ns), 0);
  auto wait_for_next_row = [&](index_t d, index_t p, const index_t* rows) {
    pos[static_cast<std::size_t>(d)] = p;
    const auto next = static_cast<std::size_t>(super_of[static_cast<std::size_t>(rows[p])]);
    link[static_cast<std::size_t>(d)] = head[next];
    head[next] = d;
  };
  upd_ptr.assign(static_cast<std::size_t>(ns) + 1, 0);
  for (index_t sn = 0; sn < ns; ++sn) {
    upd_ptr[static_cast<std::size_t>(sn)] = static_cast<offset_t>(upd.size());
    const index_t l1 = sp[sn + 1];
    for (index_t d = head[static_cast<std::size_t>(sn)]; d != -1;) {
      const index_t dnext = link[static_cast<std::size_t>(d)];
      const index_t fd = sp[d];
      const auto p3 = static_cast<index_t>(lp[fd + 1] - lp[fd]);
      const index_t p1 = pos[static_cast<std::size_t>(d)];
      const index_t* drows = lr + lp[fd];
      index_t p2 = p1 + 1;
      while (p2 < p3 && drows[p2] < l1) ++p2;
      upd.push_back({d, p1, p2});
      if (p2 < p3) wait_for_next_row(d, p2, drows);
      d = dnext;
    }
    const index_t wd = l1 - sp[sn];
    if (wd < static_cast<index_t>(lp[sp[sn] + 1] - lp[sp[sn]]))
      wait_for_next_row(sn, wd, lr + lp[sp[sn]]);
  }
  upd_ptr.back() = static_cast<offset_t>(upd.size());
}

/// Scratch of one thread of the numeric pass. The calling thread allocates
/// every instance, so no pool worker's allocator arena grows for it.
struct NumericScratch {
  NumericScratch(index_t n, index_t max_rows, index_t max_width)
      : relmap(static_cast<std::size_t>(n)),
        relpos(static_cast<std::size_t>(max_rows)),
        xacc(static_cast<std::size_t>(n), 0.0),
        apanel(static_cast<std::size_t>(max_width)) {}

  std::vector<index_t> relmap;  // row -> position in supernode `mapped`
  index_t mapped = -1;
  std::vector<index_t> relpos;  // an update's rows, mapped by relmap
  std::vector<real_t> xacc;     // one column by global row (zero between uses)
  std::vector<const real_t*> apanel;
};

/// The numeric pass (left-looking, supernodal) as steps that each write
/// only one supernode's columns and read finished descendants. A supernode
/// gathers its updates (the A entries of its columns, then each update of
/// its fixed list), then factors its trapezoid densely in place, kPanel
/// columns at a time: the panel's diagonal block, then the rows below it.
/// Any split of a gather by target columns or of a panel's rows into
/// blocks gives every entry the same operations in the same order.
class NumericPass {
 public:
  NumericPass(CholFactor& f, const CscMatrix& lower, const std::vector<index_t>& super_ptr,
              const std::vector<offset_t>& upd_ptr, const std::vector<Update>& upd)
      : n_(f.n),
        ns_(static_cast<index_t>(super_ptr.size()) - 1),
        lx_(f.values.data()),
        lp_(f.col_ptr.data()),
        lr_(f.row_ind.data()),
        sp_(super_ptr.data()),
        cp_(lower.col_ptr().data()),
        ri_(lower.row_ind().data()),
        vv_(lower.values().data()),
        upd_ptr_(upd_ptr.data()),
        upd_(upd.data()) {}

  [[nodiscard]] index_t supernodes() const { return ns_; }
  [[nodiscard]] index_t width(index_t sn) const { return sp_[sn + 1] - sp_[sn]; }
  [[nodiscard]] index_t rows(index_t sn) const {
    return static_cast<index_t>(lp_[sp_[sn] + 1] - lp_[sp_[sn]]);
  }

  /// Scratch for one thread of the pass.
  [[nodiscard]] NumericScratch make_scratch() const {
    index_t max_rows = 0;
    index_t max_width = 0;
    for (index_t sn = 0; sn < ns_; ++sn) {
      max_rows = std::max(max_rows, rows(sn));
      max_width = std::max(max_width, width(sn));
    }
    return NumericScratch(n_, max_rows, max_width);
  }

  /// The whole supernode: what the serial pass runs for each sn in order.
  void factor_supernode(index_t sn, NumericScratch& s) const {
    const index_t wd = width(sn);
    const index_t m = rows(sn);
    if (wd == 1) {
      gather_column(sn, s);
    } else {
      gather(sn, 0, wd, s);
    }
    for (index_t c0 = 0; c0 < wd; c0 += kPanel) {
      factor_panel_diagonal(sn, c0, s);
      const index_t c1 = std::min(wd, c0 + kPanel);
      if (c1 < m) factor_panel_rows(sn, c0, c1, m, s);
    }
  }

  /// Gather of target columns [ca, cb) of a supernode of width > 1: A's
  /// entries, then the part of each update in those columns.
  void gather(index_t sn, index_t ca, index_t cb, NumericScratch& s) const {
    const index_t f0 = sp_[sn];
    const index_t wd = width(sn);
    const SupernodeView view{lx_, lp_, f0};
    if (s.mapped != sn) {
      const index_t* rows_sn = lr_ + lp_[f0];
      for (index_t i = 0, m = rows(sn); i < m; ++i)
        s.relmap[static_cast<std::size_t>(rows_sn[i])] = i;
      s.mapped = sn;
    }
    for (index_t c = ca; c < cb; ++c) {
      real_t* lc = view.col(c);
      for (offset_t p = cp_[f0 + c]; p < cp_[f0 + c + 1]; ++p)
        lc[s.relmap[static_cast<std::size_t>(ri_[p])]] = vv_[p];
    }
    for (offset_t u = upd_ptr_[sn]; u < upd_ptr_[sn + 1]; ++u) {
      const auto [d, p1, p2] = upd_[u];
      const index_t fd = sp_[d];
      const index_t* drows = lr_ + lp_[fd] + p1;
      // The update's rows in columns [ca, cb) are drows[ja .. jb).
      index_t ja = 0;
      index_t jb = p2 - p1;
      if (ca > 0) ja = static_cast<index_t>(std::lower_bound(drows, drows + jb, f0 + ca) - drows);
      if (cb < wd)
        jb = static_cast<index_t>(std::lower_bound(drows + ja, drows + jb, f0 + cb) - drows);
      if (ja == jb) continue;
      const index_t kw = width(d);
      const SupernodeView dview{lx_, lp_, fd};
      for (index_t k = 0; k < kw; ++k)
        s.apanel[static_cast<std::size_t>(k)] = dview.col(k) + p1 + ja;
      const index_t nr = rows(d) - p1 - ja;
      for (index_t i = 0; i < nr; ++i)
        s.relpos[static_cast<std::size_t>(i)] =
            s.relmap[static_cast<std::size_t>(drows[ja + i])];
      syrk_subtract(s.apanel.data(), kw, s.relpos.data(), 0, nr, jb - ja, view);
    }
  }

  /// Panel [c0, c1) of a supernode, rows [c0, c1): the updates of the
  /// earlier columns, then the diagonal block factored left-looking.
  /// Throws std::runtime_error on a pivot that is not positive.
  void factor_panel_diagonal(index_t sn, index_t c0, NumericScratch& s) const {
    const SupernodeView view{lx_, lp_, sp_[sn]};
    const index_t c1 = std::min(width(sn), c0 + kPanel);
    if (c0 > 0) {
      for (index_t k = 0; k < c0; ++k)
        s.apanel[static_cast<std::size_t>(k)] = view.col(k) + c0;
      for (index_t i = 0; i < c1 - c0; ++i) s.relpos[static_cast<std::size_t>(i)] = c0 + i;
      syrk_subtract(s.apanel.data(), c0, s.relpos.data(), 0, c1 - c0, c1 - c0, view);
    }
    for (index_t c = c0; c < c1; ++c) {
      real_t* lc = view.col(c);
      for (index_t k = c0; k < c; ++k) {
        const real_t* lk = view.col(k);
        const real_t b = lk[c];
        for (index_t i = c; i < c1; ++i) lc[i] -= lk[i] * b;
      }
      const real_t d = lc[c];
      // NaN fails d > 0, so non-finite input cannot factor silently.
      if (!(d > 0.0 && std::isfinite(d)))
        throw std::runtime_error("cholesky: matrix is not positive definite");
      const real_t ljj = std::sqrt(d);
      lc[c] = ljj;
      const real_t inv = 1.0 / ljj;
      for (index_t i = c + 1; i < c1; ++i) lc[i] *= inv;
    }
  }

  /// Panel [c0, c1) of a supernode, rows [ia, ib) below its diagonal block
  /// (c1 <= ia): the updates of the earlier columns, then the panel's
  /// columns solved against the factored diagonal block.
  void factor_panel_rows(index_t sn, index_t c0, index_t ia, index_t ib,
                         NumericScratch& s) const {
    const SupernodeView view{lx_, lp_, sp_[sn]};
    const index_t c1 = std::min(width(sn), c0 + kPanel);
    if (c0 > 0) {
      for (index_t k = 0; k < c0; ++k)
        s.apanel[static_cast<std::size_t>(k)] = view.col(k) + c0;
      for (index_t i = 0; i < c1 - c0; ++i) s.relpos[static_cast<std::size_t>(i)] = c0 + i;
      for (index_t i = ia - c0; i < ib - c0; ++i)
        s.relpos[static_cast<std::size_t>(i)] = c0 + i;
      syrk_subtract(s.apanel.data(), c0, s.relpos.data(), ia - c0, ib - c0, c1 - c0, view);
    }
    for (index_t c = c0; c < c1; ++c) {
      real_t* lc = view.col(c);
      for (index_t k = c0; k < c; ++k) {
        const real_t* lk = view.col(k);
        const real_t b = lk[c];
        for (index_t i = ia; i < ib; ++i) lc[i] -= lk[i] * b;
      }
      const real_t inv = 1.0 / lc[c];
      for (index_t i = ia; i < ib; ++i) lc[i] *= inv;
    }
  }

  /// Multiply-adds of a supernode's gather and dense factorization, the
  /// scheduling estimate.
  [[nodiscard]] double work(index_t sn) const {
    double w = 0.0;
    for (offset_t u = upd_ptr_[sn]; u < upd_ptr_[sn + 1]; ++u) {
      const auto [d, p1, p2] = upd_[u];
      const double nr = rows(d) - p1;
      const double nc = p2 - p1;
      w += width(d) * (nc * nr - nc * (nc - 1.0) / 2.0);
    }
    // Column c takes c column updates on its m - c rows.
    const double wd = width(sn);
    const double m = rows(sn);
    return w + m * wd * (wd - 1.0) / 2.0 - (wd - 1.0) * wd * (2.0 * wd - 1.0) / 6.0;
  }

  /// Multiply-adds of each column's part of a supernode's gather, added to
  /// cw[0 .. width).
  void gather_work(index_t sn, double* cw) const {
    const index_t f0 = sp_[sn];
    for (offset_t u = upd_ptr_[sn]; u < upd_ptr_[sn + 1]; ++u) {
      const auto [d, p1, p2] = upd_[u];
      const index_t* drows = lr_ + lp_[sp_[d]] + p1;
      const double kw = width(d);
      const index_t nr = rows(d) - p1;
      for (index_t j = 0; j < p2 - p1; ++j) cw[drows[j] - f0] += kw * (nr - j);
    }
  }

 private:
  /// Gather of a single column (most of a sparse grid factor): it
  /// accumulates by global row, as a left-looking column Cholesky would,
  /// and skips the relative map.
  void gather_column(index_t sn, NumericScratch& s) const {
    const index_t f0 = sp_[sn];
    real_t* xacc = s.xacc.data();
    for (offset_t p = cp_[f0]; p < cp_[f0 + 1]; ++p) xacc[ri_[p]] = vv_[p];
    for (offset_t u = upd_ptr_[sn]; u < upd_ptr_[sn + 1]; ++u) {
      const auto [d, p1, p2] = upd_[u];
      const index_t fd = sp_[d];
      const index_t* drows = lr_ + lp_[fd] + p1;
      const index_t nr = rows(d) - p1;
      const SupernodeView dview{lx_, lp_, fd};
      for (index_t k = 0, kw = width(d); k < kw; ++k) {
        const real_t* ak = dview.col(k) + p1;
        const real_t b = ak[0];
        for (index_t i = 0; i < nr; ++i) xacc[drows[i]] -= ak[i] * b;
      }
    }
    real_t* lc = lx_ + lp_[f0];
    const index_t* rows_sn = lr_ + lp_[f0];
    for (index_t i = 0, m = rows(sn); i < m; ++i) {
      lc[i] = xacc[rows_sn[i]];
      xacc[rows_sn[i]] = 0.0;
    }
  }

  index_t n_;
  index_t ns_;
  real_t* lx_;
  const offset_t* lp_;
  const index_t* lr_;
  const index_t* sp_;
  const offset_t* cp_;
  const index_t* ri_;
  const real_t* vv_;
  const offset_t* upd_ptr_;
  const Update* upd_;
};

/// A split step's chunks carry at least this many multiply-adds.
constexpr double kMinChunkWork = 1 << 13;
/// Subtree tasks per thread: the supernodes under that share of the
/// work factor serially as one task.
constexpr double kSubtreesPerThread = 8.0;
/// Chunks per thread of one split step.
constexpr index_t kChunksPerThread = 2;

/// The numeric pass on a pool, as a dependency-driven task graph. Small
/// subtrees of the supernodal etree (bundled with their siblings) factor
/// serially as one task each; a supernode above them becomes ready when
/// all its children are done. A wide one then splits: its gather by
/// target columns, and each panel into the diagonal block and row blocks
/// below it, one step after the other. A TaskHeap runs the ready tasks,
/// longest path to the root first, on the calling thread and the pool's
/// idle workers. Every task runs NumericPass steps, so the factor is
/// bitwise equal to the serial one whichever thread runs what.
class ScheduledNumeric {
 public:
  ScheduledNumeric(const NumericPass& pass, const std::vector<index_t>& super_parent,
                   int threads)
      : pass_(pass), parent_(super_parent), threads_(threads) {
    const index_t ns = pass_.supernodes();
    const auto uns = static_cast<std::size_t>(ns);
    std::vector<double> work(uns);
    double total = 0.0;
    for (index_t sn = 0; sn < ns; ++sn)
      total += work[static_cast<std::size_t>(sn)] = pass_.work(sn);

    // Subtree work; children precede parents.
    std::vector<double> subtree = work;
    for (index_t sn = 0; sn < ns; ++sn)
      if (parent_[static_cast<std::size_t>(sn)] >= 0)
        subtree[static_cast<std::size_t>(parent_[static_cast<std::size_t>(sn)])] +=
            subtree[static_cast<std::size_t>(sn)];
    const double cap = total / (kSubtreesPerThread * threads_);
    pending_.assign(uns, 0);
    remaining_.assign(uns, 0);
    path_.assign(uns, 0.0);
    cut_ptr_.assign(uns + 1, 0);

    // A supernode whose subtree holds more than `cap` is scheduled on its
    // own; below it, each maximal subtree under `cap` joins a bundle of
    // its siblings' subtrees.
    std::vector<index_t> root(uns, -1);
    index_t tops = 0;
    for (index_t sn = ns; sn-- > 0;) {
      const auto u = static_cast<std::size_t>(sn);
      const index_t p = parent_[u];
      path_[u] = work[u] + (p >= 0 ? path_[static_cast<std::size_t>(p)] : 0.0);
      if (subtree[u] > cap) {
        ++tops;
        if (p >= 0) ++pending_[static_cast<std::size_t>(p)];
      } else {
        root[u] = p < 0 || subtree[static_cast<std::size_t>(p)] > cap
                      ? sn
                      : root[static_cast<std::size_t>(p)];
      }
    }
    std::vector<index_t> open(uns + 1, -1);  // bundle open under parent (ns: no parent)
    std::vector<double> open_work(uns + 1, 0.0);
    std::vector<index_t> bundle_of(uns, -1);
    std::vector<double> bundle_work;
    for (index_t sn = 0; sn < ns; ++sn) {
      const auto u = static_cast<std::size_t>(sn);
      if (root[u] != sn) continue;
      const index_t p = parent_[u];
      const std::size_t slot = p < 0 ? uns : static_cast<std::size_t>(p);
      if (open[slot] < 0 || open_work[slot] + subtree[u] > cap) {
        open[slot] = static_cast<index_t>(bundle_parent_.size());
        open_work[slot] = 0.0;
        bundle_parent_.push_back(p);
        bundle_work.push_back(0.0);
        if (p >= 0) ++pending_[slot];
      }
      open_work[slot] += subtree[u];
      bundle_work[static_cast<std::size_t>(open[slot])] += subtree[u];
      bundle_of[u] = open[slot];
    }
    // Bundle members in ascending order: a subtree's columns come after
    // its descendants'.
    const std::size_t bundles = bundle_parent_.size();
    bundle_ptr_.assign(bundles + 1, 0);
    for (index_t sn = 0; sn < ns; ++sn) {
      const auto u = static_cast<std::size_t>(sn);
      if (root[u] < 0) continue;
      bundle_of[u] = bundle_of[static_cast<std::size_t>(root[u])];
      ++bundle_ptr_[static_cast<std::size_t>(bundle_of[u]) + 1];
    }
    for (std::size_t b = 0; b < bundles; ++b) bundle_ptr_[b + 1] += bundle_ptr_[b];
    bundle_members_.resize(static_cast<std::size_t>(bundle_ptr_.back()));
    {
      std::vector<index_t> next(bundle_ptr_.begin(), bundle_ptr_.end() - 1);
      for (index_t sn = 0; sn < ns; ++sn)
        if (root[static_cast<std::size_t>(sn)] >= 0)
          bundle_members_[static_cast<std::size_t>(
              next[static_cast<std::size_t>(bundle_of[static_cast<std::size_t>(sn)])]++)] = sn;
    }

    // Wide supernodes: a scheduled supernode of two panels or more that
    // holds a bundle's share of the work splits its gather into column
    // chunks of about equal work.
    const index_t max_chunks = kChunksPerThread * threads_;
    index_t wide = 0;
    std::vector<double> cw;
    for (index_t sn = 0; sn < ns; ++sn) {
      const auto u = static_cast<std::size_t>(sn);
      const index_t wd = pass_.width(sn);
      cut_ptr_[u + 1] = cut_ptr_[u];
      if (root[u] >= 0 || wd < 2 * kPanel || work[u] < cap) continue;
      ++wide;
      cw.assign(static_cast<std::size_t>(wd), 0.0);
      pass_.gather_work(sn, cw.data());
      double gather = 0.0;
      for (const double w : cw) gather += w;
      const auto chunks = static_cast<index_t>(
          std::clamp(gather / kMinChunkWork, 1.0, static_cast<double>(max_chunks)));
      // Cut after the column where the running work passes r / chunks of
      // the gather.
      const auto share = [&](index_t r) {
        return gather * static_cast<double>(r) / static_cast<double>(chunks);
      };
      cuts_.push_back(0);
      double acc = 0.0;
      index_t r = 1;
      for (index_t c = 0; c + 1 < wd; ++c) {
        acc += cw[static_cast<std::size_t>(c)];
        if (r < chunks && acc >= share(r)) {
          cuts_.push_back(c + 1);
          while (r < chunks && acc >= share(r)) ++r;
        }
      }
      cuts_.push_back(wd);
      cut_ptr_[u + 1] = static_cast<index_t>(cuts_.size());
    }
    // Every bundle and scheduled supernode has at most one task queued,
    // and a wide supernode at most one step's chunks.
    ready_.reserve(bundles + static_cast<std::size_t>(tops) +
                   static_cast<std::size_t>(wide) * static_cast<std::size_t>(max_chunks));
    for (std::size_t b = 0; b < bundles; ++b) {
      const index_t p = bundle_parent_[b];
      ready_.push_back({bundle_work[b] + (p >= 0 ? path_[static_cast<std::size_t>(p)] : 0.0),
                        Kind::kBundle, static_cast<index_t>(b), 0, 0});
    }
    for (index_t sn = 0; sn < ns; ++sn)
      if (root[static_cast<std::size_t>(sn)] < 0 && pending_[static_cast<std::size_t>(sn)] == 0)
        make_ready(sn, ready_);
    scratch_.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) scratch_.push_back(pass_.make_scratch());
  }

  /// Factor on the calling thread and `pool`'s idle workers; rethrows the
  /// first task error (a pivot that is not positive) once every slot has
  /// stopped.
  void run(ThreadPool& pool) {
    TaskHeap(
        std::move(ready_),
        [this](const Task& task, int slot) {
          execute(task, scratch_[static_cast<std::size_t>(slot)]);
        },
        [this](const Task& task, std::vector<Task>& ready) { complete(task, ready); })
        .run(pool);
  }

 private:
  enum class Kind { kBundle, kSupernode, kGather, kDiagonal, kRows };
  /// A ready task: kBundle `id`; or supernode `id` whole (kSupernode), its
  /// gather chunk `a` (kGather), the diagonal block of its panel at column
  /// `a` (kDiagonal), or row block `b` of that panel (kRows).
  struct Task {
    double priority;
    Kind kind;
    index_t id;
    index_t a;
    index_t b;

    friend bool operator<(const Task& x, const Task& y) { return x.priority < y.priority; }
  };

  [[nodiscard]] index_t panel_end(index_t sn, index_t c0) const {
    return std::min(pass_.width(sn), c0 + kPanel);
  }

  /// Row blocks of panel c0's rows below its diagonal block, multiples of
  /// 4 rows of about equal work.
  [[nodiscard]] index_t row_blocks(index_t sn, index_t c0) const {
    const index_t c1 = panel_end(sn, c0);
    const index_t quads = (pass_.rows(sn) - c1 + 3) / 4;
    const double pw = c1 - c0;
    const double w = 4.0 * quads * pw * (c0 + pw / 2.0);
    const double most = std::min<double>(kChunksPerThread * threads_, quads);
    return static_cast<index_t>(std::clamp(w / kMinChunkWork, 1.0, most));
  }

  void execute(const Task& task, NumericScratch& s) const {
    switch (task.kind) {
      case Kind::kBundle:
        for (index_t p = bundle_ptr_[static_cast<std::size_t>(task.id)];
             p < bundle_ptr_[static_cast<std::size_t>(task.id) + 1]; ++p)
          pass_.factor_supernode(bundle_members_[static_cast<std::size_t>(p)], s);
        return;
      case Kind::kSupernode:
        pass_.factor_supernode(task.id, s);
        return;
      case Kind::kGather: {
        const index_t* cut = cuts_.data() + cut_ptr_[static_cast<std::size_t>(task.id)] + task.a;
        pass_.gather(task.id, cut[0], cut[1], s);
        return;
      }
      case Kind::kDiagonal:
        pass_.factor_panel_diagonal(task.id, task.a, s);
        return;
      case Kind::kRows: {
        const index_t c1 = panel_end(task.id, task.a);
        const index_t m = pass_.rows(task.id);
        const index_t quads = (m - c1 + 3) / 4;
        const index_t blocks = row_blocks(task.id, task.a);
        const index_t ia = c1 + 4 * (quads * task.b / blocks);
        const index_t ib = std::min(m, c1 + 4 * (quads * (task.b + 1) / blocks));
        pass_.factor_panel_rows(task.id, task.a, ia, ib, s);
        return;
      }
    }
  }

  void make_ready(index_t sn, std::vector<Task>& ready) {
    const double priority = path_[static_cast<std::size_t>(sn)];
    const index_t chunks = cut_ptr_[static_cast<std::size_t>(sn) + 1] -
                           cut_ptr_[static_cast<std::size_t>(sn)] - 1;
    if (chunks < 1) {
      ready.push_back({priority, Kind::kSupernode, sn, 0, 0});
      return;
    }
    remaining_[static_cast<std::size_t>(sn)] = chunks;
    for (index_t r = 0; r < chunks; ++r) ready.push_back({priority, Kind::kGather, sn, r, 0});
  }

  /// A bundle or a scheduled supernode under `p` (-1: a root) is done.
  void child_done(index_t p, std::vector<Task>& ready) {
    if (p >= 0 && --pending_[static_cast<std::size_t>(p)] == 0) make_ready(p, ready);
  }

  /// `task` is done: appends the tasks it readies to `ready`.
  void complete(const Task& task, std::vector<Task>& ready) {
    const index_t sn = task.id;
    const auto u = static_cast<std::size_t>(sn);
    switch (task.kind) {
      case Kind::kBundle:
        child_done(bundle_parent_[u], ready);
        return;
      case Kind::kSupernode:
        child_done(parent_[u], ready);
        return;
      case Kind::kGather:
        if (--remaining_[u] == 0) ready.push_back({task.priority, Kind::kDiagonal, sn, 0, 0});
        return;
      case Kind::kDiagonal:
      case Kind::kRows: {
        if (task.kind == Kind::kRows && --remaining_[u] > 0) return;
        const index_t c1 = panel_end(sn, task.a);
        if (task.kind == Kind::kDiagonal && c1 < pass_.rows(sn)) {
          const index_t blocks = row_blocks(sn, task.a);
          remaining_[u] = blocks;
          for (index_t r = 0; r < blocks; ++r)
            ready.push_back({task.priority, Kind::kRows, sn, task.a, r});
        } else if (c1 < pass_.width(sn)) {
          ready.push_back({task.priority, Kind::kDiagonal, sn, c1, 0});
        } else {
          child_done(parent_[u], ready);
        }
        return;
      }
    }
  }

  const NumericPass& pass_;
  const std::vector<index_t>& parent_;  // supernodal etree
  const int threads_;
  std::vector<double> path_;  // work from a supernode up to its root
  std::vector<index_t> bundle_parent_;
  std::vector<index_t> bundle_ptr_;  // bundle b: bundle_members_[ptr[b] .. ptr[b + 1])
  std::vector<index_t> bundle_members_;
  std::vector<index_t> cut_ptr_;  // wide sn: gather chunk c is columns cuts_[ptr[sn] + c ..+ 1]
  std::vector<index_t> cuts_;
  std::vector<NumericScratch> scratch_;  // one per TaskHeap slot
  std::vector<Task> ready_;              // the first tasks
  // Changed in complete() only.
  std::vector<index_t> pending_;    // children not done
  std::vector<index_t> remaining_;  // chunks of a split step
};

}  // namespace

CholFactor cholesky(const CscMatrix& a, const std::vector<index_t>& perm, ThreadPool* pool) {
  if (a.rows() != a.cols()) throw std::invalid_argument("cholesky: not square");
  const index_t n = a.cols();
  if (perm.size() != static_cast<std::size_t>(n) || !is_permutation(perm))
    throw std::invalid_argument("cholesky: invalid permutation");
  const auto un = static_cast<std::size_t>(n);

  std::vector<index_t> inv_perm = invert_permutation(perm);
  const CscMatrix lower = permuted_lower(a, perm, inv_perm);
  const CscMatrix ap = lower.transpose();
  std::vector<index_t> parent = etree(ap);

  // --- Symbolic pass: column counts, supernodes, row indices, update
  // lists. ---
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
  std::vector<offset_t> upd_ptr;
  std::vector<Update> upd;
  descendant_updates(super_ptr, super_of, lp, lr, upd_ptr, upd);

  // --- Numeric pass: serially in supernode order, or scheduled on the
  // pool with the same steps. ---
  const NumericPass pass(f, lower, super_ptr, upd_ptr, upd);
  if (pool != nullptr && pool->num_threads() > 1) {
    ScheduledNumeric(pass, super_parent, pool->num_threads()).run(*pool);
  } else {
    NumericScratch scratch = pass.make_scratch();
    for (index_t sn = 0; sn < ns; ++sn) pass.factor_supernode(sn, scratch);
  }
  f.parent = std::move(parent);
  return f;
}

CholFactor cholesky(const CscMatrix& a) { return cholesky(a, amd_order(a)); }

}  // namespace er
