#include "chol/factor.hpp"

#include <algorithm>
#include <stdexcept>

#include "order/mindeg.hpp"

namespace er {

void CholFactor::forward_solve(std::vector<real_t>& x) const {
  if (x.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("forward_solve: size mismatch");
  for (index_t j = 0; j < n; ++j) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    const real_t xj = x[static_cast<std::size_t>(j)] /
                      values[static_cast<std::size_t>(begin)];
    x[static_cast<std::size_t>(j)] = xj;
    if (xj == 0.0) continue;
    for (offset_t p = begin + 1; p < end; ++p)
      x[static_cast<std::size_t>(row_ind[static_cast<std::size_t>(p)])] -=
          values[static_cast<std::size_t>(p)] * xj;
  }
}

void CholFactor::backward_solve(std::vector<real_t>& x) const {
  if (x.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("backward_solve: size mismatch");
  for (index_t j = n; j-- > 0;) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    real_t s = x[static_cast<std::size_t>(j)];
    for (offset_t p = begin + 1; p < end; ++p)
      s -= values[static_cast<std::size_t>(p)] *
           x[static_cast<std::size_t>(row_ind[static_cast<std::size_t>(p)])];
    x[static_cast<std::size_t>(j)] = s / values[static_cast<std::size_t>(begin)];
  }
}

void CholFactor::solve_permuted(std::vector<real_t>& x) const {
  forward_solve(x);
  backward_solve(x);
}

std::vector<real_t> CholFactor::solve(const std::vector<real_t>& b) const {
  if (b.size() != static_cast<std::size_t>(n))
    throw std::invalid_argument("CholFactor::solve: size mismatch");
  std::vector<real_t> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    x[static_cast<std::size_t>(i)] =
        b[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])];
  solve_permuted(x);
  std::vector<real_t> out(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    out[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
        x[static_cast<std::size_t>(i)];
  return out;
}

void CholFactor::sparse_forward(const index_t* idx, const real_t* val, int k,
                                ReachWorkspace& ws) const {
  if (parent.size() != static_cast<std::size_t>(n) ||
      super_last.size() != static_cast<std::size_t>(n))
    throw std::logic_error(
        "sparse_forward: factor has no elimination tree or supernodes "
        "(incomplete factor)");
  for (int t = 0; t < k; ++t)
    if (idx[t] < 0 || idx[t] >= n)
      throw std::out_of_range("sparse_forward: rhs index out of range");
  const auto un = static_cast<std::size_t>(n);
  if (ws.x.size() != un) {
    ws.x.assign(un, 0.0);
    ws.mark.assign(un, 0);
  }

  // Symbolic: scatter b and mark the etree path of each rhs index up to
  // the first node already marked (or past a root). A path that runs past
  // a root adds a tree. Each path ascends (parent[j] > j), so a one-entry
  // rhs yields an ascending reach; a union of paths is sorted once.
  ws.reach.clear();
  ws.trees = 0;
  for (int t = 0; t < k; ++t) {
    ws.x[static_cast<std::size_t>(idx[t])] += val[t];
    index_t j = idx[t];
    while (j >= 0 && !ws.mark[static_cast<std::size_t>(j)]) {
      ws.mark[static_cast<std::size_t>(j)] = 1;
      ws.reach.push_back(j);
      j = parent[static_cast<std::size_t>(j)];
    }
    if (j < 0) ++ws.trees;
  }
  if (k > 1) std::sort(ws.reach.begin(), ws.reach.end());

  // Numeric: forward_solve's column update restricted to the reach, in the
  // same (ascending) column order — every row a column updates is one of
  // its etree ancestors, hence in the reach. Marks and x are reset as the
  // sweep passes them.
  ws.y.resize(ws.reach.size());
  for (std::size_t t = 0; t < ws.reach.size();) {
    const index_t j = ws.reach[t];
    const auto uj = static_cast<std::size_t>(j);
    const index_t width = super_last[uj] - j + 1;
    const offset_t begin = col_ptr[uj];
    const auto m = static_cast<index_t>(col_ptr[uj + 1] - begin);
    const index_t* rows = row_ind.data() + begin;
    if (width == 1) {
      // Gathering and scattering a lone column's rows would cost more than
      // its one update: keep the indexed loop.
      ws.mark[uj] = 0;
      const real_t xj = ws.x[uj] / values[static_cast<std::size_t>(begin)];
      ws.x[uj] = 0.0;
      ws.y[t++] = xj;
      if (xj == 0.0) continue;
      const real_t* lv = values.data() + begin;
      for (index_t p = 1; p < m; ++p)
        ws.x[static_cast<std::size_t>(rows[p])] -= lv[p] * xj;
      continue;
    }
    // Columns j..super_last[j] are all in the reach (each is the etree
    // parent of the one before) and share column j's rows: gather those
    // rows into ws.dense, run the columns over them — the same per-entry
    // updates in the same order — and scatter the rows below the
    // supernode back.
    if (ws.dense.size() < static_cast<std::size_t>(m))
      ws.dense.resize(static_cast<std::size_t>(m), 0.0);
    real_t* xd = ws.dense.data();
    for (index_t i = 0; i < m; ++i) xd[i] = ws.x[static_cast<std::size_t>(rows[i])];
    // Column j + c holds rows[c..m): L(rows[i], j + c) = lv(c)[i].
    const auto lv = [&](index_t c) {
      return values.data() + col_ptr[static_cast<std::size_t>(j + c)] - c;
    };
    const auto solve_column = [&](index_t c) {
      const auto uc = static_cast<std::size_t>(j + c);
      ws.mark[uc] = 0;
      ws.x[uc] = 0.0;
      const real_t xc = xd[c] / lv(c)[c];
      ws.y[t++] = xc;
      return xc;
    };
    index_t c = 0;
    // Four columns per pass. The panel's 4x4 triangle goes first; then each
    // row below the panel takes its four subtractions in column order in
    // one visit, so every entry sees forward_solve's sequence of updates
    // for a quarter of the loads and stores of xd. A zero column is
    // skipped, as forward_solve skips it.
    for (; c + 4 <= width; c += 4) {
      const real_t* l[4];
      real_t xs[4];
      int live = 0;
      for (index_t a = 0; a < 4; ++a) {
        const real_t xc = solve_column(c + a);
        if (xc == 0.0) continue;
        const real_t* la = lv(c + a);
        for (index_t i = c + a + 1; i < c + 4; ++i) xd[i] -= la[i] * xc;
        l[live] = la;
        xs[live++] = xc;
      }
      if (live == 4) {
        const real_t x0 = xs[0], x1 = xs[1], x2 = xs[2], x3 = xs[3];
        const real_t *l0 = l[0], *l1 = l[1], *l2 = l[2], *l3 = l[3];
        for (index_t i = c + 4; i < m; ++i) {
          real_t v = xd[i];
          v -= l0[i] * x0;
          v -= l1[i] * x1;
          v -= l2[i] * x2;
          v -= l3[i] * x3;
          xd[i] = v;
        }
      } else {
        for (int a = 0; a < live; ++a)
          for (index_t i = c + 4; i < m; ++i) xd[i] -= l[a][i] * xs[a];
      }
    }
    for (; c < width; ++c) {
      const real_t xc = solve_column(c);
      if (xc == 0.0) continue;
      const real_t* la = lv(c);
      for (index_t i = c + 1; i < m; ++i) xd[i] -= la[i] * xc;
    }
    for (index_t i = width; i < m; ++i) ws.x[static_cast<std::size_t>(rows[i])] = xd[i];
    std::fill(xd, xd + m, 0.0);
  }
}

CscMatrix CholFactor::to_csc() const {
  TripletMatrix t(n, n);
  t.reserve(static_cast<std::size_t>(nnz()));
  for (index_t j = 0; j < n; ++j)
    for (offset_t p = col_ptr[static_cast<std::size_t>(j)];
         p < col_ptr[static_cast<std::size_t>(j) + 1]; ++p)
      t.add(row_ind[static_cast<std::size_t>(p)], j,
            values[static_cast<std::size_t>(p)]);
  return CscMatrix::from_triplets(t);
}

bool CholFactor::check_invariants() const {
  if (col_ptr.size() != static_cast<std::size_t>(n) + 1) return false;
  if (!is_permutation(perm) || !is_permutation(inv_perm)) return false;
  if (perm.size() != static_cast<std::size_t>(n)) return false;
  if (!parent.empty() && parent.size() != static_cast<std::size_t>(n))
    return false;
  if (!super_last.empty() &&
      (parent.empty() || super_last.size() != static_cast<std::size_t>(n)))
    return false;
  for (index_t j = 0; j < n; ++j) {
    const offset_t begin = col_ptr[static_cast<std::size_t>(j)];
    const offset_t end = col_ptr[static_cast<std::size_t>(j) + 1];
    if (begin >= end) return false;  // at least the diagonal
    if (row_ind[static_cast<std::size_t>(begin)] != j) return false;
    if (!(values[static_cast<std::size_t>(begin)] > 0.0)) return false;
    // A complete factor's etree parent is its column's first subdiagonal row.
    if (!parent.empty() &&
        parent[static_cast<std::size_t>(j)] !=
            (end - begin > 1 ? row_ind[static_cast<std::size_t>(begin) + 1] : -1))
      return false;
    for (offset_t p = begin + 1; p < end; ++p) {
      if (row_ind[static_cast<std::size_t>(p)] <= j) return false;
      if (p > begin + 1 &&
          row_ind[static_cast<std::size_t>(p - 1)] >=
              row_ind[static_cast<std::size_t>(p)])
        return false;
    }
    // Supernodes are runs of consecutive columns; inside one, column j's
    // etree parent is j + 1 and its rows are j followed by column j + 1's.
    if (super_last.empty()) continue;
    const index_t last = super_last[static_cast<std::size_t>(j)];
    if (last < j || last >= n) return false;
    if (last == j) continue;
    if (super_last[static_cast<std::size_t>(j) + 1] != last ||
        parent[static_cast<std::size_t>(j)] != j + 1)
      return false;
    const offset_t next = col_ptr[static_cast<std::size_t>(j) + 2];
    if (end - begin != next - end + 1) return false;
    if (!std::equal(row_ind.begin() + begin + 1, row_ind.begin() + end,
                    row_ind.begin() + end))
      return false;
  }
  return true;
}

}  // namespace er
