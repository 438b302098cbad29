#include "order/mindeg.hpp"

#include <algorithm>
#include <stdexcept>

namespace er {

namespace {

/// Degree-bucket structure: doubly-linked lists per degree value.
class DegreeBuckets {
 public:
  explicit DegreeBuckets(index_t n)
      : head_(static_cast<std::size_t>(n) + 1, -1),
        next_(static_cast<std::size_t>(n), -1),
        prev_(static_cast<std::size_t>(n), -1),
        deg_(static_cast<std::size_t>(n), 0),
        min_deg_(0) {}

  void insert(index_t v, index_t d) {
    deg_[static_cast<std::size_t>(v)] = d;
    next_[static_cast<std::size_t>(v)] = head_[static_cast<std::size_t>(d)];
    prev_[static_cast<std::size_t>(v)] = -1;
    if (head_[static_cast<std::size_t>(d)] >= 0)
      prev_[static_cast<std::size_t>(head_[static_cast<std::size_t>(d)])] = v;
    head_[static_cast<std::size_t>(d)] = v;
    min_deg_ = std::min(min_deg_, d);
  }

  void remove(index_t v) {
    const index_t d = deg_[static_cast<std::size_t>(v)];
    const index_t nx = next_[static_cast<std::size_t>(v)];
    const index_t pv = prev_[static_cast<std::size_t>(v)];
    if (pv >= 0)
      next_[static_cast<std::size_t>(pv)] = nx;
    else
      head_[static_cast<std::size_t>(d)] = nx;
    if (nx >= 0) prev_[static_cast<std::size_t>(nx)] = pv;
  }

  void update(index_t v, index_t d) {
    remove(v);
    insert(v, d);
  }

  /// Pop a vertex of minimum degree; -1 when empty.
  index_t pop_min() {
    while (min_deg_ < static_cast<index_t>(head_.size()) &&
           head_[static_cast<std::size_t>(min_deg_)] < 0)
      ++min_deg_;
    if (min_deg_ >= static_cast<index_t>(head_.size())) return -1;
    const index_t v = head_[static_cast<std::size_t>(min_deg_)];
    remove(v);
    return v;
  }

 private:
  std::vector<index_t> head_;
  std::vector<index_t> next_;
  std::vector<index_t> prev_;
  std::vector<index_t> deg_;
  index_t min_deg_;
};

}  // namespace

std::vector<index_t> mindeg_order(const CscMatrix& a) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("mindeg_order: not square");
  const index_t n = a.cols();
  if (n == 0) return {};

  // Variable adjacency (off-diagonal pattern) and element lists.
  std::vector<std::vector<index_t>> adj(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> elems(static_cast<std::size_t>(n));
  std::vector<std::vector<index_t>> bound(static_cast<std::size_t>(n));
  std::vector<char> alive_var(static_cast<std::size_t>(n), 1);
  std::vector<char> alive_elem(static_cast<std::size_t>(n), 0);

  const auto& cp = a.col_ptr();
  const auto& ri = a.row_ind();
  for (index_t c = 0; c < n; ++c) {
    auto& list = adj[static_cast<std::size_t>(c)];
    list.reserve(static_cast<std::size_t>(cp[static_cast<std::size_t>(c) + 1] -
                                          cp[static_cast<std::size_t>(c)]));
    for (offset_t p = cp[static_cast<std::size_t>(c)];
         p < cp[static_cast<std::size_t>(c) + 1]; ++p) {
      const index_t r = ri[static_cast<std::size_t>(p)];
      if (r != c) list.push_back(r);
    }
  }

  DegreeBuckets buckets(n);
  for (index_t v = 0; v < n; ++v)
    buckets.insert(v, static_cast<index_t>(adj[static_cast<std::size_t>(v)].size()));

  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);   // variable marks
  std::vector<index_t> emark(static_cast<std::size_t>(n), -1);  // element marks
  std::vector<index_t> ew(static_cast<std::size_t>(n), 0);      // |Le \ Lp| counters
  std::vector<index_t> lp;                                      // pivot boundary

  std::vector<index_t> perm;
  perm.reserve(static_cast<std::size_t>(n));

  for (index_t step = 0; step < n; ++step) {
    const index_t p = buckets.pop_min();
    if (p < 0) throw std::logic_error("mindeg_order: buckets exhausted early");
    alive_var[static_cast<std::size_t>(p)] = 0;
    perm.push_back(p);

    // Build Lp = alive neighbours of p through variables and elements.
    const index_t stamp = step;
    lp.clear();
    mark[static_cast<std::size_t>(p)] = stamp;
    for (index_t v : adj[static_cast<std::size_t>(p)]) {
      if (alive_var[static_cast<std::size_t>(v)] &&
          mark[static_cast<std::size_t>(v)] != stamp) {
        mark[static_cast<std::size_t>(v)] = stamp;
        lp.push_back(v);
      }
    }
    for (index_t e : elems[static_cast<std::size_t>(p)]) {
      if (!alive_elem[static_cast<std::size_t>(e)]) continue;
      for (index_t v : bound[static_cast<std::size_t>(e)]) {
        if (alive_var[static_cast<std::size_t>(v)] &&
            mark[static_cast<std::size_t>(v)] != stamp) {
          mark[static_cast<std::size_t>(v)] = stamp;
          lp.push_back(v);
        }
      }
      // e is absorbed into the new element p.
      alive_elem[static_cast<std::size_t>(e)] = 0;
      bound[static_cast<std::size_t>(e)].clear();
      bound[static_cast<std::size_t>(e)].shrink_to_fit();
    }
    adj[static_cast<std::size_t>(p)].clear();
    adj[static_cast<std::size_t>(p)].shrink_to_fit();
    elems[static_cast<std::size_t>(p)].clear();
    elems[static_cast<std::size_t>(p)].shrink_to_fit();

    if (lp.empty()) continue;  // isolated variable

    alive_elem[static_cast<std::size_t>(p)] = 1;
    bound[static_cast<std::size_t>(p)] = lp;

    // AMD external-degree counters: w[e] = |Le \ Lp| for elements adjacent
    // to Lp members. The same pass drops the dead elements from elems[i];
    // p is not in any list yet, and no element dies before the next step.
    for (index_t i : lp) {
      auto& ei = elems[static_cast<std::size_t>(i)];
      std::size_t we = 0;
      for (index_t e : ei) {
        if (!alive_elem[static_cast<std::size_t>(e)]) continue;
        ei[we++] = e;
        // A live element holds only live variables: pivoting a variable
        // absorbs every element in its list, and that list holds every
        // live element containing it. So bound[e] needs no rescan here.
        if (emark[static_cast<std::size_t>(e)] != stamp) {
          emark[static_cast<std::size_t>(e)] = stamp;
          ew[static_cast<std::size_t>(e)] =
              static_cast<index_t>(bound[static_cast<std::size_t>(e)].size());
        }
        --ew[static_cast<std::size_t>(e)];
      }
      ei.resize(we);
    }

    const auto lp_size = static_cast<index_t>(lp.size());
    for (index_t i : lp) {
      // Prune adj[i]: drop dead vars and anything inside Lp (now reached
      // through element p).
      auto& ai = adj[static_cast<std::size_t>(i)];
      std::size_t w = 0;
      for (index_t v : ai) {
        if (alive_var[static_cast<std::size_t>(v)] &&
            mark[static_cast<std::size_t>(v)] != stamp)
          ai[w++] = v;
      }
      ai.resize(w);

      // elems[i] holds only live elements now; append p.
      auto& ei = elems[static_cast<std::size_t>(i)];
      index_t elem_deg = 0;
      for (index_t e : ei)
        elem_deg += std::max<index_t>(ew[static_cast<std::size_t>(e)], 0);
      ei.push_back(p);

      index_t d = static_cast<index_t>(ai.size()) + (lp_size - 1) + elem_deg;
      d = std::min<index_t>(d, n - step - 1);
      d = std::max<index_t>(d, 0);
      buckets.update(i, d);
    }
  }
  return perm;
}

std::vector<index_t> identity_permutation(index_t n) {
  std::vector<index_t> perm(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) perm[static_cast<std::size_t>(i)] = i;
  return perm;
}

bool is_permutation(const std::vector<index_t>& perm) {
  const auto n = static_cast<index_t>(perm.size());
  std::vector<char> seen(perm.size(), 0);
  for (index_t v : perm) {
    if (v < 0 || v >= n || seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = 1;
  }
  return true;
}

std::vector<index_t> invert_permutation(const std::vector<index_t>& perm) {
  std::vector<index_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[static_cast<std::size_t>(perm[i])] = static_cast<index_t>(i);
  return inv;
}

}  // namespace er
