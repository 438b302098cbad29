#include "order/amd.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace er {

namespace {

constexpr std::size_t u(index_t i) { return static_cast<std::size_t>(i); }

/// Encodes "absorbed into / child of j" in a pointer slot that otherwise
/// holds a non-negative offset; flip(flip(j)) == j and flip(-1) == -1.
constexpr index_t flip(index_t j) { return -j - 2; }

/// Quotient-graph state of one AMD run. Node n is a placeholder element
/// that absorbs the dense rows, so every array has n + 1 slots.
///
/// Every variable and element is a list in `iw`: pe[j] is its start and
/// len[j] its length. A variable's list holds its elen[j] adjacent
/// elements first, then its adjacent variables. An element's list holds
/// the variables of its boundary L_e. A dead object's pe[j] is flip(parent)
/// in the assembly tree (or -1 for a root).
class Amd {
 public:
  explicit Amd(const CscMatrix& a);
  std::vector<index_t> run();

 private:
  void init_degree_lists();
  index_t select_pivot();
  void collect_garbage();
  void remove_from_degree_list(index_t i);
  index_t construct_element(index_t k, index_t elenk);
  void find_set_differences(index_t pk1, index_t pk2);
  void update_degrees(index_t k, index_t pk1, index_t pk2, index_t& dk,
                      index_t& nvk);
  void detect_supervariables(index_t pk1, index_t pk2);
  index_t finalize_element(index_t pk1, index_t pk2, index_t dk);
  void clear_marks();
  std::vector<index_t> postorder();

  index_t n_;
  index_t dense_;
  std::vector<index_t> iw_;
  index_t used_ = 0;  // iw_[used_..] is free
  std::vector<index_t> pe_, len_, nv_, next_, last_, head_, elen_, degree_,
      hhead_;
  /// w_[e] - mark_ is |L_e \ L_k| during a pivot step; w_[e] == 0 marks a
  /// dead element. 64-bit so the mark can run for the whole ordering.
  std::vector<std::int64_t> w_;
  std::int64_t mark_ = 0;
  index_t lemax_ = 0;   // largest |L_k| so far
  index_t nel_ = 0;     // variables eliminated (pivots, absorbed, dense)
  index_t mindeg_ = 0;  // lower bound on the smallest non-empty list
};

Amd::Amd(const CscMatrix& a) : n_(a.cols()) {
  const auto un = u(n_) + 1;
  const double dense = std::max(16.0, 10.0 * std::sqrt(static_cast<double>(n_)));
  dense_ = std::min(n_ - 2, static_cast<index_t>(dense));

  // Off-diagonal pattern of A, plus elbow room for new elements (the
  // textbook's cnz + cnz/5 + 2n; garbage collection reclaims the rest).
  const auto& cp = a.col_ptr();
  const auto& ri = a.row_ind();
  // Every list offset is an index_t; leave room for the elbow below.
  if (cp[u(n_)] > std::numeric_limits<index_t>::max() / 2)
    throw std::length_error("amd_order: too many entries for 32-bit offsets");
  pe_.assign(un, 0);
  len_.assign(un, 0);
  iw_.reserve(static_cast<std::size_t>(cp[u(n_)]));
  for (index_t j = 0; j < n_; ++j) {
    pe_[u(j)] = static_cast<index_t>(iw_.size());
    for (offset_t p = cp[u(j)]; p < cp[u(j) + 1]; ++p) {
      const index_t i = ri[static_cast<std::size_t>(p)];
      if (i != j) iw_.push_back(i);
    }
    len_[u(j)] = static_cast<index_t>(iw_.size()) - pe_[u(j)];
  }
  used_ = static_cast<index_t>(iw_.size());
  iw_.resize(iw_.size() + iw_.size() / 5 + 2 * u(n_));

  nv_.assign(un, 1);
  next_.assign(un, -1);
  last_.assign(un, -1);
  head_.assign(un, -1);
  hhead_.assign(un, -1);
  elen_.assign(un, 0);
  degree_.assign(len_.begin(), len_.end());
  w_.assign(un, 1);
  clear_marks();
  // Node n is the dead element that roots the dense rows.
  elen_[u(n_)] = -2;
  pe_[u(n_)] = -1;
  w_[u(n_)] = 0;
}

/// Resets every live mark to 1 once mark_ could overflow (or on the first
/// call); afterwards w_[0..n) < mark_ holds.
void Amd::clear_marks() {
  constexpr std::int64_t kLimit = std::numeric_limits<std::int64_t>::max() / 2;
  if (mark_ < 2 || mark_ + lemax_ >= kLimit) {
    for (index_t k = 0; k < n_; ++k)
      if (w_[u(k)] != 0) w_[u(k)] = 1;
    mark_ = 2;
  }
}

void Amd::init_degree_lists() {
  // Each insertion goes to the head of its list, so among equal degrees
  // the largest index is pivoted first.
  for (index_t i = 0; i < n_; ++i) {
    const index_t d = degree_[u(i)];
    if (d == 0) {  // isolated: an empty element and a root of the tree
      elen_[u(i)] = -2;
      ++nel_;
      pe_[u(i)] = -1;
      w_[u(i)] = 0;
    } else if (d > dense_) {  // dense: absorbed into element n, ordered last
      nv_[u(i)] = 0;
      elen_[u(i)] = -1;
      ++nel_;
      pe_[u(i)] = flip(n_);
      ++nv_[u(n_)];
    } else {
      if (head_[u(d)] != -1) last_[u(head_[u(d)])] = i;
      next_[u(i)] = head_[u(d)];
      head_[u(d)] = i;
    }
  }
}

index_t Amd::select_pivot() {
  index_t k = -1;
  while (mindeg_ < n_ && (k = head_[u(mindeg_)]) == -1) ++mindeg_;
  if (next_[u(k)] != -1) last_[u(next_[u(k)])] = -1;
  head_[u(mindeg_)] = next_[u(k)];
  return k;
}

void Amd::remove_from_degree_list(index_t i) {
  if (next_[u(i)] != -1) last_[u(next_[u(i)])] = last_[u(i)];
  if (last_[u(i)] != -1)
    next_[u(last_[u(i)])] = next_[u(i)];
  else
    head_[u(degree_[u(i)])] = next_[u(i)];
}

/// Compacts every live list to the front of iw_. Each list's first entry is
/// swapped for flip(owner) so one scan can find the owners again.
void Amd::collect_garbage() {
  for (index_t j = 0; j < n_; ++j) {
    const index_t p = pe_[u(j)];
    if (p < 0) continue;
    pe_[u(j)] = iw_[u(p)];
    iw_[u(p)] = flip(j);
  }
  index_t q = 0;
  for (index_t p = 0; p < used_;) {
    const index_t j = flip(iw_[u(p++)]);
    if (j < 0) continue;
    iw_[u(q)] = pe_[u(j)];
    pe_[u(j)] = q++;
    for (index_t t = 0; t < len_[u(j)] - 1; ++t) iw_[u(q++)] = iw_[u(p++)];
  }
  used_ = q;
}

/// Builds L_k, the boundary of the new element k, from k's own variables
/// and the boundaries of the elements it absorbs; unlinks every member from
/// its degree list and flags it with nv < 0. Returns where L_k starts.
index_t Amd::construct_element(index_t k, index_t elenk) {
  index_t dk = 0;
  const index_t nvk = nv_[u(k)];
  nv_[u(k)] = -nvk;
  index_t p = pe_[u(k)];
  // With no adjacent elements L_k fits in k's own list.
  const index_t pk1 = elenk == 0 ? p : used_;
  index_t pk2 = pk1;
  for (index_t k1 = 1; k1 <= elenk + 1; ++k1) {
    index_t e;
    index_t pj;
    index_t ln;
    if (k1 > elenk) {  // k's own variables
      e = k;
      pj = p;
      ln = len_[u(k)] - elenk;
    } else {
      e = iw_[u(p++)];
      pj = pe_[u(e)];
      ln = len_[u(e)];
    }
    for (index_t k2 = 1; k2 <= ln; ++k2) {
      const index_t i = iw_[u(pj++)];
      const index_t nvi = nv_[u(i)];
      if (nvi <= 0) continue;  // dead, or already in L_k
      dk += nvi;
      nv_[u(i)] = -nvi;
      iw_[u(pk2++)] = i;
      remove_from_degree_list(i);
    }
    if (e != k) {  // e is absorbed into k
      pe_[u(e)] = flip(k);
      w_[u(e)] = 0;
    }
  }
  if (elenk != 0) used_ = pk2;
  degree_[u(k)] = dk;
  pe_[u(k)] = pk1;
  len_[u(k)] = pk2 - pk1;
  elen_[u(k)] = -2;
  return pk1;
}

/// w_[e] - mark_ = |L_e \ L_k| for every live element e adjacent to L_k.
void Amd::find_set_differences(index_t pk1, index_t pk2) {
  for (index_t pk = pk1; pk < pk2; ++pk) {
    const index_t i = iw_[u(pk)];
    const index_t eln = elen_[u(i)];
    if (eln <= 0) continue;
    const index_t nvi = -nv_[u(i)];
    const std::int64_t wnvi = mark_ - nvi;
    for (index_t p = pe_[u(i)]; p <= pe_[u(i)] + eln - 1; ++p) {
      const index_t e = iw_[u(p)];
      if (w_[u(e)] >= mark_)
        w_[u(e)] -= nvi;
      else if (w_[u(e)] != 0)  // first visit of a live element
        w_[u(e)] = degree_[u(e)] + wnvi;
    }
  }
}

/// Approximate external degree of each variable in L_k. Prunes its lists,
/// absorbs elements covered by L_k (aggressive absorption), mass-eliminates
/// variables left with nothing outside L_k, and hashes the rest for
/// supervariable detection (the hash is kept in last_).
void Amd::update_degrees(index_t k, index_t pk1, index_t pk2, index_t& dk,
                         index_t& nvk) {
  for (index_t pk = pk1; pk < pk2; ++pk) {
    const index_t i = iw_[u(pk)];
    const index_t p1 = pe_[u(i)];
    const index_t p2 = p1 + elen_[u(i)] - 1;
    index_t pn = p1;
    std::uint64_t h = 0;
    index_t d = 0;
    for (index_t p = p1; p <= p2; ++p) {
      const index_t e = iw_[u(p)];
      if (w_[u(e)] == 0) continue;  // absorbed element
      const auto dext = static_cast<index_t>(w_[u(e)] - mark_);
      if (dext > 0) {
        d += dext;
        iw_[u(pn++)] = e;
        h += static_cast<std::uint64_t>(e);
      } else {  // L_e is inside L_k
        pe_[u(e)] = flip(k);
        w_[u(e)] = 0;
      }
    }
    elen_[u(i)] = pn - p1 + 1;  // the survivors, plus k
    const index_t p3 = pn;
    const index_t p4 = p1 + len_[u(i)];
    for (index_t p = p2 + 1; p < p4; ++p) {
      const index_t j = iw_[u(p)];
      const index_t nvj = nv_[u(j)];
      if (nvj <= 0) continue;  // dead, or in L_k
      d += nvj;
      iw_[u(pn++)] = j;
      h += static_cast<std::uint64_t>(j);
    }
    if (d == 0) {  // mass elimination: i goes with k
      pe_[u(i)] = flip(k);
      const index_t nvi = -nv_[u(i)];
      dk -= nvi;
      nvk += nvi;
      nel_ += nvi;
      nv_[u(i)] = 0;
      elen_[u(i)] = -1;
    } else {
      degree_[u(i)] = std::min(degree_[u(i)], d);
      // Make k the first element of i's list.
      iw_[u(pn)] = iw_[u(p3)];
      iw_[u(p3)] = iw_[u(p1)];
      iw_[u(p1)] = k;
      len_[u(i)] = pn - p1 + 1;
      const auto bucket = static_cast<index_t>(h % static_cast<std::uint64_t>(n_));
      next_[u(i)] = hhead_[u(bucket)];
      hhead_[u(bucket)] = i;
      last_[u(i)] = bucket;
    }
  }
}

/// Merges indistinguishable variables of L_k (same elements, same
/// variables) into the first of them in their hash bucket.
void Amd::detect_supervariables(index_t pk1, index_t pk2) {
  for (index_t pk = pk1; pk < pk2; ++pk) {
    index_t i = iw_[u(pk)];
    if (nv_[u(i)] >= 0) continue;  // dead
    const index_t h = last_[u(i)];
    i = hhead_[u(h)];
    hhead_[u(h)] = -1;  // each bucket is scanned once
    for (; i != -1 && next_[u(i)] != -1; i = next_[u(i)], ++mark_) {
      const index_t ln = len_[u(i)];
      const index_t eln = elen_[u(i)];
      for (index_t p = pe_[u(i)] + 1; p <= pe_[u(i)] + ln - 1; ++p)
        w_[u(iw_[u(p)])] = mark_;
      index_t jlast = i;
      for (index_t j = next_[u(i)]; j != -1;) {
        bool same = len_[u(j)] == ln && elen_[u(j)] == eln;
        for (index_t p = pe_[u(j)] + 1; same && p <= pe_[u(j)] + ln - 1; ++p)
          if (w_[u(iw_[u(p)])] != mark_) same = false;
        if (same) {  // absorb j into i
          pe_[u(j)] = flip(i);
          nv_[u(i)] += nv_[u(j)];
          nv_[u(j)] = 0;
          elen_[u(j)] = -1;
          j = next_[u(j)];
          next_[u(jlast)] = j;
        } else {
          jlast = j;
          j = next_[u(j)];
        }
      }
    }
  }
}

/// Puts the surviving variables of L_k back into the degree lists with
/// their approximate external degrees and compacts L_k. Returns its end.
index_t Amd::finalize_element(index_t pk1, index_t pk2, index_t dk) {
  index_t p = pk1;
  for (index_t pk = pk1; pk < pk2; ++pk) {
    const index_t i = iw_[u(pk)];
    const index_t nvi = -nv_[u(i)];
    if (nvi <= 0) continue;  // dead
    nv_[u(i)] = nvi;
    index_t d = degree_[u(i)] + dk - nvi;
    d = std::min(d, n_ - nel_ - nvi);
    if (head_[u(d)] != -1) last_[u(head_[u(d)])] = i;
    next_[u(i)] = head_[u(d)];
    last_[u(i)] = -1;
    head_[u(d)] = i;
    mindeg_ = std::min(mindeg_, d);
    degree_[u(i)] = d;
    iw_[u(p++)] = i;
  }
  return p;
}

std::vector<index_t> Amd::run() {
  init_degree_lists();
  while (nel_ < n_) {
    const index_t k = select_pivot();
    const index_t elenk = elen_[u(k)];
    index_t nvk = nv_[u(k)];
    nel_ += nvk;
    // L_k is built at the end of iw_ and has at most mindeg_ entries.
    if (elenk > 0 && u(used_) + u(mindeg_) >= iw_.size()) {
      collect_garbage();
      // The elbow room normally suffices after a collection; grow anyway
      // rather than rely on it.
      if (u(used_) + u(mindeg_) >= iw_.size())
        iw_.resize(u(used_) + 2 * u(mindeg_) + u(n_));
    }
    const index_t pk1 = construct_element(k, elenk);
    const index_t pk2 = pk1 + len_[u(k)];
    index_t dk = degree_[u(k)];

    clear_marks();
    find_set_differences(pk1, pk2);
    update_degrees(k, pk1, pk2, dk, nvk);
    degree_[u(k)] = dk;
    lemax_ = std::max(lemax_, dk);
    mark_ += lemax_;
    clear_marks();
    detect_supervariables(pk1, pk2);

    const index_t p = finalize_element(pk1, pk2, dk);
    nv_[u(k)] = nvk;
    len_[u(k)] = p - pk1;
    if (len_[u(k)] == 0) {  // k is a root of the assembly tree
      pe_[u(k)] = -1;
      w_[u(k)] = 0;
    }
    if (elenk != 0) used_ = p;
  }
  return postorder();
}

/// Postorder of the assembly tree: every absorbed variable directly before
/// its parent, elements after their children, the dense rows (children of
/// node n) last.
std::vector<index_t> Amd::postorder() {
  const auto un = u(n_) + 1;
  for (index_t i = 0; i < n_; ++i) pe_[u(i)] = flip(pe_[u(i)]);  // parents
  std::fill(head_.begin(), head_.end(), -1);
  // Children lists: elements first, then absorbed variables, each in
  // ascending index order.
  for (index_t j = n_; j >= 0; --j) {
    if (nv_[u(j)] > 0) continue;
    next_[u(j)] = head_[u(pe_[u(j)])];
    head_[u(pe_[u(j)])] = j;
  }
  for (index_t e = n_; e >= 0; --e) {
    if (nv_[u(e)] <= 0 || pe_[u(e)] == -1) continue;
    next_[u(e)] = head_[u(pe_[u(e)])];
    head_[u(pe_[u(e)])] = e;
  }
  std::vector<index_t> post;
  post.reserve(un);
  std::vector<index_t> stack;
  for (index_t root = 0; root <= n_; ++root) {
    if (pe_[u(root)] != -1) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const index_t p = stack.back();
      const index_t child = head_[u(p)];
      if (child == -1) {
        stack.pop_back();
        post.push_back(p);
      } else {
        head_[u(p)] = next_[u(child)];
        stack.push_back(child);
      }
    }
  }
  // Node n is the last root, and last in its own subtree.
  post.pop_back();
  return post;
}

}  // namespace

std::vector<index_t> amd_order(const CscMatrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("amd_order: not square");
  if (a.cols() == 0) return {};
  return Amd(a).run();
}

}  // namespace er
