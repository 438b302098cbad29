#include "approxinv/approx_inverse.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "parallel/task_heap.hpp"
#include "util/thread_annotations.hpp"

namespace er {

namespace {

/// Dense scatter workspace for building one column at a time. stamp[r] == j
/// marks row r live in column j; each column is built exactly once, so a
/// workspace is reused across columns without clearing.
struct Workspace {
  explicit Workspace(index_t n)
      : w(static_cast<std::size_t>(n), 0.0),
        stamp(static_cast<std::size_t>(n), -1) {}
  std::vector<real_t> w;
  std::vector<index_t> stamp;
  std::vector<index_t> pattern;
  std::vector<real_t> heap;  // |values| min-heap for the truncation
};

/// Truncation (Eq. (10)) of the column in `ws`: drop the largest set of
/// smallest-|.| entries of ws.pattern whose 1-norm stays within
/// epsilon * ||z*_j||_1, and clear their stamps. A min-heap pops the
/// dropped magnitudes in ascending order, the same sequence (and running
/// sum) a full sort would give, without ordering the kept entries.
void truncate_column(Workspace& ws, real_t epsilon) {
  real_t norm1 = 0.0;
  for (index_t r : ws.pattern) norm1 += std::abs(ws.w[static_cast<std::size_t>(r)]);
  const real_t budget = epsilon * norm1;
  // A magnitude above the budget fails `dropped + m <= budget` whatever
  // was dropped before it, so only those within it enter the heap.
  std::vector<real_t>& heap = ws.heap;
  heap.clear();
  for (index_t r : ws.pattern) {
    const real_t m = std::abs(ws.w[static_cast<std::size_t>(r)]);
    if (m <= budget) heap.push_back(m);
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  real_t dropped = 0.0;
  real_t cut = 0.0;
  std::size_t k = 0;
  std::size_t ties_to_drop = 0;  // dropped entries with |v| == cut
  for (auto live = heap.end(); live != heap.begin(); --live) {
    const real_t m = heap.front();
    if (!(dropped + m <= budget)) break;
    dropped += m;
    ties_to_drop = (k > 0 && m == cut) ? ties_to_drop + 1 : 1;
    cut = m;
    ++k;
    std::pop_heap(heap.begin(), live, std::greater<>());
  }
  if (k == 0) return;
  // Keep entries with |v| > cut; among |v| == cut drop the first
  // ties_to_drop in pattern order, so exactly k entries go (trunc_k).
  std::size_t wpos = 0;
  for (index_t r : ws.pattern) {
    const real_t m = std::abs(ws.w[static_cast<std::size_t>(r)]);
    if (m < cut || (m == cut && ties_to_drop > 0)) {
      if (m == cut) --ties_to_drop;
      ws.stamp[static_cast<std::size_t>(r)] = -1;
      continue;
    }
    ws.pattern[wpos++] = r;
  }
  ws.pattern.resize(wpos);
}

/// Builds z̃_j (Eq. (8), then the Eq. (10) truncation) in `ws`: its rows
/// are ws.pattern (unordered) and its values ws.w. Reads only the finished
/// columns i > j of its L pattern from `z`. Returns the column's length.
index_t build_column(const CholFactor& factor, const ApproxInverse& z,
                     index_t j, std::size_t nnz_floor, real_t epsilon,
                     Workspace& ws) {
  std::vector<real_t>& w = ws.w;
  std::vector<index_t>& stamp = ws.stamp;
  std::vector<index_t>& pattern = ws.pattern;
  pattern.clear();

  // Seed: (1/L_jj) e_j.
  const offset_t cb = factor.col_ptr[static_cast<std::size_t>(j)];
  const offset_t ce = factor.col_ptr[static_cast<std::size_t>(j) + 1];
  const real_t inv_ljj = 1.0 / factor.values[static_cast<std::size_t>(cb)];
  w[static_cast<std::size_t>(j)] = inv_ljj;
  stamp[static_cast<std::size_t>(j)] = j;
  pattern.push_back(j);

  // Accumulate (-L_ij / L_jj) * z̃_i over the off-diagonal entries of
  // column j of L.
  for (offset_t p = cb + 1; p < ce; ++p) {
    const index_t i = factor.row_ind[static_cast<std::size_t>(p)];
    const real_t coef = -factor.values[static_cast<std::size_t>(p)] * inv_ljj;
    if (coef == 0.0) continue;
    const auto rows = z.column_rows(i);
    const auto vals = z.column_values(i);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const index_t r = rows[k];
      if (stamp[static_cast<std::size_t>(r)] != j) {
        stamp[static_cast<std::size_t>(r)] = j;
        w[static_cast<std::size_t>(r)] = 0.0;
        pattern.push_back(r);
      }
      w[static_cast<std::size_t>(r)] += coef * vals[k];
    }
  }

  if (pattern.size() > nnz_floor && epsilon > 0.0) truncate_column(ws, epsilon);
  return static_cast<index_t>(pattern.size());
}

/// Writes the column build_column left in `ws` to rows/vals, rows
/// ascending. Every row lies in [j, n), so a dense column reads its rows
/// off the stamps in order; a sparse one sorts its pattern.
void write_column(Workspace& ws, index_t j, index_t n, index_t* rows, real_t* vals) {
  std::vector<index_t>& pattern = ws.pattern;
  const std::size_t len = pattern.size();
  if (len * 16 > static_cast<std::size_t>(n - j)) {
    std::size_t k = 0;
    for (index_t r = j; k < len; ++r) {
      if (ws.stamp[static_cast<std::size_t>(r)] != j) continue;
      rows[k] = r;
      vals[k++] = ws.w[static_cast<std::size_t>(r)];
    }
    return;
  }
  std::sort(pattern.begin(), pattern.end());
  for (std::size_t k = 0; k < len; ++k) {
    rows[k] = pattern[k];
    vals[k] = ws.w[static_cast<std::size_t>(pattern[k])];
  }
}

/// The no-truncation floor from Alg. 2 line 3: nnz(z*_j) <= log n.
std::size_t nnz_floor(index_t n) {
  return static_cast<std::size_t>(
      std::max(1.0, std::log2(static_cast<double>(std::max<index_t>(n, 2)))));
}

}  // namespace

/// Alg. 2 on a pool: column j is ready once every column i of its L
/// pattern is done. A TaskHeap runs the ready columns, largest j first
/// (the order of a serial build); each worker builds its columns in its
/// own workspace and places them in the shared chunks. Every column runs
/// build_column, so Z is bitwise equal to the serial build whichever
/// worker builds what.
class ApproxInverse::ReadyQueue {
 public:
  ReadyQueue(const CholFactor& factor, ApproxInverse& z, real_t epsilon, int threads)
      : factor_(factor), z_(z), epsilon_(epsilon), nnz_floor_(nnz_floor(factor.n)) {
    const index_t n = factor.n;
    const auto un = static_cast<std::size_t>(n);
    // Consumers of i: the columns j whose L pattern holds row i.
    consumer_ptr_.assign(un + 1, 0);
    pending_.assign(un, 0);
    for (std::size_t j = 0; j < un; ++j) {
      pending_[j] = static_cast<index_t>(factor.col_ptr[j + 1] - factor.col_ptr[j] - 1);
      for (offset_t p = factor.col_ptr[j] + 1; p < factor.col_ptr[j + 1]; ++p)
        ++consumer_ptr_[static_cast<std::size_t>(factor.row_ind[static_cast<std::size_t>(p)]) + 1];
    }
    for (std::size_t i = 0; i < un; ++i) consumer_ptr_[i + 1] += consumer_ptr_[i];
    consumers_.resize(static_cast<std::size_t>(consumer_ptr_[un]));
    std::vector<offset_t> next(consumer_ptr_.begin(), consumer_ptr_.end() - 1);
    for (index_t j = 0; j < n; ++j)
      for (offset_t p = factor.col_ptr[static_cast<std::size_t>(j)] + 1;
           p < factor.col_ptr[static_cast<std::size_t>(j) + 1]; ++p)
        consumers_[static_cast<std::size_t>(
            next[static_cast<std::size_t>(factor.row_ind[static_cast<std::size_t>(p)])]++)] = j;

    for (index_t j = 0; j < n; ++j)
      if (pending_[static_cast<std::size_t>(j)] == 0) ready_.push_back(j);
    workspaces_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) workspaces_.emplace_back(n);
  }

  /// Builds every column on `pool`'s workers; rethrows the first error
  /// once every worker has stopped.
  void run(ThreadPool& pool) {
    TaskHeap(
        std::move(ready_),
        [this](index_t j, int worker) { build(j, workspaces_[static_cast<std::size_t>(worker)]); },
        [this](index_t j, std::vector<index_t>& ready) { release(j, ready); })
        .run(pool);
  }

 private:
  /// Builds column j and places it; its inputs are done.
  void build(index_t j, Workspace& ws) ER_EXCLUDES(place_mutex_) {
    const index_t len = build_column(factor_, z_, j, nnz_floor_, epsilon_, ws);
    Column c;
    {
      util::MutexLock lock(&place_mutex_);
      c = z_.place(j, len);
    }
    write_column(ws, j, factor_.n, c.rows, c.vals);
  }

  /// Column j is done: the consumers it was the last input of are ready.
  void release(index_t j, std::vector<index_t>& ready) {
    for (offset_t p = consumer_ptr_[static_cast<std::size_t>(j)];
         p < consumer_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t c = consumers_[static_cast<std::size_t>(p)];
      if (--pending_[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
    }
  }

  const CholFactor& factor_;
  ApproxInverse& z_;  // place() under place_mutex_; columns read once done
  const real_t epsilon_;
  const std::size_t nnz_floor_;
  std::vector<offset_t> consumer_ptr_;  // consumers of i: consumers_[ptr[i] .. ptr[i + 1])
  std::vector<index_t> consumers_;
  std::vector<index_t> pending_;  // inputs not done (release() only)
  std::vector<index_t> ready_;    // columns with no inputs, the first tasks
  std::vector<Workspace> workspaces_;  // one per worker
  util::Mutex place_mutex_;
};

// A chunk's pages come from the OS and go back to it when the chunk is
// freed, whichever thread mapped it. From malloc, the chunks a pool's
// workers allocated settled in their per-thread arenas and stayed resident
// after the inverse was freed: building and freeing the social and circuit
// engines of perfbench's paper_offline three times in one process (4-core
// host) left 226 MiB resident after the last free; mapped chunks leave
// 36 MiB, as malloc does when limited to one arena.
ApproxInverse::Chunk::Chunk(std::size_t cap)
    : memory(map_zeroed(cap * (sizeof(real_t) + sizeof(index_t)))), capacity(cap) {}

ApproxInverse::Column ApproxInverse::place(index_t j, index_t len) {
  const auto ulen = static_cast<std::size_t>(len);
  if (chunks_.empty() || chunks_.back().capacity - chunks_.back().used < ulen) {
    // The first chunk holds ~8 entries per column; each next one doubles.
    chunks_.emplace_back(std::max(
        ulen, chunks_.empty() ? 8 * static_cast<std::size_t>(n_) : 2 * chunks_.back().capacity));
  }
  Chunk& c = chunks_.back();
  const Column col{c.rows() + c.used, c.vals() + c.used, len};
  c.used += ulen;
  nnz_ += len;
  return cols_[static_cast<std::size_t>(j)] = col;
}

ApproxInverse ApproxInverse::build(const CholFactor& factor,
                                   const ApproxInverseOptions& opts) {
  if (!(opts.epsilon >= 0.0))
    throw std::invalid_argument("ApproxInverse: epsilon must be >= 0");
  const index_t n = factor.n;

  ApproxInverse z;
  z.n_ = n;
  z.perm_ = factor.perm;
  z.inv_perm_ = factor.inv_perm;
  z.cols_.assign(static_cast<std::size_t>(n), Column{});

  if (fans_out(opts.pool)) {
    ReadyQueue(factor, z, opts.epsilon, opts.pool->num_threads()).run(*opts.pool);
    return z;
  }
  // Serial: column j reads only columns i > j, so j descending is a valid
  // order and lays the columns out in it.
  const std::size_t kept_floor = nnz_floor(n);
  Workspace ws(n);
  for (index_t j = n; j-- > 0;) {
    const index_t len = build_column(factor, z, j, kept_floor, opts.epsilon, ws);
    const Column c = z.place(j, len);
    write_column(ws, j, n, c.rows, c.vals);
  }
  return z;
}

SparseVector ApproxInverse::column(index_t j) const {
  const auto rows = column_rows(j);
  const auto vals = column_values(j);
  SparseVector v;
  v.idx.assign(rows.begin(), rows.end());
  v.val.assign(vals.begin(), vals.end());
  return v;
}

real_t ApproxInverse::column_distance_squared(index_t p, index_t q) const {
  const auto pr = column_rows(p);
  const auto pv = column_values(p);
  const auto qr = column_rows(q);
  const auto qv = column_values(q);
  real_t acc = 0.0;
  std::size_t i = 0, j = 0;
  while (i < pr.size() && j < qr.size()) {
    if (pr[i] < qr[j]) {
      acc += pv[i] * pv[i];
      ++i;
    } else if (qr[j] < pr[i]) {
      acc += qv[j] * qv[j];
      ++j;
    } else {
      const real_t d = pv[i] - qv[j];
      acc += d * d;
      ++i;
      ++j;
    }
  }
  for (; i < pr.size(); ++i) acc += pv[i] * pv[i];
  for (; j < qr.size(); ++j) acc += qv[j] * qv[j];
  return acc;
}

}  // namespace er
