#include "approxinv/approx_inverse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "approxinv/depth.hpp"

namespace er {

namespace {

// A level whose estimated scatter work (multiply-adds) is below this runs
// inline on the calling thread. Swept on a 4-core Xeon (4-thread pool,
// BA n=15000 and 195x195 log-uniform grid, ICT 1e-3): build time is flat
// within noise for cutoffs from 1 to 2^16 and rises from 2^18 on (+35%
// at 2^20), so the exact value matters little below 2^16.
constexpr std::size_t kMinParallelLevelWork = std::size_t{1} << 14;

/// Dense scatter workspace for building one column at a time. stamp[r] == j
/// marks row r live in column j; each column is built exactly once, so a
/// workspace is reused across columns and levels without clearing.
struct Workspace {
  explicit Workspace(index_t n)
      : w(static_cast<std::size_t>(n), 0.0),
        stamp(static_cast<std::size_t>(n), -1) {}
  std::vector<real_t> w;
  std::vector<index_t> stamp;
  std::vector<index_t> pattern;
  std::vector<real_t> heap;  // |values| min-heap for the truncation
};

/// Columns one task of a parallel level built, staged until the append.
struct TaskOutput {
  std::vector<index_t> rows;
  std::vector<real_t> vals;
};

/// Where a staged column of the current level lives.
struct StagedColumn {
  std::size_t task = 0;
  std::size_t offset = 0;
  index_t len = 0;
};

/// Truncation (Eq. (10)): drop the largest set of smallest-|.| entries of
/// ws.pattern whose 1-norm stays within epsilon * ||z*_j||_1. A min-heap
/// pops the dropped magnitudes in ascending order, the same sequence (and
/// running sum) a full sort would give, without ordering the kept entries.
void truncate_column(Workspace& ws, real_t epsilon) {
  std::vector<real_t>& heap = ws.heap;
  heap.clear();
  real_t norm1 = 0.0;
  for (index_t r : ws.pattern) {
    const real_t m = std::abs(ws.w[static_cast<std::size_t>(r)]);
    heap.push_back(m);
    norm1 += m;
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  const real_t budget = epsilon * norm1;
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
    if (m < cut) continue;
    if (m == cut && ties_to_drop > 0) {
      --ties_to_drop;
      continue;
    }
    ws.pattern[wpos++] = r;
  }
  ws.pattern.resize(wpos);
}

/// Builds z̃_j (Eq. (8), then the Eq. (10) truncation) in `ws` and appends
/// its rows (ascending) and values to rows_out / vals_out. Reads only the
/// finished columns of smaller depth from `z`.
index_t build_column(const CholFactor& factor, const ApproxInverse& z,
                     index_t j, std::size_t nnz_floor, real_t epsilon,
                     Workspace& ws, std::vector<index_t>& rows_out,
                     std::vector<real_t>& vals_out) {
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

  std::sort(pattern.begin(), pattern.end());
  for (index_t r : pattern) {
    rows_out.push_back(r);
    vals_out.push_back(w[static_cast<std::size_t>(r)]);
  }
  return static_cast<index_t>(pattern.size());
}

}  // namespace

ApproxInverse ApproxInverse::build(const CholFactor& factor,
                                   const ApproxInverseOptions& opts) {
  if (!(opts.epsilon >= 0.0))
    throw std::invalid_argument("ApproxInverse: epsilon must be >= 0");
  const index_t n = factor.n;

  ApproxInverse z;
  z.n_ = n;
  z.perm_ = factor.perm;
  z.inv_perm_ = factor.inv_perm;
  z.col_offset_.assign(static_cast<std::size_t>(n), 0);
  z.col_len_.assign(static_cast<std::size_t>(n), 0);
  // Heuristic pool reservation: a few entries per column, grows as needed.
  z.pool_rows_.reserve(static_cast<std::size_t>(n) * 8);
  z.pool_vals_.reserve(static_cast<std::size_t>(n) * 8);

  // The no-truncation floor from Alg. 2 line 3: nnz(z*_j) <= log n.
  const auto nnz_floor = static_cast<std::size_t>(
      std::max(1.0, std::log2(static_cast<double>(std::max<index_t>(n, 2)))));

  // Level schedule (Eq. (11)): column j reads the columns i > j of its L
  // pattern, all of smaller depth, so the columns of a level are
  // independent. Bucket the columns by depth, j descending within a level.
  const std::vector<index_t> depths = filled_graph_depths(factor);
  index_t max_depth = 0;
  for (index_t d : depths) max_depth = std::max(max_depth, d);
  std::vector<index_t> level_ptr(static_cast<std::size_t>(max_depth) + 2, 0);
  for (index_t d : depths) ++level_ptr[static_cast<std::size_t>(d) + 1];
  for (std::size_t l = 1; l < level_ptr.size(); ++l)
    level_ptr[l] += level_ptr[l - 1];
  std::vector<index_t> order(static_cast<std::size_t>(n));
  {
    std::vector<index_t> cursor(level_ptr.begin(), level_ptr.end() - 1);
    for (index_t j = n; j-- > 0;)
      order[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(depths[static_cast<std::size_t>(j)])]++)] = j;
  }

  ThreadPool* pool = opts.pool;
  const bool can_fork = pool != nullptr && pool->num_threads() > 1 &&
                        !ThreadPool::on_worker_thread();
  const std::size_t num_tasks =
      can_fork ? static_cast<std::size_t>(pool->num_threads()) : 1;
  // One workspace and one staging buffer per task, reused across levels;
  // task 0's workspace also serves the inline levels.
  std::vector<Workspace> workspaces(num_tasks, Workspace(n));
  std::vector<TaskOutput> staging(num_tasks);
  std::vector<StagedColumn> staged;  // level position -> staged column

  for (std::size_t l = 0; l + 1 < level_ptr.size(); ++l) {
    const index_t* cols = order.data() + level_ptr[l];
    const auto count = static_cast<std::size_t>(level_ptr[l + 1] - level_ptr[l]);

    // Estimated work of the level: the entries its columns scatter. It
    // also bounds the entries the level outputs.
    std::size_t work = 0;
    if (can_fork) {
      for (std::size_t k = 0; k < count; ++k) {
        const auto j = static_cast<std::size_t>(cols[k]);
        work += 1;
        for (offset_t p = factor.col_ptr[j] + 1; p < factor.col_ptr[j + 1]; ++p)
          work += static_cast<std::size_t>(z.col_len_[static_cast<std::size_t>(
              factor.row_ind[static_cast<std::size_t>(p)])]);
      }
    }

    if (!can_fork || count < 2 || work < kMinParallelLevelWork) {
      // Inline: append straight to the pool. Each column reads its inputs
      // before it appends, so a pool reallocation never invalidates a read.
      for (std::size_t k = 0; k < count; ++k) {
        const auto j = static_cast<std::size_t>(cols[k]);
        z.col_offset_[j] = z.pool_rows_.size();
        z.col_len_[j] = build_column(factor, z, cols[k], nnz_floor, opts.epsilon,
                                     workspaces[0], z.pool_rows_, z.pool_vals_);
      }
      continue;
    }

    // Parallel: the tasks claim columns one at a time (load balance) and
    // stage them; the pool is not touched until the serial append below,
    // which lays the level out in level order whoever built each column.
    if (z.pool_rows_.capacity() < z.pool_rows_.size() + work) {
      // Grow the pool now, with the staging released, so pool growth and
      // staging never peak together.
      for (TaskOutput& out : staging) out = TaskOutput{};
      const std::size_t cap =
          std::max(z.pool_rows_.size() + work, 2 * z.pool_rows_.capacity());
      z.pool_rows_.reserve(cap);
      z.pool_vals_.reserve(cap);
    }
    staged.resize(count);
    std::atomic<std::size_t> next{0};
    const auto run_tasks = [&](index_t lo, index_t hi) {
      for (auto t = static_cast<std::size_t>(lo); t < static_cast<std::size_t>(hi); ++t) {
        TaskOutput& out = staging[t];
        out.rows.clear();
        out.vals.clear();
        for (std::size_t k = next.fetch_add(1, std::memory_order_relaxed); k < count;
             k = next.fetch_add(1, std::memory_order_relaxed)) {
          const std::size_t offset = out.rows.size();
          const index_t len = build_column(factor, z, cols[k], nnz_floor, opts.epsilon,
                                           workspaces[t], out.rows, out.vals);
          staged[k] = {t, offset, len};
        }
      }
    };
    parallel_for(pool, 0, static_cast<index_t>(num_tasks), 1, run_tasks);
    for (std::size_t k = 0; k < count; ++k) {
      const StagedColumn& sc = staged[k];
      const TaskOutput& out = staging[sc.task];
      const auto j = static_cast<std::size_t>(cols[k]);
      const auto begin = static_cast<std::ptrdiff_t>(sc.offset);
      const auto end = begin + static_cast<std::ptrdiff_t>(sc.len);
      z.col_offset_[j] = z.pool_rows_.size();
      z.col_len_[j] = sc.len;
      z.pool_rows_.insert(z.pool_rows_.end(), out.rows.begin() + begin,
                          out.rows.begin() + end);
      z.pool_vals_.insert(z.pool_vals_.end(), out.vals.begin() + begin,
                          out.vals.begin() + end);
    }
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
