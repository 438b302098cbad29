#include "approxinv/approx_inverse.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "approxinv/truncation.hpp"
#include "chol/dense_tail.hpp"
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
  std::vector<index_t> pattern;  // the column's rows, in first-touch order
  std::vector<real_t> mags;      // |w| of pattern, in its order
  TruncationScratch truncation;
  std::vector<index_t> radix;          // row order: the first pass's output
  std::vector<std::size_t> radix_count;
  std::vector<std::uint64_t> seen;     // dense tail: rows touched so far
};

/// Alg. 2's dense tail (DESIGN.md §4): columns [c, n) of Z~, where
/// c = dense_tail_first(factor), each with a dense copy in a packed
/// triangle and its rows in a bitset. A tail column's L pattern lies in
/// the tail, so it is built from these copies alone. Head columns read the
/// tail from the chunks, so the block goes as soon as the tail is done.
class DenseTail {
 public:
  DenseTail(index_t c, index_t n)
      : values_(c, n), words_(static_cast<std::size_t>(n - c + 63) / 64),
        bits_(words_ * static_cast<std::size_t>(n - c), 0), pending_(n - c) {}

  [[nodiscard]] index_t first() const { return values_.first(); }
  [[nodiscard]] std::size_t words() const { return words_; }
  /// z~_j(j..n-1), zero where the column has no row.
  [[nodiscard]] real_t* values(index_t j) const { return values_.col(j); }
  /// Bit r - first() is set when row r is in column j.
  [[nodiscard]] std::uint64_t* rows(index_t j) {
    return bits_.data() + words_ * static_cast<std::size_t>(j - first());
  }
  /// Counts column j done; true for the last tail column.
  bool finish() { return pending_.fetch_sub(1, std::memory_order_acq_rel) == 1; }

 private:
  PackedTriangle values_;
  std::size_t words_;
  std::vector<std::uint64_t> bits_;
  std::atomic<index_t> pending_;
};

/// w[t] += c[0] * d[0][t], then c[1] * d[1][t], ... for t in [0, len):
/// each w[t] takes the k products in order, as a scatter of the k columns
/// one after another would add them. Four columns share one pass over w.
void fused_axpy(real_t* w, index_t len, const real_t* const* d, const real_t* c, int k) {
  if (k < 4) {
    for (int q = 0; q < k; ++q)
      for (index_t t = 0; t < len; ++t) w[t] += c[q] * d[q][t];
    return;
  }
  for (index_t t = 0; t < len; ++t) {
    real_t x = w[t];
    x += c[0] * d[0][t];
    x += c[1] * d[1][t];
    x += c[2] * d[2][t];
    x += c[3] * d[3][t];
    w[t] = x;
  }
}

/// Builds z*_j (Eq. (8)) of a head column in `ws`: its rows are
/// ws.pattern in first-touch order and its values ws.w. Reads only the
/// finished columns i > j of its L pattern from `z`.
void gather_column(const CholFactor& factor, const ApproxInverse& z, index_t j, Workspace& ws) {
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
}

/// gather_column for a column of the dense tail, bitwise equal to it. The
/// first-touch order comes from the source columns' bitsets: each source
/// adds its rows not seen before, ascending. The values come from fused
/// axpys over the dense copies, four sources per pass in L's row order.
/// A row outside a source's pattern takes a ±0 product from it, which
/// leaves the value as the scatter leaves it (w starts at +0 and never
/// becomes −0). A source's copy starts at its own row, so a pass
/// over sources i_0 < ... < i_{k-1} runs rows [i_s, i_{s+1}) with the
/// first s + 1 of them.
void gather_tail_column(const CholFactor& factor, DenseTail& tail, index_t j, Workspace& ws) {
  const index_t n = factor.n;
  const index_t c = tail.first();
  std::vector<real_t>& w = ws.w;
  std::vector<index_t>& pattern = ws.pattern;
  pattern.clear();
  ws.seen.assign(tail.words(), 0);

  const offset_t cb = factor.col_ptr[static_cast<std::size_t>(j)];
  const offset_t ce = factor.col_ptr[static_cast<std::size_t>(j) + 1];
  const real_t inv_ljj = 1.0 / factor.values[static_cast<std::size_t>(cb)];
  w[static_cast<std::size_t>(j)] = inv_ljj;
  std::fill(w.begin() + j + 1, w.end(), 0.0);
  pattern.push_back(j);

  index_t first[4];
  const real_t* col[4];
  real_t coef[4];
  int group = 0;
  auto flush = [&] {
    for (int s = 0; s < group; ++s) {
      const index_t lo = first[s];
      const index_t hi = s + 1 < group ? first[s + 1] : n;
      const real_t* d[4];
      for (int q = 0; q <= s; ++q) d[q] = col[q] + (lo - first[q]);
      fused_axpy(w.data() + lo, hi - lo, d, coef, s + 1);
    }
    group = 0;
  };
  for (offset_t p = cb + 1; p < ce; ++p) {
    const index_t i = factor.row_ind[static_cast<std::size_t>(p)];
    const real_t cf = -factor.values[static_cast<std::size_t>(p)] * inv_ljj;
    if (cf == 0.0) continue;
    const std::uint64_t* bits = tail.rows(i);
    for (auto k = static_cast<std::size_t>(i - c) / 64; k < tail.words(); ++k) {
      std::uint64_t fresh = bits[k] & ~ws.seen[k];
      ws.seen[k] |= bits[k];
      for (; fresh != 0; fresh &= fresh - 1)
        pattern.push_back(c + static_cast<index_t>(64 * k) + __builtin_ctzll(fresh));
    }
    first[group] = i;
    col[group] = tail.values(i);
    coef[group++] = cf;
    if (group == 4) flush();
  }
  flush();
}

/// Truncation (Eq. (10)) of the column in `ws`: drops the cut of
/// approxinv/truncation.hpp from ws.pattern, keeping its order, and
/// clears the dropped rows' stamps.
void truncate_column(Workspace& ws, real_t epsilon) {
  std::vector<index_t>& pattern = ws.pattern;
  ws.mags.resize(pattern.size());
  for (std::size_t t = 0; t < pattern.size(); ++t)
    ws.mags[t] = std::abs(ws.w[static_cast<std::size_t>(pattern[t])]);
  const TruncationCut cut =
      truncation_cut({ws.mags.data(), ws.mags.size()}, epsilon, ws.truncation);
  if (cut.dropped == 0) return;
  // Keep entries above the cut; among those equal to it drop the first
  // cut.ties in pattern order, so exactly cut.dropped entries go.
  std::size_t ties = cut.ties;
  std::size_t wpos = 0;
  for (std::size_t t = 0; t < pattern.size(); ++t) {
    const real_t m = ws.mags[t];
    if (m < cut.cut || (m == cut.cut && ties > 0)) {
      if (m == cut.cut) --ties;
      ws.stamp[static_cast<std::size_t>(pattern[t])] = -1;
      continue;
    }
    pattern[wpos++] = pattern[t];
  }
  pattern.resize(wpos);
}

/// Writes ws.pattern, rows in [j, n), to `rows` ascending: a two-pass LSD
/// radix sort on r - j through ws.radix, or std::sort when the pattern is
/// shorter than one pass's buckets.
void sort_rows(Workspace& ws, index_t j, index_t n, index_t* rows) {
  std::vector<index_t>& pattern = ws.pattern;
  const std::size_t len = pattern.size();
  const auto span = static_cast<std::uint32_t>(n - j);
  int bits = 0;
  while (bits < 32 && (span - 1) >> bits != 0) ++bits;
  const int digit = (bits + 1) / 2;
  const std::size_t buckets = std::size_t{1} << digit;
  if (len < buckets) {
    std::sort(pattern.begin(), pattern.end());
    std::copy(pattern.begin(), pattern.end(), rows);
    return;
  }
  const std::uint32_t mask = static_cast<std::uint32_t>(buckets - 1);
  ws.radix.resize(len);
  std::vector<std::size_t>& count = ws.radix_count;
  auto pass = [&](const index_t* from, index_t* to, int shift) {
    count.assign(buckets + 1, 0);
    for (std::size_t t = 0; t < len; ++t)
      ++count[((static_cast<std::uint32_t>(from[t] - j) >> shift) & mask) + 1];
    for (std::size_t b = 1; b <= buckets; ++b) count[b] += count[b - 1];
    for (std::size_t t = 0; t < len; ++t)
      to[count[(static_cast<std::uint32_t>(from[t] - j) >> shift) & mask]++] = from[t];
  };
  pass(pattern.data(), ws.radix.data(), 0);
  pass(ws.radix.data(), rows, digit);
}

/// Writes the column left in `ws` to rows/vals, rows ascending. Every row
/// lies in [j, n), so a dense column reads its rows off the stamps in
/// order; a sparse one sorts its pattern.
void write_column(Workspace& ws, index_t j, index_t n, index_t* rows, real_t* vals) {
  const std::size_t len = ws.pattern.size();
  if (len * 16 > static_cast<std::size_t>(n - j)) {
    std::size_t k = 0;
    for (index_t r = j; k < len; ++r) {
      if (ws.stamp[static_cast<std::size_t>(r)] != j) continue;
      rows[k] = r;
      vals[k++] = ws.w[static_cast<std::size_t>(r)];
    }
    return;
  }
  sort_rows(ws, j, n, rows);
  for (std::size_t k = 0; k < len; ++k) vals[k] = ws.w[static_cast<std::size_t>(rows[k])];
}

/// Writes a tail column left in `ws` to its bitset, its dense copy and
/// rows/vals, rows ascending off the bitset.
void write_tail_column(Workspace& ws, DenseTail& tail, index_t j, index_t* rows, real_t* vals) {
  const index_t c = tail.first();
  std::uint64_t* bits = tail.rows(j);
  for (index_t r : ws.pattern) {
    const auto bit = static_cast<std::size_t>(r - c);
    bits[bit / 64] |= std::uint64_t{1} << (bit % 64);
  }
  real_t* copy = tail.values(j);
  std::size_t k = 0;
  for (auto word = static_cast<std::size_t>(j - c) / 64; word < tail.words(); ++word)
    for (std::uint64_t b = bits[word]; b != 0; b &= b - 1) {
      const index_t r = c + static_cast<index_t>(64 * word) + __builtin_ctzll(b);
      const real_t v = ws.w[static_cast<std::size_t>(r)];
      rows[k] = r;
      vals[k++] = v;
      copy[r - j] = v;
    }
}

/// The no-truncation floor from Alg. 2 line 3: nnz(z*_j) <= log n.
std::size_t nnz_floor(index_t n) {
  return static_cast<std::size_t>(
      std::max(1.0, std::log2(static_cast<double>(std::max<index_t>(n, 2)))));
}

/// One build's column kernel, shared by the serial loop and the ready
/// queue. Every column runs the same arithmetic in the same order
/// whichever path and thread builds it (DESIGN.md §3).
struct ColumnKernel {
  ColumnKernel(const CholFactor& f, const ApproxInverse& zz, real_t eps)
      : factor(f), z(zz), epsilon(eps), kept_floor(nnz_floor(f.n)),
        tail_first(dense_tail_first(f)) {
    if (tail_first < f.n) tail = std::make_unique<DenseTail>(tail_first, f.n);
  }

  /// Builds z̃_j in `ws` (Eq. (8), then the Eq. (10) truncation): its rows
  /// are ws.pattern and its values ws.w. Returns its length.
  index_t build(index_t j, Workspace& ws) {
    if (j >= tail_first)
      gather_tail_column(factor, *tail, j, ws);
    else
      gather_column(factor, z, j, ws);
    if (ws.pattern.size() > kept_floor && epsilon > 0.0) truncate_column(ws, epsilon);
    return static_cast<index_t>(ws.pattern.size());
  }

  /// Writes the column build(j, ws) left to rows/vals. The tail's last
  /// column frees it: head columns read the tail from the chunks.
  void write(index_t j, Workspace& ws, index_t* rows, real_t* vals) {
    if (j < tail_first) {
      write_column(ws, j, factor.n, rows, vals);
      return;
    }
    write_tail_column(ws, *tail, j, rows, vals);
    if (tail->finish()) tail.reset();
  }

  const CholFactor& factor;
  const ApproxInverse& z;  // columns read once done
  const real_t epsilon;
  const std::size_t kept_floor;
  const index_t tail_first;  // n when the factor has no dense tail
  std::unique_ptr<DenseTail> tail;  // touched only by tail columns
};

}  // namespace

/// Alg. 2 on a pool: column j is ready once every column i of its L
/// pattern is done. A TaskHeap runs the ready columns, largest j first
/// (the order of a serial build), on the calling thread and the pool's
/// idle workers; each slot builds its columns in its own workspace and
/// places them in the shared chunks.
class ApproxInverse::ReadyQueue {
 public:
  ReadyQueue(ColumnKernel& kernel, ApproxInverse& z, int threads) : kernel_(kernel), z_(z) {
    const CholFactor& factor = kernel.factor;
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

  /// Builds every column on the calling thread and `pool`'s idle workers;
  /// rethrows the first error once every slot has stopped.
  void run(ThreadPool& pool) {
    TaskHeap(
        std::move(ready_),
        [this](index_t j, int slot) { build(j, workspaces_[static_cast<std::size_t>(slot)]); },
        [this](index_t j, std::vector<index_t>& ready) { release(j, ready); })
        .run(pool);
  }

 private:
  /// Builds column j and places it; its inputs are done.
  void build(index_t j, Workspace& ws) ER_EXCLUDES(place_mutex_) {
    const index_t len = kernel_.build(j, ws);
    Column c;
    {
      util::MutexLock lock(&place_mutex_);
      c = z_.place(j, len);
    }
    kernel_.write(j, ws, c.rows, c.vals);
  }

  /// Column j is done: the consumers it was the last input of are ready.
  void release(index_t j, std::vector<index_t>& ready) {
    for (offset_t p = consumer_ptr_[static_cast<std::size_t>(j)];
         p < consumer_ptr_[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t c = consumers_[static_cast<std::size_t>(p)];
      if (--pending_[static_cast<std::size_t>(c)] == 0) ready.push_back(c);
    }
  }

  ColumnKernel& kernel_;
  ApproxInverse& z_;  // place() under place_mutex_
  std::vector<offset_t> consumer_ptr_;  // consumers of i: consumers_[ptr[i] .. ptr[i + 1])
  std::vector<index_t> consumers_;
  std::vector<index_t> pending_;  // inputs not done (release() only)
  std::vector<index_t> ready_;    // columns with no inputs, the first tasks
  std::vector<Workspace> workspaces_;  // one per TaskHeap slot
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
  // At epsilon >= 1 the budget covers the whole column, so Eq. (10) would
  // drop every entry above the log n floor; NaN and +inf likewise.
  if (!(opts.epsilon >= 0.0 && opts.epsilon < 1.0))
    throw std::invalid_argument(
        "ApproxInverse: epsilon must lie in [0, 1); at 1 or more the "
        "truncation budget covers the whole column and empties it");
  const index_t n = factor.n;

  ApproxInverse z;
  z.n_ = n;
  z.perm_ = factor.perm;
  z.inv_perm_ = factor.inv_perm;
  z.cols_.assign(static_cast<std::size_t>(n), Column{});

  ColumnKernel kernel(factor, z, opts.epsilon);
  if (opts.pool != nullptr && opts.pool->num_threads() > 1) {
    ReadyQueue(kernel, z, opts.pool->num_threads()).run(*opts.pool);
    return z;
  }
  // Serial: column j reads only columns i > j, so j descending is a valid
  // order and lays the columns out in it.
  Workspace ws(n);
  for (index_t j = n; j-- > 0;) {
    const Column c = z.place(j, kernel.build(j, ws));
    kernel.write(j, ws, c.rows, c.vals);
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
