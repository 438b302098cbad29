// Pure helpers of the benchmark: the percentile rule, the open-loop
// Poisson schedule, the Zipf pair stream, the goodput ladder search and
// the span self-time computation. Header-only and free of I/O so the
// self-tests (perfbench/tests/test_helpers.cpp) pin each one directly.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// A percentile is printed only when at least this many samples lie
/// beyond it; a requested percentile the sample cannot support is lowered
/// to the highest one that it can.
inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  bool valid = false;
  double value = 0.0;
  double quantile = 0.0;    ///< the percentile actually reported, in (0, 1]
  std::size_t samples = 0;  ///< sample count it was taken over
};

/// Rank-based percentile of an ascending sample: the ceil(q*n)-th smallest
/// value, lowered so that at least kMinBeyond samples lie above it.
/// Invalid when the sample has kMinBeyond or fewer values.
inline Percentile percentile_rule(const std::vector<double>& sorted,
                                  double q) {
  Percentile p;
  p.samples = sorted.size();
  const std::size_t n = sorted.size();
  if (n <= kMinBeyond) return p;
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::max<std::size_t>(rank, 1);
  rank = std::min(rank, n - kMinBeyond);
  p.valid = true;
  p.value = sorted[rank - 1];
  p.quantile = static_cast<double>(rank) / static_cast<double>(n);
  return p;
}

/// Median of an unsorted sample (mean of the middle pair for even sizes);
/// 0 for an empty one.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Arrival instants (seconds from the phase start) of a Poisson process of
/// `rate` events per second over [0, duration): exponential gaps drawn
/// from one seeded stream, so the schedule exists before the run starts.
inline std::vector<double> poisson_arrivals(double rate, double duration,
                                            std::uint64_t seed) {
  std::vector<double> at;
  if (rate <= 0.0 || duration <= 0.0) return at;
  er::Rng rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= duration) break;
    at.push_back(t);
  }
  return at;
}

/// Zipf(s) ranks over [0, n): P(k) proportional to 1 / (k + 1)^s, sampled
/// by inverting the cumulative weights with one uniform draw.
class ZipfRanks {
 public:
  ZipfRanks(std::size_t n, double s) : cdf_(n, 0.0) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += std::pow(static_cast<double>(k + 1), -s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  [[nodiscard]] std::size_t sample(er::Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::size_t>(it - cdf_.begin());
  }

  /// Probability of rank k.
  [[nodiscard]] double probability(std::size_t k) const {
    return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
  }

 private:
  std::vector<double> cdf_;
};

/// A pool of `pool_size` node pairs (p != q, drawn uniformly from `nodes`)
/// and a Zipf(s) stream over it: stream()[i] indexes the pool.
struct ZipfPairStream {
  std::vector<std::pair<int, int>> pool;
  std::vector<std::size_t> stream;
};

inline ZipfPairStream zipf_pair_stream(const std::vector<int>& nodes,
                                       std::size_t pool_size, double s,
                                       std::size_t draws, std::uint64_t seed) {
  ZipfPairStream z;
  er::Rng rng(seed);
  const auto n = static_cast<er::index_t>(nodes.size());
  while (z.pool.size() < pool_size && n > 1) {
    const int p = nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    const int q = nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    if (p != q) z.pool.emplace_back(p, q);
  }
  const ZipfRanks ranks(z.pool.size(), s);
  z.stream.reserve(draws);
  for (std::size_t i = 0; i < draws; ++i) z.stream.push_back(ranks.sample(rng));
  return z;
}

/// Highest index in [0, rungs) whose probe passes, assuming passing is
/// monotone (every rung below a passing rung passes); -1 when rung 0 fails.
/// The search gallops from `start` (a guess near the answer) with doubling
/// steps until it brackets the boundary, then bisects the bracket, so a
/// good guess needs few probes. `probed` (optional) receives each
/// (rung, passed) in probe order.
inline int highest_passing_rung(
    int rungs, int start, const std::function<bool(int)>& passes,
    std::vector<std::pair<int, bool>>* probed = nullptr) {
  auto probe = [&](int rung) {
    const bool pass = passes(rung);
    if (probed) probed->emplace_back(rung, pass);
    return pass;
  };
  int ok = -1;      // highest rung known to pass
  int bad = rungs;  // lowest rung known to fail
  if (rungs <= 0) return ok;
  start = std::clamp(start, 0, rungs - 1);
  if (probe(start)) {
    ok = start;
    for (int step = 1; ok < rungs - 1; step *= 2) {
      const int next = std::min(ok + step, rungs - 1);
      if (!probe(next)) {
        bad = next;
        break;
      }
      ok = next;
    }
  } else {
    bad = start;
    for (int step = 1; bad > 0; step *= 2) {
      const int next = std::max(bad - step, 0);
      if (probe(next)) {
        ok = next;
        break;
      }
      bad = next;
    }
  }
  while (bad - ok > 1) {
    const int mid = ok + (bad - ok) / 2;
    (probe(mid) ? ok : bad) = mid;
  }
  return ok;
}

/// Index of the rung of `ladder` (ascending) nearest to `rate`.
inline int nearest_rung(const std::vector<double>& ladder, double rate) {
  int best = 0;
  for (int i = 1; i < static_cast<int>(ladder.size()); ++i)
    if (std::abs(ladder[static_cast<std::size_t>(i)] - rate) <
        std::abs(ladder[static_cast<std::size_t>(best)] - rate))
      best = i;
  return best;
}

/// Geometric ladder of `rungs` rates from `lo`, each `ratio` times the last.
inline std::vector<double> geometric_ladder(double lo, double ratio,
                                            int rungs) {
  std::vector<double> r;
  double v = lo;
  for (int i = 0; i < rungs; ++i, v *= ratio) r.push_back(v);
  return r;
}

/// One traced call: name, interval, the span that caused it (0 = none)
/// and the request it served (0 = none).
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-span self time in nanoseconds: its duration minus the part of its
/// interval covered by its direct children (overlapping children are
/// merged, and child time outside the parent's interval is ignored).
inline std::vector<std::int64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const SpanRecord& s : spans) {
    const auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const SpanRecord& p = spans[it->second];
    const std::int64_t a = std::max(s.start_ns, p.start_ns);
    const std::int64_t b = std::min(s.end_ns, p.end_ns);
    if (a < b) kids[it->second].emplace_back(a, b);
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0;
    std::int64_t cur_b = -1;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

}  // namespace perfbench
