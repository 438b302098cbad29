// Self-tests of the benchmark's own helpers (perfbench/src/stats.hpp):
// the percentile rule, the Poisson schedule's mean rate, the goodput
// ladder search, the Zipf pair stream and the span self-time computation.
// Run: ./.bench_build/perfbench/perfbench_selftest (exit 0 = all pass).
#include <cmath>
#include <cstdio>
#include <map>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

using namespace perfbench;

void test_percentile_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) v.push_back(i);
  CHECK(!percentile_rule(v, 0.5).valid);  // 10 samples: none has 10 beyond

  v.clear();
  for (int i = 1; i <= 2000; ++i) v.push_back(i);
  const Percentile p99 = percentile_rule(v, 0.99);
  CHECK(p99.valid);
  CHECK(p99.value == 1980.0);  // rank ceil(0.99 * 2000) = 1980
  CHECK(std::abs(p99.quantile - 0.99) < 1e-12);
  CHECK(p99.samples == 2000);
  const Percentile p50 = percentile_rule(v, 0.5);
  CHECK(p50.value == 1000.0);

  // 200 samples cannot support p99 (2 beyond): lowered to rank 190, the
  // highest with 10 samples beyond it.
  v.resize(200);
  const Percentile capped = percentile_rule(v, 0.99);
  CHECK(capped.valid);
  CHECK(capped.value == 190.0);
  CHECK(std::abs(capped.quantile - 0.95) < 1e-12);
  std::size_t beyond = 0;
  for (double x : v) beyond += x > capped.value;
  CHECK(beyond == kMinBeyond);

  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 2.0, 3.0}) == 2.5);
}

void test_poisson_rate() {
  const double rate = 250.0, duration = 400.0;
  const std::vector<double> at = poisson_arrivals(rate, duration, 7);
  // 1e5 expected events: the count is within 1 % (>3 sigma) of rate * T.
  CHECK(std::abs(static_cast<double>(at.size()) - rate * duration) <
        0.01 * rate * duration);
  bool sorted = true, in_range = true;
  for (std::size_t i = 0; i < at.size(); ++i) {
    if (i && at[i] < at[i - 1]) sorted = false;
    if (at[i] < 0.0 || at[i] >= duration) in_range = false;
  }
  CHECK(sorted);
  CHECK(in_range);
  // Exponential gaps: the squared coefficient of variation is ~1.
  double mean = 0.0, var = 0.0;
  for (std::size_t i = 1; i < at.size(); ++i) mean += at[i] - at[i - 1];
  mean /= static_cast<double>(at.size() - 1);
  for (std::size_t i = 1; i < at.size(); ++i)
    var += (at[i] - at[i - 1] - mean) * (at[i] - at[i - 1] - mean);
  var /= static_cast<double>(at.size() - 2);
  CHECK(std::abs(var / (mean * mean) - 1.0) < 0.05);
  // Same seed, same schedule; another seed, another one.
  CHECK(poisson_arrivals(rate, 10.0, 7) == poisson_arrivals(rate, 10.0, 7));
  CHECK(poisson_arrivals(rate, 10.0, 7) != poisson_arrivals(rate, 10.0, 8));
}

void test_goodput_search() {
  // Every boundary and every start guess finds the highest passing rung.
  for (int threshold = -1; threshold < 80; ++threshold) {
    for (int start : {0, 17, 40, 79, threshold}) {
      std::vector<std::pair<int, bool>> probed;
      const int found = highest_passing_rung(
          80, start, [&](int rung) { return rung <= threshold; }, &probed);
      CHECK(found == threshold);
      CHECK(probed.size() <= 14);  // gallop + bisect: 2 * ceil(log2(80))
      for (const auto& [rung, pass] : probed) CHECK(pass == (rung <= threshold));
    }
  }
  // A guess next to the boundary settles in a few probes.
  std::vector<std::pair<int, bool>> probed;
  CHECK(highest_passing_rung(80, 41, [](int r) { return r <= 41; }, &probed) == 41);
  CHECK(probed.size() == 2);
  probed.clear();
  CHECK(highest_passing_rung(80, 43, [](int r) { return r <= 41; }, &probed) == 41);
  CHECK(probed.size() <= 4);

  const std::vector<double> ladder = geometric_ladder(100.0, 1.05, 80);
  CHECK(ladder.size() == 80);
  CHECK(std::abs(ladder[1] / ladder[0] - 1.05) < 1e-12);
  CHECK(std::abs(ladder[79] - 100.0 * std::pow(1.05, 79)) < 1e-6);
  CHECK(nearest_rung(ladder, 0.0) == 0);
  CHECK(nearest_rung(ladder, 1e9) == 79);
  CHECK(nearest_rung(ladder, 100.0 * std::pow(1.05, 30) * 1.01) == 30);
}

void test_zipf_stream() {
  std::vector<int> nodes;
  for (int i = 0; i < 500; ++i) nodes.push_back(10 * i);
  const ZipfPairStream z = zipf_pair_stream(nodes, 256, 1.1, 200000, 3);
  CHECK(z.pool.size() == 256);
  for (const auto& [p, q] : z.pool) {
    CHECK(p != q);
    CHECK(p % 10 == 0 && q % 10 == 0);
  }
  std::vector<double> freq(256, 0.0);
  for (std::size_t r : z.stream) {
    CHECK(r < 256);
    freq[r] += 1.0 / static_cast<double>(z.stream.size());
  }
  const ZipfRanks ranks(256, 1.1);
  double total = 0.0;
  for (std::size_t k = 0; k < 256; ++k) total += ranks.probability(k);
  CHECK(std::abs(total - 1.0) < 1e-12);
  // Rank probabilities follow 1 / (k+1)^1.1, and the stream matches them.
  CHECK(std::abs(ranks.probability(1) / ranks.probability(0) -
                 std::pow(2.0, -1.1)) < 1e-12);
  for (std::size_t k : {0u, 1u, 9u}) {
    const double p = ranks.probability(k);
    const double sigma = std::sqrt(p * (1 - p) / 200000.0);
    CHECK(std::abs(freq[k] - p) < 5 * sigma);
  }
  CHECK(zipf_pair_stream(nodes, 64, 1.1, 100, 3).stream ==
        zipf_pair_stream(nodes, 64, 1.1, 100, 3).stream);
}

void test_self_times() {
  // root [0,100) with children a [10,30) and b [20,50) (overlapping: 40
  // covered) and a grandchild c [12,18) under a; d is a root elsewhere;
  // e claims parent a but runs past a's end (only [25,30) counts).
  std::vector<SpanRecord> s = {
      {1, 0, 7, "root", 0, 100}, {2, 1, 7, "a", 10, 30},
      {3, 1, 7, "b", 20, 50},    {4, 2, 7, "c", 12, 18},
      {5, 0, 8, "d", 200, 260},  {6, 2, 7, "e", 25, 40}};
  const std::vector<std::int64_t> self = self_times(s);
  CHECK(self[0] == 100 - 40);
  CHECK(self[1] == 20 - 6 - 5);
  CHECK(self[2] == 30);
  CHECK(self[3] == 6);
  CHECK(self[4] == 60);
  CHECK(self[5] == 15);
  // Self times of a tree without overlap sum to the root's duration.
  std::vector<SpanRecord> t = {{1, 0, 1, "r", 0, 90}, {2, 1, 1, "x", 0, 30},
                               {3, 1, 1, "y", 30, 60}, {4, 3, 1, "z", 40, 50}};
  std::int64_t sum = 0;
  for (std::int64_t v : self_times(t)) sum += v;
  CHECK(sum == 90);
}

}  // namespace

int main() {
  test_percentile_rule();
  test_poisson_rate();
  test_goodput_search();
  test_zipf_stream();
  test_self_times();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench helper self-tests passed\n");
  return 0;
}
