// Result-cache tests (DESIGN.md §4.2). Four contracts:
//
//   (a) cached answers are bitwise identical to uncached ones over
//       randomized query/publish interleavings at 1/2/4/8 pool threads,
//   (b) concurrent readers through a cache-attached store stay
//       bit-consistent per pinned version while a publisher churns
//       (runs under TSan in CI),
//   (c) every publish turns over the version scope: the new version
//       starts cold, pinned versions keep hitting within version_cap, and
//       a version aged past the cap is swept and bypassed,
//   (d) a tiny capacity evicts without ever answering wrong, and pinned
//       old versions keep resolving within version_cap and degrade to
//       plain (still correct) compute past it,
//   (e) a Zipf-skewed stream over a pair pool smaller than the draws per
//       version keeps a hit rate of at least 0.5 while every publish
//       dirties 10 % of the blocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"

#include "obs/metrics.hpp"
#include "pg/incremental.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"

namespace er {
namespace {

/// Probes a cache counted while `fn` ran, read from its own counters.
struct Probes {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
};

template <class Fn>
Probes probes_during(const ResultCache& cache, Fn&& fn) {
  const std::uint64_t hits = cache.hits();
  const std::uint64_t misses = cache.misses();
  fn();
  return {cache.hits() - hits, cache.misses() - misses};
}

/// Queries of `batch` with both endpoints kept in `snap`: the ones a
/// cache is probed for.
std::uint64_t valid_queries(const ModelSnapshot& snap,
                            const std::vector<PortQuery>& batch) {
  return static_cast<std::uint64_t>(
      std::count_if(batch.begin(), batch.end(), [&snap](const PortQuery& q) {
        return snap.reduced_id(q.p) >= 0 && snap.reduced_id(q.q) >= 0;
      }));
}

// ---------------------------------------------------------------------------
// (a) cached == uncached, bitwise, across interleavings and thread counts.
// ---------------------------------------------------------------------------

TEST(ResultCache, CachedMatchesUncachedBitwiseAcrossInterleavings) {
  const ServeCase c = make_case(20, 20, 48, 307);
  constexpr int kMods = 4;
  constexpr int kSteps = 14;

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReductionOptions opts;
    opts.num_blocks = 8;
    opts.parallel.num_threads = threads;
    obs::MetricsRegistry reg;
    ModelStore store(&reg);
    IncrementalReducer reducer(c.net, c.ports, opts);
    reducer.attach_store(&store);
    const auto cache =
        std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
    store.attach_cache(cache);
    ThreadPool pool(threads);
    ThreadPool* p = threads > 1 ? &pool : nullptr;

    const ModStream stream =
        make_mod_stream(c.net, reducer.structure(), kMods, 0.25, 1.3, 1100);
    const auto kept = kept_originals(reducer.model());

    // Randomized (seeded) interleaving of publishes and query batches.
    // Every batch pins one snapshot and is answered twice — through the
    // cache and without it — so a publish racing the pair can't confuse
    // the comparison. Batch seeds repeat (700 + step % 3), so later
    // batches revisit earlier keys and genuinely hit.
    Rng rng(static_cast<std::uint64_t>(threads) * 7919 + 5);
    int published = 0;
    for (int step = 0; step < kSteps; ++step) {
      if (published < kMods && rng.uniform() < 0.3) {
        const auto u = static_cast<std::size_t>(published++);
        reducer.update(stream.nets[u], stream.mods[u].dirty_blocks);
        continue;
      }
      const auto batch = mixed_batch(
          kept, 120, static_cast<std::uint64_t>(700 + step % 3));
      const SnapshotPtr snap = store.acquire();
      std::vector<real_t> cached;
      const Probes probes = probes_during(*cache, [&] {
        cached = QueryFrontEnd::answer_on(*snap, batch, {p, &reg, cache.get()});
      });
      const auto uncached = QueryFrontEnd::answer_on(*snap, batch, {p, &reg});
      ASSERT_EQ(cached.size(), uncached.size());
      for (std::size_t i = 0; i < cached.size(); ++i) {
        // Bitwise comparison that treats the NaN of an invalid query as
        // equal to itself.
        const bool both_nan =
            std::isnan(cached[i]) && std::isnan(uncached[i]);
        ASSERT_TRUE(cached[i] == uncached[i] || both_nan)
            << "step " << step << " query " << i;
      }
      // One cache probe per valid query.
      EXPECT_EQ(probes.hits + probes.misses, valid_queries(*snap, batch));
    }
    // The interleaving must have exercised the cache on both sides.
    EXPECT_GT(cache->hits(), 0u);
    EXPECT_GT(cache->misses(), 0u);
  }
}

// ---------------------------------------------------------------------------
// (b) concurrent readers + publisher, cache attached (TSan target).
// ---------------------------------------------------------------------------

TEST(ResultCache, ConcurrentReadersStayBitConsistentWithCacheAttached) {
  const ServeCase c = make_case(20, 20, 48, 311);
  ReductionOptions opts;
  opts.num_blocks = 8;
  opts.parallel.num_threads = 2;
  constexpr int kUpdates = 3;
  constexpr int kReaders = 4;
  constexpr int kBatchesPerReader = 12;

  // Per-version serial reference from a deterministic twin.
  std::vector<PortQuery> batch;
  std::map<std::uint64_t, std::vector<real_t>> reference;
  ModStream stream;
  {
    IncrementalReducer twin(c.net, c.ports, opts);
    batch = mixed_batch(kept_originals(twin.model()), 64, 19);
    reference[0] = QueryFrontEnd::answer_on(
        *ModelSnapshot::build(twin.shared_model()), batch);
    stream = make_mod_stream(c.net, twin.structure(), kUpdates, 0.25, 1.4,
                             1200);
    for (int u = 1; u <= kUpdates; ++u) {
      twin.update(stream.nets[static_cast<std::size_t>(u - 1)],
                  stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
      reference[static_cast<std::uint64_t>(u)] = QueryFrontEnd::answer_on(
          *ModelSnapshot::build(twin.shared_model()), batch);
    }
  }

  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const auto cache =
      std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerReader; ++i) {
        const Answers got = frontend.answer(batch);
        const auto& want = reference.at(got.snapshot_version);
        for (std::size_t j = 0; j < want.size(); ++j)
          if (got.values[j] != want[j]) {
            ++mismatches;
            break;
          }
      }
    });

  for (int u = 1; u <= kUpdates; ++u)
    reducer.update(stream.nets[static_cast<std::size_t>(u - 1)],
                   stream.mods[static_cast<std::size_t>(u - 1)].dirty_blocks);
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  // Readers repeat one batch, so the cache must have served hits.
  EXPECT_GT(cache->hits(), 0u);
}

// ---------------------------------------------------------------------------
// (c) version-scope turnover.
// ---------------------------------------------------------------------------

TEST(ResultCache, PublishTurnsOverTheVersionScope) {
  const ServeCase c = make_case(20, 20, 48, 313);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  // version_cap = 2: the newest two versions' scopes stay live, so the
  // third publish sweeps the first version's entries eagerly and the
  // invalidations counter accounts for exactly those.
  ResultCacheOptions copts;
  copts.version_cap = 2;
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  const auto batch = mixed_batch(kept_originals(reducer.model()), 80, 29);
  const auto answer = [&](const ModelSnapshot& snap) {
    return probes_during(*cache, [&] {
      (void)QueryFrontEnd::answer_on(snap, batch,
                                     {nullptr, &reg, cache.get()});
    });
  };

  // Warm version 0; a repeat hits every probe.
  const SnapshotPtr snap0 = store.acquire();
  const Probes cold = answer(*snap0);
  EXPECT_GT(cold.misses, 0u);
  const Probes warm = answer(*snap0);
  EXPECT_EQ(warm.misses, 0u);
  EXPECT_EQ(warm.hits, valid_queries(*snap0, batch));
  const std::size_t entries_v0 = cache->entries();
  ASSERT_GT(entries_v0, 0u);

  // A publish turns the scope over: the new version starts cold however
  // few blocks the update dirtied.
  GridModification mod;
  mod.dirty_blocks = {0};
  mod.resistance_scale = 1.5;
  reducer.update(apply_modification(c.net, reducer.structure(), mod),
                 mod.dirty_blocks);
  const SnapshotPtr snap1 = store.acquire();
  ASSERT_NE(snap0->version(), snap1->version());
  std::uint64_t fresh_version = 0;
  const Probes fresh = probes_during(
      *cache, [&] { fresh_version = frontend.answer(batch).snapshot_version; });
  EXPECT_EQ(fresh_version, snap1->version());
  EXPECT_EQ(fresh.hits, 0u);
  EXPECT_GT(fresh.misses, 0u);
  const std::size_t entries_v1 = cache->entries() - entries_v0;

  // The pinned version 0 still resolves within version_cap and keeps
  // hitting its own entries.
  const Probes pinned = answer(*snap0);
  EXPECT_EQ(pinned.misses, 0u);
  EXPECT_GT(pinned.hits, 0u);

  // A third version ages version 0 out: exactly its entries are swept and
  // the pinned snapshot bypasses the cache (zero probes).
  const std::uint64_t invalidated_before = cache->invalidations();
  store.publish(
      ModelSnapshot::build(reducer.shared_model(), snap1->version() + 1));
  EXPECT_EQ(cache->invalidations(), invalidated_before + entries_v0);
  EXPECT_EQ(cache->entries(), entries_v1);
  const Probes aged = answer(*snap0);
  EXPECT_EQ(aged.hits + aged.misses, 0u);
  // Version 1 is still within the cap.
  const Probes still = answer(*snap1);
  EXPECT_EQ(still.misses, 0u);
}

// ---------------------------------------------------------------------------
// (d) eviction under a tiny capacity + pinned-version resolution.
// ---------------------------------------------------------------------------

TEST(ResultCache, TinyCapacityEvictsWithoutEverAnsweringWrong) {
  const ServeCase c = make_case(18, 18, 40, 317);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  ResultCacheOptions copts;
  copts.shards = 1;
  copts.max_entries = 16;  // far below the batch working set
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);

  const auto kept = kept_originals(reducer.model());
  const SnapshotPtr snap = store.acquire();
  for (int round = 0; round < 4; ++round) {
    const auto batch = mixed_batch(
        kept, 200, static_cast<std::uint64_t>(1300 + round % 2));
    const auto cached =
        QueryFrontEnd::answer_on(*snap, batch, {nullptr, &reg, cache.get()});
    const auto plain = QueryFrontEnd::answer_on(*snap, batch, {nullptr, &reg});
    for (std::size_t i = 0; i < cached.size(); ++i) {
      const bool both_nan = std::isnan(cached[i]) && std::isnan(plain[i]);
      ASSERT_TRUE(cached[i] == plain[i] || both_nan)
          << "round " << round << " query " << i;
    }
  }
  EXPECT_GT(cache->evictions(), 0u);
  EXPECT_LE(cache->entries(), copts.max_entries);
}

TEST(ResultCache, PinnedVersionsResolveWithinCapAndDegradePastIt) {
  const ServeCase c = make_case(18, 18, 40, 331);
  ReductionOptions opts;
  opts.num_blocks = 6;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  ResultCacheOptions copts;
  copts.version_cap = 2;
  const auto cache = std::make_shared<ResultCache>(copts, &reg);
  store.attach_cache(cache);

  const auto kept = kept_originals(reducer.model());
  const auto batch = mixed_batch(kept, 100, 37);
  const ModStream stream =
      make_mod_stream(c.net, reducer.structure(), 2, 0.25, 1.3, 1400);

  // Pin version 0, warm it, then publish once: {v0, v1} both within the
  // cap, so the pinned snapshot keeps hitting its own scoped entries.
  const SnapshotPtr pinned = store.acquire();
  std::vector<real_t> answers;
  const auto answer_pinned = [&] {
    return probes_during(*cache, [&] {
      answers = QueryFrontEnd::answer_on(*pinned, batch,
                                         {nullptr, &reg, cache.get()});
    });
  };
  const Probes warm = answer_pinned();
  EXPECT_GT(warm.misses, 0u);
  reducer.update(stream.nets[0], stream.mods[0].dirty_blocks);
  const Probes still_cached = answer_pinned();
  const std::vector<real_t> hit_answers = answers;
  EXPECT_GT(still_cached.hits, 0u);
  EXPECT_EQ(still_cached.misses, 0u);

  // Second publish ages v0 past the cap: the pinned snapshot's version no
  // longer resolves, so the cache is bypassed — zero probes, answers
  // still bitwise identical to the warm run.
  reducer.update(stream.nets[1], stream.mods[1].dirty_blocks);
  const Probes past_cap = answer_pinned();
  const std::vector<real_t> plain_answers = answers;
  EXPECT_EQ(past_cap.hits, 0u);
  EXPECT_EQ(past_cap.misses, 0u);
  ASSERT_EQ(hit_answers.size(), plain_answers.size());
  for (std::size_t i = 0; i < hit_answers.size(); ++i) {
    const bool both_nan =
        std::isnan(hit_answers[i]) && std::isnan(plain_answers[i]);
    ASSERT_TRUE(hit_answers[i] == plain_answers[i] || both_nan)
        << "query " << i;
  }
}

// ---------------------------------------------------------------------------
// (e) hit-rate floor under a skewed stream and churning publishes.
// ---------------------------------------------------------------------------

TEST(ResultCache, ZipfStreamKeepsHitRateUnderChurn) {
  const ServeCase c = make_case(20, 20, 48, 337);
  ReductionOptions opts;
  opts.num_blocks = 10;
  obs::MetricsRegistry reg;
  ModelStore store(&reg);
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  const auto cache =
      std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
  store.attach_cache(cache);
  const QueryFrontEnd frontend(&store, &reg);

  // A fixed pool of resistance pairs, fewer than one version's draws
  // (kBatchesPerMod * kBatch), so a skewed stream revisits its keys.
  constexpr std::size_t kPoolPairs = 96;
  constexpr int kMods = 5;
  constexpr int kBatchesPerMod = 4;
  constexpr std::size_t kBatch = 100;
  const auto kept = kept_originals(reducer.model());
  std::vector<PortQuery> pool;
  Rng pool_rng(2031);
  for (std::size_t i = 0; i < kPoolPairs; ++i) {
    PortQuery query;
    query.kind = QueryKind::kResistance;
    query.p = kept[static_cast<std::size_t>(
        pool_rng.uniform_int(static_cast<index_t>(kept.size())))];
    query.q = kept[static_cast<std::size_t>(
        pool_rng.uniform_int(static_cast<index_t>(kept.size())))];
    pool.push_back(query);
  }
  // Zipf(1.1) over pool ranks: P(k) proportional to 1 / (k + 1)^1.1,
  // sampled by inverting the normalized CDF.
  std::vector<double> cdf(kPoolPairs);
  double total = 0.0;
  for (std::size_t k = 0; k < kPoolPairs; ++k)
    cdf[k] = total += std::pow(static_cast<double>(k + 1), -1.1);
  for (double& x : cdf) x /= total;
  const auto draw = [&cdf](Rng& rng) {
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), rng.uniform());
    return std::min(static_cast<std::size_t>(it - cdf.begin()),
                    cdf.size() - 1);
  };

  // Every publish dirties 10 % of the blocks (one of ten).
  ASSERT_EQ(reducer.structure().num_blocks, 10);
  const ModStream stream =
      make_mod_stream(c.net, reducer.structure(), kMods, 0.1, 1.2, 1500);
  Rng draw_rng(2033);
  std::uint64_t hits = 0, misses = 0;
  for (int u = 0; u < kMods; ++u) {
    const auto& mod = stream.mods[static_cast<std::size_t>(u)];
    EXPECT_EQ(mod.dirty_blocks.size(), 1u);
    reducer.update(stream.nets[static_cast<std::size_t>(u)],
                   mod.dirty_blocks);
    for (int b = 0; b < kBatchesPerMod; ++b) {
      std::vector<PortQuery> batch;
      for (std::size_t i = 0; i < kBatch; ++i)
        batch.push_back(pool[draw(draw_rng)]);
      const Probes probes =
          probes_during(*cache, [&] { (void)frontend.answer(batch); });
      hits += probes.hits;
      misses += probes.misses;
    }
  }
  EXPECT_EQ(store.publish_count(), static_cast<std::uint64_t>(kMods) + 1);
  ASSERT_GT(hits + misses, 0u);
  const double hit_rate =
      static_cast<double>(hits) / static_cast<double>(hits + misses);
  EXPECT_GE(hit_rate, 0.5) << hits << " hits, " << misses << " misses";
}

}  // namespace
}  // namespace er
