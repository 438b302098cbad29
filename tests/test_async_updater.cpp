// Async incremental re-reduction tests (DESIGN.md §4.1). Three contracts:
//
//   (a) streaming concurrent modification batches against concurrent query
//       batches keeps every pinned version internally bit-consistent (all
//       answers of a version identical however often it is queried),
//   (b) every publish is a full snapshot build, bitwise identical to a
//       fresh ModelSnapshot::build of the same model at 1/2/4/8 reduction
//       threads, and a publish that throws leaves the store on the
//       previous version,
//   (c) coalesced batches converge to the same final model as applying the
//       same modifications sequentially.
//
// The concurrent tests run under TSan in CI (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "serve/async_updater.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/snapshot.hpp"
#include "serve_test_util.hpp"

namespace er {
namespace {

// bind_reducer / make_mod_stream come from serve_test_util.hpp (shared
// with test_serving.cpp and test_result_cache.cpp).

// ---------------------------------------------------------------------------
// (b) every publish is a full build; a failed publish keeps the old version.
// ---------------------------------------------------------------------------

TEST(IncrementalPublish, MatchesFreshBuildOfTwinAtAnyThreadCount) {
  // The store-attached reducer publishes after every update; a fresh
  // ModelSnapshot::build of a serial store-less twin's model must answer
  // bitwise identically, whatever thread count the reducer ran at.
  const ServeCase c = make_case(20, 20, 48, 223);
  ReductionOptions opts;
  opts.num_blocks = 8;
  IncrementalReducer twin(c.net, c.ports, opts);
  const auto batch = mixed_batch(kept_originals(twin.model()), 200, 31);
  const ModStream stream =
      make_mod_stream(c.net, twin.structure(), 3, 0.2, 1.4, 500);
  std::vector<std::vector<real_t>> want;
  for (std::size_t u = 0; u < stream.nets.size(); ++u) {
    twin.update(stream.nets[u], stream.mods[u].dirty_blocks);
    want.push_back(QueryFrontEnd::answer_on(
        *ModelSnapshot::build(twin.shared_model(), twin.revision()), batch));
  }

  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ReductionOptions topts = opts;
    topts.parallel.num_threads = threads;
    ModelStore store;
    IncrementalReducer incr(c.net, c.ports, topts);
    incr.attach_store(&store);
    for (std::size_t u = 0; u < stream.nets.size(); ++u) {
      incr.update(stream.nets[u], stream.mods[u].dirty_blocks);
      const SnapshotPtr published = store.acquire();
      EXPECT_EQ(published->version(), u + 1);
      EXPECT_EQ(incr.publish_bytes_materialized(), published->factor_bytes());
      const auto got = QueryFrontEnd::answer_on(*published, batch);
      ASSERT_EQ(want[u].size(), got.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(want[u][i], got[i]) << "update " << u << " query " << i;
    }
  }
}

TEST(IncrementalPublish, FailedPublishKeepsThePreviousVersion) {
  // The fixture grid plus one isolated port: a connected component of its
  // own, grounded only by its pad shunt.
  ServeCase c = make_case(16, 16, 24, 239);
  const index_t pad = c.net.graph.num_nodes();
  Graph g(pad + 1);
  for (const Edge& e : c.net.graph.edges()) g.add_edge(e.u, e.v, e.weight);
  c.net.graph = std::move(g);
  c.net.shunts.push_back(50.0);
  c.ports.push_back(1);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  // A store-less twin fed only the updates that were accepted.
  IncrementalReducer twin(c.net, c.ports, opts);
  const BlockStructure structure = reducer.structure();
  const index_t nb = structure.num_blocks;
  const auto batch = mixed_batch(kept_originals(reducer.model()), 150, 61);
  const auto expect_published_is_fresh_build = [&] {
    const auto want = QueryFrontEnd::answer_on(
        *ModelSnapshot::build(reducer.shared_model()), batch);
    const auto got = QueryFrontEnd::answer_on(*store.acquire(), batch);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      ASSERT_EQ(want[i], got[i]) << "query " << i;
  };

  // Removing the pad shunt leaves that component floating, so G has an
  // exactly-zero column: the update re-reduces and re-stitches, then its
  // publish throws, and the store keeps serving version 0.
  const index_t pad_block = structure.block_of[static_cast<std::size_t>(pad)];
  ConductanceNetwork broken = c.net;
  broken.shunts[static_cast<std::size_t>(pad)] = 0.0;
  EXPECT_THROW(reducer.update(broken, {pad_block}), std::runtime_error);
  EXPECT_EQ(reducer.revision(), 1u);
  EXPECT_EQ(store.publish_count(), 1u);
  EXPECT_EQ(store.current_version(), std::optional<std::uint64_t>{0});

  // The next valid update (re-reducing the pad's block) publishes a
  // snapshot bitwise equal to a fresh build of the reducer's model.
  GridModification mod = random_modification(nb, 0.5, 1.3, 251);
  mod.dirty_blocks.push_back(pad_block);
  const ConductanceNetwork modified =
      apply_modification(c.net, structure, mod);
  reducer.update(modified, mod.dirty_blocks);
  twin.update(modified, mod.dirty_blocks);
  EXPECT_EQ(store.current_version(), std::optional<std::uint64_t>{2});
  expect_published_is_fresh_build();

  // A rejected update leaves nothing behind: the updates after it build
  // the same models as the twin that never saw the failures.
  EXPECT_THROW(reducer.update(modified, {nb + 1}), std::out_of_range);
  EXPECT_EQ(store.current_version(), std::optional<std::uint64_t>{2});
  const GridModification mod2 = random_modification(nb, 0.25, 1.1, 257);
  const ConductanceNetwork modified2 =
      apply_modification(modified, structure, mod2);
  reducer.update(modified2, mod2.dirty_blocks);
  twin.update(modified2, mod2.dirty_blocks);
  EXPECT_TRUE(models_identical(reducer.model(), twin.model()));
  expect_published_is_fresh_build();

  const GridModification mod3 = random_modification(nb, 0.25, 1.2, 263);
  const ConductanceNetwork modified3 =
      apply_modification(modified2, structure, mod3);
  reducer.update(modified3, mod3.dirty_blocks);
  twin.update(modified3, mod3.dirty_blocks);
  EXPECT_TRUE(models_identical(reducer.model(), twin.model()));
  expect_published_is_fresh_build();
}

// ---------------------------------------------------------------------------
// (c) coalesced batches converge to the sequential result.
// ---------------------------------------------------------------------------

TEST(AsyncUpdater, CoalescedBatchesConvergeToSequentialModel) {
  const ServeCase c = make_case(18, 18, 40, 227);
  ReductionOptions opts;
  opts.num_blocks = 6;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  IncrementalReducer twin(c.net, c.ports, opts);

  AsyncUpdater updater(bind_reducer(reducer));
  updater.pause();  // force every submission into one coalesced batch

  constexpr int kMods = 4;
  const ModStream stream =
      make_mod_stream(c.net, twin.structure(), kMods, 0.3, 1.2, 700);
  for (int u = 0; u < kMods; ++u) {
    const auto& net = stream.nets[static_cast<std::size_t>(u)];
    const auto& dirty = stream.mods[static_cast<std::size_t>(u)].dirty_blocks;
    updater.submit(net, dirty);
    twin.update(net, dirty);  // sequential reference
  }
  {
    const AsyncUpdater::Stats s = updater.stats();
    EXPECT_EQ(s.submitted, static_cast<std::uint64_t>(kMods));
    EXPECT_EQ(s.pending, static_cast<std::uint64_t>(kMods));
    EXPECT_EQ(s.coalesced, static_cast<std::uint64_t>(kMods - 1));
    EXPECT_EQ(s.batches, 0u);
  }
  updater.flush();
  const AsyncUpdater::Stats s = updater.stats();
  EXPECT_EQ(s.batches, 1u);  // one coalesced update applied everything
  EXPECT_EQ(s.applied, static_cast<std::uint64_t>(kMods));
  EXPECT_EQ(s.pending, 0u);
  EXPECT_GT(s.last_publish_latency_seconds, 0.0);
  EXPECT_EQ(store.publish_count(), 2u);  // attach + one coalesced publish

  // The coalesced model equals the sequential one bit-for-bit — per block
  // and as a whole —
  // and the published snapshot answers match a full build of the twin's.
  ASSERT_EQ(reducer.blocks().size(), twin.blocks().size());
  for (std::size_t b = 0; b < twin.blocks().size(); ++b)
    EXPECT_TRUE(blocks_identical(reducer.blocks()[b], twin.blocks()[b]))
        << "block " << b;
  EXPECT_TRUE(models_identical(reducer.model(), twin.model()));
  const auto batch = mixed_batch(kept_originals(twin.model()), 200, 41);
  const SnapshotPtr published = store.acquire();
  EXPECT_EQ(updater.mods_reflected(published->version()),
            static_cast<std::uint64_t>(kMods));
  const auto want = QueryFrontEnd::answer_on(
      *ModelSnapshot::build(twin.shared_model()), batch);
  const auto got = QueryFrontEnd::answer_on(*published, batch);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(want[i], got[i]) << "query " << i;
}

TEST(AsyncUpdater, FlushDrainAndErrorContracts) {
  const ServeCase c = make_case(12, 12, 16, 229);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);

  {
    // flush() with nothing submitted returns immediately; drain() makes
    // further submissions throw.
    AsyncUpdater updater(bind_reducer(reducer));
    updater.flush();
    EXPECT_EQ(updater.stats().batches, 0u);
    // flush on an idle updater still implies resume: a subsequent submit
    // is applied without an explicit resume().
    updater.pause();
    updater.flush();
    updater.submit(c.net, {0});
    updater.flush();
    EXPECT_EQ(updater.stats().batches, 1u);
    updater.drain();
    EXPECT_THROW(updater.submit(c.net, {0}), std::logic_error);
  }
  {
    // A worker exception (bad block id) latches: flush rethrows, and so
    // does every later submit/flush; the lost batch lands in Stats::failed
    // so submitted = applied + failed + pending stays exact.
    AsyncUpdater updater(bind_reducer(reducer));
    updater.submit(c.net, {reducer.structure().num_blocks + 7});
    EXPECT_THROW(updater.flush(), std::out_of_range);
    EXPECT_THROW(updater.submit(c.net, {0}), std::out_of_range);
    EXPECT_THROW(updater.flush(), std::out_of_range);
    const AsyncUpdater::Stats s = updater.stats();
    EXPECT_EQ(s.submitted, 1u);
    EXPECT_EQ(s.failed, 1u);
    EXPECT_EQ(s.applied, 0u);
    EXPECT_EQ(s.pending, 0u);
  }
}

TEST(AsyncUpdater, FlushOverridesConcurrentPause) {
  // flush() must terminate even when pause() races it: the flush predicate
  // re-clears the pause on every wake, so a concurrently-paused updater
  // can't strand the pending batch and hang the flush (or the destructor).
  const ServeCase c = make_case(14, 14, 20, 241);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  AsyncUpdater updater(bind_reducer(reducer));

  const ModStream stream =
      make_mod_stream(c.net, reducer.structure(), 3, 0.5, 1.1, 800);
  for (std::size_t u = 0; u < stream.nets.size(); ++u)
    updater.submit(stream.nets[u], stream.mods[u].dirty_blocks);
  std::thread flusher([&] { updater.flush(); });
  // Hammer pause() while the flush waits; the flush must still finish.
  for (int i = 0; i < 50; ++i) {
    updater.pause();
    std::this_thread::yield();
  }
  flusher.join();
  const AsyncUpdater::Stats s = updater.stats();
  EXPECT_EQ(s.applied, 3u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_FALSE(s.update_in_flight);
}

// ---------------------------------------------------------------------------
// Bounded staleness back-pressure (Options::max_staleness_mods).
// ---------------------------------------------------------------------------

TEST(AsyncUpdater, MaxStalenessBlocksSubmitUntilWorkerCatchesUp) {
  const ServeCase c = make_case(12, 12, 16, 263);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  AsyncUpdater::Options uo;
  uo.max_staleness_mods = 2;
  AsyncUpdater updater(bind_reducer(reducer), uo);

  // Fill the staleness budget while the worker is gated.
  updater.pause();
  EXPECT_TRUE(updater.submit(c.net, {0}));
  EXPECT_TRUE(updater.submit(c.net, {1}));

  // The third submit must block: accepting it would put the edit stream 3
  // modifications ahead of the store.
  std::atomic<bool> accepted{false};
  std::thread blocked([&] {
    EXPECT_TRUE(updater.submit(c.net, {2}));
    accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(accepted.load());
  {
    const AsyncUpdater::Stats s = updater.stats();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.blocked_submits, 1u);
    EXPECT_EQ(s.max_observed_staleness_mods, 2u);
  }

  // Resuming lets the worker drain the coalesced batch; the blocked submit
  // unblocks as soon as the store has caught up.
  updater.resume();
  blocked.join();
  EXPECT_TRUE(accepted.load());
  updater.flush();
  const AsyncUpdater::Stats s = updater.stats();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.applied, 3u);
  EXPECT_EQ(s.pending, 0u);
  EXPECT_EQ(s.blocked_submits, 1u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_GT(s.total_blocked_seconds, 0.0);
  EXPECT_LE(s.max_observed_staleness_mods, uo.max_staleness_mods);
}

TEST(AsyncUpdater, MaxStalenessFailFastRejectsAtTheBound) {
  const ServeCase c = make_case(12, 12, 16, 267);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  AsyncUpdater::Options uo;
  uo.max_staleness_mods = 2;
  uo.fail_fast = true;
  AsyncUpdater updater(bind_reducer(reducer), uo);

  updater.pause();
  EXPECT_TRUE(updater.submit(c.net, {0}));
  EXPECT_TRUE(updater.submit(c.net, {1}));
  // At the bound: the edit is turned away, never accepted.
  EXPECT_FALSE(updater.submit(c.net, {2}));
  EXPECT_FALSE(updater.submit(c.net, {3}));
  {
    const AsyncUpdater::Stats s = updater.stats();
    EXPECT_EQ(s.submitted, 2u);
    EXPECT_EQ(s.pending, 2u);
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.blocked_submits, 0u);
  }

  updater.flush();  // implies resume; applies the two accepted mods
  {
    const AsyncUpdater::Stats s = updater.stats();
    EXPECT_EQ(s.applied, 2u);
    EXPECT_EQ(s.rejected, 2u);
  }
  // Budget freed: the next submit is accepted again.
  EXPECT_TRUE(updater.submit(c.net, {2}));
  updater.flush();
  EXPECT_EQ(updater.stats().applied, 3u);
}

// ---------------------------------------------------------------------------
// mods_reflected across the version-log prune boundary, and flush() after
// a latched worker error.
// ---------------------------------------------------------------------------

TEST(AsyncUpdater, ModsReflectedSurvivesVersionLogPrune) {
  // Trivial model source: versions advance by 2 per batch (gaps exercise
  // the partition_point floor semantics). version_log_cap = 8 makes the
  // prune reachable in 20 batches; flush() per submit pins one batch per
  // modification (no coalescing).
  AsyncUpdater::Options uo;
  uo.version_log_cap = 8;
  std::uint64_t version = 0;
  AsyncUpdater updater(
      [&version](const ConductanceNetwork&,
                 const std::vector<index_t>&) { return version += 2; },
      uo);
  const ConductanceNetwork empty_net;
  constexpr std::uint64_t kBatches = 20;
  for (std::uint64_t i = 1; i <= kBatches; ++i) {
    updater.submit(empty_net, {});
    updater.flush();
  }
  ASSERT_EQ(updater.stats().batches, kBatches);

  // Prune trace with cap 8 (fold the older half each time the log reaches
  // 9 entries): prunes after batches 9, 13 and 17 leave the retained log
  // at versions 26..40 (cumulative mods 13..20) and the prune marker at
  // (version 24, 12 mods) — the newest dropped entry.
  EXPECT_EQ(updater.mods_reflected(40), kBatches);       // newest
  EXPECT_EQ(updater.mods_reflected(41), kBatches);       // beyond newest
  EXPECT_EQ(updater.mods_reflected(26), 13u);            // oldest retained
  EXPECT_EQ(updater.mods_reflected(27), 13u);            // gap floors down
  EXPECT_EQ(updater.mods_reflected(24), 12u);            // exact boundary
  EXPECT_EQ(updater.mods_reflected(25), 12u);            // marker half
  // Older than the marker: conservative lower bound 0, never an
  // over-statement.
  EXPECT_EQ(updater.mods_reflected(23), 0u);
  EXPECT_EQ(updater.mods_reflected(2), 0u);
  EXPECT_EQ(updater.mods_reflected(0), 0u);
  // Monotone in the version, across the whole pruned + retained range.
  std::uint64_t prev = 0;
  for (std::uint64_t v = 0; v <= 44; ++v) {
    const std::uint64_t r = updater.mods_reflected(v);
    EXPECT_GE(r, prev) << "version " << v;
    prev = r;
  }
}

TEST(AsyncUpdater, FlushAfterLatchedErrorKeepsRethrowing) {
  AsyncUpdater updater([](const ConductanceNetwork&,
                          const std::vector<index_t>&) -> std::uint64_t {
    throw std::runtime_error("worker boom");
  });
  const ConductanceNetwork empty_net;
  updater.submit(empty_net, {});
  // The error latches: every flush observes it, not just the first, and
  // drain() surfaces it too (while still retiring the worker).
  EXPECT_THROW(updater.flush(), std::runtime_error);
  EXPECT_THROW(updater.flush(), std::runtime_error);
  EXPECT_THROW(updater.drain(), std::runtime_error);
  const AsyncUpdater::Stats s = updater.stats();
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.applied, 0u);
  EXPECT_EQ(s.pending, 0u);
  // The destructor swallows the latched error (no terminate).
}

// ---------------------------------------------------------------------------
// (a) concurrent modification stream vs. concurrent query stream (TSan).
// ---------------------------------------------------------------------------

TEST(AsyncUpdater, ConcurrentStreamsKeepPinnedVersionsBitConsistent) {
  const ServeCase c = make_case(20, 20, 48, 233);
  ReductionOptions opts;
  opts.num_blocks = 8;
  opts.parallel.num_threads = 2;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  // One registry for the readers' front-end and the updater, so the
  // registry series can be checked against the legacy counts after churn.
  obs::MetricsRegistry reg;
  const QueryFrontEnd frontend(&store, &reg);
  const auto batch = mixed_batch(kept_originals(reducer.model()), 48, 53);

  // Pre-compute the modification stream (reducer.structure() must not be
  // read while the worker updates).
  constexpr int kMods = 5;
  const ModStream stream =
      make_mod_stream(c.net, reducer.structure(), kMods, 0.25, 1.25, 900);
  const auto& nets = stream.nets;
  const auto& mods = stream.mods;

  AsyncUpdater::Options uo;
  uo.registry = &reg;
  AsyncUpdater updater(bind_reducer(reducer), uo);
  std::atomic<int> mismatches{0};
  std::atomic<std::uint64_t> submitted_at_pin_violations{0};
  std::mutex ref_mutex;
  std::map<std::uint64_t, std::vector<real_t>> first_seen;

  constexpr int kReaders = 3;
  constexpr int kBatchesPerReader = 10;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r)
    readers.emplace_back([&] {
      for (int i = 0; i < kBatchesPerReader; ++i) {
        const std::uint64_t submitted_before = updater.stats().submitted;
        BatchStats stats;
        const auto got =
            frontend.answer(batch, nullptr, &stats);
        // Internal bit-consistency: every batch answered at version v must
        // equal the first batch answered at v.
        {
          std::lock_guard<std::mutex> lock(ref_mutex);
          auto [it, inserted] =
              first_seen.emplace(stats.snapshot_version, got);
          if (!inserted && it->second != got) ++mismatches;
        }
        // Staleness sanity: a pinned version never reflects more
        // modifications than were submitted before the pin... but the
        // worker may publish *between* the stats() read and the acquire,
        // so compare against the post-answer submitted count instead.
        const std::uint64_t reflected =
            updater.mods_reflected(stats.snapshot_version);
        const std::uint64_t submitted_after = updater.stats().submitted;
        if (reflected > submitted_after || submitted_before > submitted_after)
          ++submitted_at_pin_violations;
      }
    });

  for (int u = 0; u < kMods; ++u)
    updater.submit(nets[static_cast<std::size_t>(u)],
                   mods[static_cast<std::size_t>(u)].dirty_blocks);
  updater.flush();
  for (auto& t : readers) t.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(submitted_at_pin_violations.load(), 0u);
  const AsyncUpdater::Stats s = updater.stats();
  EXPECT_EQ(s.applied, static_cast<std::uint64_t>(kMods));
  EXPECT_GE(s.batches, 1u);
  EXPECT_LE(s.batches, static_cast<std::uint64_t>(kMods));
  EXPECT_EQ(s.batches + s.coalesced, s.applied);

  // The registry agrees with the legacy counts under real churn: one
  // latency sample per answered query and one publish-latency sample per
  // applied batch; staleness is 0 after flush() and its high-water gauge
  // is the Stats maximum.
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricSnapshot* query_lat =
      snap.find("er_query_latency_seconds", {{"mode", "sharded"}});
  ASSERT_NE(query_lat, nullptr);
  EXPECT_EQ(query_lat->histogram.count,
            static_cast<std::uint64_t>(kReaders * kBatchesPerReader) *
                batch.size());
  const obs::MetricSnapshot* publish_lat =
      snap.find("er_updater_publish_latency_seconds");
  ASSERT_NE(publish_lat, nullptr);
  EXPECT_EQ(publish_lat->histogram.count, s.batches);
  const obs::MetricSnapshot* stale = snap.find("er_updater_staleness_mods");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->gauge, 0);
  const obs::MetricSnapshot* high_water =
      snap.find("er_updater_staleness_mods_high_water");
  ASSERT_NE(high_water, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(high_water->gauge),
            s.max_observed_staleness_mods);

  // After the stream settles, the final model equals a sequential replay,
  // and the published snapshot is bitwise a fresh build of it.
  IncrementalReducer twin(c.net, c.ports, opts);
  for (int u = 0; u < kMods; ++u)
    twin.update(nets[static_cast<std::size_t>(u)],
                mods[static_cast<std::size_t>(u)].dirty_blocks);
  EXPECT_TRUE(models_identical(reducer.model(), twin.model()));
  const SnapshotPtr published = store.acquire();
  const auto want = QueryFrontEnd::answer_on(
      *ModelSnapshot::build(twin.shared_model()), batch);
  const auto got = QueryFrontEnd::answer_on(*published, batch);
  for (std::size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(want[i], got[i]) << "query " << i;
}

// Stats is a thin view over the updater's registry (er_updater_* —
// DESIGN.md §6): both must report the same stream. Also pins the
// registry-scoping contract — per-instance private registries by default,
// an explicit shared registry on request.
TEST(AsyncUpdater, RegistryIsTheStatsSourceOfTruth) {
  const ServeCase c = make_case(16, 16, 24, 331);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);

  {
    AsyncUpdater updater(bind_reducer(reducer));
    updater.pause();  // coalesce all three mods into one batch
    const ModStream stream =
        make_mod_stream(c.net, reducer.structure(), 3, 0.3, 1.2, 900);
    for (std::size_t u = 0; u < stream.nets.size(); ++u)
      updater.submit(stream.nets[u], stream.mods[u].dirty_blocks);
    updater.flush();

    const AsyncUpdater::Stats s = updater.stats();
    const obs::MetricsSnapshot snap = updater.metrics().snapshot();
    const auto counter = [&snap](const char* name) {
      const obs::MetricSnapshot* m = snap.find(name);
      return m ? m->counter : ~std::uint64_t{0};
    };
    EXPECT_EQ(counter("er_updater_mods_submitted_total"), s.submitted);
    EXPECT_EQ(counter("er_updater_mods_applied_total"), s.applied);
    EXPECT_EQ(counter("er_updater_batches_total"), s.batches);
    EXPECT_EQ(counter("er_updater_mods_coalesced_total"), s.coalesced);
    EXPECT_EQ(counter("er_updater_mods_failed_total"), s.failed);
    EXPECT_EQ(counter("er_updater_blocked_submits_total"),
              s.blocked_submits);
    EXPECT_EQ(counter("er_updater_mods_rejected_total"), s.rejected);

    const obs::MetricSnapshot* lat =
        snap.find("er_updater_publish_latency_seconds");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->histogram.count, s.batches);
    EXPECT_DOUBLE_EQ(lat->histogram.sum, s.total_publish_latency_seconds);
    EXPECT_DOUBLE_EQ(lat->histogram.max, s.max_publish_latency_seconds);

    EXPECT_EQ(snap.find("er_updater_staleness_mods")->gauge, 0);  // flushed
    EXPECT_EQ(static_cast<std::uint64_t>(
                  snap.find("er_updater_staleness_mods_high_water")->gauge),
              s.max_observed_staleness_mods);

    // Default scoping: a second updater gets its *own* registry with a
    // clean slate — concurrent pipelines never merge by accident.
    AsyncUpdater other(bind_reducer(reducer));
    EXPECT_NE(&updater.metrics(), &other.metrics());
    EXPECT_EQ(other.metrics()
                  .snapshot()
                  .find("er_updater_mods_submitted_total")
                  ->counter,
              0u);
  }

  // Opt-in aggregation: an explicit registry receives the series instead
  // of a private one.
  obs::MetricsRegistry shared;
  {
    AsyncUpdater::Options o;
    o.registry = &shared;
    AsyncUpdater updater(bind_reducer(reducer), o);
    EXPECT_EQ(&updater.metrics(), &shared);
    updater.submit(c.net, {0});
    updater.flush();
  }
  EXPECT_EQ(
      shared.snapshot().find("er_updater_mods_submitted_total")->counter,
      1u);
  EXPECT_EQ(shared.snapshot().find("er_updater_batches_total")->counter, 1u);
}

}  // namespace
}  // namespace er
