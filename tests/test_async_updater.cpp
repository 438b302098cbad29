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

#include <algorithm>
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

/// Updater options that record into `reg`, a registry the test owns.
AsyncUpdater::Options recording_into(obs::MetricsRegistry& reg) {
  AsyncUpdater::Options o;
  o.registry = &reg;
  return o;
}

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

  obs::MetricsRegistry reg;
  AsyncUpdater updater(bind_reducer(reducer), recording_into(reg));
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
  EXPECT_EQ(series_value(reg, "er_updater_mods_submitted_total"), kMods);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), kMods);
  EXPECT_EQ(series_value(reg, "er_updater_mods_coalesced_total"), kMods - 1);
  EXPECT_EQ(series_value(reg, "er_updater_batches_total"), 0);
  updater.flush();
  // One coalesced update applied everything.
  EXPECT_EQ(series_value(reg, "er_updater_batches_total"), 1);
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), kMods);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), 0);
  EXPECT_EQ(histogram_count(reg, "er_updater_publish_latency_seconds"), 1u);
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
    obs::MetricsRegistry reg;
    AsyncUpdater updater(bind_reducer(reducer), recording_into(reg));
    updater.flush();
    EXPECT_EQ(series_value(reg, "er_updater_batches_total"), 0);
    // flush on an idle updater still implies resume: a subsequent submit
    // is applied without an explicit resume().
    updater.pause();
    updater.flush();
    updater.submit(c.net, {0});
    updater.flush();
    EXPECT_EQ(series_value(reg, "er_updater_batches_total"), 1);
    updater.drain();
    EXPECT_THROW(updater.submit(c.net, {0}), std::logic_error);
  }
  {
    // A worker exception (bad block id) latches: flush rethrows, and so
    // does every later submit/flush; the lost batch counts as failed, so
    // submitted = applied + failed + unpublished stays exact.
    obs::MetricsRegistry reg;
    AsyncUpdater updater(bind_reducer(reducer), recording_into(reg));
    updater.submit(c.net, {reducer.structure().num_blocks + 7});
    EXPECT_THROW(updater.flush(), std::out_of_range);
    EXPECT_THROW(updater.submit(c.net, {0}), std::out_of_range);
    EXPECT_THROW(updater.flush(), std::out_of_range);
    EXPECT_EQ(series_value(reg, "er_updater_mods_submitted_total"), 1);
    EXPECT_EQ(series_value(reg, "er_updater_mods_failed_total"), 1);
    EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), 0);
    EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), 0);
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
  obs::MetricsRegistry reg;
  AsyncUpdater updater(bind_reducer(reducer), recording_into(reg));

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
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), 3);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), 0);
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
  obs::MetricsRegistry reg;
  AsyncUpdater::Options uo;
  uo.max_staleness_mods = 2;
  uo.registry = &reg;
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
  EXPECT_EQ(series_value(reg, "er_updater_mods_submitted_total"), 2);
  EXPECT_EQ(series_value(reg, "er_updater_blocked_submits_total"), 1);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods_high_water"), 2);

  // Resuming lets the worker drain the coalesced batch; the blocked submit
  // unblocks as soon as the store has caught up.
  updater.resume();
  blocked.join();
  EXPECT_TRUE(accepted.load());
  updater.flush();
  EXPECT_EQ(series_value(reg, "er_updater_mods_submitted_total"), 3);
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), 3);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), 0);
  EXPECT_EQ(series_value(reg, "er_updater_blocked_submits_total"), 1);
  EXPECT_EQ(series_value(reg, "er_updater_mods_rejected_total"), 0);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricSnapshot* wait =
      snap.find("er_updater_blocked_wait_seconds");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->histogram.count, 1u);
  EXPECT_GT(wait->histogram.sum, 0.0);
  EXPECT_LE(series_value(reg, "er_updater_staleness_mods_high_water"),
            static_cast<std::int64_t>(uo.max_staleness_mods));
}

TEST(AsyncUpdater, MaxStalenessFailFastRejectsAtTheBound) {
  const ServeCase c = make_case(12, 12, 16, 267);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);
  obs::MetricsRegistry reg;
  AsyncUpdater::Options uo;
  uo.max_staleness_mods = 2;
  uo.fail_fast = true;
  uo.registry = &reg;
  AsyncUpdater updater(bind_reducer(reducer), uo);

  updater.pause();
  EXPECT_TRUE(updater.submit(c.net, {0}));
  EXPECT_TRUE(updater.submit(c.net, {1}));
  // At the bound: the edit is turned away, never accepted.
  EXPECT_FALSE(updater.submit(c.net, {2}));
  EXPECT_FALSE(updater.submit(c.net, {3}));
  EXPECT_EQ(series_value(reg, "er_updater_mods_submitted_total"), 2);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), 2);
  EXPECT_EQ(series_value(reg, "er_updater_mods_rejected_total"), 2);
  EXPECT_EQ(series_value(reg, "er_updater_blocked_submits_total"), 0);

  updater.flush();  // implies resume; applies the two accepted mods
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), 2);
  EXPECT_EQ(series_value(reg, "er_updater_mods_rejected_total"), 2);
  // Budget freed: the next submit is accepted again.
  EXPECT_TRUE(updater.submit(c.net, {2}));
  updater.flush();
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), 3);
}

// ---------------------------------------------------------------------------
// mods_reflected across the version-log prune boundary, and flush() after
// a latched worker error.
// ---------------------------------------------------------------------------

TEST(AsyncUpdater, ModsReflectedSurvivesVersionLogPrune) {
  // Trivial model source: versions advance by 2 per batch (gaps exercise
  // the partition_point floor semantics). flush() per submit pins one
  // batch per modification (no coalescing), and the stream runs past
  // kVersionLogCap batches so the log prunes exactly once.
  constexpr std::uint64_t kCap = AsyncUpdater::kVersionLogCap;
  // The prune at batch kCap + 1 folds the older half of the log: batches
  // 1..kHalf go, and the marker keeps the newest of them.
  constexpr std::uint64_t kHalf = (kCap + 1) / 2;
  // One prune, not two: the next one comes at batch kCap + 1 + kHalf.
  constexpr std::uint64_t kBatches = kCap + kHalf / 2;
  obs::MetricsRegistry reg;
  std::uint64_t version = 0;
  AsyncUpdater updater(
      [&version](const ConductanceNetwork&,
                 const std::vector<index_t>&) { return version += 2; },
      recording_into(reg));
  const ConductanceNetwork empty_net;
  for (std::uint64_t i = 1; i <= kBatches; ++i) {
    updater.submit(empty_net, {});
    updater.flush();
  }
  ASSERT_EQ(series_value(reg, "er_updater_batches_total"),
            static_cast<std::int64_t>(kBatches));

  // The retained log holds batches kHalf + 1..kBatches (version 2b,
  // b cumulative mods); the prune marker is batch kHalf.
  EXPECT_EQ(updater.mods_reflected(2 * kBatches), kBatches);      // newest
  EXPECT_EQ(updater.mods_reflected(2 * kBatches + 1), kBatches);  // beyond
  EXPECT_EQ(updater.mods_reflected(2 * kHalf + 2), kHalf + 1);  // oldest kept
  EXPECT_EQ(updater.mods_reflected(2 * kHalf + 3), kHalf + 1);  // gap floors
  EXPECT_EQ(updater.mods_reflected(2 * kHalf), kHalf);      // exact marker
  EXPECT_EQ(updater.mods_reflected(2 * kHalf + 1), kHalf);  // marker half
  // Older than the marker: conservative lower bound 0, never an
  // over-statement.
  EXPECT_EQ(updater.mods_reflected(2 * kHalf - 1), 0u);
  EXPECT_EQ(updater.mods_reflected(2), 0u);
  EXPECT_EQ(updater.mods_reflected(0), 0u);
  // Monotone in the version, across the whole pruned + retained range.
  std::uint64_t prev = 0;
  for (std::uint64_t v = 0; v <= 2 * kBatches + 4; ++v) {
    const std::uint64_t r = updater.mods_reflected(v);
    EXPECT_GE(r, prev) << "version " << v;
    prev = r;
  }
}

TEST(AsyncUpdater, FlushAfterLatchedErrorKeepsRethrowing) {
  obs::MetricsRegistry reg;
  AsyncUpdater updater(
      [](const ConductanceNetwork&,
         const std::vector<index_t>&) -> std::uint64_t {
        throw std::runtime_error("worker boom");
      },
      recording_into(reg));
  const ConductanceNetwork empty_net;
  updater.submit(empty_net, {});
  // The error latches: every flush observes it, not just the first, and
  // drain() surfaces it too (while still retiring the worker).
  EXPECT_THROW(updater.flush(), std::runtime_error);
  EXPECT_THROW(updater.flush(), std::runtime_error);
  EXPECT_THROW(updater.drain(), std::runtime_error);
  EXPECT_EQ(series_value(reg, "er_updater_mods_submitted_total"), 1);
  EXPECT_EQ(series_value(reg, "er_updater_mods_failed_total"), 1);
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), 0);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), 0);
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
  // One registry for the readers' front-end and the updater, read back
  // by the test after churn.
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

  AsyncUpdater updater(bind_reducer(reducer), recording_into(reg));
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
        const std::int64_t submitted_before =
            series_value(reg, "er_updater_mods_submitted_total");
        const Answers got = frontend.answer(batch);
        // Internal bit-consistency: every batch answered at version v must
        // equal the first batch answered at v.
        {
          std::lock_guard<std::mutex> lock(ref_mutex);
          auto [it, inserted] =
              first_seen.emplace(got.snapshot_version, got.values);
          if (!inserted && it->second != got.values) ++mismatches;
        }
        // Staleness sanity: a pinned version never reflects more
        // modifications than were submitted before the pin... but the
        // worker may publish *between* the counter read and the acquire,
        // so compare against the post-answer submitted count instead.
        const auto reflected = static_cast<std::int64_t>(
            updater.mods_reflected(got.snapshot_version));
        const std::int64_t submitted_after =
            series_value(reg, "er_updater_mods_submitted_total");
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
  const std::int64_t batches = series_value(reg, "er_updater_batches_total");
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), kMods);
  EXPECT_GE(batches, 1);
  EXPECT_LE(batches, kMods);
  EXPECT_EQ(batches + series_value(reg, "er_updater_mods_coalesced_total"),
            kMods);
  EXPECT_EQ(updater.mods_reflected(store.acquire()->version()),
            static_cast<std::uint64_t>(kMods));

  // Under real churn: one latency sample per answered query and one
  // publish-latency sample per applied batch; staleness is 0 after
  // flush(), and its high-water mark is between 1 and every mod.
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
  EXPECT_EQ(publish_lat->histogram.count,
            static_cast<std::uint64_t>(batches));
  const obs::MetricSnapshot* stale = snap.find("er_updater_staleness_mods");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->gauge, 0);
  const obs::MetricSnapshot* high_water =
      snap.find("er_updater_staleness_mods_high_water");
  ASSERT_NE(high_water, nullptr);
  EXPECT_GE(high_water->gauge, 1);
  EXPECT_LE(high_water->gauge, kMods);

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

// Every er_updater_* figure lands in the registry the updater was given
// (DESIGN.md §6); a null registry means the global one, as for every
// other component.
TEST(AsyncUpdater, RecordsEveryFigureInItsRegistry) {
  const ServeCase c = make_case(16, 16, 24, 331);
  ReductionOptions opts;
  opts.num_blocks = 4;
  ModelStore store;
  IncrementalReducer reducer(c.net, c.ports, opts);
  reducer.attach_store(&store);

  obs::MetricsRegistry reg;
  {
    AsyncUpdater updater(bind_reducer(reducer), recording_into(reg));
    updater.pause();  // coalesce all three mods into one batch
    const ModStream stream =
        make_mod_stream(c.net, reducer.structure(), 3, 0.3, 1.2, 900);
    for (std::size_t u = 0; u < stream.nets.size(); ++u)
      updater.submit(stream.nets[u], stream.mods[u].dirty_blocks);
    updater.flush();
  }
  EXPECT_EQ(series_value(reg, "er_updater_mods_submitted_total"), 3);
  EXPECT_EQ(series_value(reg, "er_updater_mods_applied_total"), 3);
  EXPECT_EQ(series_value(reg, "er_updater_batches_total"), 1);
  EXPECT_EQ(series_value(reg, "er_updater_mods_coalesced_total"), 2);
  EXPECT_EQ(series_value(reg, "er_updater_mods_failed_total"), 0);
  EXPECT_EQ(series_value(reg, "er_updater_blocked_submits_total"), 0);
  EXPECT_EQ(series_value(reg, "er_updater_mods_rejected_total"), 0);
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods"), 0);  // flushed
  EXPECT_EQ(series_value(reg, "er_updater_staleness_mods_high_water"), 3);
  const obs::MetricsSnapshot snap = reg.snapshot();
  const obs::MetricSnapshot* lat =
      snap.find("er_updater_publish_latency_seconds");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->histogram.count, 1u);
  EXPECT_GT(lat->histogram.sum, 0.0);
  EXPECT_EQ(histogram_count(reg, "er_updater_blocked_wait_seconds"), 0u);

  // Null registry: the series go to the global registry.
  obs::MetricsRegistry& global = obs::MetricsRegistry::global();
  const std::int64_t before =
      series_value(global, "er_updater_mods_submitted_total");
  {
    AsyncUpdater updater(bind_reducer(reducer));
    updater.submit(c.net, {0});
    updater.flush();
  }
  EXPECT_EQ(series_value(global, "er_updater_mods_submitted_total"),
            std::max<std::int64_t>(before, 0) + 1);
}

// Two updaters recording into one registry: each bounds and reports only
// its own modifications. The bound and mods_reflected() never read the
// shared series.
TEST(AsyncUpdater, UpdatersSharingARegistryKeepTheirOwnCounts) {
  obs::MetricsRegistry shared;
  AsyncUpdater::Options uo;
  uo.max_staleness_mods = 2;
  uo.fail_fast = true;
  uo.registry = &shared;
  // Trivial model sources, one version counter per updater (each touched
  // only by its own worker until the flush that hands it back).
  std::uint64_t version_a = 0, version_b = 0;
  AsyncUpdater b(
      [&version_b](const ConductanceNetwork&,
                   const std::vector<index_t>&) { return ++version_b; },
      uo);
  AsyncUpdater a(
      [&version_a](const ConductanceNetwork&,
                   const std::vector<index_t>&) { return ++version_a; },
      uo);
  const ConductanceNetwork empty_net;

  // B applies one edit, then pauses at its bound with two pending.
  EXPECT_TRUE(b.submit(empty_net, {}));
  b.flush();
  b.pause();
  EXPECT_TRUE(b.submit(empty_net, {}));
  EXPECT_TRUE(b.submit(empty_net, {}));
  EXPECT_FALSE(b.submit(empty_net, {}));  // B itself is at its bound

  // A has nothing unpublished, so its first edit is accepted.
  EXPECT_TRUE(a.submit(empty_net, {}));
  a.flush();
  EXPECT_EQ(version_a, 1u);
  EXPECT_EQ(a.mods_reflected(version_a), 1u);  // A's edit only

  b.flush();
  EXPECT_EQ(version_b, 2u);
  EXPECT_EQ(b.mods_reflected(1), 1u);
  EXPECT_EQ(b.mods_reflected(version_b), 3u);
  // The shared series carry both streams.
  EXPECT_EQ(series_value(shared, "er_updater_mods_submitted_total"), 4);
  EXPECT_EQ(series_value(shared, "er_updater_mods_applied_total"), 4);
  EXPECT_EQ(series_value(shared, "er_updater_mods_rejected_total"), 1);

  // Unbounded too: a version of C's reflects C's edits, not D's.
  obs::MetricsRegistry unbounded;
  std::uint64_t version_c = 0, version_d = 0;
  AsyncUpdater c(
      [&version_c](const ConductanceNetwork&,
                   const std::vector<index_t>&) { return ++version_c; },
      recording_into(unbounded));
  AsyncUpdater d(
      [&version_d](const ConductanceNetwork&,
                   const std::vector<index_t>&) { return ++version_d; },
      recording_into(unbounded));
  d.submit(empty_net, {});
  d.submit(empty_net, {});
  d.flush();
  c.submit(empty_net, {});
  c.flush();
  EXPECT_EQ(c.mods_reflected(version_c), 1u);
}

}  // namespace
}  // namespace er
