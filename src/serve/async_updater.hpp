/// \file
/// Background incremental-update service (DESIGN.md §4.1).
///
/// AsyncUpdater decouples the *publisher* side of the serving pipeline
/// from the threads that produce modifications: submit() enqueues a
/// modification batch and returns immediately, while a dedicated worker
/// thread applies batches through a caller-supplied update function
/// (typically IncrementalReducer::update with a ModelStore attached, whose
/// per-block solves still fan out over the reducer's shared ThreadPool).
/// Queries never wait on updates: they keep answering against the
/// currently-published snapshot, and each publish only affects later
/// acquires (the §4 publish protocol).
///
/// Coalescing: the queue is a single pending slot. A batch submitted while
/// an update is in flight (or while the updater is paused) merges into the
/// pending slot — the newest network state replaces the older one and the
/// dirty sets union — so the worker always applies the most recent state
/// in one update instead of replaying a backlog. This bounds the *batch*
/// backlog under churn: the store is at most one update behind the last
/// submitted state once the worker catches up.
///
/// Bounded staleness (back-pressure): coalescing alone does not stop the
/// edit stream from racing arbitrarily many *modifications* ahead of the
/// store (a pending slot absorbs any number of them). Options::
/// max_staleness_mods caps how many submitted-but-unpublished
/// modifications may exist: once the store trails by that many, submit()
/// either blocks until the worker catches up (default) or fails fast
/// (Options::fail_fast), returning false without accepting the edit.
///
/// Layering: this lives in `serve/` and deliberately knows nothing about
/// `pg/` — the update function closes over whatever model source the
/// caller uses (see docs/serving_guide.md for the IncrementalReducer
/// wiring).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "reduction/network.hpp"
#include "util/thread_annotations.hpp"
#include "util/types.hpp"

namespace er {

namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

/// Runs modification batches on a dedicated background thread against a
/// caller-supplied update function. All public methods are thread-safe.
class AsyncUpdater {
 public:
  /// Applies one coalesced batch: re-reduce against `network` (the full
  /// modified state, *not* a delta) treating `dirty_blocks` as changed,
  /// and publish the result. Returns the published model version (for
  /// IncrementalReducer: its revision()). Runs on the worker thread; it
  /// must not touch the updater (deadlock) and must not race with other
  /// users of the underlying model source.
  using UpdateFn = std::function<std::uint64_t(
      const ConductanceNetwork& network,
      const std::vector<index_t>& dirty_blocks)>;

  /// Construction-time knobs.
  struct Options {
    /// Back-pressure bound: the maximum number of accepted-but-unpublished
    /// modifications (pending slot + the batch in flight). 0 = unbounded
    /// (the pre-existing behavior). With a bound of N, a submit() that
    /// would leave the store more than N modifications behind blocks until
    /// the worker catches up — or is rejected when fail_fast is set.
    /// Caveat: with the worker paused, a blocking submit() waits until
    /// resume()/flush() lifts the gate.
    std::uint64_t max_staleness_mods = 0;
    /// At the bound, submit() returns false immediately instead of
    /// blocking (the caller decides whether to drop, retry, or slow the
    /// edit source). Rejected modifications are counted in
    /// `er_updater_mods_rejected_total` and are *not* part of
    /// `er_updater_mods_submitted_total`.
    bool fail_fast = false;
    /// Metrics destination (`er_updater_*` series — DESIGN.md §6; null =
    /// the process-wide global registry). The series are write-only here:
    /// the bound and mods_reflected() read the updater's own counts, so
    /// updaters sharing a registry never steer each other.
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Retention of the mods_reflected() version log, in batches: far
  /// beyond any realistically pinned snapshot's age, still O(1) memory
  /// over a long-lived update stream.
  static constexpr std::size_t kVersionLogCap = 256;

  /// Starts the worker thread. `apply` outlives the updater's last batch
  /// (i.e. the updater must be destroyed/drained before the model source).
  explicit AsyncUpdater(UpdateFn apply);
  /// As above, with explicit knobs (two overloads rather than a default
  /// argument because a nested aggregate's member initializers are not
  /// usable as a default inside its enclosing class).
  AsyncUpdater(UpdateFn apply, Options options);

  /// Drains (applies every pending modification) and stops the worker.
  /// Worker errors are swallowed here; call drain() explicitly to observe
  /// them.
  ~AsyncUpdater();

  AsyncUpdater(const AsyncUpdater&) = delete;
  AsyncUpdater& operator=(const AsyncUpdater&) = delete;

  /// Enqueue one modification: `network` is the full modified state and
  /// `dirty_blocks` the blocks it changed *relative to the previously
  /// submitted state* (the same contract as IncrementalReducer::update —
  /// submissions describe a cumulative edit stream). If a batch is already
  /// pending the modification coalesces into it. Returns true when the
  /// modification was accepted. With Options::max_staleness_mods set,
  /// accepting it may first block until the store catches up — or, with
  /// fail_fast, the call returns false immediately (the modification was
  /// NOT taken; the caller still owns the edit). Unbounded updaters always
  /// return true without waiting. Throws std::logic_error after drain();
  /// rethrows the worker's error if a previous batch failed (including
  /// while blocked at the bound).
  bool submit(ConductanceNetwork network, std::vector<index_t> dirty_blocks)
      ER_EXCLUDES(mutex_);

  /// Block until every modification submitted so far has been applied and
  /// published. Implies resume(): a paused updater is resumed and stays
  /// resumed after the flush returns (re-pause explicitly if the gate
  /// should persist). Rethrows the worker's error if an update threw; the
  /// error stays latched, so later calls throw again.
  void flush() ER_EXCLUDES(mutex_);

  /// flush(), then stop the worker permanently (submit() afterwards
  /// throws). Called by the destructor; idempotent.
  void drain() ER_EXCLUDES(mutex_);

  /// Hold back the worker: submissions keep coalescing into the pending
  /// slot but nothing is applied until resume() — or flush()/drain(),
  /// which imply resume (including when pause() races an in-progress
  /// flush: the flush wins and the updater ends up resumed). Lets tests
  /// make coalescing deterministic and operators gate publishes around
  /// maintenance windows.
  void pause() ER_EXCLUDES(mutex_);
  void resume() ER_EXCLUDES(mutex_);

  /// How many submitted modifications are reflected in the snapshot with
  /// the given version (monotone in `version`), counting only this
  /// updater's modifications: the staleness of a pinned batch is the
  /// modifications accepted at pin time minus mods_reflected(pinned
  /// version). Versions published before this updater existed (e.g. the
  /// initial attach_store publish) report 0.
  ///
  /// Conservative lower bound: a version published by a batch whose
  /// bookkeeping has not landed yet (the instants between the publish
  /// inside the update function and the worker re-acquiring the lock, or a
  /// version older than the bounded log's retention window) reports the
  /// previous batch's count, so staleness derived from it can transiently
  /// over-state but never under-state. It converges as soon as the batch
  /// completes.
  [[nodiscard]] std::uint64_t mods_reflected(std::uint64_t version) const
      ER_EXCLUDES(mutex_);

 private:
  /// The single-slot queue entry: the newest submitted state plus the
  /// union of the dirty sets and the enqueue time of the *oldest* merged
  /// modification (the latency anchor).
  struct PendingBatch {
    ConductanceNetwork network;
    std::vector<index_t> dirty_blocks;
    std::chrono::steady_clock::time_point oldest;
    std::uint64_t mods = 0;
  };

  void worker_loop();

  UpdateFn apply_;
  Options options_;
  mutable util::Mutex mutex_;
  std::condition_variable cv_worker_;  // wakes the worker
  std::condition_variable cv_idle_;    // wakes flush()/drain() waiters
  std::optional<PendingBatch> pending_ ER_GUARDED_BY(mutex_);
  bool paused_ ER_GUARDED_BY(mutex_) = false;
  bool stop_ ER_GUARDED_BY(mutex_) = false;
  bool in_flight_ ER_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ ER_GUARDED_BY(mutex_);
  /// Accepted-but-unpublished modifications (pending + in flight): the
  /// quantity Options::max_staleness_mods bounds.
  std::uint64_t unpublished_mods_ ER_GUARDED_BY(mutex_) = 0;
  /// Modifications folded into finished updates (the version log's count).
  std::uint64_t applied_mods_ ER_GUARDED_BY(mutex_) = 0;
  // Registry-backed series (pointers cached at construction), recorded
  // and never read back.
  obs::Counter* submitted_ = nullptr;
  obs::Counter* applied_ = nullptr;
  obs::Counter* batches_ = nullptr;
  obs::Counter* coalesced_ = nullptr;
  obs::Counter* failed_ = nullptr;
  obs::Counter* blocked_submits_ = nullptr;
  obs::Counter* rejected_ = nullptr;
  obs::Gauge* staleness_mods_ = nullptr;
  obs::Gauge* staleness_high_water_ = nullptr;
  obs::Histogram* publish_latency_hist_ = nullptr;
  obs::Histogram* blocked_wait_hist_ = nullptr;
  /// (published version, cumulative modifications applied through it) per
  /// batch, in publish order (strictly increasing versions) — the
  /// mods_reflected() lookup table. Bounded: when it outgrows
  /// kVersionLogCap the older half folds into pruned_ (the
  /// newest dropped entry), so memory stays O(1) over a long-lived update
  /// stream and lookups for versions older than the retention window
  /// degrade to the pruned marker.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> version_log_
      ER_GUARDED_BY(mutex_);
  std::optional<std::pair<std::uint64_t, std::uint64_t>> pruned_
      ER_GUARDED_BY(mutex_);
  std::once_flag join_once_;  // serializes the worker join across drains
  std::thread worker_;
};

}  // namespace er
