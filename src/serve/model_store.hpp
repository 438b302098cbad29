/// \file
/// Read-mostly store of the currently-published ModelSnapshot
/// (DESIGN.md §4).
///
/// Publish protocol: a writer (IncrementalReducer, or any pipeline driver)
/// builds a complete immutable snapshot *off to the side*, then swaps it
/// in with publish(). Readers acquire() a shared_ptr and keep answering
/// against their pinned snapshot for as long as they hold it — a publish
/// never invalidates in-flight queries, it only changes what the *next*
/// acquire returns. Old snapshots are freed by shared_ptr refcounting once
/// the last reader drops them. A snapshot aliases its stitched model
/// version (DESIGN.md §4.1), so a displaced snapshot's teardown releases
/// its factor and any model version no other holder still pins.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

#include "serve/snapshot.hpp"
#include "util/thread_annotations.hpp"

namespace er {

namespace obs {
class MetricsRegistry;
class Counter;
class Gauge;
}  // namespace obs

class ResultCache;

using SnapshotPtr = std::shared_ptr<const ModelSnapshot>;

/// Thread-safe holder of the current snapshot. All methods may be called
/// concurrently from any thread; the store never blocks on query work (the
/// critical section is a pointer swap plus O(1) bookkeeping).
///
/// Observability (DESIGN.md §6): each publish bumps
/// `er_store_publishes_total` and sets the `er_store_current_version`
/// gauge, so an exporter sees version progress without polling the probe
/// methods.
class ModelStore {
 public:
  /// Metrics go to `registry` (null = the process-wide global registry).
  explicit ModelStore(obs::MetricsRegistry* registry = nullptr);
  /// Atomically replace the current snapshot. Null snapshots are rejected.
  /// The publish instant is kept for current_age_seconds().
  void publish(SnapshotPtr snapshot) ER_EXCLUDES(mutex_);

  /// The currently-published snapshot (null before the first publish).
  /// The returned pointer pins the snapshot: it stays valid and immutable
  /// however many publishes happen afterwards.
  [[nodiscard]] SnapshotPtr acquire() const ER_EXCLUDES(mutex_);

  /// Number of publish() calls so far.
  [[nodiscard]] std::uint64_t publish_count() const ER_EXCLUDES(mutex_);

  /// True once anything was published. The cheap guard in front of the
  /// probes below for writers that must distinguish "no model yet" from
  /// "serving version 0".
  [[nodiscard]] bool has_published() const ER_EXCLUDES(mutex_);

  /// Version of the currently-published snapshot, or nullopt before the
  /// first publish — the cheap monitoring probe for staleness: a reader
  /// that pinned version v runs *current_version() - v model versions
  /// behind. (The optional removes the old 0-ambiguity: version 0 is a
  /// legitimate published state — IncrementalReducer revisions start at
  /// 0 — and is now distinguishable from an empty store.)
  [[nodiscard]] std::optional<std::uint64_t> current_version() const
      ER_EXCLUDES(mutex_);

  /// Seconds since the current snapshot was published, or nullopt before
  /// the first publish — "how long since queries last saw fresh state".
  [[nodiscard]] std::optional<double> current_age_seconds() const
      ER_EXCLUDES(mutex_);

  /// Attach a result cache (serve/result_cache.hpp): the already-current
  /// snapshot (if any) is registered immediately, and every subsequent
  /// publish() registers the new version with the cache's publish hook.
  /// Works for *any* publisher — the
  /// IncrementalReducer / AsyncUpdater path publishes through here, so it
  /// needs no wiring of its own. Pass null to detach.
  void attach_cache(std::shared_ptr<ResultCache> cache) ER_EXCLUDES(mutex_);

  /// The attached cache (null when none). QueryFrontEnd::answer resolves
  /// this once per batch.
  [[nodiscard]] std::shared_ptr<ResultCache> cache() const
      ER_EXCLUDES(mutex_);

 private:
  mutable util::Mutex mutex_;
  SnapshotPtr current_ ER_GUARDED_BY(mutex_);
  std::shared_ptr<ResultCache> cache_ ER_GUARDED_BY(mutex_);
  /// Kept here, not read from er_store_publishes_total: the store's
  /// registry may be shared with other stores.
  std::uint64_t publish_count_ ER_GUARDED_BY(mutex_) = 0;
  std::chrono::steady_clock::time_point published_at_ ER_GUARDED_BY(mutex_);
  obs::Counter* publishes_total_;  ///< registry-backed, set at construction
  obs::Gauge* current_version_gauge_;
};

}  // namespace er
