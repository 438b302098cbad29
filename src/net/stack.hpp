/// \file
/// ServingStack: the daemon's composition layer (DESIGN.md §8). Owns the
/// whole serving pipeline behind one Server — ModelStore, an
/// IncrementalReducer primed on the initial grid, an optional ResultCache,
/// a QueryFrontEnd, and the AsyncUpdater that runs re-reductions off the
/// request path — and adapts the wire-level modification feed
/// (WireModification, block ids only) to the cumulative-network contract
/// of IncrementalReducer::update / AsyncUpdater::submit.
///
/// Mod-feed semantics: apply_mod() holds the stack's mod mutex, applies
/// the edit to the *cumulative* current network, and submits the result.
/// Only an accepted submit advances the cumulative state — a fail_fast
/// rejection (back-pressure; the server answers kRetryLater) leaves the
/// stack exactly as if the edit never arrived, so the client can resubmit
/// the same edit later and observe the same semantics. Out-of-range block
/// ids throw std::invalid_argument before any state changes (the server
/// answers kError/kBadPayload).
///
/// Destruction order: the updater member is declared last, so it drains
/// (worker joined, every accepted edit published) before the reducer and
/// store it closes over are torn down. Destroy the Server before the
/// stack — mod_fn() hands the server a callback into `this`.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/protocol.hpp"
#include "pg/incremental.hpp"
#include "reduction/pipeline.hpp"
#include "serve/async_updater.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot.hpp"
#include "util/thread_annotations.hpp"

namespace er::net {

struct StackOptions {
  ReductionOptions reduction;
  /// Attach a ResultCache to the store, configured by `cache`.
  bool attach_cache = true;
  ResultCacheOptions cache;
  /// AsyncUpdater back-pressure bound: accepted-but-unpublished
  /// modifications before submits are refused (see fail_fast).
  std::uint64_t staleness_bound = 6;
  /// true: apply_mod() reports back-pressure as `false` (kRetryLater on
  /// the wire). false: apply_mod() blocks at the bound instead.
  bool fail_fast = true;
};

/// One grid's full serving pipeline, ready to hand to a Server:
/// `Server server(&stack.store(), sopts, stack.mod_fn());`.
class ServingStack {
 public:
  /// Reduces `grid_net` (ports per `is_port`), publishes the initial
  /// snapshot, and starts the update worker. `registry` receives the
  /// er_store_* / er_updater_* / er_query_* / er_cache_* series; null
  /// falls back to the global registry so a daemon exports one unified
  /// /metrics surface.
  ServingStack(const ConductanceNetwork& grid_net,
               const std::vector<char>& is_port, StackOptions options,
               obs::MetricsRegistry* registry = nullptr);
  ~ServingStack();

  ServingStack(const ServingStack&) = delete;
  ServingStack& operator=(const ServingStack&) = delete;

  /// Validate + apply one wire modification to the cumulative network and
  /// submit it for background re-reduction. Returns false on back-pressure
  /// (fail_fast at the staleness bound; no state changed). Throws
  /// std::invalid_argument on out-of-range block ids, and rethrows the
  /// update worker's latched error if a previous batch failed.
  bool apply_mod(const WireModification& mod) ER_EXCLUDES(mod_mutex_);

  /// The Server::ModFn adapter over apply_mod(). The returned callable
  /// references `this`; the Server using it must stop before the stack
  /// dies.
  [[nodiscard]] std::function<bool(const WireModification&)> mod_fn();

  /// Block until every accepted modification is published.
  void flush() { updater_.flush(); }

  [[nodiscard]] const ModelStore& store() const { return store_; }
  [[nodiscard]] ModelStore& store() { return store_; }
  [[nodiscard]] QueryFrontEnd& frontend() { return frontend_; }
  [[nodiscard]] const IncrementalReducer& reducer() const { return reducer_; }
  [[nodiscard]] const BlockStructure& structure() const { return structure_; }
  [[nodiscard]] AsyncUpdater& updater() { return updater_; }
  /// Cumulative modifications accepted through apply_mod() so far.
  [[nodiscard]] std::uint64_t mods_accepted() const;

 private:
  StackOptions options_;
  obs::MetricsRegistry* registry_;  ///< resolved, never null
  ModelStore store_;
  IncrementalReducer reducer_;
  /// Frozen at construction: modifications may not change the partition.
  BlockStructure structure_;
  std::shared_ptr<ResultCache> cache_;
  QueryFrontEnd frontend_;
  mutable util::Mutex mod_mutex_;
  /// The cumulative edited network (AsyncUpdater submissions carry full
  /// state, not deltas); advances only on accepted submits.
  ConductanceNetwork current_ ER_GUARDED_BY(mod_mutex_);
  std::uint64_t accepted_ ER_GUARDED_BY(mod_mutex_) = 0;
  /// Declared last: drains into reducer_/store_ before they die.
  AsyncUpdater updater_;
};

}  // namespace er::net
