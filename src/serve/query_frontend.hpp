/// \file
/// Concurrent query front-end over a ModelStore (DESIGN.md §4).
///
/// Accepts batches of port-response / effective-resistance queries in
/// *original* node ids, pins the store's current snapshot once per batch,
/// maps each endpoint to its reduced id, probes the cache, and runs each
/// reach solve of a miss as its own task on a ThreadPool. Answers land in
/// per-query slots, so a batch is bit-identical at any thread count and
/// each answer is the one its query gets alone.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/model_store.hpp"
#include "serve/query_policy.hpp"
#include "util/types.hpp"

namespace er {

class ResultCache;
class ThreadPool;

namespace obs {
class MetricsRegistry;
}  // namespace obs

/// What a PortQuery asks for.
enum class QueryKind {
  kResponse,    ///< Z(p, q) = e_q^T G^{-1} e_p (transfer impedance)
  kResistance,  ///< (e_p - e_q)^T G^{-1} (e_p - e_q)
};

const char* to_string(QueryKind kind);

/// One query against the published model, in original (pre-reduction) node
/// ids. Nodes that were eliminated by the reduction answer NaN. The
/// per-query policy (serve/query_policy.hpp) defaults to no deadline.
struct PortQuery {
  QueryKind kind = QueryKind::kResistance;
  index_t p = 0;
  index_t q = 0;
  QueryPolicy policy;
};

/// Per-batch evaluation parameters for answer()/answer_on().
struct AnswerContext {
  ThreadPool* pool = nullptr;
  /// Metrics sink (null = the process-wide global registry).
  obs::MetricsRegistry* registry = nullptr;
  /// Consulted and filled for every batch; may be null.
  ResultCache* cache = nullptr;
  /// Queue wait already consumed before evaluation starts, in
  /// microseconds: the value per-query deadlines are compared against.
  /// An explicit input — the compute path never reads a clock — so the
  /// same (snapshot, batch, context) always yields the same answers.
  /// Direct callers default to 0 (no wait, nothing expires).
  std::uint64_t queue_wait_us = 0;
  /// Optional per-query outcome slots (resized to the batch); null skips.
  std::vector<QueryStatus>* statuses = nullptr;
};

/// What answer() returns: one value per query, and the version of the
/// snapshot the whole batch was answered against.
struct Answers {
  std::vector<real_t> values;
  std::uint64_t snapshot_version = 0;
};

/// Stateless batch evaluator bound to a ModelStore. Thread-safe: any number
/// of threads may call answer() concurrently; each batch pins the snapshot
/// current at its start and is unaffected by publishes that race with it.
class QueryFrontEnd {
 public:
  /// `store` must outlive the front-end. Metrics go to `registry`
  /// (null = the process-wide global registry).
  explicit QueryFrontEnd(const ModelStore* store,
                         obs::MetricsRegistry* registry = nullptr);

  /// Answer a batch against the currently-published snapshot. Throws
  /// std::runtime_error if nothing has been published yet. When the store
  /// carries an attached ResultCache, answers are served from / inserted
  /// into it (bit-identical either way — DESIGN.md §4.2). ctx.registry /
  /// ctx.cache default (when null) to the front-end's registry and the
  /// store's attached cache.
  [[nodiscard]] Answers answer(const std::vector<PortQuery>& batch,
                               const AnswerContext& ctx = {}) const;

  /// Answer a batch against an explicitly pinned snapshot (tests, replay).
  /// ctx.registry null means the global registry; ctx.cache may be null.
  [[nodiscard]] static std::vector<real_t> answer_on(
      const ModelSnapshot& snapshot, const std::vector<PortQuery>& batch,
      const AnswerContext& ctx = {});

 private:
  const ModelStore* store_;
  obs::MetricsRegistry* registry_;  ///< resolved, never null
};

}  // namespace er
