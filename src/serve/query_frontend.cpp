#include "serve/query_frontend.hpp"

#include <limits>
#include <optional>
#include <stdexcept>

#include "effres/engine.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/result_cache.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

constexpr real_t kNaN = std::numeric_limits<real_t>::quiet_NaN();

/// Registry handles, resolved once per batch (registration is
/// get-or-create, so repeated batches hit the same series). Recording
/// through them is lock-free.
struct ServeMetrics {
  obs::Counter& batches;
  obs::Counter& queries;
  obs::Counter& invalid;
  obs::Counter& deadline_miss;
  obs::Histogram& query_latency;
  obs::Histogram& batch_seconds;
};

ServeMetrics serve_metrics(obs::MetricsRegistry& reg) {
  // The `mode` label is frozen at its one value (DESIGN.md §6): perfbench's
  // wire workloads select er_query_batch_seconds{mode="sharded"}.
  const obs::Labels labels{{"mode", "sharded"}};
  return ServeMetrics{
      reg.counter("er_serve_batches_total", labels,
                  "Query batches answered"),
      reg.counter("er_serve_queries_total", labels, "Queries answered"),
      reg.counter("er_serve_invalid_queries_total", labels,
                  "Queries with unmapped/eliminated endpoints (answer NaN)"),
      reg.counter("er_policy_deadline_miss_total", {},
                  "Queries whose deadline expired before evaluation"),
      reg.histogram("er_query_latency_seconds", labels,
                    "Per-query wall-clock latency (compute only; queue "
                    "wait is er_pool_task_queue_wait_seconds)"),
      reg.histogram("er_query_batch_seconds", labels,
                    "Whole-batch wall-clock latency"),
  };
}

/// Evaluate one query given its already-validated reduced endpoints. A
/// pure per-query function of (snapshot, kind, p, q) — the property that
/// makes the answer cacheable.
real_t answer_exact(const ModelSnapshot& snap, QueryKind kind, index_t p,
                    index_t q, ModelSnapshot::Workspace& ws) {
  return kind == QueryKind::kResponse ? snap.response(p, q, ws)
                                      : snap.resistance(p, q, ws);
}

}  // namespace

const char* to_string(QueryKind kind) {
  switch (kind) {
    case QueryKind::kResponse:
      return "response";
    case QueryKind::kResistance:
      return "resistance";
  }
  return "?";
}

const char* to_string(QueryStatus status) {
  switch (status) {
    case QueryStatus::kOk:
      return "ok";
    case QueryStatus::kInvalid:
      return "invalid";
    case QueryStatus::kDeadlineMiss:
      return "deadline-miss";
  }
  return "?";
}

QueryFrontEnd::QueryFrontEnd(const ModelStore* store,
                             obs::MetricsRegistry* registry)
    : store_(store), registry_(&obs::registry_or_global(registry)) {
  if (!store_)
    throw std::invalid_argument("QueryFrontEnd: null ModelStore");
}

Answers QueryFrontEnd::answer(const std::vector<PortQuery>& batch,
                              const AnswerContext& ctx) const {
  // Pin the snapshot once: the whole batch is answered against one model
  // version, however many publishes race with it. The cache handle is
  // pinned the same way (shared ownership for the batch's duration).
  const SnapshotPtr snap = store_->acquire();
  if (!snap)
    throw std::runtime_error("QueryFrontEnd::answer: nothing published yet");
  const ResultCachePtr cache = store_->cache();
  AnswerContext resolved = ctx;
  if (!resolved.registry) resolved.registry = registry_;
  if (!resolved.cache) resolved.cache = cache.get();
  return {answer_on(*snap, batch, resolved), snap->version()};
}

std::vector<real_t> QueryFrontEnd::answer_on(const ModelSnapshot& snap,
                                             const std::vector<PortQuery>& batch,
                                             const AnswerContext& ctx) {
  Timer timer;
  ServeMetrics metrics = serve_metrics(obs::registry_or_global(ctx.registry));
  const auto n = static_cast<index_t>(batch.size());
  std::vector<real_t> out(batch.size(), 0.0);
  if (ctx.statuses) ctx.statuses->assign(batch.size(), QueryStatus::kOk);

  // Resolve the snapshot version's cache scope once per batch. An
  // unresolvable version — cache detached, or the version aged past the
  // cache's version_cap — degrades to the plain compute path; answers are
  // bitwise identical either way because every cached value is a pure
  // per-query function of the snapshot its scope pins (DESIGN.md §4.2).
  const std::optional<std::uint64_t> scope =
      ctx.cache ? ctx.cache->scope_for(snap.version()) : std::nullopt;
  ResultCache* cache = scope ? ctx.cache : nullptr;

  // Chunked across the pool; every query writes only its own slots, so the
  // batch is bit-identical at any thread count. Each thread keeps one
  // workspace across chunks and batches: the reach solve leaves it clean,
  // so its O(n) sizing is paid once per thread and factor size, not per
  // request.
  parallel_for(ctx.pool, 0, n, kBatchQueryGrain, [&](index_t lo, index_t hi) {
    static thread_local ModelSnapshot::Workspace ws;
    std::uint64_t inv = 0, expired = 0;
    for (index_t i = lo; i < hi; ++i) {
      const auto ui = static_cast<std::size_t>(i);
      const PortQuery& query = batch[ui];
      Timer query_timer;
      const std::uint32_t deadline = query.policy.deadline_us;
      if (deadline > 0 && deadline <= ctx.queue_wait_us) {
        // Expired before evaluation: answer NaN without computing or
        // probing the cache. Purely a function of (deadline_us,
        // queue_wait_us), so the miss set is identical on every replay.
        ++expired;
        out[ui] = kNaN;
        if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kDeadlineMiss;
        metrics.query_latency.record(query_timer.seconds());
        continue;
      }
      const index_t p = snap.reduced_id(query.p);
      const index_t q = snap.reduced_id(query.q);
      if (p < 0 || q < 0) {
        // Invalid endpoints answer NaN and are never probed or cached —
        // they carry no compute worth saving.
        ++inv;
        out[ui] = kNaN;
        if (ctx.statuses) (*ctx.statuses)[ui] = QueryStatus::kInvalid;
        metrics.query_latency.record(query_timer.seconds());
        continue;
      }
      real_t value = 0.0;
      if (!cache ||
          !cache->lookup(*scope, query.kind, query.p, query.q, &value)) {
        value = answer_exact(snap, query.kind, p, q, ws);
        if (cache) cache->insert(*scope, query.kind, query.p, query.q, value);
      }
      out[ui] = value;
      metrics.query_latency.record(query_timer.seconds());
    }
    // Once per chunk; ResultCache counts its own hits and misses.
    metrics.invalid.add(inv);
    metrics.deadline_miss.add(expired);
  });

  metrics.batches.add(1);
  metrics.queries.add(batch.size());
  metrics.batch_seconds.record(timer.seconds());
  return out;
}

}  // namespace er
