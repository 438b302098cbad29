#include "serve/query_frontend.hpp"

#include <atomic>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>

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

/// A cache miss being answered: its reduced endpoints and the reach solves
/// of a response's two halves, each kept from the end of its solve until
/// the other half ends and the later of the two takes the dot.
struct PendingQuery {
  std::size_t slot = 0;  ///< index in the batch
  index_t p = 0;
  index_t q = 0;
  double probe_seconds = 0.0;
  double solve_seconds[2] = {0.0, 0.0};
  std::vector<index_t> reach[2];
  std::vector<real_t> y[2];
  std::atomic<int> halves_done{0};
};

/// One pool task: a resistance's solve (half 0), or one half of a response
/// (0 solves e_p, 1 solves e_q).
struct SolveTask {
  std::size_t pending = 0;
  int half = 0;
};

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
  std::vector<real_t> out(batch.size(), 0.0);
  if (ctx.statuses) ctx.statuses->assign(batch.size(), QueryStatus::kOk);

  // Resolve the snapshot version's cache scope once per batch. An
  // unresolvable version — cache detached, or the version aged past the
  // cache's version_cap — degrades to the plain compute path; answers are
  // bitwise identical either way because every cached value is a pure
  // per-query function of the snapshot its scope pins (DESIGN.md §4.2).
  ResultCache* cache = nullptr;
  std::uint64_t scope = 0;
  if (ctx.cache)
    if (const std::optional<std::uint64_t> s = ctx.cache->scope_for(snap.version())) {
      cache = ctx.cache;
      scope = *s;
    }

  // Pass 1, serial: expired deadlines, invalid endpoints and cache probes,
  // in batch order. What is left needs reach solves.
  std::deque<PendingQuery> pending;  // stays put while it grows
  std::vector<SolveTask> tasks;
  std::uint64_t inv = 0, expired = 0;
  for (std::size_t ui = 0; ui < batch.size(); ++ui) {
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
    if (cache && cache->lookup(scope, query.kind, query.p, query.q, &out[ui])) {
      metrics.query_latency.record(query_timer.seconds());
      continue;
    }
    // A miss: R(p, p) = 0 needs no solve, a resistance needs one and a
    // response two.
    PendingQuery& miss = pending.emplace_back();
    miss.slot = ui;
    miss.p = p;
    miss.q = q;
    const std::size_t id = pending.size() - 1;
    if (query.kind == QueryKind::kResponse) {
      tasks.push_back({id, 0});
      tasks.push_back({id, 1});
    } else if (p != q) {
      tasks.push_back({id, 0});
    }
    miss.probe_seconds = query_timer.seconds();
  }
  metrics.invalid.add(inv);
  metrics.deadline_miss.add(expired);

  // Pass 2: one task per reach solve, on the calling thread and the pool's
  // idle workers. Each thread keeps one workspace across tasks and
  // batches: the reach solve leaves it clean, so its O(n) sizing is paid
  // once per thread and factor size. A response half keeps its solve
  // until the other half ends; the later half takes reach_dot (p's solve
  // first) and frees both, so the solves kept at once are bounded by the
  // solves in flight, not by the batch size.
  parallel_for(ctx.pool, 0, static_cast<index_t>(tasks.size()), 1,
               [&](index_t lo, index_t hi) {
    static thread_local ReachWorkspace ws;
    for (index_t t = lo; t < hi; ++t) {
      const SolveTask& task = tasks[static_cast<std::size_t>(t)];
      PendingQuery& miss = pending[task.pending];
      Timer solve_timer;
      if (batch[miss.slot].kind == QueryKind::kResistance) {
        snap.difference_solve(miss.p, miss.q, ws);
        out[miss.slot] = squared_norm(ws);
        miss.solve_seconds[0] = solve_timer.seconds();
        continue;
      }
      const int h = task.half;
      snap.unit_solve(h == 0 ? miss.p : miss.q, ws);
      miss.reach[h].assign(ws.reach.begin(), ws.reach.end());
      miss.y[h].assign(ws.y.begin(), ws.y.end());
      if (miss.halves_done.fetch_add(1, std::memory_order_acq_rel) == 1) {
        out[miss.slot] = reach_dot(miss.reach[0], miss.y[0], miss.reach[1],
                                   miss.y[1]);
        for (int k = 0; k < 2; ++k) {
          miss.reach[k] = {};
          miss.y[k] = {};
        }
      }
      miss.solve_seconds[h] = solve_timer.seconds();
    }
  });

  // Pass 3, serial: fill the cache in batch order. A query's latency is its
  // probe plus its solves' compute.
  for (const PendingQuery& miss : pending) {
    const PortQuery& query = batch[miss.slot];
    if (cache) cache->insert(scope, query.kind, query.p, query.q, out[miss.slot]);
    metrics.query_latency.record(miss.probe_seconds + miss.solve_seconds[0] +
                                 miss.solve_seconds[1]);
  }

  metrics.batches.add(1);
  metrics.queries.add(batch.size());
  metrics.batch_seconds.record(timer.seconds());
  return out;
}

}  // namespace er
