// Serving bench: queries/sec through the ModelStore vs. thread count
// (DESIGN.md §4). For each grid, the reduction runs once, a ModelSnapshot
// is built and published, and a mixed 10k-query batch (port responses +
// effective resistances) is answered at 1/2/4/8 threads. Enforced
// invariants (exit 1 on violation):
//
//   * every multi-thread batch is bit-identical to the 1-thread batch
//     (per-query slot writes, shared immutable snapshot), and
//   * a sample of the served answers matches a full forward + backward
//     solve_permuted reference on a separate factor of G to 1e-8 relative.
//
// --churn switches to the mixed update+query mode (DESIGN.md §4.1): an
// AsyncUpdater streams modification batches through the IncrementalReducer
// (one snapshot build per publish) while query batches keep hitting the
// store, measuring publish latency, staleness (modifications behind), and
// QPS under churn. Enforced there (exit 1 on violation): the final
// asynchronously-published snapshot answers bit-identically to a
// synchronous twin reducer that applied the same modification stream
// sequentially and built its snapshot from scratch.
//
// --loopback switches to the network serving mode (DESIGN.md §8): the
// net/ Server + ServingStack run in-process and real LoopbackClient TCP
// connections drive them at 1/2/4/8 concurrent clients, measuring
// end-to-end request QPS and client-observed latency percentiles, then
// churning the mod feed while queries continue. Enforced (exit 1 on
// violation): every loopback answer is bit-identical to the direct
// QueryFrontEnd call on the same snapshot, and the er_net_* registry
// counters agree with the client-side request/rejection tallies.
//
// --zipf S (with --churn) switches to the result-cache scenario
// (DESIGN.md §4.2): Zipf(S)-skewed resistance queries over a fixed pair
// pool stream through a store-attached ResultCache while the updater
// churns, reporting cache hit rate and QPS with the cache vs. the same
// batches recomputed without it. Enforced (exit 1 on violation): every
// cached batch is bit-identical to its uncached twin on the same pinned
// snapshot, the er_cache_* registry counters agree with the BatchStats
// sums, and for S >= 1 the hit rate clears 50%.
//
// Emits BENCH_serving.json (schema: bench/README.md). All modes also
// report per-query latency percentiles (and, under churn, publish-latency
// percentiles) extracted from the observability registry (DESIGN.md §6),
// cross-checked against the legacy Stats accessors, and can dump the whole
// registry as Prometheus text exposition via --metrics.
//
//   bench_serving [--threads N] [--json PATH] [--metrics PATH] [--churn]
//                 [--zipf S] [--loopback]
//
// N is the *maximum* thread count swept (default 8).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chol/cholesky.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/stack.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "pg/incremental.hpp"
#include "serve/async_updater.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "serve/result_cache.hpp"
#include "suite.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace er;

namespace {

/// Fold the global registry (reducer + default-registry components) into
/// the per-iteration dump and write it as Prometheus text exposition.
/// Returns the exit-code contribution (0 ok, 1 fail); no-op on empty path.
int write_metrics_dump(obs::MetricsSnapshot dump,
                       const bench::BenchOptions& bopts) {
  if (bopts.metrics_path.empty()) return 0;
  dump.merge(obs::MetricsRegistry::global().snapshot());
  std::ofstream out(bopts.metrics_path);
  if (out) out << obs::to_prometheus(dump);
  if (!out) {
    std::fprintf(stderr, "failed to write %s\n", bopts.metrics_path.c_str());
    return 1;
  }
  std::printf("Metrics written to %s\n", bopts.metrics_path.c_str());
  return 0;
}

/// Set `query_latency_p50/p95/p99_us` on a JSON row from the iteration's
/// `er_query_latency_seconds` histogram (zeros when absent).
void set_query_latency_fields(bench::BenchJson::Row& row,
                              const obs::MetricsSnapshot& snap) {
  const obs::MetricSnapshot* h =
      snap.find("er_query_latency_seconds", {{"mode", "sharded"}});
  const auto us = [h](double q) {
    return h ? h->histogram.quantile(q) * 1e6 : 0.0;
  };
  row.set("query_latency_p50_us", us(0.50))
      .set("query_latency_p95_us", us(0.95))
      .set("query_latency_p99_us", us(0.99));
}

/// Etree-reach statistics of the batch's reach solves (DESIGN.md §4): one
/// solve of e_p - e_q per resistance query, one each of e_p and e_q per
/// response query. Computed on `g`, a factor of the stitched system G built
/// by the caller — the same matrix and ordering as the snapshot's factor —
/// so the snapshot API stays unchanged.
struct ReachStats {
  double nodes_mean = 0.0;    ///< reach size (factor columns visited)
  double nodes_p99 = 0.0;
  double entries_mean = 0.0;  ///< factor entries in the visited columns
};

ReachStats reach_stats(const ReducedModel& model, const CholFactor& g,
                       const std::vector<PortQuery>& batch) {
  ReachWorkspace ws;
  std::vector<double> nodes;
  RunningStats nodes_stats;
  RunningStats entries;
  const auto solve = [&](const index_t* idx, const real_t* val, int k) {
    g.sparse_forward(idx, val, k, ws);
    offset_t touched = 0;
    for (const index_t j : ws.reach)
      touched += g.col_ptr[static_cast<std::size_t>(j) + 1] -
                 g.col_ptr[static_cast<std::size_t>(j)];
    nodes.push_back(static_cast<double>(ws.reach.size()));
    nodes_stats.add(nodes.back());
    entries.add(static_cast<double>(touched));
  };
  const real_t one = 1.0;
  for (const PortQuery& query : batch) {
    const index_t p = g.inv_perm[static_cast<std::size_t>(
        model.node_map[static_cast<std::size_t>(query.p)])];
    const index_t q = g.inv_perm[static_cast<std::size_t>(
        model.node_map[static_cast<std::size_t>(query.q)])];
    if (query.kind == QueryKind::kResponse) {
      solve(&p, &one, 1);
      solve(&q, &one, 1);
    } else if (p != q) {
      const index_t idx[2] = {p, q};
      const real_t val[2] = {1.0, -1.0};
      solve(idx, val, 2);
    }
  }
  ReachStats out;
  if (nodes.empty()) return out;
  out.nodes_mean = nodes_stats.mean();
  out.nodes_p99 = quantile(std::move(nodes), 0.99);
  out.entries_mean = entries.mean();
  return out;
}

/// Largest |served - reference| / (1 + |reference|) over every
/// kReferenceStride-th query of the batch. The reference is a full forward
/// + backward solve_permuted on `g`, a separately built factor of G: its
/// dense solves share no code with the served reach solves.
double max_rel_vs_solve_reference(const ReducedModel& model,
                                  const CholFactor& g,
                                  const std::vector<PortQuery>& batch,
                                  const std::vector<real_t>& served) {
  constexpr std::size_t kReferenceStride = 20;
  const auto permuted = [&](index_t original) {
    return static_cast<std::size_t>(g.inv_perm[static_cast<std::size_t>(
        model.node_map[static_cast<std::size_t>(original)])]);
  };
  double worst = 0.0;
  std::vector<real_t> x;
  for (std::size_t i = 0; i < batch.size(); i += kReferenceStride) {
    const PortQuery& query = batch[i];
    const std::size_t p = permuted(query.p);
    const std::size_t q = permuted(query.q);
    x.assign(static_cast<std::size_t>(g.n), 0.0);
    x[p] += 1.0;
    if (query.kind == QueryKind::kResistance) x[q] -= 1.0;
    g.solve_permuted(x);
    const double want =
        query.kind == QueryKind::kResistance ? x[p] - x[q] : x[q];
    worst = std::max(worst,
                     std::abs(served[i] - want) / (1.0 + std::abs(want)));
  }
  return worst;
}

std::vector<PortQuery> make_batch(const ReducedModel& model,
                                  std::size_t count, std::uint64_t seed) {
  std::vector<index_t> kept;
  for (std::size_t v = 0; v < model.node_map.size(); ++v)
    if (model.node_map[v] >= 0) kept.push_back(static_cast<index_t>(v));
  std::vector<PortQuery> batch;
  batch.reserve(count);
  Rng rng(seed);
  const auto n = static_cast<index_t>(kept.size());
  for (std::size_t i = 0; i < count; ++i) {
    PortQuery query;
    query.kind = i % 2 == 0 ? QueryKind::kResistance : QueryKind::kResponse;
    query.p = kept[static_cast<std::size_t>(rng.uniform_int(n))];
    query.q = kept[static_cast<std::size_t>(rng.uniform_int(n))];
    batch.push_back(query);
  }
  return batch;
}

/// Mixed update+query mode: per (case, threads), stream kChurnMods
/// modifications through an AsyncUpdater-driven reducer while answering
/// query batches, then validate the final published snapshot bitwise
/// against a synchronous sequential twin.
int run_churn(const bench::BenchOptions& bopts) {
  constexpr int kChurnMods = 10;
  constexpr std::size_t kChurnBatch = 2000;

  std::vector<int> thread_counts{1};
  for (int t = 2; t <= bopts.threads; t *= 2) thread_counts.push_back(t);

  TablePrinter table({"Case", "Threads", "Mods", "Batches", "PubLat(ms)",
                      "MaxStale", "Blocked", "kQPS", "Identical"});
  bench::BenchJson json;
  obs::MetricsSnapshot metrics_dump;
  bool all_ok = true;

  for (const auto& [name, pg] : bench::table2_suite()) {
    const ConductanceNetwork net = pg.to_network();
    std::fprintf(stderr, "[serving --churn] %s: n=%d resistors=%zu\n",
                 name.c_str(), pg.num_nodes, pg.resistors.size());

    for (int threads : thread_counts) {
      ReductionOptions ropts;
      ropts.num_blocks = 32;
      ropts.sparsify_quality = 1.0;
      ropts.parallel.num_threads = threads;

      // Per-iteration registry: serving-side series (store / front-end /
      // query pool / updater) start from zero for this (case, threads)
      // pair, so histogram counts can be cross-checked against the legacy
      // Stats accessors exactly. The reducer records into the global
      // registry (folded into the dump at the end).
      obs::MetricsRegistry reg;
      ModelStore store(&reg);
      IncrementalReducer reducer(net, pg.port_mask(), ropts);
      reducer.attach_store(&store);
      const QueryFrontEnd frontend(&store, &reg);
      const auto batch = make_batch(reducer.model(), kChurnBatch, 2029);
      // The worker mutates reducer.structure() during updates; capture the
      // routing info the submitter needs up front.
      const BlockStructure structure = reducer.structure();

      // Pre-build the deterministic modification stream (cumulative
      // states, the AsyncUpdater submission contract).
      std::vector<ConductanceNetwork> nets;
      std::vector<GridModification> mods;
      {
        ConductanceNetwork current = net;
        for (int u = 1; u <= kChurnMods; ++u) {
          const GridModification mod = random_modification(
              structure.num_blocks, 0.1, 1.2,
              static_cast<std::uint64_t>(4000 + u));
          current = apply_modification(current, structure, mod);
          nets.push_back(current);
          mods.push_back(mod);
        }
      }

      std::unique_ptr<ThreadPool> qpool;
      if (threads > 1) qpool = std::make_unique<ThreadPool>(threads, &reg);
      // Production back-pressure configuration: the edit stream may run at
      // most kStalenessBound modifications ahead of the store; a submit at
      // the bound blocks (fail_fast=false) until the worker catches up.
      constexpr std::uint64_t kStalenessBound = 6;
      AsyncUpdater::Options uopts;
      uopts.max_staleness_mods = kStalenessBound;
      uopts.registry = &reg;
      AsyncUpdater updater(
          [&reducer](const ConductanceNetwork& m,
                     const std::vector<index_t>& dirty) {
            reducer.update(m, dirty);
            return reducer.revision();
          },
          uopts);

      // Churn phase: submit one modification, answer one batch, repeat —
      // queries overlap the background update+publish cycles.
      std::size_t queries_answered = 0;
      std::uint64_t stale_sum = 0, stale_max = 0;
      std::uint64_t vstale_sum = 0, vstale_max = 0;
      std::size_t stale_samples = 0;
      Timer churn_timer;
      double query_seconds = 0.0;
      for (int u = 0; u < kChurnMods; ++u) {
        updater.submit(nets[static_cast<std::size_t>(u)],
                       mods[static_cast<std::size_t>(u)].dirty_blocks);
        BatchStats bstats;
        Timer bt;
        (void)frontend.answer(batch, qpool.get(), &bstats);
        query_seconds += bt.seconds();
        queries_answered += batch.size();
        const std::uint64_t submitted = static_cast<std::uint64_t>(u) + 1;
        const std::uint64_t reflected =
            updater.mods_reflected(bstats.snapshot_version);
        const std::uint64_t stale =
            submitted > reflected ? submitted - reflected : 0;
        stale_sum += stale;
        stale_max = std::max(stale_max, stale);
        // Model versions the pinned snapshot trails the newest publish by
        // (sampled at batch end, so publishes racing the batch count).
        // current_version() is optional since the 0-ambiguity fix; the
        // attach-time publish guarantees a value here.
        const std::uint64_t latest =
            store.current_version().value_or(bstats.snapshot_version);
        const std::uint64_t vstale = latest > bstats.snapshot_version
                                         ? latest - bstats.snapshot_version
                                         : 0;
        vstale_sum += vstale;
        vstale_max = std::max(vstale_max, vstale);
        ++stale_samples;
      }
      updater.flush();
      const double churn_seconds = churn_timer.seconds();
      const AsyncUpdater::Stats ustats = updater.stats();
      const SnapshotPtr final_snap = store.acquire();

      // Registry cross-checks against the legacy accessors: the metrics
      // layer must tell the same story as Stats/BatchStats, or one of the
      // two bookkeeping paths is lying.
      const obs::MetricsSnapshot reg_snap = reg.snapshot();
      const obs::MetricSnapshot* query_hist = reg_snap.find(
          "er_query_latency_seconds", {{"mode", "sharded"}});
      const obs::MetricSnapshot* publish_hist =
          reg_snap.find("er_updater_publish_latency_seconds");
      const obs::MetricSnapshot* stale_gauge =
          reg_snap.find("er_updater_staleness_mods");
      const obs::MetricSnapshot* stale_high =
          reg_snap.find("er_updater_staleness_mods_high_water");
      if (!query_hist || query_hist->histogram.count != queries_answered) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d er_query_latency_seconds count "
                     "%llu != %zu queries answered\n",
                     name.c_str(), threads,
                     query_hist ? static_cast<unsigned long long>(
                                      query_hist->histogram.count)
                                : 0ULL,
                     queries_answered);
        all_ok = false;
      }
      if (!publish_hist ||
          publish_hist->histogram.count != ustats.batches) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d er_updater_publish_latency_"
                     "seconds count != Stats::batches (%llu)\n",
                     name.c_str(), threads,
                     static_cast<unsigned long long>(ustats.batches));
        all_ok = false;
      }
      if (!stale_gauge || stale_gauge->gauge != 0) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d er_updater_staleness_mods != 0 "
                     "after flush\n",
                     name.c_str(), threads);
        all_ok = false;
      }
      if (!stale_high ||
          static_cast<std::uint64_t>(stale_high->gauge) !=
              ustats.max_observed_staleness_mods) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d staleness high-water gauge != "
                     "Stats::max_observed_staleness_mods\n",
                     name.c_str(), threads);
        all_ok = false;
      }
      const auto publish_ms = [publish_hist](double q) {
        return publish_hist ? publish_hist->histogram.quantile(q) * 1e3
                            : 0.0;
      };

      // Validation: a synchronous twin applies the same stream one update
      // at a time; the async final model must match it bit-for-bit, and
      // the last published snapshot must answer bit-identically to a
      // fresh snapshot of the twin's model.
      IncrementalReducer twin(net, pg.port_mask(), ropts);
      for (int u = 0; u < kChurnMods; ++u)
        twin.update(nets[static_cast<std::size_t>(u)],
                    mods[static_cast<std::size_t>(u)].dirty_blocks);
      bool identical = models_identical(reducer.model(), twin.model());
      const auto twin_snap = ModelSnapshot::build(twin.model());
      const auto want = QueryFrontEnd::answer_on(*twin_snap, batch);
      const auto got = QueryFrontEnd::answer_on(*final_snap, batch);
      for (std::size_t i = 0; i < want.size(); ++i)
        identical = identical && want[i] == got[i];
      if (!identical) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d async churn diverged from the "
                     "synchronous sequential path\n",
                     name.c_str(), threads);
        all_ok = false;
      }

      const double qps =
          query_seconds > 0.0
              ? static_cast<double>(queries_answered) / query_seconds
              : 0.0;
      const double publish_latency_mean =
          ustats.batches > 0
              ? ustats.total_publish_latency_seconds /
                    static_cast<double>(ustats.batches)
              : 0.0;
      const double stale_mean =
          stale_samples > 0
              ? static_cast<double>(stale_sum) /
                    static_cast<double>(stale_samples)
              : 0.0;
      const double vstale_mean =
          stale_samples > 0
              ? static_cast<double>(vstale_sum) /
                    static_cast<double>(stale_samples)
              : 0.0;

      table.add_row({name, TablePrinter::fmt_int(threads),
                     TablePrinter::fmt_int(kChurnMods),
                     TablePrinter::fmt_int(static_cast<int>(ustats.batches)),
                     TablePrinter::fmt(publish_latency_mean * 1000.0, 2),
                     TablePrinter::fmt_int(static_cast<int>(stale_max)),
                     TablePrinter::fmt_int(
                         static_cast<int>(ustats.blocked_submits)),
                     TablePrinter::fmt(qps / 1000.0, 1),
                     identical ? "yes" : "NO"});
      auto& row = json.add_row();
      row.set("bench", "serving")
          .set("case", name)
          .set("mode", "churn")
          .set("threads", threads)
          .set("queries", queries_answered)
          .set("reduced_nodes",
               static_cast<long long>(
                   final_snap->model().stats.reduced_nodes))
          .set("boundary_nodes",
               static_cast<long long>(final_snap->num_boundary_nodes()))
          .set("blocks", static_cast<int>(final_snap->model().block_kept.size()))
          .set("mods_submitted", ustats.submitted)
          .set("update_batches", ustats.batches)
          .set("mods_coalesced", ustats.coalesced)
          .set("publish_latency_mean_seconds", publish_latency_mean)
          .set("publish_latency_max_seconds",
               ustats.max_publish_latency_seconds)
          .set("publish_latency_p50_ms", publish_ms(0.50))
          .set("publish_latency_p95_ms", publish_ms(0.95))
          .set("publish_latency_p99_ms", publish_ms(0.99))
          .set("staleness_mean_mods", stale_mean)
          .set("staleness_max_mods", stale_max)
          .set("staleness_mean_versions", vstale_mean)
          .set("staleness_max_versions", vstale_max)
          .set("queries_per_second", qps)
          .set("churn_wall_seconds", churn_seconds)
          .set("publish_seconds", reducer.publish_seconds())
          // Publish accounting: the bytes of serving state the last
          // publish materialized (the factor of G) vs. the whole model's
          // footprint (the model itself is aliased, never copied).
          .set("publish_bytes_materialized",
               static_cast<long long>(reducer.publish_bytes_materialized()))
          .set("model_footprint_bytes",
               static_cast<long long>(
                   model_footprint_bytes(final_snap->model())))
          // Back-pressure figures (bound = staleness_bound_mods).
          .set("staleness_bound_mods", kStalenessBound)
          .set("blocked_submits", ustats.blocked_submits)
          .set("rejected_submits", ustats.rejected)
          .set("max_observed_staleness_mods",
               ustats.max_observed_staleness_mods)
          .set("identical", identical);
      set_query_latency_fields(row, reg_snap);
      metrics_dump.merge(reg_snap);
    }
  }

  std::printf("\nServing under churn — %d async modifications per case while "
              "%zu-query batches race\n(final model must be bit-identical to "
              "the synchronous sequential path)\n\n",
              kChurnMods, kChurnBatch);
  table.print();
  const int json_status = bench::write_json_or_report(json, bopts);
  const int metrics_status = write_metrics_dump(metrics_dump, bopts);
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: churn serving diverged\n");
    return 1;
  }
  return json_status != 0 ? json_status : metrics_status;
}

/// Result-cache scenario: per (case, threads), stream Zipf(S)-skewed
/// resistance queries over a fixed pair pool through a store-attached
/// ResultCache while the AsyncUpdater churns modifications underneath.
/// Every cached batch is validated bitwise against an uncached twin on
/// the same pinned snapshot, and the registry's er_cache_* counters are
/// cross-checked against the accumulated BatchStats.
int run_zipf(const bench::BenchOptions& bopts) {
  constexpr int kChurnMods = 10;
  constexpr int kZipfBatchesPerMod = 4;
  constexpr std::size_t kZipfBatch = 500;
  // Pool smaller than a mod-cycle's draw count (4 * 500), so a skewed
  // working set revisits keys within a version.
  constexpr std::size_t kPoolPairs = 384;

  std::vector<int> thread_counts{1};
  for (int t = 2; t <= bopts.threads; t *= 2) thread_counts.push_back(t);

  TablePrinter table({"Case", "Threads", "S", "Batches", "HitRate",
                      "kQPS(cache)", "kQPS(raw)", "Entries", "Evict",
                      "Inval", "Identical"});
  bench::BenchJson json;
  obs::MetricsSnapshot metrics_dump;
  bool all_ok = true;

  for (const auto& [name, pg] : bench::table2_suite()) {
    const ConductanceNetwork net = pg.to_network();
    std::fprintf(stderr, "[serving --zipf %.2f] %s: n=%d resistors=%zu\n",
                 bopts.zipf, name.c_str(), pg.num_nodes, pg.resistors.size());

    for (int threads : thread_counts) {
      ReductionOptions ropts;
      ropts.num_blocks = 32;
      ropts.sparsify_quality = 1.0;
      ropts.parallel.num_threads = threads;

      obs::MetricsRegistry reg;
      // The uncached twin batches record into a registry of their own, so
      // `reg`'s query-latency / cache series describe the cached path only.
      obs::MetricsRegistry uncached_reg;
      ModelStore store(&reg);
      IncrementalReducer reducer(net, pg.port_mask(), ropts);
      reducer.attach_store(&store);
      // Attach after the initial publish: attach_cache registers the
      // already-current snapshot, each later publish a fresh scope.
      const auto cache =
          std::make_shared<ResultCache>(ResultCacheOptions{}, &reg);
      store.attach_cache(cache);
      const BlockStructure structure = reducer.structure();

      // Fixed pair pool over kept (non-eliminated) nodes; the Zipf sampler
      // ranks it so low ranks dominate the stream.
      std::vector<PortQuery> pool_pairs;
      {
        const ReducedModel& model = reducer.model();
        std::vector<index_t> kept;
        for (std::size_t v = 0; v < model.node_map.size(); ++v)
          if (model.node_map[v] >= 0) kept.push_back(static_cast<index_t>(v));
        Rng rng(2031);
        const auto n = static_cast<index_t>(kept.size());
        pool_pairs.reserve(kPoolPairs);
        for (std::size_t i = 0; i < kPoolPairs; ++i) {
          PortQuery query;
          query.kind = QueryKind::kResistance;
          query.p = kept[static_cast<std::size_t>(rng.uniform_int(n))];
          query.q = kept[static_cast<std::size_t>(rng.uniform_int(n))];
          pool_pairs.push_back(query);
        }
      }
      const bench::ZipfSampler sampler(pool_pairs.size(), bopts.zipf);

      // Deterministic modification stream, identical contract to --churn.
      std::vector<ConductanceNetwork> nets;
      std::vector<GridModification> mods;
      {
        ConductanceNetwork current = net;
        for (int u = 1; u <= kChurnMods; ++u) {
          const GridModification mod = random_modification(
              structure.num_blocks, 0.1, 1.2,
              static_cast<std::uint64_t>(4000 + u));
          current = apply_modification(current, structure, mod);
          nets.push_back(current);
          mods.push_back(mod);
        }
      }

      std::unique_ptr<ThreadPool> qpool;
      if (threads > 1) qpool = std::make_unique<ThreadPool>(threads, &reg);
      AsyncUpdater::Options uopts;
      uopts.max_staleness_mods = 6;
      uopts.registry = &reg;
      AsyncUpdater updater(
          [&reducer](const ConductanceNetwork& m,
                     const std::vector<index_t>& dirty) {
            reducer.update(m, dirty);
            return reducer.revision();
          },
          uopts);

      // Churn + query phase. Each batch pins one snapshot and is answered
      // twice — through the cache and from scratch — so the bitwise check
      // cannot be confused by a publish landing between the two runs.
      std::size_t queries_answered = 0;
      std::size_t hits = 0, misses = 0;
      double cached_seconds = 0.0, uncached_seconds = 0.0;
      bool identical = true;
      Rng draw_rng(2033);
      for (int u = 0; u < kChurnMods; ++u) {
        updater.submit(nets[static_cast<std::size_t>(u)],
                       mods[static_cast<std::size_t>(u)].dirty_blocks);
        for (int b = 0; b < kZipfBatchesPerMod; ++b) {
          std::vector<PortQuery> batch;
          batch.reserve(kZipfBatch);
          for (std::size_t i = 0; i < kZipfBatch; ++i)
            batch.push_back(pool_pairs[sampler.sample(draw_rng.uniform())]);
          const SnapshotPtr snap = store.acquire();
          BatchStats cached_stats;
          Timer ct;
          AnswerContext cached_ctx;
          cached_ctx.pool = qpool.get();
          cached_ctx.stats = &cached_stats;
          cached_ctx.registry = &reg;
          cached_ctx.cache = cache.get();
          const auto cached_answers =
              QueryFrontEnd::answer_on(*snap, batch, cached_ctx);
          cached_seconds += ct.seconds();
          BatchStats uncached_stats;
          Timer ut;
          AnswerContext uncached_ctx;
          uncached_ctx.pool = qpool.get();
          uncached_ctx.stats = &uncached_stats;
          uncached_ctx.registry = &uncached_reg;
          const auto uncached_answers =
              QueryFrontEnd::answer_on(*snap, batch, uncached_ctx);
          uncached_seconds += ut.seconds();
          for (std::size_t i = 0; i < batch.size(); ++i)
            identical =
                identical && cached_answers[i] == uncached_answers[i];
          hits += cached_stats.cache_hits;
          misses += cached_stats.cache_misses;
          queries_answered += batch.size();
        }
      }
      updater.flush();
      const SnapshotPtr final_snap = store.acquire();
      if (!identical) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d cached batch diverged from its "
                     "uncached twin\n",
                     name.c_str(), threads);
        all_ok = false;
      }

      // Registry cross-checks: the cache's own counters must tell the same
      // story as the per-batch stats the front-end returned.
      const obs::MetricsSnapshot reg_snap = reg.snapshot();
      const obs::MetricSnapshot* hits_counter =
          reg_snap.find("er_cache_hits_total");
      const obs::MetricSnapshot* misses_counter =
          reg_snap.find("er_cache_misses_total");
      if (!hits_counter ||
          static_cast<std::size_t>(hits_counter->counter) != hits ||
          !misses_counter ||
          static_cast<std::size_t>(misses_counter->counter) != misses) {
        std::fprintf(
            stderr,
            "ERROR: %s threads=%d er_cache_{hits,misses}_total "
            "disagree with BatchStats (counters %llu/%llu, stats "
            "%zu/%zu)\n",
            name.c_str(), threads,
            static_cast<unsigned long long>(
                hits_counter ? hits_counter->counter : 0),
            static_cast<unsigned long long>(
                misses_counter ? misses_counter->counter : 0),
            hits, misses);
        all_ok = false;
      }

      const double hit_rate =
          hits + misses > 0
              ? static_cast<double>(hits) /
                    static_cast<double>(hits + misses)
              : 0.0;
      // The acceptance bar: a skewed stream (S >= 1) over a pool smaller
      // than the per-version draw count must clear a 50% hit rate even
      // with 10% of blocks going dirty every publish.
      if (bopts.zipf >= 1.0 && hit_rate < 0.5) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d hit rate %.3f below the 0.5 "
                     "floor at zipf %.2f\n",
                     name.c_str(), threads, hit_rate, bopts.zipf);
        all_ok = false;
      }

      const double qps =
          cached_seconds > 0.0
              ? static_cast<double>(queries_answered) / cached_seconds
              : 0.0;
      const double qps_uncached =
          uncached_seconds > 0.0
              ? static_cast<double>(queries_answered) / uncached_seconds
              : 0.0;
      table.add_row(
          {name, TablePrinter::fmt_int(threads),
           TablePrinter::fmt(bopts.zipf, 2),
           TablePrinter::fmt_int(kChurnMods * kZipfBatchesPerMod),
           TablePrinter::fmt(hit_rate, 3),
           TablePrinter::fmt(qps / 1000.0, 1),
           TablePrinter::fmt(qps_uncached / 1000.0, 1),
           TablePrinter::fmt_size(static_cast<long long>(cache->entries())),
           TablePrinter::fmt_size(static_cast<long long>(cache->evictions())),
           TablePrinter::fmt_size(
               static_cast<long long>(cache->invalidations())),
           identical ? "yes" : "NO"});
      auto& row = json.add_row();
      row.set("bench", "serving")
          .set("case", name)
          .set("mode", "zipf")
          .set("threads", threads)
          .set("queries", queries_answered)
          .set("reduced_nodes",
               static_cast<long long>(
                   final_snap->model().stats.reduced_nodes))
          .set("boundary_nodes",
               static_cast<long long>(final_snap->num_boundary_nodes()))
          .set("blocks", static_cast<int>(final_snap->model().block_kept.size()))
          .set("zipf_s", bopts.zipf)
          .set("pool_pairs", kPoolPairs)
          .set("mods_submitted", static_cast<std::size_t>(kChurnMods))
          .set("cache_hit_rate", hit_rate)
          .set("cache_hits", hits)
          .set("cache_misses", misses)
          .set("cache_entries", cache->entries())
          .set("cache_evictions",
               static_cast<long long>(cache->evictions()))
          .set("cache_invalidations",
               static_cast<long long>(cache->invalidations()))
          .set("queries_per_second", qps)
          .set("queries_per_second_uncached", qps_uncached)
          .set("identical", identical);
      set_query_latency_fields(row, reg_snap);
      metrics_dump.merge(reg_snap);
    }
  }

  std::printf("\nServing through the result cache — Zipf(%.2f) over %zu "
              "pairs, %d mods churning\n(cached batches must be "
              "bit-identical to their uncached twins)\n\n",
              bopts.zipf, kPoolPairs, kChurnMods);
  table.print();
  const int json_status = bench::write_json_or_report(json, bopts);
  const int metrics_status = write_metrics_dump(metrics_dump, bopts);
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: zipf cache scenario failed\n");
    return 1;
  }
  return json_status != 0 ? json_status : metrics_status;
}

/// Nearest-rank percentile of a *sorted* sample vector, in microseconds.
double percentile_us(const std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted_seconds.size() - 1) + 0.5);
  return sorted_seconds[std::min(idx, sorted_seconds.size() - 1)] * 1e6;
}

/// Network serving mode (--loopback, DESIGN.md §8): per (case, clients),
/// stand up the full daemon core in-process (ServingStack + Server on an
/// ephemeral loopback port) and drive it with `clients` concurrent
/// LoopbackClient connections. Phase A measures static end-to-end QPS and
/// client-observed request latency, validating every answer bitwise
/// against the direct QueryFrontEnd call; phase B streams modifications
/// through the wire-level mod feed under concurrent queries (kRetryLater
/// is an expected, counted outcome), then validates the post-churn answers
/// bitwise again and cross-checks the er_net_* counters against the
/// client-side tallies.
int run_loopback(const bench::BenchOptions& bopts) {
  constexpr int kMods = 6;
  constexpr std::size_t kBatchPerRequest = 64;
  constexpr std::size_t kRequestsPerClient = 40;

  std::vector<int> client_counts{1};
  for (int c = 2; c <= bopts.threads; c *= 2) client_counts.push_back(c);

  TablePrinter table({"Case", "Clients", "Requests", "kQPS", "p50(us)",
                      "p95(us)", "p99(us)", "Retry", "Identical"});
  bench::BenchJson json;
  obs::MetricsSnapshot metrics_dump;
  bool all_ok = true;

  for (const auto& [name, pg] : bench::table2_suite()) {
    const ConductanceNetwork grid_net = pg.to_network();
    const std::vector<char> is_port = pg.port_mask();
    std::fprintf(stderr, "[serving --loopback] %s: n=%d resistors=%zu\n",
                 name.c_str(), pg.num_nodes, pg.resistors.size());

    for (int clients : client_counts) {
      obs::MetricsRegistry reg;
      net::StackOptions stack_opts;
      stack_opts.reduction.num_blocks = 32;
      stack_opts.reduction.sparsify_quality = 1.0;
      net::ServingStack stack(grid_net, is_port, stack_opts, &reg);

      net::ServerOptions server_opts;
      server_opts.enable_http = false;
      server_opts.dispatcher_threads = 2;
      server_opts.query_threads = clients > 1 ? 2 : 1;
      server_opts.admission_capacity = 256;
      server_opts.registry = &reg;
      net::Server server(&stack.store(), server_opts, stack.mod_fn());
      if (!server.start()) {
        std::fprintf(stderr, "ERROR: %s clients=%d could not bind the "
                     "loopback listener\n", name.c_str(), clients);
        return 1;
      }

      const SnapshotPtr snap0 = stack.store().acquire();
      const auto batch =
          make_batch(snap0->model(), kBatchPerRequest, 2027 + clients);
      const std::vector<real_t> direct = stack.frontend().answer(batch);

      const auto matches = [&](const std::vector<real_t>& answers,
                               const std::vector<real_t>& want) {
        return answers.size() == want.size() &&
               std::memcmp(answers.data(), want.data(),
                           want.size() * sizeof(real_t)) == 0;
      };

      // Phase A: static end-to-end throughput + client-observed latency.
      std::atomic<bool> failed{false};
      std::atomic<std::uint64_t> retry_responses{0};
      std::atomic<std::uint64_t> requests_answered{0};
      std::vector<std::vector<double>> latencies(
          static_cast<std::size_t>(clients));
      std::vector<std::thread> workers;
      Timer phase_a_timer;
      for (int c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
          try {
            net::LoopbackClient client("127.0.0.1", server.port());
            auto& samples = latencies[static_cast<std::size_t>(c)];
            samples.reserve(kRequestsPerClient);
            for (std::size_t r = 0; r < kRequestsPerClient; ++r) {
              for (;;) {
                Timer t;
                const auto res = client.query(batch);
                if (res.retry_later) {
                  ++retry_responses;
                  continue;
                }
                samples.push_back(t.seconds());
                ++requests_answered;
                if (!matches(res.answers, direct)) failed = true;
                break;
              }
            }
          } catch (...) {
            failed = true;
          }
        });
      }
      for (auto& w : workers) w.join();
      const double phase_a_seconds = phase_a_timer.seconds();
      const std::size_t phase_a_queries =
          static_cast<std::size_t>(clients) * kRequestsPerClient *
          batch.size();

      std::vector<double> sorted;
      for (const auto& s : latencies)
        sorted.insert(sorted.end(), s.begin(), s.end());
      std::sort(sorted.begin(), sorted.end());

      // Phase B: churn the mod feed through the wire while queries keep
      // flowing. Back-pressure (kRetryLater) is expected and counted; the
      // feeder retries until every modification is accepted.
      std::thread feeder([&] {
        try {
          net::LoopbackClient mod_client("127.0.0.1", server.port());
          for (int m = 0; m < kMods; ++m) {
            net::WireModification mod;
            mod.dirty_blocks = {static_cast<index_t>(
                m % static_cast<int>(stack.structure().num_blocks))};
            mod.resistance_scale = 1.05;
            while (mod_client.submit_mod(mod) ==
                   net::LoopbackClient::ModOutcome::kRetryLater) {
              ++retry_responses;
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          }
        } catch (...) {
          failed = true;
        }
      });
      std::vector<std::thread> churn_workers;
      std::atomic<std::uint64_t> churn_queries{0};
      for (int c = 0; c < clients; ++c) {
        churn_workers.emplace_back([&] {
          try {
            net::LoopbackClient client("127.0.0.1", server.port());
            for (std::size_t r = 0; r < kRequestsPerClient / 4; ++r) {
              const auto res = client.query(batch);
              if (res.retry_later) {
                ++retry_responses;
              } else {
                ++requests_answered;
                churn_queries += batch.size();
              }
            }
          } catch (...) {
            failed = true;
          }
        });
      }
      feeder.join();
      for (auto& w : churn_workers) w.join();
      stack.flush();

      // Post-churn validation: the wire answers on the final published
      // snapshot must be bit-identical to the direct call.
      const std::vector<real_t> final_direct = stack.frontend().answer(batch);
      bool identical = !failed.load();
      try {
        net::LoopbackClient verify_client("127.0.0.1", server.port());
        for (;;) {
          const auto res = verify_client.query(batch);
          if (res.retry_later) {
            ++retry_responses;
            continue;
          }
          ++requests_answered;
          identical = identical && matches(res.answers, final_direct);
          break;
        }
      } catch (...) {
        identical = false;
      }
      if (stack.mods_accepted() != static_cast<std::uint64_t>(kMods)) {
        std::fprintf(stderr,
                     "ERROR: %s clients=%d accepted %llu of %d mods\n",
                     name.c_str(), clients,
                     static_cast<unsigned long long>(stack.mods_accepted()),
                     kMods);
        identical = false;
      }

      server.stop();
      const obs::MetricsSnapshot reg_snap = reg.snapshot();

      // Registry cross-checks: the net-layer counters must tell the same
      // story as the client-side tallies. Admitted er_batch requests equal
      // answered ones (each admitted request gets exactly one kAnswer),
      // and er_net_rejected_total equals the kRetryLater frames observed.
      const obs::MetricSnapshot* req_counter = reg_snap.find(
          "er_net_requests_total", {{"opcode", "er_batch"}});
      if (!req_counter || req_counter->counter != requests_answered.load()) {
        std::fprintf(stderr,
                     "ERROR: %s clients=%d er_net_requests_total"
                     "{opcode=er_batch} %llu != %llu answered requests\n",
                     name.c_str(), clients,
                     static_cast<unsigned long long>(
                         req_counter ? req_counter->counter : 0),
                     static_cast<unsigned long long>(
                         requests_answered.load()));
        all_ok = false;
      }
      const obs::MetricSnapshot* rejected_counter =
          reg_snap.find("er_net_rejected_total");
      if (!rejected_counter ||
          rejected_counter->counter != retry_responses.load()) {
        std::fprintf(stderr,
                     "ERROR: %s clients=%d er_net_rejected_total %llu != "
                     "%llu client-observed kRetryLater frames\n",
                     name.c_str(), clients,
                     static_cast<unsigned long long>(
                         rejected_counter ? rejected_counter->counter : 0),
                     static_cast<unsigned long long>(retry_responses.load()));
        all_ok = false;
      }
      all_ok = all_ok && identical;

      const SnapshotPtr final_snap = stack.store().acquire();
      const double qps = phase_a_seconds > 0.0
                             ? static_cast<double>(phase_a_queries) /
                                   phase_a_seconds
                             : 0.0;
      table.add_row(
          {name, TablePrinter::fmt_int(clients),
           TablePrinter::fmt_size(
               static_cast<long long>(requests_answered.load())),
           TablePrinter::fmt(qps / 1000.0, 1),
           TablePrinter::fmt(percentile_us(sorted, 0.50), 0),
           TablePrinter::fmt(percentile_us(sorted, 0.95), 0),
           TablePrinter::fmt(percentile_us(sorted, 0.99), 0),
           TablePrinter::fmt_size(
               static_cast<long long>(retry_responses.load())),
           identical ? "yes" : "NO"});
      auto& row = json.add_row();
      row.set("bench", "serving")
          .set("case", name)
          .set("mode", "loopback")
          .set("threads", clients)
          .set("clients", clients)
          .set("queries",
               phase_a_queries + static_cast<std::size_t>(
                                     churn_queries.load()) + batch.size())
          .set("reduced_nodes",
               static_cast<long long>(
                   final_snap->model().stats.reduced_nodes))
          .set("boundary_nodes",
               static_cast<long long>(final_snap->num_boundary_nodes()))
          .set("blocks", static_cast<int>(final_snap->model().block_kept.size()))
          .set("queries_per_second", qps)
          .set("request_latency_p50_us", percentile_us(sorted, 0.50))
          .set("request_latency_p95_us", percentile_us(sorted, 0.95))
          .set("request_latency_p99_us", percentile_us(sorted, 0.99))
          .set("requests_total",
               static_cast<std::size_t>(requests_answered.load()))
          .set("retry_later_responses",
               static_cast<std::size_t>(retry_responses.load()))
          .set("mods_submitted", static_cast<std::size_t>(kMods))
          .set("mods_applied",
               static_cast<std::size_t>(stack.mods_accepted()))
          .set("identical", identical);
      set_query_latency_fields(row, reg_snap);
      metrics_dump.merge(reg_snap);
    }
  }

  std::printf("\nServing over loopback TCP — %zu-query batches through the "
              "net/ daemon core\n(every wire answer must be bit-identical "
              "to the direct QueryFrontEnd call)\n\n",
              kBatchPerRequest);
  table.print();
  const int json_status = bench::write_json_or_report(json, bopts);
  const int metrics_status = write_metrics_dump(metrics_dump, bopts);
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: loopback serving scenario failed\n");
    return 1;
  }
  return json_status != 0 ? json_status : metrics_status;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions bopts = bench::parse_bench_args(
      argc, argv, "BENCH_serving.json", /*default_threads=*/8,
      /*allow_churn=*/true);
  if (bopts.loopback) return run_loopback(bopts);
  if (bopts.zipf > 0.0) return run_zipf(bopts);
  if (bopts.churn) return run_churn(bopts);
  constexpr std::size_t kBatchSize = 10000;

  std::vector<int> thread_counts{1};
  for (int t = 2; t <= bopts.threads; t *= 2) thread_counts.push_back(t);

  TablePrinter table({"Case", "|V_red|", "Boundary", "Threads", "Batch(s)",
                      "kQPS", "Speedup", "Identical"});
  bench::BenchJson json;
  obs::MetricsSnapshot metrics_dump;
  bool all_ok = true;

  for (const auto& [name, pg] : bench::table2_suite()) {
    const ConductanceNetwork net = pg.to_network();
    std::fprintf(stderr, "[serving] %s: n=%d resistors=%zu\n", name.c_str(),
                 pg.num_nodes, pg.resistors.size());

    ReductionOptions ropts;
    ropts.num_blocks = 32;
    ropts.sparsify_quality = 1.0;
    const ReductionArtifacts art =
        reduce_network_artifacts(net, pg.port_mask(), ropts);

    ModelStore store;
    store.publish(ModelSnapshot::build(art));
    const SnapshotPtr snap = store.acquire();
    const auto batch = make_batch(*art.model, kBatchSize, 2027);
    // A separate factor of G: the reach statistics and the full-solve
    // reference both read it.
    const CholFactor g = cholesky(art.model->network.system_matrix());
    const ReachStats reach = reach_stats(*art.model, g, batch);

    std::vector<real_t> serial_answers;
    double serial_seconds = 0.0;
    double max_rel_vs_reference = 0.0;
    for (int threads : thread_counts) {
      // Each row gets its own registry, so its latency histogram covers
      // exactly one batch. Declared before the pool: the pool's destructor
      // still updates its thread gauge.
      obs::MetricsRegistry row_reg;
      std::unique_ptr<ThreadPool> pool;
      if (threads > 1) pool = std::make_unique<ThreadPool>(threads, &row_reg);
      BatchStats stats;
      Timer t;
      const std::vector<real_t> answers =
          QueryFrontEnd(&store, &row_reg).answer(batch, pool.get(), &stats);
      const double seconds = t.seconds();
      pool.reset();
      const obs::MetricsSnapshot row_snap = row_reg.snapshot();
      metrics_dump.merge(row_snap);
      // Per-query latency coverage: every query of the batch must have
      // recorded exactly one sample.
      const obs::MetricSnapshot* row_hist = row_snap.find(
          "er_query_latency_seconds", {{"mode", "sharded"}});
      if (!row_hist || row_hist->histogram.count != batch.size()) {
        std::fprintf(stderr,
                     "ERROR: %s threads=%d er_query_latency_seconds count "
                     "!= %zu batch queries\n",
                     name.c_str(), threads, batch.size());
        all_ok = false;
      }

      bool identical = true;
      if (threads == 1) {
        serial_answers = answers;
        serial_seconds = seconds;
        max_rel_vs_reference = max_rel_vs_solve_reference(*art.model, g, batch,
                                                          answers);
        if (max_rel_vs_reference > 1e-8) {
          std::fprintf(stderr,
                       "ERROR: %s diverged from the solve_permuted reference "
                       "(max rel %.3g)\n",
                       name.c_str(), max_rel_vs_reference);
          all_ok = false;
        }
      } else {
        for (std::size_t i = 0; i < answers.size(); ++i)
          identical = identical && answers[i] == serial_answers[i];
        all_ok = all_ok && identical;
      }

      const double qps =
          seconds > 0.0 ? static_cast<double>(batch.size()) / seconds : 0.0;
      const double speedup = seconds > 0.0 ? serial_seconds / seconds : 0.0;
      table.add_row({name, TablePrinter::fmt_size(snap->model().stats.reduced_nodes),
                     TablePrinter::fmt_size(snap->num_boundary_nodes()),
                     TablePrinter::fmt_int(threads),
                     TablePrinter::fmt(seconds, 3),
                     TablePrinter::fmt(qps / 1000.0, 1),
                     TablePrinter::fmt(speedup, 2) + "x",
                     identical ? "yes" : "NO"});
      auto& row = json.add_row();
      row.set("bench", "serving")
          .set("case", name)
          .set("mode", "standard")
          .set("threads", threads)
          .set("queries", batch.size())
          .set("reduced_nodes",
               static_cast<long long>(snap->model().stats.reduced_nodes))
          .set("boundary_nodes",
               static_cast<long long>(snap->num_boundary_nodes()))
          .set("blocks", static_cast<int>(art.model->block_kept.size()))
          .set("snapshot_build_seconds", snap->build_seconds())
          .set("wall_seconds", seconds)
          .set("queries_per_second", qps)
          .set("speedup", speedup)
          .set("identical", identical)
          .set("max_rel_vs_reference", max_rel_vs_reference)
          .set("reach_nodes_mean", reach.nodes_mean)
          .set("reach_nodes_p99", reach.nodes_p99)
          .set("factor_entries_touched_mean", reach.entries_mean);
      set_query_latency_fields(row, row_snap);
    }
  }

  std::printf("\nServing throughput — mixed %zu-query batches through the "
              "ModelStore\n(speedup relative to 1 thread; "
              "batches must be bit-identical)\n\n",
              kBatchSize);
  table.print();
  const int json_status = bench::write_json_or_report(json, bopts);
  const int metrics_status = write_metrics_dump(metrics_dump, bopts);
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: serving answers diverged\n");
    return 1;
  }
  return json_status != 0 ? json_status : metrics_status;
}
