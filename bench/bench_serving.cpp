// Serving bench: queries/sec through the ModelStore vs. thread count
// (DESIGN.md §4). For each grid, the reduction runs once, a ModelSnapshot
// is built and published, and a mixed 10k-query batch (port responses +
// effective resistances) is answered at 1/2/4/8 threads. Enforced
// invariants (exit 1 on violation):
//
//   * every multi-thread batch is bit-identical to the 1-thread batch
//     (per-query slot writes, shared immutable snapshot),
//   * every query records exactly one er_query_latency_seconds sample, and
//   * a sample of the served answers matches a full forward + backward
//     solve_permuted reference on a separate factor of G to 1e-8 relative.
//
// Traffic under updates, through the result cache and over the wire is
// measured open-loop by perfbench (`wire_zipf_churn`, `wire_uniform`);
// its contracts are pinned by test_async_updater, test_result_cache and
// test_net_daemon.
//
// Emits BENCH_serving.json (schema: bench/README.md), with per-query
// latency percentiles from the observability registry (DESIGN.md §6) and
// the etree-reach sizes of the batch's solves.
//
//   bench_serving [--threads N] [--json PATH]
//
// N is the *maximum* thread count swept (default 8).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chol/cholesky.hpp"
#include "obs/metrics.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "suite.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace er;

namespace {

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

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions bopts = bench::parse_bench_args(
      argc, argv, "BENCH_serving.json", /*default_threads=*/8);
  constexpr std::size_t kBatchSize = 10000;

  std::vector<int> thread_counts{1};
  for (int t = 2; t <= bopts.threads; t *= 2) thread_counts.push_back(t);

  TablePrinter table({"Case", "|V_red|", "Boundary", "Threads", "Batch(s)",
                      "kQPS", "Speedup", "Identical"});
  bench::BenchJson json;
  bool all_ok = true;

  for (const auto& [name, pg] : bench::table2_suite()) {
    const ConductanceNetwork net = pg.to_network();
    std::fprintf(stderr, "[serving] %s: n=%d resistors=%zu\n", name.c_str(),
                 pg.num_nodes, pg.resistors.size());

    ReductionOptions ropts;
    ropts.num_blocks = 32;
    ropts.sparsify_quality = 1.0;
    const ModelPtr model = reduce_network_frozen(net, pg.port_mask(), ropts);

    ModelStore store;
    store.publish(ModelSnapshot::build(model));
    const SnapshotPtr snap = store.acquire();
    const auto batch = make_batch(*model, kBatchSize, 2027);
    // A separate factor of G: the reach statistics and the full-solve
    // reference both read it.
    const CholFactor g = cholesky(model->network.system_matrix());
    const ReachStats reach = reach_stats(*model, g, batch);

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
      AnswerContext ctx;
      ctx.pool = pool.get();
      Timer t;
      const std::vector<real_t> answers =
          QueryFrontEnd(&store, &row_reg).answer(batch, ctx).values;
      const double seconds = t.seconds();
      pool.reset();
      const obs::MetricsSnapshot row_snap = row_reg.snapshot();
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
        max_rel_vs_reference =
            max_rel_vs_solve_reference(*model, g, batch, answers);
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
          .set("blocks", static_cast<int>(model->block_kept.size()))
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
  if (!all_ok) {
    std::fprintf(stderr, "ERROR: serving answers diverged\n");
    return 1;
  }
  return json_status;
}
