// paper_offline: the paper's offline flows with no server — Alg. 3 on the
// Table I stand-ins, and the Table II PG flow (full reduction, one
// 10 %-dirty incremental update, DC solve of the reduced model).
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "effres/approx_chol.hpp"
#include "effres/exact.hpp"
#include "pg/analysis.hpp"
#include "pg/incremental.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 9;
/// Edges per graph checked against ExactEffRes (1000 over the two graphs).
constexpr int kErrorEdgesPerGraph = 500;
/// Nominal length of one measured iteration (Alg. 3 on both graphs plus
/// the PG flows) on a 4-core machine, and the PG flows it runs.
constexpr double kIterationSeconds = 10.0;
constexpr int kFlowsPerIteration = 5;

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

}  // namespace

std::vector<PgFlow> run_pg_flow(const er::PowerGrid& grid, std::uint64_t seed,
                                int repeats) {
  const er::ConductanceNetwork net = grid.to_network();
  const std::vector<char> ports = grid.port_mask();
  const std::vector<er::index_t> port_nodes = grid.port_nodes();
  const std::vector<er::real_t> load = grid.load_vector(0.0);
  // bench_table2_incremental's configuration of the Alg. 3 flow.
  er::ReductionOptions ro;
  ro.backend = er::ErBackend::kApproxChol;
  ro.sparsify_quality = 1.0;
  ro.merge_threshold = 0.02;
  ro.parallel.num_threads = 4;

  std::vector<PgFlow> flows;
  for (int r = 0; r < repeats; ++r) {
    PgFlow f;
    const er::obs::MetricsSnapshot before =
        er::obs::MetricsRegistry::global().snapshot();
    std::int64_t t0 = now_ns();
    std::unique_ptr<er::IncrementalReducer> reducer;
    {
      Span span("pg.IncrementalReducer");
      reducer = std::make_unique<er::IncrementalReducer>(net, ports, ro);
    }
    f.reduce_s = seconds_since(t0);
    const er::obs::MetricsSnapshot after =
        er::obs::MetricsRegistry::global().snapshot();
    f.pool_busy_frac =
        static_cast<double>(counter_delta(before, after, "er_pool_busy_us_total")) *
        1e-6 / (ro.parallel.num_threads * f.reduce_s);
    f.pool_wait_p50_us =
        1e6 * histogram_delta(before, after, "er_pool_task_queue_wait_seconds")
                  .quantile(0.5);
    f.stats = reducer->model().stats;

    // Each repeat edits its own seeded 10 % of the blocks, so the medians
    // average over block choices instead of timing one of them.
    const er::GridModification mod = er::random_modification(
        reducer->structure().num_blocks, 0.10, 1.30,
        er::mix_seed(seed, 21 + static_cast<std::uint64_t>(r)));
    const er::ConductanceNetwork modified =
        er::apply_modification(net, reducer->structure(), mod);
    t0 = now_ns();
    const er::ReducedModel* model = nullptr;
    {
      Span span("pg.update");
      model = &reducer->update(modified, mod.dirty_blocks);
    }
    f.update_s = seconds_since(t0);
    t0 = now_ns();
    er::DcSolution reduced;
    {
      Span span("pg.solve_dc");
      reduced = er::solve_dc(model->network, er::map_injections(*model, load));
    }
    f.dc_solve_s = seconds_since(t0);

    std::vector<er::real_t> reference;  // full-grid drops of the modified grid
    {
      Span span("pg.solve_dc_full_grid");
      reference = er::solve_dc(modified, load).drops;
    }
    f.port_err_pct =
        100.0 * er::compare_dc(reference, reduced, *model, port_nodes).rel;
    flows.push_back(f);
  }
  return flows;
}

void run_paper_offline(const RunOptions& opts, Result& result) {
  // ---- set-up, repeated: the inputs.
  std::vector<double> setup_s;
  er::Graph social(0), circuit(0);
  er::PowerGrid grid;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    Span span("graph.generate");
    social = make_social_graph();
    circuit = make_circuit_graph();
    grid = make_grid();
    setup_s.push_back(seconds_since(t0));
  }
  Result::note("inputs: social n=%d m=%zu, circuit n=%d m=%zu, grid n=%d",
               social.num_nodes(), social.num_edges(), circuit.num_nodes(),
               circuit.num_edges(), grid.num_nodes);

  // Seeded edges of each graph whose Alg. 3 answers are checked against
  // ExactEffRes (1000 over the two graphs).
  const er::Graph* graphs[2] = {&social, &circuit};
  std::vector<er::ResistanceQuery> samples[2];
  std::vector<er::real_t> sampled_alg3[2];
  er::Rng rng(er::mix_seed(opts.seed, 31));
  for (int gi = 0; gi < 2; ++gi) {
    const er::Graph& g = *graphs[gi];
    for (int k = 0; k < kErrorEdgesPerGraph; ++k) {
      const er::Edge& e = g.edges()[static_cast<std::size_t>(
          rng.uniform_int(static_cast<er::index_t>(g.num_edges())))];
      samples[gi].emplace_back(e.u, e.v);
    }
  }

  // ---- measured loop: Alg. 3 on both graphs, then the PG flow, once per
  // kIterationSeconds of run time (at least once). A fixed count keeps
  // every run measuring the same work.
  std::vector<double> query_ms;  // per-edge Alg. 3 query latency
  double query_s_total = 0.0;
  std::uint64_t queries_total = 0;
  std::vector<double> alg3_s, inverse_s, factor_s;
  double factor_nnz = 0.0, nnz_ratio = 0.0, max_depth = 0.0;
  std::vector<PgFlow> flows;
  const int iterations =
      std::max(1, static_cast<int>(std::lround(opts.seconds / kIterationSeconds)));
  do {
    double alg3 = 0.0, inv = 0.0, fac = 0.0;
    double nnz_inverse = 0.0, nlogn = 0.0;
    factor_nnz = 0.0;
    max_depth = 0.0;
    for (int gi = 0; gi < 2; ++gi) {
      const er::Graph& g = *graphs[gi];
      std::int64_t t0 = now_ns();
      std::unique_ptr<er::ApproxCholEffRes> engine;
      {
        Span span("effres.ApproxCholEffRes");
        engine = std::make_unique<er::ApproxCholEffRes>(g);
      }
      alg3 += seconds_since(t0);
      const er::ApproxCholStats& st = engine->stats();
      inv += st.inverse_seconds;
      fac += st.factor_seconds;
      factor_nnz += static_cast<double>(st.factor_nnz);
      nnz_inverse += static_cast<double>(st.inverse_nnz);
      const double n = static_cast<double>(g.num_nodes());
      nlogn += n * std::log2(n);
      max_depth = std::max(max_depth, static_cast<double>(st.max_depth));

      t0 = now_ns();
      {
        Span span("effres.edge_queries");
        for (const er::Edge& e : g.edges()) {
          const std::int64_t q0 = now_ns();
          const er::real_t r = engine->resistance(e.u, e.v);
          query_ms.push_back(static_cast<double>(now_ns() - q0) * 1e-6);
          if (!(r > 0.0) || !std::isfinite(r))
            result.fail("Alg. 3 resistance not positive and finite");
        }
      }
      const double qs = seconds_since(t0);
      alg3 += qs;
      query_s_total += qs;
      queries_total += g.num_edges();
      result.attempt(g.num_edges());
      sampled_alg3[gi].clear();
      for (const auto& [p, q] : samples[gi])
        sampled_alg3[gi].push_back(engine->resistance(p, q));
    }
    nnz_ratio = nnz_inverse / nlogn;
    alg3_s.push_back(alg3);
    inverse_s.push_back(inv);
    factor_s.push_back(fac);
    for (const PgFlow& f :
         run_pg_flow(grid, er::mix_seed(opts.seed, alg3_s.size()), kFlowsPerIteration)) {
      flows.push_back(f);
      result.attempt(2);  // the update and the DC solve
    }
    Result::note("iteration %zu: Alg. 3 %.3f s, PG flow T_red %.3f s, "
                 "update %.3f s", alg3_s.size(), alg3, flows.back().reduce_s,
                 flows.back().update_s);
  } while (static_cast<int>(alg3_s.size()) < iterations);

  // ---- accuracy gates: Alg. 3 against ExactEffRes on the sampled edges,
  // and the reduced model's port voltages against the full grid.
  double err_sum = 0.0;
  int err_n = 0;
  {
    er::ThreadPool pool(4);
    for (int gi = 0; gi < 2; ++gi) {
      Span span("effres.ExactEffRes");
      const er::ExactEffRes exact(*graphs[gi]);
      std::vector<er::real_t> want(samples[gi].size());
      exact.resistances_into(samples[gi], want, &pool);
      for (std::size_t k = 0; k < want.size(); ++k) {
        err_sum += std::abs(sampled_alg3[gi][k] - want[k]) / want[k];
        ++err_n;
      }
    }
  }
  const double er_err = err_sum / err_n;
  std::vector<double> red, incr, port, update_ms;
  for (const PgFlow& f : flows) {
    red.push_back(f.reduce_s);
    incr.push_back(f.update_s + f.dc_solve_s);
    port.push_back(f.port_err_pct);
    update_ms.push_back(1e3 * f.update_s);
  }
  Result::note("accuracy: Alg. 3 mean relative ER error %.4f over %d edges "
               "(ceiling %.3f); port error %.3f %% of max drop (ceiling %.1f)",
               er_err, err_n, kAlg3ErrCeiling, median(port), kPortErrPctCeiling);
  if (!(er_err <= kAlg3ErrCeiling))
    result.gate_failed("Alg. 3 ER error above its ceiling");
  for (double p : port)
    if (!(p <= kPortErrPctCeiling))
      result.gate_failed("reduced-model port error above its ceiling");

  std::sort(query_ms.begin(), query_ms.end());
  const Percentile p50 = percentile_rule(query_ms, 0.50);
  const Percentile p99 = percentile_rule(query_ms, 0.99);
  Result::note("Alg. 3 query latency: p%.1f = %.5f ms, p%.1f = %.5f ms over "
               "%zu samples", p50.quantile * 100, p50.value,
               p99.quantile * 100, p99.value, query_ms.size());
  result.set("setup_s", median(setup_s), "s");
  result.set("latency_p50_ms", p50.value, "ms");
  result.set("goodput_qps", static_cast<double>(queries_total) / query_s_total,
             "1/s");
  result.set("edit_visible_p50_ms", median(update_ms), "ms");
  result.set("alg3_s", median(alg3_s), "s");
  result.set("er_err_mean", er_err, "ratio");
  result.set("reduce_s", median(red), "s");
  result.set("incr_flow_s", median(incr), "s");
  result.set("port_err_pct", median(port), "%");

  if (!opts.trace) return;

  // ---- per-layer metrics (traced run). The wire layers come from a short
  // uniform probe served from this workload's grid.
  wire_layer_probe(grid, opts, result);
  std::vector<double> upd, dc, schur, er_cpu, sparsify, stitch, part, nodes,
      busy, wait;
  for (const PgFlow& f : flows) {
    upd.push_back(f.update_s);
    dc.push_back(f.dc_solve_s);
    schur.push_back(f.stats.schur_cpu_seconds);
    er_cpu.push_back(f.stats.er_cpu_seconds);
    sparsify.push_back(f.stats.sparsify_cpu_seconds);
    stitch.push_back(f.stats.stitch_seconds);
    part.push_back(f.stats.partition_seconds);
    nodes.push_back(static_cast<double>(f.stats.reduced_nodes));
    busy.push_back(f.pool_busy_frac);
    wait.push_back(f.pool_wait_p50_us);
  }
  result.set("pg.update_s", median(upd), "s");
  result.set("pg.dc_solve_s", median(dc), "s");
  result.set("reduction.schur_cpu_s", median(schur), "s");
  result.set("reduction.er_cpu_s", median(er_cpu), "s");
  result.set("reduction.sparsify_cpu_s", median(sparsify), "s");
  result.set("reduction.stitch_s", median(stitch), "s");
  result.set("reduction.reduced_nodes", median(nodes), "count");
  result.set("partition.wall_s", median(part), "s");
  result.set("approxinv.build_s", median(inverse_s), "s");
  result.set("approxinv.nnz_ratio", nnz_ratio, "ratio");
  result.set("approxinv.max_depth", max_depth, "count");
  result.set("chol.factor_s", median(factor_s), "s");
  result.set("chol.factor_nnz", factor_nnz, "count");
  result.set("effres.edge_query_us", 1e3 * p50.value, "us");
  result.set("parallel.busy_frac", median(busy), "ratio");
  result.set("parallel.queue_wait_p50_us", median(wait), "us");
}

}  // namespace perfbench
