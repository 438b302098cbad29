// Table I reproduction: effective resistances of all edges on the graph
// suite, comparing the random-projection baseline (WWW'15 [1]) against the
// paper's Alg. 3 (incomplete Cholesky + sparse approximate inverse).
//
// Columns mirror the paper: |V|(|E|), dpt (max filled-graph depth),
// baseline T/Ea/Em/nnz(Q)/(n log n), Alg. 3 T/Ea/Em/nnz(Z)/(n log n).
// Ea/Em are measured on 1000 random edges against exact values (direct
// solves), exactly as in the paper.
//
// --threads N (default 1) sets both methods' thread count: Alg. 3 builds
// its approximate inverse on N threads, the baseline's row solves and
// both methods' batch queries chunk across an N-thread pool. Results are
// identical at any thread count.
#include <cstdio>
#include <memory>

#include "effres/approx_chol.hpp"
#include "effres/error_metrics.hpp"
#include "effres/exact.hpp"
#include "effres/random_projection.hpp"
#include "parallel/thread_pool.hpp"
#include "suite.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace er;
using bench::SuiteCase;

struct MethodRow {
  double seconds = 0.0;
  double ea = 0.0;
  double em = 0.0;
  double nnz_ratio = 0.0;
  bool ran = false;
  index_t nonconverged_rows = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const er::bench::BenchOptions bopts =
      er::bench::parse_bench_args(argc, argv, "BENCH_table1.json");
  std::unique_ptr<ThreadPool> pool;
  if (bopts.threads > 1) pool = std::make_unique<ThreadPool>(bopts.threads);

  const auto suite = er::bench::table1_suite();
  TablePrinter table({"Case", "|V|(|E|)", "dpt", "RP T(s)", "RP Ea", "RP Em",
                      "RP nnz/nlogn", "Alg3 T(s)", "Alg3 Ea", "Alg3 Em",
                      "Alg3 nnz/nlogn", "Speedup"});
  er::bench::BenchJson json;

  double speedup_sum = 0.0;
  int speedup_count = 0;
  double ea_ratio_sum = 0.0;
  bool any_nonconverged = false;

  for (const SuiteCase& c : suite) {
    std::fprintf(stderr, "[table1] %s: n=%d m=%zu\n", c.name.c_str(),
                 c.graph.num_nodes(), c.graph.num_edges());
    const auto queries = all_edge_queries(c.graph);

    // --- Alg. 3 (droptol = 1e-3, epsilon = 1e-3: the paper's settings). ---
    Timer t;
    ApproxCholOptions ac;  // defaults are the paper's settings
    // Same pool as the baseline, so Speedup compares like runs.
    ac.pool = pool.get();
    ac.parallel.num_threads = 1;
    const ApproxCholEffRes alg3(c.graph, ac);
    (void)alg3.resistances(queries, pool.get());
    MethodRow alg3_row;
    alg3_row.seconds = t.seconds();
    alg3_row.nnz_ratio = alg3.stats().nnz_ratio(c.graph.num_nodes());
    alg3_row.ran = true;

    // --- Exact reference for error estimation (1000 random edges). ---
    const ExactEffRes exact(c.graph);
    {
      const ErrorReport rep = measure_edge_errors(c.graph, alg3, exact, 1000);
      alg3_row.ea = rep.average_relative;
      alg3_row.em = rep.max_relative;
    }

    // --- Random-projection baseline [1]. ---
    MethodRow rp_row;
    if (c.run_baseline) {
      t.reset();
      RandomProjectionOptions rp_opts;
      // k = 48 log2(n) projection rows: the paper's measured
      // nnz(Q)/(n log n) is 100-344, so this still *undercounts* the
      // baseline's cost/accuracy budget by 2-7x (kept lower to bound bench
      // runtime on one core; see EXPERIMENTS.md).
      rp_opts.auto_scale = 48.0;
      // Row solves chunk across the same pool as the batch queries.
      rp_opts.pool = pool.get();
      const RandomProjectionEffRes rp(c.graph, rp_opts);
      (void)rp.resistances(queries, pool.get());
      rp_row.seconds = t.seconds();
      rp_row.nnz_ratio = rp.stats().nnz_ratio(c.graph.num_nodes());
      rp_row.ran = true;
      rp_row.nonconverged_rows = rp.stats().nonconverged_rows;
      any_nonconverged = any_nonconverged || rp_row.nonconverged_rows > 0;
      if (rp_row.nonconverged_rows > 0)
        std::fprintf(stderr,
                     "WARNING: %s: %d of %d projection rows hit "
                     "max_iterations without converging; baseline accuracy "
                     "numbers are built on unconverged embeddings\n",
                     c.name.c_str(), static_cast<int>(rp_row.nonconverged_rows),
                     static_cast<int>(rp.stats().dimensions));
      const ErrorReport rep = measure_edge_errors(c.graph, rp, exact, 1000);
      rp_row.ea = rep.average_relative;
      rp_row.em = rep.max_relative;

      speedup_sum += rp_row.seconds / alg3_row.seconds;
      ++speedup_count;
      if (alg3_row.ea > 0.0) ea_ratio_sum += rp_row.ea / alg3_row.ea;
    }

    const std::string size = TablePrinter::fmt_size(c.graph.num_nodes()) +
                             "(" +
                             TablePrinter::fmt_size(
                                 static_cast<long long>(c.graph.num_edges())) +
                             ")";
    // A '*' on RP T(s) marks cases whose projection embeddings contain
    // unconverged PCG rows (see the WARNING lines and the footnote).
    table.add_row(
        {c.name, size, TablePrinter::fmt_int(alg3.stats().max_depth),
         rp_row.ran ? TablePrinter::fmt(rp_row.seconds, 2) +
                          (rp_row.nonconverged_rows > 0 ? "*" : "")
                    : "-",
         rp_row.ran ? TablePrinter::fmt_sci(rp_row.ea) : "-",
         rp_row.ran ? TablePrinter::fmt_sci(rp_row.em) : "-",
         rp_row.ran ? TablePrinter::fmt(rp_row.nnz_ratio, 1) : "-",
         TablePrinter::fmt(alg3_row.seconds, 2),
         TablePrinter::fmt_sci(alg3_row.ea), TablePrinter::fmt_sci(alg3_row.em),
         TablePrinter::fmt(alg3_row.nnz_ratio, 2),
         rp_row.ran ? TablePrinter::fmt(rp_row.seconds / alg3_row.seconds, 1) +
                          "x"
                    : "-"});
    json.add_row()
        .set("bench", "table1")
        .set("case", c.name)
        .set("family", c.family)
        .set("nodes", static_cast<long long>(c.graph.num_nodes()))
        .set("edges", c.graph.num_edges())
        .set("threads", bopts.threads)
        .set("alg3_wall_seconds", alg3_row.seconds)
        .set("alg3_ea", alg3_row.ea)
        .set("alg3_em", alg3_row.em)
        .set("alg3_nnz_ratio", alg3_row.nnz_ratio)
        .set("rp_ran", rp_row.ran)
        .set("rp_wall_seconds", rp_row.seconds)
        .set("rp_ea", rp_row.ea)
        .set("rp_em", rp_row.em)
        .set("rp_nonconverged_rows",
             static_cast<long long>(rp_row.nonconverged_rows))
        .set("speedup_alg3_over_rp",
             rp_row.ran ? rp_row.seconds / alg3_row.seconds : 0.0);
  }

  std::printf("\nTable I — computing effective resistances on large graphs\n");
  std::printf("(random projection [1] vs Alg. 3; errors vs exact on 1000 "
              "random edges)\n\n");
  table.print();
  if (any_nonconverged)
    std::printf("\n* projection embeddings contain rows whose PCG solve did "
                "not converge (see WARNING lines); treat the baseline's "
                "accuracy columns for those cases with suspicion\n");
  if (speedup_count > 0) {
    std::printf("\nAverage speedup of Alg. 3 over random projection: %.0fx\n",
                speedup_sum / speedup_count);
    std::printf("Average Ea(RP)/Ea(Alg3) error ratio: %.0fx\n",
                ea_ratio_sum / speedup_count);
  }
  table.write_csv("bench_table1.csv");
  std::printf("\nCSV written to bench_table1.csv\n");
  return er::bench::write_json_or_report(json, bopts);
}
