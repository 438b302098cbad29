// Ablation B — §III-C claim: replacing the complete Cholesky factorization
// with incomplete Cholesky (drop tolerance) does not introduce large errors
// in effective resistances, while shrinking the factor and the build time.
#include <cstdio>

#include "effres/approx_chol.hpp"
#include "effres/error_metrics.hpp"
#include "effres/exact.hpp"
#include "graph/generators.hpp"
#include "suite.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace er;

  struct CaseDef {
    const char* name;
    Graph graph;
  };
  const index_t s = er::bench::scaled(150);
  CaseDef cases[] = {
      {"grid2d-logU", grid_2d(s, s, WeightKind::kLogUniform, 17)},
      {"multilayer-mesh",
       multilayer_mesh(er::bench::scaled(100), er::bench::scaled(100), 3,
                       WeightKind::kLogUniform, 18)},
  };

  TablePrinter table({"Graph", "droptol", "T(s)", "nnz(L)", "nnz(Z)/nlogn",
                      "dpt", "Ea", "Em"});

  for (auto& c : cases) {
    const ExactEffRes exact(c.graph);
    for (real_t droptol : {0.0, 1e-4, 1e-3, 1e-2, 1e-1}) {
      ApproxCholOptions opts;
      opts.droptol = droptol;
      opts.parallel.num_threads = 1;  // T(s) is a one-thread time
      Timer t;
      const ApproxCholEffRes engine(c.graph, opts);
      for (const auto& e : c.graph.edges()) (void)engine.resistance(e.u, e.v);
      const double secs = t.seconds();
      const ErrorReport rep = measure_edge_errors(c.graph, engine, exact, 500);
      table.add_row(
          {c.name, TablePrinter::fmt_sci(droptol), TablePrinter::fmt(secs, 3),
           TablePrinter::fmt_int(engine.stats().factor_nnz),
           TablePrinter::fmt(engine.stats().nnz_ratio(c.graph.num_nodes()), 2),
           TablePrinter::fmt_int(engine.stats().max_depth),
           TablePrinter::fmt_sci(rep.average_relative),
           TablePrinter::fmt_sci(rep.max_relative)});
    }
  }

  std::printf("Ablation B — incomplete-Cholesky drop tolerance\n");
  std::printf("(droptol=0 is the complete factor; the paper runs 1e-3)\n\n");
  table.print();
  table.write_csv("bench_ablation_droptol.csv");
  return 0;
}
