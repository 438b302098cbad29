// Ablation A — Eq. (26) claim: the relative error of effective resistances
// scales linearly with the truncation parameter epsilon, while nnz(Z) and
// runtime shrink as epsilon grows. Swept on a mesh-like and a social-like
// graph with a complete factor (droptol 0) to isolate the epsilon effect,
// then with the paper's droptol.
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
  const index_t s = er::bench::scaled(120);
  CaseDef cases[] = {
      {"grid2d", grid_2d(s, s, WeightKind::kUniform, 7)},
      {"barabasi-albert",
       barabasi_albert(er::bench::scaled(12000), 3, WeightKind::kUnit, 8)},
  };

  TablePrinter table({"Graph", "droptol", "epsilon", "T(s)", "Ea", "Em",
                      "nnz(Z)/nlogn", "Ea/epsilon"});

  for (auto& c : cases) {
    const ExactEffRes exact(c.graph);
    for (real_t droptol : {0.0, 1e-3}) {
      for (real_t eps : {1e-1, 1e-2, 1e-3, 1e-4}) {
        ApproxCholOptions opts;
        opts.droptol = droptol;
        opts.epsilon = eps;
        opts.parallel.num_threads = 1;  // T(s) is a one-thread time
        Timer t;
        const ApproxCholEffRes engine(c.graph, opts);
        for (const auto& e : c.graph.edges())
          (void)engine.resistance(e.u, e.v);
        const double secs = t.seconds();
        const ErrorReport rep =
            measure_edge_errors(c.graph, engine, exact, 500);
        table.add_row({c.name, TablePrinter::fmt_sci(droptol),
                       TablePrinter::fmt_sci(eps), TablePrinter::fmt(secs, 3),
                       TablePrinter::fmt_sci(rep.average_relative),
                       TablePrinter::fmt_sci(rep.max_relative),
                       TablePrinter::fmt(
                           engine.stats().nnz_ratio(c.graph.num_nodes()), 2),
                       TablePrinter::fmt(rep.average_relative / eps, 3)});
      }
    }
  }

  std::printf("Ablation A — error vs epsilon (Eq. (26): error ~ alpha*eps)\n");
  std::printf("With droptol=0 the factor is complete, isolating epsilon;\n");
  std::printf("Ea/epsilon staying roughly flat confirms the linear law.\n\n");
  table.print();
  table.write_csv("bench_ablation_epsilon.csv");
  return 0;
}
