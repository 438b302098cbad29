// Ablation C — effect of the fill-reducing ordering on the filled-graph
// depth (dpt), factor size, approximate-inverse size and accuracy. The
// paper observes that dpt stays moderate on real-world graphs; the ordering
// is the lever that controls it. order_s is the ordering alone; T(s) is
// the whole Alg. 3 build plus one query per edge. The amd row shows why
// Alg. 3's ICT factor keeps min-degree: AMD's pivot order fills it more
// on the power-law graph (order/mindeg.hpp).
#include <cstdio>

#include "effres/approx_chol.hpp"
#include "effres/error_metrics.hpp"
#include "effres/exact.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "suite.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main() {
  using namespace er;

  struct CaseDef {
    const char* name;
    Graph graph;
  };
  CaseDef cases[] = {
      {"grid2d", grid_2d(er::bench::scaled(130), er::bench::scaled(130),
                         WeightKind::kUniform, 27)},
      {"grid3d", grid_3d(er::bench::scaled(22), er::bench::scaled(22),
                         er::bench::scaled(22), WeightKind::kUniform, 28)},
      {"barabasi-albert",
       barabasi_albert(er::bench::scaled(12000), 3, WeightKind::kUnit, 29)},
  };

  struct OrdDef {
    const char* name;
    Ordering ord;
  };
  const OrdDef orderings[] = {
      {"natural", Ordering::kNatural},
      {"rcm", Ordering::kRcm},
      {"mindeg", Ordering::kMinDeg},
      {"amd", Ordering::kAmd},
  };

  TablePrinter table({"Graph", "Ordering", "order_s", "T(s)", "nnz(L)", "dpt",
                      "nnz(Z)/nlogn", "Ea"});

  for (auto& c : cases) {
    const ExactEffRes exact(c.graph);
    const CscMatrix lg = grounded_laplacian(c.graph);
    for (const auto& o : orderings) {
      Timer order_timer;
      (void)compute_ordering(lg, o.ord);
      const double order_secs = order_timer.seconds();
      ApproxCholOptions opts;
      opts.ordering = o.ord;
      opts.parallel.num_threads = 1;  // T(s) is a one-thread time
      Timer t;
      const ApproxCholEffRes engine(c.graph, opts);
      for (const auto& e : c.graph.edges()) (void)engine.resistance(e.u, e.v);
      const double secs = t.seconds();
      const ErrorReport rep = measure_edge_errors(c.graph, engine, exact, 300);
      table.add_row(
          {c.name, o.name, TablePrinter::fmt(order_secs, 4),
           TablePrinter::fmt(secs, 3),
           TablePrinter::fmt_int(engine.stats().factor_nnz),
           TablePrinter::fmt_int(engine.stats().max_depth),
           TablePrinter::fmt(engine.stats().nnz_ratio(c.graph.num_nodes()), 2),
           TablePrinter::fmt_sci(rep.average_relative)});
    }
  }

  std::printf("Ablation C — ordering vs depth / fill / accuracy\n\n");
  table.print();
  table.write_csv("bench_ablation_ordering.csv");
  return 0;
}
