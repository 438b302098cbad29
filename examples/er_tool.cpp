// er_tool — command-line effective-resistance calculator.
//
// Usage:
//   er_tool <edge-list-file> [p q]...
//   er_tool --demo
//
// The edge-list file has one "u v [weight]" triple per line (0-based node
// ids, '#'/'%' comments; graph/io.hpp). With node pairs given, prints
// R(p,q) for each pair; without, prints the five highest
// spanning-edge-centrality edges. --demo runs on a built-in example graph.
// A malformed file or an out-of-range pair prints the error and exits 1.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "effres/approx_chol.hpp"
#include "effres/centrality.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace er;
  Graph g = std::string(argv[1]) == "--demo"
                ? grid_2d(32, 32, WeightKind::kUniform, 1)
                : read_edge_list_file(argv[1]);
  if (!is_connected(g))
    std::fprintf(stderr,
                 "note: graph is disconnected; resistances across "
                 "components are not defined\n");

  std::printf("graph: %d nodes, %zu edges\n", g.num_nodes(), g.num_edges());
  const ApproxCholEffRes engine(g, {});
  std::printf("index built: nnz(Z)=%lld, dpt=%d, %.3fs\n",
              static_cast<long long>(engine.stats().inverse_nnz),
              engine.stats().max_depth,
              engine.stats().factor_seconds + engine.stats().inverse_seconds);

  if (argc > 2 && std::string(argv[1]) != "--demo") {
    for (int a = 2; a + 1 < argc; a += 2) {
      const auto p = static_cast<index_t>(std::atoll(argv[a]));
      const auto q = static_cast<index_t>(std::atoll(argv[a + 1]));
      std::printf("R(%d, %d) = %.9g\n", p, q, engine.resistance(p, q));
    }
    return 0;
  }

  const auto centrality = spanning_edge_centralities(g, engine);
  const auto top = top_k_central_edges(centrality, 5);
  std::printf("\ntop spanning-edge-centrality edges:\n");
  for (index_t e : top) {
    const Edge& ed = g.edges()[static_cast<std::size_t>(e)];
    std::printf("  %d - %d  (w=%.3g, centrality=%.4f)\n", ed.u, ed.v,
                ed.weight, centrality[static_cast<std::size_t>(e)]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <edge-list> [p q]... | --demo\n", argv[0]);
    return 1;
  }
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
