// er_tool — command-line effective-resistance calculator.
//
// Usage:
//   er_tool <edge-list-file> [p q]...
//   er_tool --demo [p q]...
//
// The edge-list file has one "u v [weight]" triple per line (0-based node
// ids, '#'/'%' comments; graph/io.hpp). --demo uses a built-in 32x32 grid
// instead. Prints the graph size and the Alg. 3 index stats, then R(p,q)
// for each given pair (inf for p and q in different connected
// components). A malformed file, a node id that is not a number or not a
// node of the graph, or an unpaired id prints the error and exits 1.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "effres/approx_chol.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace {

/// Strictly parse a node id in [0, n): the whole argument must be a
/// decimal integer.
er::index_t parse_node(const char* arg, er::index_t n) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(arg, &end, 10);
  if (end == arg || *end != '\0')
    throw std::invalid_argument(std::string("node id '") + arg +
                                "' is not an integer");
  if (errno == ERANGE || v < 0 || v >= n)
    throw std::out_of_range(std::string("node id ") + arg +
                            " is not in [0, " + std::to_string(n) + ")");
  return static_cast<er::index_t>(v);
}

int run(int argc, char** argv) {
  using namespace er;
  if (argc % 2 != 0)
    throw std::invalid_argument("node ids must come in pairs: p q");
  const Graph g = std::string(argv[1]) == "--demo"
                ? grid_2d(32, 32, WeightKind::kUniform, 1)
                : read_edge_list_file(argv[1]);
  // Validate every id before the index build.
  std::vector<index_t> ids;
  for (int a = 2; a < argc; ++a)
    ids.push_back(parse_node(argv[a], g.num_nodes()));

  std::printf("graph: %d nodes, %zu edges\n", g.num_nodes(), g.num_edges());
  const ApproxCholEffRes engine(g, {});
  std::printf("index built: nnz(Z)=%lld, dpt=%d, %.3fs\n",
              static_cast<long long>(engine.stats().inverse_nnz),
              engine.stats().max_depth,
              engine.stats().factor_seconds + engine.stats().inverse_seconds);
  for (std::size_t k = 0; k + 1 < ids.size(); k += 2)
    std::printf("R(%d, %d) = %.9g\n", ids[k], ids[k + 1],
                engine.resistance(ids[k], ids[k + 1]));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <edge-list> [p q]... | --demo [p q]...\n",
                 argv[0]);
    return 1;
  }
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
