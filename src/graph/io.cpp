#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <vector>

namespace er {

Graph read_edge_list(std::istream& in, index_t num_nodes) {
  std::vector<std::tuple<index_t, index_t, real_t>> edges;
  index_t max_node = -1;
  std::string line;
  std::size_t line_no = 0;
  // Without an override the node count is max id + 1, which must fit.
  const long long max_id = num_nodes >= 0
                               ? static_cast<long long>(num_nodes) - 1
                               : std::numeric_limits<index_t>::max() - 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    std::istringstream ls(line);
    long long u = 0, v = 0;
    double w = 1.0;
    if (!(ls >> u >> v))
      throw std::runtime_error("edge list line " + std::to_string(line_no) +
                               ": malformed");
    ls >> w;
    if (u < 0 || v < 0)
      throw std::runtime_error("edge list line " + std::to_string(line_no) +
                               ": negative node id");
    if (std::max(u, v) > max_id)
      throw std::runtime_error("edge list line " + std::to_string(line_no) +
                               ": node id out of range");
    if (!(w > 0.0))
      throw std::runtime_error("edge list line " + std::to_string(line_no) +
                               ": non-positive weight");
    if (u == v) continue;  // skip self-loops
    edges.emplace_back(static_cast<index_t>(u), static_cast<index_t>(v),
                       static_cast<real_t>(w));
    max_node = std::max(max_node, static_cast<index_t>(std::max(u, v)));
  }
  const index_t n = num_nodes >= 0 ? num_nodes : max_node + 1;
  Graph g(n);
  g.reserve_edges(edges.size());
  for (const auto& [u, v, w] : edges) g.add_edge(u, v, w);
  return g;
}

Graph read_edge_list_file(const std::string& path, index_t num_nodes) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_edge_list(in, num_nodes);
}

void write_edge_list(const Graph& g, std::ostream& out) {
  out.precision(17);
  out << "# " << g.num_nodes() << " nodes, " << g.num_edges() << " edges\n";
  for (const auto& e : g.edges())
    out << e.u << ' ' << e.v << ' ' << e.weight << '\n';
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  write_edge_list(g, out);
}

}  // namespace er
