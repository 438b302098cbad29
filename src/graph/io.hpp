// Graph file I/O: whitespace edge lists (SNAP style).
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"

namespace er {

/// Read "u v [weight]" lines ('#'/'%' comments, 0-based ids). Self-loops
/// are skipped; node count is 1 + max id unless `num_nodes` overrides it.
/// Throws std::runtime_error naming the line on a malformed line, a
/// non-positive weight, or a node id that is negative or does not fit the
/// node count (>= `num_nodes`, or too large for index_t).
Graph read_edge_list(std::istream& in, index_t num_nodes = -1);
Graph read_edge_list_file(const std::string& path, index_t num_nodes = -1);

/// Write "u v weight" lines.
void write_edge_list(const Graph& g, std::ostream& out);
void write_edge_list_file(const Graph& g, const std::string& path);

}  // namespace er
