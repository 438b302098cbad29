// Graph file I/O: whitespace edge lists (SNAP style) and conversion
// from/to symmetric matrices.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "sparse/csc.hpp"

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

/// Interpret a symmetric matrix's off-diagonal pattern as a weighted graph
/// (edge weight = |a_ij|); used to load UF-collection matrices as graphs,
/// mirroring the paper's treatment of circuit matrices.
Graph graph_from_symmetric_matrix(const CscMatrix& a);

}  // namespace er
