// Laplacian and incidence-matrix assembly (paper Eq. (1)-(2)) plus the
// grounding transformation that makes the Laplacian SDD-nonsingular.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

/// L_G = B^T W B: n-by-n singular Laplacian of the graph.
CscMatrix laplacian(const Graph& g);

/// Signed incidence matrix B (|E| x |V|): row e has +1 at the head (u) and
/// -1 at the tail (v) of edge e.
CscMatrix incidence(const Graph& g);

/// Diagonal weight matrix W (|E| x |E|).
CscMatrix edge_weight_matrix(const Graph& g);

/// Grounded Laplacian: L_G plus `ground_conductance` added to the diagonal
/// entry of one representative node per connected component (the paper's
/// §II-A trick). The result is symmetric positive definite, and — because a
/// single grounded node per component leaves balanced injections e_p - e_q
/// unaffected — effective resistances computed from it are exact.
///
/// `grounded_nodes`, if non-null, receives the chosen representatives;
/// `component_of`, if non-null, receives each node's component label.
CscMatrix grounded_laplacian(const Graph& g, real_t ground_conductance = 1.0,
                             std::vector<index_t>* grounded_nodes = nullptr,
                             std::vector<index_t>* component_of = nullptr);

/// Laplacian with arbitrary per-node shunt (diagonal) conductances added;
/// used for Schur-complement blocks which carry ground couplings.
CscMatrix laplacian_with_shunts(const Graph& g,
                                const std::vector<real_t>& shunts);

}  // namespace er
