// Quotient-graph minimum-degree ordering with AMD-style approximate
// external degrees (Amestoy, Davis, Duff), without supervariables, without
// aggressive element absorption and without dense-row deferral.
//
// This is the ordering of the incomplete factors, fixed in ichol(a, opts):
// Alg. 3 at every droptol (0 included, which is the complete factor) and
// the random-projection preconditioner. Complete factors use amd_order
// (order/amd.hpp). Do not unify the two: measured on com-DBLP-like, AMD's
// pivot order makes the ICT factor of Alg. 3 much denser — ICT nnz
// 1.06 M -> 2.57 M, ichol 0.63 -> 3.0 s, nnz(Z~) 16.1 M -> 28.9 M, Z~
// build 3.0 -> 7.5 s on one thread. The pivot choice itself is the cause:
// without AMD's postorder the ICT nnz stays at 2.57 M, and without its
// supervariables it grows to 3.24 M. Alg. 2 on the complete factor
// (droptol 0) shows the same: nnz(Z~) min-degree -> AMD is 2.12 M ->
// 3.53 M on barabasi_albert(5000, 3), with nnz(L) within 1.2 %.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

/// Minimum-degree ordering of a symmetric matrix pattern (both triangles
/// stored). Returns perm with perm[new] = old.
std::vector<index_t> mindeg_order(const CscMatrix& a);

/// Identity permutation of size n.
std::vector<index_t> identity_permutation(index_t n);

/// Validate that perm is a permutation of [0, n).
bool is_permutation(const std::vector<index_t>& perm);

/// inverse[perm[i]] = i.
std::vector<index_t> invert_permutation(const std::vector<index_t>& perm);

}  // namespace er
