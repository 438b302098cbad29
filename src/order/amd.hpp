// Approximate minimum degree ordering (Amestoy, Davis and Duff, SIAM J.
// Matrix Anal. Appl. 17(4), 1996), in the form of Davis, "Direct Methods
// for Sparse Linear Systems" (SIAM 2006) §7.1. It is the one ordering of
// the complete Cholesky factors (cholesky(a) applies it): the served G on
// each publish, solve_dc, the transient solve, the per-block Schur factors
// and ExactEffRes.
//
// Compared with mindeg_order it adds the parts of AMD that make it fast and
// keep its fill low:
//   * a quotient graph with approximate external degrees;
//   * supervariable detection by hashing, and mass elimination;
//   * aggressive element absorption;
//   * dense rows (degree > max(16, 10 sqrt(n)), capped at n - 2) deferred
//     and ordered last;
//   * a postorder of the assembly tree.
//
// Measured against mindeg_order (Release build, one core of a 4-core
// host): the served G (9 727 nodes) orders in 14 ms instead of 46 ms, with
// nnz(L) 865 972 instead of 883 582; the PG-flow reduced model (9 555
// nodes) in 13.5 ms instead of 43 ms, with nnz(L) 812 100 instead of
// 844 417.
//
// Incomplete factors (ICT) keep mindeg_order too: see order/mindeg.hpp.
#pragma once

#include <vector>

#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

/// AMD ordering of a symmetric matrix pattern (both triangles stored, as
/// everywhere in this library; the diagonal is ignored). Returns perm with
/// perm[new] = old. Serial, free of RNGs and clocks, with index-ordered
/// tie-breaks: the same pattern gives the same permutation on every run
/// and at every thread count (DESIGN.md §3).
std::vector<index_t> amd_order(const CscMatrix& a);

}  // namespace er
