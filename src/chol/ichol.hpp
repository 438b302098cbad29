// Incomplete Cholesky factorization with threshold dropping — ICT(τ).
//
// The paper (§III-C) replaces the complete Cholesky factorization with an
// incomplete one on large graphs: "fill-ins with very small absolute values
// are dropped, which corresponds to setting branches with large resistances
// to open" and perturbs effective resistances only mildly.
//
// Dropping rule: a candidate subdiagonal value w_i of column j (which is an
// intermediate-elimination branch of conductance |w_i| between nodes i and
// j) is dropped iff |w_i| < droptol * s, where s is the median off-diagonal
// magnitude of A — a robust global conductance scale. This matches the
// paper's "absolute value" semantics: only branches whose resistance is
// ~1/droptol above the typical branch are opened. (A per-column relative
// rule, as in MATLAB's ichol, is catastrophically aggressive on hub columns
// of power-law graphs: its threshold grows with the hub degree and opens
// *low*-resistance branches.) The diagonal is always kept; droptol == 0
// yields the complete factor.
//
// Breakdown handling: Laplacian-like SDD M-matrices cannot break down under
// this rule (dropping off-diagonals with compensation keeps the matrix a
// subgraph Laplacian, and a pivot floor guards degenerate columns), but for
// general SPD inputs a global diagonal shift A + alpha*diag(A) is applied
// and doubled until the factorization succeeds.
//
// Kernel: left-looking by column, serial. On social graphs the min-degree
// order ends in a nearly dense hub tail, so after the first column that
// has at most 2 048 and at least 64 rows below it and kept a quarter of
// them (the rule of chol/dense_tail.hpp, which Alg. 2 shares), the
// remaining columns also keep a dense copy in one packed lower triangle
// (at most 16.8 MB, returned to the OS when the attempt ends). A
// column of that trailing block updates later columns by a contiguous
// axpy, four columns per pass, instead of a sparse scatter. Every entry
// still gets the same subtractions in the same order, and the drops,
// compensation, breakdown and shift retry run in the same order, so the
// factor is bitwise equal to the purely sparse kernel's (DESIGN.md §4
// "ICT's dense trailing block").
#pragma once

#include <vector>

#include "chol/factor.hpp"
#include "sparse/csc.hpp"
#include "util/types.hpp"

namespace er {

struct IcholOptions {
  real_t droptol = 1e-3;       // paper's Table I setting
  real_t initial_shift = 1e-3; // first diagonal shift on breakdown
  int max_shift_retries = 20;
  /// Diagonal compensation ("open branch" semantics, §III-C): dropping a
  /// fill-in w_ij also removes its contribution from both diagonals, so the
  /// incomplete factor is exactly the factor of a *subgraph* Laplacian
  /// rather than one with spurious conductances to ground. Without this,
  /// long-range effective resistances are systematically underestimated.
  bool diagonal_compensation = true;
  /// Pivot floor (fraction of the uncompensated pivot) guarding against
  /// breakdown when compensation removes almost all of a pivot.
  real_t compensation_pivot_floor = 0.05;
};

/// Incomplete factor of P A P^T with the given permutation (new -> old).
CholFactor ichol(const CscMatrix& a, const std::vector<index_t>& perm,
                 const IcholOptions& opts = {});

/// The incomplete factor in min-degree order, not the AMD of complete
/// factors: on com-DBLP-like AMD's pivot order grows the ICT factor from
/// 1.06 M to 2.57 M entries and ichol from 0.63 to 3.0 s, and Z~ of Alg. 3
/// from 16.1 M to 28.9 M entries (order/mindeg.hpp).
CholFactor ichol(const CscMatrix& a, const IcholOptions& opts = {});

}  // namespace er
