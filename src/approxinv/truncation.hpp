// The Eq. (10) truncation cut of one column of Alg. 2
// (approxinv/approx_inverse.cpp).
//
// Alg. 2 drops the k smallest-magnitude entries of z*_j, with k the largest
// count whose magnitudes, summed in ascending order, stay within
// epsilon * ||z*_j||_1. Among the entries equal to the largest dropped
// magnitude (the cut), the first ones in pattern order go, so exactly k go.
//
// On long columns the ascending sum passes the budget long before the
// magnitudes within it run out, so the cut sorts only the magnitudes in
// the binades (powers of two) up to the first at which the binades' summed
// magnitudes pass budget * (1 + 1e-6). Those sums add in another order
// than the ascending one, but a sum of at most n nonnegative terms in any
// order is within about n·u (u = 2^-53) of the ascending one, and
// n·u < 2^-22 for 32-bit indices, far below the 1e-6 margin. So the
// ascending sum passes the budget inside the candidates as well, and the
// cut is the one a sort of every magnitude gives (DESIGN.md §4 "Alg. 2's
// dense tail").
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace er {

/// What truncation_cut decided, and how.
struct TruncationCut {
  std::size_t dropped = 0;        ///< k: entries to drop
  real_t cut = 0.0;               ///< largest dropped magnitude
  std::size_t ties = 0;           ///< dropped entries whose magnitude is `cut`
  std::size_t within_budget = 0;  ///< magnitudes <= epsilon * ||z*_j||_1
  std::size_t candidates = 0;     ///< of those, the ones below the binade bound
  bool broke = false;  ///< the ascending sum passed the budget inside the candidates
};

/// Per-thread scratch of truncation_cut; reuse it across columns.
struct TruncationScratch {
  std::array<real_t, 2048> binade_sum{};  ///< by biased exponent; zero between calls
  std::vector<real_t> candidates;
};

/// The cut of a column whose magnitudes are `mags`, in pattern order (the
/// 1-norm is summed in that order).
TruncationCut truncation_cut(Span<real_t> mags, real_t epsilon, TruncationScratch& scratch);

}  // namespace er
