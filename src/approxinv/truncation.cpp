#include "approxinv/truncation.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace er {

namespace {

/// Biased exponent of a nonnegative double: its binade, 0 for zero and the
/// subnormals, 2047 for +inf and NaN.
int binade(real_t m) {
  std::uint64_t bits;
  std::memcpy(&bits, &m, sizeof bits);
  return static_cast<int>(bits >> 52) & 2047;
}

}  // namespace

TruncationCut truncation_cut(Span<real_t> mags, real_t epsilon, TruncationScratch& scratch) {
  real_t norm1 = 0.0;
  int lo = 2047, hi = 0;
  for (real_t m : mags) {
    norm1 += m;
    const int e = binade(m);
    scratch.binade_sum[static_cast<std::size_t>(e)] += m;
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  const real_t budget = epsilon * norm1;

  // The first binade whose magnitudes, with all smaller ones, pass the
  // budget with the margin (see the header); 2047 keeps every binade.
  const real_t margin_budget = budget * (1.0 + 1e-6);
  int bound = 2047;
  real_t below = 0.0;
  for (int e = lo; e <= hi; ++e) {
    below += scratch.binade_sum[static_cast<std::size_t>(e)];
    scratch.binade_sum[static_cast<std::size_t>(e)] = 0.0;
    if (bound == 2047 && below > margin_budget) bound = e;
  }

  TruncationCut out;
  std::vector<real_t>& cand = scratch.candidates;
  cand.clear();
  for (real_t m : mags) {
    if (!(m <= budget)) continue;
    ++out.within_budget;
    if (binade(m) <= bound) cand.push_back(m);
  }
  out.candidates = cand.size();
  std::sort(cand.begin(), cand.end());
  real_t dropped = 0.0;
  for (real_t m : cand) {
    if (!(dropped + m <= budget)) {
      out.broke = true;
      break;
    }
    dropped += m;
    out.ties = (out.dropped > 0 && m == out.cut) ? out.ties + 1 : 1;
    out.cut = m;
    ++out.dropped;
  }
  return out;
}

}  // namespace er
