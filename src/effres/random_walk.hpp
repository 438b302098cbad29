// Monte-Carlo effective resistances from random-walk commute times — the
// family of methods the paper cites as [2][3] and excludes from its
// comparison because they are practical only on unweighted graphs (the
// variance explodes under weight spread). Provided for completeness and as
// an algebra-free cross-check of the other engines:
//
//   C(p,q) = E[hit q from p] + E[hit p from q] = 2 W(G) R(p,q),
//
// with W(G) the total edge weight. Each query simulates `walks` round trips.
#pragma once

#include "effres/engine.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace er {

struct RandomWalkOptions {
  std::size_t walks = 200;           // round trips per query
  std::uint64_t seed = 31;
  /// Abort a single walk after this many steps (guards pathological
  /// weight distributions; aborted walks bias the estimate down).
  std::size_t max_steps_per_walk = 50'000'000;
};

/// Thread-safe like every other engine (the former "sole exception" note
/// in engine.hpp is history): the engine holds no mutable query state.
/// Query i of a batch draws from its own Rng(mix_seed(seed, i)) stream —
/// the §3 per-index-stream discipline — so batched resistances_into
/// chunks across a pool and stays bit-identical at any thread count; the
/// single-query resistance(p, q) is defined as a batch of one (stream 0)
/// and therefore returns the same sample on every call.
class RandomWalkEffRes final : public EffResEngine {
 public:
  explicit RandomWalkEffRes(const Graph& g, const RandomWalkOptions& opts = {});

  /// Const and thread-safe; deterministic per (engine seed, p, q) — this
  /// is batch index 0's stream, so resistance(p, q) ==
  /// resistances({{p, q}})[0].
  [[nodiscard]] real_t resistance(index_t p, index_t q) const override;

  /// Batched override: query i samples from the independent
  /// mix_seed(seed, i) stream and writes only its own slot, so the batch
  /// parallelizes across `pool` and is identical at any thread count.
  void resistances_into(const std::vector<ResistanceQuery>& queries,
                        std::vector<real_t>& out,
                        ThreadPool* pool = nullptr) const override;

  [[nodiscard]] std::string name() const override { return "random-walk"; }

 private:
  /// One walk from `from` until it hits `to`; returns the step count.
  std::size_t hitting_steps(index_t from, index_t to, Rng& rng) const;

  /// The shared estimator body: `walks` round trips drawn from `rng`.
  real_t estimate(index_t p, index_t q, Rng& rng) const;

  const Graph* g_;
  RandomWalkOptions opts_;
  real_t total_weight_ = 0.0;
};

}  // namespace er
