/// \file
/// Common interface for effective-resistance engines.
///
/// Three implementations mirror the paper's evaluation:
///   * ExactEffRes            — direct solves on the grounded Laplacian (ground truth)
///   * ApproxCholEffRes       — the paper's Alg. 3 (ICT + approximate inverse)
///   * RandomProjectionEffRes — the WWW'15 baseline [1] (JL projection + PCG)
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/types.hpp"

namespace er {

class ThreadPool;

/// A (p, q) node pair whose effective resistance is requested.
using ResistanceQuery = std::pair<index_t, index_t>;

/// Chunk size for the engines' batched queries (Alg. 3, random projection
/// and exact edge batches): large enough to amortize dispatch, small
/// enough to load-balance uneven query costs. QueryFrontEnd does not use
/// it: a served batch runs one task per reach solve (DESIGN.md §4).
inline constexpr index_t kBatchQueryGrain = 64;

/// Common interface of the three effective-resistance engines.
///
/// Thread-safety contract (DESIGN.md §3/§4): every query method is `const`
/// and safe to call from any number of threads concurrently — engines hold
/// no shared mutable query state, with no exceptions. This is what lets
/// one engine answer a query batch across a pool.
class EffResEngine {
 public:
  virtual ~EffResEngine() = default;

  /// Effective resistance between nodes p and q (original node ids).
  /// Every engine answers exactly 0 for p == q and +infinity for p and q
  /// in different connected components (no current flows between them),
  /// and throws std::out_of_range for an id outside [0, n). Const and
  /// thread-safe for every engine; engines that need a solve workspace
  /// allocate it per call (batch callers amortize it per chunk via
  /// resistances_into instead).
  [[nodiscard]] virtual real_t resistance(index_t p, index_t q) const = 0;

  /// Batch interface: chunk `queries` across `pool` (null = serial) and
  /// write answer i into `out[i]`. `out` must already have queries.size()
  /// slots; per-query slot writes make the result identical at any thread
  /// count. The default chunks over resistance(); engines with a per-query
  /// workspace override it to reuse one workspace per chunk.
  virtual void resistances_into(const std::vector<ResistanceQuery>& queries,
                                std::vector<real_t>& out,
                                ThreadPool* pool = nullptr) const;

  /// Allocating convenience wrapper around resistances_into.
  [[nodiscard]] std::vector<real_t> resistances(
      const std::vector<ResistanceQuery>& queries,
      ThreadPool* pool = nullptr) const;

  /// Engine name for reports.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// All graph edges as queries (the paper's Qr = E workload).
std::vector<ResistanceQuery> all_edge_queries(const Graph& g);

}  // namespace er
