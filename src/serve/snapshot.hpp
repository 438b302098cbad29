/// \file
/// Immutable serving snapshot of a reduced model (DESIGN.md §4, §4.1).
///
/// A ModelSnapshot is the whole serving state of one published model
/// version: the frozen stitched model plus one Cholesky factor of its
/// system G = L(reduced graph) + diag(shunts). Every member is resident,
/// read-only state shared by any number of concurrent query threads.
///
/// A query runs no backward solve: it is made of forward-only reach solves
/// (CholFactor::sparse_forward) along the factor's elimination tree.
/// R(p, q) = ||L^{-1} P (e_p - e_q)||^2 is one solve, and Z(p, q) is the
/// dot product of the solves of e_p and e_q (DESIGN.md §4). The snapshot
/// exposes the solves rather than whole answers, so the front-end can run
/// a response's two solves on different threads.
///
/// Every publish is a full build: one fresh factorization of G. The
/// stitched model itself is never copied — the snapshot aliases the
/// producer's frozen ModelPtr version (zero-copy publish).
#pragma once

#include <memory>
#include <vector>

#include "chol/factor.hpp"
#include "reduction/pipeline.hpp"
#include "util/types.hpp"

namespace er {

class ThreadPool;

/// Sum of squares of a reach solve: b^T (L L^T)^{-1} b = ||L^{-1} b||^2.
[[nodiscard]] real_t squared_norm(const ReachWorkspace& rw);

/// Dot product of two reach solves over the intersection of their
/// ascending reaches (outside it one of the two is zero), summed in
/// ascending row order.
[[nodiscard]] real_t reach_dot(const std::vector<index_t>& ra,
                               const std::vector<real_t>& ya,
                               const std::vector<index_t>& rb,
                               const std::vector<real_t>& yb);

/// Read-only serving state for one published model version. Every method is
/// const and thread-safe; per-query scratch lives in a caller-owned
/// workspace so concurrent callers never share mutable state.
class ModelSnapshot {
 public:
  /// Per-caller scratch of response() and resistance(). Reuse one instance
  /// across queries (every query leaves it reusable); never share one
  /// across threads. The reach solve's O(n) sizing is paid once per
  /// workspace and factor size.
  struct Workspace {
    ReachWorkspace reach;
    std::vector<index_t> first_reach;  ///< a response's first reach solve
    std::vector<real_t> first_y;
  };

  /// Build a snapshot that *aliases* a frozen stitched model version: the
  /// zero-copy path — no model bytes are copied, the snapshot just pins
  /// `model`. The model must never be mutated after this call (the
  /// pipeline's ModelPtr producers guarantee that by construction). Throws
  /// std::runtime_error if the stitched system is not SPD (a connected
  /// component without any shunt). A `pool` runs the numeric factor on the
  /// calling thread and its idle workers (IncrementalReducer passes its
  /// own); the factor is bitwise equal to the serial one at any thread
  /// count.
  static std::shared_ptr<const ModelSnapshot> build(ModelPtr model,
                                                    std::uint64_t version = 0,
                                                    ThreadPool* pool = nullptr);

  /// Frees the factor and drops the model reference, then hands the
  /// allocator's free pages back to the OS (snapshot.cpp says why a
  /// retired factor needs this).
  ~ModelSnapshot();
  ModelSnapshot(const ModelSnapshot&) = delete;
  ModelSnapshot& operator=(const ModelSnapshot&) = delete;

  /// The stitched model the answers refer to.
  [[nodiscard]] const ReducedModel& model() const { return *model_; }

  /// Shared handle of the stitched model — the same object the producer
  /// froze (&*shared_model() == &model()); holding it pins the model
  /// version beyond the snapshot.
  [[nodiscard]] ModelPtr shared_model() const { return model_; }

  /// Publisher-assigned version (IncrementalReducer: its revision count).
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Reduced nodes incident to an inter-block edge, counted at build time.
  [[nodiscard]] index_t num_boundary_nodes() const {
    return num_boundary_nodes_;
  }
  [[nodiscard]] double build_seconds() const { return build_seconds_; }
  /// The two halves of the factorization inside build_seconds(): the AMD
  /// ordering of G, then the symbolic and numeric factor under it.
  [[nodiscard]] double order_seconds() const { return order_seconds_; }
  [[nodiscard]] double factor_seconds() const { return factor_seconds_; }

  /// Resident bytes of the factor of G — the serving state every publish
  /// materializes.
  [[nodiscard]] std::size_t factor_bytes() const {
    return factor_.footprint_bytes();
  }

  /// Original node id -> reduced id, or -1 if the node was eliminated (or
  /// out of range).
  [[nodiscard]] index_t reduced_id(index_t original) const;

  /// Port response Z(p, q) = e_q^T G^{-1} e_p: voltage-drop response at q
  /// to a unit current injected at p (reduced node ids). It is reach_dot
  /// of the unit solves of p and q, p's first.
  [[nodiscard]] real_t response(index_t p, index_t q, Workspace& ws) const;
  /// Effective resistance (e_p - e_q)^T G^{-1} (e_p - e_q) of the stitched
  /// system (shunts included — the pad-grounded impedance, not the
  /// shunt-free graph ER): the squared_norm of the difference solve.
  /// Exactly 0, with no solve, when p == q.
  [[nodiscard]] real_t resistance(index_t p, index_t q, Workspace& ws) const;

  /// The solves behind those answers, for callers that schedule them
  /// separately (QueryFrontEnd runs a response's two on two threads):
  /// ws holds L^{-1} P e_p, or L^{-1} P (e_p - e_q) for p != q.
  void unit_solve(index_t p, ReachWorkspace& ws) const;
  void difference_solve(index_t p, index_t q, ReachWorkspace& ws) const;

 private:
  ModelSnapshot() = default;

  ModelPtr model_;
  std::uint64_t version_ = 0;
  double build_seconds_ = 0.0;
  double order_seconds_ = 0.0;
  double factor_seconds_ = 0.0;
  index_t num_boundary_nodes_ = 0;
  CholFactor factor_;  // G = L + diag(shunts), AMD ordered
};

}  // namespace er
