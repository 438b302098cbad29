/// \file
/// Immutable serving snapshot of a reduced model (DESIGN.md §4, §4.1).
///
/// A ModelSnapshot is built once from the reduction pipeline's artifacts
/// and then never mutated: every member is resident, read-only state
/// shared by any number of concurrent query threads. The sharded query
/// path is exact two-level domain decomposition on the stitched reduced
/// system G = L(reduced graph) + diag(shunts):
///
///   * per block: the Cholesky factor of its interior sub-system A_II and
///     the interior<->boundary coupling entries A_IB,
///   * globally: the Cholesky factor of the stitched boundary system
///     S = A_BB - sum_b A_BI (A_II)^-1 A_IB (interface Schur complement),
///   * plus a monolithic factor of the whole of G (the single-model
///     reference path).
///
/// A query touches only the owning block(s) of its endpoints and S, never
/// another block's factors, and runs no backward solve on S or G: it is a
/// forward-only reach solve (CholFactor::sparse_forward) along the
/// factor's elimination tree (DESIGN.md §4).
///
/// The per-block state lives in BlockArtifact objects expressed entirely
/// in *block-local* indices and held through shared_ptr: successive
/// snapshots of an incrementally-updated model share the artifacts of
/// clean blocks (copy-on-write — see ModelSnapshot::rebuild and
/// DESIGN.md §4.1), so a publish after a k-block update refactors only
/// the k dirty blocks and the boundary system. The stitched model itself
/// follows the same rule: the snapshot aliases the producer's frozen
/// ModelPtr version (zero-copy publish) rather than owning a copy —
/// model_bytes_copied() is 0 on that path.
#pragma once

#include <memory>
#include <vector>

#include "chol/factor.hpp"
#include "reduction/pipeline.hpp"
#include "util/types.hpp"

namespace er {

class ThreadPool;

/// Knobs of the serving-layer ResultCache (serve/result_cache.hpp), the
/// sharded (version, node-pair)-keyed answer cache in front of the query
/// paths. Embedded in ServingOptions so one struct configures a serving
/// deployment end to end; nothing constructs a cache implicitly — a
/// deployment opts in by building a ResultCache from these knobs and
/// attaching it to its ModelStore (ModelStore::attach_cache), which then
/// serves every batch of every route mode.
struct ResultCacheOptions {
  /// Lock stripes (rounded up to a power of two). More stripes = less
  /// contention between concurrent query chunks; each stripe owns an
  /// independent LRU list.
  std::size_t shards = 16;
  /// Whole-cache entry bound, split evenly across shards (per-shard LRU).
  /// Resident bytes are max_entries * ResultCache::kEntryBytes.
  std::size_t max_entries = std::size_t{1} << 18;
  /// How many published versions stay resolvable at once. A snapshot
  /// pinned past the cap (or never registered) misses through and
  /// recomputes — never a wrong answer (DESIGN.md §4.2).
  std::size_t version_cap = 8;
};

/// Knobs for ModelSnapshot::build.
struct ServingOptions {
  /// Also factor the whole stitched system (RouteMode::kMonolithic — the
  /// single-model reference the sharded path is validated against).
  /// Production sharded serving can turn this off to roughly halve the
  /// snapshot build cost and resident memory; kMonolithic queries on such
  /// a snapshot throw. The monolithic factor is global state and is rebuilt
  /// by every publish, so churn-heavy serving should disable it.
  bool build_monolithic_factor = true;
  /// Result-cache configuration (serve/result_cache.hpp). Only consulted
  /// by the deployment code that constructs the cache — ModelSnapshot
  /// itself never touches it.
  ResultCacheOptions cache;
};

/// Resident serving state of one partition block, expressed entirely in
/// block-local indices so it never references another block or a global
/// (snapshot-wide) numbering. This is what makes the artifact *shareable*:
/// a block untouched by an incremental update contributes bit-identical
/// local state to the next snapshot, so ModelSnapshot::rebuild aliases the
/// previous snapshot's shared_ptr instead of refactoring (DESIGN.md §4.1).
///
/// Index conventions: a *local id* is the block's merged node id (position
/// m in ReducedModel::block_kept[b]); an *interior slot* indexes
/// interior_locals; a *boundary slot* indexes boundary_locals.
struct BlockArtifact {
  /// A_IB entry: interior node (interior slot) coupled to one of the
  /// block's own boundary nodes (boundary slot) by an edge of weight
  /// `weight` (the matrix entry is -weight).
  struct Coupling {
    index_t interior = 0;  ///< interior slot of the interior endpoint
    index_t boundary = 0;  ///< boundary slot of the boundary endpoint
    real_t weight = 0.0;   ///< edge conductance
  };
  /// One triplet of this block's interface-Schur correction
  /// -A_BI (A_II)^-1 A_IB, in boundary slots.
  struct Correction {
    index_t row = 0;     ///< boundary slot (row)
    index_t col = 0;     ///< boundary slot (column)
    real_t value = 0.0;  ///< correction value (added into S)
  };
  /// Intra-block edge between two of the block's boundary nodes — part of
  /// A_BB, assembled into S by the snapshot.
  struct BoundaryEdge {
    index_t u = 0;       ///< boundary slot of one endpoint
    index_t v = 0;       ///< boundary slot of the other endpoint
    real_t weight = 0.0; ///< edge conductance
  };

  std::vector<index_t> interior_locals;  ///< interior slot -> local id
  std::vector<index_t> boundary_locals;  ///< boundary slot -> local id
  /// Local id -> weighted degree over the block's *own* edges (cut-edge
  /// weights are global state and are added by the snapshot's S assembly).
  std::vector<real_t> intra_wdeg;
  CholFactor factor;  ///< Cholesky of A_II (n == 0 if no interior)
  std::vector<Coupling> couplings;
  std::vector<Correction> corrections;
  std::vector<BoundaryEdge> boundary_edges;
};

/// Read-only serving state for one published model version. Every method is
/// const and thread-safe; per-query scratch lives in a caller-owned
/// Workspace so concurrent callers never share mutable state.
class ModelSnapshot {
 public:
  /// Per-caller scratch for the solve paths. Reuse one instance across
  /// queries (every query leaves it reusable); never share one across
  /// threads.
  struct Workspace {
    ReachWorkspace reach;          ///< reach solve on S or the monolithic factor
    std::vector<index_t> rhs_idx;  ///< sparse rhs of that solve (permuted)
    std::vector<real_t> rhs_val;
    std::vector<index_t> first_reach;  ///< a response's first reach solve
    std::vector<real_t> first_y;
    std::vector<real_t> block_rhs;  ///< interior solve of one block
  };

  /// Build a snapshot that *aliases* a frozen stitched model version
  /// (`blocks` indexed like model->block_kept): the zero-copy path — no
  /// model bytes are copied, the snapshot just pins `model`. The model must
  /// never be mutated after this call (the pipeline's ModelPtr producers
  /// guarantee that by construction). `pool` (optional) parallelizes the
  /// per-block factor construction; the snapshot contents are
  /// identical at any thread count (per-block slot writes, S assembled
  /// serially in block order). Throws std::runtime_error if the stitched
  /// system is not SPD (a connected component without any shunt).
  static std::shared_ptr<const ModelSnapshot> build(
      const std::vector<BlockReduced>& blocks, ModelPtr model,
      const ServingOptions& opts = {}, ThreadPool* pool = nullptr,
      std::uint64_t version = 0);

  /// Deep-copy overload: the snapshot owns a private copy of `model`
  /// (model_bytes_copied() reports its size). Kept for callers whose model
  /// is a mutable local — the shared-ownership overload above is the
  /// serving path.
  static std::shared_ptr<const ModelSnapshot> build(
      const std::vector<BlockReduced>& blocks, const ReducedModel& model,
      const ServingOptions& opts = {}, ThreadPool* pool = nullptr,
      std::uint64_t version = 0);

  /// Convenience overload over the whole artifacts bundle (aliases
  /// artifacts.model — zero-copy).
  static std::shared_ptr<const ModelSnapshot> build(
      const ReductionArtifacts& artifacts, const ServingOptions& opts = {},
      ThreadPool* pool = nullptr, std::uint64_t version = 0);

  /// Dirty-only rebuild: construct the snapshot of the updated model while
  /// *reusing* (aliasing) the previous snapshot's BlockArtifact of every
  /// block not listed in `dirty_blocks` — only the dirty blocks and the
  /// interface-Schur boundary factor (plus the monolithic factor, when
  /// enabled) are refactored. Serving options are inherited from
  /// `previous` so the shared artifacts stay homogeneous.
  ///
  /// Caller contract (same as IncrementalReducer::update): `blocks`/`model`
  /// must differ from the inputs of `previous` only in the listed dirty
  /// blocks. The result is then bit-identical to a full build(blocks,
  /// model, ...) — see DESIGN.md §4.1 for the argument. A block whose
  /// interior/boundary classification changed is rebuilt even when not
  /// listed dirty (defensive; classification of clean blocks is invariant
  /// under the update contract).
  static std::shared_ptr<const ModelSnapshot> rebuild(
      const ModelSnapshot& previous, const std::vector<BlockReduced>& blocks,
      ModelPtr model, const std::vector<index_t>& dirty_blocks,
      ThreadPool* pool = nullptr, std::uint64_t version = 0);

  /// The stitched model the answers refer to.
  [[nodiscard]] const ReducedModel& model() const { return *model_; }

  /// Shared handle of the stitched model — the same object the producer
  /// froze when this snapshot was built zero-copy (&*shared_model() ==
  /// &model()); holding it pins the model version beyond the snapshot.
  [[nodiscard]] ModelPtr shared_model() const { return model_; }

  /// Publisher-assigned version (IncrementalReducer: its revision count).
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// The options this snapshot was built with (rebuild inherits them).
  [[nodiscard]] const ServingOptions& options() const { return opts_; }

  [[nodiscard]] index_t num_blocks() const {
    return static_cast<index_t>(blocks_.size());
  }
  /// Reduced nodes incident to an inter-block edge (size of S).
  [[nodiscard]] index_t num_boundary_nodes() const {
    return static_cast<index_t>(boundary_nodes_.size());
  }
  [[nodiscard]] double build_seconds() const { return build_seconds_; }

  /// Blocks whose artifact was aliased from the previous snapshot (always 0
  /// for a full build).
  [[nodiscard]] index_t reused_blocks() const { return reused_blocks_; }
  /// Blocks whose artifact was (re)factored by this build.
  [[nodiscard]] index_t rebuilt_blocks() const {
    return num_blocks() - reused_blocks_;
  }

  // Publish-cost accounting (DESIGN.md §4.1): what this build materialized
  // vs. aliased. The churn bench reports these per publish.

  /// Bytes of stitched-model state this snapshot deep-copied: 0 on the
  /// shared-ownership (zero-copy) path, model_footprint_bytes(model()) on
  /// the deep-copy path.
  [[nodiscard]] std::size_t model_bytes_copied() const {
    return model_bytes_copied_;
  }
  /// Bytes of new serving state this build created: rebuilt BlockArtifacts
  /// (aliased ones count 0) + the boundary factor + the monolithic factor
  /// when enabled + any model copy. This is the per-publish cost that
  /// scales with the dirty set once the model is shared.
  [[nodiscard]] std::size_t bytes_materialized() const {
    return bytes_materialized_;
  }

  /// Original node id -> reduced id, or -1 if the node was eliminated (or
  /// out of range).
  [[nodiscard]] index_t reduced_id(index_t original) const;

  /// Partition block owning a reduced node.
  [[nodiscard]] index_t block_of_reduced(index_t reduced) const {
    return block_of_reduced_[static_cast<std::size_t>(reduced)];
  }
  /// True when the reduced node is part of the stitched boundary system.
  [[nodiscard]] bool is_boundary(index_t reduced) const {
    return boundary_index_[static_cast<std::size_t>(reduced)] >= 0;
  }

  // Sharded (domain-decomposition) query path — reduced node ids.

  /// Port response Z(p, q) = e_q^T G^{-1} e_p: voltage-drop response at q
  /// to a unit current injected at p.
  [[nodiscard]] real_t response(index_t p, index_t q, Workspace& ws) const;
  /// Effective resistance (e_p - e_q)^T G^{-1} (e_p - e_q) of the stitched
  /// system (shunts included — the pad-grounded impedance, not the
  /// shunt-free graph ER).
  [[nodiscard]] real_t resistance(index_t p, index_t q, Workspace& ws) const;

  // Monolithic reference path (one factor of the whole stitched system).
  // Throws std::logic_error when the snapshot was built with
  // ServingOptions::build_monolithic_factor = false.

  [[nodiscard]] bool has_monolithic_factor() const {
    return has_monolithic_factor_;
  }
  [[nodiscard]] real_t response_monolithic(index_t p, index_t q,
                                           Workspace& ws) const;
  [[nodiscard]] real_t resistance_monolithic(index_t p, index_t q,
                                             Workspace& ws) const;

 private:
  ModelSnapshot() = default;

  /// Per-snapshot view of one block: the (possibly shared) local artifact
  /// plus this snapshot's translation of the block's boundary slots into
  /// global boundary indices (cheap integer state, rebuilt per snapshot).
  struct BlockSystem {
    std::shared_ptr<const BlockArtifact> artifact;
    std::vector<index_t> boundary_global;  ///< boundary slot -> global idx
  };

  /// Shared implementation of build/rebuild: `previous`/`clean` select
  /// artifact reuse (both null for a full build; clean[b] != 0 marks a
  /// block whose previous artifact may be aliased). `model_bytes_copied`
  /// records how the model handle was produced (0 = aliased).
  static std::shared_ptr<const ModelSnapshot> build_impl(
      const std::vector<BlockReduced>& blocks, ModelPtr model,
      const ServingOptions& opts, ThreadPool* pool, std::uint64_t version,
      const ModelSnapshot* previous, const std::vector<char>* clean,
      std::size_t model_bytes_copied);

  /// Block-LDL^T condensation of the interior rhs entries (nodes[r],
  /// vals[r]) of block b: y = L_b^{-1} P_b b_I, then t = A_II^{-1} b_I
  /// (left in ws.block_rhs, block-permuted), and the S-rhs entries
  /// -A_BI t appended to ws.rhs_idx / ws.rhs_val. Returns ||y||^2 =
  /// b_I^T A_II^{-1} b_I.
  real_t condense_block(index_t b, const index_t* nodes, const real_t* vals,
                        int k, Workspace& ws) const;

  /// Condense the sparse rhs b = sum_r vals[r] e_{nodes[r]} (reduced ids)
  /// onto S: ws.rhs_idx / ws.rhs_val := c = b_B - A_BI A_II^{-1} b_I in
  /// S's permuted space. Returns the interior energy b_I^T A_II^{-1} b_I,
  /// each touched block condensed once.
  real_t condense(const index_t* nodes, const real_t* vals, int k,
                  Workspace& ws) const;

  ModelPtr model_;
  std::uint64_t version_ = 0;
  ServingOptions opts_;
  double build_seconds_ = 0.0;
  index_t reused_blocks_ = 0;
  std::size_t model_bytes_copied_ = 0;
  std::size_t bytes_materialized_ = 0;

  std::vector<index_t> block_of_reduced_;  // reduced -> block
  std::vector<index_t> boundary_index_;    // reduced -> boundary idx or -1
  std::vector<index_t> interior_index_;    // reduced -> interior idx or -1
  std::vector<index_t> boundary_nodes_;    // boundary idx -> reduced id
  std::vector<BlockSystem> blocks_;
  CholFactor boundary_factor_;  // S (n == 0 when there is no boundary)
  CholFactor global_factor_;    // monolithic factor of G
  bool has_monolithic_factor_ = false;
};

}  // namespace er
