/// \file
/// Algorithm 1 — power grid reduction via effective-resistance-based graph
/// sparsification (the framework of [8], modified to preserve all ports):
///
///   1. partition the network into blocks,
///   2. per block, eliminate non-port interior nodes (Schur complement),
///   3. per block, compute effective resistances of the reduced edges
///      (exact / random-projection / Alg. 3 — the paper's Table II axis),
///   4. merge electrically-indistinguishable non-port nodes, then sparsify
///      by effective-resistance sampling,
///   5. stitch blocks and cut edges into the final reduced network.
///
/// The per-block step is exposed separately (reduce_block / stitch_blocks)
/// so DC *incremental* analysis can re-reduce only modified blocks and
/// reuse the cached reductions of untouched ones (paper §IV-B lower
/// table), and the stitched model is exposed frozen behind shared
/// ownership (reduce_network_frozen) so the serving layer can keep it
/// resident without a copy (DESIGN.md §4).
#pragma once

#include <memory>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "reduction/network.hpp"
#include "util/types.hpp"

namespace er {

/// Which engine computes effective resistances in step 3 (Table II columns).
enum class ErBackend {
  kExact,             // "w/ Acc. Eff. Res."
  kRandomProjection,  // "w/ App. Eff. Res. ([1])"
  kApproxChol,        // "w/ App. Eff. Res. (Alg. 3)" — the paper's method
};

const char* to_string(ErBackend b);

struct ReductionOptions {
  /// Number of partition blocks; 0 = auto (#ports / 50, the paper's rule).
  index_t num_blocks = 0;
  /// Effective-resistance engine for step 3.
  ErBackend backend = ErBackend::kApproxChol;
  /// Alg. 3 parameters (backend == kApproxChol).
  real_t droptol = 1e-3;
  real_t epsilon = 1e-3;
  /// Random-projection dimension scale (backend == kRandomProjection).
  real_t projection_scale = 16.0;
  /// Sampling quality for sparsification: q = quality * n log2 n per block.
  real_t sparsify_quality = 4.0;
  /// Node-merge threshold relative to mean edge ER (0 disables merging).
  real_t merge_threshold = 0.0;
  /// Root seed of every per-block/per-row RNG stream (DESIGN.md §3).
  std::uint64_t seed = 42;
  /// Threading for block reduction and batched ER queries. The reduced
  /// model is bit-identical at any thread count (per-block RNG streams are
  /// derived as mix_seed(seed, block); see DESIGN.md §3).
  ParallelOptions parallel;
};

struct ReductionStats {
  /// Wall-clock per pipeline stage. The stages are disjoint spans of the
  /// run, so each is <= total_seconds (and their sum is ~total_seconds).
  double partition_seconds = 0.0;  ///< step 1
  double reduce_seconds = 0.0;     ///< steps 2-4 across all blocks
  double stitch_seconds = 0.0;     ///< step 5
  double total_seconds = 0.0;      ///< whole-run wall clock
  /// Aggregate per-block phase times: each block's wall time for the phase,
  /// summed over blocks that may run concurrently. These measure work
  /// (approximately CPU-seconds), not elapsed time, and can exceed
  /// total_seconds in multi-thread runs; compare against the wall-clock
  /// fields above to see how well a stage parallelized. Caveat: a block's
  /// Alg. 2 build and ER/RP queries take in the pool's idle workers (one
  /// block, or the last blocks of a dispatch), so that block's
  /// contribution is multi-thread wall time and *understates* CPU-seconds
  /// by up to the thread count.
  double schur_cpu_seconds = 0.0;     ///< step 2 aggregate over blocks
  double er_cpu_seconds = 0.0;        ///< step 3 aggregate over blocks
  double sparsify_cpu_seconds = 0.0;  ///< step 4 aggregate over blocks
  index_t blocks = 0;                 ///< partition width
  index_t original_nodes = 0;         ///< input |V|
  index_t reduced_nodes = 0;          ///< stitched model |V|
  std::size_t original_edges = 0;     ///< input |E|
  std::size_t reduced_edges = 0;      ///< stitched model |E|
};

/// Partition + node classification, computed once and reusable across
/// incremental re-reductions.
struct BlockStructure {
  index_t num_blocks = 0;
  std::vector<index_t> block_of;                 ///< node -> block
  std::vector<char> is_interface;                ///< touches a cut edge
  std::vector<std::vector<index_t>> block_nodes; ///< block -> member nodes
  std::vector<std::vector<Edge>> block_edges;    ///< block-internal edges
  std::vector<Edge> cut_edges;                   ///< inter-block edges
};

/// One block after steps 2-4.
struct BlockReduced {
  std::vector<index_t> kept_orig;   ///< S index -> original node id
  std::vector<index_t> merge_map;   ///< S index -> merged local id
  index_t merged_count = 0;         ///< nodes surviving the merge
  Graph sparse_graph;               ///< sparsified block, merged local ids
  std::vector<real_t> shunts;       ///< per merged local id
  double schur_seconds = 0.0;       ///< step 2 wall time of this block
  double er_seconds = 0.0;          ///< step 3 wall time of this block
  double sparsify_seconds = 0.0;    ///< step 4 wall time of this block
};

struct ReducedModel {
  ConductanceNetwork network;
  /// original node -> reduced node id, or -1 if eliminated.
  std::vector<index_t> node_map;
  /// reduced node id -> one original representative node.
  std::vector<index_t> representative;
  /// original node -> partition block (for cap redistribution etc.).
  std::vector<index_t> block_of;
  /// per block: reduced ids of its kept nodes.
  std::vector<std::vector<index_t>> block_kept;
  ReductionStats stats;
};

/// Shared ownership handle of one immutable stitched model version. The
/// pipeline produces every stitched model behind one of these so the
/// serving layer aliases it (zero-copy publish, DESIGN.md §4.1): once
/// wrapped, a version is never mutated — the reducer stitches the *next*
/// version into a fresh allocation and old versions die by refcount when
/// the last snapshot (or other pin) drops them.
using ModelPtr = std::shared_ptr<const ReducedModel>;

/// Step 1: partition the network and classify nodes/edges. `pool`
/// (optional) parallelizes the heavy per-level partitioner work; the
/// partition is identical at any thread count.
BlockStructure build_block_structure(const ConductanceNetwork& input,
                                     const std::vector<char>& is_port,
                                     const ReductionOptions& opts,
                                     ThreadPool* pool = nullptr);

/// Steps 2-4 for one block. `pool` (optional) parallelizes the block's
/// Alg. 2 build and batched ER queries over the calling thread and the
/// pool's idle workers, so passing the same pool the block dispatch uses
/// is safe.
BlockReduced reduce_block(const ConductanceNetwork& input,
                          const std::vector<char>& is_port,
                          const BlockStructure& structure, index_t block,
                          const ReductionOptions& opts,
                          ThreadPool* pool = nullptr);

/// Step 5: combine per-block reductions and cut edges. Two-pass: a serial
/// prefix sum over merged_count/edge counts fixes each block's global node
/// base and edge slice, then the per-block writes (node_map,
/// representative, shunts, edge slices) go across `pool` into disjoint
/// pre-sized slots; the cut-edge tail and parallel-edge coalescing stay
/// serial. Output is identical at any thread count. Sets
/// stats.stitch_seconds plus the per-phase *_cpu_seconds aggregates.
ReducedModel stitch_blocks(const ConductanceNetwork& input,
                           const BlockStructure& structure,
                           const std::vector<BlockReduced>& blocks,
                           ThreadPool* pool = nullptr);

/// Run the whole of Alg. 1. `is_port[v]` marks nodes that must survive
/// reduction (voltage/current source attachments).
ReducedModel reduce_network(const ConductanceNetwork& input,
                            const std::vector<char>& is_port,
                            const ReductionOptions& opts = {});

/// Like reduce_network, but returns the stitched model frozen behind
/// shared ownership: the handle a serving ModelSnapshot aliases instead of
/// copying (`serve/`, DESIGN.md §4). The lazy CSR cache is warmed first, so
/// the model may be read concurrently. The block structure and per-block
/// reductions are freed on return; IncrementalReducer keeps them when
/// blocks are to be re-reduced.
ModelPtr reduce_network_frozen(const ConductanceNetwork& input,
                               const std::vector<char>& is_port,
                               const ReductionOptions& opts = {});

/// Bit-exact equality of two per-block reductions (everything but the
/// timing fields): kept nodes, merge map, local graph edges/weights, and
/// shunts. The per-block determinism oracle of incremental re-reduction:
/// a block re-reduced by an update must come out bit-identical to the same
/// block of a fresh reduction of the modified network (DESIGN.md §3).
bool blocks_identical(const BlockReduced& a, const BlockReduced& b);

/// Bit-exact equality of everything but timing stats: node maps,
/// representatives, block bookkeeping, edges, weights, and shunts. This is
/// the determinism oracle used to assert that serial and parallel runs
/// agree (DESIGN.md §3).
bool models_identical(const ReducedModel& a, const ReducedModel& b);

}  // namespace er
