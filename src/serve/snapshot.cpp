#include "serve/snapshot.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "chol/cholesky.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/coo.hpp"
#include "util/timer.hpp"

namespace er {

namespace {

/// Factor one block into its local artifact. Pure function of the block's
/// own reduction output and its local interior/boundary classification —
/// never of global (snapshot-wide) numbering — so the result is
/// bit-identical however the surrounding blocks changed, which is what
/// lets ModelSnapshot::rebuild alias artifacts of clean blocks.
std::shared_ptr<const BlockArtifact> build_block_artifact(
    const BlockReduced& blk, std::vector<index_t> interior_locals,
    std::vector<index_t> boundary_locals) {
  auto art = std::make_shared<BlockArtifact>();
  art->interior_locals = std::move(interior_locals);
  art->boundary_locals = std::move(boundary_locals);
  const index_t nloc = blk.merged_count;
  const auto ni = static_cast<index_t>(art->interior_locals.size());

  // local id -> interior / boundary slot.
  std::vector<index_t> islot(static_cast<std::size_t>(nloc), -1);
  std::vector<index_t> bslot(static_cast<std::size_t>(nloc), -1);
  for (std::size_t s = 0; s < art->interior_locals.size(); ++s)
    islot[static_cast<std::size_t>(art->interior_locals[s])] =
        static_cast<index_t>(s);
  for (std::size_t s = 0; s < art->boundary_locals.size(); ++s)
    bslot[static_cast<std::size_t>(art->boundary_locals[s])] =
        static_cast<index_t>(s);

  art->intra_wdeg.assign(static_cast<std::size_t>(nloc), 0.0);
  for (const Edge& e : blk.sparse_graph.edges()) {
    art->intra_wdeg[static_cast<std::size_t>(e.u)] += e.weight;
    art->intra_wdeg[static_cast<std::size_t>(e.v)] += e.weight;
  }

  // Classify the block's edges: interior-interior entries go into A_II,
  // interior-boundary edges become A_IB couplings, boundary-boundary edges
  // are A_BB entries the snapshot assembles into S.
  TripletMatrix t(ni, ni);
  for (index_t l = 0; l < ni; ++l) {
    const index_t g = art->interior_locals[static_cast<std::size_t>(l)];
    t.add(l, l,
          art->intra_wdeg[static_cast<std::size_t>(g)] +
              blk.shunts[static_cast<std::size_t>(g)]);
  }
  for (const Edge& e : blk.sparse_graph.edges()) {
    const index_t iu = islot[static_cast<std::size_t>(e.u)];
    const index_t iv = islot[static_cast<std::size_t>(e.v)];
    if (iu >= 0 && iv >= 0) {
      t.add_symmetric(iu, iv, -e.weight);
    } else if (iu >= 0) {
      art->couplings.push_back({iu, bslot[static_cast<std::size_t>(e.v)],
                                e.weight});
    } else if (iv >= 0) {
      art->couplings.push_back({iv, bslot[static_cast<std::size_t>(e.u)],
                                e.weight});
    } else {
      art->boundary_edges.push_back({bslot[static_cast<std::size_t>(e.u)],
                                     bslot[static_cast<std::size_t>(e.v)],
                                     e.weight});
    }
  }
  if (ni == 0) return art;
  art->factor = cholesky(CscMatrix::from_triplets(t));

  // This block's contribution to the interface Schur complement:
  // -A_BI (A_II)^-1 A_IB over the boundary slots it couples to. The
  // couplings are bucketed by boundary slot once, so assembling the
  // |coupled| x |coupled| correction touches each coupling entry once per
  // column/row instead of rescanning the whole list.
  std::vector<index_t> coupled;
  for (const BlockArtifact::Coupling& c : art->couplings)
    coupled.push_back(c.boundary);
  std::sort(coupled.begin(), coupled.end());
  coupled.erase(std::unique(coupled.begin(), coupled.end()), coupled.end());
  std::vector<std::vector<std::pair<index_t, real_t>>> by_boundary(
      coupled.size());
  for (const BlockArtifact::Coupling& c : art->couplings) {
    const auto lj = static_cast<std::size_t>(
        std::lower_bound(coupled.begin(), coupled.end(), c.boundary) -
        coupled.begin());
    by_boundary[lj].emplace_back(c.interior, c.weight);
  }
  std::vector<real_t> col(static_cast<std::size_t>(ni), 0.0);
  for (std::size_t lj = 0; lj < coupled.size(); ++lj) {
    std::fill(col.begin(), col.end(), 0.0);
    for (const auto& [i, w] : by_boundary[lj])
      col[static_cast<std::size_t>(i)] -= w;
    const std::vector<real_t> y = art->factor.solve(col);
    for (std::size_t lk = 0; lk < coupled.size(); ++lk) {
      real_t val = 0.0;
      for (const auto& [i, w] : by_boundary[lk])
        val += w * y[static_cast<std::size_t>(i)];
      if (val != 0.0)
        art->corrections.push_back({coupled[lk], coupled[lj], val});
    }
  }
  return art;
}

/// Validated clean-block mask of a dirty-only rebuild: clean[b] == 0 for
/// the listed dirty blocks.
std::vector<char> clean_mask(index_t nb,
                             const std::vector<index_t>& dirty_blocks) {
  std::vector<char> clean(static_cast<std::size_t>(nb), 1);
  for (index_t b : dirty_blocks) {
    if (b < 0 || b >= nb)
      throw std::out_of_range("ModelSnapshot::rebuild: bad block id");
    clean[static_cast<std::size_t>(b)] = 0;
  }
  return clean;
}

/// Approximate resident bytes of one block's serving state (factor + the
/// coupling/correction/classification arrays) — see
/// ModelSnapshot::bytes_materialized().
std::size_t artifact_footprint_bytes(const BlockArtifact& a) {
  return (a.interior_locals.size() + a.boundary_locals.size()) *
             sizeof(index_t) +
         a.intra_wdeg.size() * sizeof(real_t) + a.factor.footprint_bytes() +
         a.couplings.size() * sizeof(BlockArtifact::Coupling) +
         a.corrections.size() * sizeof(BlockArtifact::Correction) +
         a.boundary_edges.size() * sizeof(BlockArtifact::BoundaryEdge);
}

}  // namespace

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    const ReductionArtifacts& artifacts, const ServingOptions& opts,
    ThreadPool* pool, std::uint64_t version) {
  return build(artifacts.blocks, artifacts.model, opts, pool, version);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    const std::vector<BlockReduced>& reduced_blocks, ModelPtr input_model,
    const ServingOptions& opts, ThreadPool* pool, std::uint64_t version) {
  if (!input_model)
    throw std::invalid_argument("ModelSnapshot::build: null model");
  return build_impl(reduced_blocks, std::move(input_model), opts, pool,
                    version, nullptr, nullptr, /*model_bytes_copied=*/0);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build(
    const std::vector<BlockReduced>& reduced_blocks,
    const ReducedModel& input_model, const ServingOptions& opts,
    ThreadPool* pool, std::uint64_t version) {
  // Deep-copy path: freeze a private copy so the caller may keep mutating
  // its model. The copy is the O(nodes + edges) per-publish cost the
  // shared-ownership overload exists to avoid.
  return build_impl(reduced_blocks,
                    std::make_shared<const ReducedModel>(input_model), opts,
                    pool, version, nullptr, nullptr,
                    model_footprint_bytes(input_model));
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::rebuild(
    const ModelSnapshot& previous,
    const std::vector<BlockReduced>& reduced_blocks, ModelPtr input_model,
    const std::vector<index_t>& dirty_blocks, ThreadPool* pool,
    std::uint64_t version) {
  if (!input_model)
    throw std::invalid_argument("ModelSnapshot::rebuild: null model");
  const auto nb = static_cast<index_t>(input_model->block_kept.size());
  const std::vector<char> clean = clean_mask(nb, dirty_blocks);
  // A previous snapshot with a different block count cannot seed a reuse
  // (the partition changed under us); fall back to a full build.
  const ModelSnapshot* prev =
      previous.num_blocks() == nb ? &previous : nullptr;
  return build_impl(reduced_blocks, std::move(input_model),
                    previous.options(), pool, version, prev,
                    prev ? &clean : nullptr, /*model_bytes_copied=*/0);
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::build_impl(
    const std::vector<BlockReduced>& reduced_blocks, ModelPtr input_model,
    const ServingOptions& opts, ThreadPool* pool, std::uint64_t version,
    const ModelSnapshot* previous, const std::vector<char>* clean,
    std::size_t model_bytes_copied) {
  Timer timer;
  auto snap = std::shared_ptr<ModelSnapshot>(new ModelSnapshot());
  // Alias the frozen model version: the producer (reduce_network_artifacts
  // / IncrementalReducer) builds each version into a fresh allocation and
  // never mutates it afterwards, so the snapshot pins it instead of
  // copying O(nodes + edges) state per publish (DESIGN.md §4.1). The
  // deep-copy overloads pass a private copy here and account for it in
  // model_bytes_copied.
  snap->model_ = std::move(input_model);
  snap->version_ = version;
  snap->opts_ = opts;
  snap->model_bytes_copied_ = model_bytes_copied;
  const ReducedModel& model = *snap->model_;
  const Graph& rg = model.network.graph;
  const index_t n = rg.num_nodes();
  const auto nb_blocks = static_cast<index_t>(model.block_kept.size());

  // Reduced node -> owning block and block-local id (block_kept[b][m] is
  // the reduced id of the block's m-th merged node, matching the node ids
  // of BlockReduced::sparse_graph).
  snap->block_of_reduced_.assign(static_cast<std::size_t>(n), -1);
  std::vector<index_t> local_id(static_cast<std::size_t>(n), -1);
  for (index_t b = 0; b < nb_blocks; ++b) {
    const auto& kept = model.block_kept[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < kept.size(); ++m) {
      snap->block_of_reduced_[static_cast<std::size_t>(kept[m])] = b;
      local_id[static_cast<std::size_t>(kept[m])] = static_cast<index_t>(m);
    }
  }

  // Boundary = reduced nodes incident to an inter-block edge; everything
  // else is interior to its block. Cut (inter-block) edges are collected
  // here: their weights are global state that feeds the S diagonal and
  // off-diagonals below, never a block artifact.
  std::vector<char> boundary_flag(static_cast<std::size_t>(n), 0);
  std::vector<Edge> cut_edges;
  for (const Edge& e : rg.edges()) {
    if (snap->block_of_reduced_[static_cast<std::size_t>(e.u)] !=
        snap->block_of_reduced_[static_cast<std::size_t>(e.v)]) {
      boundary_flag[static_cast<std::size_t>(e.u)] = 1;
      boundary_flag[static_cast<std::size_t>(e.v)] = 1;
      cut_edges.push_back(e);
    }
  }
  snap->boundary_index_.assign(static_cast<std::size_t>(n), -1);
  snap->interior_index_.assign(static_cast<std::size_t>(n), -1);
  for (index_t v = 0; v < n; ++v)
    if (boundary_flag[static_cast<std::size_t>(v)]) {
      snap->boundary_index_[static_cast<std::size_t>(v)] =
          static_cast<index_t>(snap->boundary_nodes_.size());
      snap->boundary_nodes_.push_back(v);
    }

  // Per-block local classification (interior/boundary slots in ascending
  // local-id order — the same order global reduced ids follow inside a
  // block, so slot enumeration is stable across snapshots).
  std::vector<std::vector<index_t>> interior_locals(
      static_cast<std::size_t>(nb_blocks));
  std::vector<std::vector<index_t>> boundary_locals(
      static_cast<std::size_t>(nb_blocks));
  for (index_t b = 0; b < nb_blocks; ++b) {
    const auto& kept = model.block_kept[static_cast<std::size_t>(b)];
    for (std::size_t m = 0; m < kept.size(); ++m) {
      if (boundary_flag[static_cast<std::size_t>(kept[m])])
        boundary_locals[static_cast<std::size_t>(b)].push_back(
            static_cast<index_t>(m));
      else
        interior_locals[static_cast<std::size_t>(b)].push_back(
            static_cast<index_t>(m));
    }
  }

  // Per-block artifacts: reuse (alias) the previous snapshot's artifact
  // for clean blocks whose classification is unchanged, build the rest in
  // parallel into disjoint slots — identical at any thread count. The
  // classification check is defensive: under the rebuild contract a clean
  // block's interior/boundary split cannot change (its kept set and its
  // incident cut edges are untouched), so a mismatch means the caller's
  // dirty set was wrong and the block is refactored from scratch.
  snap->blocks_.resize(static_cast<std::size_t>(nb_blocks));
  std::vector<char> aliased(static_cast<std::size_t>(nb_blocks), 0);
  index_t reused = 0;
  for (index_t b = 0; b < nb_blocks; ++b) {
    if (!previous || !clean || !(*clean)[static_cast<std::size_t>(b)])
      continue;
    const auto& prev_art =
        previous->blocks_[static_cast<std::size_t>(b)].artifact;
    if (prev_art &&
        prev_art->interior_locals ==
            interior_locals[static_cast<std::size_t>(b)] &&
        prev_art->boundary_locals ==
            boundary_locals[static_cast<std::size_t>(b)]) {
      snap->blocks_[static_cast<std::size_t>(b)].artifact = prev_art;
      aliased[static_cast<std::size_t>(b)] = 1;
      ++reused;
    }
  }
  snap->reused_blocks_ = reused;
  parallel_for(pool, 0, nb_blocks, 1, [&](index_t lo, index_t hi) {
    for (index_t b = lo; b < hi; ++b) {
      BlockSystem& bs = snap->blocks_[static_cast<std::size_t>(b)];
      if (!bs.artifact)
        bs.artifact = build_block_artifact(
            reduced_blocks[static_cast<std::size_t>(b)],
            std::move(interior_locals[static_cast<std::size_t>(b)]),
            std::move(boundary_locals[static_cast<std::size_t>(b)]));
    }
  });

  // Per-snapshot translation tables: interior slots into the global
  // interior index map, boundary slots into global boundary indices.
  for (index_t b = 0; b < nb_blocks; ++b) {
    BlockSystem& bs = snap->blocks_[static_cast<std::size_t>(b)];
    const auto& kept = model.block_kept[static_cast<std::size_t>(b)];
    for (std::size_t s = 0; s < bs.artifact->interior_locals.size(); ++s)
      snap->interior_index_[static_cast<std::size_t>(
          kept[static_cast<std::size_t>(
              bs.artifact->interior_locals[s])])] = static_cast<index_t>(s);
    bs.boundary_global.reserve(bs.artifact->boundary_locals.size());
    for (const index_t l : bs.artifact->boundary_locals)
      bs.boundary_global.push_back(
          snap->boundary_index_[static_cast<std::size_t>(
              kept[static_cast<std::size_t>(l)])]);
  }

  // Stitched boundary system S = A_BB + per-block corrections, assembled
  // serially in fixed order: diagonals in boundary order (intra-block
  // weighted degree + shunt, then cut-edge weights in model edge order),
  // per-block boundary edges and corrections in (block, artifact) order,
  // cut-edge off-diagonals in model edge order.
  const auto nbd = static_cast<index_t>(snap->boundary_nodes_.size());
  if (nbd > 0) {
    std::vector<real_t> cut_wdeg(static_cast<std::size_t>(nbd), 0.0);
    for (const Edge& e : cut_edges) {
      cut_wdeg[static_cast<std::size_t>(
          snap->boundary_index_[static_cast<std::size_t>(e.u)])] += e.weight;
      cut_wdeg[static_cast<std::size_t>(
          snap->boundary_index_[static_cast<std::size_t>(e.v)])] += e.weight;
    }
    TripletMatrix s(nbd, nbd);
    for (index_t j = 0; j < nbd; ++j) {
      const index_t g = snap->boundary_nodes_[static_cast<std::size_t>(j)];
      const BlockSystem& bs = snap->blocks_[static_cast<std::size_t>(
          snap->block_of_reduced_[static_cast<std::size_t>(g)])];
      s.add(j, j,
            bs.artifact->intra_wdeg[static_cast<std::size_t>(
                local_id[static_cast<std::size_t>(g)])] +
                model.network.shunts[static_cast<std::size_t>(g)] +
                cut_wdeg[static_cast<std::size_t>(j)]);
    }
    for (const BlockSystem& bs : snap->blocks_)
      for (const BlockArtifact::BoundaryEdge& e :
           bs.artifact->boundary_edges)
        s.add_symmetric(bs.boundary_global[static_cast<std::size_t>(e.u)],
                        bs.boundary_global[static_cast<std::size_t>(e.v)],
                        -e.weight);
    for (const Edge& e : cut_edges)
      s.add_symmetric(snap->boundary_index_[static_cast<std::size_t>(e.u)],
                      snap->boundary_index_[static_cast<std::size_t>(e.v)],
                      -e.weight);
    for (const BlockSystem& bs : snap->blocks_)
      for (const BlockArtifact::Correction& c : bs.artifact->corrections)
        s.add(bs.boundary_global[static_cast<std::size_t>(c.row)],
              bs.boundary_global[static_cast<std::size_t>(c.col)], c.value);
    snap->boundary_factor_ = cholesky(CscMatrix::from_triplets(s));
  }

  if (opts.build_monolithic_factor) {
    snap->global_factor_ = cholesky(model.network.system_matrix());
    snap->has_monolithic_factor_ = true;
  }

  // Publish-cost accounting: everything this build created, as opposed to
  // aliased from the model or the previous snapshot. With a shared model
  // and a dirty-only rebuild this scales with the dirty set (plus the
  // always-global boundary / optional monolithic factors).
  std::size_t materialized = model_bytes_copied;
  for (index_t b = 0; b < nb_blocks; ++b)
    if (!aliased[static_cast<std::size_t>(b)])
      materialized += artifact_footprint_bytes(
          *snap->blocks_[static_cast<std::size_t>(b)].artifact);
  materialized += snap->boundary_factor_.footprint_bytes();
  if (snap->has_monolithic_factor_)
    materialized += snap->global_factor_.footprint_bytes();
  snap->bytes_materialized_ = materialized;

  snap->build_seconds_ = timer.seconds();
  return snap;
}

index_t ModelSnapshot::reduced_id(index_t original) const {
  if (original < 0 ||
      static_cast<std::size_t>(original) >= model_->node_map.size())
    return -1;
  return model_->node_map[static_cast<std::size_t>(original)];
}

real_t ModelSnapshot::condense_block(index_t b, const index_t* nodes,
                                     const real_t* vals, int k,
                                     Workspace& ws) const {
  const BlockSystem& bs = blocks_[static_cast<std::size_t>(b)];
  const CholFactor& f = bs.artifact->factor;
  ws.block_rhs.assign(static_cast<std::size_t>(f.n), 0.0);
  for (int r = 0; r < k; ++r) {
    const index_t g = nodes[r];
    if (boundary_index_[static_cast<std::size_t>(g)] < 0 &&
        block_of_reduced_[static_cast<std::size_t>(g)] == b)
      ws.block_rhs[static_cast<std::size_t>(f.inv_perm[static_cast<std::size_t>(
          interior_index_[static_cast<std::size_t>(g)])])] += vals[r];
  }
  // The block is small: dense forward and backward halves of its solve.
  // The forward half alone gives the interior energy as a sum of squares.
  f.forward_solve(ws.block_rhs);
  real_t energy = 0.0;
  for (const real_t y : ws.block_rhs) energy += y * y;
  f.backward_solve(ws.block_rhs);
  // c -= A_BI t; a coupling entry A[j,i] is -weight, hence the +weight.
  for (const BlockArtifact::Coupling& c : bs.artifact->couplings) {
    ws.rhs_idx.push_back(boundary_factor_.inv_perm[static_cast<std::size_t>(
        bs.boundary_global[static_cast<std::size_t>(c.boundary)])]);
    ws.rhs_val.push_back(c.weight *
                         ws.block_rhs[static_cast<std::size_t>(
                             f.inv_perm[static_cast<std::size_t>(c.interior)])]);
  }
  return energy;
}

real_t ModelSnapshot::condense(const index_t* nodes, const real_t* vals,
                               int k, Workspace& ws) const {
  ws.rhs_idx.clear();
  ws.rhs_val.clear();
  real_t energy = 0.0;
  for (int r = 0; r < k; ++r) {
    const index_t g = nodes[r];
    const index_t bidx = boundary_index_[static_cast<std::size_t>(g)];
    if (bidx >= 0) {
      ws.rhs_idx.push_back(
          boundary_factor_.inv_perm[static_cast<std::size_t>(bidx)]);
      ws.rhs_val.push_back(vals[r]);
      continue;
    }
    // Condense each block once, at its first interior rhs entry.
    const index_t b = block_of_reduced_[static_cast<std::size_t>(g)];
    bool seen = false;
    for (int r2 = 0; r2 < r; ++r2)
      seen = seen ||
             (boundary_index_[static_cast<std::size_t>(nodes[r2])] < 0 &&
              block_of_reduced_[static_cast<std::size_t>(nodes[r2])] == b);
    if (!seen) energy += condense_block(b, nodes, vals, k, ws);
  }
  return energy;
}

namespace {

/// Sum of squares of a reach solve: b^T (L L^T)^{-1} b = ||L^{-1} b||^2.
real_t squared_norm(const ReachWorkspace& rw) {
  real_t s = 0.0;
  for (const real_t y : rw.y) s += y * y;
  return s;
}

/// Dot product of two reach solves over the intersection of their
/// (ascending) reaches — outside it one of the two factors is zero.
real_t reach_dot(const std::vector<index_t>& ra, const std::vector<real_t>& ya,
                 const ReachWorkspace& b) {
  real_t s = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ra.size() && j < b.reach.size()) {
    if (ra[i] < b.reach[j]) {
      ++i;
    } else if (b.reach[j] < ra[i]) {
      ++j;
    } else {
      s += ya[i++] * b.y[j++];
    }
  }
  return s;
}

/// Reach solve of the rhs condense() left in the workspace.
void solve_condensed(const CholFactor& s, ModelSnapshot::Workspace& ws) {
  s.sparse_forward(ws.rhs_idx.data(), ws.rhs_val.data(),
                   static_cast<int>(ws.rhs_idx.size()), ws.reach);
}

/// Keep the result of a first reach solve while the workspace runs the
/// second one.
void save_first(ModelSnapshot::Workspace& ws) {
  ws.first_reach.assign(ws.reach.reach.begin(), ws.reach.reach.end());
  ws.first_y.assign(ws.reach.y.begin(), ws.reach.y.end());
}

}  // namespace

// Block-LDL^T identity behind the sharded path: with c_x = x_B - A_BI
// A_II^{-1} x_I, a^T G^{-1} b = a_I^T A_II^{-1} b_I + c_a^T S^{-1} c_b, and
// c^T S^{-1} c = ||L_S^{-1} P_S c||^2 — a forward-only reach solve on S.

real_t ModelSnapshot::response(index_t p, index_t q, Workspace& ws) const {
  const real_t one = 1.0;
  condense(&p, &one, 1, ws);
  // The interior term e_q^T A_II^{-1} e_p is nonzero only when both
  // endpoints are interior to one block; condense() left t = A_II^{-1} e_p
  // of p's block in ws.block_rhs (block-permuted).
  real_t z = 0.0;
  if (!is_boundary(p) && !is_boundary(q) &&
      block_of_reduced(p) == block_of_reduced(q)) {
    const CholFactor& f =
        blocks_[static_cast<std::size_t>(block_of_reduced(p))].artifact->factor;
    z = ws.block_rhs[static_cast<std::size_t>(f.inv_perm[static_cast<std::size_t>(
        interior_index_[static_cast<std::size_t>(q)])])];
  }
  solve_condensed(boundary_factor_, ws);
  save_first(ws);
  condense(&q, &one, 1, ws);
  solve_condensed(boundary_factor_, ws);
  return z + reach_dot(ws.first_reach, ws.first_y, ws.reach);
}

real_t ModelSnapshot::resistance(index_t p, index_t q, Workspace& ws) const {
  if (p == q) return 0.0;
  const index_t nodes[2] = {p, q};
  const real_t vals[2] = {1.0, -1.0};
  const real_t interior = condense(nodes, vals, 2, ws);
  solve_condensed(boundary_factor_, ws);
  return interior + squared_norm(ws.reach);
}

real_t ModelSnapshot::response_monolithic(index_t p, index_t q,
                                          Workspace& ws) const {
  if (!has_monolithic_factor())
    throw std::logic_error(
        "ModelSnapshot: built without the monolithic factor");
  const real_t one = 1.0;
  const index_t pp = global_factor_.inv_perm[static_cast<std::size_t>(p)];
  const index_t qq = global_factor_.inv_perm[static_cast<std::size_t>(q)];
  global_factor_.sparse_forward(&pp, &one, 1, ws.reach);
  save_first(ws);
  global_factor_.sparse_forward(&qq, &one, 1, ws.reach);
  return reach_dot(ws.first_reach, ws.first_y, ws.reach);
}

real_t ModelSnapshot::resistance_monolithic(index_t p, index_t q,
                                            Workspace& ws) const {
  if (!has_monolithic_factor())
    throw std::logic_error(
        "ModelSnapshot: built without the monolithic factor");
  if (p == q) return 0.0;
  const index_t idx[2] = {global_factor_.inv_perm[static_cast<std::size_t>(p)],
                          global_factor_.inv_perm[static_cast<std::size_t>(q)]};
  const real_t vals[2] = {1.0, -1.0};
  global_factor_.sparse_forward(idx, vals, 2, ws.reach);
  return squared_norm(ws.reach);
}

}  // namespace er
