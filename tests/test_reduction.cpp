// Tests for reduction: Schur complement exactness (port-response
// preservation), network/matrix round trips, sparsification spectral
// quality, port merging, and the full Alg. 1 pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>

#include "chol/cholesky.hpp"
#include "effres/exact.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "order/mindeg.hpp"
#include "reduction/network.hpp"
#include "reduction/pipeline.hpp"
#include "reduction/port_merge.hpp"
#include "reduction/schur.hpp"
#include "reduction/sparsify.hpp"
#include "sparse/dense.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

/// Test fixture network: mesh + shunts at a few nodes (so it is SPD).
ConductanceNetwork mesh_network(index_t nx, index_t ny, std::uint64_t seed) {
  ConductanceNetwork net;
  net.graph = grid_2d(nx, ny, WeightKind::kUniform, seed);
  net.shunts.assign(static_cast<std::size_t>(nx * ny), 0.0);
  net.shunts[0] = 10.0;
  net.shunts[static_cast<std::size_t>(nx * ny - 1)] = 10.0;
  return net;
}

TEST(Network, MatrixRoundTrip) {
  const ConductanceNetwork net = mesh_network(5, 4, 1);
  const CscMatrix a = net.system_matrix();
  const ConductanceNetwork back = network_from_matrix(a);
  EXPECT_EQ(back.num_nodes(), net.num_nodes());
  // Graph weights and shunts must reproduce the matrix.
  const CscMatrix a2 = back.system_matrix();
  EXPECT_LT(a.add(a2, -1.0).max_abs(), 1e-12);
}

TEST(Network, RejectsPositiveOffDiagonal) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add_symmetric(0, 1, 0.5);  // positive off-diagonal: not a conductance
  EXPECT_THROW(network_from_matrix(CscMatrix::from_triplets(t)),
               std::invalid_argument);
}

TEST(Schur, PreservesPortResponseExactly) {
  // Solve A x = b with b supported on kept nodes; the Schur system must
  // reproduce x at the kept nodes to machine precision.
  const ConductanceNetwork net = mesh_network(6, 6, 2);
  const CscMatrix a = net.system_matrix();
  std::vector<index_t> keep{0, 5, 17, 30, 35};
  std::vector<index_t> elim;
  {
    std::vector<char> kept(36, 0);
    for (index_t k : keep) kept[static_cast<std::size_t>(k)] = 1;
    for (index_t v = 0; v < 36; ++v)
      if (!kept[static_cast<std::size_t>(v)]) elim.push_back(v);
  }
  const SchurResult s = schur_complement(a, keep, elim);

  Rng rng(3);
  std::vector<real_t> b(36, 0.0);
  for (index_t k : keep) b[static_cast<std::size_t>(k)] = rng.uniform(-1, 1);

  const CholFactor full = cholesky(a, mindeg_order(a));
  const auto x_full = full.solve(b);

  std::vector<real_t> bs(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i)
    bs[i] = b[static_cast<std::size_t>(keep[i])];
  const CholFactor red = cholesky(s.matrix, mindeg_order(s.matrix));
  const auto x_red = red.solve(bs);

  for (std::size_t i = 0; i < keep.size(); ++i)
    EXPECT_NEAR(x_red[i], x_full[static_cast<std::size_t>(keep[i])], 1e-9);
}

TEST(Schur, EmptyEliminationIsExtraction) {
  const ConductanceNetwork net = mesh_network(4, 4, 4);
  const CscMatrix a = net.system_matrix();
  std::vector<index_t> keep(16);
  for (index_t i = 0; i < 16; ++i) keep[static_cast<std::size_t>(i)] = i;
  const SchurResult s = schur_complement(a, keep, {});
  EXPECT_LT(a.add(s.matrix, -1.0).max_abs(), 1e-15);
}

TEST(Schur, ComplementIsSddConductanceNetwork) {
  // Schur complements of SDD matrices stay SDD: network_from_matrix must
  // accept them (nonnegative shunts, positive weights).
  const ConductanceNetwork net = mesh_network(8, 8, 5);
  const CscMatrix a = net.system_matrix();
  std::vector<index_t> keep, elim;
  for (index_t v = 0; v < 64; ++v)
    (v % 3 == 0 ? keep : elim).push_back(v);
  const SchurResult s = schur_complement(a, keep, elim);
  const ConductanceNetwork back = network_from_matrix(s.matrix);
  for (const auto& e : back.graph.edges()) EXPECT_GT(e.weight, 0.0);
  for (real_t sh : back.shunts) EXPECT_GE(sh, 0.0);
}

TEST(Schur, SizeMismatchThrows) {
  const CscMatrix a = mesh_network(3, 3, 6).system_matrix();
  EXPECT_THROW(schur_complement(a, {0, 1}, {2, 3}), std::invalid_argument);
}

TEST(Sparsify, SpanningForestKeepsConnectivity) {
  const Graph g = grid_2d(12, 12, WeightKind::kUniform, 7);
  const ExactEffRes er_engine(g);
  std::vector<real_t> edge_er;
  for (const auto& e : g.edges())
    edge_er.push_back(er_engine.resistance(e.u, e.v));
  SparsifyOptions opts;
  opts.quality = 0.3;  // aggressive
  const Graph s = sparsify_by_effective_resistance(g, edge_er, opts);
  EXPECT_TRUE(is_connected(s));
  EXPECT_LT(s.num_edges(), g.num_edges());
}

TEST(Sparsify, PreservesEffectiveResistancesApproximately) {
  const Graph g = grid_2d(10, 10, WeightKind::kUnit, 8);
  const ExactEffRes before(g);
  std::vector<real_t> edge_er;
  for (const auto& e : g.edges())
    edge_er.push_back(before.resistance(e.u, e.v));
  SparsifyOptions opts;
  opts.quality = 6.0;
  const Graph s = sparsify_by_effective_resistance(g, edge_er, opts);
  const ExactEffRes after(s);
  // Corner-to-corner resistance within ~25%.
  const real_t r0 = before.resistance(0, 99);
  const real_t r1 = after.resistance(0, 99);
  EXPECT_NEAR(r1, r0, 0.25 * r0);
}

TEST(Sparsify, TotalWeightRoughlyPreserved) {
  // Importance sampling is unbiased per edge: total conductance should be
  // within a modest factor of the original.
  const Graph g = grid_2d(14, 14, WeightKind::kUniform, 9);
  const ExactEffRes engine(g);
  std::vector<real_t> edge_er;
  for (const auto& e : g.edges())
    edge_er.push_back(engine.resistance(e.u, e.v));
  SparsifyOptions opts;
  opts.quality = 4.0;
  const Graph s = sparsify_by_effective_resistance(g, edge_er, opts);
  EXPECT_NEAR(s.total_weight(), g.total_weight(), 0.35 * g.total_weight());
}

TEST(Sparsify, MaxSpanningForestIsSpanning) {
  const Graph g = barabasi_albert(100, 3, WeightKind::kUniform, 10);
  std::vector<real_t> score(g.num_edges(), 1.0);
  const auto forest = max_spanning_forest(g, score);
  EXPECT_EQ(forest.size(), 99u);  // n-1 for a connected graph
}

TEST(PortMerge, DisabledThresholdKeepsEverything) {
  const Graph g = grid_2d(5, 5, WeightKind::kUnit, 11);
  std::vector<real_t> er_vals(g.num_edges(), 0.5);
  std::vector<char> mergeable(25, 1);
  MergeOptions opts;  // threshold 0
  const MergeResult r =
      merge_by_effective_resistance(g, er_vals, mergeable, opts);
  EXPECT_EQ(r.merged_count, 25);
  EXPECT_EQ(r.merged.num_edges(), g.num_edges());
}

TEST(PortMerge, MergesTightlyCoupledPair) {
  // Two nodes joined by a huge conductance (tiny ER) collapse.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1e6);  // nearly a short
  g.add_edge(2, 3, 1.0);
  const ExactEffRes engine(g);
  std::vector<real_t> er_vals;
  for (const auto& e : g.edges())
    er_vals.push_back(engine.resistance(e.u, e.v));
  std::vector<char> mergeable{1, 1, 1, 1};
  MergeOptions opts;
  opts.relative_threshold = 0.01;
  const MergeResult r =
      merge_by_effective_resistance(g, er_vals, mergeable, opts);
  EXPECT_EQ(r.merged_count, 3);
  EXPECT_EQ(r.node_map[1], r.node_map[2]);
}

TEST(PortMerge, NeverMergesTwoPorts) {
  Graph g(2);
  g.add_edge(0, 1, 1e9);
  std::vector<real_t> er_vals{1e-9};
  std::vector<char> mergeable{0, 0};  // both ports
  MergeOptions opts;
  opts.relative_threshold = 100.0;
  const MergeResult r =
      merge_by_effective_resistance(g, er_vals, mergeable, opts);
  EXPECT_EQ(r.merged_count, 2);
}

TEST(PortMerge, PortAbsorbsNonPort) {
  Graph g(3);
  g.add_edge(0, 1, 1e9);
  g.add_edge(1, 2, 1.0);
  std::vector<real_t> er_vals{1e-9, 0.9};
  std::vector<char> mergeable{0, 1, 1};  // 0 is a port
  MergeOptions opts;
  opts.relative_threshold = 0.1;
  const MergeResult r =
      merge_by_effective_resistance(g, er_vals, mergeable, opts);
  EXPECT_EQ(r.merged_count, 2);
  EXPECT_EQ(r.node_map[0], r.node_map[1]);
}

// ---------------- Full pipeline (Alg. 1) ----------------

struct PipelineCase {
  ConductanceNetwork net;
  std::vector<char> ports;
  std::vector<index_t> port_nodes;
};

PipelineCase make_case(index_t nx, index_t ny, index_t nports,
                       std::uint64_t seed) {
  PipelineCase c;
  c.net.graph = grid_2d(nx, ny, WeightKind::kUniform, seed);
  const index_t n = nx * ny;
  c.net.shunts.assign(static_cast<std::size_t>(n), 0.0);
  c.ports.assign(static_cast<std::size_t>(n), 0);
  Rng rng(seed + 1);
  while (static_cast<index_t>(c.port_nodes.size()) < nports) {
    const index_t v = rng.uniform_int(n);
    if (c.ports[static_cast<std::size_t>(v)]) continue;
    c.ports[static_cast<std::size_t>(v)] = 1;
    c.port_nodes.push_back(v);
  }
  // Ground a couple of ports so the system is SPD.
  c.net.shunts[static_cast<std::size_t>(c.port_nodes[0])] = 50.0;
  c.net.shunts[static_cast<std::size_t>(c.port_nodes[1])] = 50.0;
  return c;
}

/// Port-response error of a reduced model vs the original network.
real_t port_response_error(const PipelineCase& c, const ReducedModel& m) {
  Rng rng(77);
  std::vector<real_t> b(static_cast<std::size_t>(c.net.num_nodes()), 0.0);
  for (index_t p : c.port_nodes)
    b[static_cast<std::size_t>(p)] = rng.uniform(0.0, 1.0);

  const CholFactor full = cholesky(c.net.system_matrix());
  const auto x_full = full.solve(b);

  std::vector<real_t> br(static_cast<std::size_t>(m.network.num_nodes()), 0.0);
  for (index_t p : c.port_nodes)
    br[static_cast<std::size_t>(m.node_map[static_cast<std::size_t>(p)])] +=
        b[static_cast<std::size_t>(p)];
  const CholFactor red = cholesky(m.network.system_matrix());
  const auto x_red = red.solve(br);

  real_t err = 0.0, scale = 0.0;
  for (index_t p : c.port_nodes) {
    const index_t gid = m.node_map[static_cast<std::size_t>(p)];
    err += std::abs(x_full[static_cast<std::size_t>(p)] -
                    x_red[static_cast<std::size_t>(gid)]);
    scale = std::max(scale, std::abs(x_full[static_cast<std::size_t>(p)]));
  }
  return err / (static_cast<real_t>(c.port_nodes.size()) * scale);
}

TEST(Pipeline, AllPortsSurvive) {
  const PipelineCase c = make_case(16, 16, 40, 12);
  ReductionOptions opts;
  opts.num_blocks = 4;
  const ReducedModel m = reduce_network(c.net, c.ports, opts);
  for (index_t p : c.port_nodes)
    EXPECT_GE(m.node_map[static_cast<std::size_t>(p)], 0);
}

TEST(Pipeline, ReducesNodeCount) {
  const PipelineCase c = make_case(20, 20, 30, 13);
  ReductionOptions opts;
  opts.num_blocks = 4;
  const ReducedModel m = reduce_network(c.net, c.ports, opts);
  EXPECT_LT(m.stats.reduced_nodes, m.stats.original_nodes / 2);
  EXPECT_EQ(m.network.num_nodes(), m.stats.reduced_nodes);
}

TEST(Pipeline, ExactBackendSmallPortError) {
  const PipelineCase c = make_case(16, 16, 30, 14);
  ReductionOptions opts;
  opts.num_blocks = 4;
  opts.backend = ErBackend::kExact;
  opts.sparsify_quality = 6.0;
  const ReducedModel m = reduce_network(c.net, c.ports, opts);
  EXPECT_LT(port_response_error(c, m), 0.06);
}

TEST(Pipeline, ApproxCholBackendMatchesExactBackendQuality) {
  const PipelineCase c = make_case(16, 16, 30, 15);
  ReductionOptions exact_opts, alg3_opts;
  exact_opts.num_blocks = alg3_opts.num_blocks = 4;
  exact_opts.sparsify_quality = alg3_opts.sparsify_quality = 6.0;
  exact_opts.backend = ErBackend::kExact;
  alg3_opts.backend = ErBackend::kApproxChol;
  const ReducedModel me = reduce_network(c.net, c.ports, exact_opts);
  const ReducedModel ma = reduce_network(c.net, c.ports, alg3_opts);
  const real_t ee = port_response_error(c, me);
  const real_t ea = port_response_error(c, ma);
  // Paper claim: Alg. 3 ER does not degrade reduction accuracy.
  EXPECT_LT(ea, ee * 2.0 + 0.02);
}

TEST(Pipeline, MergingShrinksModelFurther) {
  const PipelineCase c = make_case(16, 16, 20, 16);
  ReductionOptions no_merge, with_merge;
  no_merge.num_blocks = with_merge.num_blocks = 4;
  with_merge.merge_threshold = 0.5;
  const ReducedModel m0 = reduce_network(c.net, c.ports, no_merge);
  const ReducedModel m1 = reduce_network(c.net, c.ports, with_merge);
  EXPECT_LE(m1.stats.reduced_nodes, m0.stats.reduced_nodes);
}

TEST(Pipeline, StatsAreConsistent) {
  const PipelineCase c = make_case(12, 12, 20, 17);
  ReductionOptions opts;
  opts.num_blocks = 3;
  const ReducedModel m = reduce_network(c.net, c.ports, opts);
  EXPECT_EQ(m.stats.blocks, 3);
  EXPECT_EQ(m.stats.original_nodes, 144);
  EXPECT_EQ(m.stats.reduced_edges, m.network.graph.num_edges());
  EXPECT_GE(m.stats.total_seconds, 0.0);
  // Representative round trip: representative of node_map[v] maps back.
  for (index_t p : c.port_nodes) {
    const index_t gid = m.node_map[static_cast<std::size_t>(p)];
    const index_t rep = m.representative[static_cast<std::size_t>(gid)];
    EXPECT_EQ(m.node_map[static_cast<std::size_t>(rep)], gid);
  }
}

TEST(Pipeline, AutoBlockCountFollowsPortRule) {
  const PipelineCase c = make_case(16, 16, 120, 18);
  ReductionOptions opts;  // num_blocks = 0 -> #ports/50 = 2
  const ReducedModel m = reduce_network(c.net, c.ports, opts);
  EXPECT_EQ(m.stats.blocks, 2);
}

class PipelineBackends : public ::testing::TestWithParam<ErBackend> {};

TEST_P(PipelineBackends, PortErrorBoundedOnMesh) {
  const PipelineCase c = make_case(14, 14, 24, 19);
  ReductionOptions opts;
  opts.num_blocks = 4;
  opts.backend = GetParam();
  opts.sparsify_quality = 6.0;
  opts.projection_scale = 24.0;
  const ReducedModel m = reduce_network(c.net, c.ports, opts);
  EXPECT_LT(port_response_error(c, m), 0.12)
      << "backend " << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backends, PipelineBackends,
                         ::testing::Values(ErBackend::kExact,
                                           ErBackend::kRandomProjection,
                                           ErBackend::kApproxChol));

// ---------------- Pinned reduction bits ----------------

/// FNV-1a over the bytes of a trivially copyable value.
template <typename T>
void fnv_mix(std::uint64_t& h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
}

/// Hash of what a reduction hands its consumers: the stitched edges and
/// weights, the shunts, and the original-to-reduced node map.
std::uint64_t model_hash(const ReducedModel& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  fnv_mix(h, m.network.num_nodes());
  for (const Edge& e : m.network.graph.edges()) {
    fnv_mix(h, e.u);
    fnv_mix(h, e.v);
    fnv_mix(h, e.weight);
  }
  for (const real_t s : m.network.shunts) fnv_mix(h, s);
  for (const index_t v : m.node_map) fnv_mix(h, v);
  return h;
}

struct PinnedReduction {
  ErBackend backend;
  real_t merge_threshold;
  index_t reduced_nodes;
  std::uint64_t hash;
};

// Hashes recorded before the no-merge path of reduce_block reused the
// edge ERs for the merged graph: every backend at merging off, at a
// threshold no edge falls below (0.02: the same nodes survive as with
// merging off) and at one that merges. A change to any of these bits
// — a reordered sum, a new skip — shows up here first.
TEST(Pipeline, ReductionBitsArePinned) {
  const PinnedReduction pinned[] = {
      {ErBackend::kExact, 0.0, 102, 0x4b6ec25bf083baf9ULL},
      {ErBackend::kExact, 0.02, 102, 0x4b6ec25bf083baf9ULL},
      {ErBackend::kExact, 0.5, 44, 0xeca0a6fe69e5bbdfULL},
      {ErBackend::kRandomProjection, 0.0, 102, 0x3b11374c020c4329ULL},
      {ErBackend::kRandomProjection, 0.02, 102, 0x3b11374c020c4329ULL},
      {ErBackend::kRandomProjection, 0.5, 44, 0x961c5b1135f4b4acULL},
      {ErBackend::kApproxChol, 0.0, 102, 0xcd6368ed46045352ULL},
      {ErBackend::kApproxChol, 0.02, 102, 0xcd6368ed46045352ULL},
      {ErBackend::kApproxChol, 0.5, 44, 0x2e74962cd548ae0dULL},
  };
  const PipelineCase c = make_case(16, 16, 20, 16);
  for (const PinnedReduction& want : pinned) {
    ReductionOptions opts;
    opts.num_blocks = 4;
    opts.backend = want.backend;
    opts.merge_threshold = want.merge_threshold;
    const ModelPtr m = reduce_network_frozen(c.net, c.ports, opts);
    EXPECT_EQ(m->stats.reduced_nodes, want.reduced_nodes)
        << to_string(want.backend) << " at " << want.merge_threshold;
    EXPECT_EQ(model_hash(*m), want.hash)
        << to_string(want.backend) << " at " << want.merge_threshold;
  }
}

}  // namespace
}  // namespace er
