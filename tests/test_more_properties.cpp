// Additional cross-cutting property and edge-case tests: closed forms on
// special graphs, degenerate inputs, determinism, and behavioural corners
// not covered by the per-module suites.
#include <gtest/gtest.h>

#include <cmath>

#include "chol/cholesky.hpp"
#include "chol/ichol.hpp"
#include "effres/approx_chol.hpp"
#include "effres/exact.hpp"
#include "graph/components.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "order/mindeg.hpp"
#include "pg/analysis.hpp"
#include "pg/generator.hpp"
#include "reduction/schur.hpp"
#include "reduction/sparsify.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

// ----------------------------------------------------------- closed forms

TEST(ClosedForms, StarGraphLeafToLeaf) {
  // Unit star with hub 0: R(leaf, leaf') = 2, R(hub, leaf) = 1.
  const index_t n = 8;
  Graph g(n);
  for (index_t i = 1; i < n; ++i) g.add_edge(0, i, 1.0);
  const ExactEffRes engine(g);
  EXPECT_NEAR(engine.resistance(0, 3), 1.0, 1e-12);
  EXPECT_NEAR(engine.resistance(2, 5), 2.0, 1e-12);
}

TEST(ClosedForms, WheatstoneBridgeBalanced) {
  // Balanced Wheatstone bridge: the cross edge carries no current, so the
  // resistance is independent of its weight.
  auto bridge = [](real_t cross) {
    Graph g(4);
    g.add_edge(0, 1, 1.0);
    g.add_edge(1, 3, 1.0);
    g.add_edge(0, 2, 1.0);
    g.add_edge(2, 3, 1.0);
    g.add_edge(1, 2, cross);
    const ExactEffRes e(g);
    return e.resistance(0, 3);
  };
  EXPECT_NEAR(bridge(0.001), bridge(1000.0), 1e-9);
  EXPECT_NEAR(bridge(1.0), 1.0, 1e-10);  // two parallel 2-ohm paths
}

TEST(ClosedForms, LadderNetworkSeriesParallel) {
  // 2-rung ladder: manual series/parallel calculation.
  //   0 -1- 1
  //   |     |
  //   2 -1- 3     all unit weights, plus rails 0-2, 1-3.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(1, 3, 1.0);
  const ExactEffRes e(g);
  // R(0,1): edge 1 ohm in parallel with path 0-2-3-1 (3 ohm) = 0.75.
  EXPECT_NEAR(e.resistance(0, 1), 0.75, 1e-12);
}

TEST(ClosedForms, Alg3OnWeightedPath) {
  Graph g(6);
  const real_t w[5] = {2.0, 0.5, 4.0, 1.0, 0.25};
  for (index_t i = 0; i < 5; ++i) g.add_edge(i, i + 1, w[i]);
  ApproxCholOptions opts;
  opts.droptol = 0.0;  // the complete factor; trees have no fill: exact
  opts.epsilon = 0.0;
  const ApproxCholEffRes engine(g, opts);
  real_t expect = 0.0;
  for (index_t k = 0; k < 5; ++k) {
    expect += 1.0 / w[k];
    EXPECT_NEAR(engine.resistance(0, k + 1), expect, 1e-12);
  }
}

// --------------------------------------------------------- degenerate in

TEST(Degenerate, SingleEdgeGraphEverywhere) {
  Graph g(2);
  g.add_edge(0, 1, 4.0);
  const ExactEffRes exact(g);
  const ApproxCholEffRes approx(g, {});
  EXPECT_NEAR(exact.resistance(0, 1), 0.25, 1e-12);
  EXPECT_NEAR(approx.resistance(0, 1), 0.25, 1e-9);
}

TEST(Degenerate, CholeskyOnOneByOne) {
  TripletMatrix t(1, 1);
  t.add(0, 0, 9.0);
  const CscMatrix a = CscMatrix::from_triplets(t);
  const CholFactor f = cholesky(a, identity_permutation(1));
  EXPECT_DOUBLE_EQ(f.diag(0), 3.0);
  const auto x = f.solve({18.0});
  EXPECT_DOUBLE_EQ(x[0], 2.0);
}

TEST(Degenerate, IcholOnDiagonalMatrix) {
  TripletMatrix t(4, 4);
  for (index_t i = 0; i < 4; ++i) t.add(i, i, static_cast<real_t>(i + 1));
  const CholFactor f = ichol(CscMatrix::from_triplets(t), identity_permutation(4));
  for (index_t i = 0; i < 4; ++i)
    EXPECT_NEAR(f.diag(i), std::sqrt(static_cast<real_t>(i + 1)), 1e-14);
}

TEST(Degenerate, SparsifyGraphWithNoEdges) {
  const Graph g(5);
  const Graph s = sparsify_by_effective_resistance(g, {}, {});
  EXPECT_EQ(s.num_nodes(), 5);
  EXPECT_EQ(s.num_edges(), 0u);
}

TEST(Degenerate, SchurKeepSingleNode) {
  const CscMatrix a = grounded_laplacian(grid_2d(3, 3));
  std::vector<index_t> keep{4}, elim;
  for (index_t v = 0; v < 9; ++v)
    if (v != 4) elim.push_back(v);
  const SchurResult s = schur_complement(a, keep, elim);
  EXPECT_EQ(s.matrix.rows(), 1);
  EXPECT_GT(s.matrix.at(0, 0), 0.0);
}

TEST(Degenerate, GeneratorRejectsBadArgs) {
  EXPECT_THROW(grid_2d(0, 5), std::invalid_argument);
  EXPECT_THROW(grid_3d(2, 0, 2), std::invalid_argument);
  EXPECT_THROW(barabasi_albert(3, 5), std::invalid_argument);
  EXPECT_THROW(watts_strogatz(4, 2, 0.1), std::invalid_argument);
  EXPECT_THROW(ibmpg_like_preset(9, 1.0), std::invalid_argument);
  PgGeneratorOptions bad;
  bad.nx = 1;
  EXPECT_THROW(generate_power_grid(bad), std::invalid_argument);
}

// ----------------------------------------------------------- determinism

TEST(Determinism, IcholIsDeterministic) {
  const CscMatrix a =
      grounded_laplacian(multilayer_mesh(12, 12, 2, WeightKind::kLogUniform, 1));
  const CholFactor f1 = ichol(a);
  const CholFactor f2 = ichol(a);
  ASSERT_EQ(f1.nnz(), f2.nnz());
  for (std::size_t k = 0; k < f1.values.size(); ++k)
    EXPECT_DOUBLE_EQ(f1.values[k], f2.values[k]);
}

TEST(Determinism, MinDegIsDeterministic) {
  const CscMatrix a = grounded_laplacian(erdos_renyi(200, 600, WeightKind::kUnit, 2));
  EXPECT_EQ(mindeg_order(a), mindeg_order(a));
}

// -------------------------------------------------------------- pg extras

TEST(PgExtras, NoLoadsMeansNoDrops) {
  PgGeneratorOptions o;
  o.nx = 8;
  o.ny = 8;
  o.layers = 2;
  o.load_density = 0.0;  // generator clamps to >= 1 load; remove after
  PowerGrid pg = generate_power_grid(o);
  pg.loads.clear();
  const DcSolution sol = solve_dc(pg.to_network(), pg.load_vector(0.0));
  for (real_t d : sol.drops) EXPECT_NEAR(d, 0.0, 1e-12);
}

TEST(PgExtras, DropScalesLinearlyWithLoad) {
  PgGeneratorOptions o;
  o.nx = 10;
  o.ny = 10;
  o.layers = 2;
  o.seed = 3;
  PowerGrid pg = generate_power_grid(o);
  const ConductanceNetwork net = pg.to_network();
  const DcSolution s1 = solve_dc(net, pg.load_vector(0.0));
  auto j2 = pg.load_vector(0.0);
  for (real_t& v : j2) v *= 3.0;
  const DcSolution s3 = solve_dc(net, j2);
  for (std::size_t i = 0; i < s1.drops.size(); ++i)
    EXPECT_NEAR(s3.drops[i], 3.0 * s1.drops[i], 1e-10);
}

TEST(PgExtras, TransientWithZeroCapsEqualsPerStepDc) {
  PgGeneratorOptions o;
  o.nx = 8;
  o.ny = 8;
  o.layers = 2;
  o.seed = 4;
  PowerGrid pg = generate_power_grid(o);
  for (auto& l : pg.loads) l.pulse = 0.0;  // constant loads
  const ConductanceNetwork net = pg.to_network();
  const std::vector<real_t> zero_caps(
      static_cast<std::size_t>(pg.num_nodes), 0.0);
  TransientOptions topts;
  topts.step = 1e-10;
  topts.steps = 3;
  const index_t probe = pg.loads.front().node;
  const TransientResult res =
      run_transient(net, zero_caps, pg.loads, topts, {probe});
  const DcSolution dc = solve_dc(net, pg.load_vector(0.0));
  for (real_t v : res.series[0])
    EXPECT_NEAR(v, dc.drops[static_cast<std::size_t>(probe)], 1e-10);
}

TEST(PgExtras, PortCountMatchesPadsPlusLoads) {
  PgGeneratorOptions o;
  o.nx = 12;
  o.ny = 12;
  o.layers = 2;
  o.seed = 5;
  const PowerGrid pg = generate_power_grid(o);
  std::size_t distinct = pg.port_nodes().size();
  EXPECT_LE(distinct, pg.pads.size() + pg.loads.size());
  EXPECT_GT(distinct, 0u);
}

// -------------------------------------------------------- ER engine misc

TEST(EngineMisc, NamesAreStable) {
  const Graph g = grid_2d(3, 3);
  EXPECT_EQ(ExactEffRes(g).name(), "exact");
  EXPECT_EQ(ApproxCholEffRes(g, {}).name(), "approx-chol");
}

TEST(EngineMisc, DisconnectedComponentsStillAnswerWithinComponent) {
  Graph g(6);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(3, 4, 2.0);
  g.add_edge(4, 5, 2.0);
  const ExactEffRes engine(g);  // grounding adds one bump per component
  EXPECT_NEAR(engine.resistance(0, 2), 2.0, 1e-10);
  EXPECT_NEAR(engine.resistance(3, 5), 1.0, 1e-10);
}

TEST(EngineMisc, ResistanceScalesInverselyWithWeights) {
  // Scaling all weights by c scales all resistances by 1/c.
  Graph a = grid_2d(6, 6, WeightKind::kUniform, 7);
  Graph b(a.num_nodes());
  for (const auto& e : a.edges()) b.add_edge(e.u, e.v, 5.0 * e.weight);
  const ExactEffRes ea(a), eb(b);
  Rng rng(8);
  for (int t = 0; t < 20; ++t) {
    const index_t p = rng.uniform_int(36);
    index_t q = rng.uniform_int(36);
    if (p == q) q = (q + 1) % 36;
    EXPECT_NEAR(eb.resistance(p, q), ea.resistance(p, q) / 5.0, 1e-10);
  }
}

}  // namespace
}  // namespace er
