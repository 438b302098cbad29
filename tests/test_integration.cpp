// Cross-module integration tests and global mathematical invariants:
// Foster's theorem, ICT row-sum preservation under compensation,
// end-to-end Table-I-style and Table-II-style mini-flows, netlist file
// round trip through the filesystem.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "chol/cholesky.hpp"
#include "chol/ichol.hpp"
#include "effres/approx_chol.hpp"
#include "effres/error_metrics.hpp"
#include "effres/exact.hpp"
#include "effres/random_projection.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "pg/analysis.hpp"
#include "pg/generator.hpp"
#include "pg/incremental.hpp"
#include "pg/netlist.hpp"
#include "sparse/dense.hpp"
#include "util/stats.hpp"

namespace er {
namespace {

// ---------------------------------------------------------------- Foster --

TEST(Foster, SumOfEdgeLeverageEqualsNMinusOne) {
  // Foster's theorem: sum over edges of w_e * R(e) = n - #components.
  const Graph g = random_geometric(300, 0.12, WeightKind::kUnit, 3);
  const ExactEffRes engine(g);
  real_t acc = 0.0;
  for (const auto& e : g.edges())
    acc += e.weight * engine.resistance(e.u, e.v);
  EXPECT_NEAR(acc, static_cast<real_t>(g.num_nodes() - 1), 1e-6);
}

TEST(Foster, HoldsOnWeightedGraphs) {
  const Graph g = barabasi_albert(150, 3, WeightKind::kLogUniform, 5);
  const ExactEffRes engine(g);
  real_t acc = 0.0;
  for (const auto& e : g.edges())
    acc += e.weight * engine.resistance(e.u, e.v);
  EXPECT_NEAR(acc, static_cast<real_t>(g.num_nodes() - 1), 1e-6);
}

TEST(Foster, ApproxCholTracksTheInvariant) {
  // Alg. 3 at paper settings keeps Foster's sum within ~ a few percent —
  // a global accuracy check across every edge simultaneously.
  const Graph g = grid_2d(25, 25, WeightKind::kUniform, 7);
  const ApproxCholEffRes engine(g, {});
  real_t acc = 0.0;
  for (const auto& e : g.edges())
    acc += e.weight * engine.resistance(e.u, e.v);
  const auto expect = static_cast<real_t>(g.num_nodes() - 1);
  EXPECT_NEAR(acc, expect, 0.05 * expect);
}

// ------------------------------------------------- ICT compensation ------

TEST(IctCompensation, PreservesRowSums) {
  // With diagonal compensation, L L^T is the system matrix of a subgraph
  // with the same shunts: row sums (= shunt pattern) must match A's.
  const Graph g = grid_2d(14, 14, WeightKind::kLogUniform, 9);
  const CscMatrix a = grounded_laplacian(g);
  IcholOptions opts;
  opts.droptol = 1e-2;  // aggressive dropping to exercise compensation
  const CholFactor f = ichol(a, opts);

  // Row sums of L L^T via y = L (L^T 1).
  const index_t n = a.cols();
  std::vector<real_t> ones(static_cast<std::size_t>(n), 1.0);
  const CscMatrix l = f.to_csc();
  std::vector<real_t> lt1;
  l.multiply_transpose(ones, lt1);
  const auto llt1 = l.multiply(lt1);

  const auto a1 = a.permute_symmetric(f.perm).multiply(ones);
  for (index_t i = 0; i < n; ++i)
    EXPECT_NEAR(llt1[static_cast<std::size_t>(i)],
                a1[static_cast<std::size_t>(i)], 1e-9)
        << "row " << i;
}

TEST(IctCompensation, WithoutItRowSumsGrow) {
  // Sanity for the ablation claim: uncompensated ICT inflates row sums
  // (spurious ground leakage).
  const Graph g = grid_2d(14, 14, WeightKind::kLogUniform, 9);
  const CscMatrix a = grounded_laplacian(g);
  IcholOptions opts;
  opts.droptol = 1e-2;
  opts.diagonal_compensation = false;
  const CholFactor f = ichol(a, opts);

  const index_t n = a.cols();
  std::vector<real_t> ones(static_cast<std::size_t>(n), 1.0);
  const CscMatrix l = f.to_csc();
  std::vector<real_t> lt1;
  l.multiply_transpose(ones, lt1);
  const auto llt1 = l.multiply(lt1);
  const auto a1 = a.permute_symmetric(f.perm).multiply(ones);

  real_t total_excess = 0.0;
  for (index_t i = 0; i < n; ++i)
    total_excess += llt1[static_cast<std::size_t>(i)] -
                    a1[static_cast<std::size_t>(i)];
  EXPECT_GT(total_excess, 1e-3);
}

TEST(IctCompensation, LongRangeAccuracyBenefits) {
  // The compensated factor must be substantially more accurate for far
  // pairs than the uncompensated one (the failure mode it exists for).
  const Graph g = grid_2d(30, 30, WeightKind::kUniform, 11);
  const ExactEffRes exact(g);

  auto worst_far_error = [&](bool compensated) {
    ApproxCholOptions opts;  // droptol 1e-3
    // Route through the engine by building a custom factor path: the engine
    // always compensates, so do the comparison at the ichol level.
    IcholOptions ic;
    ic.droptol = 1e-3;
    ic.diagonal_compensation = compensated;
    const CscMatrix lg = grounded_laplacian(g);
    const CholFactor f = ichol(lg, ic);
    const ApproxInverse z = ApproxInverse::build(f, {1e-3});
    real_t worst = 0.0;
    for (index_t k = 0; k < 10; ++k) {
      const index_t p = k * 7 % g.num_nodes();
      const index_t q = g.num_nodes() - 1 - (k * 13 % 100);
      if (p == q) continue;
      const index_t pp = f.inv_perm[static_cast<std::size_t>(p)];
      const index_t qq = f.inv_perm[static_cast<std::size_t>(q)];
      const real_t approx = z.column_distance_squared(pp, qq);
      worst = std::max(worst, relative_error(approx, exact.resistance(p, q)));
    }
    return worst;
  };

  EXPECT_LT(worst_far_error(true), worst_far_error(false));
}

// --------------------------------------------------- Table-I mini flow ---

TEST(Integration, TableOneMiniFlow) {
  // The full Table-I comparison on one small graph: Alg. 3 must beat the
  // baseline on accuracy at these settings, and both must be sane.
  const Graph g = multilayer_mesh(30, 30, 3, WeightKind::kLogUniform, 13);
  const ExactEffRes exact(g);

  const ApproxCholEffRes alg3(g, {});
  RandomProjectionOptions rp_opts;
  rp_opts.auto_scale = 12.0;
  const RandomProjectionEffRes rp(g, rp_opts);

  const ErrorReport e3 = measure_edge_errors(g, alg3, exact, 400);
  const ErrorReport erp = measure_edge_errors(g, rp, exact, 400);

  EXPECT_LT(e3.average_relative, 0.01);
  EXPECT_LT(e3.average_relative, erp.average_relative);
  EXPECT_GT(alg3.stats().max_depth, 0);
  EXPECT_GT(alg3.stats().nnz_ratio(g.num_nodes()), 0.0);
  EXPECT_GT(rp.stats().nnz_ratio(g.num_nodes()),
            alg3.stats().nnz_ratio(g.num_nodes()));
}

// -------------------------------------------------- Table-II mini flow ---

TEST(Integration, TableTwoMiniFlow) {
  PgGeneratorOptions gopts;
  gopts.nx = 24;
  gopts.ny = 24;
  gopts.layers = 2;
  gopts.seed = 15;
  const PowerGrid pg = generate_power_grid(gopts);
  const ConductanceNetwork net = pg.to_network();
  const auto j = pg.load_vector(0.0);
  const DcSolution full = solve_dc(net, j);

  for (ErBackend backend : {ErBackend::kExact, ErBackend::kApproxChol}) {
    ReductionOptions ropts;
    ropts.backend = backend;
    ropts.num_blocks = 4;
    ropts.sparsify_quality = 5.0;
    ropts.merge_threshold = 0.02;
    const ReducedModel m = reduce_network(net, pg.port_mask(), ropts);
    EXPECT_LT(m.stats.reduced_nodes, pg.num_nodes);
    const DcSolution red = solve_dc(m.network, map_injections(m, j));
    const SolutionError err = compare_dc(full.drops, red, m, pg.port_nodes());
    EXPECT_LT(err.rel, 0.06) << to_string(backend);
  }
}

TEST(Integration, IncrementalFlowEndToEnd) {
  PgGeneratorOptions gopts;
  gopts.nx = 24;
  gopts.ny = 24;
  gopts.layers = 2;
  gopts.seed = 17;
  const PowerGrid pg = generate_power_grid(gopts);
  const ConductanceNetwork net = pg.to_network();

  ReductionOptions ropts;
  ropts.num_blocks = 6;
  IncrementalReducer reducer(net, pg.port_mask(), ropts);
  const GridModification mod =
      random_modification(reducer.structure().num_blocks, 0.2, 1.25, 19);
  const ConductanceNetwork modified =
      apply_modification(net, reducer.structure(), mod);
  const ReducedModel& m = reducer.update(modified, mod.dirty_blocks);

  const auto j = pg.load_vector(0.0);
  const DcSolution full = solve_dc(modified, j);
  const DcSolution red = solve_dc(m.network, map_injections(m, j));
  const SolutionError err = compare_dc(full.drops, red, m, pg.port_nodes());
  EXPECT_LT(err.rel, 0.06);
}

// ------------------------------------------------------- file round trip -

TEST(Integration, NetlistFileRoundTrip) {
  PgGeneratorOptions gopts;
  gopts.nx = 10;
  gopts.ny = 10;
  gopts.layers = 2;
  gopts.seed = 21;
  const PowerGrid pg = generate_power_grid(gopts);
  const std::string path = "test_roundtrip_grid.sp";
  write_netlist_file(pg, path);
  const PowerGrid back = read_netlist_file(path);
  std::remove(path.c_str());

  ASSERT_EQ(back.num_nodes, pg.num_nodes);
  // Same DC solution through the round trip.
  const DcSolution a = solve_dc(pg.to_network(), pg.load_vector(0.0));
  const DcSolution b = solve_dc(back.to_network(), back.load_vector(0.0));
  for (std::size_t i = 0; i < a.drops.size(); ++i)
    EXPECT_NEAR(a.drops[i], b.drops[i], 1e-12);
}

// ------------------------------------------------ determinism & rebuild --

TEST(Integration, Alg3FullyDeterministic) {
  const Graph g = multilayer_mesh(20, 20, 2, WeightKind::kLogUniform, 23);
  const ApproxCholEffRes a(g, {});
  const ApproxCholEffRes b(g, {});
  for (const auto& e : g.edges())
    EXPECT_DOUBLE_EQ(a.resistance(e.u, e.v), b.resistance(e.u, e.v));
}

TEST(Integration, ReductionDeterministicForSeed) {
  PgGeneratorOptions gopts;
  gopts.nx = 16;
  gopts.ny = 16;
  gopts.seed = 25;
  const PowerGrid pg = generate_power_grid(gopts);
  const ConductanceNetwork net = pg.to_network();
  ReductionOptions ropts;
  ropts.num_blocks = 4;
  const ReducedModel a = reduce_network(net, pg.port_mask(), ropts);
  const ReducedModel b = reduce_network(net, pg.port_mask(), ropts);
  ASSERT_EQ(a.network.graph.num_edges(), b.network.graph.num_edges());
  for (std::size_t e = 0; e < a.network.graph.num_edges(); ++e)
    EXPECT_DOUBLE_EQ(a.network.graph.edges()[e].weight,
                     b.network.graph.edges()[e].weight);
}

}  // namespace
}  // namespace er
