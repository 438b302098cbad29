// Tests for effres: closed-form effective resistances (path, cycle,
// complete graph, series/parallel), agreement between engines, metric
// axioms, Rayleigh monotonicity, Foster's theorem, error-measurement
// harness, and the Alg. 3 build's thread handling (a transient pool when
// given none; the reduction's pool, bit-identical to a serial run).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "effres/approx_chol.hpp"
#include "effres/engine.hpp"
#include "effres/error_metrics.hpp"
#include "effres/exact.hpp"
#include "effres/random_projection.hpp"
#include "factor_test_util.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "reduction/pipeline.hpp"
#include "sparse/dense.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

/// Reference ER via the Laplacian pseudo-inverse (paper Eq. (3)).
real_t pinv_resistance(const Graph& g, index_t p, index_t q) {
  const CscMatrix l = laplacian(g);
  DenseMatrix d(g.num_nodes(), g.num_nodes(), l.to_dense());
  const DenseMatrix li = d.symmetric_pseudo_inverse();
  return li(p, p) + li(q, q) - 2 * li(p, q);
}

TEST(ExactEffRes, PathGraphSumsResistances) {
  // Path with conductances w: R(0, k) = sum 1/w_i.
  Graph g(5);
  const real_t w[4] = {1.0, 2.0, 4.0, 0.5};
  real_t expect = 0.0;
  for (index_t i = 0; i < 4; ++i) g.add_edge(i, i + 1, w[i]);
  const ExactEffRes engine(g);
  for (index_t k = 1; k < 5; ++k) {
    expect += 1.0 / w[k - 1];
    EXPECT_NEAR(engine.resistance(0, k), expect, 1e-12);
  }
}

TEST(ExactEffRes, CompleteGraphUnitWeights) {
  // K_n with unit weights: R(p,q) = 2/n for all pairs.
  const index_t n = 7;
  Graph g(n);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j) g.add_edge(i, j, 1.0);
  const ExactEffRes engine(g);
  for (index_t i = 0; i < n; ++i)
    for (index_t j = i + 1; j < n; ++j)
      EXPECT_NEAR(engine.resistance(i, j), 2.0 / n, 1e-12);
}

TEST(ExactEffRes, CycleIsParallelPaths) {
  // Cycle of n unit resistors: R across k hops = k(n-k)/n.
  const index_t n = 9;
  Graph g(n);
  for (index_t i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n, 1.0);
  const ExactEffRes engine(g);
  for (index_t k = 1; k < n; ++k)
    EXPECT_NEAR(engine.resistance(0, k),
                static_cast<real_t>(k) * (n - k) / n, 1e-12);
}

TEST(ExactEffRes, ParallelEdgesAddConductance) {
  Graph g(2);
  g.add_edge(0, 1, 2.0);
  g.add_edge(0, 1, 3.0);
  const ExactEffRes engine(g);
  EXPECT_NEAR(engine.resistance(0, 1), 1.0 / 5.0, 1e-12);
}

TEST(ExactEffRes, MatchesPseudoInverseOnRandomGraphs) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = erdos_renyi(24, 60, WeightKind::kUniform, seed);
    const ExactEffRes engine(g);
    Rng rng(seed + 100);
    for (int t = 0; t < 10; ++t) {
      const index_t p = rng.uniform_int(24);
      index_t q = rng.uniform_int(24);
      if (p == q) q = (q + 1) % 24;
      EXPECT_NEAR(engine.resistance(p, q), pinv_resistance(g, p, q), 1e-8);
    }
  }
}

TEST(ExactEffRes, SelfResistanceIsZeroAndSymmetric) {
  const Graph g = grid_2d(6, 6, WeightKind::kUniform, 4);
  const ExactEffRes engine(g);
  EXPECT_EQ(engine.resistance(3, 3), 0.0);
  for (int t = 0; t < 10; ++t)
    EXPECT_NEAR(engine.resistance(2, 30), engine.resistance(30, 2), 1e-12);
}

TEST(ExactEffRes, GroundConductanceDoesNotMatter) {
  // The §II-A grounding trick is exact for balanced injections: ER must be
  // independent of the ground conductance. Verify via two engines built on
  // differently-grounded Laplacians (via laplacian_with_shunts + cholesky).
  const Graph g = watts_strogatz(40, 3, 0.2, WeightKind::kUniform, 5);
  const ExactEffRes a(g);
  // Compare against pseudo-inverse reference (independent of grounding).
  EXPECT_NEAR(a.resistance(0, 17), pinv_resistance(g, 0, 17), 1e-8);
  EXPECT_NEAR(a.resistance(5, 23), pinv_resistance(g, 5, 23), 1e-8);
}

TEST(ExactEffRes, TriangleInequality) {
  // Effective resistance is a metric.
  const Graph g = barabasi_albert(60, 2, WeightKind::kUniform, 6);
  const ExactEffRes engine(g);
  Rng rng(7);
  for (int t = 0; t < 50; ++t) {
    const index_t p = rng.uniform_int(60);
    const index_t q = rng.uniform_int(60);
    const index_t r = rng.uniform_int(60);
    EXPECT_LE(engine.resistance(p, q),
              engine.resistance(p, r) + engine.resistance(r, q) + 1e-10);
  }
}

TEST(ExactEffRes, RayleighMonotonicity) {
  // Adding an edge can only decrease effective resistances.
  Graph g = grid_2d(5, 5, WeightKind::kUnit, 8);
  const ExactEffRes before(g);
  const real_t r_before = before.resistance(0, 24);
  g.add_edge(0, 24, 0.5);
  const ExactEffRes after(g);
  const real_t r_after = after.resistance(0, 24);
  EXPECT_LT(r_after, r_before);
  // And with the shortcut in parallel: R_new <= 1/w_shortcut.
  EXPECT_LE(r_after, 1.0 / 0.5 + 1e-12);
}

TEST(ExactEffRes, EdgeResistanceBelowWireResistance) {
  // For any edge (u,v,w): R(u,v) <= 1/w (the rest of the graph in parallel).
  const Graph g = random_geometric(120, 0.15, WeightKind::kUnit, 9);
  const ExactEffRes engine(g);
  for (std::size_t e = 0; e < std::min<std::size_t>(g.num_edges(), 100); ++e) {
    const auto& ed = g.edges()[e];
    EXPECT_LE(engine.resistance(ed.u, ed.v), 1.0 / ed.weight + 1e-10);
  }
}

TEST(ExactEffRes, FosterSumIsNodesMinusOne) {
  // Foster's theorem: sum over edges of w_e * R(e) = n - 1 on a connected
  // graph (each w_e * R(e) is the edge's share of the spanning trees).
  const Graph g = watts_strogatz(120, 3, 0.2, WeightKind::kUniform, 10);
  const ExactEffRes engine(g);
  double sum = 0.0;
  for (const auto& e : g.edges()) sum += e.weight * engine.resistance(e.u, e.v);
  EXPECT_NEAR(sum, 119.0, 1e-7);
}

TEST(ExactEffRes, BridgeLiesInEverySpanningTree) {
  // Two triangles joined by a bridge: the bridge is in every spanning tree
  // (w * R = 1); each triangle edge is in 2 of its triangle's 3 (w * R =
  // 2/3).
  Graph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  g.add_edge(3, 4);
  g.add_edge(4, 5);
  g.add_edge(5, 3);
  g.add_edge(2, 3);  // bridge
  const ExactEffRes engine(g);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const auto& ed = g.edges()[e];
    EXPECT_NEAR(ed.weight * engine.resistance(ed.u, ed.v),
                e == 6 ? 1.0 : 2.0 / 3.0, 1e-10)
        << "edge " << e;
  }
}

TEST(ApproxChol, AccurateOnCompleteFactorization) {
  // With droptol 0 (the complete factor) and tiny epsilon, Alg. 3 is
  // near-exact.
  const Graph g = grid_2d(8, 8, WeightKind::kUniform, 10);
  ApproxCholOptions opts;
  opts.droptol = 0.0;
  opts.epsilon = 1e-8;
  const ApproxCholEffRes approx(g, opts);
  const ExactEffRes exact(g);
  for (const auto& e : g.edges())
    EXPECT_NEAR(approx.resistance(e.u, e.v), exact.resistance(e.u, e.v),
                1e-5);
}

TEST(ApproxChol, PaperSettingsGiveSmallErrors) {
  // droptol = 1e-3, epsilon = 1e-3 (paper's Table I configuration).
  const Graph g = grid_2d(20, 20, WeightKind::kUniform, 11);
  const ApproxCholEffRes approx(g, {});
  const ExactEffRes exact(g);
  const ErrorReport rep = measure_edge_errors(g, approx, exact, 300);
  EXPECT_LT(rep.average_relative, 0.02);
  // Max error is dominated by a few ICT-dropped fill-ins at this small
  // scale; the paper's Em at these settings is also an order above Ea.
  EXPECT_LT(rep.max_relative, 0.30);
}

TEST(ApproxChol, DefaultSettingsBoundEveryEdgeOnGrid) {
  const Graph g = grid_2d(15, 15, WeightKind::kUniform, 11);
  const ApproxCholEffRes approx(g, {});
  const ExactEffRes exact(g);
  // 420 edges, under the 1000-edge sample: every edge is measured.
  const ErrorReport rep = measure_edge_errors(g, approx, exact);
  EXPECT_EQ(rep.samples, g.num_edges());
  EXPECT_LT(rep.max_relative, 0.05);
}

TEST(ApproxChol, StatsArePopulated) {
  const Graph g = barabasi_albert(200, 3, WeightKind::kUniform, 12);
  const ApproxCholEffRes approx(g, {});
  const auto& s = approx.stats();
  EXPECT_GT(s.factor_nnz, 0);
  EXPECT_GT(s.inverse_nnz, 0);
  EXPECT_GT(s.max_depth, 0);
  EXPECT_GT(s.nnz_ratio(g.num_nodes()), 0.0);
}

TEST(ApproxChol, ErrorDecreasesWithEpsilon) {
  const Graph g = grid_2d(15, 15, WeightKind::kUniform, 13);
  const ExactEffRes exact(g);
  double prev = 1e9;
  for (real_t eps : {3e-2, 3e-3, 3e-4}) {
    ApproxCholOptions opts;
    opts.epsilon = eps;
    opts.droptol = 0.0;  // isolate the epsilon effect
    const ApproxCholEffRes approx(g, opts);
    const ErrorReport rep = measure_edge_errors(g, approx, exact, 200);
    EXPECT_LE(rep.average_relative, prev + 1e-9);
    prev = rep.average_relative;
  }
  EXPECT_LT(prev, 1e-3);
}

std::uint64_t global_count(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

TEST(ApproxCholParallel, BuildWithoutAPoolStartsATransientOne) {
  // With no pool given, the build starts a transient 4-thread pool and
  // fans Alg. 2's columns out over it (test_parallel pins the same build
  // on pool workers bitwise).
  const Graph g = barabasi_albert(3000, 3, WeightKind::kUnit, 17);
  ApproxCholOptions opts;
  opts.parallel.num_threads = 4;
  const std::uint64_t started0 = global_count("er_pool_threads_started_total");
  const std::uint64_t tasks0 = global_count("er_pool_tasks_total");
  const ApproxCholEffRes build(g, opts);
  EXPECT_EQ(global_count("er_pool_threads_started_total") - started0, 4u);
  EXPECT_GT(global_count("er_pool_tasks_total"), tasks0);
}

TEST(ApproxCholParallel, ReductionBitIdenticalAtOneAndFourThreads) {
  // One block: its engine builds on the calling thread over the
  // reduction's pool. 32 blocks: the engines build on the workers, and
  // take in the idle ones, over the same pool.
  ConductanceNetwork net;
  net.graph = grid_2d(40, 40, WeightKind::kUniform, 18);
  const index_t n = net.graph.num_nodes();
  net.shunts.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<char> ports(static_cast<std::size_t>(n), 0);
  Rng rng(19);
  for (index_t placed = 0; placed < 96;) {
    const index_t v = rng.uniform_int(n);
    if (ports[static_cast<std::size_t>(v)]) continue;
    ports[static_cast<std::size_t>(v)] = 1;
    if (placed < 2) net.shunts[static_cast<std::size_t>(v)] = 50.0;
    ++placed;
  }
  for (index_t blocks : {1, 32}) {
    SCOPED_TRACE("blocks=" + std::to_string(blocks));
    ReductionOptions opts;
    opts.backend = ErBackend::kApproxChol;
    opts.num_blocks = blocks;
    opts.parallel.num_threads = 1;
    const ReducedModel serial = reduce_network(net, ports, opts);
    opts.parallel.num_threads = 4;
    const std::uint64_t started = global_count("er_pool_threads_started_total");
    const ReducedModel par = reduce_network(net, ports, opts);
    // Only the reduction's own pool: the single block's engine fans its
    // Alg. 2 columns out over that pool instead of starting another.
    EXPECT_EQ(global_count("er_pool_threads_started_total") - started, 4u);
    EXPECT_TRUE(models_identical(serial, par));
  }
}

TEST(RandomProjection, ConvergesToExactWithManyDimensions) {
  const Graph g = grid_2d(10, 10, WeightKind::kUnit, 14);
  const ExactEffRes exact(g);
  RandomProjectionOptions opts;
  opts.dimensions = 4000;  // large k -> small JL distortion
  const RandomProjectionEffRes approx(g, opts);
  const ErrorReport rep = measure_edge_errors(g, approx, exact, 100);
  EXPECT_LT(rep.average_relative, 0.05);
}

TEST(RandomProjection, DefaultDimensionsScaleWithLogN) {
  const Graph g = barabasi_albert(256, 2, WeightKind::kUnit, 15);
  RandomProjectionOptions opts;
  opts.auto_scale = 8.0;
  const RandomProjectionEffRes approx(g, opts);
  EXPECT_EQ(approx.stats().dimensions, 64);  // 8 * log2(256)
  EXPECT_EQ(approx.stats().projection_nnz,
            static_cast<offset_t>(64) * 256);
}

TEST(RandomProjection, LessAccurateThanApproxCholAtPaperSettings) {
  // The paper's central accuracy claim (Table I): Alg. 3 errors are one to
  // two orders below the random-projection baseline.
  const Graph g = grid_2d(18, 18, WeightKind::kUniform, 16);
  const ExactEffRes exact(g);
  const ApproxCholEffRes alg3(g, {});
  RandomProjectionOptions rp_opts;
  rp_opts.auto_scale = 16.0;
  const RandomProjectionEffRes rp(g, rp_opts);
  const ErrorReport e3 = measure_edge_errors(g, alg3, exact, 200);
  const ErrorReport erp = measure_edge_errors(g, rp, exact, 200);
  EXPECT_LT(e3.average_relative, erp.average_relative);
}

TEST(Engine, BatchMatchesScalarQueries) {
  const Graph g = grid_2d(7, 7, WeightKind::kUniform, 17);
  const ExactEffRes engine(g);
  const auto queries = all_edge_queries(g);
  const auto batch = engine.resistances(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i)
    EXPECT_DOUBLE_EQ(batch[i],
                     engine.resistance(queries[i].first, queries[i].second));
}

TEST(Engine, EveryEngineIsInfiniteAcrossComponents) {
  // The EffResEngine contract on two disjoint unit edges {0-1, 2-3}: no
  // current flows from 0 to 2, so every engine answers +infinity across
  // the components, scalar and batched — whatever ground conductance its
  // factor used — and a finite value within one.
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(2, 3, 1.0);
  const ExactEffRes exact(g);
  EXPECT_NEAR(exact.resistance(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(exact.resistance(3, 2), 1.0, 1e-12);
  const ApproxCholEffRes alg3(g);
  const RandomProjectionEffRes rp(g);
  constexpr real_t kInf = std::numeric_limits<real_t>::infinity();
  const std::vector<ResistanceQuery> queries = {{0, 1}, {0, 2}, {3, 1}};
  for (const EffResEngine* engine :
       {static_cast<const EffResEngine*>(&exact),
        static_cast<const EffResEngine*>(&alg3),
        static_cast<const EffResEngine*>(&rp)}) {
    SCOPED_TRACE(engine->name());
    EXPECT_EQ(engine->resistance(0, 2), kInf);
    EXPECT_EQ(engine->resistance(2, 0), kInf);
    EXPECT_EQ(engine->resistance(1, 3), kInf);
    const std::vector<real_t> batch = engine->resistances(queries);
    EXPECT_TRUE(std::isfinite(batch[0]));
    EXPECT_GT(batch[0], 0.0);
    EXPECT_EQ(batch[1], kInf);
    EXPECT_EQ(batch[2], kInf);
    EXPECT_EQ(engine->resistance(2, 2), 0.0);
  }
  // The exact engine's in-component batch answer is the exact 1.
  EXPECT_NEAR(exact.resistances(queries)[0], 1.0, 1e-12);
}

TEST(ErrorMetrics, ZeroForIdenticalEngines) {
  const Graph g = grid_2d(6, 6, WeightKind::kUniform, 18);
  const ExactEffRes engine(g);
  const ErrorReport rep = measure_edge_errors(g, engine, engine, 50);
  EXPECT_EQ(rep.average_relative, 0.0);
  EXPECT_EQ(rep.max_relative, 0.0);
  EXPECT_GT(rep.samples, 0u);
}

TEST(ErrorMetrics, DetectsKnownBias) {
  // An engine reporting 2x the true value has exactly 100% relative error.
  class Doubler final : public EffResEngine {
   public:
    explicit Doubler(const Graph& g) : inner_(g) {}
    [[nodiscard]] real_t resistance(index_t p, index_t q) const override {
      return 2.0 * inner_.resistance(p, q);
    }
    [[nodiscard]] std::string name() const override { return "doubler"; }

   private:
    ExactEffRes inner_;
  };
  const Graph g = grid_2d(5, 5, WeightKind::kUnit, 19);
  const ExactEffRes exact(g);
  const Doubler doubler(g);
  const ErrorReport rep = measure_edge_errors(g, doubler, exact, 30);
  EXPECT_NEAR(rep.average_relative, 1.0, 1e-12);
  EXPECT_NEAR(rep.max_relative, 1.0, 1e-12);
}

class ApproxCholFamilies : public ::testing::TestWithParam<int> {};

TEST_P(ApproxCholFamilies, SmallErrorAcrossGraphFamilies) {
  const int which = GetParam();
  Graph g = which == 0   ? grid_2d(14, 14, WeightKind::kUniform, 30)
            : which == 1 ? grid_3d(6, 6, 5, WeightKind::kUniform, 31)
            : which == 2 ? barabasi_albert(220, 3, WeightKind::kUniform, 32)
            : which == 3 ? watts_strogatz(200, 3, 0.1, WeightKind::kUniform, 33)
                         : multilayer_mesh(12, 12, 3, WeightKind::kLogUniform, 34);
  const ApproxCholEffRes approx(g, {});
  const ExactEffRes exact(g);
  const ErrorReport rep = measure_edge_errors(g, approx, exact, 200);
  EXPECT_LT(rep.average_relative, 0.05) << "family " << which;
}

INSTANTIATE_TEST_SUITE_P(Families, ApproxCholFamilies, ::testing::Range(0, 5));

}  // namespace
}  // namespace er
