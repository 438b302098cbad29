// Tests for solver: CG/PCG convergence, preconditioner correctness,
// iteration-count ordering (IC < Jacobi < identity on hard problems).
#include <gtest/gtest.h>

#include "chol/ichol.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "solver/pcg.hpp"
#include "sparse/dense.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

struct Problem {
  CscMatrix a;
  std::vector<real_t> b;
  std::vector<real_t> x_true;
};

Problem make_problem(const Graph& g, std::uint64_t seed) {
  Problem p{grounded_laplacian(g), {}, {}};
  Rng rng(seed);
  p.x_true.assign(static_cast<std::size_t>(p.a.cols()), 0.0);
  for (auto& v : p.x_true) v = rng.uniform(-1, 1);
  p.b = p.a.multiply(p.x_true);
  return p;
}

TEST(Pcg, PlainCgSolvesSmallSystem) {
  const Problem p = make_problem(grid_2d(10, 10, WeightKind::kUnit, 1), 2);
  const PcgResult r = pcg_solve(p.a, p.b, identity_preconditioner());
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < p.x_true.size(); ++i)
    EXPECT_NEAR(r.x[i], p.x_true[i], 1e-6);
}

TEST(Pcg, JacobiHandlesBadlyScaledWeights) {
  const Problem p =
      make_problem(grid_2d(12, 12, WeightKind::kLogUniform, 3), 4);
  const PcgResult r = pcg_solve(p.a, p.b, jacobi_preconditioner(p.a));
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < p.x_true.size(); ++i)
    EXPECT_NEAR(r.x[i], p.x_true[i], 1e-6);
}

TEST(Pcg, IcholPreconditionerConverges) {
  const Problem p =
      make_problem(barabasi_albert(300, 3, WeightKind::kUniform, 5), 6);
  IcholOptions opts;
  opts.droptol = 1e-2;
  const CholFactor f = ichol(p.a, opts);
  const PcgResult r = pcg_solve(p.a, p.b, ichol_preconditioner(f));
  ASSERT_TRUE(r.converged);
  for (std::size_t i = 0; i < p.x_true.size(); ++i)
    EXPECT_NEAR(r.x[i], p.x_true[i], 1e-6);
}

TEST(Pcg, IcholBeatsJacobiBeatsIdentityInIterations) {
  const Problem p =
      make_problem(grid_2d(30, 30, WeightKind::kLogUniform, 7), 8);
  PcgOptions opts;
  opts.max_iterations = 5000;

  const PcgResult plain = pcg_solve(p.a, p.b, identity_preconditioner(), opts);
  const PcgResult jac = pcg_solve(p.a, p.b, jacobi_preconditioner(p.a), opts);
  IcholOptions ic;
  ic.droptol = 1e-3;
  const CholFactor f = ichol(p.a, ic);
  const PcgResult icg = pcg_solve(p.a, p.b, ichol_preconditioner(f), opts);

  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(jac.converged);
  ASSERT_TRUE(icg.converged);
  EXPECT_LE(icg.iterations, jac.iterations);
  EXPECT_LE(jac.iterations, plain.iterations + 5);
}

TEST(Pcg, ZeroRhsGivesZeroSolution) {
  const Problem p = make_problem(grid_2d(5, 5, WeightKind::kUnit, 9), 10);
  const std::vector<real_t> zero(p.b.size(), 0.0);
  const PcgResult r = pcg_solve(p.a, zero, identity_preconditioner());
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.iterations, 0);
  for (real_t v : r.x) EXPECT_EQ(v, 0.0);
}

TEST(Pcg, ReportsNonConvergenceWhenStarved) {
  const Problem p =
      make_problem(grid_2d(40, 40, WeightKind::kLogUniform, 11), 12);
  PcgOptions opts;
  opts.max_iterations = 2;
  opts.rel_tolerance = 1e-14;
  const PcgResult r = pcg_solve(p.a, p.b, identity_preconditioner(), opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 2);
  EXPECT_GT(r.relative_residual, 0.0);
}

TEST(Pcg, SizeMismatchThrows) {
  const Problem p = make_problem(grid_2d(4, 4, WeightKind::kUnit, 13), 14);
  std::vector<real_t> bad(3, 1.0);
  EXPECT_THROW(pcg_solve(p.a, bad, identity_preconditioner()),
               std::invalid_argument);
}

TEST(Pcg, JacobiRejectsNonPositiveDiagonal) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, 0.0);
  const CscMatrix a = CscMatrix::from_triplets(t);
  EXPECT_THROW(jacobi_preconditioner(a), std::invalid_argument);
}

class PcgGraphSweep : public ::testing::TestWithParam<int> {};

TEST_P(PcgGraphSweep, ConvergesOnAllFamilies) {
  const int which = GetParam();
  Graph g = which == 0   ? grid_2d(15, 15, WeightKind::kUniform, 20)
            : which == 1 ? grid_3d(6, 6, 6, WeightKind::kUniform, 21)
            : which == 2 ? barabasi_albert(250, 3, WeightKind::kUniform, 22)
            : which == 3 ? random_geometric(250, 0.12, WeightKind::kUnit, 23)
                         : multilayer_mesh(12, 12, 3, WeightKind::kLogUniform, 24);
  const Problem p = make_problem(g, 25);
  IcholOptions ic;
  ic.droptol = 1e-3;
  const CholFactor f = ichol(p.a, ic);
  const PcgResult r = pcg_solve(p.a, p.b, ichol_preconditioner(f));
  ASSERT_TRUE(r.converged) << "family " << which;
  for (std::size_t i = 0; i < p.x_true.size(); ++i)
    EXPECT_NEAR(r.x[i], p.x_true[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Families, PcgGraphSweep, ::testing::Range(0, 5));

}  // namespace
}  // namespace er
