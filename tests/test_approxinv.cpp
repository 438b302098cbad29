// Tests for approxinv: depth (Eq. 11) vs brute force, Lemma 1
// (nonnegativity of Z), exactness at epsilon=0, Theorem 1 error bound,
// truncation semantics, log-n floor, the pool-scheduled build (bitwise
// equal to a serial full-sort reference and to itself at every thread
// count, on 1-thread pools, from a worker of the same pool and across
// storage chunks),
// the dense hub tail against the same reference, and the binade-bounded
// truncation cut against a full sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "approxinv/approx_inverse.hpp"
#include "approxinv/depth.hpp"
#include "approxinv/truncation.hpp"
#include "chol/cholesky.hpp"
#include "chol/dense_tail.hpp"
#include "chol/ichol.hpp"
#include "factor_test_util.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/dense.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

/// Brute-force depth per Eq. (11) computed from the factor's dense pattern.
std::vector<index_t> depth_reference(const CholFactor& f) {
  const index_t n = f.n;
  const auto l = f.to_csc().to_dense();
  std::vector<index_t> depth(static_cast<std::size_t>(n), -1);
  // Recurrence evaluated by repeated passes (small n only).
  bool changed = true;
  while (changed) {
    changed = false;
    for (index_t p = n; p-- > 0;) {
      index_t d = 0;
      bool has_offdiag = false, ready = true;
      for (index_t i = p + 1; i < n; ++i) {
        if (l[static_cast<std::size_t>(p) * n + i] != 0.0) {
          has_offdiag = true;
          if (depth[static_cast<std::size_t>(i)] < 0) {
            ready = false;
            break;
          }
          d = std::max(d, static_cast<index_t>(
                              depth[static_cast<std::size_t>(i)] + 1));
        }
      }
      if (!ready) continue;
      const index_t want = has_offdiag ? d : 0;
      if (depth[static_cast<std::size_t>(p)] != want) {
        depth[static_cast<std::size_t>(p)] = want;
        changed = true;
      }
    }
  }
  return depth;
}

/// Dense inverse of the factor's L (reference Z).
DenseMatrix inverse_of_factor(const CholFactor& f) {
  const index_t n = f.n;
  const auto l = f.to_csc().to_dense();
  DenseMatrix inv(n, n);
  // Forward solves against unit vectors.
  for (index_t c = 0; c < n; ++c) {
    std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
    x[static_cast<std::size_t>(c)] = 1.0;
    for (index_t j = 0; j < n; ++j) {
      const real_t xj = x[static_cast<std::size_t>(j)] /
                        l[static_cast<std::size_t>(j) * n + j];
      x[static_cast<std::size_t>(j)] = xj;
      if (xj == 0.0) continue;
      for (index_t i = j + 1; i < n; ++i)
        x[static_cast<std::size_t>(i)] -=
            l[static_cast<std::size_t>(j) * n + i] * xj;
    }
    for (index_t r = 0; r < n; ++r) inv(r, c) = x[static_cast<std::size_t>(r)];
  }
  return inv;
}

TEST(Depth, MatchesBruteForceOnSmallGraphs) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const Graph g = erdos_renyi(30, 70, WeightKind::kUniform, seed);
    const CscMatrix lg = grounded_laplacian(g);
    const CholFactor f = cholesky(lg, mindeg_order(lg));
    const auto fast = filled_graph_depths(f);
    const auto ref = depth_reference(f);
    for (index_t v = 0; v < f.n; ++v)
      EXPECT_EQ(fast[static_cast<std::size_t>(v)],
                ref[static_cast<std::size_t>(v)])
          << "node " << v << " seed " << seed;
  }
}

TEST(Depth, PathGraphNaturalOrderIsLinear) {
  // Tridiagonal L: depth(p) = n-1-p.
  const Graph g = grid_2d(8, 1);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, identity_permutation(lg.cols()));
  const auto d = filled_graph_depths(f);
  for (index_t p = 0; p < 8; ++p)
    EXPECT_EQ(d[static_cast<std::size_t>(p)], 7 - p);
  EXPECT_EQ(max_filled_graph_depth(f), 7);
}

TEST(Depth, LastColumnIsZero) {
  const Graph g = barabasi_albert(60, 2, WeightKind::kUniform, 5);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  const auto d = filled_graph_depths(f);
  EXPECT_EQ(d.back(), 0);
}

TEST(ApproxInverse, ExactWhenEpsilonZero) {
  const Graph g = erdos_renyi(40, 90, WeightKind::kUniform, 6);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  ApproxInverseOptions opts;
  opts.epsilon = 0.0;
  const ApproxInverse z = ApproxInverse::build(f, opts);
  const DenseMatrix ref = inverse_of_factor(f);
  for (index_t j = 0; j < f.n; ++j) {
    const auto col = z.column(j).to_dense(f.n);
    for (index_t i = 0; i < f.n; ++i)
      EXPECT_NEAR(col[static_cast<std::size_t>(i)], ref(i, j), 1e-10);
  }
}

TEST(ApproxInverse, RejectsNegativeOrNanEpsilon) {
  // At epsilon >= 1 the budget covers the whole column, so the truncation
  // would empty every column above the log n floor; such an epsilon, like
  // a negative or NaN one, is rejected. Just below 1 is still accepted.
  const CholFactor f = cholesky(grounded_laplacian(grid_2d(20, 20, WeightKind::kUnit, 5)));
  for (real_t eps : {-1e-3, std::nan(""), 1.0, 2.0, std::numeric_limits<real_t>::infinity()}) {
    ApproxInverseOptions opts;
    opts.epsilon = eps;
    EXPECT_THROW(ApproxInverse::build(f, opts), std::invalid_argument) << eps;
  }
  ApproxInverseOptions opts;
  opts.epsilon = std::nextafter(1.0, 0.0);
  EXPECT_NO_THROW(ApproxInverse::build(f, opts));
}

TEST(ApproxInverse, Lemma1Nonnegativity) {
  // Z = L^{-1} of a Laplacian factor is entrywise nonnegative; the
  // approximate columns must stay nonnegative too.
  for (std::uint64_t seed = 7; seed <= 9; ++seed) {
    const Graph g = barabasi_albert(120, 3, WeightKind::kLogUniform, seed);
    const CscMatrix lg = grounded_laplacian(g);
    const CholFactor f = cholesky(lg, mindeg_order(lg));
    ApproxInverseOptions opts;
    opts.epsilon = 1e-2;
    const ApproxInverse z = ApproxInverse::build(f, opts);
    for (index_t j = 0; j < f.n; ++j)
      for (real_t v : z.column_values(j)) EXPECT_GE(v, 0.0);
  }
}

TEST(ApproxInverse, Theorem1ErrorBound) {
  // ||z_p - z̃_p||_1 <= depth(p) * epsilon * ||z_p||_1.
  const Graph g = grid_2d(7, 7, WeightKind::kUniform, 10);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  const auto depths = filled_graph_depths(f);
  const DenseMatrix ref = inverse_of_factor(f);

  for (real_t eps : {1e-1, 1e-2, 1e-3}) {
    ApproxInverseOptions opts;
    opts.epsilon = eps;
    const ApproxInverse z = ApproxInverse::build(f, opts);
    for (index_t p = 0; p < f.n; ++p) {
      const auto col = z.column(p).to_dense(f.n);
      real_t err1 = 0.0, norm1 = 0.0;
      for (index_t i = 0; i < f.n; ++i) {
        err1 += std::abs(col[static_cast<std::size_t>(i)] - ref(i, p));
        norm1 += std::abs(ref(i, p));
      }
      const real_t bound =
          static_cast<real_t>(depths[static_cast<std::size_t>(p)]) * eps * norm1;
      EXPECT_LE(err1, bound + 1e-12)
          << "p=" << p << " eps=" << eps
          << " depth=" << depths[static_cast<std::size_t>(p)];
    }
  }
}

TEST(ApproxInverse, TruncationRespectsColumnBudget) {
  // Directly check Eq. (10): ||z̃_j - z*_j||_1 <= eps * ||z*_j||_1, using
  // the exact-inverse columns as reference for leaf-to-root consistency is
  // complex; instead verify the weaker but direct property that each stored
  // column's 1-norm differs from the eps=0 column by at most depth*eps.
  const Graph g = watts_strogatz(64, 3, 0.15, WeightKind::kUniform, 11);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  ApproxInverseOptions exact_opts;
  exact_opts.epsilon = 0.0;
  const ApproxInverse z0 = ApproxInverse::build(f, exact_opts);
  ApproxInverseOptions opts;
  opts.epsilon = 5e-3;
  const ApproxInverse z = ApproxInverse::build(f, opts);
  const auto depths = filled_graph_depths(f);
  for (index_t j = 0; j < f.n; ++j) {
    const SparseVector a = z0.column(j);
    const SparseVector b = z.column(j);
    const real_t bound = static_cast<real_t>(depths[static_cast<std::size_t>(j)]) *
                         opts.epsilon * a.norm1();
    EXPECT_LE(distance_1norm(a, b), bound + 1e-12);
  }
}

TEST(ApproxInverse, SmallColumnsNeverTruncated) {
  // Columns with nnz <= log2(n) keep all entries regardless of epsilon
  // (Alg. 2 line 3). The last column z_n = e_n / L_nn always qualifies.
  const Graph g = grid_2d(10, 10, WeightKind::kUnit, 12);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  ApproxInverseOptions opts;
  opts.epsilon = 0.9;  // absurdly aggressive truncation
  const ApproxInverse z = ApproxInverse::build(f, opts);
  const index_t last = f.n - 1;
  ASSERT_EQ(z.column_rows(last).size(), 1u);
  EXPECT_EQ(z.column_rows(last)[0], last);
  EXPECT_NEAR(z.column_values(last)[0], 1.0 / f.diag(last), 1e-12);
}

TEST(ApproxInverse, SparsityGrowsAsEpsilonShrinks) {
  const Graph g = grid_2d(16, 16, WeightKind::kUniform, 13);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  offset_t prev = 0;
  for (real_t eps : {1e-1, 1e-2, 1e-3, 0.0}) {
    ApproxInverseOptions opts;
    opts.epsilon = eps;
    const ApproxInverse z = ApproxInverse::build(f, opts);
    EXPECT_GE(z.nnz(), prev);
    prev = z.nnz();
  }
}

TEST(ApproxInverse, WorksOnIncompleteFactor) {
  // Alg. 3 pairs Alg. 2 with ICT; the recurrence and sign structure hold
  // for the incomplete factor as well.
  const Graph g = multilayer_mesh(10, 10, 2, WeightKind::kLogUniform, 14);
  const CscMatrix lg = grounded_laplacian(g);
  IcholOptions ic;
  ic.droptol = 1e-3;
  const CholFactor f = ichol(lg, ic);
  ApproxInverseOptions opts;
  opts.epsilon = 1e-3;
  const ApproxInverse z = ApproxInverse::build(f, opts);
  EXPECT_EQ(z.dimension(), f.n);
  for (index_t j = 0; j < f.n; ++j) {
    EXPECT_GE(z.column_rows(j).size(), 1u);
    for (real_t v : z.column_values(j)) EXPECT_GE(v, 0.0);
  }
}

TEST(ApproxInverse, ColumnDistanceMatchesSparseVectorDistance) {
  const Graph g = grid_2d(9, 9, WeightKind::kUniform, 15);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  const ApproxInverse z = ApproxInverse::build(f);
  for (index_t p = 0; p < 10; ++p) {
    const index_t q = (p * 7 + 3) % f.n;
    EXPECT_NEAR(z.column_distance_squared(p, q),
                distance_squared(z.column(p), z.column(q)), 1e-12);
  }
}

class EpsilonScaling : public ::testing::TestWithParam<real_t> {};

TEST_P(EpsilonScaling, ColumnErrorsScaleRoughlyLinearly) {
  // Eq. (26): relative errors scale ~linearly with epsilon.
  const real_t eps = GetParam();
  const Graph g = grid_2d(12, 12, WeightKind::kUniform, 16);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  const DenseMatrix ref = inverse_of_factor(f);
  ApproxInverseOptions opts;
  opts.epsilon = eps;
  const ApproxInverse z = ApproxInverse::build(f, opts);
  real_t worst_rel = 0.0;
  for (index_t j = 0; j < f.n; ++j) {
    const auto col = z.column(j).to_dense(f.n);
    real_t err = 0.0, norm = 0.0;
    for (index_t i = 0; i < f.n; ++i) {
      err += std::abs(col[static_cast<std::size_t>(i)] - ref(i, j));
      norm += std::abs(ref(i, j));
    }
    worst_rel = std::max(worst_rel, err / norm);
  }
  // Depth on this mesh ordering stays modest; rel error must be bounded by
  // ~depth*eps and in particular shrink with eps.
  const auto dpt = static_cast<real_t>(max_filled_graph_depth(f));
  EXPECT_LE(worst_rel, dpt * eps + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonScaling,
                         ::testing::Values(1e-1, 1e-2, 1e-3, 1e-4));

// ---------------- level-scheduled build vs the serial sweep ----------------

/// Serial Alg. 2 exactly as first written: columns j = n-1 .. 0 and a full
/// sort of the magnitudes for the Eq. (10) truncation. Column j of the
/// result is z̃_j.
std::vector<SparseVector> reference_build(const CholFactor& factor,
                                          real_t epsilon) {
  const index_t n = factor.n;
  std::vector<SparseVector> cols(static_cast<std::size_t>(n));
  const auto nnz_floor = static_cast<std::size_t>(
      std::max(1.0, std::log2(static_cast<double>(std::max<index_t>(n, 2)))));
  std::vector<real_t> w(static_cast<std::size_t>(n), 0.0);
  std::vector<index_t> stamp(static_cast<std::size_t>(n), -1);
  std::vector<index_t> pattern;
  std::vector<real_t> mags;
  for (index_t j = n; j-- > 0;) {
    pattern.clear();
    const offset_t cb = factor.col_ptr[static_cast<std::size_t>(j)];
    const offset_t ce = factor.col_ptr[static_cast<std::size_t>(j) + 1];
    const real_t inv_ljj = 1.0 / factor.values[static_cast<std::size_t>(cb)];
    w[static_cast<std::size_t>(j)] = inv_ljj;
    stamp[static_cast<std::size_t>(j)] = j;
    pattern.push_back(j);
    for (offset_t p = cb + 1; p < ce; ++p) {
      const index_t i = factor.row_ind[static_cast<std::size_t>(p)];
      const real_t coef = -factor.values[static_cast<std::size_t>(p)] * inv_ljj;
      if (coef == 0.0) continue;
      const SparseVector& zi = cols[static_cast<std::size_t>(i)];
      for (std::size_t k = 0; k < zi.idx.size(); ++k) {
        const index_t r = zi.idx[k];
        if (stamp[static_cast<std::size_t>(r)] != j) {
          stamp[static_cast<std::size_t>(r)] = j;
          w[static_cast<std::size_t>(r)] = 0.0;
          pattern.push_back(r);
        }
        w[static_cast<std::size_t>(r)] += coef * zi.val[k];
      }
    }
    if (pattern.size() > nnz_floor && epsilon > 0.0) {
      mags.clear();
      real_t norm1 = 0.0;
      for (index_t r : pattern) {
        const real_t m = std::abs(w[static_cast<std::size_t>(r)]);
        mags.push_back(m);
        norm1 += m;
      }
      std::sort(mags.begin(), mags.end());
      const real_t budget = epsilon * norm1;
      real_t dropped = 0.0;
      std::size_t k = 0;
      while (k < mags.size() && dropped + mags[k] <= budget) {
        dropped += mags[k];
        ++k;
      }
      if (k > 0) {
        const real_t cut = mags[k - 1];
        std::size_t ties_to_drop = 0;
        for (std::size_t t = 0; t < k; ++t)
          if (mags[t] == cut) ++ties_to_drop;
        std::size_t wpos = 0;
        for (index_t r : pattern) {
          const real_t m = std::abs(w[static_cast<std::size_t>(r)]);
          if (m < cut) continue;
          if (m == cut && ties_to_drop > 0) {
            --ties_to_drop;
            continue;
          }
          pattern[wpos++] = r;
        }
        pattern.resize(wpos);
      }
    }
    std::sort(pattern.begin(), pattern.end());
    SparseVector& out = cols[static_cast<std::size_t>(j)];
    for (index_t r : pattern) {
      out.idx.push_back(r);
      out.val.push_back(w[static_cast<std::size_t>(r)]);
    }
  }
  return cols;
}

struct LevelCase {
  std::string name;
  CholFactor factor;
  real_t epsilon;
};

/// Builds the case at 1/2/3/4/8 threads: every column must equal the
/// serial reference `ref` bit for bit, and every build the 1-thread one.
/// Returns the pool tasks the multi-thread builds submitted.
std::uint64_t expect_level_build_matches_reference(const LevelCase& c,
                                                   const std::vector<SparseVector>& ref) {
  SCOPED_TRACE(c.name);
  ApproxInverse z_1;
  std::uint64_t tasks = 0;
  for (int threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    obs::MetricsRegistry reg;
    ThreadPool pool(threads, &reg);
    ApproxInverseOptions opts;
    opts.epsilon = c.epsilon;
    opts.pool = &pool;
    ApproxInverse z = ApproxInverse::build(c.factor, opts);
    tasks += reg.counter("er_pool_tasks_total").value();
    EXPECT_EQ(z.nnz(), std::accumulate(ref.begin(), ref.end(), offset_t{0},
                                       [](offset_t acc, const SparseVector& v) {
                                         return acc + static_cast<offset_t>(v.nnz());
                                       }));
    expect_columns_bitwise(z, ref);
    if (::testing::Test::HasFatalFailure()) return tasks;
    if (threads == 1)
      z_1 = std::move(z);
    else
      expect_columns_bitwise(z, z_1);
  }
  return tasks;
}

std::uint64_t expect_level_build_matches_reference(const LevelCase& c) {
  return expect_level_build_matches_reference(c, reference_build(c.factor, c.epsilon));
}

CholFactor ict_factor(const Graph& g, real_t droptol) {
  IcholOptions ic;
  ic.droptol = droptol;
  return ichol(grounded_laplacian(g), ic);
}

TEST(LevelSchedule, BaHubsDeepChainMatchesReference) {
  LevelCase c{"ba-hubs",
              ict_factor(barabasi_albert(1500, 3, WeightKind::kUnit, 41), 1e-3),
              1e-3};
  // A deep chain of one-column levels near the hubs...
  const auto d = filled_graph_depths(c.factor);
  const index_t max_depth = *std::max_element(d.begin(), d.end());
  std::vector<index_t> level_size(static_cast<std::size_t>(max_depth) + 1, 0);
  for (index_t v : d) ++level_size[static_cast<std::size_t>(v)];
  EXPECT_GT(std::count(level_size.begin(), level_size.end(), 1), 10);
  // ...and wide levels at the bottom, which must reach the pool.
  EXPECT_GT(expect_level_build_matches_reference(c), 0u);
}

TEST(LevelSchedule, LogUniformGridMatchesReference) {
  const LevelCase c{
      "grid-loguniform",
      ict_factor(grid_2d(40, 40, WeightKind::kLogUniform, 42), 1e-3), 1e-3};
  EXPECT_GT(expect_level_build_matches_reference(c), 0u);
}

TEST(LevelSchedule, PathGraphMatchesReference) {
  // Natural order: depth(p) = n-1-p, so every level holds one column.
  const CscMatrix lg = grounded_laplacian(grid_2d(300, 1, WeightKind::kUniform, 43));
  const LevelCase c{"path", cholesky(lg, identity_permutation(lg.cols())), 1e-3};
  EXPECT_EQ(max_filled_graph_depth(c.factor), c.factor.n - 1);
  expect_level_build_matches_reference(c);
}

TEST(LevelSchedule, IctWithDropsSeveralRootsMatchesReference) {
  // A loose drop tolerance splits the filled graph into a forest: several
  // columns have no off-diagonal entry (depth 0).
  const LevelCase c{
      "ict-drops",
      ict_factor(multilayer_mesh(30, 30, 2, WeightKind::kLogUniform, 44), 0.2),
      1e-3};
  const auto d = filled_graph_depths(c.factor);
  EXPECT_GT(std::count(d.begin(), d.end(), 0), 1);
  expect_level_build_matches_reference(c);
}

TEST(LevelSchedule, UnitStarTiesAtCutMatchReference) {
  // Hub first in natural order; ICT drops most of the leaf-clique fill, so
  // the hub's column of Z is a long run of (nearly all) equal leaf
  // entries and the truncation cut lands inside a run of ties.
  Graph star(48);
  for (index_t v = 1; v < 48; ++v) star.add_edge(0, v, 1.0);
  const CscMatrix lg = grounded_laplacian(star);
  IcholOptions ic;
  ic.droptol = 0.1;
  const CholFactor f = ichol(lg, identity_permutation(lg.cols()), ic);
  const LevelCase c{"unit-star", f, 5e-2};
  const std::vector<SparseVector> ref = reference_build(f, c.epsilon);
  bool tie_at_cut = false;  // a column keeps only part of a run of equals
  const std::vector<SparseVector> full = reference_build(f, 0.0);
  for (index_t j = 0; j < f.n && !tie_at_cut; ++j) {
    const SparseVector& kept = ref[static_cast<std::size_t>(j)];
    const SparseVector& all = full[static_cast<std::size_t>(j)];
    if (kept.nnz() == all.nnz() || kept.nnz() == 0) continue;
    const real_t smallest_kept =
        *std::min_element(kept.val.begin(), kept.val.end());
    tie_at_cut = std::count(all.val.begin(), all.val.end(), smallest_kept) >
                 std::count(kept.val.begin(), kept.val.end(), smallest_kept);
  }
  EXPECT_TRUE(tie_at_cut);
  expect_level_build_matches_reference(c);
}

TEST(LevelSchedule, EpsilonZeroMatchesReference) {
  const LevelCase c{
      "epsilon-zero",
      ict_factor(barabasi_albert(1500, 2, WeightKind::kLogUniform, 45), 1e-3),
      0.0};
  expect_level_build_matches_reference(c);
}

TEST(LevelSchedule, OneThreadPoolBuildsSeriallyAndMatchesReference) {
  const CholFactor f =
      ict_factor(grid_2d(30, 30, WeightKind::kLogUniform, 46), 1e-3);
  obs::MetricsRegistry reg;
  ThreadPool pool(1, &reg);
  ApproxInverseOptions opts;
  opts.pool = &pool;
  const ApproxInverse z = ApproxInverse::build(f, opts);
  EXPECT_EQ(reg.counter("er_pool_tasks_total").value(), 0u);
  expect_columns_bitwise(z, reference_build(f, opts.epsilon));
}

TEST(LevelSchedule, RepeatedBuildsOnOnePoolAreBitwiseEqual) {
  const CholFactor f =
      ict_factor(barabasi_albert(1200, 3, WeightKind::kLogUniform, 47), 1e-3);
  ThreadPool pool(4);
  ApproxInverseOptions opts;
  opts.pool = &pool;
  const ApproxInverse first = ApproxInverse::build(f, opts);
  for (int rep = 0; rep < 4; ++rep) {
    SCOPED_TRACE("rep=" + std::to_string(rep));
    expect_columns_bitwise(ApproxInverse::build(f, opts), first);
  }
}

TEST(LevelSchedule, BuildFromPoolWorkerMatchesSerial) {
  const CholFactor f =
      ict_factor(barabasi_albert(1000, 3, WeightKind::kUnit, 48), 1e-3);
  const ApproxInverse serial = ApproxInverse::build(f);
  obs::MetricsRegistry reg;
  ThreadPool pool(4, &reg);
  ApproxInverse on_worker;
  pool.submit([&] {
        ApproxInverseOptions opts;
        opts.pool = &pool;
        on_worker = ApproxInverse::build(f, opts);
      })
      .get();
  // The outer task, and the build's three helpers: a call from a worker
  // takes in idle workers as a call from any other thread does.
  EXPECT_EQ(reg.counter("er_pool_tasks_total").value(), 4u);
  expect_columns_bitwise(on_worker, serial);
}

TEST(LevelSchedule, ColumnsAcrossSeveralChunksMatchReference) {
  // nnz(Z~) is far above the first chunk's ~8 entries per column, so the
  // build rolls over to new chunks, serially and on the pool.
  const LevelCase c{
      "chunks",
      ict_factor(barabasi_albert(1500, 3, WeightKind::kUnit, 49), 1e-3), 1e-3};
  const std::vector<SparseVector> ref = reference_build(c.factor, c.epsilon);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    ApproxInverseOptions opts;
    opts.epsilon = c.epsilon;
    opts.pool = &pool;
    const ApproxInverse z = ApproxInverse::build(c.factor, opts);
    EXPECT_GT(z.num_chunks(), 1u);
    expect_columns_bitwise(z, ref);
  }
}

// ---------------- the Eq. (10) cut and Alg. 2's dense tail ----------------

/// The cut of reference_build: a sort of every magnitude, then the
/// ascending loop.
TruncationCut full_sort_cut(std::vector<real_t> mags, real_t epsilon) {
  real_t norm1 = 0.0;
  for (real_t m : mags) norm1 += m;
  const real_t budget = epsilon * norm1;
  std::sort(mags.begin(), mags.end());
  TruncationCut c;
  real_t dropped = 0.0;
  while (c.dropped < mags.size() && dropped + mags[c.dropped] <= budget) dropped += mags[c.dropped++];
  if (c.dropped > 0) {
    c.cut = mags[c.dropped - 1];
    c.ties = static_cast<std::size_t>(
        std::count(mags.begin(), mags.begin() + static_cast<std::ptrdiff_t>(c.dropped), c.cut));
  }
  return c;
}

/// truncation_cut of `mags` (pattern order) equals the full sort's cut,
/// leaves its scratch zeroed, and stops inside the candidates whenever the
/// binade bound left out magnitudes within the budget.
TruncationCut expect_cut_matches_full_sort(const std::vector<real_t>& mags, real_t epsilon) {
  auto scratch = std::make_unique<TruncationScratch>();
  const TruncationCut got = truncation_cut({mags.data(), mags.size()}, epsilon, *scratch);
  const TruncationCut want = full_sort_cut(mags, epsilon);
  EXPECT_EQ(got.dropped, want.dropped);
  EXPECT_EQ(got.cut, want.cut);
  EXPECT_EQ(got.ties, want.ties);
  EXPECT_LE(got.candidates, got.within_budget);
  if (got.candidates < got.within_budget) {
    EXPECT_TRUE(got.broke);
  }
  EXPECT_TRUE(std::all_of(scratch->binade_sum.begin(), scratch->binade_sum.end(),
                          [](real_t v) { return v == 0.0; }));
  return got;
}

TEST(Truncation, BinadeBoundCutsCandidates) {
  // 4 000 magnitudes of 2^-12 (sum 0.98) then 200 of 2^-4 (sum 12.5); at
  // epsilon 0.05 the budget is 0.67, so every magnitude is within it, but
  // the ascending sum passes it inside the first binade.
  std::vector<real_t> mags(4000, 0x1p-12);
  mags.insert(mags.end(), 200, 0x1p-4);
  const TruncationCut cut = expect_cut_matches_full_sort(mags, 0.05);
  EXPECT_EQ(cut.within_budget, 4200u);
  EXPECT_EQ(cut.candidates, 4000u);
  EXPECT_TRUE(cut.broke);
  EXPECT_EQ(cut.cut, 0x1p-12);
  EXPECT_EQ(cut.ties, cut.dropped);  // the cut splits the run of 2^-12
}

TEST(Truncation, EveryMagnitudeWithinBudget) {
  // 1..100 in a scrambled order at epsilon 0.9: the budget (4 545) is
  // above every magnitude and the bound keeps all of them.
  std::vector<real_t> mags;
  for (int k = 0; k < 100; ++k) mags.push_back(static_cast<real_t>((37 * k) % 100 + 1));
  TruncationCut cut = expect_cut_matches_full_sort(mags, 0.9);
  EXPECT_EQ(cut.within_budget, 100u);
  EXPECT_EQ(cut.candidates, 100u);
  EXPECT_GT(cut.dropped, 80u);
  // A run of equal magnitudes: the cut lands inside it.
  cut = expect_cut_matches_full_sort(std::vector<real_t>(100, 1.0), 0.1);
  EXPECT_EQ(cut.within_budget, 100u);
  EXPECT_EQ(cut.dropped, 10u);
  EXPECT_EQ(cut.ties, 10u);
  EXPECT_TRUE(cut.broke);
}

TEST(Truncation, RandomColumnsMatchFullSort) {
  // Log-uniform magnitudes over 40 binades with zeros and runs of ties.
  Rng rng(71);
  int bound_cuts = 0;
  for (int col = 0; col < 400; ++col) {
    const auto len = static_cast<std::size_t>(1 + rng.uniform_int(3000));
    std::vector<real_t> mags(len);
    for (real_t& m : mags) {
      const real_t u = rng.uniform();
      m = u < 0.05 ? 0.0 : u < 0.3 ? 0x1p-20 : std::exp2(-40.0 * rng.uniform());
    }
    const real_t eps[] = {1e-4, 1e-3, 1e-2, 0.1, 0.5};
    const TruncationCut cut = expect_cut_matches_full_sort(mags, eps[col % 5]);
    bound_cuts += cut.candidates < cut.within_budget;
  }
  EXPECT_GT(bound_cuts, 100);
}

/// What replaying the truncations of f's dense tail saw.
struct TailCuts {
  int columns = 0;    // tail columns past the log n floor
  int bound_cuts = 0;  // ... whose binade bound left out magnitudes within the budget
  int tie_splits = 0;  // ... whose cut kept part of a run of equal magnitudes
  int order_splits = 0;  // ... where dropping the lowest rows of that run, not
                         // the first touched, would keep other rows
};

/// Replays Alg. 2's truncation of every dense-tail column of `f` from the
/// oracle's columns `ref`: z*_j (Eq. (8) before the truncation, rows in
/// first-touch order) goes through expect_cut_matches_full_sort.
TailCuts replay_tail_cuts(const CholFactor& f, const std::vector<SparseVector>& ref,
                          real_t epsilon) {
  const index_t n = f.n;
  const auto floor = static_cast<std::size_t>(
      std::max(1.0, std::log2(static_cast<double>(std::max<index_t>(n, 2)))));
  TailCuts out;
  std::vector<real_t> w(static_cast<std::size_t>(n));
  std::vector<index_t> stamp(static_cast<std::size_t>(n), -1);
  for (index_t j = dense_tail_first(f); j < n && epsilon > 0.0; ++j) {
    const offset_t cb = f.col_ptr[static_cast<std::size_t>(j)];
    const real_t inv_ljj = 1.0 / f.values[static_cast<std::size_t>(cb)];
    std::vector<index_t> rows{j};
    w[static_cast<std::size_t>(j)] = inv_ljj;
    stamp[static_cast<std::size_t>(j)] = j;
    for (offset_t p = cb + 1; p < f.col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const real_t coef = -f.values[static_cast<std::size_t>(p)] * inv_ljj;
      if (coef == 0.0) continue;
      const SparseVector& zi = ref[static_cast<std::size_t>(f.row_ind[static_cast<std::size_t>(p)])];
      for (std::size_t k = 0; k < zi.idx.size(); ++k) {
        const auto r = static_cast<std::size_t>(zi.idx[k]);
        if (stamp[r] != j) {
          stamp[r] = j;
          w[r] = 0.0;
          rows.push_back(zi.idx[k]);
        }
        w[r] += coef * zi.val[k];
      }
    }
    if (rows.size() <= floor) continue;
    std::vector<real_t> mags;
    for (index_t r : rows) mags.push_back(std::abs(w[static_cast<std::size_t>(r)]));
    const TruncationCut cut = expect_cut_matches_full_sort(mags, epsilon);
    ++out.columns;
    out.bound_cuts += cut.candidates < cut.within_budget;
    std::vector<index_t> tied;  // rows at the cut, first-touch order
    for (std::size_t t = 0; t < rows.size(); ++t)
      if (cut.dropped > 0 && mags[t] == cut.cut) tied.push_back(rows[t]);
    if (tied.size() <= cut.ties) continue;
    ++out.tie_splits;
    std::vector<index_t> first_touched(tied.begin(), tied.begin() + static_cast<std::ptrdiff_t>(cut.ties));
    std::sort(first_touched.begin(), first_touched.end());
    std::sort(tied.begin(), tied.end());
    tied.resize(cut.ties);
    out.order_splits += first_touched != tied;
  }
  return out;
}

TEST(LevelSchedule, DenseTailMatchesReference) {
  // ICT factors of BA graphs end in a dense hub tail (chol/dense_tail.hpp),
  // which Alg. 2 builds from packed dense copies; every case reaches it.
  struct Case {
    index_t n, m;
    WeightKind weights;
    real_t epsilon;
  };
  const std::vector<Case> cases = {
      {500, 2, WeightKind::kUnit, 0.1},        {800, 3, WeightKind::kLogUniform, 1e-2},
      {1200, 5, WeightKind::kLogUniform, 1e-4}, {1600, 4, WeightKind::kUnit, 1e-3},
      {3000, 2, WeightKind::kUnit, 1e-3},      {2000, 3, WeightKind::kLogUniform, 0.1},
  };
  int bound_cuts = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& k = cases[ci];
    const LevelCase c{"ba-tail-" + std::to_string(ci),
                      ict_factor(barabasi_albert(k.n, k.m, k.weights, 80 + ci), 1e-3),
                      k.epsilon};
    const index_t first = dense_tail_first(c.factor);
    EXPECT_LE(first + kDenseMinRows, c.factor.n) << c.name;
    const std::vector<SparseVector> ref = reference_build(c.factor, c.epsilon);
    const TailCuts cuts = replay_tail_cuts(c.factor, ref, c.epsilon);
    EXPECT_GT(cuts.columns, 0) << c.name;
    bound_cuts += cuts.bound_cuts;
    expect_level_build_matches_reference(c, ref);
  }
  EXPECT_GT(bound_cuts, 0);
}

TEST(LevelSchedule, DenseTailTiesAtCutMatchReference) {
  // Natural order. Node 0 is adjacent to every other node, so its column of
  // L is full and the tail starts at column 1. Node 1 is a hub over the 12
  // nodes 2..13, and each of those over 15 leaves, interleaved: leaf
  // 14 + t hangs off node 2 + t % 12. ICT drops the small fill, and
  // without compensation the twelve subtrees are alike bit for bit, so
  // z*_1 holds a run of 180 equal leaf entries. It touches them subtree by
  // subtree, not ascending, and the cut lands inside the run: which leaves
  // go follows the first-touch order.
  const index_t mids = 12, leaves_per_mid = 15, n = 2 + mids * (1 + leaves_per_mid);
  Graph g(n);
  for (index_t v = 1; v < n; ++v) g.add_edge(0, v, 1.0);
  for (index_t m = 2; m < 2 + mids; ++m) g.add_edge(1, m, 1.0);
  for (index_t t = 0; t < mids * leaves_per_mid; ++t) g.add_edge(2 + t % mids, 2 + mids + t, 1.0);
  IcholOptions ic;
  ic.droptol = 0.1;
  ic.diagonal_compensation = false;
  const LevelCase c{"tail-ties", ichol(grounded_laplacian(g), identity_permutation(n), ic), 2e-2};
  ASSERT_EQ(dense_tail_first(c.factor), 1);
  const std::vector<SparseVector> ref = reference_build(c.factor, c.epsilon);
  const TailCuts cuts = replay_tail_cuts(c.factor, ref, c.epsilon);
  EXPECT_GT(cuts.order_splits, 0);
  expect_level_build_matches_reference(c, ref);
}

TEST(LevelSchedule, GridBelowDenseTailSizeMatchesReference) {
  // 49 nodes: no column has kDenseMinRows rows below it, so no tail.
  const LevelCase c{"grid-7x7",
                    ict_factor(grid_2d(7, 7, WeightKind::kLogUniform, 90), 1e-3), 1e-2};
  EXPECT_EQ(dense_tail_first(c.factor), c.factor.n);
  expect_level_build_matches_reference(c);
}

}  // namespace
}  // namespace er
