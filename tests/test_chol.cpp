// Tests for chol: complete factorization vs dense reference (pattern,
// supernodes and values across supernode shapes), solve accuracy,
// non-finite input, incomplete Cholesky (droptol behaviour, M-matrix
// robustness, shift fallback), triangular solves, factor invariants, and
// the reach-limited sparse forward solve (bitwise against forward_solve,
// supernode entry points, forests, workspace hygiene).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "chol/cholesky.hpp"
#include "chol/dense_tail.hpp"
#include "chol/ichol.hpp"
#include "factor_test_util.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/coo.hpp"
#include "sparse/dense.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

CscMatrix random_sdd(index_t n, std::size_t extra_edges, std::uint64_t seed) {
  const Graph g = erdos_renyi(n, extra_edges, WeightKind::kUniform, seed);
  return grounded_laplacian(g);
}

/// Max |P A P^T - L L^T| entry.
real_t factor_residual(const CscMatrix& a, const CholFactor& f) {
  const CscMatrix ap = a.permute_symmetric(f.perm);
  const CscMatrix l = f.to_csc();
  const auto ld = l.to_dense();
  const index_t n = a.cols();
  real_t worst = 0.0;
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j) {
      real_t acc = 0.0;
      for (index_t k = 0; k < n; ++k)
        acc += ld[static_cast<std::size_t>(k) * n + i] *
               ld[static_cast<std::size_t>(k) * n + j];
      worst = std::max(worst, std::abs(acc - ap.at(i, j)));
    }
  return worst;
}

TEST(Cholesky, FactorsSmallSddMatrix) {
  const CscMatrix a = random_sdd(25, 60, 1);
  for (const auto& [name, perm] : sweep_orderings(a)) {
    const CholFactor f = cholesky(a, perm);
    EXPECT_TRUE(f.check_invariants()) << name;
    EXPECT_LT(factor_residual(a, f), 1e-10) << name;
  }
}

TEST(Cholesky, MatchesDenseFactorNaturalOrder) {
  const CscMatrix a = random_sdd(15, 40, 2);
  const CholFactor f = cholesky(a, identity_permutation(a.cols()));
  DenseMatrix d(a.rows(), a.cols(), a.to_dense());
  ASSERT_TRUE(d.cholesky_in_place());
  const CscMatrix l = f.to_csc();
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = j; i < a.rows(); ++i)
      EXPECT_NEAR(l.at(i, j), d(i, j), 1e-10);
}

TEST(Cholesky, SolveRecoversKnownSolution) {
  const CscMatrix a = random_sdd(80, 220, 3);
  Rng rng(4);
  std::vector<real_t> x_true(static_cast<std::size_t>(a.cols()));
  for (auto& v : x_true) v = rng.uniform(-2, 2);
  const auto b = a.multiply(x_true);
  const CholFactor f = cholesky(a, mindeg_order(a));
  const auto x = f.solve(b);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  TripletMatrix t(2, 2);
  t.add(0, 0, 1.0);
  t.add(1, 1, -1.0);
  const CscMatrix a = CscMatrix::from_triplets(t);
  EXPECT_THROW(cholesky(a, identity_permutation(a.cols())), std::runtime_error);
}

/// Small symmetric matrices with a non-finite diagonal: a NaN one, an
/// all-infinite 2 x 2 and a +inf pivot.
std::vector<CscMatrix> non_finite_matrices() {
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t inf = std::numeric_limits<real_t>::infinity();
  std::vector<CscMatrix> out;
  TripletMatrix t3(3, 3);
  t3.add(0, 0, 4.0);
  t3.add(1, 1, nan);
  t3.add(2, 2, 4.0);
  t3.add(0, 1, -1.0);
  t3.add(1, 0, -1.0);
  out.push_back(CscMatrix::from_triplets(t3));
  TripletMatrix t2(2, 2);
  for (index_t i = 0; i < 2; ++i)
    for (index_t j = 0; j < 2; ++j) t2.add(i, j, inf);
  out.push_back(CscMatrix::from_triplets(t2));
  TripletMatrix tp(2, 2);
  tp.add(0, 0, inf);
  tp.add(1, 1, 1.0);
  tp.add(0, 1, 1.0);
  tp.add(1, 0, 1.0);
  out.push_back(CscMatrix::from_triplets(tp));
  return out;
}

TEST(Cholesky, ThrowsOnNonFinitePivot) {
  for (const CscMatrix& a : non_finite_matrices())
    EXPECT_THROW(cholesky(a, identity_permutation(a.cols())), std::runtime_error);
  // A NaN off-diagonal reaches a later pivot as -NaN^2.
  TripletMatrix t(3, 3);
  for (index_t i = 0; i < 3; ++i) t.add(i, i, 4.0);
  t.add(2, 0, std::numeric_limits<real_t>::quiet_NaN());
  t.add(0, 2, std::numeric_limits<real_t>::quiet_NaN());
  EXPECT_THROW(cholesky(CscMatrix::from_triplets(t), identity_permutation(3)),
               std::runtime_error);
}

TEST(Cholesky, ThrowsOnBadPermutation) {
  const CscMatrix a = random_sdd(10, 20, 5);
  std::vector<index_t> bad{0, 0, 1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_THROW(cholesky(a, bad), std::invalid_argument);
}

TEST(Cholesky, TriangularSolvesInvertEachOther) {
  const CscMatrix a = random_sdd(50, 140, 6);
  const CholFactor f = cholesky(a, mindeg_order(a));
  Rng rng(7);
  std::vector<real_t> x(static_cast<std::size_t>(a.cols()));
  for (auto& v : x) v = rng.uniform(-1, 1);
  // L (L^{-1} x) == x via forward solve then multiply by L.
  std::vector<real_t> y = x;
  f.forward_solve(y);
  const CscMatrix l = f.to_csc();
  const auto ly = l.multiply(y);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(ly[i], x[i], 1e-10);
  // Same for backward with L^T.
  std::vector<real_t> z = x;
  f.backward_solve(z);
  std::vector<real_t> ltz;
  l.multiply_transpose(z, ltz);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(ltz[i], x[i], 1e-10);
}

TEST(Cholesky, LaplacianFactorSignStructure) {
  // For SDD M-matrices the factor has positive diagonal and nonpositive
  // off-diagonals ([19]; the property Lemma 1 builds on).
  const Graph g = grid_2d(8, 8, WeightKind::kUniform, 8);
  const CscMatrix lg = grounded_laplacian(g);
  const CholFactor f = cholesky(lg, mindeg_order(lg));
  for (index_t j = 0; j < f.n; ++j) {
    const offset_t b = f.col_ptr[static_cast<std::size_t>(j)];
    const offset_t e = f.col_ptr[static_cast<std::size_t>(j) + 1];
    EXPECT_GT(f.values[static_cast<std::size_t>(b)], 0.0);
    for (offset_t k = b + 1; k < e; ++k)
      EXPECT_LE(f.values[static_cast<std::size_t>(k)], 1e-14);
  }
}

TEST(Ichol, DroppingReducesFill) {
  const Graph g = grid_2d(20, 20, WeightKind::kUniform, 10);
  const CscMatrix lg = grounded_laplacian(g);
  const auto perm = mindeg_order(lg);
  IcholOptions loose, tight;
  loose.droptol = 1e-1;
  tight.droptol = 0.0;
  const CholFactor lf = ichol(lg, perm, loose);
  const CholFactor tf = ichol(lg, perm, tight);
  EXPECT_LT(lf.nnz(), tf.nnz());
}

TEST(Ichol, PreconditionerQualityImprovesWithSmallerDroptol) {
  // Residual of M^{-1}A applied to a vector should shrink as droptol -> 0.
  const CscMatrix a = random_sdd(100, 280, 11);
  const auto perm = mindeg_order(a);
  Rng rng(12);
  std::vector<real_t> b(static_cast<std::size_t>(a.cols()));
  for (auto& v : b) v = rng.uniform(-1, 1);

  real_t prev_err = 1e30;
  for (real_t droptol : {1e-1, 1e-2, 1e-4, 0.0}) {
    IcholOptions opts;
    opts.droptol = droptol;
    const CholFactor f = ichol(a, perm, opts);
    const auto x = f.solve(b);
    const auto ax = a.multiply(x);
    real_t err = 0.0;
    for (std::size_t i = 0; i < b.size(); ++i) err += std::abs(ax[i] - b[i]);
    EXPECT_LT(err, prev_err + 1e-12);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-8);  // droptol 0 is the complete factor -> exact
}

TEST(Ichol, MMatrixNeverNeedsShift) {
  // SDD M-matrices (grounded Laplacians) factor without breakdown at any
  // droptol; validate invariants across a droptol sweep.
  const Graph g = barabasi_albert(150, 3, WeightKind::kUniform, 13);
  const CscMatrix lg = grounded_laplacian(g);
  const auto perm = mindeg_order(lg);
  for (real_t droptol : {0.0, 1e-4, 1e-3, 1e-2, 1e-1}) {
    IcholOptions opts;
    opts.droptol = droptol;
    const CholFactor f = ichol(lg, perm, opts);
    EXPECT_TRUE(f.check_invariants());
  }
}

TEST(Ichol, FactorSignStructureOnLaplacian) {
  const Graph g = grid_2d(10, 10, WeightKind::kLogUniform, 14);
  const CscMatrix lg = grounded_laplacian(g);
  IcholOptions opts;
  opts.droptol = 1e-3;
  const CholFactor f = ichol(lg, opts);
  for (index_t j = 0; j < f.n; ++j) {
    const offset_t b = f.col_ptr[static_cast<std::size_t>(j)];
    const offset_t e = f.col_ptr[static_cast<std::size_t>(j) + 1];
    EXPECT_GT(f.values[static_cast<std::size_t>(b)], 0.0);
    for (offset_t k = b + 1; k < e; ++k)
      EXPECT_LE(f.values[static_cast<std::size_t>(k)], 1e-14);
  }
}

TEST(Ichol, ThrowsOnNonFinitePivot) {
  // Every shift leaves a non-finite pivot, so ICT ends in its breakdown
  // throw instead of returning a NaN factor.
  IcholOptions opts;
  opts.max_shift_retries = 3;
  for (const CscMatrix& a : non_finite_matrices())
    EXPECT_THROW(ichol(a, identity_permutation(a.cols()), opts), std::runtime_error);
}

TEST(Ichol, RejectsNegativeDroptol) {
  const CscMatrix a = random_sdd(10, 20, 15);
  IcholOptions opts;
  for (real_t bad : {-1.0, std::numeric_limits<real_t>::quiet_NaN(),
                     std::numeric_limits<real_t>::infinity()}) {
    opts.droptol = bad;
    EXPECT_THROW(ichol(a, identity_permutation(a.cols()), opts), std::invalid_argument);
  }
}

// ---- Reference: the sparse left-looking ICT kernel without the dense
// trailing block, kept here as the oracle the dense block must match bit
// for bit (same dropping rule, compensation, pivot floor and shift retry).

bool reference_ict_attempt(const CscMatrix& ap, const IcholOptions& opts,
                           real_t shift, real_t global_scale, CholFactor& f) {
  const index_t n = ap.cols();
  const auto& cp = ap.col_ptr();
  const auto& ri = ap.row_ind();
  const auto& vv = ap.values();
  const real_t keep_threshold = opts.droptol * global_scale;
  const auto un = static_cast<std::size_t>(n);
  std::vector<std::vector<index_t>> lrow(un);
  std::vector<std::vector<real_t>> lval(un);
  std::vector<offset_t> cursor(un, 0);
  std::vector<index_t> link_head(un, -1);
  std::vector<index_t> link_next(un, -1);
  std::vector<real_t> w(un, 0.0);
  std::vector<index_t> pattern;
  std::vector<char> keep_flags;
  std::vector<index_t> touched(un, -1);
  std::vector<real_t> diag_corr(un, 0.0);
  auto attach = [&](index_t k, index_t row) {
    link_next[static_cast<std::size_t>(k)] = link_head[static_cast<std::size_t>(row)];
    link_head[static_cast<std::size_t>(row)] = k;
  };
  auto live = [&](index_t i, index_t j) {
    if (touched[static_cast<std::size_t>(i)] != j) {
      touched[static_cast<std::size_t>(i)] = j;
      w[static_cast<std::size_t>(i)] = 0.0;
      pattern.push_back(i);
    }
  };

  for (index_t j = 0; j < n; ++j) {
    pattern.clear();
    real_t dj = 0.0;
    for (offset_t p = cp[static_cast<std::size_t>(j)];
         p < cp[static_cast<std::size_t>(j) + 1]; ++p) {
      const index_t i = ri[static_cast<std::size_t>(p)];
      if (i < j) continue;
      const real_t v = vv[static_cast<std::size_t>(p)];
      if (i == j) {
        dj = v * (1.0 + shift);
        continue;
      }
      live(i, j);
      w[static_cast<std::size_t>(i)] += v;
    }
    index_t k = link_head[static_cast<std::size_t>(j)];
    link_head[static_cast<std::size_t>(j)] = -1;
    while (k != -1) {
      const index_t knext = link_next[static_cast<std::size_t>(k)];
      const auto& rk = lrow[static_cast<std::size_t>(k)];
      const auto& vk = lval[static_cast<std::size_t>(k)];
      const auto cur = static_cast<std::size_t>(cursor[static_cast<std::size_t>(k)]);
      const real_t ljk = vk[cur];
      dj -= ljk * ljk;
      for (std::size_t p = cur + 1; p < rk.size(); ++p) {
        live(rk[p], j);
        w[static_cast<std::size_t>(rk[p])] -= vk[p] * ljk;
      }
      if (cur + 1 < rk.size()) {
        cursor[static_cast<std::size_t>(k)] = static_cast<offset_t>(cur + 1);
        attach(k, rk[cur + 1]);
      }
      k = knext;
    }
    if (opts.diagonal_compensation) dj += diag_corr[static_cast<std::size_t>(j)];
    if (!(dj > 0.0 && std::isfinite(dj))) return false;

    auto& rj = lrow[static_cast<std::size_t>(j)];
    auto& vj = lval[static_cast<std::size_t>(j)];
    std::sort(pattern.begin(), pattern.end());
    const real_t pivot_floor = opts.compensation_pivot_floor * dj;
    keep_flags.assign(pattern.size(), 1);
    for (std::size_t pi = 0; pi < pattern.size(); ++pi) {
      const index_t i = pattern[pi];
      const real_t v = w[static_cast<std::size_t>(i)];
      if (!(std::abs(v) < keep_threshold || v == 0.0)) continue;
      if (opts.diagonal_compensation && v != 0.0) {
        if (dj + v <= pivot_floor) continue;
        dj += v;
        diag_corr[static_cast<std::size_t>(i)] += v;
      }
      keep_flags[pi] = 0;
    }
    if (!(dj > 0.0 && std::isfinite(dj))) return false;
    const real_t ljj = std::sqrt(dj);
    rj.push_back(j);
    vj.push_back(ljj);
    for (std::size_t pi = 0; pi < pattern.size(); ++pi) {
      const real_t v = w[static_cast<std::size_t>(pattern[pi])];
      if (!keep_flags[pi] || v == 0.0) continue;
      rj.push_back(pattern[pi]);
      vj.push_back(v / ljj);
    }
    if (rj.size() > 1) attach(j, rj[1]);
    cursor[static_cast<std::size_t>(j)] = 1;
  }

  f.col_ptr.assign(un + 1, 0);
  f.row_ind.clear();
  f.values.clear();
  for (index_t j = 0; j < n; ++j) {
    const auto& rj = lrow[static_cast<std::size_t>(j)];
    const auto& vj = lval[static_cast<std::size_t>(j)];
    f.row_ind.insert(f.row_ind.end(), rj.begin(), rj.end());
    f.values.insert(f.values.end(), vj.begin(), vj.end());
    f.col_ptr[static_cast<std::size_t>(j) + 1] = static_cast<offset_t>(f.row_ind.size());
  }
  return true;
}

/// The sparse kernel with ichol's global scale and shift retry; the
/// second member counts the retries.
std::pair<CholFactor, int> reference_ichol(const CscMatrix& a,
                                           const std::vector<index_t>& perm,
                                           const IcholOptions& opts) {
  const CscMatrix ap = a.permute_symmetric(perm);
  std::vector<real_t> mags;
  for (index_t c = 0; c < ap.cols(); ++c)
    for (offset_t p = ap.col_ptr()[static_cast<std::size_t>(c)];
         p < ap.col_ptr()[static_cast<std::size_t>(c) + 1]; ++p)
      if (ap.row_ind()[static_cast<std::size_t>(p)] > c &&
          ap.values()[static_cast<std::size_t>(p)] != 0.0)
        mags.push_back(std::abs(ap.values()[static_cast<std::size_t>(p)]));
  real_t global_scale = 1.0;
  if (!mags.empty()) {
    auto mid = mags.begin() + static_cast<std::ptrdiff_t>(mags.size() / 2);
    std::nth_element(mags.begin(), mid, mags.end());
    global_scale = *mid;
  }
  CholFactor f;
  f.n = ap.cols();
  f.perm = perm;
  f.inv_perm = invert_permutation(perm);
  real_t shift = 0.0;
  for (int attempt = 0; attempt <= opts.max_shift_retries; ++attempt) {
    if (reference_ict_attempt(ap, opts, shift, global_scale, f)) return {f, attempt};
    shift = shift == 0.0 ? opts.initial_shift : 2.0 * shift;
  }
  throw std::runtime_error("reference_ichol: breakdown persisted");
}

/// Whether ichol's dense trailing block switches on for this factor: some
/// column has between 64 and 2 048 rows below it and kept a quarter of them.
bool reaches_dense_block(const CholFactor& f) { return dense_tail_first(f) < f.n; }

void expect_bitwise_equal(const CholFactor& got, const CholFactor& want,
                          const std::string& what) {
  ASSERT_EQ(got.col_ptr, want.col_ptr) << what;
  ASSERT_EQ(got.row_ind, want.row_ind) << what;
  ASSERT_EQ(got.values.size(), want.values.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.values.data(), want.values.data(),
                           got.values.size() * sizeof(real_t)))
      << what;
}

/// Flips the sign of each symmetric off-diagonal pair with probability 1/2
/// and scales every off-diagonal by `scale`: with scale <= 1 a grounded
/// Laplacian stays diagonally dominant, so SPD, but is no M-matrix; with
/// scale > 1 it may be indefinite, so ICT breaks down and shifts.
CscMatrix perturb_off_diagonals(const CscMatrix& a, real_t scale, std::uint64_t seed) {
  Rng rng(seed);
  TripletMatrix t(a.rows(), a.cols());
  for (index_t c = 0; c < a.cols(); ++c)
    for (offset_t p = a.col_ptr()[static_cast<std::size_t>(c)];
         p < a.col_ptr()[static_cast<std::size_t>(c) + 1]; ++p) {
      const index_t r = a.row_ind()[static_cast<std::size_t>(p)];
      const real_t v = a.values()[static_cast<std::size_t>(p)];
      if (r == c) t.add(r, c, v);
      if (r > c) t.add_symmetric(r, c, (rng.bernoulli(0.5) ? -scale : scale) * v);
    }
  return CscMatrix::from_triplets(t);
}

TEST(Ichol, DenseTrailingBlockBitwiseEqualToSparseKernel) {
  struct Case {
    index_t n, m;
    WeightKind weights;
    real_t off_scale;  // 0: the grounded Laplacian as it is
  };
  const std::vector<Case> cases = {
      {500, 2, WeightKind::kUnit, 0.0},      {800, 3, WeightKind::kLogUniform, 0.0},
      {1200, 5, WeightKind::kLogUniform, 0.0}, {1600, 4, WeightKind::kUnit, 0.0},
      {3000, 2, WeightKind::kUnit, 0.0},     {1000, 2, WeightKind::kLogUniform, 1.0},
      {1500, 3, WeightKind::kUnit, 1.0},     {700, 3, WeightKind::kUnit, 1.3},
  };
  int switched = 0, runs = 0;
  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const Case& c = cases[ci];
    CscMatrix a = grounded_laplacian(barabasi_albert(c.n, c.m, c.weights, 40 + ci));
    if (c.off_scale > 0.0) a = perturb_off_diagonals(a, c.off_scale, 60 + ci);
    const auto perm = mindeg_order(a);
    for (real_t droptol : {0.0, 1e-3, 1e-2})
      for (bool compensation : {true, false}) {
        if (droptol == 0.0 && !compensation) continue;  // nothing to compensate
        IcholOptions opts;
        opts.droptol = droptol;
        opts.diagonal_compensation = compensation;
        const auto [want, retries] = reference_ichol(a, perm, opts);
        const std::string what = "case " + std::to_string(ci) + " droptol " +
                                 std::to_string(droptol) + " compensation " +
                                 std::to_string(compensation);
        expect_bitwise_equal(ichol(a, perm, opts), want, what);
        switched += reaches_dense_block(want);
        ++runs;
      }
  }
  // Nearly every social case ends in a dense hub tail.
  EXPECT_GE(switched, runs - 4);
}

TEST(Ichol, DenseTrailingBlockBreakdownShiftsAndRetries) {
  // Natural order: a grounded path 0..p-1, then a hub p adjacent to every
  // tail node, then a complete tail of m nodes whose diagonal is half its
  // off-diagonal row sum. The hub column keeps all m rows, so the block
  // starts right after it; the path and the hub are diagonally dominant,
  // so the first breakdown falls inside the block, about m/2 pivots in.
  const index_t p = 300, m = 160, n = p + 1 + m;
  TripletMatrix t(n, n);
  for (index_t i = 0; i + 1 < p; ++i) t.stamp_conductance(i, i + 1, 1.0);
  t.add(0, 0, 1.0);
  t.stamp_conductance(p - 1, p, 1.0);
  for (index_t i = p + 1; i < n; ++i) t.stamp_conductance(p, i, 0.5);
  for (index_t i = p + 1; i < n; ++i) {
    t.add(i, i, 0.5 * static_cast<real_t>(m - 1));
    for (index_t k = i + 1; k < n; ++k) t.add_symmetric(i, k, -1.0);
  }
  const CscMatrix a = CscMatrix::from_triplets(t);
  const auto perm = identity_permutation(n);
  for (real_t droptol : {0.0, 1e-2}) {
    IcholOptions opts;
    opts.droptol = droptol;
    const auto [want, retries] = reference_ichol(a, perm, opts);
    EXPECT_GT(retries, 0);
    EXPECT_TRUE(reaches_dense_block(want));
    expect_bitwise_equal(ichol(a, perm, opts), want, "droptol " + std::to_string(droptol));
    opts.max_shift_retries = 0;
    EXPECT_THROW(ichol(a, perm, opts), std::runtime_error);
  }
}

TEST(Ichol, GridBelowDenseBlockSizeBitwiseEqualToSparseKernel) {
  // 49 nodes: no column has 64 rows below it, so the block never starts.
  const CscMatrix a = grounded_laplacian(grid_2d(7, 7, WeightKind::kLogUniform, 70));
  const auto perm = mindeg_order(a);
  IcholOptions opts;
  const auto [want, retries] = reference_ichol(a, perm, opts);
  EXPECT_EQ(retries, 0);
  EXPECT_FALSE(reaches_dense_block(want));
  expect_bitwise_equal(ichol(a, perm, opts), want, "7x7 grid");
}

TEST(Ichol, ZeroDroptolEqualsCompleteFactor) {
  // droptol 0 keeps every fill entry, so it is how Alg. 3 gets a complete
  // factor: same pattern as cholesky() in the same order, and the same
  // values up to rounding. BA(2000, 3) reaches ICT's dense trailing block.
  const std::vector<std::pair<const char*, CscMatrix>> cases = {
      {"random_sdd", random_sdd(40, 110, 9)},
      {"barabasi_albert",
       grounded_laplacian(barabasi_albert(2000, 3, WeightKind::kUnit, 16))},
      {"grid_logU", grounded_laplacian(grid_2d(30, 30, WeightKind::kLogUniform, 17))},
  };
  IcholOptions opts;
  opts.droptol = 0.0;
  for (const auto& [name, a] : cases) {
    const auto perm = mindeg_order(a);
    const CholFactor inc = ichol(a, perm, opts);
    if (std::string(name) == "barabasi_albert") {
      EXPECT_TRUE(reaches_dense_block(inc));
    }
    const CscMatrix li = inc.to_csc();
    const CscMatrix lf = cholesky(a, perm).to_csc();
    ASSERT_EQ(lf.nnz(), li.nnz()) << name;
    ASSERT_EQ(lf.col_ptr(), li.col_ptr()) << name;
    ASSERT_EQ(lf.row_ind(), li.row_ind()) << name;
    for (std::size_t k = 0; k < lf.values().size(); ++k)
      ASSERT_NEAR(lf.values()[k], li.values()[k], 1e-10) << name << " entry " << k;
  }
}

TEST(CholOrderingSweep, SolveAccuracyAcrossGraphFamilies) {
  const std::vector<Graph> graphs = {
      grid_2d(9, 7, WeightKind::kUniform, 21),
      grid_3d(4, 4, 4, WeightKind::kUniform, 22),
      barabasi_albert(90, 2, WeightKind::kUniform, 23),
      watts_strogatz(80, 3, 0.2, WeightKind::kUniform, 24),
  };
  for (const auto& g : graphs) {
    const CscMatrix lg = grounded_laplacian(g);
    Rng rng(25);
    std::vector<real_t> x_true(static_cast<std::size_t>(lg.cols()));
    for (auto& v : x_true) v = rng.uniform(-1, 1);
    const auto b = lg.multiply(x_true);
    for (const auto& [name, perm] : sweep_orderings(lg)) {
      const auto x = cholesky(lg, perm).solve(b);
      for (std::size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x[i], x_true[i], 1e-7) << name;
    }
  }
}

/// Laplacian of `g` plus a shunt of random conductance on every
/// `stride`-th node — SPD as long as each component gets a shunt.
CscMatrix laplacian_plus_shunts(const Graph& g, index_t stride,
                                std::uint64_t seed) {
  Rng rng(seed);
  std::vector<real_t> shunts(static_cast<std::size_t>(g.num_nodes()), 0.0);
  for (index_t v = 0; v < g.num_nodes(); v += stride)
    shunts[static_cast<std::size_t>(v)] = rng.uniform(0.1, 2.0);
  return laplacian_with_shunts(g, shunts);
}

/// `copies` disjoint copies of a small grid, each with its own shunts: a
/// matrix whose etree is a forest of `copies` trees.
Graph grid_forest(index_t copies, index_t side) {
  const Graph cell = grid_2d(side, side, WeightKind::kUniform, 5);
  Graph g(copies * cell.num_nodes());
  for (index_t c = 0; c < copies; ++c)
    for (const Edge& e : cell.edges())
      g.add_edge(c * cell.num_nodes() + e.u, c * cell.num_nodes() + e.v,
                 e.weight);
  return g;
}

/// Fill pattern of L for P A P^T by dense symbolic elimination: column j
/// gets A's lower rows plus, from each earlier column k with row j, the
/// rows of k below j.
std::vector<std::vector<char>> dense_symbolic(const CscMatrix& ap) {
  const auto n = static_cast<std::size_t>(ap.cols());
  std::vector<std::vector<char>> nz(n, std::vector<char>(n, 0));  // nz[col][row]
  for (std::size_t j = 0; j < n; ++j) {
    nz[j][j] = 1;
    for (offset_t p = ap.col_ptr()[j]; p < ap.col_ptr()[j + 1]; ++p) {
      const auto i = static_cast<std::size_t>(ap.row_ind()[static_cast<std::size_t>(p)]);
      if (i > j) nz[j][i] = 1;
    }
  }
  for (std::size_t k = 0; k < n; ++k)
    for (std::size_t j = k + 1; j < n; ++j)
      if (nz[k][j])
        for (std::size_t i = j + 1; i < n; ++i)
          if (nz[k][i]) nz[j][i] = 1;
  return nz;
}

struct OracleCase {
  const char* name;
  CscMatrix a;
  std::vector<index_t> perm;
};

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  const index_t n = 40;
  {  // Tridiagonal path: a chain etree of width-1 supernodes.
    TripletMatrix t(n, n);
    for (index_t i = 0; i < n; ++i) {
      t.add(i, i, 2.5);
      if (i + 1 < n) {
        t.add(i, i + 1, -1.0);
        t.add(i + 1, i, -1.0);
      }
    }
    cases.push_back({"path", CscMatrix::from_triplets(t), identity_permutation(n)});
  }
  {  // Dense SPD block: B B^T + n I, one supernode.
    Rng rng(71);
    std::vector<real_t> b(static_cast<std::size_t>(n * n));
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    TripletMatrix t(n, n);
    for (index_t i = 0; i < n; ++i)
      for (index_t j = 0; j < n; ++j) {
        real_t acc = i == j ? static_cast<real_t>(n) : 0.0;
        for (index_t k = 0; k < n; ++k)
          acc += b[static_cast<std::size_t>(i * n + k)] * b[static_cast<std::size_t>(j * n + k)];
        t.add(i, j, acc);
      }
    cases.push_back({"dense", CscMatrix::from_triplets(t), identity_permutation(n)});
  }
  {  // Arrow: a diagonal plus a full last row and column.
    TripletMatrix t(n, n);
    for (index_t i = 0; i + 1 < n; ++i) {
      t.add(i, i, 3.0 + 0.1 * i);
      t.add(i, n - 1, -0.5);
      t.add(n - 1, i, -0.5);
    }
    t.add(n - 1, n - 1, 0.5 * n);
    cases.push_back({"arrow", CscMatrix::from_triplets(t), identity_permutation(n)});
  }
  {  // Two shunted grid components: an etree forest.
    const CscMatrix a = laplacian_plus_shunts(grid_forest(2, 5), 7, 72);
    cases.push_back({"forest", a, mindeg_order(a)});
  }
  {
    const CscMatrix a = random_sdd(60, 200, 73);
    cases.push_back({"random_sdd", a, mindeg_order(a)});
  }
  {
    const CscMatrix a = grounded_laplacian(grid_2d(9, 8, WeightKind::kUniform, 74));
    cases.push_back({"grid_mindeg", a, mindeg_order(a)});
  }
  {  // AMD's postorder: fundamental supernodes of several columns.
    const CscMatrix a = grounded_laplacian(grid_2d(9, 8, WeightKind::kUniform, 75));
    cases.push_back({"grid_amd", a, amd_order(a)});
  }
  return cases;
}

TEST(Cholesky, MatchesDenseOracleAcrossSupernodeShapes) {
  for (const OracleCase& c : oracle_cases()) {
    SCOPED_TRACE(c.name);
    const CholFactor f = cholesky(c.a, c.perm);
    ASSERT_TRUE(f.check_invariants());
    const CscMatrix ap = c.a.permute_symmetric(c.perm);
    const index_t n = f.n;

    // Pattern: exactly the symbolic fill, diagonal first, rows ascending.
    const auto nz = dense_symbolic(ap);
    for (index_t j = 0; j < n; ++j) {
      std::vector<index_t> want;
      for (index_t i = j; i < n; ++i)
        if (nz[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)]) want.push_back(i);
      const std::vector<index_t> got(
          f.row_ind.begin() + f.col_ptr[static_cast<std::size_t>(j)],
          f.row_ind.begin() + f.col_ptr[static_cast<std::size_t>(j) + 1]);
      EXPECT_EQ(got, want) << "column " << j;
    }

    // Supernodes are fundamental: maximal runs of parent == j + 1 with
    // nested rows.
    for (index_t j = 0; j + 1 < n; ++j) {
      const auto uj = static_cast<std::size_t>(j);
      const bool nested = f.parent[uj] == j + 1 &&
                          f.col_ptr[uj + 1] - f.col_ptr[uj] ==
                              f.col_ptr[uj + 2] - f.col_ptr[uj + 1] + 1;
      EXPECT_EQ(f.super_last[uj] > j, nested) << "column " << j;
    }

    // Values: the dense factor to 1e-12 relative to each column's scale.
    DenseMatrix d(n, n, ap.to_dense());
    ASSERT_TRUE(d.cholesky_in_place());
    const CscMatrix l = f.to_csc();
    for (index_t j = 0; j < n; ++j) {
      real_t scale = 0.0;
      for (index_t i = j; i < n; ++i) scale = std::max(scale, std::abs(d(i, j)));
      for (index_t i = j; i < n; ++i)
        EXPECT_NEAR(l.at(i, j), d(i, j), 1e-12 * scale) << "entry " << i << "," << j;
    }
  }
  // The shapes the cases are named for.
  const auto cases = oracle_cases();
  const CholFactor path = cholesky(cases[0].a, cases[0].perm);
  EXPECT_EQ(path.super_last[0], 0);  // width 1 up to the last pair
  const CholFactor dense = cholesky(cases[1].a, cases[1].perm);
  EXPECT_EQ(dense.super_last[0], dense.n - 1);  // one supernode
  const CholFactor forest = cholesky(cases[3].a, cases[3].perm);
  EXPECT_EQ(std::count(forest.parent.begin(), forest.parent.end(), -1), 2);
}

TEST(Cholesky, SupernodeInvariantsAndFootprint) {
  const CscMatrix a = grounded_laplacian(grid_2d(10, 10, WeightKind::kUniform, 75));
  const CholFactor f = cholesky(a);
  ASSERT_TRUE(f.check_invariants());
  // The top of a grid factor is one wide supernode.
  const index_t n = f.n;
  const index_t top = [&] {
    index_t j = n - 1;
    while (j > 0 && f.super_last[static_cast<std::size_t>(j) - 1] == n - 1) --j;
    return j;
  }();
  EXPECT_GE(n - top, 8);

  CholFactor bad = f;
  // A run whose columns disagree on its last column.
  bad.super_last[static_cast<std::size_t>(top) + 1] = top + 1;
  EXPECT_FALSE(bad.check_invariants());
  bad = f;
  bad.super_last[0] = n;  // out of range
  EXPECT_FALSE(bad.check_invariants());
  // Merging column 0 into the next supernode breaks the etree or the
  // nesting (fundamental supernodes are maximal).
  ASSERT_EQ(f.super_last[0], 0);
  bad = f;
  bad.super_last[0] = f.super_last[1];
  EXPECT_FALSE(bad.check_invariants());
  bad = f;
  bad.super_last.resize(static_cast<std::size_t>(n) - 1);
  EXPECT_FALSE(bad.check_invariants());

  // The array is part of the resident footprint, and a factor without it
  // cannot run reach solves.
  bad = f;
  bad.super_last.clear();
  EXPECT_EQ(f.footprint_bytes() - bad.footprint_bytes(),
            static_cast<std::size_t>(n) * sizeof(index_t));
  ReachWorkspace ws;
  const index_t zero = 0;
  const real_t one = 1.0;
  EXPECT_THROW(bad.sparse_forward(&zero, &one, 1, ws), std::logic_error);
}

bool same_bits(real_t a, real_t b) {
  return std::memcmp(&a, &b, sizeof(real_t)) == 0;
}

/// A factor with one fundamental supernode of each width 1..max_width,
/// each followed in its etree by a dense top supernode of `top` columns.
struct PanelFactor {
  CholFactor factor;
  std::vector<index_t> first_columns;  ///< of the width-1..max_width supernodes
};

/// In identity order, block w is a clique of w nodes, each joined to the
/// `top` last nodes (a clique too): block w's columns form one supernode
/// of width w with `top` rows below it. A lone node sits between the last
/// block and the top, so that block's last column, whose parent is the
/// top's first, is not next to it. Shunts of 5 keep every pivot, and so
/// every L(j, j)^2, at 5 or more.
PanelFactor panel_factor(index_t max_width, index_t top) {
  const index_t n = max_width * (max_width + 1) / 2 + 1 + top;
  TripletMatrix t(n, n);
  Rng rng(40);
  const auto join = [&](index_t u, index_t v) {
    t.stamp_conductance(u, v, rng.uniform(0.5, 2.0));
  };
  PanelFactor out;
  index_t s = 0;
  for (index_t w = 1; w <= max_width; s += w++) {
    out.first_columns.push_back(s);
    for (index_t u = s; u < s + w; ++u) {
      for (index_t v = u + 1; v < s + w; ++v) join(u, v);
      for (index_t v = n - top; v < n; ++v) join(u, v);
    }
  }
  for (index_t u = n - top; u < n; ++u)
    for (index_t v = u + 1; v < n; ++v) join(u, v);
  for (index_t v = 0; v < n; ++v) t.add(v, v, 5.0);
  out.factor = cholesky(CscMatrix::from_triplets(t), identity_permutation(n));
  const CholFactor& f = out.factor;
  for (index_t w = 1; w <= max_width; ++w) {
    const auto f0 = static_cast<std::size_t>(out.first_columns[static_cast<std::size_t>(w - 1)]);
    EXPECT_EQ(f.super_last[f0], static_cast<index_t>(f0) + w - 1) << "width " << w;
    EXPECT_EQ(f.col_ptr[f0 + 1] - f.col_ptr[f0], w + top) << "width " << w;
  }
  EXPECT_EQ(f.super_last[static_cast<std::size_t>(n - top)], n - 1);
  return out;
}

/// sparse_forward against forward_solve of the same rhs accumulated densely
/// in the same order: bitwise equal on the (strictly ascending) reach, and
/// forward_solve is exactly zero off it.
void expect_matches_forward_solve(const CholFactor& f,
                                  const std::vector<index_t>& idx,
                                  const std::vector<real_t>& val,
                                  ReachWorkspace& ws) {
  f.sparse_forward(idx.data(), val.data(), static_cast<int>(idx.size()), ws);
  std::vector<real_t> x(static_cast<std::size_t>(f.n), 0.0);
  for (std::size_t t = 0; t < idx.size(); ++t)
    x[static_cast<std::size_t>(idx[t])] += val[t];
  f.forward_solve(x);
  ASSERT_EQ(ws.reach.size(), ws.y.size());
  ASSERT_TRUE(std::adjacent_find(ws.reach.begin(), ws.reach.end(),
                                 [](index_t a, index_t b) { return a >= b; }) ==
              ws.reach.end());
  std::vector<char> in_reach(static_cast<std::size_t>(f.n), 0);
  for (std::size_t t = 0; t < ws.reach.size(); ++t) {
    const auto j = static_cast<std::size_t>(ws.reach[t]);
    in_reach[j] = 1;
    EXPECT_TRUE(same_bits(ws.y[t], x[j]))
        << "row " << j << ": " << ws.y[t] << " vs " << x[j];
  }
  for (std::size_t j = 0; j < x.size(); ++j) {
    if (!in_reach[j]) {
      EXPECT_EQ(x[j], 0.0) << "row " << j << " off the reach";
    }
  }
}

TEST(SparseForward, BitwiseEqualToForwardSolveOnReach) {
  const std::vector<Graph> graphs = {
      grid_2d(12, 9, WeightKind::kUniform, 31),
      barabasi_albert(120, 2, WeightKind::kUniform, 32),
      random_geometric(150, 0.15, WeightKind::kUniform, 33),
      grid_forest(3, 6),
  };
  for (const Graph& g : graphs) {
    const CscMatrix a = laplacian_plus_shunts(g, 7, 34);
    for (const auto& [name, perm] : sweep_orderings(a)) {
      const CholFactor f = cholesky(a, perm);
      ASSERT_EQ(f.parent.size(), static_cast<std::size_t>(f.n));
      ReachWorkspace ws;
      Rng rng(35);
      const index_t n = f.n;
      for (int trial = 0; trial < 20; ++trial) {
        const index_t p = rng.uniform_int(n);
        const index_t q = rng.uniform_int(n);
        expect_matches_forward_solve(f, {p}, {1.0}, ws);
        expect_matches_forward_solve(f, {p, q}, {1.0, -1.0}, ws);
        // k entries with duplicate indices, which add up.
        std::vector<index_t> idx;
        std::vector<real_t> val;
        for (int t = 0; t < 6; ++t) {
          idx.push_back(rng.uniform_int(n));
          val.push_back(rng.uniform(-1.0, 1.0));
        }
        idx.push_back(idx.front());
        val.push_back(0.5);
        expect_matches_forward_solve(f, idx, val, ws);
      }
      // Reaches that enter one supernode at each of its columns, with
      // k = 1..4 entries: the first at that column, the others inside the
      // same supernode or anywhere. The last supernode is the dense top
      // block every reach of its tree ends in.
      std::vector<index_t> wide;  // first columns of supernodes of width >= 2
      for (index_t j = 0; j < n; j = f.super_last[static_cast<std::size_t>(j)] + 1)
        if (f.super_last[static_cast<std::size_t>(j)] > j) wide.push_back(j);
      ASSERT_FALSE(wide.empty());
      for (const index_t f0 : {wide.front(), wide[wide.size() / 2], wide.back()}) {
        const index_t width = f.super_last[static_cast<std::size_t>(f0)] - f0 + 1;
        for (index_t c = f0; c < f0 + width; ++c) {
          for (int k = 1; k <= 4; ++k) {
            std::vector<index_t> idx = {c};
            std::vector<real_t> val = {1.0};
            for (int t = 1; t < k; ++t) {
              idx.push_back(t % 2 ? f0 + rng.uniform_int(width) : rng.uniform_int(n));
              val.push_back(rng.uniform(-1.0, 1.0));
            }
            expect_matches_forward_solve(f, idx, val, ws);
          }
        }
      }
    }
  }

  // The four-column pass: one supernode of each width 1..9 (full panels
  // and remainders), each with rows below it, entered at every column, and
  // panel values of exactly +0 and -0, alone and beside nonzero ones.
  const PanelFactor pf = panel_factor(9, 6);
  const CholFactor& f = pf.factor;
  ReachWorkspace ws;
  const real_t tiny = std::numeric_limits<real_t>::denorm_min();
  bool saw_negative_zero = false;
  for (const index_t f0 : pf.first_columns) {
    const index_t last = f.super_last[static_cast<std::size_t>(f0)];
    for (index_t c = f0; c <= last; ++c) {
      expect_matches_forward_solve(f, {c}, {1.0}, ws);
      expect_matches_forward_solve(f, {c, c}, {1.0, -1.0}, ws);  // y_c = +0
      // -tiny / L(c, c) rounds to -0: the diagonal is above 2.
      expect_matches_forward_solve(f, {c}, {-tiny}, ws);
      saw_negative_zero = saw_negative_zero || std::signbit(ws.y.front());
      if (c == last) continue;
      expect_matches_forward_solve(f, {c, c, c + 1}, {1.0, -1.0, 1.0}, ws);
      // b(c + 1) = L(c + 1, c) y_c cancels column c's update exactly: a
      // +0 inside the panel, after a nonzero.
      const auto uc = static_cast<std::size_t>(f.col_ptr[static_cast<std::size_t>(c)]);
      const real_t yc = 1.0 / f.values[uc];
      expect_matches_forward_solve(f, {c, c + 1}, {1.0, f.values[uc + 1] * yc}, ws);
      EXPECT_TRUE(same_bits(ws.y[1], 0.0)) << "column " << c + 1;
    }
  }
  EXPECT_TRUE(saw_negative_zero);
}

TEST(SparseForward, ForestCountsTreesPerComponent) {
  const index_t copies = 4;
  const index_t side = 5;
  const Graph g = grid_forest(copies, side);
  const CscMatrix a = laplacian_plus_shunts(g, side * side, 36);
  const CholFactor f = cholesky(a);
  EXPECT_TRUE(f.check_invariants());
  EXPECT_EQ(std::count(f.parent.begin(), f.parent.end(), -1), copies);
  ReachWorkspace ws;
  const index_t cell = side * side;
  for (index_t c = 0; c < copies; ++c) {
    const index_t u = f.inv_perm[static_cast<std::size_t>(c * cell + 3)];
    const index_t v = f.inv_perm[static_cast<std::size_t>(c * cell + 17)];
    const index_t w = f.inv_perm[static_cast<std::size_t>(
        ((c + 1) % copies) * cell + 8)];
    expect_matches_forward_solve(f, {u, v}, {1.0, -1.0}, ws);
    EXPECT_EQ(ws.trees, 1);  // one component
    expect_matches_forward_solve(f, {u, w}, {1.0, -1.0}, ws);
    EXPECT_EQ(ws.trees, 2);  // two components
    expect_matches_forward_solve(f, {u, v, w, u}, {1.0, 2.0, 3.0, 4.0}, ws);
    EXPECT_EQ(ws.trees, 2);
  }
}

TEST(SparseForward, TinyFactors) {
  // n = 1: y = b / sqrt(a).
  TripletMatrix t1(1, 1);
  t1.add(0, 0, 4.0);
  const CholFactor f1 = cholesky(CscMatrix::from_triplets(t1));
  ReachWorkspace ws;
  const index_t zero = 0;
  const real_t three = 3.0;
  f1.sparse_forward(&zero, &three, 1, ws);
  ASSERT_EQ(ws.reach, std::vector<index_t>{0});
  EXPECT_EQ(ws.y, std::vector<real_t>{1.5});
  EXPECT_EQ(ws.trees, 1);

  // n = 0: only the empty rhs is valid; it has an empty reach.
  const CholFactor f0 =
      cholesky(CscMatrix::from_triplets(TripletMatrix(0, 0)),
               std::vector<index_t>{});
  ReachWorkspace ws0;
  f0.sparse_forward(nullptr, nullptr, 0, ws0);
  EXPECT_TRUE(ws0.reach.empty());
  EXPECT_TRUE(ws0.y.empty());
  EXPECT_EQ(ws0.trees, 0);
  EXPECT_THROW(f0.sparse_forward(&zero, &three, 1, ws0), std::out_of_range);
}

TEST(SparseForward, WorkspaceIsAllZeroAfterReuse) {
  const Graph g = grid_forest(3, 6);
  const CscMatrix a = laplacian_plus_shunts(g, 9, 37);
  const CholFactor f = cholesky(a);
  ReachWorkspace ws;
  Rng rng(38);
  index_t idx[4];
  real_t val[4];
  for (int query = 0; query < 1000; ++query) {
    const int k = 1 + query % 4;
    for (int t = 0; t < k; ++t) {
      idx[t] = rng.uniform_int(f.n);
      val[t] = rng.uniform(-1.0, 1.0);
    }
    f.sparse_forward(idx, val, k, ws);
  }
  // A rejected rhs leaves the workspace clean too.
  idx[1] = f.n;
  EXPECT_THROW(f.sparse_forward(idx, val, 2, ws), std::out_of_range);
  ASSERT_EQ(ws.x.size(), static_cast<std::size_t>(f.n));
  ASSERT_EQ(ws.mark.size(), static_cast<std::size_t>(f.n));
  EXPECT_TRUE(std::all_of(ws.x.begin(), ws.x.end(),
                          [](real_t v) { return v == 0.0; }));
  EXPECT_TRUE(std::all_of(ws.mark.begin(), ws.mark.end(),
                          [](char m) { return m == 0; }));
  // The supernode scratch was used (the tops are wide) and reset too.
  ASSERT_FALSE(ws.dense.empty());
  EXPECT_TRUE(std::all_of(ws.dense.begin(), ws.dense.end(),
                          [](real_t v) { return v == 0.0; }));
}

TEST(SparseForward, IncompleteFactorThrows) {
  const CscMatrix a = random_sdd(30, 60, 39);
  const CholFactor f = ichol(a);
  EXPECT_TRUE(f.parent.empty());
  ReachWorkspace ws;
  const index_t zero = 0;
  const real_t one = 1.0;
  EXPECT_THROW(f.sparse_forward(&zero, &one, 1, ws), std::logic_error);
}

// ---------------------------------------------------------------------------
// Numeric pass on a pool: bitwise equal to the serial factor at every
// thread count (part of the CI TSan job).
// ---------------------------------------------------------------------------

/// Widest supernode of a complete factor.
index_t widest_supernode(const CholFactor& f) {
  index_t widest = 0;
  for (index_t j = 0; j < f.n; j = f.super_last[static_cast<std::size_t>(j)] + 1)
    widest = std::max(widest, f.super_last[static_cast<std::size_t>(j)] - j + 1);
  return widest;
}

/// Matrices whose factors have supernodes of two 16-column panels or more,
/// which the pool splits: one grid, and a forest of two shunted grids.
std::vector<OracleCase> split_cases() {
  std::vector<OracleCase> cases;
  const CscMatrix grid = grounded_laplacian(grid_2d(44, 40, WeightKind::kLogUniform, 81));
  cases.push_back({"grid", grid, amd_order(grid)});
  const CscMatrix forest = laplacian_plus_shunts(grid_forest(2, 40), 13, 82);
  cases.push_back({"forest", forest, amd_order(forest)});
  return cases;
}

bool same_factor(const CholFactor& a, const CholFactor& b) {
  return a.col_ptr == b.col_ptr && a.row_ind == b.row_ind && a.parent == b.parent &&
         a.super_last == b.super_last && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(), a.values.size() * sizeof(real_t)) == 0;
}

TEST(CholeskyPool, BitwiseEqualToSerialAtEveryThreadCount) {
  for (const OracleCase& c : split_cases()) {
    SCOPED_TRACE(c.name);
    const CholFactor serial = cholesky(c.a, c.perm);
    ASSERT_GE(widest_supernode(serial), 32);
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(threads);
      obs::MetricsRegistry registry;
      ThreadPool pool(threads, &registry);
      for (int run = 0; run < 2; ++run)
        EXPECT_TRUE(same_factor(cholesky(c.a, c.perm, &pool), serial));
      // A pool of one thread factors on the calling thread; a larger one
      // hands the numeric pass to its workers.
      EXPECT_EQ(registry.counter("er_pool_tasks_total").value() > 0, threads > 1);
    }
  }
}

TEST(CholeskyPool, CallFromAWorkerMatchesSerial) {
  const OracleCase c = split_cases().front();
  const CholFactor serial = cholesky(c.a, c.perm);
  obs::MetricsRegistry registry;
  ThreadPool pool(2, &registry);
  CholFactor nested;
  pool.submit([&] { nested = cholesky(c.a, c.perm, &pool); }).get();
  EXPECT_TRUE(same_factor(nested, serial));
  // The outer task and the numeric pass's one helper.
  EXPECT_EQ(registry.counter("er_pool_tasks_total").value(), 2u);
}

TEST(CholeskyPool, NotPositiveDefiniteThrowsAtEveryThreadCount) {
  const OracleCase c = split_cases().front();
  const CholFactor serial = cholesky(c.a, c.perm);
  // A negative diagonal at the first pivot (a leaf of the etree) and at
  // the last one (inside the widest supernode).
  for (const index_t pivot : {index_t{0}, c.a.cols() - 1}) {
    SCOPED_TRACE(pivot);
    TripletMatrix t(c.a.rows(), c.a.cols());
    const index_t node = c.perm[static_cast<std::size_t>(pivot)];
    for (index_t j = 0; j < c.a.cols(); ++j)
      for (offset_t p = c.a.col_ptr()[static_cast<std::size_t>(j)];
           p < c.a.col_ptr()[static_cast<std::size_t>(j) + 1]; ++p) {
        const index_t i = c.a.row_ind()[static_cast<std::size_t>(p)];
        const real_t v = c.a.values()[static_cast<std::size_t>(p)];
        t.add(i, j, i == node && j == node ? -v : v);
      }
    const CscMatrix bad = CscMatrix::from_triplets(t);
    std::string serial_error;
    try {
      (void)cholesky(bad, c.perm);
    } catch (const std::runtime_error& e) {
      serial_error = e.what();
    }
    ASSERT_FALSE(serial_error.empty());
    for (const int threads : {1, 2, 4, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      for (int run = 0; run < 2; ++run) {
        try {
          (void)cholesky(bad, c.perm, &pool);
          ADD_FAILURE() << "no error";
        } catch (const std::runtime_error& e) {
          EXPECT_EQ(std::string(e.what()), serial_error);
        }
        // The pool is still usable after the error.
        EXPECT_TRUE(same_factor(cholesky(c.a, c.perm, &pool), serial));
      }
    }
  }
}

}  // namespace
}  // namespace er
