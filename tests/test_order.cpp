// Tests for order: elimination tree on known matrices, postorder validity,
// permutation utilities, minimum-degree and AMD quality/sanity, and a
// dense symbolic-elimination oracle for the fill of every swept ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <utility>

#include "chol/cholesky.hpp"
#include "factor_test_util.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"
#include "order/amd.hpp"
#include "order/etree.hpp"
#include "order/mindeg.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

/// Dense symbolic Cholesky fill count (reference for ordering quality).
offset_t fill_count(const CscMatrix& a, const std::vector<index_t>& perm) {
  const CscMatrix ap = a.permute_symmetric(perm);
  const index_t n = ap.cols();
  std::vector<std::vector<char>> dense(
      static_cast<std::size_t>(n), std::vector<char>(static_cast<std::size_t>(n), 0));
  for (index_t c = 0; c < n; ++c)
    for (offset_t k = ap.col_ptr()[static_cast<std::size_t>(c)];
         k < ap.col_ptr()[static_cast<std::size_t>(c) + 1]; ++k)
      dense[static_cast<std::size_t>(ap.row_ind()[static_cast<std::size_t>(k)])]
           [static_cast<std::size_t>(c)] = 1;
  offset_t nnz = 0;
  for (index_t k = 0; k < n; ++k) {
    for (index_t i = k; i < n; ++i) {
      if (!dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(k)]) continue;
      if (i > k) {
        for (index_t j = i; j < n; ++j)
          if (dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(k)]) {
            dense[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = 1;
            dense[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = 1;
          }
      }
      ++nnz;
    }
  }
  return nnz;
}

/// Entries of the lower triangle of A, diagonal included: the nnz(L) of a
/// fill-free ordering.
offset_t lower_nnz(const CscMatrix& a) { return (a.nnz() + a.cols()) / 2; }

Graph star_graph(index_t n, index_t hub) {
  Graph g(n);
  for (index_t v = 0; v < n; ++v)
    if (v != hub) g.add_edge(hub, v);
  return g;
}

Graph path_graph(index_t n) {
  Graph g(n);
  for (index_t v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  return g;
}

/// Random tree: node v hangs off a uniformly drawn earlier node.
Graph random_tree(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Graph g(n);
  for (index_t v = 1; v < n; ++v) g.add_edge(rng.uniform_int(v), v);
  return g;
}

/// Two 4x4 grids and a path of 5 nodes, with no edge between them.
Graph three_components() {
  Graph g(37);
  const Graph a = grid_2d(4, 4);
  for (const Edge& e : a.edges()) {
    g.add_edge(e.u, e.v);
    g.add_edge(e.u + 16, e.v + 16);
  }
  for (index_t v = 32; v < 36; ++v) g.add_edge(v, v + 1);
  return g;
}

CscMatrix arrow_matrix(index_t n) {
  // Arrowhead: dense first row/column + diagonal. Natural order fills
  // completely; eliminating the hub last gives no fill.
  TripletMatrix t(n, n);
  for (index_t i = 0; i < n; ++i) t.add(i, i, static_cast<real_t>(n + 1));
  for (index_t i = 1; i < n; ++i) t.add_symmetric(0, i, -1.0);
  return CscMatrix::from_triplets(t);
}

TEST(Etree, PathGraphIsAChain) {
  // Tridiagonal matrix: etree is the path 0 -> 1 -> ... -> n-1.
  const Graph g = grid_2d(6, 1);
  const CscMatrix l = grounded_laplacian(g);
  const auto parent = etree(l);
  for (index_t i = 0; i + 1 < 6; ++i) EXPECT_EQ(parent[static_cast<std::size_t>(i)], i + 1);
  EXPECT_EQ(parent[5], -1);
}

TEST(Etree, ArrowheadNaturalOrder) {
  // With the hub first, every node's parent chain runs through the next
  // node: column 0 connects to all, creating a chain.
  const CscMatrix a = arrow_matrix(5);
  const auto parent = etree(a);
  EXPECT_EQ(parent[0], 1);
  EXPECT_EQ(parent[1], 2);
  EXPECT_EQ(parent[4], -1);
}

TEST(Etree, ParentAlwaysLarger) {
  const Graph g = erdos_renyi(60, 150, WeightKind::kUnit, 3);
  const CscMatrix l = grounded_laplacian(g);
  const auto parent = etree(l);
  for (index_t v = 0; v < 60; ++v) {
    if (parent[static_cast<std::size_t>(v)] != -1) {
      EXPECT_GT(parent[static_cast<std::size_t>(v)], v);
    }
  }
}

TEST(Postorder, IsAPermutationAndChildrenFirst) {
  const Graph g = erdos_renyi(40, 90, WeightKind::kUnit, 5);
  const CscMatrix l = grounded_laplacian(g);
  const auto parent = etree(l);
  const auto post = postorder(parent);
  EXPECT_TRUE(is_permutation(post));
  // position[] of each node in the postorder.
  std::vector<index_t> pos(post.size());
  for (std::size_t i = 0; i < post.size(); ++i)
    pos[static_cast<std::size_t>(post[i])] = static_cast<index_t>(i);
  for (index_t v = 0; v < 40; ++v) {
    const index_t p = parent[static_cast<std::size_t>(v)];
    if (p >= 0) {
      EXPECT_LT(pos[static_cast<std::size_t>(v)], pos[static_cast<std::size_t>(p)]);
    }
  }
}

TEST(TreeHeights, PathAndStar) {
  // Path etree: heights 0..n-1.
  std::vector<index_t> chain{1, 2, 3, -1};
  const auto h1 = tree_heights(chain);
  EXPECT_EQ(h1[3], 3);
  EXPECT_EQ(h1[0], 0);
  // Star rooted at 3.
  std::vector<index_t> star{3, 3, 3, -1};
  const auto h2 = tree_heights(star);
  EXPECT_EQ(h2[3], 1);
}

TEST(Permutations, InvertRoundTrip) {
  const std::vector<index_t> perm{2, 0, 3, 1};
  EXPECT_TRUE(is_permutation(perm));
  const auto inv = invert_permutation(perm);
  for (index_t i = 0; i < 4; ++i)
    EXPECT_EQ(inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])], i);
}

TEST(Permutations, DetectsInvalid) {
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3, 1}));
  EXPECT_TRUE(is_permutation({}));
}

TEST(MinDeg, ProducesValidPermutation) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Graph g = erdos_renyi(120, 400, WeightKind::kUnit, seed);
    const CscMatrix l = grounded_laplacian(g);
    const auto perm = mindeg_order(l);
    EXPECT_TRUE(is_permutation(perm));
  }
}

TEST(MinDeg, SolvesArrowheadOptimally) {
  // Minimum degree must eliminate the hub last -> zero fill.
  const index_t n = 20;
  const CscMatrix a = arrow_matrix(n);
  const auto perm = mindeg_order(a);
  EXPECT_TRUE(is_permutation(perm));
  // Hub (old index 0) must be among the last two (once one leaf remains,
  // hub and leaf are degree-tied and either elimination is fill-free).
  EXPECT_TRUE(perm[static_cast<std::size_t>(n) - 1] == 0 ||
              perm[static_cast<std::size_t>(n) - 2] == 0);
  EXPECT_EQ(fill_count(a, perm), static_cast<offset_t>(2 * n - 1));
}

TEST(MinDeg, BeatsNaturalOrderOnGrid) {
  const Graph g = grid_2d(10, 10);
  const CscMatrix l = grounded_laplacian(g);
  const auto natural = identity_permutation(l.cols());
  const auto md = mindeg_order(l);
  EXPECT_LE(fill_count(l, md), fill_count(l, natural));
}

TEST(MinDeg, HandlesDiagonalMatrix) {
  TripletMatrix t(5, 5);
  for (index_t i = 0; i < 5; ++i) t.add(i, i, 1.0);
  const CscMatrix a = CscMatrix::from_triplets(t);
  const auto perm = mindeg_order(a);
  EXPECT_TRUE(is_permutation(perm));
}

TEST(MinDeg, PermutationPinnedOnGridAndBarabasiAlbert) {
  // The ICT ordering of Alg. 3: its permutation fixes the bits of the
  // incomplete factor and of Z~, so it may only change on purpose.
  const std::vector<index_t> grid = {
      41, 35, 6,  0,  7,  1,  13, 5,  36, 28, 40, 34, 38, 3,
      33, 27, 29, 21, 12, 8,  25, 23, 17, 2,  9,  15, 19, 11,
      37, 30, 31, 20, 26, 18, 4,  39, 10, 14, 24, 22, 16, 32};
  EXPECT_EQ(mindeg_order(grounded_laplacian(grid_2d(7, 6))), grid);
  const std::vector<index_t> ba = {
      59, 58, 57, 56, 55, 54, 53, 50, 49, 48, 47, 46, 44, 43, 42,
      41, 40, 39, 38, 37, 36, 34, 33, 31, 30, 28, 23, 21, 12, 11,
      8,  45, 35, 51, 6,  52, 25, 26, 16, 15, 10, 32, 14, 9,  18,
      4,  13, 1,  20, 7,  22, 5,  27, 29, 2,  19, 0,  24, 17, 3};
  EXPECT_EQ(mindeg_order(grounded_laplacian(
                barabasi_albert(60, 2, WeightKind::kUnit, 7))),
            ba);
}

TEST(Amd, EmptySingleAndDiagonalMatrices) {
  EXPECT_TRUE(amd_order(CscMatrix()).empty());
  TripletMatrix one(1, 1);
  one.add(0, 0, 2.0);
  EXPECT_EQ(amd_order(CscMatrix::from_triplets(one)),
            std::vector<index_t>{0});
  TripletMatrix diag(6, 6);
  for (index_t i = 0; i < 6; ++i) diag.add(i, i, 1.0);
  const auto perm = amd_order(CscMatrix::from_triplets(diag));
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm.size(), 6u);
  EXPECT_THROW(amd_order(CscMatrix::from_triplets(TripletMatrix(2, 3))),
               std::invalid_argument);
}

TEST(Amd, DisconnectedComponents) {
  const CscMatrix l = grounded_laplacian(three_components());
  const auto perm = amd_order(l);
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm.size(), 37u);
  EXPECT_LE(fill_count(l, perm), fill_count(l, identity_permutation(37)));
}

TEST(Amd, ZeroFillOnArrowheadAndTrees) {
  const CscMatrix arrow = arrow_matrix(20);
  const auto perm = amd_order(arrow);
  EXPECT_TRUE(is_permutation(perm));
  EXPECT_EQ(fill_count(arrow, perm), lower_nnz(arrow));
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const CscMatrix tree = grounded_laplacian(random_tree(40, seed));
    EXPECT_EQ(fill_count(tree, amd_order(tree)), lower_nnz(tree))
        << "seed " << seed;
  }
  const CscMatrix path = grounded_laplacian(path_graph(30));
  EXPECT_EQ(fill_count(path, amd_order(path)), lower_nnz(path));
}

TEST(Amd, DenseHubIsOrderedLast) {
  // Hub degree 199 > max(16, 10 sqrt(200)) = 141: deferred as dense.
  const index_t hub = 57;
  const CscMatrix star = grounded_laplacian(star_graph(200, hub));
  const auto perm = amd_order(star);
  ASSERT_TRUE(is_permutation(perm));
  EXPECT_EQ(perm.back(), hub);
  EXPECT_EQ(cholesky(star, perm).nnz(), lower_nnz(star));
}

TEST(Amd, RepeatedCallsAreIdentical) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const CscMatrix l = grounded_laplacian(
        barabasi_albert(300, 3, WeightKind::kUnit, seed));
    const auto first = amd_order(l);
    EXPECT_TRUE(is_permutation(first));
    EXPECT_EQ(amd_order(l), first);
  }
}

TEST(Amd, NoMoreFillThanMinDegOnGrid) {
  const CscMatrix l = grounded_laplacian(grid_2d(12, 12));
  EXPECT_LE(fill_count(l, amd_order(l)), fill_count(l, mindeg_order(l)));
}

TEST(FillOracle, CholeskyNnzMatchesDenseEliminationForEveryOrdering) {
  // Symbolic elimination on a dense boolean matrix is the reference for
  // nnz(L): the supernodal factor must agree under every ordering.
  const std::vector<std::pair<const char*, Graph>> graphs = {
      {"random", erdos_renyi(40, 90, WeightKind::kUnit, 11)},
      {"grid", grid_2d(6, 6)},
      {"star", star_graph(25, 3)},
      {"path", path_graph(33)},
      {"disconnected", three_components()},
  };
  for (const auto& [name, g] : graphs) {
    const CscMatrix l = grounded_laplacian(g);
    for (const auto& [kind, perm] : sweep_orderings(l)) {
      ASSERT_TRUE(is_permutation(perm));
      EXPECT_EQ(cholesky(l, perm).nnz(), fill_count(l, perm))
          << name << " ordering " << kind;
    }
  }
}

}  // namespace
}  // namespace er
