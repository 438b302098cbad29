// Tests for file I/O: Matrix Market round trips and format handling,
// edge-list round trips, graph/matrix conversions.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/laplacian.hpp"
#include "sparse/io.hpp"
#include "util/rng.hpp"

namespace er {
namespace {

TEST(MatrixMarket, RoundTripGeneral) {
  Rng rng(1);
  TripletMatrix t(7, 5);
  for (int k = 0; k < 15; ++k)
    t.add(rng.uniform_int(7), rng.uniform_int(5), rng.uniform(-3, 3));
  const CscMatrix a = CscMatrix::from_triplets(t);

  std::stringstream ss;
  write_matrix_market(a, ss);
  const CscMatrix b = read_matrix_market(ss);
  ASSERT_EQ(b.rows(), a.rows());
  ASSERT_EQ(b.cols(), a.cols());
  const auto da = a.to_dense(), db = b.to_dense();
  for (std::size_t i = 0; i < da.size(); ++i) EXPECT_DOUBLE_EQ(da[i], db[i]);
}

TEST(MatrixMarket, ReadsSymmetricExpanded) {
  std::stringstream ss(R"(%%MatrixMarket matrix coordinate real symmetric
% a 3x3 Laplacian, lower triangle
3 3 5
1 1 2.0
2 2 2.0
3 3 2.0
2 1 -1.0
3 2 -1.0
)");
  const CscMatrix a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), -1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 2), -1.0);
  EXPECT_TRUE(a.is_symmetric(0.0));
}

TEST(MatrixMarket, ReadsPatternAsOnes) {
  std::stringstream ss(R"(%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 1
)");
  const CscMatrix a = read_matrix_market(ss);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(1, 0), 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream bad1("hello world\n");
  EXPECT_THROW(read_matrix_market(bad1), std::runtime_error);
  std::stringstream bad2("%%MatrixMarket matrix array real general\n2 2\n");
  EXPECT_THROW(read_matrix_market(bad2), std::runtime_error);
  std::stringstream bad3(
      "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n");
  EXPECT_THROW(read_matrix_market(bad3), std::runtime_error);
  std::stringstream bad4(
      "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(bad4), std::runtime_error);
}

TEST(MatrixMarket, RejectsDimensionsBeyondIndexRange) {
  // 2^32 + 2 rows must not narrow to a 2-row matrix, 2^31 rows must not
  // wrap negative, and an entry count beyond rows * cols must not reach
  // the (symmetric: doubled) reservation.
  for (const char* header :
       {"general\n4294967298 2 1", "general\n2 2147483648 1",
        "general\n2147483648 2147483648 1", "general\n2 2 5",
        "symmetric\n2 2 4611686018427387904"}) {
    SCOPED_TRACE(header);
    std::stringstream in(
        std::string("%%MatrixMarket matrix coordinate real ") + header +
        "\n1 1 1.0\n");
    EXPECT_THROW(read_matrix_market(in), std::runtime_error);
  }
}

TEST(MatrixMarket, FileRoundTrip) {
  const CscMatrix a = grounded_laplacian(grid_2d(4, 4));
  const std::string path = "test_mm_roundtrip.mtx";
  write_matrix_market_file(a, path);
  const CscMatrix b = read_matrix_market_file(path);
  std::remove(path.c_str());
  EXPECT_LT(a.add(b, -1.0).max_abs(), 1e-15);
}

TEST(EdgeList, RoundTrip) {
  const Graph g = barabasi_albert(60, 2, WeightKind::kUniform, 3);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph h = read_edge_list(ss);
  ASSERT_EQ(h.num_nodes(), g.num_nodes());
  ASSERT_EQ(h.num_edges(), g.num_edges());
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(h.edges()[e].u, g.edges()[e].u);
    EXPECT_EQ(h.edges()[e].v, g.edges()[e].v);
    EXPECT_DOUBLE_EQ(h.edges()[e].weight, g.edges()[e].weight);
  }
}

TEST(EdgeList, DefaultWeightAndComments) {
  std::stringstream ss(R"(# comment
% another comment
0 1
1 2 2.5
2 2 9.9
)");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 2u);  // self-loop skipped
  EXPECT_DOUBLE_EQ(g.edges()[0].weight, 1.0);
  EXPECT_DOUBLE_EQ(g.edges()[1].weight, 2.5);
}

TEST(EdgeList, ExplicitNodeCountOverride) {
  std::stringstream ss("0 1\n");
  const Graph g = read_edge_list(ss, 10);
  EXPECT_EQ(g.num_nodes(), 10);
}

TEST(EdgeList, RejectsBadInput) {
  std::stringstream bad1("0\n");
  EXPECT_THROW(read_edge_list(bad1), std::runtime_error);
  std::stringstream bad2("0 1 -2.0\n");
  EXPECT_THROW(read_edge_list(bad2), std::runtime_error);
  std::stringstream bad3("-1 2\n");
  EXPECT_THROW(read_edge_list(bad3), std::runtime_error);
  // Ids beyond index_t must not wrap (2^32 + 1 would become node 1) or
  // reach Graph::add_edge; the largest id must leave room for id + 1.
  for (const char* text :
       {"4294967297 0\n", "0 2147483648\n", "2147483647 0\n"}) {
    SCOPED_TRACE(text);
    std::stringstream in(std::string("0 1\n") + text);
    try {
      (void)read_edge_list(in);
      ADD_FAILURE() << "accepted an out-of-range id";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
  // With an explicit node count, ids at or past it are out of range too.
  std::stringstream past_override("0 1\n1 10\n");
  EXPECT_THROW(read_edge_list(past_override, 10), std::runtime_error);
}

TEST(GraphFromMatrix, LaplacianRoundTrip) {
  const Graph g = grid_2d(5, 5, WeightKind::kUniform, 5);
  const CscMatrix l = laplacian(g);
  const Graph h = graph_from_symmetric_matrix(l);
  ASSERT_EQ(h.num_edges(), g.num_edges());
  EXPECT_NEAR(h.total_weight(), g.total_weight(), 1e-12);
}

}  // namespace
}  // namespace er
