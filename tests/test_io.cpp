// Tests for graph file I/O: edge-list round trips and format handling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "graph/generators.hpp"
#include "graph/io.hpp"

namespace er {
namespace {

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

}  // namespace
}  // namespace er
