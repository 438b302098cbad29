// Tests for ApproxInverse serialization: stream and file round trips, and
// rejection of corrupted input.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "approxinv/approx_inverse.hpp"
#include "chol/ichol.hpp"
#include "graph/generators.hpp"
#include "graph/laplacian.hpp"

namespace er {
namespace {

TEST(Serialize, StreamRoundTrip) {
  const Graph g = grid_2d(12, 12, WeightKind::kUniform, 7);
  const CholFactor f = ichol(grounded_laplacian(g), Ordering::kMinDeg, {});
  const ApproxInverse z = ApproxInverse::build(f);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  z.save(ss);
  const ApproxInverse w = ApproxInverse::load(ss);

  ASSERT_EQ(w.dimension(), z.dimension());
  ASSERT_EQ(w.nnz(), z.nnz());
  for (index_t j = 0; j < z.dimension(); ++j) {
    const auto ra = z.column_rows(j), rb = w.column_rows(j);
    const auto va = z.column_values(j), vb = w.column_values(j);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k], rb[k]);
      EXPECT_DOUBLE_EQ(va[k], vb[k]);
    }
  }
  // Queries identical through the round trip.
  for (index_t p = 0; p < 20; ++p)
    EXPECT_DOUBLE_EQ(z.column_distance_squared(p, p + 50),
                     w.column_distance_squared(p, p + 50));
}

TEST(Serialize, FileRoundTrip) {
  const Graph g = barabasi_albert(100, 2, WeightKind::kUnit, 8);
  const CholFactor f = ichol(grounded_laplacian(g), Ordering::kMinDeg, {});
  const ApproxInverse z = ApproxInverse::build(f);
  const std::string path = "test_zcache.bin";
  z.save_file(path);
  const ApproxInverse w = ApproxInverse::load_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(w.nnz(), z.nnz());
  EXPECT_EQ(w.perm(), z.perm());
}

TEST(Serialize, RejectsCorruptedInput) {
  std::stringstream bad1(std::string("GARBAGE"), std::ios::in | std::ios::binary);
  EXPECT_THROW(ApproxInverse::load(bad1), std::runtime_error);

  // Truncate a valid payload.
  const Graph g = grid_2d(5, 5, WeightKind::kUnit, 9);
  const CholFactor f = ichol(grounded_laplacian(g), Ordering::kMinDeg, {});
  const ApproxInverse z = ApproxInverse::build(f);
  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  z.save(ss);
  std::string payload = ss.str();
  payload.resize(payload.size() / 2);
  std::stringstream cut(payload, std::ios::in | std::ios::binary);
  EXPECT_THROW(ApproxInverse::load(cut), std::runtime_error);
}

}  // namespace
}  // namespace er
