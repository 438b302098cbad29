// Tests for ApproxInverse serialization: stream and file round trips, and
// rejection of corrupted input.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <utility>

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

/// A saved payload and the byte positions of its v1 sections: magic,
/// version and n, then perm, inv_perm, column offsets, column lengths,
/// rows and values, each as a 64-bit size and the elements.
struct Payload {
  explicit Payload(const ApproxInverse& z) : n(static_cast<std::size_t>(z.dimension())) {
    std::ostringstream out;
    z.save(out);
    bytes = out.str();
    perm = 16;
    inv_perm = perm + 8 + 4 * n;
    offset = inv_perm + 8 + 4 * n;
    len = offset + 8 + 8 * n;
    rows = len + 8 + 4 * n;
  }
  template <typename T>
  T get(std::size_t pos) const {
    T v;
    std::memcpy(&v, bytes.data() + pos, sizeof(T));
    return v;
  }
  template <typename T>
  void set(std::size_t pos, T v) {
    std::memcpy(bytes.data() + pos, &v, sizeof(T));
  }
  /// Element k of the section at `pos`.
  template <typename T>
  static std::size_t at(std::size_t pos, std::size_t k) {
    return pos + 8 + sizeof(T) * k;
  }
  void expect_rejected() const {
    std::istringstream in(bytes);
    EXPECT_THROW(ApproxInverse::load(in), std::runtime_error);
  }

  std::size_t n;
  std::string bytes;
  std::size_t perm, inv_perm, offset, len, rows;
};

ApproxInverse small_inverse() {
  const Graph g = grid_2d(6, 6, WeightKind::kUniform, 10);
  return ApproxInverse::build(ichol(grounded_laplacian(g), Ordering::kMinDeg, {}));
}

TEST(Serialize, SaveLoadSaveIsByteIdentical) {
  const Payload p(small_inverse());
  std::istringstream in(p.bytes);
  EXPECT_EQ(Payload(ApproxInverse::load(in)).bytes, p.bytes);
}

TEST(Serialize, RejectsNegativeColumnLength) {
  Payload p(small_inverse());
  p.set<std::int32_t>(Payload::at<std::int32_t>(p.len, 0), -1);
  p.expect_rejected();
}

TEST(Serialize, RejectsColumnOffsetPastThePool) {
  Payload p(small_inverse());
  // off + len wraps to a small number when off is near 2^64.
  p.set<std::uint64_t>(Payload::at<std::uint64_t>(p.offset, 0), ~std::uint64_t{0});
  p.expect_rejected();
}

TEST(Serialize, RejectsInvPermThatIsNotTheInverse) {
  Payload p(small_inverse());
  // Still a permutation, but no longer perm's inverse.
  const std::size_t a = Payload::at<std::int32_t>(p.inv_perm, 0);
  const std::size_t b = Payload::at<std::int32_t>(p.inv_perm, 1);
  const auto va = p.get<std::int32_t>(a);
  p.set<std::int32_t>(a, p.get<std::int32_t>(b));
  p.set<std::int32_t>(b, va);
  p.expect_rejected();
}

TEST(Serialize, RejectsRowsNotStrictlyAscendingInRange) {
  const ApproxInverse z = small_inverse();
  index_t j = 0;
  while (z.column_rows(j).size() < 2) ++j;
  const auto uj = static_cast<std::size_t>(j);
  const Payload good(z);
  const auto first = Payload::at<std::int32_t>(
      good.rows, good.get<std::uint64_t>(Payload::at<std::uint64_t>(good.offset, uj)));
  {
    Payload p = good;  // descending
    const auto r0 = p.get<std::int32_t>(first);
    p.set<std::int32_t>(first, p.get<std::int32_t>(first + 4));
    p.set<std::int32_t>(first + 4, r0);
    p.expect_rejected();
  }
  {
    Payload p = good;  // repeated
    p.set<std::int32_t>(first + 4, p.get<std::int32_t>(first));
    p.expect_rejected();
  }
  {
    Payload p = good;  // past n
    p.set<std::int32_t>(first + 4, static_cast<std::int32_t>(p.n));
    p.expect_rejected();
  }
}

TEST(Serialize, RejectsArraySizesBeyondTheInput) {
  const Payload good(small_inverse());
  {
    Payload p = good;  // a perm longer than n
    p.set<std::uint64_t>(p.perm, p.n + 1);
    p.expect_rejected();
  }
  {
    Payload p = good;  // a row pool larger than the bytes that follow
    p.set<std::uint64_t>(p.rows, std::uint64_t{1} << 60);
    p.expect_rejected();
  }
  {
    Payload p = good;  // a dimension far beyond the payload
    p.set<std::int64_t>(8, std::int64_t{1} << 30);
    p.expect_rejected();
  }
}

}  // namespace
}  // namespace er
