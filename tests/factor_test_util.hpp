// Helpers shared by the factor and Alg. 2 tests: the orderings the
// ordering sweeps run over, and a bitwise comparison of Alg. 2 builds.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "approxinv/approx_inverse.hpp"
#include "order/amd.hpp"
#include "order/mindeg.hpp"
#include "sparse/csc.hpp"
#include "sparse/sparse_vector.hpp"
#include "util/rng.hpp"

namespace er {

struct SweepOrdering {
  const char* name;
  std::vector<index_t> perm;  // perm[new] = old
};

/// Identity, a seeded shuffle, min-degree and AMD orderings of the
/// symmetric matrix `a`. The library fixes one ordering per factor kind
/// (AMD for complete factors, min-degree for ICT); the identity and the
/// shuffle are bad orders, so the kernels also run under heavy fill and
/// long etree paths.
inline std::vector<SweepOrdering> sweep_orderings(const CscMatrix& a,
                                                  std::uint64_t seed = 1) {
  const index_t n = a.cols();
  std::vector<index_t> shuffled = identity_permutation(n);
  Rng rng(seed);
  for (index_t i = n; i-- > 1;)
    std::swap(shuffled[static_cast<std::size_t>(i)],
              shuffled[static_cast<std::size_t>(rng.uniform_int(i + 1))]);
  std::vector<SweepOrdering> out;
  out.push_back({"identity", identity_permutation(n)});
  out.push_back({"shuffle", std::move(shuffled)});
  out.push_back({"mindeg", mindeg_order(a)});
  out.push_back({"amd", amd_order(a)});
  return out;
}

/// Column j of z holds the rows of ref[j] and the same value bits, not
/// approximately.
inline void expect_columns_bitwise(const ApproxInverse& z,
                                   const std::vector<SparseVector>& ref) {
  ASSERT_EQ(static_cast<std::size_t>(z.dimension()), ref.size());
  for (index_t j = 0; j < z.dimension(); ++j) {
    const auto rows = z.column_rows(j);
    const auto vals = z.column_values(j);
    const SparseVector& want = ref[static_cast<std::size_t>(j)];
    ASSERT_EQ(rows.size(), want.idx.size()) << "column " << j;
    ASSERT_TRUE(std::equal(rows.begin(), rows.end(), want.idx.begin()))
        << "column " << j;
    ASSERT_EQ(std::memcmp(vals.data(), want.val.data(),
                          vals.size() * sizeof(real_t)),
              0)
        << "column " << j;
  }
}

/// Two Alg. 2 builds are bitwise equal: the same perm and inv_perm, and
/// every column the same rows and value bits, however the storage chunks
/// lay them out.
inline void expect_columns_bitwise(const ApproxInverse& z,
                                   const ApproxInverse& want) {
  ASSERT_EQ(z.nnz(), want.nnz());
  EXPECT_EQ(z.perm(), want.perm());
  EXPECT_EQ(z.inv_perm(), want.inv_perm());
  std::vector<SparseVector> cols;
  cols.reserve(static_cast<std::size_t>(want.dimension()));
  for (index_t j = 0; j < want.dimension(); ++j) cols.push_back(want.column(j));
  expect_columns_bitwise(z, cols);
}

}  // namespace er
