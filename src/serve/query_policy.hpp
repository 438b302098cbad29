/// \file
/// Per-query serving policy (DESIGN.md §4.3).
///
/// A QueryPolicy rides on every PortQuery and carries how long the query
/// was willing to wait (deadline_us). The default-constructed policy sets
/// no deadline.
///
/// Determinism: nothing in this header reads a clock. Deadline expiry is a
/// pure function of (policy.deadline_us, AnswerContext::queue_wait_us), so
/// answers stay bit-identical at any thread count (§4.3's argument).
#pragma once

#include <cstdint>

namespace er {

/// Per-query serving policy. The default value sets no deadline.
struct QueryPolicy {
  /// Queueing budget in microseconds; 0 = none. A query whose deadline is
  /// <= the batch's AnswerContext::queue_wait_us reports kDeadlineMiss
  /// (answer NaN) without being evaluated — see §4.3 for why expiry is an
  /// explicit input rather than a clock read.
  std::uint32_t deadline_us = 0;
};

/// Per-query outcome reported through AnswerContext::statuses.
enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kInvalid = 1,       ///< unmapped / eliminated endpoint (answer NaN)
  kDeadlineMiss = 2,  ///< deadline expired before evaluation (answer NaN)
};

const char* to_string(QueryStatus status);

}  // namespace er
