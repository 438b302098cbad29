/// \file
/// Pipeline trace spans (DESIGN.md §6): `OBS_SPAN("stitch", block_id)`
/// opens an RAII span whose wall-clock duration feeds a per-stage
/// aggregate histogram in the global registry
/// (`er_span_seconds{stage="stitch"}`) and, when enabled, a bounded
/// in-memory ring of recent spans for post-hoc debugging.
///
/// Cost model: a span costs two steady_clock reads plus one registry
/// lookup (mutex + map find, ~100 ns) per construction — cheap against
/// the multi-microsecond-to-seconds stages it wraps (partition / reduce /
/// stitch / publish / per-block phases), but NOT for per-query
/// granularity; per-query latency is recorded by the serving layer
/// through cached Histogram handles instead (serve/query_frontend.cpp).
///
/// Compile-out: building with -DER_OBS_DISABLE_SPANS (CMake
/// -DER_OBS_SPANS=OFF) expands every OBS_SPAN to nothing. Spans only
/// *read* clocks — no computation consumes them — so reduced models are
/// bit-identical with spans on, off, or compiled out (the determinism
/// contract of DESIGN.md §3).
///
/// The ring is off by default (capacity 0, one relaxed atomic load per
/// span); `TraceRing::global().set_capacity(n)` turns it on for a debug
/// session.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace er::obs {

/// One finished span, as stored in the ring.
struct SpanRecord {
  const char* stage = "";        ///< static string passed to OBS_SPAN
  std::int64_t id = -1;          ///< optional caller id (block, version, …)
  double start_seconds = 0.0;    ///< offset from process span epoch
  double duration_seconds = 0.0; ///< wall-clock span length
  std::uint64_t thread = 0;      ///< hashed id of the recording thread
};

/// Bounded ring of the most recent spans. Disabled at capacity 0 (the
/// default): a disabled ring costs one relaxed load per span. Thread-safe.
class TraceRing {
 public:
  /// Resize the ring; 0 disables it and clears retained spans. Shrinking
  /// drops the oldest spans.
  void set_capacity(std::size_t n) ER_EXCLUDES(mutex_);
  [[nodiscard]] std::size_t capacity() const {
    return capacity_.load(std::memory_order_relaxed);
  }

  void push(const SpanRecord& span) ER_EXCLUDES(mutex_);
  /// Retained spans, oldest first.
  [[nodiscard]] std::vector<SpanRecord> recent() const ER_EXCLUDES(mutex_);
  void clear() ER_EXCLUDES(mutex_);

  /// The process-wide ring OBS_SPAN records into.
  static TraceRing& global();

 private:
  /// Atomic, not guarded: push() reads it lock-free as the fast-path
  /// disabled check, then re-reads under mutex_ so a concurrent shrink
  /// stays a bound (writes always happen under mutex_).
  std::atomic<std::size_t> capacity_{0};
  mutable util::Mutex mutex_;
  std::deque<SpanRecord> spans_ ER_GUARDED_BY(mutex_);
};

/// The per-stage aggregate histogram of the global registry
/// (`er_span_seconds{stage=<stage>}`). `stage` must be a static string.
Histogram& stage_histogram(const char* stage);

/// RAII span: construction stamps the start, destruction records the
/// duration into the stage histogram and (if enabled) the global ring.
/// Use through OBS_SPAN rather than directly.
class SpanGuard {
 public:
  explicit SpanGuard(const char* stage, std::int64_t id = -1);
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* stage_;
  std::int64_t id_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace er::obs

// OBS_SPAN("stage") / OBS_SPAN("stage", id): open a span covering the rest
// of the enclosing block. The stage string must be a literal (it is stored
// by pointer). Compiled out entirely under ER_OBS_DISABLE_SPANS.
#if defined(ER_OBS_DISABLE_SPANS)
#define OBS_SPAN(...) ((void)0)
#else
#define ER_OBS_SPAN_CAT2(a, b) a##b
#define ER_OBS_SPAN_CAT(a, b) ER_OBS_SPAN_CAT2(a, b)
#define OBS_SPAN(...) \
  ::er::obs::SpanGuard ER_OBS_SPAN_CAT(obs_span_, __LINE__)(__VA_ARGS__)
#endif
