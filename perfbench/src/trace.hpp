// Span recorder of the traced run (--trace 1). The benchmark wraps each of
// its calls into a layer of the program (a src/ module's public function)
// in a Span; spans nest per thread, carry the request they served, and
// stay in memory until write_json() dumps them at exit. With tracing off
// every operation is a relaxed load and a branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// Monotonic clock in nanoseconds (steady_clock).
std::int64_t now_ns();

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Record a span whose interval was measured elsewhere (e.g. a request's
  /// round trip, sent on one thread and answered on another). Returns its
  /// id, or 0 when tracing is off.
  std::uint64_t record(const char* name, std::int64_t start_ns,
                       std::int64_t end_ns, std::uint64_t parent,
                       std::uint64_t request);

  /// Every span recorded so far, from all threads.
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Write the spans as JSON (with self times); false on an I/O error.
  bool write_json(const std::string& path) const;

 private:
  friend class Span;
  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> ids_{0};
};

/// RAII span on the calling thread: its parent is the innermost open span
/// of the thread, and it inherits the parent's request id unless given one.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::uint64_t request_ = 0;
  std::int64_t start_ = 0;
};

}  // namespace perfbench
