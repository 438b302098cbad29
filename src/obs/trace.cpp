#include "obs/trace.hpp"

#include <functional>
#include <thread>

namespace er::obs {

namespace {

std::chrono::steady_clock::time_point span_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

void TraceRing::set_capacity(std::size_t n) {
  util::MutexLock lock(&mutex_);
  capacity_.store(n, std::memory_order_relaxed);
  while (spans_.size() > n) spans_.pop_front();
}

void TraceRing::push(const SpanRecord& span) {
  // One relaxed load keeps the disabled ring nearly free; the capacity is
  // re-checked under the lock so a concurrent shrink stays a bound.
  if (capacity_.load(std::memory_order_relaxed) == 0) return;
  util::MutexLock lock(&mutex_);
  const std::size_t cap = capacity_.load(std::memory_order_relaxed);
  if (cap == 0) return;
  spans_.push_back(span);
  while (spans_.size() > cap) spans_.pop_front();
}

std::vector<SpanRecord> TraceRing::recent() const {
  util::MutexLock lock(&mutex_);
  return {spans_.begin(), spans_.end()};
}

void TraceRing::clear() {
  util::MutexLock lock(&mutex_);
  spans_.clear();
}

TraceRing& TraceRing::global() {
  static TraceRing* g = new TraceRing();  // never destroyed: spans may
  // close during static teardown.
  return *g;
}

Histogram& stage_histogram(const char* stage) {
  return MetricsRegistry::global().histogram(
      "er_span_seconds", {{"stage", stage}},
      "Wall-clock duration of OBS_SPAN pipeline stages");
}

SpanGuard::SpanGuard(const char* stage, std::int64_t id)
    : stage_(stage), id_(id) {
  (void)span_epoch();  // pin the epoch before the first span closes
  start_ = std::chrono::steady_clock::now();
}

SpanGuard::~SpanGuard() {
  const auto end = std::chrono::steady_clock::now();
  const double duration =
      std::chrono::duration<double>(end - start_).count();
  stage_histogram(stage_).record(duration);
  TraceRing& ring = TraceRing::global();
  if (ring.capacity() > 0) {
    SpanRecord r;
    r.stage = stage_;
    r.id = id_;
    r.start_seconds =
        std::chrono::duration<double>(start_ - span_epoch()).count();
    r.duration_seconds = duration;
    r.thread = static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()));
    ring.push(r);
  }
}

}  // namespace er::obs
