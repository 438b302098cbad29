#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

/// Completed spans of one thread. Buffers are owned by a global list, so
/// they outlive the threads that filled them.
struct Buffer {
  std::mutex mutex;
  std::vector<SpanRecord> done;
};

std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<Buffer>>& buffers() {
  static std::vector<std::unique_ptr<Buffer>> list;
  return list;
}

Buffer& thread_buffer() {
  thread_local Buffer* mine = nullptr;
  if (!mine) {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    buffers().push_back(std::make_unique<Buffer>());
    mine = buffers().back().get();
  }
  return *mine;
}

/// Open spans of this thread, innermost last: (id, request).
thread_local std::vector<std::pair<std::uint64_t, std::uint64_t>> t_open;

void push_done(const SpanRecord& s) {
  Buffer& b = thread_buffer();
  std::lock_guard<std::mutex> lock(b.mutex);
  b.done.push_back(s);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

std::uint64_t Tracer::record(const char* name, std::int64_t start_ns,
                             std::int64_t end_ns, std::uint64_t parent,
                             std::uint64_t request) {
  if (!enabled()) return 0;
  SpanRecord s;
  s.id = next_id();
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  push_done(s);
  return s.id;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& b : buffers()) {
    std::lock_guard<std::mutex> inner(b->mutex);
    all.insert(all.end(), b->done.begin(), b->done.end());
  }
  return all;
}

bool Tracer::write_json(const std::string& path) const {
  const std::vector<SpanRecord> all = spans();
  const std::vector<std::int64_t> self = self_times(all);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"self_ns\": %lld}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

Span::Span(const char* name, std::uint64_t request) : name_(name) {
  Tracer& t = Tracer::instance();
  if (!t.enabled()) return;
  id_ = t.next_id();
  if (!t_open.empty()) {
    parent_ = t_open.back().first;
    if (request == 0) request = t_open.back().second;
  }
  request_ = request;
  t_open.emplace_back(id_, request_);
  start_ = now_ns();
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord s;
  s.end_ns = now_ns();
  s.id = id_;
  s.parent = parent_;
  s.request = request_;
  s.name = name_;
  s.start_ns = start_;
  t_open.pop_back();
  push_done(s);
}

}  // namespace perfbench
