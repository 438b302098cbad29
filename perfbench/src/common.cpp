#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "graph/generators.hpp"
#include "pg/generator.hpp"

namespace perfbench {

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

bool Result::has(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.first == name) return true;
  return false;
}

void Result::fail(const std::string& why, std::uint64_t n) {
  failed_ += n;
  note("FAILED (%llu): %s", static_cast<unsigned long long>(n), why.c_str());
}

void Result::gate_failed(const std::string& why) {
  gates_ok_ = false;
  note("GATE FAILED: %s", why.c_str());
}

void Result::note(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::printf("# ");
  std::vprintf(fmt, args);
  std::printf("\n");
  std::fflush(stdout);
  va_end(args);
}

er::PowerGrid make_grid() {
  return er::generate_power_grid(
      er::ibmpg_like_preset(6, static_cast<er::real_t>(1.3 * kScale)));
}

er::Graph make_social_graph() {
  return er::barabasi_albert(static_cast<er::index_t>(30000 * kScale), 3,
                             er::WeightKind::kUnit, 101);
}

er::Graph make_circuit_graph() {
  const auto side = static_cast<er::index_t>(390 * kScale);
  return er::grid_2d(side, side, er::WeightKind::kLogUniform, 112);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  }
  return 0.0;
}

std::uint64_t counter_delta(const er::obs::MetricsSnapshot& a,
                            const er::obs::MetricsSnapshot& b,
                            const std::string& name,
                            const er::obs::Labels& labels) {
  const er::obs::MetricSnapshot* before = a.find(name, labels);
  const er::obs::MetricSnapshot* after = b.find(name, labels);
  if (!after) return 0;
  return after->counter - (before ? before->counter : 0);
}

er::obs::HistogramSnapshot histogram_delta(const er::obs::MetricsSnapshot& a,
                                           const er::obs::MetricsSnapshot& b,
                                           const std::string& name,
                                           const er::obs::Labels& labels) {
  const er::obs::MetricSnapshot* before = a.find(name, labels);
  const er::obs::MetricSnapshot* after = b.find(name, labels);
  er::obs::HistogramSnapshot d;
  if (!after) return d;
  d = after->histogram;
  if (before && before->histogram.buckets.size() == d.buckets.size()) {
    for (std::size_t i = 0; i < d.buckets.size(); ++i)
      d.buckets[i] -= before->histogram.buckets[i];
    d.count -= before->histogram.count;
    d.sum -= before->histogram.sum;
  }
  return d;
}

}  // namespace perfbench
