// perfbench_driver: runs one workload and prints its metrics. The last
// line of stdout is the JSON result object; every other line starts with
// "#". Usage (perfbench/run.py builds the driver and forwards to it):
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--out-dir DIR]
//
// Workloads: wire_uniform, wire_zipf_churn, paper_offline. --trace 0
// reports the end-to-end metrics; --trace 1 records spans (written to
// DIR/trace_<workload>_<seed>.json) and reports the per-layer metrics.
// Exit status: 0 when every answer passed its check, 1 when one did not,
// 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

using perfbench::Result;

// The metric names of BENCHMARK.json, in its order.
const std::vector<std::string> kEndToEnd = {
    "setup_s",     "peak_rss_mb", "success_frac", "latency_p50_ms",
    "goodput_qps", "edit_visible_p50_ms", "alg3_s", "er_err_mean",
    "reduce_s",    "incr_flow_s", "port_err_pct"};

const std::vector<std::string> kPerLayer = {
    "net.rtt_p50_us",          "net.rtt_p99_us",
    "net.server_p50_us",       "net.queue_wait_mean_us",
    "net.overhead_mean_us",    "net.codec_us",
    "net.capacity_qps",        "net.retry_later_frac",
    "serve.batch_p50_us",
    "serve.solve_us",          "serve.acquire_us",
    "serve.cache_hit_frac",    "serve.cache_invalidations",
    "serve.publish_s",         "serve.publish_bytes",
    "serve.snapshot_build_s",  "serve.staleness_mods_mean",
    "pg.update_s",             "pg.dc_solve_s",
    "pg.mods_coalesced_frac",  "reduction.schur_cpu_s",
    "reduction.er_cpu_s",      "reduction.sparsify_cpu_s",
    "reduction.stitch_s",      "reduction.reduced_nodes",
    "reduction.boundary_frac", "partition.wall_s",
    "approxinv.build_s",       "approxinv.nnz_ratio",
    "approxinv.max_depth",     "chol.factor_s",
    "chol.factor_nnz",         "effres.edge_query_us",
    "parallel.busy_frac",      "parallel.queue_wait_p50_us",
    "bench.sched_lag_p99_us",  "bench.trace_overhead_frac"};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload wire_uniform|"
               "wire_zipf_churn|paper_offline --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n");
  return 2;
}

/// Share of the traced run's wall time spent recording spans: the number
/// of spans recorded times the cost of one span, measured here by timing
/// empty spans against an empty loop. The traced and untraced runs are
/// separate processes, so the difference tracing makes is measured inside
/// the traced run.
double trace_overhead_frac(double run_seconds) {
  constexpr int kSpans = 20000;
  auto block = [](bool traced) {
    const std::int64_t t0 = perfbench::now_ns();
    for (int i = 0; i < kSpans; ++i) {
      if (traced) {
        perfbench::Span span("bench.empty");
      } else {
        asm volatile("" ::: "memory");
      }
    }
    return static_cast<double>(perfbench::now_ns() - t0);
  };
  const std::size_t recorded = perfbench::Tracer::instance().spans().size();
  std::vector<double> with, without;
  for (int r = 0; r < 5; ++r) {
    without.push_back(block(false));
    with.push_back(block(true));
  }
  const double per_span_ns =
      (perfbench::median(with) - perfbench::median(without)) / kSpans;
  perfbench::Result::note("tracing: %zu spans at %.0f ns each", recorded,
                          per_span_ns);
  return static_cast<double>(recorded) * per_span_ns * 1e-9 / run_seconds;
}

void print_result(const Result& r, const std::vector<std::string>& names) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted()),
              static_cast<unsigned long long>(r.failed()));
  bool first = true;
  for (const std::string& name : names) {
    for (const auto& [n, vu] : r.metrics()) {
      if (n != name) continue;
      const double v = std::isfinite(vu.first) ? vu.first : 0.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", n.c_str(), v, vu.second.c_str());
      first = false;
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !v.empty();
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end && *end == '\0' && opts.seconds > 0.0;
    } else if (a == "--trace") {
      trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (a == "--out-dir") {
      opts.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_seed || !have_seconds || trace < 0) return usage();
  opts.trace = trace == 1;
  perfbench::Tracer::instance().enable(opts.trace);
  const std::int64_t run_start = perfbench::now_ns();

  Result result;
  try {
    if (opts.workload == "wire_uniform") {
      perfbench::run_wire_uniform(opts, result);
    } else if (opts.workload == "wire_zipf_churn") {
      perfbench::run_wire_zipf_churn(opts, result);
    } else if (opts.workload == "paper_offline") {
      perfbench::run_paper_offline(opts, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  result.set("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
  const double failed_frac =
      result.attempted() ? static_cast<double>(result.failed()) /
                               static_cast<double>(result.attempted())
                         : 1.0;
  Result::note("failed_frac = %.6f (%llu of %llu attempted)", failed_frac,
               static_cast<unsigned long long>(result.failed()),
               static_cast<unsigned long long>(result.attempted()));
  result.set("success_frac", 1.0 - failed_frac, "ratio");

  const std::vector<std::string>& names = opts.trace ? kPerLayer : kEndToEnd;
  if (opts.trace) {
    result.set("bench.trace_overhead_frac",
               trace_overhead_frac(
                   static_cast<double>(perfbench::now_ns() - run_start) * 1e-9),
               "ratio");
    const std::string path = (opts.out_dir.empty() ? std::string(".") : opts.out_dir) +
                             "/trace_" + opts.workload + "_" +
                             std::to_string(opts.seed) + ".json";
    if (perfbench::Tracer::instance().write_json(path))
      Result::note("spans written to %s", path.c_str());
  }
  for (const auto& [n, vu] : result.metrics())
    Result::note("%-28s %.6g %s", n.c_str(), vu.first, vu.second.c_str());
  bool complete = true;
  for (const std::string& name : names) {
    if (!result.has(name)) {
      Result::note("metric %s unavailable on %s", name.c_str(),
                   opts.workload.c_str());
      complete = false;
    }
  }
  if (!complete) result.gate_failed("metric set incomplete");
  print_result(result, names);
  return result.correct() ? 0 : 1;
}
