// Shared plumbing of the workloads: run options, the metric/outcome sink,
// the seeded input generators, and registry-delta readers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "obs/metrics.hpp"
#include "pg/power_grid.hpp"
#include "reduction/pipeline.hpp"

namespace perfbench {

/// Input sizes follow the repository's ER_BENCH_SCALE=small presets
/// (bench/suite.hpp): linear scale factor 0.5.
inline constexpr double kScale = 0.5;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the traced run writes its span file
};

/// Metrics and outcome counts of one run, in report order.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Count `n` attempted operations.
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count `n` failed operations (refused, errored or wrong) with a reason.
  void fail(const std::string& why, std::uint64_t n = 1);
  /// A correctness gate that failed without a per-operation count.
  void gate_failed(const std::string& why);
  /// Print a diagnostic line on stdout (never the last line).
  static void note(const char* fmt, ...);

  [[nodiscard]] bool correct() const { return failed_ == 0 && gates_ok_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  metrics() const {
    return metrics_;
  }
  [[nodiscard]] bool has(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool gates_ok_ = true;
};

// The inputs are the repository's bench suite cases (bench/suite.hpp) at
// its fixed generator seeds, so every seed serves the same grid and graphs;
// --seed drives what is asked of them (query pairs, arrival schedules,
// edits, modifications and checked samples).

/// ibmpg6-like multilayer power grid (table2_suite(), Table II).
er::PowerGrid make_grid();
/// com-DBLP-like: Barabási–Albert social graph with hubs (table1_suite()).
er::Graph make_social_graph();
/// G2-circuit-like: log-uniform weighted 2D grid (table1_suite()).
er::Graph make_circuit_graph();

/// Peak resident set size of this process so far, in MiB (VmHWM).
double peak_rss_mb();

/// Registry readers over two snapshots of one registry (b taken after a).
std::uint64_t counter_delta(const er::obs::MetricsSnapshot& a,
                            const er::obs::MetricsSnapshot& b,
                            const std::string& name,
                            const er::obs::Labels& labels = {});
er::obs::HistogramSnapshot histogram_delta(const er::obs::MetricsSnapshot& a,
                                           const er::obs::MetricsSnapshot& b,
                                           const std::string& name,
                                           const er::obs::Labels& labels = {});

/// The paper's PG flow (Table II, DC incremental): full IncrementalReducer
/// reduction of `grid` with the Alg. 3 backend and a 4-thread pool, one
/// 10 %-dirty update, and a DC solve of the reduced model.
struct PgFlow {
  double reduce_s = 0.0;    ///< full reduction T_red
  double update_s = 0.0;    ///< incremental update
  double dc_solve_s = 0.0;  ///< reduced-model DC solve (factor + solve)
  double port_err_pct = 0.0;
  double pool_busy_frac = 0.0;  ///< reducer pool busy share over T_red
  double pool_wait_p50_us = 0.0;
  er::ReductionStats stats;  ///< of the full reduction
};

/// Runs the flow `repeats` times, each with its own seeded modification
/// (timings are per repeat; the error is checked against a full-grid DC
/// solve of that repeat's modified grid).
std::vector<PgFlow> run_pg_flow(const er::PowerGrid& grid, std::uint64_t seed,
                                int repeats);

/// Ceilings of the accuracy gates: about twice the largest value of the
/// baseline runs (perfbench/baseline.json).
inline constexpr double kPortErrPctCeiling = 3.0;     // PG flow, % of max drop
inline constexpr double kAlg3ErrCeiling = 0.02;       // Alg. 3 vs ExactEffRes
inline constexpr double kServedErErrCeiling = 0.15;   // served model vs grid

void run_wire_uniform(const RunOptions& opts, Result& result);
void run_wire_zipf_churn(const RunOptions& opts, Result& result);
void run_paper_offline(const RunOptions& opts, Result& result);

/// Per-layer metrics of the wire path measured by a short uniform probe
/// on `grid` (the paper_offline traced run serves no traffic otherwise).
void wire_layer_probe(const er::PowerGrid& grid, const RunOptions& opts,
                      Result& result);

}  // namespace perfbench
