// Shared benchmark-suite definitions: the synthetic stand-ins for the
// paper's Table I graphs and the ibmpg-like grids of Table II, plus a
// scale knob so the benches run on small machines.
//
// Scale control: environment variable ER_BENCH_SCALE in {tiny, small,
// medium} (default medium). "tiny" exists for CI smoke runs; reported
// numbers in EXPERIMENTS.md use medium.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "parallel/thread_pool.hpp"
#include "pg/generator.hpp"
#include "reduction/pipeline.hpp"

namespace er::bench {

// ---------------------------------------------------------------------------
// Command-line plumbing shared by the bench mains.
// ---------------------------------------------------------------------------

struct BenchOptions {
  /// Worker threads for parallel reduction / batched ER queries.
  /// 0 = auto (hardware concurrency); set via --threads N.
  int threads = 1;
  /// Machine-readable results file (BENCH_*.json); set via --json PATH,
  /// empty disables JSON output.
  std::string json_path;
};

/// Strict non-negative integer parse; exits with usage on garbage so a
/// typo'd --threads can't silently mean "0 = all hardware cores".
inline int parse_thread_count(const char* prog, const std::string& text) {
  char* end = nullptr;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || v < 0 ||
      v > 4096) {
    std::fprintf(stderr, "%s: --threads expects an integer in [0, 4096], got '%s'\n",
                 prog, text.c_str());
    std::exit(2);
  }
  return static_cast<int>(v);
}

inline BenchOptions parse_bench_args(int argc, char** argv,
                                     std::string default_json,
                                     int default_threads = 1) {
  BenchOptions o;
  o.threads = default_threads;
  o.json_path = std::move(default_json);
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads" && i + 1 < argc) {
      o.threads = parse_thread_count(argv[0], argv[++i]);
    } else if (a.rfind("--threads=", 0) == 0) {
      o.threads = parse_thread_count(argv[0], a.substr(10));
    } else if (a == "--json" && i + 1 < argc) {
      o.json_path = argv[++i];
    } else if (a.rfind("--json=", 0) == 0) {
      o.json_path = a.substr(7);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--threads N] [--json PATH]\n"
                   "  --threads N    worker threads (0 = hardware)\n"
                   "  --json PATH    machine-readable output ('' disables)\n",
                   argv[0]);
      std::exit(a == "--help" ? 0 : 2);
    }
  }
  o.threads = resolve_num_threads(o.threads);
  return o;
}

// ---------------------------------------------------------------------------
// Minimal JSON emitter for BENCH_*.json result files: an array of flat
// objects, one per measured configuration.
// ---------------------------------------------------------------------------

class BenchJson {
 public:
  class Row {
   public:
    Row& set(const std::string& key, double v) {
      // Bare nan/inf tokens are invalid JSON; emit null so a degenerate
      // metric can't make the whole file unparseable.
      if (!std::isfinite(v)) return raw(key, "null");
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", v);
      return raw(key, buf);
    }
    Row& set(const std::string& key, long long v) {
      return raw(key, std::to_string(v));
    }
    Row& set(const std::string& key, int v) {
      return raw(key, std::to_string(v));
    }
    Row& set(const std::string& key, std::size_t v) {
      return raw(key, std::to_string(v));
    }
    Row& set(const std::string& key, bool v) {
      return raw(key, v ? "true" : "false");
    }
    Row& set(const std::string& key, const std::string& v) {
      return raw(key, "\"" + escaped(v) + "\"");
    }
    Row& set(const std::string& key, const char* v) {
      return set(key, std::string(v));
    }

   private:
    friend class BenchJson;
    static std::string escaped(const std::string& s) {
      std::string out;
      out.reserve(s.size());
      for (char c : s) {
        if (c == '"' || c == '\\') out.push_back('\\');
        out.push_back(c);
      }
      return out;
    }
    Row& raw(const std::string& key, const std::string& value) {
      if (!body_.empty()) body_ += ", ";
      body_ += "\"" + escaped(key) + "\": " + value;
      return *this;
    }
    std::string body_;
  };

  /// Append a row; the reference stays valid until write().
  Row& add_row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Write the accumulated rows as a JSON array. No-op on empty path.
  bool write(const std::string& path) const {
    if (path.empty()) return true;
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < rows_.size(); ++i)
      out << "  {" << rows_[i].body_ << "}" << (i + 1 < rows_.size() ? ",\n" : "\n");
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  std::deque<Row> rows_;
};

/// Emit a ReductionStats timing breakdown with explicit wall/CPU labels.
/// `*_wall_seconds` are disjoint stage spans of the run (each <= total);
/// `*_cpu_seconds` are per-block phase timings summed over blocks that may
/// run concurrently, so they can exceed the wall-clock totals in
/// multi-thread runs — they measure work, not elapsed time (see the
/// caveat on ReductionStats: a block's nested work takes in idle workers,
/// understating its CPU-seconds).
inline void set_reduction_stats(BenchJson::Row& row, const ReductionStats& s) {
  row.set("partition_wall_seconds", s.partition_seconds)
      .set("reduce_wall_seconds", s.reduce_seconds)
      .set("stitch_wall_seconds", s.stitch_seconds)
      .set("total_wall_seconds", s.total_seconds)
      .set("schur_cpu_seconds", s.schur_cpu_seconds)
      .set("er_cpu_seconds", s.er_cpu_seconds)
      .set("sparsify_cpu_seconds", s.sparsify_cpu_seconds);
}

/// Shared bench epilogue: write BENCH_*.json (if enabled), report the
/// outcome, and return the process exit code contribution (0 ok, 1 fail).
inline int write_json_or_report(const BenchJson& json,
                                const BenchOptions& opts) {
  if (opts.json_path.empty()) return 0;
  if (json.write(opts.json_path)) {
    std::printf("JSON written to %s\n", opts.json_path.c_str());
    return 0;
  }
  std::fprintf(stderr, "failed to write %s\n", opts.json_path.c_str());
  return 1;
}

inline double scale_factor() {
  const char* env = std::getenv("ER_BENCH_SCALE");
  // Default "small": the full bench sweep stays ~15 minutes on one core.
  // "medium" doubles linear sizes (4x nodes) for the numbers quoted in
  // EXPERIMENTS.md scalability notes.
  if (!env) return 0.5;
  const std::string s(env);
  if (s == "tiny") return 0.25;
  if (s == "small") return 0.5;
  if (s == "medium") return 1.0;
  return 1.0;
}

struct SuiteCase {
  std::string name;     // paper-case this stands in for, suffixed "-like"
  std::string family;   // generator family
  Graph graph;
  /// The paper skips the baseline on its largest case (">10 hours"); large
  /// cases here mirror that with a flag.
  bool run_baseline = true;
};

inline index_t scaled(index_t v) {
  const double f = scale_factor();
  return std::max<index_t>(static_cast<index_t>(v * f), 16);
}

/// The Table I suite. Families match the paper's sources: social networks
/// (BA/RMAT/WS), finite-element meshes (3D grids), 2D circuit matrices
/// (weighted 2D grids), power grids (multilayer meshes). Sizes are scaled
/// down from the paper (see DESIGN.md §2); relative comparisons carry over.
inline std::vector<SuiteCase> table1_suite() {
  std::vector<SuiteCase> suite;
  auto add = [&suite](std::string name, std::string family, Graph g,
                      bool baseline = true) {
    suite.push_back(
        {std::move(name), std::move(family), std::move(g), baseline});
  };

  add("com-DBLP-like", "barabasi-albert",
      barabasi_albert(scaled(30000), 3, WeightKind::kUnit, 101));
  add("com-Amaz-like", "watts-strogatz",
      watts_strogatz(scaled(30000), 3, 0.1, WeightKind::kUnit, 102));
  add("com-Yout-like", "rmat",
      rmat(15, static_cast<std::size_t>(scaled(30000)) * 3, 0.57, 0.19, 0.19,
           WeightKind::kUnit, 103));
  add("coAuDBLP-like", "barabasi-albert",
      barabasi_albert(scaled(25000), 3, WeightKind::kUnit, 104));
  add("coAuCite-like", "barabasi-albert",
      barabasi_albert(scaled(20000), 3, WeightKind::kUnit, 105));
  add("fe-tooth-like", "grid3d",
      grid_3d(scaled(30), scaled(30), scaled(30), WeightKind::kUniform, 106));
  add("fe-rotor-like", "grid3d",
      grid_3d(scaled(34), scaled(34), scaled(32), WeightKind::kUniform, 107));
  add("NACA0015-like", "grid2d",
      grid_2d(scaled(300), scaled(300), WeightKind::kUniform, 108));
  add("ibmpg5-like", "multilayer-mesh",
      multilayer_mesh(scaled(220), scaled(220), 3, WeightKind::kLogUniform, 109));
  add("ibmpg6-like", "multilayer-mesh",
      multilayer_mesh(scaled(280), scaled(280), 3, WeightKind::kLogUniform, 110));
  add("thupg1-like", "multilayer-mesh",
      multilayer_mesh(scaled(340), scaled(340), 3, WeightKind::kLogUniform, 111));
  add("G2-circuit-like", "grid2d",
      grid_2d(scaled(390), scaled(390), WeightKind::kLogUniform, 112));
  add("G3-circuit-like", "grid2d",
      grid_2d(scaled(500), scaled(500), WeightKind::kLogUniform, 113));
  // Scalability showcase; the paper's baseline exceeds 10 hours here and is
  // reported as "-".
  add("thupg10-like", "multilayer-mesh",
      multilayer_mesh(scaled(600), scaled(600), 4, WeightKind::kLogUniform, 114),
      /*baseline=*/false);
  return suite;
}

/// Table II grids: ibmpg2..6-like presets scaled to the bench budget
/// (~1e4 .. ~1.2e5 nodes at the default small scale — roughly a tenth of
/// the IBM benchmarks' linear size).
inline std::vector<std::pair<std::string, PowerGrid>> table2_suite() {
  std::vector<std::pair<std::string, PowerGrid>> grids;
  const double f = scale_factor();
  for (int idx = 2; idx <= 6; ++idx) {
    PgGeneratorOptions o = ibmpg_like_preset(idx, static_cast<real_t>(1.3 * f));
    grids.emplace_back("ibmpg" + std::to_string(idx) + "-like",
                       generate_power_grid(o));
  }
  return grids;
}

}  // namespace er::bench
