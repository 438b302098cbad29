// er_served: the standalone serving daemon (DESIGN.md §8).
//
// Builds a synthetic power-grid case (an nx-by-ny uniform grid with random
// ports, the same construction the serving tests use), reduces it, and
// serves ER queries over the net/protocol.hpp TCP protocol on 127.0.0.1,
// with a streamed-modification feed into the incremental-update pipeline
// and a Prometheus /metrics endpoint. SIGTERM/SIGINT run the graceful
// drain: stop accepting, flush in-flight batches, dump final metrics.
//
// Quick start (docs/serving_guide.md has the full tour):
//   er_served --port 7421 --metrics-port 7422 --warmup 8
//   curl -s http://127.0.0.1:7422/metrics | grep er_net_
//   kill -TERM <pid>    # graceful drain + final metrics dump

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/stack.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop(int) { g_stop = 1; }

struct Flags {
  int port = 0;          // 0 = ephemeral (printed at startup)
  int metrics_port = 0;  // 0 = ephemeral
  er::index_t nx = 48;
  er::index_t ny = 48;
  er::index_t ports = 24;
  er::index_t blocks = 16;
  int threads = 2;      // query compute pool + reducer pool
  int dispatchers = 2;  // query dispatcher threads
  std::size_t queue_cap = 64;
  std::size_t max_conn = 64;
  std::uint64_t staleness = 6;
  std::uint64_t seed = 7;
  int warmup = 0;  // self-issued queries before serving (warms er_query_*)
  bool no_cache = false;
  std::string final_metrics;  // Prometheus dump path written at drain
};

void usage() {
  std::cout
      << "er_served [--port N] [--metrics-port N] [--nx N] [--ny N]\n"
         "          [--ports N] [--blocks N] [--threads N]\n"
         "          [--dispatchers N] [--queue-cap N] [--max-conn N]\n"
         "          [--staleness N] [--seed N] [--warmup N] [--no-cache]\n"
         "          [--final-metrics PATH]\n";
}

/// Parses `text` as a decimal integer in [lo, hi]; anything else (a sign,
/// trailing characters, overflow, out of range) prints why and exits 2.
std::uint64_t parse_count(const std::string& flag, const char* text,
                          std::uint64_t lo, std::uint64_t hi) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (std::isdigit(static_cast<unsigned char>(text[0])) == 0 || *end != '\0' ||
      errno == ERANGE || v < lo || v > hi) {
    std::cerr << "er_served: " << flag << " expects an integer in [" << lo
              << ", " << hi << "], got '" << text << "'\n";
    std::exit(2);
  }
  return v;
}

bool parse_flags(int argc, char** argv, Flags* flags) {
  // A side of at most 2^15 keeps nx * ny within index_t.
  constexpr std::uint64_t kMaxSide = 1 << 15;
  constexpr std::uint64_t kMaxNodes = kMaxSide * kMaxSide;
  constexpr std::uint64_t kMaxCount = 1 << 20;
  auto next_value = [&](int* i) -> const char* {
    if (*i + 1 >= argc) return nullptr;
    return argv[++*i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    if (arg == "--help" || arg == "-h") {
      usage();
      std::exit(0);
    } else if (arg == "--no-cache") {
      flags->no_cache = true;
    } else if ((value = next_value(&i)) == nullptr) {
      std::cerr << "er_served: " << arg << " needs a value\n";
      return false;
    } else if (arg == "--port") {
      flags->port = static_cast<int>(parse_count(arg, value, 0, 65535));
    } else if (arg == "--metrics-port") {
      flags->metrics_port = static_cast<int>(parse_count(arg, value, 0, 65535));
    } else if (arg == "--nx") {
      flags->nx = static_cast<er::index_t>(parse_count(arg, value, 1, kMaxSide));
    } else if (arg == "--ny") {
      flags->ny = static_cast<er::index_t>(parse_count(arg, value, 1, kMaxSide));
    } else if (arg == "--ports") {
      flags->ports = static_cast<er::index_t>(parse_count(arg, value, 1, kMaxNodes));
    } else if (arg == "--blocks") {
      flags->blocks = static_cast<er::index_t>(parse_count(arg, value, 0, kMaxNodes));
    } else if (arg == "--threads") {
      flags->threads = static_cast<int>(parse_count(arg, value, 0, 4096));
    } else if (arg == "--dispatchers") {
      flags->dispatchers = static_cast<int>(parse_count(arg, value, 1, 4096));
    } else if (arg == "--queue-cap") {
      flags->queue_cap = parse_count(arg, value, 1, kMaxCount);
    } else if (arg == "--max-conn") {
      flags->max_conn = parse_count(arg, value, 1, kMaxCount);
    } else if (arg == "--staleness") {
      flags->staleness = parse_count(arg, value, 0, UINT64_MAX);
    } else if (arg == "--seed") {
      flags->seed = parse_count(arg, value, 0, UINT64_MAX);
    } else if (arg == "--warmup") {
      flags->warmup = static_cast<int>(parse_count(arg, value, 0, kMaxCount));
    } else if (arg == "--final-metrics") {
      flags->final_metrics = value;
    } else {
      std::cerr << "er_served: unknown flag " << arg << "\n";
      usage();
      return false;
    }
  }
  // make_grid places --ports distinct nodes: more than nx * ny never ends.
  if (flags->ports > flags->nx * flags->ny) {
    std::cerr << "er_served: --ports expects at most nx * ny = "
              << flags->nx * flags->ny << " ports, got " << flags->ports << "\n";
    return false;
  }
  return true;
}

struct GridCase {
  er::ConductanceNetwork net;
  std::vector<char> ports;
};

// The serving test suite's grid construction (tests/serve_test_util.hpp):
// uniform nx-by-ny grid, random ports, pad shunts on the first four so the
// stitched system is SPD.
GridCase make_grid(const Flags& flags) {
  GridCase c;
  c.net.graph =
      er::grid_2d(flags.nx, flags.ny, er::WeightKind::kUniform, flags.seed);
  const er::index_t n = flags.nx * flags.ny;
  c.net.shunts.assign(static_cast<std::size_t>(n), 0.0);
  c.ports.assign(static_cast<std::size_t>(n), 0);
  er::Rng rng(flags.seed + 1);
  er::index_t placed = 0;
  while (placed < flags.ports) {
    const er::index_t v = rng.uniform_int(n);
    if (c.ports[static_cast<std::size_t>(v)]) continue;
    c.ports[static_cast<std::size_t>(v)] = 1;
    if (placed < 4) c.net.shunts[static_cast<std::size_t>(v)] = 50.0;
    ++placed;
  }
  return c;
}

// Self-issued traffic through a real loopback connection: primes the
// lazily-registered er_query_* families so a /metrics scrape right after
// startup sees the full export surface, and smoke-checks the wire path.
void run_warmup(const er::net::Server& server, er::net::ServingStack& stack,
                int batches, std::uint64_t seed) {
  std::vector<er::index_t> kept;
  const er::ReducedModel& model = stack.reducer().model();
  for (std::size_t v = 0; v < model.node_map.size(); ++v)
    if (model.node_map[v] >= 0) kept.push_back(static_cast<er::index_t>(v));
  if (kept.size() < 2) return;

  er::net::LoopbackClient client("127.0.0.1", server.port());
  er::Rng rng(seed + 99);
  const auto n = static_cast<er::index_t>(kept.size());
  for (int b = 0; b < batches; ++b) {
    std::vector<er::PortQuery> batch;
    for (int i = 0; i < 8; ++i) {
      er::PortQuery query;
      query.kind = i % 2 == 0 ? er::QueryKind::kResistance
                              : er::QueryKind::kResponse;
      query.p = kept[static_cast<std::size_t>(rng.uniform_int(n))];
      query.q = kept[static_cast<std::size_t>(rng.uniform_int(n))];
      batch.push_back(query);
    }
    (void)client.query(batch,
                       b % 3 == 0 ? er::net::Opcode::kPortResponse
                                  : er::net::Opcode::kErBatch);
  }
  er::net::WireModification mod;
  mod.dirty_blocks = {0};
  mod.resistance_scale = 1.05;
  (void)client.submit_mod(mod);
  (void)client.stats();
  stack.flush();
}

void dump_metrics(const std::string& path) {
  const er::obs::MetricsSnapshot snap =
      er::obs::registry_or_global(nullptr).snapshot();
  std::ofstream out(path);
  out << er::obs::to_prometheus(snap);
  std::cout << "er_served: final metrics written to " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!parse_flags(argc, argv, &flags)) return 2;

  const GridCase grid = make_grid(flags);

  er::net::StackOptions stack_opts;
  stack_opts.reduction.num_blocks = flags.blocks;
  stack_opts.reduction.sparsify_quality = 1.0;
  stack_opts.reduction.parallel.num_threads = flags.threads;
  stack_opts.attach_cache = !flags.no_cache;
  stack_opts.staleness_bound = flags.staleness;
  stack_opts.fail_fast = true;
  // All metrics land in the global registry (one unified /metrics surface).
  er::net::ServingStack stack(grid.net, grid.ports, stack_opts, nullptr);

  er::net::ServerOptions server_opts;
  server_opts.port = flags.port;
  server_opts.http_port = flags.metrics_port;
  server_opts.dispatcher_threads = flags.dispatchers;
  server_opts.query_threads = flags.threads;
  server_opts.admission_capacity = flags.queue_cap;
  server_opts.max_connections = flags.max_conn;
  er::net::Server server(&stack.store(), server_opts, stack.mod_fn());
  if (!server.start()) {
    std::cerr << "er_served: could not bind 127.0.0.1:" << flags.port
              << " / :" << flags.metrics_port << "\n";
    return 1;
  }

  if (flags.warmup > 0) run_warmup(server, stack, flags.warmup, flags.seed);

  // The startup line is a contract: tools/loopback_smoke.py and operators
  // parse the bound ports from it (ephemeral ports are the default).
  std::cout << "er_served listening on 127.0.0.1:" << server.port()
            << " (metrics :" << server.http_port() << ")" << std::endl;

  std::signal(SIGTERM, handle_stop);
  std::signal(SIGINT, handle_stop);
  while (!g_stop) {
    struct timespec ts;
    ts.tv_sec = 0;
    ts.tv_nsec = 50 * 1000 * 1000;
    nanosleep(&ts, nullptr);
  }

  std::cout << "er_served: draining...\n";
  server.stop();    // no new work; every admitted request answered
  stack.flush();    // every accepted modification published
  if (!flags.final_metrics.empty()) dump_metrics(flags.final_metrics);
  std::cout << "er_served: drained, bye\n";
  return 0;
}
