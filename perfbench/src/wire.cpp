// The wire workloads: the daemon core (net::ServingStack + net::Server,
// configured as er_served configures them) serves the ibmpg6-like grid
// over loopback TCP, driven by an open-loop generator of one sender and
// one receiver thread over four connections. See perfbench/README.md.
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "chol/cholesky.hpp"
#include "effres/approx_chol.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/stack.hpp"
#include "parallel/thread_pool.hpp"
#include "solver/pcg.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using er::net::Opcode;

constexpr int kConnections = 4;
constexpr int kQueriesPerRequest = 4;  // 2 ER + 2 port-response
constexpr int kSetups = 3;
/// Latency limit of the goodput search, on the printed upper percentile.
constexpr double kLatencyLimitMs = 50.0;
/// wire_uniform: offered query rate of the latency measurement, and the
/// fixed ladder the goodput search walks (rungs 5 % apart, 200 to 8800 q/s).
constexpr double kUniformReferenceQps = 200.0;
constexpr double kLadderLowQps = 200.0;
constexpr double kLadderRatio = 1.05;
constexpr int kLadderRungs = 78;
/// Share of the wire_uniform run at the reference rate (the rest is the
/// goodput search), and the probes the search plans for: a few to bracket
/// the boundary from the guess, one repeat per failed probe.
constexpr double kReferenceShare = 0.6;
constexpr int kPlannedProbes = 7;
/// wire_zipf_churn: offered query rate (below the uncached capacity), the
/// Zipf exponent and pair pool, and the wire edit cadence.
constexpr double kZipfQps = 400.0;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kZipfPool = 4096;
constexpr double kEditPeriodS = 2.0;
constexpr double kEditDirtyFraction = 0.10;
/// Correctness gate: pairs per chunk checked against an independent PCG
/// solve of the stitched model, and the relative tolerance.
constexpr int kOracleSamples = 6;
constexpr double kOracleTolerance = 1e-8;
/// Port pairs of the served-model accuracy check against the full grid.
constexpr int kAccuracyPairs = 400;

/// er_served's configuration (tools/er_served.cpp defaults) with the
/// partition width of the Table II serving benches (32 blocks). Nothing
/// else is set: route, policy and snapshot options stay at their defaults.
er::net::StackOptions stack_options() {
  er::net::StackOptions o;
  o.reduction.num_blocks = 32;
  o.reduction.sparsify_quality = 1.0;
  o.reduction.parallel.num_threads = 2;
  o.attach_cache = true;
  o.staleness_bound = 6;
  o.fail_fast = true;
  return o;
}

er::net::ServerOptions server_options() {
  er::net::ServerOptions o;
  o.dispatcher_threads = 2;
  o.query_threads = 2;
  o.admission_capacity = 64;
  o.max_connections = 64;
  return o;
}

/// One served deployment: the grid, its serving stack and the server.
struct Served {
  er::PowerGrid grid;
  er::ConductanceNetwork net;
  std::vector<char> ports;
  std::unique_ptr<er::net::ServingStack> stack;
  std::unique_ptr<er::net::Server> server;

  Served() = default;
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served() {
    if (server) server->stop();
    server.reset();
    stack.reset();
  }
};

struct SetupRecord {
  double setup_s = 0.0;
  double reduce_s = 0.0;
  double publish_s = 0.0;
  double snapshot_build_s = 0.0;
  double publish_bytes = 0.0;
};

/// Build the grid, the serving stack and the server, and start serving.
std::unique_ptr<Served> set_up(const er::PowerGrid* given, SetupRecord* rec) {
  const std::int64_t t0 = now_ns();
  auto s = std::make_unique<Served>();
  {
    Span span("pg.generate_power_grid");
    s->grid = given ? *given : make_grid();
    s->net = s->grid.to_network();
    s->ports = s->grid.port_mask();
  }
  {
    Span span("net.ServingStack");
    s->stack = std::make_unique<er::net::ServingStack>(s->net, s->ports,
                                                       stack_options());
  }
  {
    Span span("net.Server.start");
    s->server = std::make_unique<er::net::Server>(
        &s->stack->store(), server_options(), s->stack->mod_fn());
    if (!s->server->start()) throw std::runtime_error("server failed to bind");
  }
  rec->setup_s = static_cast<double>(now_ns() - t0) * 1e-9;
  const er::IncrementalReducer& red = s->stack->reducer();
  rec->reduce_s = red.initial_seconds();
  rec->publish_s = red.publish_seconds();
  rec->publish_bytes = static_cast<double>(red.publish_bytes_materialized());
  rec->snapshot_build_s = s->stack->store().acquire()->build_seconds();
  return s;
}

// ------------------------------------------------------------- generator

enum class Status : std::uint8_t { kPending, kAnswer, kRetry, kError, kAck };

struct Request {
  double at = 0.0;  ///< intended send instant, seconds from phase start
  int conn = 0;
  bool edit = false;
  std::vector<er::PortQuery> queries;
  er::net::WireModification mod;
};

struct Outcome {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = 0;
  Status status = Status::kPending;
  std::uint64_t version = 0;
  std::vector<er::real_t> answers;
};

struct Phase {
  std::vector<Request> reqs;
  std::vector<Outcome> out;
  std::int64_t start_ns = 0;
  double wall_s = 0.0;  ///< first due instant to last response
};

struct Conn {
  er::net::Fd fd;
  er::net::FrameBuffer frames;
};

std::uint64_t g_next_request_id = 1;

/// Send every request of `ph` on its schedule and collect the responses.
/// Latency is charged from the due instant, so a late sender or a stalled
/// server is charged to every request queued behind it.
void run_phase(std::vector<Conn>& conns, Phase& ph) {
  const std::size_t n = ph.reqs.size();
  ph.out.assign(n, Outcome{});
  const std::uint64_t id_base = g_next_request_id;
  g_next_request_id += n;
  ph.start_ns = now_ns() + 20'000'000;  // 20 ms lead to start both threads
  for (std::size_t i = 0; i < n; ++i)
    ph.out[i].due_ns =
        ph.start_ns + static_cast<std::int64_t>(ph.reqs[i].at * 1e9);
  const std::int64_t deadline =
      (n ? ph.out[n - 1].due_ns : ph.start_ns) + 15'000'000'000LL;
  std::atomic<bool> send_failed{false};

  std::thread sender([&] {
    for (std::size_t i = 0; i < n; ++i) {
      const Request& r = ph.reqs[i];
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(ph.out[i].due_ns)));
      const std::uint64_t id = id_base + i;
      const std::int64_t t = now_ns();
      std::vector<std::uint8_t> payload;
      Opcode op = Opcode::kErBatch;
      {
        Span span("net.encode", id);
        if (r.edit) {
          op = Opcode::kSubmitMods;
          payload = er::net::encode_modification(r.mod);
        } else {
          er::net::QueryBatchRequest req;
          req.queries = r.queries;
          payload = er::net::encode_query_batch(req);
        }
      }
      const std::vector<std::uint8_t> wire =
          er::net::encode_frame(op, id, payload);
      ph.out[i].sent_ns = t;
      if (!er::net::send_all(conns[static_cast<std::size_t>(r.conn)].fd.get(),
                             wire.data(), wire.size())) {
        send_failed = true;
        return;
      }
    }
  });

  std::thread receiver([&] {
    std::vector<pollfd> fds(conns.size());
    std::size_t resolved = 0;
    std::vector<std::uint8_t> buf(64 * 1024);
    while (resolved < n && now_ns() < deadline && !send_failed) {
      for (std::size_t c = 0; c < conns.size(); ++c)
        fds[c] = pollfd{conns[c].fd.get(), POLLIN, 0};
      if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
      for (std::size_t c = 0; c < conns.size(); ++c) {
        if (!(fds[c].revents & (POLLIN | POLLERR | POLLHUP))) continue;
        const long got = er::net::recv_some(fds[c].fd, buf.data(), buf.size(), 0);
        if (got <= 0) continue;
        const std::int64_t t = now_ns();
        conns[c].frames.append(buf.data(), static_cast<std::size_t>(got));
        er::net::Frame frame;
        while (conns[c].frames.next(&frame) == er::net::DecodeStatus::kOk) {
          if (frame.request_id < id_base || frame.request_id >= id_base + n)
            continue;  // a late answer from an earlier phase
          Outcome& o = ph.out[frame.request_id - id_base];
          if (o.status != Status::kPending) continue;
          o.done_ns = t;
          switch (static_cast<Opcode>(frame.opcode)) {
            case Opcode::kAnswer: {
              Span span("net.decode", frame.request_id);
              er::net::AnswerReply reply;
              if (er::net::decode_answer(frame.payload, &reply)) {
                o.status = Status::kAnswer;
                o.version = reply.snapshot_version;
                o.answers = std::move(reply.answers);
              } else {
                o.status = Status::kError;
              }
              break;
            }
            case Opcode::kModAck: o.status = Status::kAck; break;
            case Opcode::kRetryLater: o.status = Status::kRetry; break;
            default: o.status = Status::kError; break;
          }
          ++resolved;
        }
      }
    }
  });
  sender.join();
  receiver.join();
  std::int64_t last = ph.start_ns;
  for (const Outcome& o : ph.out) last = std::max(last, o.done_ns);
  ph.wall_s = static_cast<double>(last - ph.start_ns) * 1e-9;
  if (Tracer::instance().enabled()) {
    for (std::size_t i = 0; i < n; ++i)
      if (ph.out[i].done_ns > 0)
        Tracer::instance().record("net.round_trip", ph.out[i].sent_ns,
                                  ph.out[i].done_ns, 0, id_base + i);
  }
}

std::vector<Conn> connect_all(int port) {
  std::vector<Conn> conns(kConnections);
  for (Conn& c : conns) {
    c.fd = er::net::connect_tcp("127.0.0.1", port);
    if (!c.fd.valid()) throw std::runtime_error("connect to the server failed");
  }
  return conns;
}

/// Request latencies (due -> answered) in ms of the query requests.
std::vector<double> latencies_ms(const Phase& ph) {
  std::vector<double> v;
  for (std::size_t i = 0; i < ph.reqs.size(); ++i)
    if (!ph.reqs[i].edit && ph.out[i].status == Status::kAnswer)
      v.push_back(static_cast<double>(ph.out[i].done_ns - ph.out[i].due_ns) *
                  1e-6);
  std::sort(v.begin(), v.end());
  return v;
}

/// Query requests at `qps` queries/s for `seconds`, Poisson arrivals,
/// round-robin over the connections; pairs from `pick`.
template <typename PickPair>
std::vector<Request> query_schedule(double qps, double seconds,
                                    std::uint64_t seed, PickPair pick) {
  std::vector<Request> reqs;
  const std::vector<double> at =
      poisson_arrivals(qps / kQueriesPerRequest, seconds, seed);
  for (std::size_t i = 0; i < at.size(); ++i) {
    Request r;
    r.at = at[i];
    r.conn = static_cast<int>(i % kConnections);
    for (int k = 0; k < kQueriesPerRequest; ++k) {
      er::PortQuery q;
      q.kind = k < 2 ? er::QueryKind::kResistance : er::QueryKind::kResponse;
      const auto [p, qq] = pick();
      q.p = p;
      q.q = qq;
      r.queries.push_back(q);
    }
    reqs.push_back(std::move(r));
  }
  return reqs;
}

/// Snapshots by version, captured by polling the store: every version a
/// reply can name stays pinned for the correctness check, with the
/// instant it was first seen.
class VersionMonitor {
 public:
  struct Seen {
    er::SnapshotPtr snapshot;
    std::int64_t seen_ns = 0;
  };

  explicit VersionMonitor(const er::ModelStore* store) : store_(store) {
    poll_once();
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        poll_once();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  VersionMonitor(const VersionMonitor&) = delete;
  VersionMonitor& operator=(const VersionMonitor&) = delete;
  ~VersionMonitor() { stop(); }

  void stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }
  /// Valid after stop().
  [[nodiscard]] const std::map<std::uint64_t, Seen>& versions() const {
    return versions_;
  }

 private:
  void poll_once() {
    er::SnapshotPtr s;
    {
      Span span("serve.acquire");
      s = store_->acquire();
    }
    if (s && versions_.find(s->version()) == versions_.end())
      versions_[s->version()] = Seen{s, now_ns()};
  }

  const er::ModelStore* store_;
  std::map<std::uint64_t, Seen> versions_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---------------------------------------------------- correctness gates

/// Every answered query request must match a direct QueryFrontEnd::answer_on
/// call on the snapshot its reply names, bit for bit. Distinct (version,
/// query) pairs are recomputed once, in 4-query batches across 4 threads,
/// without the result cache and into a private registry.
void check_bitwise(const std::vector<const Phase*>& phases,
                   const VersionMonitor& monitor, Result& result) {
  using Key = std::tuple<std::uint64_t, int, er::index_t, er::index_t>;
  std::map<Key, std::size_t> index;
  std::vector<Key> keys;
  for (const Phase* ph : phases) {
    for (std::size_t i = 0; i < ph->reqs.size(); ++i) {
      if (ph->reqs[i].edit || ph->out[i].status != Status::kAnswer) continue;
      for (const er::PortQuery& q : ph->reqs[i].queries) {
        const Key k{ph->out[i].version, static_cast<int>(q.kind), q.p, q.q};
        if (index.emplace(k, keys.size()).second) keys.push_back(k);
      }
    }
  }
  // Chunks of up to 4 keys sharing one version (keys are version-sorted
  // within the map, so walk it in order).
  std::vector<std::vector<std::size_t>> chunks;
  std::uint64_t chunk_version = 0;
  for (const auto& [k, idx] : index) {
    if (chunks.empty() || chunks.back().size() == kQueriesPerRequest ||
        std::get<0>(k) != chunk_version) {
      chunks.emplace_back();
      chunk_version = std::get<0>(k);
    }
    chunks.back().push_back(idx);
  }
  std::vector<er::real_t> expected(keys.size(),
                                   std::numeric_limits<er::real_t>::quiet_NaN());
  std::vector<char> known(keys.size(), 0);
  er::obs::MetricsRegistry private_registry;
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < 4; ++w) {
    workers.emplace_back([&] {
      for (std::size_t c = next++; c < chunks.size(); c = next++) {
        const std::uint64_t v = std::get<0>(keys[chunks[c][0]]);
        const auto it = monitor.versions().find(v);
        if (it == monitor.versions().end()) continue;
        std::vector<er::PortQuery> batch;
        for (std::size_t idx : chunks[c]) {
          er::PortQuery q;
          q.kind = static_cast<er::QueryKind>(std::get<1>(keys[idx]));
          q.p = std::get<2>(keys[idx]);
          q.q = std::get<3>(keys[idx]);
          batch.push_back(q);
        }
        er::AnswerContext ctx;
        ctx.registry = &private_registry;
        std::vector<er::real_t> got;
        {
          Span span("serve.answer_on");
          got = er::QueryFrontEnd::answer_on(*it->second.snapshot, batch, ctx);
        }
        for (std::size_t j = 0; j < chunks[c].size(); ++j) {
          expected[chunks[c][j]] = got[j];
          known[chunks[c][j]] = 1;
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  std::uint64_t wrong = 0;
  for (const Phase* ph : phases) {
    for (std::size_t i = 0; i < ph->reqs.size(); ++i) {
      if (ph->reqs[i].edit || ph->out[i].status != Status::kAnswer) continue;
      const auto& qs = ph->reqs[i].queries;
      bool ok = ph->out[i].answers.size() == qs.size();
      for (std::size_t j = 0; ok && j < qs.size(); ++j) {
        const std::size_t idx = index.at(
            Key{ph->out[i].version, static_cast<int>(qs[j].kind), qs[j].p, qs[j].q});
        ok = known[idx] && std::memcmp(&expected[idx], &ph->out[i].answers[j],
                                       sizeof(er::real_t)) == 0;
      }
      if (!ok) ++wrong;
    }
  }
  if (wrong)
    result.fail("wire answers differ from answer_on on the named version",
                wrong);
  Result::note("bitwise check: %zu distinct (version, query) pairs over %zu "
               "versions recomputed; %llu requests wrong",
               keys.size(), monitor.versions().size(),
               static_cast<unsigned long long>(wrong));
}

/// A seeded sample of answered queries against an independent PCG solve
/// (Jacobi preconditioner, no factor code) of the stitched model.
void check_oracle(const std::vector<const Phase*>& phases,
                  const VersionMonitor& monitor, std::uint64_t seed,
                  Result& result) {
  std::vector<std::pair<const Phase*, std::size_t>> answered;
  for (const Phase* ph : phases)
    for (std::size_t i = 0; i < ph->reqs.size(); ++i)
      if (!ph->reqs[i].edit && ph->out[i].status == Status::kAnswer)
        answered.emplace_back(ph, i);
  if (answered.empty()) {
    result.gate_failed("no answered request to check against the oracle");
    return;
  }
  er::Rng rng(seed);
  std::map<std::uint64_t, er::CscMatrix> matrices;
  int checked = 0;
  double worst = 0.0;
  for (int s = 0; s < kOracleSamples; ++s) {
    const auto [ph, i] = answered[static_cast<std::size_t>(
        rng.uniform_int(static_cast<er::index_t>(answered.size())))];
    const int j = static_cast<int>(rng.uniform_int(kQueriesPerRequest));
    const er::PortQuery& q = ph->reqs[i].queries[static_cast<std::size_t>(j)];
    const auto it = monitor.versions().find(ph->out[i].version);
    if (it == monitor.versions().end()) {
      result.fail("reply names a version that was never published");
      continue;
    }
    const er::ModelSnapshot& snap = *it->second.snapshot;
    const er::index_t p = snap.reduced_id(q.p);
    const er::index_t qq = snap.reduced_id(q.q);
    if (p < 0 || qq < 0) continue;  // eliminated endpoint: answered NaN
    auto mit = matrices.find(ph->out[i].version);
    if (mit == matrices.end())
      mit = matrices.emplace(ph->out[i].version,
                             snap.model().network.system_matrix()).first;
    const er::CscMatrix& a = mit->second;
    std::vector<er::real_t> b(static_cast<std::size_t>(a.rows()), 0.0);
    b[static_cast<std::size_t>(p)] += 1.0;
    if (q.kind == er::QueryKind::kResistance) b[static_cast<std::size_t>(qq)] -= 1.0;
    er::PcgOptions po;
    po.rel_tolerance = 1e-14;
    po.max_iterations = 50000;
    er::PcgResult sol;
    {
      Span span("solver.pcg_solve");
      sol = er::pcg_solve(a, b, er::jacobi_preconditioner(a), po);
    }
    const double want =
        q.kind == er::QueryKind::kResistance
            ? sol.x[static_cast<std::size_t>(p)] - sol.x[static_cast<std::size_t>(qq)]
            : sol.x[static_cast<std::size_t>(qq)];
    const double got = ph->out[i].answers[static_cast<std::size_t>(j)];
    const double rel = std::abs(got - want) / std::max(std::abs(want), 1e-300);
    worst = std::max(worst, rel);
    ++checked;
    if (!(rel <= kOracleTolerance))
      result.fail("wire answer off the PCG oracle by " + std::to_string(rel));
  }
  Result::note("oracle check: %d sampled answers vs PCG, worst relative "
               "error %.3e (limit %.0e)", checked, worst, kOracleTolerance);
}

/// Mean relative error of the served (reduced) model's resistance between
/// seeded port pairs against the full grid, factored directly.
double served_er_error(const Served& s, const er::ModelSnapshot& snap,
                       std::uint64_t seed) {
  const std::vector<er::index_t> port_nodes = s.grid.port_nodes();
  er::Rng rng(er::mix_seed(seed, 43));
  std::vector<std::pair<er::index_t, er::index_t>> pairs;
  while (static_cast<int>(pairs.size()) < kAccuracyPairs) {
    const auto n = static_cast<er::index_t>(port_nodes.size());
    const er::index_t a = port_nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    const er::index_t b = port_nodes[static_cast<std::size_t>(rng.uniform_int(n))];
    if (a != b && snap.reduced_id(a) >= 0 && snap.reduced_id(b) >= 0)
      pairs.emplace_back(a, b);
  }
  const er::CholFactor full = er::cholesky(s.net.system_matrix());
  std::vector<double> err(pairs.size(), 0.0);
  er::ThreadPool pool(4);
  er::parallel_for(&pool, 0, static_cast<er::index_t>(pairs.size()), 1,
                   [&](er::index_t lo, er::index_t hi) {
                     er::ModelSnapshot::Workspace ws;
                     for (er::index_t k = lo; k < hi; ++k) {
                       const auto [a, b] = pairs[static_cast<std::size_t>(k)];
                       std::vector<er::real_t> rhs(
                           static_cast<std::size_t>(full.n), 0.0);
                       rhs[static_cast<std::size_t>(a)] = 1.0;
                       rhs[static_cast<std::size_t>(b)] = -1.0;
                       const std::vector<er::real_t> x = full.solve(rhs);
                       const double exact = x[static_cast<std::size_t>(a)] -
                                            x[static_cast<std::size_t>(b)];
                       const double served = snap.resistance(
                           snap.reduced_id(a), snap.reduced_id(b), ws);
                       err[static_cast<std::size_t>(k)] =
                           std::abs(served - exact) / exact;
                     }
                   });
  double sum = 0.0;
  for (double e : err) sum += e;
  return sum / static_cast<double>(err.size());
}

// --------------------------------------------------------------- the run

struct WireConfig {
  bool zipf = false;
  bool ladder = false;  ///< run the goodput search (wire_uniform)
  int setups = kSetups;
  double seconds = 10.0;
  bool end_to_end = true;  ///< report end-to-end metrics
};

/// What the load chunks of one run add up to. On wire_uniform each set-up
/// serves one chunk of the reference-rate load, so the latency pools over
/// several deployments (one deployment's memory layout alone moves its
/// solve time by ~10 %).
struct Tally {
  std::vector<double> latency_ms;  ///< reference / churn requests
  std::vector<double> rtt_us;      ///< client send -> answer, answered queries
  std::vector<double> lag_us;      ///< sender lateness, every request
  std::vector<double> visible_ms;  ///< edit send -> first reflecting version
  double staleness_sum = 0.0;
  std::uint64_t staleness_n = 0;
  std::uint64_t query_requests = 0;  ///< all phases
  std::uint64_t retry_later = 0;     ///< all phases
  std::uint64_t answered_queries = 0;  ///< reference / churn phases
  double load_wall_s = 0.0;            ///< reference / churn phases
  double capacity_qps = 0.0;           ///< goodput search result
  /// (before, after) registry snapshots around each chunk's load.
  std::vector<std::pair<er::obs::MetricsSnapshot, er::obs::MetricsSnapshot>> windows;

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    std::uint64_t sum = 0;
    for (const auto& [a, b] : windows) sum += counter_delta(a, b, name);
    return sum;
  }
  [[nodiscard]] er::obs::HistogramSnapshot histogram(
      const std::string& name, const er::obs::Labels& labels = {}) const {
    er::obs::HistogramSnapshot sum;
    for (const auto& [a, b] : windows) {
      const er::obs::HistogramSnapshot d = histogram_delta(a, b, name, labels);
      if (sum.buckets.empty()) {
        sum = d;
        continue;
      }
      for (std::size_t i = 0; i < sum.buckets.size() && i < d.buckets.size(); ++i)
        sum.buckets[i] += d.buckets[i];
      sum.count += d.count;
      sum.sum += d.sum;
      sum.max = std::max(sum.max, d.max);
    }
    return sum;
  }
};

/// The goodput search on `conns`: the highest ladder rung that passes.
/// `guess_qps` starts the search (the capacity the reference phase implies).
double goodput_search(std::vector<Conn>& conns, const WireConfig& cfg,
                      const RunOptions& opts, double guess_qps,
                      const std::function<std::pair<int, int>()>& pair,
                      std::vector<std::unique_ptr<Phase>>& phases,
                      std::vector<const Phase*>& sustained) {
  const std::vector<double> ladder =
      geometric_ladder(kLadderLowQps, kLadderRatio, kLadderRungs);
  const double probe_s =
      std::max(0.5, (1 - kReferenceShare) * cfg.seconds / kPlannedProbes - 0.25);
  int probe_no = 0;
  auto probe_passes = [&](int rung) {
    const double qps = ladder[static_cast<std::size_t>(rung)];
    auto probe = std::make_unique<Phase>();
    probe->reqs = query_schedule(
        qps, probe_s,
        er::mix_seed(opts.seed, 100 + static_cast<std::uint64_t>(probe_no++)),
        pair);
    run_phase(conns, *probe);
    std::size_t refused = 0;
    for (const Outcome& o : probe->out)
      if (o.status != Status::kAnswer) ++refused;
    const Percentile p99 = percentile_rule(latencies_ms(*probe), 0.99);
    // A growing backlog shows as latency rising across the probe.
    double first = 0.0, last = 0.0;
    std::size_t nf = 0, nl = 0;
    const std::size_t n = probe->reqs.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (probe->out[i].status != Status::kAnswer) continue;
      const double ms =
          static_cast<double>(probe->out[i].done_ns - probe->out[i].due_ns) * 1e-6;
      if (i < n / 4) {
        first += ms;
        ++nf;
      }
      if (i >= n - n / 4) {
        last += ms;
        ++nl;
      }
    }
    const bool growing = nf && nl &&
                         last / static_cast<double>(nl) >
                             2.0 * first / static_cast<double>(nf) + 5.0;
    const bool pass = refused == 0 && p99.valid && p99.value <= kLatencyLimitMs &&
                      !growing;
    Result::note("goodput probe %.0f q/s: %zu requests, %zu refused, p%.1f "
                 "%.2f ms, backlog %s -> %s", qps, n, refused,
                 p99.quantile * 100, p99.value, growing ? "growing" : "flat",
                 pass ? "pass" : "fail");
    if (pass) sustained.push_back(probe.get());
    phases.push_back(std::move(probe));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return pass;
  };
  // A rung fails only when two probes in a row miss the limit, so one noisy
  // probe does not send the search down the ladder.
  const int best = highest_passing_rung(
      kLadderRungs, nearest_rung(ladder, guess_qps),
      [&](int rung) { return probe_passes(rung) || probe_passes(rung); });
  return best >= 0 ? ladder[static_cast<std::size_t>(best)] : 0.0;
}

/// Serve one chunk of the measured load from `served`: the reference-rate
/// or churn phase (and, with `search`, the goodput search), then check
/// every answer and add the chunk's figures to `tally`.
void run_chunk(Served& served, const RunOptions& opts, const WireConfig& cfg,
               int chunk, double chunk_s, bool search, Tally& tally,
               Result& result) {
  er::net::ServingStack& stack = *served.stack;
  const er::SnapshotPtr snap0 = stack.store().acquire();
  std::vector<int> kept;
  for (std::size_t v = 0; v < snap0->model().node_map.size(); ++v)
    if (snap0->model().node_map[v] >= 0) kept.push_back(static_cast<int>(v));
  const auto stream = [&](std::uint64_t s) {
    return er::mix_seed(opts.seed, 1000 * static_cast<std::uint64_t>(chunk) + s);
  };

  std::vector<Conn> conns = connect_all(served.server->port());
  VersionMonitor monitor(&stack.store());
  const er::obs::MetricsSnapshot before = er::obs::MetricsRegistry::global().snapshot();

  std::vector<std::unique_ptr<Phase>> phases;
  std::vector<const Phase*> sustained;  // every request counts as attempted
  er::Rng pair_rng(stream(11));
  const std::function<std::pair<int, int>()> uniform_pair = [&] {
    const auto n = static_cast<er::index_t>(kept.size());
    for (;;) {
      const int p = kept[static_cast<std::size_t>(pair_rng.uniform_int(n))];
      const int q = kept[static_cast<std::size_t>(pair_rng.uniform_int(n))];
      if (p != q) return std::pair<int, int>(p, q);
    }
  };
  auto ph = std::make_unique<Phase>();
  if (!cfg.zipf) {
    ph->reqs = query_schedule(kUniformReferenceQps, chunk_s, stream(12), uniform_pair);
  } else {
    const ZipfPairStream zs = zipf_pair_stream(
        kept, kZipfPool, kZipfExponent,
        static_cast<std::size_t>(kZipfQps * chunk_s * 2) + 64, stream(13));
    std::size_t draw = 0;
    ph->reqs = query_schedule(kZipfQps, chunk_s, stream(14), [&] {
      return zs.pool[zs.stream[draw++ % zs.stream.size()]];
    });
    er::Rng edit_rng(stream(15));
    const er::index_t blocks = stack.structure().num_blocks;
    const auto dirty = std::max<er::index_t>(
        1, static_cast<er::index_t>(std::lround(kEditDirtyFraction * blocks)));
    for (double t = kEditPeriodS / 2; t < chunk_s; t += kEditPeriodS) {
      Request r;
      r.at = t;
      r.edit = true;
      while (static_cast<er::index_t>(r.mod.dirty_blocks.size()) < dirty) {
        const er::index_t b = edit_rng.uniform_int(blocks);
        if (std::find(r.mod.dirty_blocks.begin(), r.mod.dirty_blocks.end(), b) ==
            r.mod.dirty_blocks.end())
          r.mod.dirty_blocks.push_back(b);
      }
      r.mod.resistance_scale = edit_rng.uniform(0.8, 1.25);
      ph->reqs.push_back(std::move(r));
    }
    std::stable_sort(ph->reqs.begin(), ph->reqs.end(),
                     [](const Request& a, const Request& b) { return a.at < b.at; });
  }
  run_phase(conns, *ph);
  const Phase& main_phase = *ph;
  sustained.push_back(ph.get());
  phases.push_back(std::move(ph));
  if (search) {
    // At the light reference load a request's latency is about its service
    // time, so the dispatchers together serve about this many queries/s.
    std::vector<double> lat = tally.latency_ms;
    const std::vector<double> mine = latencies_ms(main_phase);
    lat.insert(lat.end(), mine.begin(), mine.end());
    const double guess = server_options().dispatcher_threads * kQueriesPerRequest *
                         1e3 / std::max(median(lat), 1e-3);
    tally.capacity_qps =
        goodput_search(conns, cfg, opts, guess, uniform_pair, phases, sustained);
  }
  stack.flush();
  // Give the monitor a moment to see the last publish, then stop it.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  monitor.stop();
  tally.windows.emplace_back(before, er::obs::MetricsRegistry::global().snapshot());
  served.server->stop();
  conns.clear();

  // ---- outcome accounting. Every request of the reference/churn phase
  // and of the passing probes counts; a probe above capacity is refused by
  // design, so only its answered requests count (each answer is checked).
  std::vector<const Phase*> all;
  for (const auto& p : phases) {
    all.push_back(p.get());
    const bool counted =
        std::find(sustained.begin(), sustained.end(), p.get()) != sustained.end();
    for (std::size_t i = 0; i < p->reqs.size(); ++i) {
      const Status st = p->out[i].status;
      const bool edit = p->reqs[i].edit;
      const bool ok = edit ? st == Status::kAck : st == Status::kAnswer;
      if (!edit) {
        ++tally.query_requests;
        if (st == Status::kRetry) ++tally.retry_later;
        if (st == Status::kAnswer)
          tally.rtt_us.push_back(
              static_cast<double>(p->out[i].done_ns - p->out[i].sent_ns) * 1e-3);
      }
      tally.lag_us.push_back(
          static_cast<double>(std::max<std::int64_t>(0, p->out[i].sent_ns - p->out[i].due_ns)) * 1e-3);
      if (!counted && !ok) continue;
      result.attempt();
      if (!ok)
        result.fail(st == Status::kRetry     ? "refused (RETRY_LATER)"
                    : st == Status::kPending ? "no response"
                                             : "error response");
    }
  }
  const std::vector<double> lat = latencies_ms(main_phase);
  tally.latency_ms.insert(tally.latency_ms.end(), lat.begin(), lat.end());
  tally.answered_queries += kQueriesPerRequest * lat.size();
  tally.load_wall_s += main_phase.wall_s;
  check_bitwise(all, monitor, result);
  check_oracle(all, monitor, stream(41), result);
  if (!cfg.zipf) return;

  // ---- churn: edit visibility (send -> first version whose published
  // state reflects the edit) and answer staleness.
  std::vector<std::pair<std::uint64_t, std::int64_t>> reflected;  // (mods, seen)
  for (const auto& [v, seen] : monitor.versions())
    reflected.emplace_back(stack.updater().mods_reflected(v), seen.seen_ns);
  std::uint64_t accepted = 0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> acks;  // (time, count)
  for (std::size_t i = 0; i < main_phase.reqs.size(); ++i) {
    if (!main_phase.reqs[i].edit || main_phase.out[i].status != Status::kAck) continue;
    ++accepted;
    acks.emplace_back(main_phase.out[i].done_ns, accepted);
    const auto it = std::find_if(reflected.begin(), reflected.end(),
                                 [&](const auto& r) { return r.first >= accepted; });
    if (it == reflected.end()) {
      result.gate_failed("an accepted edit never became visible");
      continue;
    }
    tally.visible_ms.push_back(
        static_cast<double>(it->second - main_phase.out[i].sent_ns) * 1e-6);
  }
  // Staleness of an answer: edits acknowledged before it was answered that
  // its version did not yet reflect.
  for (std::size_t i = 0; i < main_phase.reqs.size(); ++i) {
    if (main_phase.reqs[i].edit || main_phase.out[i].status != Status::kAnswer) continue;
    std::uint64_t acked = 0;
    for (const auto& [t, count] : acks)
      if (t <= main_phase.out[i].done_ns) acked = count;
    const std::uint64_t refl = stack.updater().mods_reflected(main_phase.out[i].version);
    tally.staleness_sum += static_cast<double>(acked > refl ? acked - refl : 0);
    ++tally.staleness_n;
  }
}

void run_wire(const er::PowerGrid* given_grid, const RunOptions& opts,
              const WireConfig& cfg, Result& result) {
  // ---- set-up, repeated; the deployments serve the measured load.
  const double load_s =
      cfg.zipf || !cfg.ladder ? cfg.seconds : kReferenceShare * cfg.seconds;
  std::vector<SetupRecord> setups;
  Tally tally;
  std::unique_ptr<Served> served;
  er::SnapshotPtr snap0;  // the last deployment's initial (unedited) version
  for (int i = 0; i < cfg.setups; ++i) {
    snap0.reset();
    served.reset();
    SetupRecord rec;
    served = set_up(given_grid, &rec);
    snap0 = served->stack->store().acquire();
    setups.push_back(rec);
    Result::note("set-up %d: %.3f s (reduction %.3f s, publish %.3f s)", i + 1,
                 rec.setup_s, rec.reduce_s, rec.publish_s);
    // The churn load runs on one deployment so its cache stays warm; the
    // uncached uniform load is split across all of them.
    const bool last = i + 1 == cfg.setups;
    if (!cfg.zipf)
      run_chunk(*served, opts, cfg, i, load_s / cfg.setups, cfg.ladder && last,
                tally, result);
    else if (last)
      run_chunk(*served, opts, cfg, i, load_s, false, tally, result);
  }
  auto median_of = [&](double SetupRecord::*field) {
    std::vector<double> v;
    for (const SetupRecord& r : setups) v.push_back(r.*field);
    return median(v);
  };

  // ---- the paper's PG flow on this grid, the served model's accuracy, and
  // the end-to-end metrics.
  std::vector<PgFlow> flows;
  if (cfg.end_to_end) {
    flows = run_pg_flow(served->grid, opts.seed, 9);
    const double er_err = served_er_error(*served, *snap0, opts.seed);
    Result::note("served model: mean relative ER error %.4f vs the full grid "
                 "over %d port pairs (ceiling %.3f)", er_err, kAccuracyPairs,
                 kServedErErrCeiling);
    if (!(er_err <= kServedErErrCeiling))
      result.gate_failed("served-model ER error above its ceiling");
    for (const PgFlow& f : flows)
      if (!(f.port_err_pct <= kPortErrPctCeiling))
        result.gate_failed("reduced-model port error above its ceiling");

    result.set("setup_s", median_of(&SetupRecord::setup_s), "s");
    std::sort(tally.latency_ms.begin(), tally.latency_ms.end());
    const Percentile p50 = percentile_rule(tally.latency_ms, 0.50);
    const Percentile p99 = percentile_rule(tally.latency_ms, 0.99);
    Result::note("%s latency: p%.1f = %.3f ms, p%.1f = %.3f ms over %zu samples",
                 cfg.zipf ? "churn" : "reference-rate", p50.quantile * 100,
                 p50.value, p99.quantile * 100, p99.value, tally.latency_ms.size());
    if (!p50.valid) result.gate_failed("too few latency samples");
    result.set("latency_p50_ms", p50.value, "ms");
    result.set("goodput_qps",
               static_cast<double>(tally.answered_queries) / tally.load_wall_s, "1/s");
    if (cfg.zipf) {
      Result::note("edit visibility: median %.1f ms over %zu edits",
                   median(tally.visible_ms), tally.visible_ms.size());
      result.set("edit_visible_p50_ms", median(tally.visible_ms), "ms");
    } else {
      result.set("edit_visible_p50_ms", 1e3 * median_of(&SetupRecord::publish_s), "ms");
    }
    result.set("er_err_mean", er_err, "ratio");
    std::vector<double> alg3, red, incr, port;
    for (const PgFlow& f : flows) {
      alg3.push_back(f.stats.er_cpu_seconds);
      red.push_back(f.reduce_s);
      incr.push_back(f.update_s + f.dc_solve_s);
      port.push_back(f.port_err_pct);
    }
    result.set("alg3_s", median(alg3), "s");
    result.set("reduce_s", median(red), "s");
    result.set("incr_flow_s", median(incr), "s");
    result.set("port_err_pct", median(port), "%");
  }

  if (!opts.trace) return;

  // ---- per-layer metrics (traced run).
  std::vector<double> codec_us, batch_us, acquire_us;
  std::map<std::uint64_t, double> codec_by_request;
  for (const SpanRecord& s : Tracer::instance().spans()) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
    const std::string name = s.name;
    if (name == "net.encode" || name == "net.decode") codec_by_request[s.request] += us;
    else if (name == "serve.answer_on") batch_us.push_back(us);
    else if (name == "serve.acquire") acquire_us.push_back(us);
  }
  for (const auto& [req, us] : codec_by_request) codec_us.push_back(us);
  std::sort(tally.rtt_us.begin(), tally.rtt_us.end());
  std::sort(tally.lag_us.begin(), tally.lag_us.end());

  const er::obs::HistogramSnapshot server_lat =
      tally.histogram("er_net_request_latency_seconds", {{"opcode", "er_batch"}});
  const er::obs::HistogramSnapshot batch_lat =
      tally.histogram("er_query_batch_seconds", {{"mode", "sharded"}});
  const double server_mean_us =
      server_lat.count ? 1e6 * server_lat.sum / static_cast<double>(server_lat.count) : 0.0;
  double rtt_mean_us = 0.0;
  for (double v : tally.rtt_us) rtt_mean_us += v;
  if (!tally.rtt_us.empty()) rtt_mean_us /= static_cast<double>(tally.rtt_us.size());
  result.set("net.rtt_p50_us", percentile_rule(tally.rtt_us, 0.50).value, "us");
  result.set("net.rtt_p99_us", percentile_rule(tally.rtt_us, 0.99).value, "us");
  result.set("net.server_p50_us", 1e6 * server_lat.quantile(0.5), "us");
  result.set("net.queue_wait_mean_us",
             server_lat.count ? 1e6 * (server_lat.sum - batch_lat.sum) /
                                    static_cast<double>(server_lat.count)
                              : 0.0,
             "us");
  result.set("net.overhead_mean_us", rtt_mean_us - server_mean_us, "us");
  result.set("net.codec_us", median(codec_us), "us");
  if (cfg.ladder)
    Result::note("capacity: %.0f q/s (rungs %.0f%% apart)", tally.capacity_qps,
                 (kLadderRatio - 1) * 100);
  else
    Result::note("net.capacity_qps: no goodput search on this workload");
  result.set("net.capacity_qps", tally.capacity_qps, "1/s");
  result.set("net.retry_later_frac",
             tally.query_requests ? static_cast<double>(tally.retry_later) /
                                        static_cast<double>(tally.query_requests)
                                  : 0.0,
             "ratio");

  result.set("serve.batch_p50_us", median(batch_us), "us");
  {
    // One uncached ModelSnapshot::resistance / ::response call each, on
    // seeded pairs of the served model.
    std::vector<int> kept;
    for (std::size_t v = 0; v < snap0->model().node_map.size(); ++v)
      if (snap0->model().node_map[v] >= 0) kept.push_back(static_cast<int>(v));
    std::vector<double> solve_us;
    er::ModelSnapshot::Workspace ws;
    er::Rng rng(er::mix_seed(opts.seed, 17));
    const auto n = static_cast<er::index_t>(kept.size());
    for (int k = 0; k < 100; ++k) {
      const er::index_t p = snap0->reduced_id(kept[static_cast<std::size_t>(rng.uniform_int(n))]);
      const er::index_t q = snap0->reduced_id(kept[static_cast<std::size_t>(rng.uniform_int(n))]);
      const std::int64_t t0 = now_ns();
      double v = 0.0;
      {
        Span span("serve.solve");
        v = k % 2 ? snap0->response(p, q, ws) : snap0->resistance(p, q, ws);
      }
      solve_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (!std::isfinite(v)) result.fail("non-finite direct snapshot answer");
    }
    result.set("serve.solve_us", median(solve_us), "us");
  }
  result.set("serve.acquire_us", median(acquire_us), "us");
  const std::uint64_t hits = tally.counter("er_cache_hits_total");
  const std::uint64_t misses = tally.counter("er_cache_misses_total");
  result.set("serve.cache_hit_frac",
             hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0,
             "ratio");
  result.set("serve.cache_invalidations",
             static_cast<double>(tally.counter("er_cache_invalidations_total")), "count");
  const er::obs::HistogramSnapshot publish = tally.histogram("er_reducer_publish_seconds");
  // With no edit during the load, the publish measured is the set-up one.
  result.set("serve.publish_s",
             publish.count ? publish.sum / static_cast<double>(publish.count)
                           : median_of(&SetupRecord::publish_s),
             "s");
  result.set("serve.publish_bytes",
             publish.count
                 ? static_cast<double>(served->stack->reducer().publish_bytes_materialized())
                 : median_of(&SetupRecord::publish_bytes),
             "bytes");
  result.set("serve.snapshot_build_s", median_of(&SetupRecord::snapshot_build_s), "s");
  result.set("serve.staleness_mods_mean",
             tally.staleness_n ? tally.staleness_sum / static_cast<double>(tally.staleness_n)
                               : 0.0,
             "count");
  const std::uint64_t submitted = tally.counter("er_updater_mods_submitted_total");
  result.set("pg.mods_coalesced_frac",
             submitted ? static_cast<double>(tally.counter("er_updater_mods_coalesced_total")) /
                             static_cast<double>(submitted)
                       : 0.0,
             "ratio");
  result.set("reduction.boundary_frac",
             static_cast<double>(snap0->num_boundary_nodes()) /
                 static_cast<double>(snap0->model().stats.reduced_nodes),
             "ratio");
  Result::note("thread pools during the load: %llu tasks, %.3f busy s",
               static_cast<unsigned long long>(tally.counter("er_pool_tasks_total")),
               static_cast<double>(tally.counter("er_pool_busy_us_total")) * 1e-6);
  result.set("bench.sched_lag_p99_us", percentile_rule(tally.lag_us, 0.99).value, "us");
  if (!cfg.end_to_end) return;  // the probe of paper_offline stops here

  // Layers the wire path does not call on its own: Alg. 3 (chol, approxinv,
  // effres) on the served reduced graph, and the PG flow's figures.
  {
    const er::Graph& g = snap0->model().network.graph;
    std::unique_ptr<er::ApproxCholEffRes> engine;
    {
      Span span("effres.ApproxCholEffRes");
      engine = std::make_unique<er::ApproxCholEffRes>(g);
    }
    const auto& st = engine->stats();
    result.set("approxinv.build_s", st.inverse_seconds, "s");
    result.set("approxinv.nnz_ratio", st.nnz_ratio(g.num_nodes()), "ratio");
    result.set("approxinv.max_depth", static_cast<double>(st.max_depth), "count");
    result.set("chol.factor_s", st.factor_seconds, "s");
    result.set("chol.factor_nnz", static_cast<double>(st.factor_nnz), "count");
    std::vector<double> q_us;
    for (const er::Edge& e : g.edges()) {
      const std::int64_t t0 = now_ns();
      const double r = engine->resistance(e.u, e.v);
      q_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      if (!(r >= 0.0)) result.fail("negative or NaN Alg. 3 resistance");
    }
    result.set("effres.edge_query_us", median(q_us), "us");
  }
  std::vector<double> upd, dc, schur, er_cpu, sparsify, stitch, part, nodes,
      busy, wait;
  for (const PgFlow& f : flows) {
    busy.push_back(f.pool_busy_frac);
    wait.push_back(f.pool_wait_p50_us);
    upd.push_back(f.update_s);
    dc.push_back(f.dc_solve_s);
    schur.push_back(f.stats.schur_cpu_seconds);
    er_cpu.push_back(f.stats.er_cpu_seconds);
    sparsify.push_back(f.stats.sparsify_cpu_seconds);
    stitch.push_back(f.stats.stitch_seconds);
    part.push_back(f.stats.partition_seconds);
    nodes.push_back(static_cast<double>(f.stats.reduced_nodes));
  }
  result.set("pg.update_s", median(upd), "s");
  result.set("pg.dc_solve_s", median(dc), "s");
  result.set("reduction.schur_cpu_s", median(schur), "s");
  result.set("reduction.er_cpu_s", median(er_cpu), "s");
  result.set("reduction.sparsify_cpu_s", median(sparsify), "s");
  result.set("reduction.stitch_s", median(stitch), "s");
  result.set("reduction.reduced_nodes", median(nodes), "count");
  result.set("partition.wall_s", median(part), "s");
  result.set("parallel.busy_frac", median(busy), "ratio");
  result.set("parallel.queue_wait_p50_us", median(wait), "us");
}

}  // namespace

void run_wire_uniform(const RunOptions& opts, Result& result) {
  WireConfig cfg;
  // The goodput search swings too much from run to run on a shared host to
  // gate a change (see README), so only the traced run makes it.
  cfg.ladder = opts.trace;
  cfg.seconds = opts.seconds;
  run_wire(nullptr, opts, cfg, result);
}

void run_wire_zipf_churn(const RunOptions& opts, Result& result) {
  WireConfig cfg;
  cfg.zipf = true;
  cfg.seconds = opts.seconds;
  run_wire(nullptr, opts, cfg, result);
}

void wire_layer_probe(const er::PowerGrid& grid, const RunOptions& opts,
                      Result& result) {
  WireConfig cfg;
  cfg.setups = 1;
  cfg.seconds = 2.0;
  cfg.end_to_end = false;
  Result probe;
  run_wire(&grid, opts, cfg, probe);
  for (const auto& [name, vu] : probe.metrics()) {
    if (name.rfind("net.", 0) == 0 || name.rfind("serve.", 0) == 0 ||
        name == "bench.sched_lag_p99_us" || name == "reduction.boundary_frac" ||
        name == "pg.mods_coalesced_frac")
      result.set(name, vu.first, vu.second);
  }
  if (!probe.correct()) result.gate_failed("wire layer probe failed its checks");
  result.attempt(probe.attempted());
}

}  // namespace perfbench
