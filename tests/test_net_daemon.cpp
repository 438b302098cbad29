// In-process daemon integration tests (DESIGN.md §8): a real Server over
// loopback TCP, driven by LoopbackClient threads, answered through a full
// ServingStack. Pins the tentpole contracts:
//   * wire answers are bitwise-equal to direct QueryFrontEnd calls on the
//     same pinned snapshot versions, at 1/2/4/8 concurrent client threads
//     while a modification feed churns publishes (runs under TSan in CI);
//   * graceful shutdown drains every admitted request — exactly one
//     response each, none lost, none duplicated;
//   * admission overflow and mod-feed back-pressure answer kRetryLater,
//     and er_net_rejected_total matches the client-observed rejections;
//   * malformed frames get clean errors and never take the daemon down;
//   * the connection cap counts a server's own sessions, even when
//     servers share a registry;
//   * GET /metrics serves the er_net_* families over HTTP.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admission.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "serve_test_util.hpp"

namespace er {
namespace {

using net::LoopbackClient;
using net::Opcode;
using net::Server;
using net::ServerOptions;
using net::ServingStack;
using net::StackOptions;
using net::WireModification;

constexpr char kHost[] = "127.0.0.1";

StackOptions test_stack_options() {
  StackOptions opts;
  opts.reduction.num_blocks = 12;
  opts.reduction.sparsify_quality = 1.0;
  return opts;
}

/// One in-process daemon: its own registry, stack, and server, plus the
/// fixture grid it serves.
struct Daemon {
  explicit Daemon(ServerOptions server_opts, StackOptions stack_opts,
                  bool with_mod_feed = true)
      : fixture(make_case(20, 20, 12, 5)),
        stack(fixture.net, fixture.ports, stack_opts, &registry) {
    server_opts.registry = &registry;
    server = std::make_unique<Server>(&stack.store(), server_opts,
                                      with_mod_feed ? stack.mod_fn()
                                                    : Server::ModFn{});
    EXPECT_TRUE(server->start());
  }
  ~Daemon() { server->stop(); }

  obs::MetricsRegistry registry;
  ServeCase fixture;
  ServingStack stack;
  std::unique_ptr<Server> server;
};

std::unique_ptr<Daemon> make_daemon(int dispatchers = 2,
                                    std::size_t capacity = 64) {
  ServerOptions opts;
  opts.dispatcher_threads = dispatchers;
  opts.query_threads = 2;
  opts.admission_capacity = capacity;
  return std::make_unique<Daemon>(opts, test_stack_options());
}

void expect_bitwise_equal(const std::vector<real_t>& got,
                          const std::vector<real_t>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        want.size() * sizeof(real_t)),
            0);
}

TEST(NetDaemon, AnswersMatchDirectCalls) {
  auto d = make_daemon();
  const auto kept = kept_originals(d->stack.reducer().model());
  const auto batch = mixed_batch(kept, 16, 33);

  const Answers direct = d->stack.frontend().answer(batch);

  LoopbackClient client(kHost, d->server->port());
  const auto result = client.query(batch);
  EXPECT_FALSE(result.retry_later);
  EXPECT_EQ(result.snapshot_version, direct.snapshot_version);
  expect_bitwise_equal(result.answers, direct.values);
}

TEST(NetDaemon, PortResponseOpcodeForcesResponseKind) {
  auto d = make_daemon();
  const auto kept = kept_originals(d->stack.reducer().model());
  auto batch = mixed_batch(kept, 10, 34);
  for (PortQuery& q : batch) q.kind = QueryKind::kResistance;

  auto forced = batch;
  for (PortQuery& q : forced) q.kind = QueryKind::kResponse;
  const std::vector<real_t> direct = d->stack.frontend().answer(forced).values;

  LoopbackClient client(kHost, d->server->port());
  const auto result = client.query(batch, Opcode::kPortResponse);
  expect_bitwise_equal(result.answers, direct);
}

TEST(NetDaemon, StatsReplySanity) {
  auto d = make_daemon();
  LoopbackClient client(kHost, d->server->port());
  const auto kept = kept_originals(d->stack.reducer().model());
  (void)client.query(mixed_batch(kept, 4, 35));

  const net::StatsReply s = client.stats();
  EXPECT_TRUE(s.has_version);
  EXPECT_GE(s.publishes, 1u);  // the initial attach publish
  EXPECT_EQ(s.connections_accepted, 1u);
  EXPECT_EQ(s.requests_dispatched, 1u);
  EXPECT_EQ(s.retry_later_sent, 0u);
  EXPECT_FALSE(s.draining);
}

TEST(NetDaemon, UnknownOpcodeKeepsConnection) {
  auto d = make_daemon();
  LoopbackClient client(kHost, d->server->port());
  const std::uint64_t id = client.send(static_cast<Opcode>(55), {});
  const net::Frame reply = client.recv_frame();
  EXPECT_EQ(reply.request_id, id);
  ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kError);
  net::ErrorReply err;
  ASSERT_TRUE(net::decode_error(reply.payload, &err));
  EXPECT_EQ(err.code, net::ErrorCode::kUnknownOpcode);

  // The stream is still framed: a real request on the same connection.
  const auto kept = kept_originals(d->stack.reducer().model());
  const auto result = client.query(mixed_batch(kept, 4, 36));
  EXPECT_EQ(result.answers.size(), 4u);
}

TEST(NetDaemon, NoModelAndNoModFeedAnswerTypedErrors) {
  // A server over an empty store, without a modification sink.
  obs::MetricsRegistry registry;
  ModelStore store(&registry);
  ServerOptions opts;
  opts.registry = &registry;
  opts.enable_http = false;
  Server server(&store, opts);
  ASSERT_TRUE(server.start());

  LoopbackClient client(kHost, server.port());
  std::vector<PortQuery> batch(1);
  EXPECT_THROW((void)client.query(batch), std::runtime_error);  // kNoModel

  WireModification mod;
  mod.dirty_blocks = {0};
  EXPECT_THROW((void)client.submit_mod(mod),
               std::runtime_error);  // kModFeedDisabled
  server.stop();
}

// The tentpole determinism contract: N client threads hammer the daemon
// while a feed churns modifications through the incremental-update
// pipeline. Every wire answer carries the snapshot version it was
// answered on; after the run, each recorded answer must be bitwise-equal
// to a direct (no-network) evaluation of the same batch on a reference
// pipeline advanced to the same number of reflected modifications.
TEST(NetDaemon, ConcurrentClientsBitwiseEqualUnderChurn) {
  constexpr int kMods = 5;
  constexpr int kQueriesPerClient = 6;
  const StackOptions stack_opts = test_stack_options();

  // Reference answers ref[m]: the fixed batch evaluated after mods 0..m-1
  // (sequential, synchronous — no coalescing, no concurrency).
  const ServeCase fixture = make_case(20, 20, 12, 5);
  std::vector<std::vector<real_t>> ref;
  ModStream stream;
  std::vector<PortQuery> batch;
  {
    obs::MetricsRegistry ref_registry;
    ModelStore ref_store(&ref_registry);
    IncrementalReducer ref_reducer(fixture.net, fixture.ports,
                                   stack_opts.reduction);
    ref_reducer.attach_store(&ref_store);
    QueryFrontEnd ref_frontend(&ref_store, &ref_registry);
    batch = mixed_batch(kept_originals(ref_reducer.model()), 12, 44);
    stream = make_mod_stream(fixture.net, ref_reducer.structure(), kMods,
                             0.25, 1.2, 77);
    ref.push_back(ref_frontend.answer(batch).values);
    for (int u = 0; u < kMods; ++u) {
      ref_reducer.update(stream.nets[static_cast<std::size_t>(u)],
                         stream.mods[static_cast<std::size_t>(u)].dirty_blocks);
      ref.push_back(ref_frontend.answer(batch).values);
    }
  }

  for (const int clients : {1, 2, 4, 8}) {
    SCOPED_TRACE("clients=" + std::to_string(clients));
    auto d = make_daemon();

    struct Record {
      std::uint64_t version;
      std::vector<real_t> answers;
    };
    std::vector<std::vector<Record>> records(
        static_cast<std::size_t>(clients));
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        LoopbackClient client(kHost, d->server->port());
        for (int q = 0; q < kQueriesPerClient; ++q) {
          const auto result = client.query(batch);
          ASSERT_FALSE(result.retry_later);
          records[static_cast<std::size_t>(c)].push_back(
              {result.snapshot_version, result.answers});
        }
      });
    }

    // The churn feed, interleaved with the query traffic. Back-pressure
    // (kRetryLater) is legal here — resubmit until accepted, preserving
    // the cumulative order.
    LoopbackClient feeder(kHost, d->server->port());
    std::uint64_t feeder_retries = 0;
    for (int u = 0; u < kMods; ++u) {
      WireModification mod;
      mod.dirty_blocks = stream.mods[static_cast<std::size_t>(u)].dirty_blocks;
      mod.resistance_scale =
          stream.mods[static_cast<std::size_t>(u)].resistance_scale;
      while (feeder.submit_mod(mod) ==
             LoopbackClient::ModOutcome::kRetryLater) {
        ++feeder_retries;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    for (std::thread& t : threads) t.join();
    d->stack.flush();  // converges mods_reflected bookkeeping

    for (const auto& client_records : records) {
      ASSERT_EQ(client_records.size(),
                static_cast<std::size_t>(kQueriesPerClient));
      for (const Record& r : client_records) {
        const std::uint64_t m = d->stack.updater().mods_reflected(r.version);
        ASSERT_LE(m, static_cast<std::uint64_t>(kMods));
        SCOPED_TRACE("version=" + std::to_string(r.version) +
                     " mods_reflected=" + std::to_string(m));
        expect_bitwise_equal(r.answers, ref[static_cast<std::size_t>(m)]);
      }
    }
    // Every accepted modification ended up applied (none lost to the
    // drain) and the final model reflects the whole stream.
    EXPECT_EQ(d->stack.mods_accepted(), static_cast<std::uint64_t>(kMods));
    const auto last = d->stack.store().current_version();
    ASSERT_TRUE(last.has_value());
    EXPECT_EQ(d->stack.updater().mods_reflected(*last),
              static_cast<std::uint64_t>(kMods));

    // The net-layer counters match the client-side tallies: every query
    // was admitted and answered once, and the only kRetryLater frames were
    // the feeder's.
    const obs::MetricsSnapshot snap = d->registry.snapshot();
    const obs::MetricSnapshot* requests =
        snap.find("er_net_requests_total", {{"opcode", "er_batch"}});
    ASSERT_NE(requests, nullptr);
    EXPECT_EQ(requests->counter,
              static_cast<std::uint64_t>(clients * kQueriesPerClient));
    const obs::MetricSnapshot* rejected = snap.find("er_net_rejected_total");
    ASSERT_NE(rejected, nullptr);
    EXPECT_EQ(rejected->counter, feeder_retries);
  }
}

TEST(NetDaemon, GracefulShutdownDrainsAdmittedRequests) {
  constexpr int kPipelined = 4;
  auto d = make_daemon(/*dispatchers=*/2, /*capacity=*/16);
  const auto kept = kept_originals(d->stack.reducer().model());
  const auto batch = mixed_batch(kept, 8, 55);
  const std::vector<real_t> direct = d->stack.frontend().answer(batch).values;

  LoopbackClient client(kHost, d->server->port());
  // Gate the dispatchers, pipeline a burst, then stop() mid-batch: the
  // drain must answer every admitted request exactly once.
  d->server->pause_dispatch();
  std::vector<std::uint64_t> ids;
  const auto payload = net::encode_query_batch({batch});
  for (int i = 0; i < kPipelined; ++i)
    ids.push_back(client.send(Opcode::kErBatch, payload));
  // All admitted (well under capacity) before the drain starts.
  while (client.stats().queue_depth <
         static_cast<std::uint32_t>(kPipelined))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::thread stopper([&] { d->server->stop(); });
  std::vector<bool> answered(ids.size(), false);
  for (int i = 0; i < kPipelined; ++i) {
    const net::Frame reply = client.recv_frame();
    ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kAnswer);
    auto it = std::find(ids.begin(), ids.end(), reply.request_id);
    ASSERT_NE(it, ids.end());
    const auto idx = static_cast<std::size_t>(it - ids.begin());
    EXPECT_FALSE(answered[idx]) << "duplicate response";
    answered[idx] = true;
    net::AnswerReply ans;
    ASSERT_TRUE(net::decode_answer(reply.payload, &ans));
    expect_bitwise_equal(ans.answers, direct);
  }
  stopper.join();
  // After the drain the server hangs up — no further frames, no garbage.
  EXPECT_THROW((void)client.recv_frame(2000), std::runtime_error);
}

TEST(NetDaemon, AdmissionOverflowAnswersRetryLater) {
  constexpr std::size_t kCapacity = 2;
  constexpr int kBurst = 5;
  auto d = make_daemon(/*dispatchers=*/1, kCapacity);
  const auto kept = kept_originals(d->stack.reducer().model());
  const auto batch = mixed_batch(kept, 6, 66);

  LoopbackClient client(kHost, d->server->port());
  d->server->pause_dispatch();
  const auto payload = net::encode_query_batch({batch});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < kBurst; ++i)
    ids.push_back(client.send(Opcode::kErBatch, payload));

  // With dispatch gated, exactly kCapacity requests are admitted; the
  // overflow answers kRetryLater immediately, in request order.
  int retries = 0, answers = 0;
  for (int i = 0; i < kBurst - static_cast<int>(kCapacity); ++i) {
    const net::Frame reply = client.recv_frame();
    ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kRetryLater);
    EXPECT_EQ(reply.request_id, ids[kCapacity + static_cast<std::size_t>(i)]);
    ++retries;
  }
  d->server->resume_dispatch();
  for (std::size_t i = 0; i < kCapacity; ++i) {
    const net::Frame reply = client.recv_frame();
    ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kAnswer);
    EXPECT_EQ(reply.request_id, ids[i]);
    ++answers;
  }
  EXPECT_EQ(retries, kBurst - static_cast<int>(kCapacity));
  EXPECT_EQ(answers, static_cast<int>(kCapacity));

  // The counter invariant: er_net_rejected_total == client-observed
  // kRetryLater frames, by construction of send_retry_later.
  EXPECT_EQ(client.stats().retry_later_sent,
            static_cast<std::uint64_t>(retries));
  const auto snap = d->registry.snapshot();
  const auto* rejected = snap.find("er_net_rejected_total");
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->counter, static_cast<std::uint64_t>(retries));
}

// Deadline-carrying batches dispatch from the admission queue's urgent
// level; both levels share one capacity bound.
TEST(NetDaemon, AdmissionQueueDispatchesUrgentItemsFirst) {
  net::AdmissionQueue<int> queue(3);
  EXPECT_TRUE(queue.try_push(1));
  EXPECT_TRUE(queue.try_push(2));
  EXPECT_TRUE(queue.try_push(3, /*urgent=*/true));
  // Both levels draw on one capacity bound.
  EXPECT_FALSE(queue.try_push(4));
  EXPECT_FALSE(queue.try_push(5, /*urgent=*/true));
  EXPECT_EQ(queue.depth(), 3u);

  // Urgent first, admission order within a level.
  EXPECT_EQ(queue.pop().value(), 3);
  EXPECT_EQ(queue.pop().value(), 1);
  EXPECT_TRUE(queue.try_push(6, /*urgent=*/true));
  EXPECT_EQ(queue.pop().value(), 6);
  EXPECT_EQ(queue.pop().value(), 2);

  queue.close();
  EXPECT_FALSE(queue.pop().has_value());
}

TEST(NetDaemon, ModFeedBackPressureAnswersRetryLater) {
  StackOptions stack_opts = test_stack_options();
  stack_opts.staleness_bound = 1;
  stack_opts.fail_fast = true;
  ServerOptions server_opts;
  server_opts.dispatcher_threads = 1;
  auto d = std::make_unique<Daemon>(server_opts, stack_opts);

  LoopbackClient client(kHost, d->server->port());
  WireModification mod;
  mod.resistance_scale = 1.1;

  // Hold the update worker: the first modification coalesces into the
  // pending slot (staleness 1 <= bound), the second trips fail_fast.
  d->stack.updater().pause();
  mod.dirty_blocks = {0};
  EXPECT_EQ(client.submit_mod(mod), LoopbackClient::ModOutcome::kAccepted);
  mod.dirty_blocks = {1};
  EXPECT_EQ(client.submit_mod(mod), LoopbackClient::ModOutcome::kRetryLater);
  EXPECT_EQ(client.stats().retry_later_sent, 1u);

  // flush() implies resume; the rejected edit goes through on resubmit.
  d->stack.flush();
  EXPECT_EQ(client.submit_mod(mod), LoopbackClient::ModOutcome::kAccepted);
  d->stack.flush();
  EXPECT_EQ(client.stats().mods_applied, 2u);
  EXPECT_EQ(d->stack.mods_accepted(), 2u);
}

TEST(NetDaemon, OutOfRangeBlockIdAnswersBadPayload) {
  auto d = make_daemon();
  LoopbackClient client(kHost, d->server->port());
  WireModification mod;
  mod.dirty_blocks = {100000};  // far beyond structure().num_blocks
  try {
    (void)client.submit_mod(mod);
    FAIL() << "expected a server error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
  // Semantic rejection is per-request: the connection still serves.
  const auto kept = kept_originals(d->stack.reducer().model());
  EXPECT_EQ(client.query(mixed_batch(kept, 4, 67)).answers.size(), 4u);
}

TEST(NetDaemon, MalformedFramesRejectedAndServerSurvives) {
  auto d = make_daemon();
  const auto kept = kept_originals(d->stack.reducer().model());

  {  // Not this protocol at all: bad magic closes the connection.
    LoopbackClient bad(kHost, d->server->port());
    const char garbage[] = "GET /metrics HTTP/1.0\r\n\r\n";
    bad.send_raw(garbage, sizeof(garbage) - 1);
    const net::Frame reply = bad.recv_frame();
    ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kError);
    net::ErrorReply err;
    ASSERT_TRUE(net::decode_error(reply.payload, &err));
    EXPECT_EQ(err.code, net::ErrorCode::kBadFrame);
    EXPECT_THROW((void)bad.recv_frame(2000), std::runtime_error);  // hangup
  }
  {  // Corrupted payload fails the CRC; connection closed.
    LoopbackClient bad(kHost, d->server->port());
    auto wire = net::encode_frame(Opcode::kErBatch, 7,
                                  net::encode_query_batch(
                                      {mixed_batch(kept, 4, 68)}));
    wire[net::kHeaderBytes + 2] ^= 0x40;
    bad.send_raw(wire.data(), wire.size());
    const net::Frame reply = bad.recv_frame();
    ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kError);
    EXPECT_THROW((void)bad.recv_frame(2000), std::runtime_error);
  }
  {  // Oversized declared length is rejected from the header alone.
    LoopbackClient bad(kHost, d->server->port());
    auto wire = net::encode_frame(Opcode::kErBatch, 8, {});
    const std::uint32_t huge = net::kMaxPayloadBytes + 1;
    for (int i = 0; i < 4; ++i)
      wire[16 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(huge >> (8 * i));
    bad.send_raw(wire.data(), net::kHeaderBytes);
    const net::Frame reply = bad.recv_frame();
    ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kError);
    EXPECT_THROW((void)bad.recv_frame(2000), std::runtime_error);
  }
  {  // A well-framed but empty batch: per-request error, connection kept.
    LoopbackClient client(kHost, d->server->port());
    std::vector<std::uint8_t> payload;
    for (int i = 0; i < 4; ++i) payload.push_back(0);  // count = 0
    const std::uint64_t id = client.send(Opcode::kErBatch, payload);
    const net::Frame reply = client.recv_frame();
    EXPECT_EQ(reply.request_id, id);
    ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kError);
    net::ErrorReply err;
    ASSERT_TRUE(net::decode_error(reply.payload, &err));
    EXPECT_EQ(err.code, net::ErrorCode::kBadPayload);
    EXPECT_EQ(client.query(mixed_batch(kept, 4, 69)).answers.size(), 4u);
  }

  // Through all of it the daemon keeps serving fresh connections, and the
  // framing violations were counted.
  LoopbackClient survivor(kHost, d->server->port());
  EXPECT_EQ(survivor.query(mixed_batch(kept, 4, 70)).answers.size(), 4u);
  EXPECT_GE(survivor.stats().bad_frames, 3u);
}

TEST(NetDaemon, SlowLorisPartialWritesStillAnswered) {
  auto d = make_daemon();
  const auto kept = kept_originals(d->stack.reducer().model());
  const auto batch = mixed_batch(kept, 6, 71);
  const std::vector<real_t> direct = d->stack.frontend().answer(batch).values;

  LoopbackClient client(kHost, d->server->port());
  const auto wire = net::encode_frame(
      Opcode::kErBatch, 42,
      net::encode_query_batch({batch}));
  for (std::size_t off = 0; off < wire.size(); off += 3) {
    const std::size_t n = std::min<std::size_t>(3, wire.size() - off);
    client.send_raw(wire.data() + off, n);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const net::Frame reply = client.recv_frame();
  EXPECT_EQ(reply.request_id, 42u);
  ASSERT_EQ(static_cast<Opcode>(reply.opcode), Opcode::kAnswer);
  net::AnswerReply ans;
  ASSERT_TRUE(net::decode_answer(reply.payload, &ans));
  expect_bitwise_equal(ans.answers, direct);
}

TEST(NetDaemon, ConnectionCapRefusesExtraClients) {
  ServerOptions opts;
  opts.max_connections = 1;
  auto d = std::make_unique<Daemon>(opts, test_stack_options());
  const auto kept = kept_originals(d->stack.reducer().model());

  LoopbackClient first(kHost, d->server->port());
  (void)first.query(mixed_batch(kept, 4, 72));  // session is registered

  // The second connection is refused by hangup: connect succeeds, the
  // first read sees EOF.
  LoopbackClient second(kHost, d->server->port());
  EXPECT_THROW((void)second.query(mixed_batch(kept, 4, 73)),
               std::runtime_error);
  EXPECT_EQ(first.stats().connections_rejected, 1u);
  EXPECT_EQ(first.stats().connections_accepted, 1u);
}

TEST(NetDaemon, ConnectionCapCountsOnlyThisServersSessions) {
  // Two servers on one registry: B holding max_connections sessions must
  // not make A refuse its first connection.
  ServerOptions opts;
  opts.max_connections = 2;
  auto d = std::make_unique<Daemon>(opts, test_stack_options());
  ServerOptions b_opts = opts;
  b_opts.registry = &d->registry;
  Server b(&d->stack.store(), b_opts);
  ASSERT_TRUE(b.start());
  const auto kept = kept_originals(d->stack.reducer().model());
  const auto batch = mixed_batch(kept, 4, 75);

  LoopbackClient b1(kHost, b.port());
  LoopbackClient b2(kHost, b.port());
  (void)b1.query(batch);  // both of B's sessions are registered
  (void)b2.query(batch);

  LoopbackClient a(kHost, d->server->port());
  LoopbackClient::QueryResult result;
  EXPECT_NO_THROW(result = a.query(batch));
  EXPECT_FALSE(result.retry_later);
  EXPECT_EQ(result.answers.size(), batch.size());
  EXPECT_EQ(series_value(d->registry, "er_net_connections_rejected_total"), 0);
  EXPECT_EQ(series_value(d->registry, "er_net_connections_accepted_total"), 3);

  // B's own cap still holds.
  LoopbackClient b3(kHost, b.port());
  EXPECT_THROW((void)b3.query(batch), std::runtime_error);
  EXPECT_EQ(series_value(d->registry, "er_net_connections_rejected_total"), 1);
}

TEST(NetDaemon, HttpMetricsEndpoint) {
  auto d = make_daemon();
  LoopbackClient client(kHost, d->server->port());
  const auto kept = kept_originals(d->stack.reducer().model());
  (void)client.query(mixed_batch(kept, 4, 74));  // some traffic to export

  auto http_get = [&](const std::string& path) {
    net::Fd fd = net::connect_tcp(kHost, d->server->http_port());
    EXPECT_TRUE(fd.valid());
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    EXPECT_TRUE(net::send_all(fd.get(), request.data(), request.size()));
    std::string response;
    char chunk[4096];
    for (;;) {
      const long n = net::recv_some(fd.get(), chunk, sizeof(chunk), 5000);
      if (n <= 0) break;
      response.append(chunk, static_cast<std::size_t>(n));
    }
    return response;
  };

  const std::string metrics = http_get("/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("er_net_requests_total"), std::string::npos);
  EXPECT_NE(metrics.find("er_net_active_connections"), std::string::npos);
  EXPECT_NE(metrics.find("er_net_request_latency_seconds_bucket"),
            std::string::npos);

  EXPECT_NE(http_get("/nope").find("404"), std::string::npos);
}

}  // namespace
}  // namespace er
