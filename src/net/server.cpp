#include "net/server.hpp"

#include <cstring>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace er::net {

namespace {

constexpr std::size_t kRecvChunk = 64 * 1024;
/// Reader/accept poll granularity: how quickly threads observe drain.
constexpr int kPollMs = 100;
constexpr std::size_t kMaxHttpRequestBytes = 8192;

}  // namespace

Server::Server(const ModelStore* store, ServerOptions options, ModFn mod_fn)
    : store_(store),
      options_(std::move(options)),
      mod_fn_(std::move(mod_fn)),
      registry_(&obs::registry_or_global(options_.registry)),
      frontend_(store, options_.registry),
      queue_(options_.admission_capacity),
      mod_queue_(options_.admission_capacity) {
  // Eager registration of the whole er_net_* surface (DESIGN.md §8): a
  // /metrics scrape of a daemon that has served no traffic yet must still
  // export every family, so exporters and the CI metrics check never see
  // a partial schema.
  auto& r = *registry_;
  conns_accepted_ = &r.counter("er_net_connections_accepted_total", {},
                               "connections accepted by the daemon");
  conns_rejected_ = &r.counter(
      "er_net_connections_rejected_total", {},
      "connections refused at the max_connections cap");
  requests_port_response_ =
      &r.counter("er_net_requests_total", {{"opcode", "port_response"}},
                 "requests dispatched per opcode");
  requests_er_batch_ = &r.counter("er_net_requests_total",
                                  {{"opcode", "er_batch"}},
                                  "requests dispatched per opcode");
  requests_submit_mods_ = &r.counter("er_net_requests_total",
                                     {{"opcode", "submit_mods"}},
                                     "requests dispatched per opcode");
  requests_stats_ = &r.counter("er_net_requests_total", {{"opcode", "stats"}},
                               "requests dispatched per opcode");
  rejected_total_ = &r.counter(
      "er_net_rejected_total", {},
      "kRetryLater responses sent (admission overflow, mod back-pressure, "
      "shutdown)");
  mods_applied_ = &r.counter("er_net_mods_applied_total", {},
                             "modifications accepted by the mod sink");
  bad_frames_ = &r.counter("er_net_bad_frames_total", {},
                           "framing violations (connection closed)");
  active_connections_ =
      &r.gauge("er_net_active_connections", {}, "currently-open sessions");
  queue_depth_ = &r.gauge("er_net_queue_depth", {{"queue", "queries"}},
                          "admission-queue occupancy");
  mod_queue_depth_ = &r.gauge("er_net_queue_depth", {{"queue", "mods"}},
                              "admission-queue occupancy");
  const char* lat_help = "admission-to-response-written latency per opcode";
  latency_port_response_ = &r.histogram(
      "er_net_request_latency_seconds", {{"opcode", "port_response"}},
      lat_help);
  latency_er_batch_ = &r.histogram("er_net_request_latency_seconds",
                                   {{"opcode", "er_batch"}}, lat_help);
  latency_submit_mods_ = &r.histogram("er_net_request_latency_seconds",
                                      {{"opcode", "submit_mods"}}, lat_help);
  latency_stats_ = &r.histogram("er_net_request_latency_seconds",
                                {{"opcode", "stats"}}, lat_help);
}

Server::~Server() { stop(); }

obs::Counter& Server::requests_counter(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPortResponse: return *requests_port_response_;
    case Opcode::kErBatch: return *requests_er_batch_;
    case Opcode::kSubmitMods: return *requests_submit_mods_;
    default: return *requests_stats_;
  }
}

obs::Histogram& Server::latency_histogram(Opcode opcode) {
  switch (opcode) {
    case Opcode::kPortResponse: return *latency_port_response_;
    case Opcode::kErBatch: return *latency_er_batch_;
    case Opcode::kSubmitMods: return *latency_submit_mods_;
    default: return *latency_stats_;
  }
}

bool Server::start() {
  if (started_) return false;
  listen_fd_ = listen_tcp(options_.port, 128, &port_);
  if (!listen_fd_.valid()) return false;
  if (options_.enable_http) {
    http_fd_ = listen_tcp(options_.http_port, 16, &http_port_);
    if (!http_fd_.valid()) return false;
  }
  if (options_.query_threads > 1)
    pool_ = std::make_unique<ThreadPool>(options_.query_threads,
                                         options_.registry);
  const int dispatchers = options_.dispatcher_threads > 0
                              ? options_.dispatcher_threads
                              : 1;
  dispatchers_.reserve(static_cast<std::size_t>(dispatchers));
  for (int i = 0; i < dispatchers; ++i)
    dispatchers_.emplace_back([this] { dispatch_loop(&queue_); });
  if (mod_fn_)
    mod_dispatcher_ = std::thread([this] { dispatch_loop(&mod_queue_); });
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (options_.enable_http)
    http_thread_ = std::thread([this] { http_loop(); });
  started_ = true;
  return true;
}

void Server::stop() {
  if (!started_ || stop_ran_.exchange(true)) return;
  // 1. No new connections: flag the drain and let the accept/http poll
  //    loops observe it.
  draining_.store(true, std::memory_order_relaxed);
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. No new work: close the admission queues (also clears any test
  //    pause gate). Requests that race the drain answer kRetryLater.
  queue_.close();
  mod_queue_.close();
  // 3. Flush in-flight batches: dispatchers drain every admitted item —
  //    each gets exactly one response — then exit on the closed queue.
  for (std::thread& t : dispatchers_) t.join();
  dispatchers_.clear();
  if (mod_dispatcher_.joinable()) mod_dispatcher_.join();
  if (http_thread_.joinable()) http_thread_.join();
  // 4. Tear the sessions down and join their readers.
  {
    util::MutexLock lock(&sessions_mutex_);
    for (SessionSlot& slot : sessions_) {
      slot.session->closing.store(true, std::memory_order_relaxed);
      shutdown_fd(slot.session->fd.get());
    }
    for (SessionSlot& slot : sessions_)
      if (slot.reader.joinable()) slot.reader.join();
    sessions_.clear();
  }
  listen_fd_.reset();
  http_fd_.reset();
}

void Server::pause_dispatch() {
  queue_.pause();
  mod_queue_.pause();
}

void Server::resume_dispatch() {
  queue_.resume();
  mod_queue_.resume();
}

void Server::reap_finished_sessions_locked() {
  for (std::size_t i = 0; i < sessions_.size();) {
    if (sessions_[i].session->finished.load(std::memory_order_acquire)) {
      sessions_[i].reader.join();
      sessions_.erase(sessions_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

void Server::accept_loop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    bool timed_out = false;
    Fd fd = accept_tcp(listen_fd_.get(), kPollMs, &timed_out);
    util::MutexLock lock(&sessions_mutex_);
    reap_finished_sessions_locked();
    if (!fd.valid()) continue;  // timeout or transient accept error
    // The cap counts this server's own sessions (every one left after the
    // reap has a live reader), never the shared active-connections gauge.
    if (sessions_.size() >= options_.max_connections) {
      conns_rejected_->add();
      continue;  // fd closes on scope exit: refuse by hangup
    }
    auto session = std::make_shared<Session>(std::move(fd));
    conns_accepted_->add();
    active_connections_->add(1);
    sessions_.push_back(
        {session, std::thread([this, session] { session_loop(session); })});
  }
}

void Server::session_loop(std::shared_ptr<Session> session) {
  std::vector<std::uint8_t> chunk(kRecvChunk);
  FrameBuffer frames;
  bool open = true;
  while (open && !session->closing.load(std::memory_order_relaxed)) {
    const long n =
        recv_some(session->fd.get(), chunk.data(), chunk.size(), kPollMs);
    if (n == -2) continue;  // poll timeout: recheck the close flag
    if (n <= 0) break;      // EOF or socket error
    frames.append(chunk.data(), static_cast<std::size_t>(n));
    Frame frame;
    for (;;) {
      const DecodeStatus st = frames.next(&frame);
      if (st == DecodeStatus::kNeedMore) break;
      if (st != DecodeStatus::kOk) {
        // Framing violation: the stream cannot be resynchronized. Report
        // (best effort; the request id is unknowable) and hang up.
        bad_frames_->add();
        send_error(session, 0, ErrorCode::kBadFrame, to_string(st));
        open = false;
        break;
      }
      if (!handle_frame(session, std::move(frame))) {
        open = false;
        break;
      }
    }
  }
  active_connections_->add(-1);
  session->finished.store(true, std::memory_order_release);
}

bool Server::handle_frame(const std::shared_ptr<Session>& session,
                          Frame frame) {
  const auto opcode = static_cast<Opcode>(frame.opcode);
  switch (opcode) {
    case Opcode::kStats: {
      Timer inline_timer;
      requests_stats_->add();
      send_frame(session, Opcode::kStatsReply, frame.request_id,
                 encode_stats(build_stats()));
      latency_stats_->record(inline_timer.seconds());
      return true;
    }
    case Opcode::kPortResponse:
    case Opcode::kErBatch: {
      WorkItem item;
      item.session = session;
      item.request_id = frame.request_id;
      item.opcode = opcode;
      if (!decode_query_batch(frame.payload, &item.query)) {
        send_error(session, frame.request_id, ErrorCode::kBadPayload,
                   "malformed query batch");
        return true;  // per-request error; the stream is still framed
      }
      // PORT_RESPONSE is the single-kind convenience opcode: whatever the
      // client encoded, every query answers Z(p, q).
      if (opcode == Opcode::kPortResponse)
        for (PortQuery& q : item.query.queries) q.kind = QueryKind::kResponse;
      // Deadline-carrying batches dispatch from the queue's urgent level
      // (admission.hpp): their queueing budget is the scarce resource.
      bool urgent = false;
      for (const PortQuery& q : item.query.queries)
        if (q.policy.deadline_us > 0) {
          urgent = true;
          break;
        }
      if (!queue_.try_push(std::move(item), urgent)) {
        send_retry_later(session, frame.request_id);
        return true;
      }
      queue_depth_->set(static_cast<std::int64_t>(queue_.depth()));
      return true;
    }
    case Opcode::kSubmitMods: {
      if (!mod_fn_) {
        send_error(session, frame.request_id, ErrorCode::kModFeedDisabled,
                   "no modification sink installed");
        return true;
      }
      WorkItem item;
      item.session = session;
      item.request_id = frame.request_id;
      item.opcode = opcode;
      if (!decode_modification(frame.payload, &item.mod)) {
        send_error(session, frame.request_id, ErrorCode::kBadPayload,
                   "malformed modification");
        return true;
      }
      if (!mod_queue_.try_push(std::move(item))) {
        send_retry_later(session, frame.request_id);
        return true;
      }
      mod_queue_depth_->set(static_cast<std::int64_t>(mod_queue_.depth()));
      return true;
    }
    default:
      send_error(session, frame.request_id, ErrorCode::kUnknownOpcode,
                 "opcode " + std::to_string(frame.opcode) +
                     " is not a request");
      return true;
  }
}

void Server::dispatch_loop(AdmissionQueue<WorkItem>* queue) {
  obs::Gauge* depth =
      queue == &mod_queue_ ? mod_queue_depth_ : queue_depth_;
  while (auto item = queue->pop()) {
    depth->set(static_cast<std::int64_t>(queue->depth()));
    // Counted here, before the reply goes out, not after the session's
    // push: there a fast dispatcher could answer first, and a client
    // holding its answer would not yet see the request counted.
    requests_counter(item->opcode).add();
    if (item->opcode == Opcode::kSubmitMods)
      process_mod(*item);
    else
      process_query(*item);
    latency_histogram(item->opcode).record(item->admitted.seconds());
  }
}

void Server::process_query(WorkItem& item) {
  if (!store_->has_published()) {
    send_error(item.session, item.request_id, ErrorCode::kNoModel,
               "nothing published yet");
    return;
  }
  AnswerReply reply;
  try {
    AnswerContext ctx;
    ctx.pool = pool_.get();
    // The queue wait already consumed, handed to the front-end as the
    // explicit deadline input (serve/query_policy.hpp): expiry is decided
    // here at the daemon boundary, and the library below stays a pure
    // function of (snapshot, batch, context).
    ctx.queue_wait_us =
        static_cast<std::uint64_t>(item.admitted.seconds() * 1e6);
    Answers answers = frontend_.answer(item.query.queries, ctx);
    reply.answers = std::move(answers.values);
    reply.snapshot_version = answers.snapshot_version;
  } catch (const std::exception& e) {
    send_error(item.session, item.request_id, ErrorCode::kInternal,
               e.what());
    return;
  }
  send_frame(item.session, Opcode::kAnswer, item.request_id,
             encode_answer(reply));
}

void Server::process_mod(WorkItem& item) {
  bool accepted = false;
  try {
    accepted = mod_fn_(item.mod);
  } catch (const std::invalid_argument& e) {
    send_error(item.session, item.request_id, ErrorCode::kBadPayload,
               e.what());
    return;
  } catch (const std::exception& e) {
    send_error(item.session, item.request_id, ErrorCode::kInternal,
               e.what());
    return;
  }
  if (!accepted) {
    // Mod-feed back-pressure (AsyncUpdater fail_fast at the staleness
    // bound) maps to the same kRetryLater / er_net_rejected_total path as
    // admission overflow.
    send_retry_later(item.session, item.request_id);
    return;
  }
  mods_applied_->add();
  send_frame(item.session, Opcode::kModAck, item.request_id, {});
}

StatsReply Server::build_stats() const {
  StatsReply s;
  const auto version = store_->current_version();
  s.has_version = version.has_value();
  s.snapshot_version = version.value_or(0);
  s.publishes = store_->publish_count();
  s.connections_accepted = conns_accepted_->value();
  s.connections_rejected = conns_rejected_->value();
  s.requests_dispatched = requests_port_response_->value() +
                        requests_er_batch_->value() +
                        requests_submit_mods_->value();
  s.retry_later_sent = rejected_total_->value();
  s.mods_applied = mods_applied_->value();
  s.bad_frames = bad_frames_->value();
  s.queue_depth =
      static_cast<std::uint32_t>(queue_.depth() + mod_queue_.depth());
  s.draining = draining_.load(std::memory_order_relaxed);
  return s;
}

void Server::send_frame(const std::shared_ptr<Session>& session,
                        Opcode opcode, std::uint64_t request_id,
                        const std::vector<std::uint8_t>& payload) {
  if (session->closing.load(std::memory_order_relaxed)) return;
  const std::vector<std::uint8_t> wire =
      encode_frame(opcode, request_id, payload);
  util::MutexLock lock(&session->write_mutex);
  if (!send_all(session->fd.get(), wire.data(), wire.size())) {
    // Dead peer: poison the session so the reader exits at its next poll.
    session->closing.store(true, std::memory_order_relaxed);
    shutdown_fd(session->fd.get());
  }
}

void Server::send_error(const std::shared_ptr<Session>& session,
                        std::uint64_t request_id, ErrorCode code,
                        const std::string& message) {
  send_frame(session, Opcode::kError, request_id,
             encode_error({code, message}));
}

void Server::send_retry_later(const std::shared_ptr<Session>& session,
                              std::uint64_t request_id) {
  rejected_total_->add();
  send_frame(session, Opcode::kRetryLater, request_id, {});
}

// ------------------------------------------------------------------ HTTP

void Server::http_loop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    bool timed_out = false;
    Fd fd = accept_tcp(http_fd_.get(), kPollMs, &timed_out);
    if (fd.valid()) handle_http(std::move(fd));
  }
}

void Server::handle_http(Fd fd) {
  // Read until the end of the request head (we ignore everything but the
  // request line), bounded in bytes and time.
  std::string request;
  char chunk[1024];
  while (request.size() < kMaxHttpRequestBytes &&
         request.find("\r\n\r\n") == std::string::npos) {
    const long n = recv_some(fd.get(), chunk, sizeof(chunk), 2000);
    if (n <= 0) break;
    request.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = request.find("\r\n");
  const std::string line =
      line_end == std::string::npos ? request : request.substr(0, line_end);

  std::string status = "404 Not Found";
  std::string body = "not found\n";
  std::string content_type = "text/plain";
  if (line.rfind("GET /metrics ", 0) == 0 || line == "GET /metrics") {
    // The daemon's own registry, folded with the global one when they
    // differ (the reducer records globally — same convention as
    // er_served's --final-metrics dump).
    obs::MetricsSnapshot snap = registry_->snapshot();
    if (registry_ != &obs::MetricsRegistry::global())
      snap.merge(obs::MetricsRegistry::global().snapshot());
    status = "200 OK";
    body = obs::to_prometheus(snap);
    content_type = "text/plain; version=0.0.4";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " + std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n" + body;
  (void)send_all(fd.get(), response.data(), response.size());
}

}  // namespace er::net
