/// \file
/// The serving daemon's network core (DESIGN.md §8): a loopback TCP
/// listener speaking the net/protocol.hpp framing, per-connection reader
/// threads, a bounded admission queue feeding dispatcher threads in front
/// of QueryFrontEnd, an optional streamed-modification sink, and a plain
/// HTTP/1.0 `GET /metrics` endpoint serving the Prometheus export.
///
/// Request flow:
///   * kStats is answered inline on the reader thread (O(1), no compute).
///   * kPortResponse / kErBatch / kSubmitMods are admitted into bounded
///     queues; overflow answers kRetryLater immediately — the invariant
///     the back-pressure tests pin is that `er_net_rejected_total`
///     increments exactly once per kRetryLater frame sent, whatever the
///     rejection site (admission overflow, mod-feed back-pressure, or the
///     shutdown race).
///   * Modifications run on a dedicated single dispatcher so a feed's
///     frames commit in arrival order at any query-dispatcher count (the
///     cumulative-state contract of the mod sink needs total order).
///
/// Lifecycle (SIGTERM drain, DESIGN.md §8): stop() flips the draining
/// flag, joins the accept loop (no new connections), closes the admission
/// queues (no new work; requests arriving during the drain answer
/// kRetryLater), lets the dispatchers finish every *admitted* item — each
/// admitted request gets exactly one response, none are dropped or
/// duplicated — then shuts the sessions down and joins their readers.
///
/// Observability (`er_net_*`, DESIGN.md §6/§8): every family is
/// registered eagerly at construction, so a daemon scraped before its
/// first request still exports the full net surface.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admission.hpp"
#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/model_store.hpp"
#include "serve/query_frontend.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace er::obs {
class MetricsRegistry;
class Counter;
class Gauge;
class Histogram;
}  // namespace er::obs

namespace er::net {

struct ServerOptions {
  int port = 0;       ///< request listener; 0 = ephemeral (see port())
  int http_port = 0;  ///< /metrics listener; 0 = ephemeral
  bool enable_http = true;
  /// Query dispatcher threads (modifications always get one dedicated
  /// dispatcher of their own when a mod sink is installed).
  int dispatcher_threads = 1;
  /// Threads of the shared per-batch compute pool handed to
  /// QueryFrontEnd::answer; <= 1 answers inline on the dispatcher.
  int query_threads = 0;
  std::size_t admission_capacity = 64;  ///< per queue (queries / mods)
  std::size_t max_connections = 64;
  /// Metrics destination (`er_net_*`; null = the global registry).
  obs::MetricsRegistry* registry = nullptr;
};

/// One accepted connection's shared state: the socket, a write lock so
/// dispatcher responses and inline reader responses never interleave
/// bytes, and the close flag. shared_ptr-held by the reader thread and by
/// every admitted WorkItem, so a response can always be written even if
/// the reader already exited.
struct Session {
  explicit Session(Fd f) : fd(std::move(f)) {}
  Fd fd;
  util::Mutex write_mutex;
  std::atomic<bool> closing{false};
  std::atomic<bool> finished{false};  ///< reader thread has exited
};

/// The daemon core. Construction wires metrics; start() binds the
/// listeners and spawns the threads; stop() runs the drain (idempotent,
/// also run by the destructor). `store` must outlive the server.
class Server {
 public:
  /// Modification sink: applies one wire modification to the serving
  /// pipeline. Returns false when back-pressured (the client sees
  /// kRetryLater and still owns the edit); throws std::invalid_argument
  /// on a semantically invalid modification (out-of-range block ids —
  /// answered kError/kBadPayload).
  using ModFn = std::function<bool(const WireModification&)>;

  Server(const ModelStore* store, ServerOptions options, ModFn mod_fn = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind the listeners and spawn accept/dispatcher/http threads. False
  /// when a port could not be bound (the server stays stopped).
  [[nodiscard]] bool start();

  /// Graceful drain; see the file comment. Safe to call from any thread
  /// (including concurrently); returns once everything is joined.
  void stop();

  /// Bound request port (valid after start()).
  [[nodiscard]] int port() const { return port_; }
  /// Bound /metrics port (valid after start(); -1 when HTTP is disabled).
  [[nodiscard]] int http_port() const { return http_port_; }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }

  /// Test hooks: gate the dispatchers so admission overflow and drain
  /// behavior are deterministic. stop() clears the gate itself (via
  /// AdmissionQueue::close), so a paused server still shuts down.
  void pause_dispatch();
  void resume_dispatch();

 private:
  /// One admitted request: the session to answer on, the request
  /// identity, and the decoded payload (query_ or mod_ per opcode).
  struct WorkItem {
    std::shared_ptr<Session> session;
    std::uint64_t request_id = 0;
    Opcode opcode = Opcode::kErBatch;
    QueryBatchRequest query;
    WireModification mod;
    Timer admitted;  ///< admission -> response-written latency anchor
  };

  struct SessionSlot {
    std::shared_ptr<Session> session;
    std::thread reader;
  };

  void accept_loop();
  void session_loop(std::shared_ptr<Session> session);
  /// False = close the connection (framing violation or dead socket).
  bool handle_frame(const std::shared_ptr<Session>& session, Frame frame);
  void dispatch_loop(AdmissionQueue<WorkItem>* queue);
  void process_query(WorkItem& item);
  void process_mod(WorkItem& item);
  void http_loop();
  void handle_http(Fd fd);
  [[nodiscard]] StatsReply build_stats() const;

  void send_frame(const std::shared_ptr<Session>& session, Opcode opcode,
                  std::uint64_t request_id,
                  const std::vector<std::uint8_t>& payload);
  void send_error(const std::shared_ptr<Session>& session,
                  std::uint64_t request_id, ErrorCode code,
                  const std::string& message);
  /// kRetryLater + the er_net_rejected_total increment, fused so the
  /// counter-matches-responses invariant holds by construction.
  void send_retry_later(const std::shared_ptr<Session>& session,
                        std::uint64_t request_id);

  [[nodiscard]] obs::Counter& requests_counter(Opcode opcode);
  [[nodiscard]] obs::Histogram& latency_histogram(Opcode opcode);
  void reap_finished_sessions_locked() ER_REQUIRES(sessions_mutex_);

  const ModelStore* store_;
  ServerOptions options_;
  ModFn mod_fn_;
  obs::MetricsRegistry* registry_;  ///< resolved, never null
  QueryFrontEnd frontend_;
  std::unique_ptr<ThreadPool> pool_;

  Fd listen_fd_;
  Fd http_fd_;
  int port_ = -1;
  int http_port_ = -1;

  std::atomic<bool> draining_{false};
  bool started_ = false;
  std::atomic<bool> stop_ran_{false};

  AdmissionQueue<WorkItem> queue_;      ///< kPortResponse / kErBatch
  AdmissionQueue<WorkItem> mod_queue_;  ///< kSubmitMods (single consumer)

  std::thread accept_thread_;
  std::thread http_thread_;
  std::thread mod_dispatcher_;
  std::vector<std::thread> dispatchers_;

  mutable util::Mutex sessions_mutex_;
  std::vector<SessionSlot> sessions_ ER_GUARDED_BY(sessions_mutex_);

  // Registry-backed er_net_* series (pointers cached at construction).
  obs::Counter* conns_accepted_;
  obs::Counter* conns_rejected_;
  obs::Counter* requests_port_response_;
  obs::Counter* requests_er_batch_;
  obs::Counter* requests_submit_mods_;
  obs::Counter* requests_stats_;
  obs::Counter* rejected_total_;
  obs::Counter* mods_applied_;
  obs::Counter* bad_frames_;
  obs::Gauge* active_connections_;
  obs::Gauge* queue_depth_;
  obs::Gauge* mod_queue_depth_;
  obs::Histogram* latency_port_response_;
  obs::Histogram* latency_er_batch_;
  obs::Histogram* latency_submit_mods_;
  obs::Histogram* latency_stats_;
};

}  // namespace er::net
