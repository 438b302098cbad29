/// \file
/// Synchronous loopback client of the serving daemon (DESIGN.md §8),
/// shared by the integration tests and er_served --warmup. One connection
/// per client; requests are correlated by request id, so a client may also
/// pipeline (send several requests, then collect responses) via the
/// low-level send()/recv_frame() pair — the back-pressure tests drive
/// admission overflow that way.
///
/// Error model: transport failures and kError responses throw
/// std::runtime_error; back-pressure (kRetryLater) is an expected outcome
/// and is reported in-band (QueryResult::retry_later / ModOutcome).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "net/socket.hpp"
#include "serve/query_frontend.hpp"
#include "util/types.hpp"

namespace er::net {

class LoopbackClient {
 public:
  /// Connects immediately; throws std::runtime_error on refusal.
  LoopbackClient(const std::string& host, int port);

  struct QueryResult {
    std::vector<real_t> answers;        ///< empty when retry_later
    std::uint64_t snapshot_version = 0;
    bool retry_later = false;
  };

  enum class ModOutcome { kAccepted, kRetryLater };

  /// Round-trip one query batch. `opcode` must be kErBatch (kinds as
  /// given) or kPortResponse (server forces every kind to kResponse).
  [[nodiscard]] QueryResult query(const std::vector<PortQuery>& batch,
                                  Opcode opcode = Opcode::kErBatch);

  /// Round-trip one modification through the daemon's mod feed.
  [[nodiscard]] ModOutcome submit_mod(const WireModification& mod);

  [[nodiscard]] StatsReply stats();

  // ------------------------------------------------- pipelining plumbing
  /// Send one framed request; returns its request id.
  std::uint64_t send(Opcode opcode, const std::vector<std::uint8_t>& payload);
  /// Receive the next response frame (any request id). Throws on EOF,
  /// transport error, framing violation, or timeout.
  [[nodiscard]] Frame recv_frame(int timeout_ms = 30000);
  /// Push raw bytes down the socket, bypassing the framer — the
  /// malformed-frame and slow-loris tests speak through this.
  void send_raw(const void* data, std::size_t len);

  [[nodiscard]] int fd() const { return fd_.get(); }

 private:
  Fd fd_;
  FrameBuffer frames_;
  std::uint64_t next_request_id_ = 1;
};

}  // namespace er::net
