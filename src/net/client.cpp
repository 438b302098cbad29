#include "net/client.hpp"

#include <stdexcept>

namespace er::net {

LoopbackClient::LoopbackClient(const std::string& host, int port)
    : fd_(connect_tcp(host, port)) {
  if (!fd_.valid())
    throw std::runtime_error("LoopbackClient: connect to " + host + ":" +
                             std::to_string(port) + " failed");
}

std::uint64_t LoopbackClient::send(Opcode opcode,
                                   const std::vector<std::uint8_t>& payload) {
  const std::uint64_t id = next_request_id_++;
  const std::vector<std::uint8_t> wire = encode_frame(opcode, id, payload);
  if (!send_all(fd_.get(), wire.data(), wire.size()))
    throw std::runtime_error("LoopbackClient: send failed");
  return id;
}

void LoopbackClient::send_raw(const void* data, std::size_t len) {
  if (!send_all(fd_.get(), data, len))
    throw std::runtime_error("LoopbackClient: raw send failed");
}

Frame LoopbackClient::recv_frame(int timeout_ms) {
  Frame frame;
  for (;;) {
    const DecodeStatus st = frames_.next(&frame);
    if (st == DecodeStatus::kOk) return frame;
    if (st != DecodeStatus::kNeedMore)
      throw std::runtime_error(std::string("LoopbackClient: response "
                                           "framing violation: ") +
                               to_string(st));
    std::uint8_t chunk[16 * 1024];
    const long n = recv_some(fd_.get(), chunk, sizeof(chunk), timeout_ms);
    if (n == -2) throw std::runtime_error("LoopbackClient: receive timeout");
    if (n <= 0)
      throw std::runtime_error("LoopbackClient: connection closed by server");
    frames_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

/// Decode a kError payload into a thrown runtime_error (transport-level
/// contract: protocol errors surface as exceptions, not return codes).
[[noreturn]] void throw_error_reply(const Frame& frame) {
  ErrorReply err;
  if (!decode_error(frame.payload, &err))
    throw std::runtime_error("LoopbackClient: undecodable kError reply");
  throw std::runtime_error("LoopbackClient: server error " +
                           std::to_string(static_cast<unsigned>(err.code)) +
                           ": " + err.message);
}

}  // namespace

LoopbackClient::QueryResult LoopbackClient::query(
    const std::vector<PortQuery>& batch, Opcode opcode) {
  QueryBatchRequest req;
  req.queries = batch;
  const std::uint64_t id = send(opcode, encode_query_batch(req));
  const Frame reply = recv_frame();
  if (reply.request_id != id)
    throw std::runtime_error("LoopbackClient: response id mismatch");
  QueryResult result;
  switch (static_cast<Opcode>(reply.opcode)) {
    case Opcode::kAnswer: {
      AnswerReply ans;
      if (!decode_answer(reply.payload, &ans))
        throw std::runtime_error("LoopbackClient: undecodable kAnswer");
      result.answers = std::move(ans.answers);
      result.snapshot_version = ans.snapshot_version;
      return result;
    }
    case Opcode::kRetryLater:
      result.retry_later = true;
      return result;
    case Opcode::kError:
      throw_error_reply(reply);
    default:
      throw std::runtime_error("LoopbackClient: unexpected reply opcode " +
                               std::to_string(reply.opcode));
  }
}

LoopbackClient::ModOutcome LoopbackClient::submit_mod(
    const WireModification& mod) {
  const std::uint64_t id = send(Opcode::kSubmitMods, encode_modification(mod));
  const Frame reply = recv_frame();
  if (reply.request_id != id)
    throw std::runtime_error("LoopbackClient: response id mismatch");
  switch (static_cast<Opcode>(reply.opcode)) {
    case Opcode::kModAck:
      return ModOutcome::kAccepted;
    case Opcode::kRetryLater:
      return ModOutcome::kRetryLater;
    case Opcode::kError:
      throw_error_reply(reply);
    default:
      throw std::runtime_error("LoopbackClient: unexpected reply opcode " +
                               std::to_string(reply.opcode));
  }
}

StatsReply LoopbackClient::stats() {
  const std::uint64_t id = send(Opcode::kStats, {});
  const Frame reply = recv_frame();
  if (reply.request_id != id)
    throw std::runtime_error("LoopbackClient: response id mismatch");
  if (static_cast<Opcode>(reply.opcode) == Opcode::kError)
    throw_error_reply(reply);
  StatsReply s;
  if (static_cast<Opcode>(reply.opcode) != Opcode::kStatsReply ||
      !decode_stats(reply.payload, &s))
    throw std::runtime_error("LoopbackClient: undecodable kStatsReply");
  return s;
}

}  // namespace er::net
