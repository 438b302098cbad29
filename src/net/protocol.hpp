/// \file
/// Wire protocol of the serving daemon (DESIGN.md §8): a length-prefixed
/// binary framing over TCP plus the payload codecs of every request and
/// response the daemon speaks.
///
/// Frame layout (all integers little-endian, independent of host order):
///
///   offset  size  field
///        0     4  magic        kMagic; the wire bytes read 'E','R','V','1'
///        4     2  version      kProtocolVersion
///        6     2  opcode       Opcode
///        8     8  request_id   echoed verbatim in the response
///       16     4  payload_len  <= kMaxPayloadBytes
///       20     4  payload_crc  CRC-32 (reflected, poly 0xEDB88320) of the
///                              payload bytes only
///       24     …  payload
///
/// Versioning: the daemon speaks exactly one dialect, kProtocolVersion.
/// A frame stamped with any other version is a sticky kBadVersion.
///
/// Decoding is incremental and never over-reads: FrameBuffer::next()
/// validates magic/version/length from the 24-byte header *before*
/// waiting for the payload, so an adversarial "4 GiB follows" header is
/// rejected from the header alone. Framing errors (bad magic, version,
/// length, CRC) are sticky — the stream cannot be resynchronized, the
/// connection must be closed. Payload-level errors (a frame that parses
/// but whose payload is malformed) are per-request: the decoder returns
/// false, the server answers kError and keeps the connection.
///
/// Layering: this header knows serve/ types (PortQuery, QueryKind) but
/// nothing of pg/ — modifications travel as WireModification, which
/// src/net/stack.hpp translates into the pg-level GridModification.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "serve/query_frontend.hpp"
#include "util/types.hpp"

namespace er::net {

/// 'E','R','V','1' as the little-endian u32 the header carries.
inline constexpr std::uint32_t kMagic = 0x31565245u;
/// The one dialect (4: a query batch is count u32, then per query kind
/// u8, p i32, q i32, deadline_us u32; version 3 led with a route byte).
inline constexpr std::uint16_t kProtocolVersion = 4;
inline constexpr std::size_t kHeaderBytes = 24;
/// Hard payload bound checked from the header alone (16 MiB — far above
/// any realistic batch, far below an allocation-of-death).
inline constexpr std::uint32_t kMaxPayloadBytes = 1u << 24;
/// Queries per batch / dirty blocks per modification bound.
inline constexpr std::uint32_t kMaxBatchItems = 1u << 20;
/// Error-message length bound (ErrorReply).
inline constexpr std::uint32_t kMaxErrorBytes = 4096;

/// Request and response opcodes. Responses have bit 7 set.
enum class Opcode : std::uint16_t {
  // Requests.
  kPortResponse = 1,  ///< QueryBatchRequest; every kind forced to kResponse
  kErBatch = 2,       ///< QueryBatchRequest, kinds as encoded
  kSubmitMods = 3,    ///< WireModification for the streamed mod feed
  kStats = 4,         ///< empty payload; answered inline with kStatsReply
  // Responses.
  kAnswer = 129,      ///< AnswerReply
  kModAck = 130,      ///< empty payload: the modification was accepted
  kStatsReply = 131,  ///< StatsReply
  kRetryLater = 132,  ///< empty payload: back-pressure, retry the request
  kError = 133,       ///< ErrorReply
};

/// Machine-readable error codes carried by kError frames.
enum class ErrorCode : std::uint32_t {
  kBadFrame = 1,        ///< framing violation (connection is closed)
  kBadPayload = 2,      ///< frame parsed, payload did not
  kUnknownOpcode = 3,   ///< opcode is not a request this server speaks
  kShuttingDown = 4,    ///< daemon is draining
  kNoModel = 5,         ///< nothing published yet
  kModFeedDisabled = 6, ///< server was built without a modification sink
  kInternal = 7,        ///< exception while answering
};

/// One decoded frame.
struct Frame {
  std::uint16_t opcode = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

enum class DecodeStatus {
  kOk,         ///< a frame was produced
  kNeedMore,   ///< header/payload incomplete; append more bytes
  kBadMagic,   ///< sticky: stream is not speaking this protocol
  kBadVersion, ///< sticky: protocol version mismatch
  kBadLength,  ///< sticky: declared payload exceeds kMaxPayloadBytes
  kBadCrc,     ///< sticky: payload corrupted in flight
};

[[nodiscard]] const char* to_string(DecodeStatus s);

/// CRC-32 (reflected, polynomial 0xEDB88320, init/xorout 0xFFFFFFFF) —
/// the zlib/IEEE 802.3 variant.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

/// Encode one complete frame (header + payload) ready for send_all().
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    Opcode opcode, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload);

/// Incremental frame decoder: feed arbitrary byte slices (down to one byte
/// at a time — slow-loris clients cost buffering, not correctness), pull
/// complete frames out. Fatal statuses are sticky; kNeedMore/kOk are not.
class FrameBuffer {
 public:
  /// Append `len` raw bytes from the stream.
  void append(const std::uint8_t* data, std::size_t len);

  /// Decode the next frame into `*out` (valid only on kOk).
  DecodeStatus next(Frame* out);

  /// Bytes buffered but not yet consumed by next().
  [[nodiscard]] std::size_t pending_bytes() const {
    return buffer_.size() - consumed_;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  DecodeStatus error_ = DecodeStatus::kOk;  ///< sticky fatal status
};

// ---------------------------------------------------------------- payloads

/// kPortResponse / kErBatch payload: a query batch.
struct QueryBatchRequest {
  std::vector<PortQuery> queries;  ///< never empty on a decoded request
};

/// kSubmitMods payload — the net-level mirror of pg's GridModification
/// (src/net/ stays pg-free; ServingStack translates).
struct WireModification {
  std::vector<index_t> dirty_blocks;
  real_t resistance_scale = 1.2;
};

/// kAnswer payload: the batch's answers (bit-exact f64) plus the snapshot
/// version they were answered on.
struct AnswerReply {
  std::uint64_t snapshot_version = 0;
  std::vector<real_t> answers;
};

/// kStatsReply payload: the daemon's counters at the instant of the
/// request (all figures are since process start).
struct StatsReply {
  bool has_version = false;       ///< false before the first publish
  std::uint64_t snapshot_version = 0;
  std::uint64_t publishes = 0;
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_rejected = 0;
  /// Query and mod requests popped by a dispatcher (counted before the
  /// reply is written; requests still queued are in queue_depth).
  std::uint64_t requests_dispatched = 0;
  std::uint64_t retry_later_sent = 0;
  std::uint64_t mods_applied = 0;
  std::uint64_t bad_frames = 0;
  std::uint32_t queue_depth = 0;
  bool draining = false;
};

/// kError payload.
struct ErrorReply {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

// Encoders always succeed (inputs are trusted, produced in-process);
// decoders return false on any malformed payload — wrong length, count
// out of [1, kMaxBatchItems] or beyond what the remaining payload bytes
// can hold, out-of-range enum byte, non-finite scale — without throwing,
// without reading past the payload, and without allocating for items the
// payload does not carry.
//
// Query-batch payload: count u32, then per query
// (kind u8, p i32, q i32, deadline_us u32) — 13 bytes.
[[nodiscard]] std::vector<std::uint8_t> encode_query_batch(
    const QueryBatchRequest& req);
[[nodiscard]] bool decode_query_batch(const std::vector<std::uint8_t>& payload,
                                      QueryBatchRequest* out);

[[nodiscard]] std::vector<std::uint8_t> encode_modification(
    const WireModification& mod);
[[nodiscard]] bool decode_modification(const std::vector<std::uint8_t>& payload,
                                       WireModification* out);

[[nodiscard]] std::vector<std::uint8_t> encode_answer(const AnswerReply& reply);
[[nodiscard]] bool decode_answer(const std::vector<std::uint8_t>& payload,
                                 AnswerReply* out);

[[nodiscard]] std::vector<std::uint8_t> encode_stats(const StatsReply& reply);
[[nodiscard]] bool decode_stats(const std::vector<std::uint8_t>& payload,
                                StatsReply* out);

[[nodiscard]] std::vector<std::uint8_t> encode_error(const ErrorReply& reply);
[[nodiscard]] bool decode_error(const std::vector<std::uint8_t>& payload,
                                ErrorReply* out);

}  // namespace er::net
