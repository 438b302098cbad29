#include "net/protocol.hpp"

#include <array>
#include <cmath>
#include <cstring>

namespace er::net {

namespace {

// ------------------------------------------------------------- primitives
// Explicit little-endian byte I/O: the wire format is host-order-free.

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "IEEE-754 binary64 expected");
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

std::uint16_t read_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t read_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// Bounds-checked sequential payload reader. Every read_* returns false
/// instead of reading past the end; done() asserts exact consumption, so
/// a payload with trailing garbage fails decoding too.
class Cursor {
 public:
  Cursor(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  bool read_u8(std::uint8_t* v) {
    if (size_ - pos_ < 1) return false;
    *v = data_[pos_++];
    return true;
  }
  bool read_u32(std::uint32_t* v) {
    if (size_ - pos_ < 4) return false;
    *v = net::read_u32(data_ + pos_);
    pos_ += 4;
    return true;
  }
  bool read_u64(std::uint64_t* v) {
    if (size_ - pos_ < 8) return false;
    *v = net::read_u64(data_ + pos_);
    pos_ += 8;
    return true;
  }
  bool read_i32(std::int32_t* v) {
    std::uint32_t u = 0;
    if (!read_u32(&u)) return false;
    std::memcpy(v, &u, sizeof(*v));
    return true;
  }
  bool read_f64(double* v) {
    std::uint64_t bits = 0;
    if (!read_u64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool read_bytes(std::size_t n, std::string* out) {
    if (size_ - pos_ < n) return false;
    out->assign(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] bool done() const { return pos_ == size_; }
  /// Whether the unread bytes can hold `count` items of `item_bytes`
  /// each — checked before a decoder reserves room for untrusted counts.
  [[nodiscard]] bool holds(std::uint32_t count, std::size_t item_bytes) const {
    return count <= (size_ - pos_) / item_bytes;
  }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// CRC-32 lookup table, generated at compile time (reflected 0xEDB88320).
constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}
constexpr std::array<std::uint32_t, 256> kCrcTable = make_crc_table();

/// Wire bytes of one query in a query-batch payload.
constexpr std::size_t kQueryWireBytes = 13;

// Wire <-> enum maps (the wire bytes are part of the protocol, the enum
// ordinals are not).
bool kind_from_wire(std::uint8_t v, QueryKind* out) {
  switch (v) {
    case 0: *out = QueryKind::kResponse; return true;
    case 1: *out = QueryKind::kResistance; return true;
    default: return false;
  }
}

std::uint8_t kind_to_wire(QueryKind k) {
  return k == QueryKind::kResponse ? 0 : 1;
}

}  // namespace

const char* to_string(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kNeedMore: return "need-more";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadLength: return "bad-length";
    case DecodeStatus::kBadCrc: return "bad-crc";
  }
  return "?";
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i)
    c = kCrcTable[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> encode_frame(
    Opcode opcode, std::uint64_t request_id,
    const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderBytes + payload.size());
  put_u32(out, kMagic);
  put_u16(out, kProtocolVersion);
  put_u16(out, static_cast<std::uint16_t>(opcode));
  put_u64(out, request_id);
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u32(out, crc32(payload.data(), payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void FrameBuffer::append(const std::uint8_t* data, std::size_t len) {
  buffer_.insert(buffer_.end(), data, data + len);
}

DecodeStatus FrameBuffer::next(Frame* out) {
  if (error_ != DecodeStatus::kOk) return error_;
  const std::size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return DecodeStatus::kNeedMore;
  const std::uint8_t* h = buffer_.data() + consumed_;

  // Header validation happens before the payload is awaited: an attacker
  // cannot make the decoder buffer toward a bogus 4 GiB length.
  if (read_u32(h) != kMagic) return error_ = DecodeStatus::kBadMagic;
  if (read_u16(h + 4) != kProtocolVersion)
    return error_ = DecodeStatus::kBadVersion;
  const std::uint32_t payload_len = read_u32(h + 16);
  if (payload_len > kMaxPayloadBytes) return error_ = DecodeStatus::kBadLength;
  if (avail < kHeaderBytes + payload_len) return DecodeStatus::kNeedMore;

  const std::uint8_t* payload = h + kHeaderBytes;
  if (crc32(payload, payload_len) != read_u32(h + 20))
    return error_ = DecodeStatus::kBadCrc;

  out->opcode = read_u16(h + 6);
  out->request_id = read_u64(h + 8);
  out->payload.assign(payload, payload + payload_len);
  consumed_ += kHeaderBytes + payload_len;
  // Compact once the consumed prefix dominates, keeping the buffer O(one
  // partial frame) on long-lived connections.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return DecodeStatus::kOk;
}

// ---------------------------------------------------------------- payloads

std::vector<std::uint8_t> encode_query_batch(const QueryBatchRequest& req) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + req.queries.size() * kQueryWireBytes);
  put_u32(out, static_cast<std::uint32_t>(req.queries.size()));
  for (const PortQuery& q : req.queries) {
    out.push_back(kind_to_wire(q.kind));
    std::uint32_t p = 0, qq = 0;
    std::memcpy(&p, &q.p, sizeof(p));
    std::memcpy(&qq, &q.q, sizeof(qq));
    put_u32(out, p);
    put_u32(out, qq);
    put_u32(out, q.policy.deadline_us);
  }
  return out;
}

bool decode_query_batch(const std::vector<std::uint8_t>& payload,
                        QueryBatchRequest* out) {
  Cursor c(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!c.read_u32(&count) || count == 0 || count > kMaxBatchItems ||
      !c.holds(count, kQueryWireBytes))
    return false;
  out->queries.clear();
  out->queries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint8_t kind = 0;
    PortQuery q;
    if (!c.read_u8(&kind) || !kind_from_wire(kind, &q.kind)) return false;
    if (!c.read_i32(&q.p) || !c.read_i32(&q.q)) return false;
    if (!c.read_u32(&q.policy.deadline_us)) return false;
    out->queries.push_back(q);
  }
  return c.done();
}

std::vector<std::uint8_t> encode_modification(const WireModification& mod) {
  std::vector<std::uint8_t> out;
  out.reserve(4 + mod.dirty_blocks.size() * 4 + 8);
  put_u32(out, static_cast<std::uint32_t>(mod.dirty_blocks.size()));
  for (index_t b : mod.dirty_blocks) {
    std::uint32_t u = 0;
    std::memcpy(&u, &b, sizeof(u));
    put_u32(out, u);
  }
  put_f64(out, mod.resistance_scale);
  return out;
}

bool decode_modification(const std::vector<std::uint8_t>& payload,
                         WireModification* out) {
  Cursor c(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!c.read_u32(&count) || count == 0 || count > kMaxBatchItems ||
      !c.holds(count, 4))
    return false;
  out->dirty_blocks.clear();
  out->dirty_blocks.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int32_t b = 0;
    if (!c.read_i32(&b)) return false;
    out->dirty_blocks.push_back(b);
  }
  if (!c.read_f64(&out->resistance_scale)) return false;
  // A non-finite or non-positive scale would poison every later model
  // version; reject it at the boundary.
  if (!std::isfinite(out->resistance_scale) || out->resistance_scale <= 0.0)
    return false;
  return c.done();
}

std::vector<std::uint8_t> encode_answer(const AnswerReply& reply) {
  std::vector<std::uint8_t> out;
  out.reserve(8 + 4 + reply.answers.size() * 8);
  put_u64(out, reply.snapshot_version);
  put_u32(out, static_cast<std::uint32_t>(reply.answers.size()));
  for (real_t a : reply.answers) put_f64(out, a);
  return out;
}

bool decode_answer(const std::vector<std::uint8_t>& payload,
                   AnswerReply* out) {
  Cursor c(payload.data(), payload.size());
  std::uint32_t count = 0;
  if (!c.read_u64(&out->snapshot_version)) return false;
  if (!c.read_u32(&count) || count > kMaxBatchItems || !c.holds(count, 8))
    return false;
  out->answers.clear();
  out->answers.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    double a = 0.0;
    if (!c.read_f64(&a)) return false;
    out->answers.push_back(a);
  }
  return c.done();
}

std::vector<std::uint8_t> encode_stats(const StatsReply& reply) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + 8 * 8 + 4);
  out.push_back(reply.has_version ? 1 : 0);
  put_u64(out, reply.snapshot_version);
  put_u64(out, reply.publishes);
  put_u64(out, reply.connections_accepted);
  put_u64(out, reply.connections_rejected);
  put_u64(out, reply.requests_dispatched);
  put_u64(out, reply.retry_later_sent);
  put_u64(out, reply.mods_applied);
  put_u64(out, reply.bad_frames);
  put_u32(out, reply.queue_depth);
  out.push_back(reply.draining ? 1 : 0);
  return out;
}

bool decode_stats(const std::vector<std::uint8_t>& payload, StatsReply* out) {
  Cursor c(payload.data(), payload.size());
  std::uint8_t has_version = 0, draining = 0;
  if (!c.read_u8(&has_version) || has_version > 1) return false;
  out->has_version = has_version != 0;
  if (!c.read_u64(&out->snapshot_version)) return false;
  if (!c.read_u64(&out->publishes)) return false;
  if (!c.read_u64(&out->connections_accepted)) return false;
  if (!c.read_u64(&out->connections_rejected)) return false;
  if (!c.read_u64(&out->requests_dispatched)) return false;
  if (!c.read_u64(&out->retry_later_sent)) return false;
  if (!c.read_u64(&out->mods_applied)) return false;
  if (!c.read_u64(&out->bad_frames)) return false;
  if (!c.read_u32(&out->queue_depth)) return false;
  if (!c.read_u8(&draining) || draining > 1) return false;
  out->draining = draining != 0;
  return c.done();
}

std::vector<std::uint8_t> encode_error(const ErrorReply& reply) {
  std::vector<std::uint8_t> out;
  std::string message = reply.message;
  if (message.size() > kMaxErrorBytes) message.resize(kMaxErrorBytes);
  out.reserve(8 + message.size());
  put_u32(out, static_cast<std::uint32_t>(reply.code));
  put_u32(out, static_cast<std::uint32_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

bool decode_error(const std::vector<std::uint8_t>& payload, ErrorReply* out) {
  Cursor c(payload.data(), payload.size());
  std::uint32_t code = 0, len = 0;
  if (!c.read_u32(&code) || code < 1 ||
      code > static_cast<std::uint32_t>(ErrorCode::kInternal))
    return false;
  out->code = static_cast<ErrorCode>(code);
  if (!c.read_u32(&len) || len > kMaxErrorBytes) return false;
  if (!c.read_bytes(len, &out->message)) return false;
  return c.done();
}

}  // namespace er::net
