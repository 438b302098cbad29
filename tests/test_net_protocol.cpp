// Wire-protocol codec tests (DESIGN.md §8): randomized round-trip
// properties (encode -> decode is bit-identical, including f64 payloads,
// at any fragmentation granularity) and an adversarial-frame suite —
// truncated headers, oversized declared lengths, bad magic/version/CRC,
// zero-length batches, trailing garbage, mutated bytes, item counts the
// payload cannot hold. Decoders must reject cleanly: no crash, no
// over-read (the ASan/UBSan CI jobs run this suite), no allocation sized
// by an untrusted count, no resynchronization after a fatal framing error.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "net/protocol.hpp"
#include "util/rng.hpp"

namespace {

// Largest single operator-new request made while g_track_allocations is
// set; the decoders' allocation bound is checked against it.
std::atomic<bool> g_track_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};

}  // namespace

void* operator new(std::size_t n) {
  if (g_track_allocations.load(std::memory_order_relaxed)) {
    std::size_t prev = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > prev && !g_largest_allocation.compare_exchange_weak(prev, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace er::net {
namespace {

std::vector<std::uint8_t> u32_bytes(std::uint32_t v) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 4; ++i)
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return out;
}

/// A double with a fully random bit pattern, nudged away from NaN/Inf so
/// == comparison is the same as bit comparison.
double random_finite(Rng& rng) {
  for (;;) {
    std::uint64_t bits = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) return v;
  }
}

QueryBatchRequest random_batch(Rng& rng, std::size_t count) {
  QueryBatchRequest req;
  for (std::size_t i = 0; i < count; ++i) {
    PortQuery q;
    q.kind = rng.bernoulli(0.5) ? QueryKind::kResponse : QueryKind::kResistance;
    q.p = static_cast<index_t>(rng.next_u64());
    q.q = static_cast<index_t>(rng.next_u64());
    // Half the queries carry a deadline; the rest keep the default 0.
    if (rng.bernoulli(0.5))
      q.policy.deadline_us = static_cast<std::uint32_t>(rng.next_u64());
    req.queries.push_back(q);
  }
  return req;
}

TEST(NetProtocolCrc, KnownAnswer) {
  // The zlib/IEEE 802.3 check value for "123456789".
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xCBF43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(NetProtocolRoundTrip, QueryBatchRandomized) {
  Rng rng(11);
  for (int iter = 0; iter < 50; ++iter) {
    const QueryBatchRequest req =
        random_batch(rng, 1 + rng.uniform_index(40));
    QueryBatchRequest back;
    ASSERT_TRUE(decode_query_batch(encode_query_batch(req), &back));
    ASSERT_EQ(back.queries.size(), req.queries.size());
    for (std::size_t i = 0; i < req.queries.size(); ++i) {
      EXPECT_EQ(back.queries[i].kind, req.queries[i].kind);
      EXPECT_EQ(back.queries[i].p, req.queries[i].p);
      EXPECT_EQ(back.queries[i].q, req.queries[i].q);
      EXPECT_EQ(back.queries[i].policy.deadline_us,
                req.queries[i].policy.deadline_us);
    }
  }
}

TEST(NetProtocolRoundTrip, DeadlineRoundTripsAtEveryBitPattern) {
  // Per-query layout: kind u8, p i32, q i32, deadline_us u32 (13 bytes).
  // The deadline is a free u32: every bit pattern survives the round trip.
  QueryBatchRequest req;
  for (std::uint32_t d : {0u, 1u, 40u, 125'000u, 0x80000000u, 0xFFFFFFFFu}) {
    PortQuery q;
    q.p = 3;
    q.q = 7;
    q.policy.deadline_us = d;
    req.queries.push_back(q);
  }
  const std::vector<std::uint8_t> payload = encode_query_batch(req);
  EXPECT_EQ(payload.size(), 4 + req.queries.size() * 13);
  QueryBatchRequest back;
  ASSERT_TRUE(decode_query_batch(payload, &back));
  ASSERT_EQ(back.queries.size(), req.queries.size());
  for (std::size_t i = 0; i < req.queries.size(); ++i)
    EXPECT_EQ(back.queries[i].policy.deadline_us,
              req.queries[i].policy.deadline_us)
        << "query " << i;
}

TEST(NetProtocolRoundTrip, ModificationRandomized) {
  Rng rng(12);
  for (int iter = 0; iter < 50; ++iter) {
    WireModification mod;
    const std::size_t count = 1 + rng.uniform_index(30);
    for (std::size_t i = 0; i < count; ++i)
      mod.dirty_blocks.push_back(static_cast<index_t>(rng.uniform_index(1u << 20)));
    mod.resistance_scale = 0.25 + rng.uniform();
    WireModification back;
    ASSERT_TRUE(decode_modification(encode_modification(mod), &back));
    EXPECT_EQ(back.dirty_blocks, mod.dirty_blocks);
    // Bit-identical, not approximately-equal.
    EXPECT_EQ(std::memcmp(&back.resistance_scale, &mod.resistance_scale,
                          sizeof(real_t)),
              0);
  }
}

TEST(NetProtocolRoundTrip, AnswerBitPatterns) {
  Rng rng(13);
  AnswerReply reply;
  reply.snapshot_version = rng.next_u64();
  // Exercise awkward doubles explicitly: ±0, denormals, huge, tiny.
  reply.answers = {0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                   -2.2250738585072014e-308};
  for (int i = 0; i < 64; ++i) reply.answers.push_back(random_finite(rng));
  AnswerReply back;
  ASSERT_TRUE(decode_answer(encode_answer(reply), &back));
  EXPECT_EQ(back.snapshot_version, reply.snapshot_version);
  ASSERT_EQ(back.answers.size(), reply.answers.size());
  EXPECT_EQ(std::memcmp(back.answers.data(), reply.answers.data(),
                        reply.answers.size() * sizeof(real_t)),
            0);
}

TEST(NetProtocolRoundTrip, EmptyAnswerIsValid) {
  // Unlike requests, an answer may carry zero values (e.g. future no-op
  // replies); the decoder accepts count = 0.
  AnswerReply reply;
  reply.snapshot_version = 7;
  AnswerReply back;
  ASSERT_TRUE(decode_answer(encode_answer(reply), &back));
  EXPECT_TRUE(back.answers.empty());
  EXPECT_EQ(back.snapshot_version, 7u);
}

TEST(NetProtocolRoundTrip, StatsAndError) {
  StatsReply s;
  s.has_version = true;
  s.snapshot_version = 41;
  s.publishes = 42;
  s.connections_accepted = 5;
  s.connections_rejected = 1;
  s.requests_dispatched = 99;
  s.retry_later_sent = 3;
  s.mods_applied = 17;
  s.bad_frames = 2;
  s.queue_depth = 8;
  s.draining = true;
  StatsReply sb;
  ASSERT_TRUE(decode_stats(encode_stats(s), &sb));
  EXPECT_EQ(sb.snapshot_version, 41u);
  EXPECT_EQ(sb.publishes, 42u);
  EXPECT_EQ(sb.retry_later_sent, 3u);
  EXPECT_EQ(sb.queue_depth, 8u);
  EXPECT_TRUE(sb.has_version);
  EXPECT_TRUE(sb.draining);

  ErrorReply e;
  e.code = ErrorCode::kNoModel;
  e.message = "nothing published";
  ErrorReply eb;
  ASSERT_TRUE(decode_error(encode_error(e), &eb));
  EXPECT_EQ(eb.code, ErrorCode::kNoModel);
  EXPECT_EQ(eb.message, "nothing published");
}

TEST(NetProtocolFraming, ByteAtATimeRoundTrip) {
  Rng rng(14);
  const QueryBatchRequest req = random_batch(rng, 9);
  const std::vector<std::uint8_t> wire =
      encode_frame(Opcode::kErBatch, 0xDEADBEEFCAFEBABEull,
                   encode_query_batch(req));
  FrameBuffer buf;
  Frame frame;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    buf.append(&wire[i], 1);
    ASSERT_EQ(buf.next(&frame), DecodeStatus::kNeedMore) << "at byte " << i;
  }
  buf.append(&wire.back(), 1);
  ASSERT_EQ(buf.next(&frame), DecodeStatus::kOk);
  EXPECT_EQ(frame.opcode, static_cast<std::uint16_t>(Opcode::kErBatch));
  EXPECT_EQ(frame.request_id, 0xDEADBEEFCAFEBABEull);
  QueryBatchRequest back;
  ASSERT_TRUE(decode_query_batch(frame.payload, &back));
  ASSERT_EQ(back.queries.size(), req.queries.size());
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kNeedMore);
}

TEST(NetProtocolFraming, PolicyFrameSplitAcrossThreeFeeds) {
  // A deadline-bearing frame delivered in three fragments: the first two
  // feeds end mid-header / mid-payload, the third completes the frame and
  // every deadline survives intact.
  Rng rng(22);
  QueryBatchRequest req = random_batch(rng, 6);
  req.queries[0].policy.deadline_us = 125'000u;
  req.queries[5].policy.deadline_us = 40u;
  const std::vector<std::uint8_t> wire =
      encode_frame(Opcode::kErBatch, 31, encode_query_batch(req));
  const std::size_t cut1 = kHeaderBytes / 2;      // mid-header
  const std::size_t cut2 = kHeaderBytes + 7;      // mid-payload
  ASSERT_LT(cut2, wire.size());
  FrameBuffer buf;
  Frame frame;
  buf.append(wire.data(), cut1);
  ASSERT_EQ(buf.next(&frame), DecodeStatus::kNeedMore);
  buf.append(wire.data() + cut1, cut2 - cut1);
  ASSERT_EQ(buf.next(&frame), DecodeStatus::kNeedMore);
  buf.append(wire.data() + cut2, wire.size() - cut2);
  ASSERT_EQ(buf.next(&frame), DecodeStatus::kOk);
  QueryBatchRequest back;
  ASSERT_TRUE(decode_query_batch(frame.payload, &back));
  ASSERT_EQ(back.queries.size(), req.queries.size());
  for (std::size_t i = 0; i < back.queries.size(); ++i)
    EXPECT_EQ(back.queries[i].policy.deadline_us,
              req.queries[i].policy.deadline_us);
}

TEST(NetProtocolFraming, OlderDialectFramesAreStickyBadVersion) {
  // v1/v2 frames from old clients fail framing from the header alone; the
  // error is sticky, so a well-formed frame appended afterwards is never
  // decoded from the desynchronized stream.
  Rng rng(23);
  const std::vector<std::uint8_t> good =
      encode_frame(Opcode::kErBatch, 8, encode_query_batch(random_batch(rng, 4)));
  for (std::uint8_t old_version : {1, 2}) {
    std::vector<std::uint8_t> wire = good;
    wire[4] = old_version;
    wire[5] = 0;
    FrameBuffer buf;
    buf.append(wire.data(), wire.size());
    buf.append(good.data(), good.size());
    Frame frame;
    EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadVersion)
        << "version " << int{old_version};
    EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadVersion);
  }
}

TEST(NetProtocolFraming, MultipleFramesOneAppend) {
  std::vector<std::uint8_t> wire = encode_frame(Opcode::kStats, 1, {});
  const std::vector<std::uint8_t> second =
      encode_frame(Opcode::kModAck, 2, {});
  wire.insert(wire.end(), second.begin(), second.end());
  FrameBuffer buf;
  buf.append(wire.data(), wire.size());
  Frame frame;
  ASSERT_EQ(buf.next(&frame), DecodeStatus::kOk);
  EXPECT_EQ(frame.request_id, 1u);
  ASSERT_EQ(buf.next(&frame), DecodeStatus::kOk);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kNeedMore);
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(NetProtocolFraming, LongLivedBufferCompacts) {
  // Enough traffic to cross the internal compaction threshold; the
  // decoder must keep producing correct frames throughout.
  FrameBuffer buf;
  Frame frame;
  const std::vector<std::uint8_t> payload(300, 0x5A);
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::vector<std::uint8_t> wire =
        encode_frame(Opcode::kErBatch, id, payload);
    buf.append(wire.data(), wire.size());
    ASSERT_EQ(buf.next(&frame), DecodeStatus::kOk);
    EXPECT_EQ(frame.request_id, id);
    ASSERT_EQ(frame.payload.size(), payload.size());
  }
  EXPECT_EQ(buf.pending_bytes(), 0u);
}

TEST(NetProtocolFraming, TruncatedHeaderNeedsMore) {
  const std::vector<std::uint8_t> wire = encode_frame(Opcode::kStats, 9, {});
  FrameBuffer buf;
  buf.append(wire.data(), kHeaderBytes - 1);
  Frame frame;
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kNeedMore);
}

TEST(NetProtocolFraming, BadMagicIsSticky) {
  std::vector<std::uint8_t> wire = encode_frame(Opcode::kStats, 9, {});
  wire[0] ^= 0xFF;
  FrameBuffer buf;
  buf.append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadMagic);
  // A valid frame appended afterwards cannot resynchronize the stream.
  const std::vector<std::uint8_t> good = encode_frame(Opcode::kStats, 10, {});
  buf.append(good.data(), good.size());
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadMagic);
}

TEST(NetProtocolFraming, BadVersionRejected) {
  std::vector<std::uint8_t> wire = encode_frame(Opcode::kStats, 9, {});
  wire[4] = 0x7F;
  FrameBuffer buf;
  buf.append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadVersion);
}

TEST(NetProtocolFraming, OversizedLengthRejectedFromHeaderAlone) {
  // Declare kMaxPayloadBytes + 1 but send only the header: the decoder
  // must reject without waiting for (or buffering toward) the payload.
  std::vector<std::uint8_t> wire = encode_frame(Opcode::kErBatch, 9, {});
  const std::vector<std::uint8_t> len = u32_bytes(kMaxPayloadBytes + 1);
  std::memcpy(wire.data() + 16, len.data(), 4);
  FrameBuffer buf;
  buf.append(wire.data(), kHeaderBytes);
  Frame frame;
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadLength);
}

TEST(NetProtocolFraming, CorruptPayloadFailsCrc) {
  const std::vector<std::uint8_t> payload(32, 0x11);
  std::vector<std::uint8_t> wire = encode_frame(Opcode::kErBatch, 9, payload);
  wire[kHeaderBytes + 7] ^= 0x01;  // one flipped payload bit
  FrameBuffer buf;
  buf.append(wire.data(), wire.size());
  Frame frame;
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadCrc);
}

TEST(NetProtocolFraming, MutatedFramesNeverCrash) {
  // Single-byte mutations anywhere in a valid frame: every outcome must
  // be a clean status. Header mutations in the length field may
  // legitimately report kNeedMore (a longer-but-bounded declared
  // payload); everything else must resolve. ASan/UBSan patrol the
  // no-over-read part.
  Rng rng(15);
  const std::vector<std::uint8_t> base =
      encode_frame(Opcode::kErBatch, 77,
                   encode_query_batch(random_batch(rng, 5)));
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::uint8_t> wire = base;
    const std::size_t pos = rng.uniform_index(wire.size());
    wire[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
    FrameBuffer buf;
    buf.append(wire.data(), wire.size());
    Frame frame;
    const DecodeStatus st = buf.next(&frame);
    if (st == DecodeStatus::kOk) {
      // Only a mutation of opcode / request id (not covered by the CRC)
      // can still decode as a frame.
      EXPECT_TRUE((pos >= 6 && pos < 16))
          << "byte " << pos << " mutated but frame decoded";
      QueryBatchRequest req;
      (void)decode_query_batch(frame.payload, &req);  // must not crash
    }
  }
}

TEST(NetProtocolPayload, QueryBatchRejectsMalformed) {
  Rng rng(16);
  const QueryBatchRequest req = random_batch(rng, 4);
  const std::vector<std::uint8_t> good = encode_query_batch(req);
  QueryBatchRequest out;

  std::vector<std::uint8_t> zero = good;
  std::memset(zero.data(), 0, 4);  // count = 0
  EXPECT_FALSE(decode_query_batch(zero, &out));

  std::vector<std::uint8_t> huge = good;
  const std::vector<std::uint8_t> count = u32_bytes(kMaxBatchItems + 1);
  std::memcpy(huge.data(), count.data(), 4);
  EXPECT_FALSE(decode_query_batch(huge, &out));

  std::vector<std::uint8_t> truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(decode_query_batch(truncated, &out));

  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0);
  EXPECT_FALSE(decode_query_batch(trailing, &out));

  std::vector<std::uint8_t> bad_kind = good;
  bad_kind[4] = 9;  // first query's kind byte
  EXPECT_FALSE(decode_query_batch(bad_kind, &out));

  EXPECT_FALSE(decode_query_batch({}, &out));
}

TEST(NetProtocolFraming, RouteByteDialectIsStickyBadVersion) {
  // A version-3 frame (its batch payload led with a route byte) fails
  // framing from the header alone, before its payload is read; the error
  // is sticky, so a current frame appended afterwards is never decoded.
  Rng rng(24);
  const QueryBatchRequest req = random_batch(rng, 3);
  std::vector<std::uint8_t> v3_payload{0};  // route byte
  const std::vector<std::uint8_t> body = encode_query_batch(req);
  v3_payload.insert(v3_payload.end(), body.begin(), body.end());
  std::vector<std::uint8_t> wire = encode_frame(Opcode::kErBatch, 5, v3_payload);
  wire[4] = 3;
  wire[5] = 0;
  const std::vector<std::uint8_t> good =
      encode_frame(Opcode::kErBatch, 6, body);
  FrameBuffer buf;
  buf.append(wire.data(), kHeaderBytes);
  Frame frame;
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadVersion);
  buf.append(wire.data() + kHeaderBytes, wire.size() - kHeaderBytes);
  buf.append(good.data(), good.size());
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadVersion);
  EXPECT_EQ(buf.next(&frame), DecodeStatus::kBadVersion);
}

TEST(NetProtocolPayload, EveryTruncationRejected) {
  // Cutting the payload at any byte — inside a kind, an endpoint or a
  // deadline field of any query — fails decoding.
  Rng rng(25);
  const std::vector<std::uint8_t> good =
      encode_query_batch(random_batch(rng, 3));
  QueryBatchRequest out;
  ASSERT_TRUE(decode_query_batch(good, &out));
  for (std::size_t len = 0; len < good.size(); ++len) {
    const std::vector<std::uint8_t> cut(good.begin(),
                                        good.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_FALSE(decode_query_batch(cut, &out)) << "length " << len;
  }
}

/// Largest single allocation while `decode` runs.
template <typename F>
std::size_t largest_allocation_during(F&& decode) {
  g_largest_allocation = 0;
  g_track_allocations = true;
  decode();
  g_track_allocations = false;
  return g_largest_allocation.load();
}

TEST(NetProtocolPayload, DecodersNeverAllocateForAbsentItems) {
  // Short payloads announcing kMaxBatchItems items: each decoder must
  // reject them before sizing anything by the announced count, so no
  // single allocation outgrows a small multiple of the payload itself.
  const auto announce = [](std::vector<std::uint8_t> payload,
                           std::size_t count_at) {
    const std::vector<std::uint8_t> count = u32_bytes(kMaxBatchItems);
    std::memcpy(payload.data() + count_at, count.data(), 4);
    return payload;
  };
  Rng rng(26);
  const std::vector<std::uint8_t> batch =
      announce(encode_query_batch(random_batch(rng, 2)), 0);
  WireModification mod;
  mod.dirty_blocks = {1, 2};
  const std::vector<std::uint8_t> modification =
      announce(encode_modification(mod), 0);
  AnswerReply reply;
  reply.answers = {1.0, 2.0};
  const std::vector<std::uint8_t> answer = announce(encode_answer(reply), 8);

  QueryBatchRequest batch_out;
  WireModification mod_out;
  AnswerReply answer_out;
  bool ok = true;
  const std::size_t batch_bytes = largest_allocation_during(
      [&] { ok = decode_query_batch(batch, &batch_out); });
  EXPECT_FALSE(ok);
  EXPECT_LE(batch_bytes, 4 * batch.size());
  const std::size_t mod_bytes = largest_allocation_during(
      [&] { ok = decode_modification(modification, &mod_out); });
  EXPECT_FALSE(ok);
  EXPECT_LE(mod_bytes, 4 * modification.size());
  const std::size_t answer_bytes = largest_allocation_during(
      [&] { ok = decode_answer(answer, &answer_out); });
  EXPECT_FALSE(ok);
  EXPECT_LE(answer_bytes, 4 * answer.size());
}

TEST(NetProtocolPayload, ModificationRejectsMalformed) {
  WireModification mod;
  mod.dirty_blocks = {0, 3, 5};
  mod.resistance_scale = 1.25;
  const std::vector<std::uint8_t> good = encode_modification(mod);
  WireModification out;
  ASSERT_TRUE(decode_modification(good, &out));

  std::vector<std::uint8_t> zero = good;
  std::memset(zero.data(), 0, 4);  // zero dirty blocks
  EXPECT_FALSE(decode_modification(zero, &out));

  std::vector<std::uint8_t> truncated = good;
  truncated.pop_back();
  EXPECT_FALSE(decode_modification(truncated, &out));

  WireModification nan_scale = mod;
  nan_scale.resistance_scale = std::nan("");
  EXPECT_FALSE(decode_modification(encode_modification(nan_scale), &out));

  WireModification neg_scale = mod;
  neg_scale.resistance_scale = -2.0;
  EXPECT_FALSE(decode_modification(encode_modification(neg_scale), &out));

  EXPECT_FALSE(decode_modification({}, &out));
}

TEST(NetProtocolPayload, ErrorRejectsMalformed) {
  ErrorReply e;
  e.code = ErrorCode::kBadPayload;
  e.message = "x";
  const std::vector<std::uint8_t> good = encode_error(e);
  ErrorReply out;

  std::vector<std::uint8_t> bad_code = good;
  bad_code[0] = 0;
  EXPECT_FALSE(decode_error(bad_code, &out));
  bad_code[0] = 200;
  EXPECT_FALSE(decode_error(bad_code, &out));

  // Declared message length runs past the payload.
  std::vector<std::uint8_t> overlen = good;
  const std::vector<std::uint8_t> len = u32_bytes(1000);
  std::memcpy(overlen.data() + 4, len.data(), 4);
  EXPECT_FALSE(decode_error(overlen, &out));

  // Oversized messages are clamped at encode time, not rejected.
  ErrorReply big;
  big.code = ErrorCode::kInternal;
  big.message.assign(kMaxErrorBytes + 500, 'y');
  ASSERT_TRUE(decode_error(encode_error(big), &out));
  EXPECT_EQ(out.message.size(), kMaxErrorBytes);
}

}  // namespace
}  // namespace er::net
