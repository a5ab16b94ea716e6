// Wire-protocol framing tests: every frame type round-trips through
// encode/decode, truncated and corrupt frames are rejected without ever
// reporting a bogus kFrame, and a randomized fuzz loop hammers the
// decoder with mutated and garbage bytes.

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "net/protocol.h"
#include "util/rand.h"

namespace dash::net {
namespace {

// Decode exactly one frame from `bytes`, expecting success.
Frame MustDecode(const std::vector<uint8_t>& bytes) {
  Frame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), &frame, &consumed),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  return frame;
}

TEST(NetProtocolTest, Crc32cKnownAnswerAndChaining) {
  // RFC 3720 test vector: CRC32C of 32 zero bytes.
  uint8_t zeros[32] = {};
  EXPECT_EQ(Crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
  // Seed chaining composes: crc(A || B) == crc(B, seed=crc(A)).
  const uint8_t data[] = "framing frames for fun and profit";
  const size_t n = sizeof(data);
  const uint32_t whole = Crc32c(data, n);
  const uint32_t part = Crc32c(data + 10, n - 10, Crc32c(data, 10));
  EXPECT_EQ(whole, part);
}

// Bit-at-a-time CRC32C, independent of both implementations in
// protocol.cc.
uint32_t ReferenceCrc32c(const uint8_t* p, size_t len, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc ^= p[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
    }
  }
  return ~crc;
}

// Crc32c (the SSE4.2 instruction where the CPU has it, else the table)
// matches the reference for every length up to past a response frame, at
// every alignment, with each result chained in as the next seed.
TEST(NetProtocolTest, Crc32cMatchesReferenceAtAllLengthsAndAlignments) {
  std::vector<uint8_t> buf(300 + 8);
  util::Xoshiro256 rng(3720);
  for (uint8_t& b : buf) b = static_cast<uint8_t>(rng.Next());
  uint32_t seed = 0;
  for (size_t align = 0; align < 8; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* p = buf.data() + align;
      const uint32_t want = ReferenceCrc32c(p, len, seed);
      ASSERT_EQ(Crc32c(p, len, seed), want)
          << "len " << len << " align " << align;
      seed = want;
    }
  }
}

TEST(NetProtocolTest, HelloRoundTrip) {
  std::vector<uint8_t> bytes;
  AppendHello(&bytes, /*tenant_id=*/42, /*weight=*/7);
  const Frame frame = MustDecode(bytes);
  HelloView hello;
  ASSERT_TRUE(ParseHello(frame, &hello));
  EXPECT_EQ(hello.tenant_id, 42u);
  EXPECT_EQ(hello.weight, 7u);
  // Weight 0 normalizes to 1 (a zero-weight tenant would starve forever).
  bytes.clear();
  AppendHello(&bytes, 1, 0);
  ASSERT_TRUE(ParseHello(MustDecode(bytes), &hello));
  EXPECT_EQ(hello.weight, 1u);
}

TEST(NetProtocolTest, HelloAckRoundTrip) {
  std::vector<uint8_t> bytes;
  AppendHelloAck(&bytes, /*shard_count=*/8, /*max_ops=*/kMaxOpsPerRequest);
  HelloAckView ack;
  ASSERT_TRUE(ParseHelloAck(MustDecode(bytes), &ack));
  EXPECT_EQ(ack.shard_count, 8u);
  EXPECT_EQ(ack.max_ops, kMaxOpsPerRequest);
}

TEST(NetProtocolTest, RequestRoundTripAllOpTypes) {
  const api::Op ops[] = {
      api::Op::Search(11),
      api::Op::Insert(22, 222),
      api::Op::Update(33, 333),
      api::Op::Delete(44),
  };
  std::vector<uint8_t> bytes;
  AppendRequest(&bytes, /*request_id=*/0xDEADBEEFCAFEull, ops, 4,
                /*deadline_us=*/1500);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.header.request_id, 0xDEADBEEFCAFEull);
  RequestView view;
  ASSERT_TRUE(ParseRequest(frame, &view));
  EXPECT_EQ(view.deadline_us, 1500u);
  ASSERT_EQ(view.count, 4u);
  for (size_t i = 0; i < 4; ++i) {
    api::Op op;
    ASSERT_TRUE(DecodeRequestOp(view, i, &op));
    EXPECT_EQ(op.type, ops[i].type);
    EXPECT_EQ(op.key, ops[i].key);
    EXPECT_EQ(op.value, ops[i].value);
  }
}

TEST(NetProtocolTest, ResponseRoundTripAllStatuses) {
  const api::Status statuses[] = {
      api::Status::kOk,         api::Status::kNotFound,
      api::Status::kExists,     api::Status::kInvalidArgument,
      api::Status::kOutOfSpace, api::Status::kInternal,
      api::Status::kUnavailable, api::Status::kTimeout,
  };
  constexpr size_t kN = sizeof(statuses) / sizeof(statuses[0]);
  uint64_t values[kN];
  for (size_t i = 0; i < kN; ++i) values[i] = i * 1000;
  std::vector<uint8_t> bytes;
  AppendResponse(&bytes, /*request_id=*/9, statuses, values, kN,
                 /*retry_after_us=*/250);
  const Frame frame = MustDecode(bytes);
  EXPECT_EQ(frame.header.request_id, 9u);
  EXPECT_NE(frame.header.flags & kFlagRetryAfter, 0);
  ResponseView view;
  ASSERT_TRUE(ParseResponse(frame, &view));
  EXPECT_EQ(view.retry_after_us, 250u);
  ASSERT_EQ(view.count, kN);
  for (size_t i = 0; i < kN; ++i) {
    api::Status status;
    uint64_t value;
    ASSERT_TRUE(DecodeResponseEntry(view, i, &status, &value));
    EXPECT_EQ(status, statuses[i]);
    EXPECT_EQ(value, values[i]);
  }
  // No retry hint -> flag clear.
  bytes.clear();
  AppendResponse(&bytes, 10, statuses, values, kN, 0);
  EXPECT_EQ(MustDecode(bytes).header.flags & kFlagRetryAfter, 0);
}

TEST(NetProtocolTest, TruncatedFramesNeedMore) {
  std::vector<uint8_t> bytes;
  AppendRequest(&bytes, 1, nullptr, 0, 0);
  Frame frame;
  size_t consumed = 0;
  // Every strict prefix of a valid frame asks for more bytes.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_EQ(DecodeFrame(bytes.data(), len, &frame, &consumed),
              DecodeResult::kNeedMore)
        << "prefix " << len;
  }
}

TEST(NetProtocolTest, BadMagicVersionTypeLengthRejected) {
  std::vector<uint8_t> good;
  AppendHello(&good, 1, 1);
  Frame frame;
  size_t consumed = 0;

  std::vector<uint8_t> bad = good;
  bad[0] ^= 0xFF;  // magic
  EXPECT_EQ(DecodeFrame(bad.data(), bad.size(), &frame, &consumed),
            DecodeResult::kBad);

  bad = good;
  bad[4] = kProtocolVersion + 1;  // version
  EXPECT_EQ(DecodeFrame(bad.data(), bad.size(), &frame, &consumed),
            DecodeResult::kBad);

  bad = good;
  bad[5] = 0;  // type below range
  EXPECT_EQ(DecodeFrame(bad.data(), bad.size(), &frame, &consumed),
            DecodeResult::kBad);
  bad[5] = 5;  // type above range
  EXPECT_EQ(DecodeFrame(bad.data(), bad.size(), &frame, &consumed),
            DecodeResult::kBad);

  // Oversized payload_len is rejected from the header alone — no amount
  // of further bytes makes it valid (allocation-bomb guard).
  bad = good;
  const uint32_t huge = static_cast<uint32_t>(kMaxPayload) + 1;
  std::memcpy(bad.data() + 16, &huge, 4);
  EXPECT_EQ(DecodeFrame(bad.data(), bad.size(), &frame, &consumed),
            DecodeResult::kBad);
}

TEST(NetProtocolTest, CrcCorruptionRejected) {
  std::vector<uint8_t> good;
  const api::Op ops[] = {api::Op::Insert(7, 77)};
  AppendRequest(&good, 3, ops, 1, 0);
  Frame frame;
  size_t consumed = 0;
  // Flip each byte in turn (skipping none): every single-byte corruption
  // must be caught by header validation or the CRC.
  for (size_t i = 0; i < good.size(); ++i) {
    std::vector<uint8_t> bad = good;
    bad[i] ^= 0x01;
    EXPECT_NE(DecodeFrame(bad.data(), bad.size(), &frame, &consumed),
              DecodeResult::kFrame)
        << "byte " << i;
  }
}

TEST(NetProtocolTest, PayloadSizeMismatchRejectedByParsers) {
  // A frame can be CRC-valid yet carry a payload whose size disagrees
  // with its type's layout; the typed parsers catch that.
  std::vector<uint8_t> bytes;
  AppendHello(&bytes, 1, 1);
  Frame frame = MustDecode(bytes);
  HelloAckView ack;
  RequestView request;
  EXPECT_FALSE(ParseHelloAck(frame, &ack));   // wrong type
  EXPECT_FALSE(ParseRequest(frame, &request));  // wrong type

  // Request whose count field disagrees with payload_len.
  bytes.clear();
  const api::Op ops[] = {api::Op::Search(1), api::Op::Search(2)};
  AppendRequest(&bytes, 1, ops, 2, 0);
  // Patch count 2 -> 1 and re-CRC so only the parser can object.
  uint32_t one = 1;
  std::memcpy(bytes.data() + kHeaderSize + 8, &one, 4);
  std::memset(bytes.data() + 20, 0, 4);
  const uint32_t crc = Crc32c(bytes.data(), bytes.size());
  std::memcpy(bytes.data() + 20, &crc, 4);
  frame = MustDecode(bytes);
  EXPECT_FALSE(ParseRequest(frame, &request));
}

TEST(NetProtocolTest, BadOpTypeAndStatusBytesRejected) {
  std::vector<uint8_t> bytes;
  const api::Op ops[] = {api::Op::Search(5)};
  AppendRequest(&bytes, 1, ops, 1, 0);
  // Op type byte out of range, re-CRCed.
  bytes[kHeaderSize + 16] = 200;
  std::memset(bytes.data() + 20, 0, 4);
  uint32_t crc = Crc32c(bytes.data(), bytes.size());
  std::memcpy(bytes.data() + 20, &crc, 4);
  RequestView request;
  ASSERT_TRUE(ParseRequest(MustDecode(bytes), &request));
  api::Op op;
  EXPECT_FALSE(DecodeRequestOp(request, 0, &op));

  bytes.clear();
  const api::Status status = api::Status::kOk;
  const uint64_t value = 0;
  AppendResponse(&bytes, 1, &status, &value, 1, 0);
  bytes[kHeaderSize + 8] = 200;  // status byte out of range
  std::memset(bytes.data() + 20, 0, 4);
  crc = Crc32c(bytes.data(), bytes.size());
  std::memcpy(bytes.data() + 20, &crc, 4);
  ResponseView response;
  ASSERT_TRUE(ParseResponse(MustDecode(bytes), &response));
  api::Status out_status;
  uint64_t out_value;
  EXPECT_FALSE(DecodeResponseEntry(response, 0, &out_status, &out_value));
}

// Multiple frames back to back in one buffer decode in sequence, each
// reporting its own consumed length.
TEST(NetProtocolTest, StreamOfFramesDecodesInSequence) {
  std::vector<uint8_t> bytes;
  AppendHello(&bytes, 1, 1);
  const api::Op op = api::Op::Search(9);
  AppendRequest(&bytes, 2, &op, 1, 0);
  AppendHelloAck(&bytes, 4, 16);

  size_t off = 0;
  std::vector<uint8_t> types;
  while (off < bytes.size()) {
    Frame frame;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes.data() + off, bytes.size() - off, &frame,
                          &consumed),
              DecodeResult::kFrame);
    types.push_back(frame.header.type);
    off += consumed;
  }
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0], static_cast<uint8_t>(MsgType::kHello));
  EXPECT_EQ(types[1], static_cast<uint8_t>(MsgType::kRequest));
  EXPECT_EQ(types[2], static_cast<uint8_t>(MsgType::kHelloAck));
}

// Fuzz loop: random mutations of valid frames and raw garbage. The
// decoder must never report kFrame for a mutated frame whose CRC was not
// re-patched, never read out of bounds (ASan-checked in CI), and always
// consume within the buffer.
TEST(NetProtocolTest, MalformedFrameFuzz) {
  util::Xoshiro256 rng(0xF00DF00Du);
  std::vector<uint8_t> base;
  const api::Op ops[] = {api::Op::Insert(1, 2), api::Op::Search(3),
                         api::Op::Update(4, 5), api::Op::Delete(6)};
  AppendRequest(&base, 77, ops, 4, 123456);

  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<uint8_t> buf = base;
    const int mutations = 1 + static_cast<int>(rng.NextBounded(4));
    for (int m = 0; m < mutations; ++m) {
      buf[rng.NextBounded(buf.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    // Two mutations can land on the same byte and cancel; only assert
    // when the buffer really differs from the valid frame.
    if (std::memcmp(buf.data(), base.data(), buf.size()) == 0) continue;
    Frame frame;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(buf.data(), buf.size(), &frame, &consumed);
    EXPECT_NE(r, DecodeResult::kFrame) << "iter " << iter;
  }

  // Pure garbage of random lengths: decode must stay in bounds and only
  // ever say kNeedMore or kBad.
  for (int iter = 0; iter < 20000; ++iter) {
    const size_t len = rng.NextBounded(128);
    std::vector<uint8_t> buf(len);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.NextBounded(256));
    Frame frame;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(buf.data(), buf.size(), &frame, &consumed);
    EXPECT_NE(r, DecodeResult::kFrame) << "iter " << iter;
  }
}

}  // namespace
}  // namespace dash::net
