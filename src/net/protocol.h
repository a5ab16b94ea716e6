// Wire protocol of the network serving front end (KvServer / KvClient).
//
// Length-prefixed binary frames over a byte stream (TCP or a Unix-domain
// socket). Every frame is a fixed 24-byte header followed by `payload_len`
// payload bytes:
//
//   offset size field
//   0      4    magic       0x4B565344 — the bytes "DSVK" on the wire
//   4      1    version     kProtocolVersion (1)
//   5      1    type        MsgType
//   6      2    flags       FrameFlags bitset
//   8      8    request_id  echoed verbatim in the response
//   16     4    payload_len bytes following the header (bounded)
//   20     4    crc         CRC32C over the header (crc field zeroed) and
//                           the payload — torn or corrupt frames never
//                           decode
//
// Integers are little-endian (the store targets x86; encode/decode go
// through memcpy, so unaligned access is never performed).
//
// Connection contract:
//   * handshake first: the client sends kHello {tenant_id, weight}; the
//     server answers kHelloAck {shard_count, max_ops}. Any other frame
//     before the handshake is a protocol error.
//   * pipelining: after the handshake the client may keep any number of
//     kRequest frames in flight; the server answers each with exactly one
//     kResponse carrying the same request_id, in *completion* order —
//     responses are matched by id, not by position.
//   * a request's ops map 1:1 onto api::Op / api::Status arrays: the
//     batch runs through ShardedStore::SubmitExecute with the frame's
//     relative deadline, so MultiExecute's ordering contract (same-type
//     order preserved, searches run before writes within a batch) holds
//     per frame.
//   * backpressure is a *response*, never a dropped connection: ops that
//     hit a full shard queue (kUnavailable) or an expired deadline
//     (kTimeout) come back with those statuses, and the response header
//     carries kFlagRetryAfter plus an advisory retry_after_us.
//   * malformed frames (bad magic/version/type, oversized or undersized
//     payload, CRC mismatch) close the connection; there is nothing
//     trustworthy left to resynchronize on in a byte stream.

#ifndef DASH_PM_NET_PROTOCOL_H_
#define DASH_PM_NET_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <vector>

#include "api/status.h"

namespace dash::net {

inline constexpr uint32_t kMagic = 0x4B565344u;  // "DSVK"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kHeaderSize = 24;

// Hard bound on ops per request frame; larger batches gain nothing (the
// adapter chunks at 256) and an attacker-controlled length must not size
// an allocation.
inline constexpr uint32_t kMaxOpsPerRequest = 4096;

enum class MsgType : uint8_t {
  kHello = 1,     // client -> server, first frame on a connection
  kHelloAck = 2,  // server -> client
  kRequest = 3,   // client -> server op batch
  kResponse = 4,  // server -> client, one per request, matched by id
};

// Header flag bits.
inline constexpr uint16_t kFlagRetryAfter = 1u << 0;  // responses only

struct FrameHeader {
  uint32_t magic = kMagic;
  uint8_t version = kProtocolVersion;
  uint8_t type = 0;
  uint16_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint32_t crc = 0;
};

// Payload encodings (all little-endian, packed):
//   kHello:    u64 tenant_id, u32 weight, u32 reserved        (16 bytes)
//   kHelloAck: u32 shard_count, u32 max_ops                   (8 bytes)
//   kRequest:  u64 deadline_us (0 = none), u32 count, u32 reserved,
//              count x { u8 op_type, u64 key, u64 value }     (16 + 17n)
//   kResponse: u32 retry_after_us, u32 count,
//              count x { u8 status, u64 value }               (8 + 9n)
inline constexpr size_t kHelloPayload = 16;
inline constexpr size_t kHelloAckPayload = 8;
inline constexpr size_t kRequestOpBytes = 17;
inline constexpr size_t kResponseOpBytes = 9;
inline constexpr size_t kMaxPayload =
    16 + kRequestOpBytes * static_cast<size_t>(kMaxOpsPerRequest);

// CRC32C (Castagnoli). Uses the SSE4.2 crc32 instruction when the CPU has
// it (checked once at run time) and a table-driven loop otherwise; both
// produce the same values.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

// Receive buffer: a byte vector whose resize() leaves the new bytes
// uninitialised, so growing it ahead of a read() costs no memset of bytes
// the kernel is about to overwrite. Only value-initialisation changes:
// construction with arguments falls back to std::allocator_traits.
template <typename T>
struct UninitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = UninitAllocator<U>;
  };
  UninitAllocator() = default;
  template <typename U>
  UninitAllocator(const UninitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
};
using RecvBuffer = std::vector<uint8_t, UninitAllocator<uint8_t>>;

// ---- encoding ----
// Appenders serialize one complete frame (header + payload + CRC) onto
// `out`; the buffer can accumulate many frames for one writev-style send.

void AppendHello(std::vector<uint8_t>* out, uint64_t tenant_id,
                 uint32_t weight);
void AppendHelloAck(std::vector<uint8_t>* out, uint32_t shard_count,
                    uint32_t max_ops);
void AppendRequest(std::vector<uint8_t>* out, uint64_t request_id,
                   const api::Op* ops, size_t count, uint64_t deadline_us);
// `values[i]` is returned for searches (taken from ops[i].value after the
// batch ran); statuses map 1:1. retry_after_us != 0 sets kFlagRetryAfter.
void AppendResponse(std::vector<uint8_t>* out, uint64_t request_id,
                    const api::Status* statuses, const uint64_t* values,
                    size_t count, uint32_t retry_after_us);

// ---- decoding ----

enum class DecodeResult : uint8_t {
  kNeedMore,  // the buffer holds a frame prefix; read more bytes
  kFrame,     // one well-formed frame decoded; *consumed bytes eaten
  kBad,       // malformed (magic/version/type/length/CRC) — close the
              // connection
};

// One decoded frame: validated header plus a borrowed payload span into
// the caller's receive buffer (valid until the buffer moves).
struct Frame {
  FrameHeader header;
  const uint8_t* payload = nullptr;
};

// Scans the front of [data, data+len) for one frame. On kFrame sets *out
// and *consumed (header + payload bytes). Validates magic, version, type
// range, payload_len bound, and the frame CRC before reporting kFrame.
DecodeResult DecodeFrame(const uint8_t* data, size_t len, Frame* out,
                         size_t* consumed);

// Typed payload views. Each Parse* checks the frame type and the exact
// payload size; false means protocol error (close the connection).

struct HelloView {
  uint64_t tenant_id = 0;
  uint32_t weight = 1;
};
bool ParseHello(const Frame& frame, HelloView* out);

struct HelloAckView {
  uint32_t shard_count = 0;
  uint32_t max_ops = 0;
};
bool ParseHelloAck(const Frame& frame, HelloAckView* out);

struct RequestView {
  uint64_t deadline_us = 0;
  uint32_t count = 0;
  const uint8_t* ops = nullptr;  // count x kRequestOpBytes
};
bool ParseRequest(const Frame& frame, RequestView* out);
// Decodes op i of a parsed request. Returns false on an out-of-range op
// type byte (protocol error).
bool DecodeRequestOp(const RequestView& request, size_t i, api::Op* out);

struct ResponseView {
  uint32_t retry_after_us = 0;
  uint32_t count = 0;
  const uint8_t* entries = nullptr;  // count x kResponseOpBytes
};
bool ParseResponse(const Frame& frame, ResponseView* out);
// Decodes entry i. Status bytes beyond the enum range fail (false).
bool DecodeResponseEntry(const ResponseView& response, size_t i,
                         api::Status* status, uint64_t* value);

}  // namespace dash::net

#endif  // DASH_PM_NET_PROTOCOL_H_
