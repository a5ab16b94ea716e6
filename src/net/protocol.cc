#include "net/protocol.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace dash::net {

namespace {

// CRC32C (Castagnoli, reflected polynomial 0x82F63B78) lookup table,
// built once at first use.
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& Table() {
  static const Crc32cTable table;
  return table;
}

// Both kernels take and return the running (inverted) CRC register.
uint32_t Crc32cBytewise(const uint8_t* p, size_t len, uint32_t crc) {
  const Crc32cTable& table = Table();
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table.entries[(crc ^ p[i]) & 0xFF];
  }
  return crc;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same Castagnoli CRC, eight
// bytes per instruction; compiled for that target only, and called only
// after the runtime CPU check below.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const uint8_t* p,
                                                       size_t len,
                                                       uint32_t crc) {
  uint64_t crc64 = crc;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc64 = _mm_crc32_u64(crc64, word);
  }
  crc = static_cast<uint32_t>(crc64);
  for (; len > 0; ++p, --len) crc = _mm_crc32_u8(crc, *p);
  return crc;
}
#endif

using Crc32cKernel = uint32_t (*)(const uint8_t*, size_t, uint32_t);

Crc32cKernel SelectCrc32c() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return Crc32cSse42;
#endif
  return Crc32cBytewise;
}

// Little-endian scalar writer/reader via memcpy (no alignment
// assumptions on the buffer). Put returns the byte after the field.
template <typename T>
uint8_t* Put(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

template <typename T>
T Get(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

// Serializes `header` (crc field as given) into 24 bytes at `out`.
void PutHeader(uint8_t* out, const FrameHeader& header) {
  std::memcpy(out + 0, &header.magic, 4);
  out[4] = header.version;
  out[5] = header.type;
  std::memcpy(out + 6, &header.flags, 2);
  std::memcpy(out + 8, &header.request_id, 8);
  std::memcpy(out + 16, &header.payload_len, 4);
  std::memcpy(out + 20, &header.crc, 4);
}

// Grows `out` by one whole frame of `payload_len` payload bytes, writes
// its header with a zero crc field, and returns where the payload starts.
// The caller fills the payload in place, then FinishFrame patches the CRC.
uint8_t* BeginFrame(std::vector<uint8_t>* out, MsgType type, uint16_t flags,
                    uint64_t request_id, size_t payload_len) {
  FrameHeader header;
  header.type = static_cast<uint8_t>(type);
  header.flags = flags;
  header.request_id = request_id;
  header.payload_len = static_cast<uint32_t>(payload_len);
  header.crc = 0;
  const size_t at = out->size();
  out->resize(at + kHeaderSize + payload_len);
  PutHeader(out->data() + at, header);
  return out->data() + at + kHeaderSize;
}

// CRC over the header with a zeroed crc field, then the payload.
void FinishFrame(uint8_t* payload, size_t payload_len) {
  uint8_t* frame = payload - kHeaderSize;
  const uint32_t crc = Crc32c(frame, kHeaderSize + payload_len);
  std::memcpy(frame + 20, &crc, 4);
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  static const Crc32cKernel kernel = SelectCrc32c();
  return ~kernel(static_cast<const uint8_t*>(data), len, ~seed);
}

void AppendHello(std::vector<uint8_t>* out, uint64_t tenant_id,
                 uint32_t weight) {
  uint8_t* const payload =
      BeginFrame(out, MsgType::kHello, 0, 0, kHelloPayload);
  uint8_t* p = Put<uint64_t>(payload, tenant_id);
  p = Put<uint32_t>(p, weight);
  Put<uint32_t>(p, 0);  // reserved
  FinishFrame(payload, kHelloPayload);
}

void AppendHelloAck(std::vector<uint8_t>* out, uint32_t shard_count,
                    uint32_t max_ops) {
  uint8_t* const payload =
      BeginFrame(out, MsgType::kHelloAck, 0, 0, kHelloAckPayload);
  Put<uint32_t>(Put<uint32_t>(payload, shard_count), max_ops);
  FinishFrame(payload, kHelloAckPayload);
}

void AppendRequest(std::vector<uint8_t>* out, uint64_t request_id,
                   const api::Op* ops, size_t count, uint64_t deadline_us) {
  const size_t payload_len = 16 + kRequestOpBytes * count;
  uint8_t* const payload =
      BeginFrame(out, MsgType::kRequest, 0, request_id, payload_len);
  uint8_t* p = Put<uint64_t>(payload, deadline_us);
  p = Put<uint32_t>(p, static_cast<uint32_t>(count));
  p = Put<uint32_t>(p, 0);  // reserved
  for (size_t i = 0; i < count; ++i) {
    p = Put<uint8_t>(p, static_cast<uint8_t>(ops[i].type));
    p = Put<uint64_t>(p, ops[i].key);
    p = Put<uint64_t>(p, ops[i].value);
  }
  FinishFrame(payload, payload_len);
}

void AppendResponse(std::vector<uint8_t>* out, uint64_t request_id,
                    const api::Status* statuses, const uint64_t* values,
                    size_t count, uint32_t retry_after_us) {
  const size_t payload_len = 8 + kResponseOpBytes * count;
  const uint16_t flags = retry_after_us != 0 ? kFlagRetryAfter : 0;
  uint8_t* const payload =
      BeginFrame(out, MsgType::kResponse, flags, request_id, payload_len);
  uint8_t* p = Put<uint32_t>(payload, retry_after_us);
  p = Put<uint32_t>(p, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    p = Put<uint8_t>(p, static_cast<uint8_t>(statuses[i]));
    p = Put<uint64_t>(p, values != nullptr ? values[i] : 0);
  }
  FinishFrame(payload, payload_len);
}

DecodeResult DecodeFrame(const uint8_t* data, size_t len, Frame* out,
                         size_t* consumed) {
  if (len < kHeaderSize) return DecodeResult::kNeedMore;
  FrameHeader header;
  header.magic = Get<uint32_t>(data + 0);
  header.version = data[4];
  header.type = data[5];
  header.flags = Get<uint16_t>(data + 6);
  header.request_id = Get<uint64_t>(data + 8);
  header.payload_len = Get<uint32_t>(data + 16);
  header.crc = Get<uint32_t>(data + 20);

  // Header sanity first: a bad magic/version/type/length means the
  // stream is corrupt or hostile — no point waiting for more bytes.
  if (header.magic != kMagic) return DecodeResult::kBad;
  if (header.version != kProtocolVersion) return DecodeResult::kBad;
  if (header.type < static_cast<uint8_t>(MsgType::kHello) ||
      header.type > static_cast<uint8_t>(MsgType::kResponse)) {
    return DecodeResult::kBad;
  }
  if (header.payload_len > kMaxPayload) return DecodeResult::kBad;

  const size_t total = kHeaderSize + header.payload_len;
  if (len < total) return DecodeResult::kNeedMore;

  // CRC over (header with crc zeroed) + payload.
  uint8_t zeroed[kHeaderSize];
  std::memcpy(zeroed, data, kHeaderSize);
  std::memset(zeroed + 20, 0, 4);
  uint32_t crc = Crc32c(zeroed, kHeaderSize);
  crc = Crc32c(data + kHeaderSize, header.payload_len, crc);
  if (crc != header.crc) return DecodeResult::kBad;

  out->header = header;
  out->payload = data + kHeaderSize;
  *consumed = total;
  return DecodeResult::kFrame;
}

bool ParseHello(const Frame& frame, HelloView* out) {
  if (frame.header.type != static_cast<uint8_t>(MsgType::kHello)) {
    return false;
  }
  if (frame.header.payload_len != kHelloPayload) return false;
  out->tenant_id = Get<uint64_t>(frame.payload + 0);
  out->weight = Get<uint32_t>(frame.payload + 8);
  if (out->weight == 0) out->weight = 1;
  return true;
}

bool ParseHelloAck(const Frame& frame, HelloAckView* out) {
  if (frame.header.type != static_cast<uint8_t>(MsgType::kHelloAck)) {
    return false;
  }
  if (frame.header.payload_len != kHelloAckPayload) return false;
  out->shard_count = Get<uint32_t>(frame.payload + 0);
  out->max_ops = Get<uint32_t>(frame.payload + 4);
  return true;
}

bool ParseRequest(const Frame& frame, RequestView* out) {
  if (frame.header.type != static_cast<uint8_t>(MsgType::kRequest)) {
    return false;
  }
  if (frame.header.payload_len < 16) return false;
  out->deadline_us = Get<uint64_t>(frame.payload + 0);
  out->count = Get<uint32_t>(frame.payload + 8);
  if (out->count > kMaxOpsPerRequest) return false;
  if (frame.header.payload_len != 16 + kRequestOpBytes * out->count) {
    return false;
  }
  out->ops = frame.payload + 16;
  return true;
}

bool DecodeRequestOp(const RequestView& request, size_t i, api::Op* out) {
  const uint8_t* p = request.ops + i * kRequestOpBytes;
  const uint8_t type = p[0];
  if (type > static_cast<uint8_t>(api::OpType::kDelete)) return false;
  out->type = static_cast<api::OpType>(type);
  out->key = Get<uint64_t>(p + 1);
  out->value = Get<uint64_t>(p + 9);
  return true;
}

bool ParseResponse(const Frame& frame, ResponseView* out) {
  if (frame.header.type != static_cast<uint8_t>(MsgType::kResponse)) {
    return false;
  }
  if (frame.header.payload_len < 8) return false;
  out->retry_after_us = Get<uint32_t>(frame.payload + 0);
  out->count = Get<uint32_t>(frame.payload + 4);
  if (out->count > kMaxOpsPerRequest) return false;
  if (frame.header.payload_len != 8 + kResponseOpBytes * out->count) {
    return false;
  }
  out->entries = frame.payload + 8;
  return true;
}

bool DecodeResponseEntry(const ResponseView& response, size_t i,
                         api::Status* status, uint64_t* value) {
  const uint8_t* p = response.entries + i * kResponseOpBytes;
  if (p[0] > static_cast<uint8_t>(api::Status::kTimeout)) return false;
  *status = static_cast<api::Status>(p[0]);
  *value = Get<uint64_t>(p + 1);
  return true;
}

}  // namespace dash::net
