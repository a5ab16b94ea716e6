// KvClient: blocking client for the KvServer wire protocol.
//
// One KvClient owns one connection (TCP or Unix-domain socket) and is
// intended to be used from one thread at a time — the closed-loop bench
// gives each client thread its own KvClient. Pipelining is explicit:
// Send() enqueues a request frame (flushing the socket), Receive() blocks
// for the next response frame *in completion order* and hands back its
// request id; the caller correlates. Execute() is the depth-1
// convenience wrapper (send one, wait for that id).

#ifndef DASH_PM_NET_KV_CLIENT_H_
#define DASH_PM_NET_KV_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace dash::net {

// One response frame, decoded. statuses/values are parallel to the ops of
// the request with the same id.
struct ClientResponse {
  uint64_t request_id = 0;
  uint32_t retry_after_us = 0;  // nonzero: server asked for backoff
  std::vector<api::Status> statuses;
  std::vector<uint64_t> values;
};

class KvClient {
 public:
  KvClient() = default;
  KvClient(const KvClient&) = delete;
  KvClient& operator=(const KvClient&) = delete;
  ~KvClient() { Close(); }

  // Connects and runs the handshake. Exactly one of these per client.
  bool ConnectUds(const std::string& path, uint64_t tenant_id = 0,
                  uint32_t weight = 1, std::string* error = nullptr);
  bool ConnectTcp(const std::string& host, uint16_t port,
                  uint64_t tenant_id = 0, uint32_t weight = 1,
                  std::string* error = nullptr);
  void Close();
  bool connected() const { return fd_ >= 0; }

  // From the server's HelloAck.
  uint32_t shard_count() const { return shard_count_; }
  uint32_t max_ops() const { return max_ops_; }

  // Enqueues one request frame and flushes it to the socket. Returns the
  // request id to correlate with Receive(). deadline_us is the relative
  // per-batch deadline (0 = none). ops beyond max_ops() fail.
  bool Send(const api::Op* ops, size_t count, uint64_t deadline_us,
            uint64_t* request_id);

  // Blocks for the next response frame (completion order, any id).
  // Returns false on EOF/protocol error — the connection is closed.
  bool Receive(ClientResponse* out);

  // Send + wait for that specific id; other ids arriving first fail
  // (depth-1 callers never see them).
  //
  // max_retries > 0 opts into honoring the server's backpressure hint:
  // when the response carries retry_after_us and some ops came back
  // kUnavailable, the client sleeps the advised interval and resends
  // just those ops, up to max_retries rounds, merging the outcomes into
  // their original slots. kTimeout ops are never resent (their deadline
  // already expired server-side). After the rounds are exhausted any
  // still-kUnavailable statuses are handed to the caller, so the default
  // (0) is exactly the old immediate-kUnavailable behaviour.
  bool Execute(const api::Op* ops, size_t count, uint64_t deadline_us,
               ClientResponse* out, uint32_t max_retries = 0);

 private:
  bool Handshake(uint64_t tenant_id, uint32_t weight, std::string* error);
  bool WriteAll(const uint8_t* data, size_t len);
  // Reads until one whole frame is buffered; false on EOF/error/bad frame.
  // The frame's payload borrows from in_ and stays valid until the next
  // ReadFrame call.
  bool ReadFrame(Frame* frame);

  int fd_ = -1;
  uint64_t next_id_ = 1;
  uint32_t shard_count_ = 0;
  uint32_t max_ops_ = 0;
  RecvBuffer in_;
  size_t in_off_ = 0;
  std::vector<uint8_t> send_buf_;
};

}  // namespace dash::net

#endif  // DASH_PM_NET_KV_CLIENT_H_
