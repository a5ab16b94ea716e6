// KvServer: the network serving front end over the async ShardedStore.
//
// One epoll-driven event-loop thread owns the listeners (TCP and/or
// Unix-domain socket), every connection's reads/writes, and admission.
// Decoded request frames become op batches submitted through
// ShardedStore::SubmitExecute with the frame's relative deadline; the
// server never parks a thread in Wait() — each future's OnReady callback
// (running on the completing shard's worker) serializes the response
// frame, appends it to the connection's outbound buffer, and wakes the
// event loop through an eventfd, which is what delivers pipelined
// responses out of order, in completion order.
//
// Admission control happens at two levels, and both are *responses*,
// never dropped connections:
//   * per-connection pipeline cap (ServerOptions::max_pipeline): a
//     request arriving with the cap's worth of requests already admitted
//     is answered immediately with every status kUnavailable and a
//     retry-after hint;
//   * executor backpressure: when the store's bounded shard queues are
//     full (AsyncOptions::submit_retries exhausted -> kUnavailable) or a
//     deadline expired in queue (kTimeout), those statuses flow back in
//     the response, again flagged retry-after. Open the store with
//     submit_retries > 0; with 0 a full queue blocks the event loop
//     instead of shedding load.
//
// Tenant fairness: the handshake carries a tenant id and weight, and
// admitted-but-unsubmitted requests drain through deficit round robin
// across connections — each round a connection earns weight x drr_quantum
// ops of deficit and submits whole requests it can afford, so a tenant
// with weight 2 sustains twice the admitted op rate of a weight-1 tenant
// when the store is the bottleneck.
//
// Malformed frames (bad magic/version/type/length/CRC, op-type bytes out
// of range, a request before the handshake) close that connection
// cleanly; other connections and the store are unaffected.

#ifndef DASH_PM_NET_KV_SERVER_H_
#define DASH_PM_NET_KV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/sharded_store.h"
#include "net/protocol.h"

namespace dash::net {

struct ServerOptions {
  // Unix-domain listener path; empty disables UDS. An existing socket
  // file at the path is replaced.
  std::string uds_path;
  // TCP listener (loopback by default); tcp_port 0 binds an ephemeral
  // port, readable from tcp_port() after Start().
  bool tcp = false;
  std::string tcp_host = "127.0.0.1";
  uint16_t tcp_port = 0;
  // Per-connection cap on admitted-but-unfinished requests; beyond it the
  // server answers kUnavailable + retry-after instead of buffering.
  size_t max_pipeline = 256;
  // Advisory client backoff carried in retry-after responses.
  uint32_t retry_after_us = 200;
  // Deficit-round-robin quantum: ops of deficit earned per weight unit
  // per scheduling round.
  uint32_t drr_quantum = 64;
};

// Monotonic counters since Start() (snapshot via stats()).
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_closed = 0;
  uint64_t frames_bad = 0;        // malformed frames (connection closed)
  uint64_t requests = 0;          // well-formed request frames admitted
  uint64_t ops = 0;               // ops across admitted requests
  uint64_t responses = 0;         // response frames queued
  uint64_t retry_responses = 0;   // responses flagged retry-after
  uint64_t pipeline_rejects = 0;  // requests bounced by max_pipeline
};

class KvServer {
 public:
  // The store must outlive the server and should be opened with
  // AsyncOptions::submit_retries > 0 (see header comment).
  KvServer(api::ShardedStore* store, const ServerOptions& options);
  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;
  ~KvServer();  // Stop()

  // Binds the configured listeners and starts the event loop. False on
  // bind/listen failure (*error describes it; no thread is left running).
  bool Start(std::string* error = nullptr);

  // Stops accepting, waits for every submitted batch's completion
  // callback, flushes what can be flushed, closes all connections, and
  // joins the loop. Idempotent.
  void Stop();

  // Bound TCP port (after Start() with tcp enabled).
  uint16_t tcp_port() const { return bound_tcp_port_; }
  const std::string& uds_path() const { return options_.uds_path; }

  ServerStats stats() const;

 private:
  struct Conn;
  struct Request;

  bool ListenUds(std::string* error);
  bool ListenTcp(std::string* error);
  void LoopThread();
  void AcceptFrom(int listen_fd);
  void ReadConn(const std::shared_ptr<Conn>& conn);
  // One decoded frame; false = protocol error, close the connection.
  bool HandleFrame(const std::shared_ptr<Conn>& conn, const Frame& frame);
  void RunAdmission();
  void SubmitRequest(std::unique_ptr<Request> request);
  void OnRequestDone(std::unique_ptr<Request> request);
  // Immediate failure response without touching the store (pipeline cap).
  void RespondAllFailed(const std::shared_ptr<Conn>& conn, uint64_t id,
                        size_t count, api::Status status);
  // Runs encode(&conn->out) under the connection's out_mu.
  template <typename Encode>
  void QueueFrame(const std::shared_ptr<Conn>& conn, Encode encode);
  // Queues `conn` for the loop's next flush pass, waking the loop when the
  // queue was empty.
  void NotifyWritable(const std::shared_ptr<Conn>& conn);
  // Event-loop thread only: flushes every queued connection.
  void FlushWoken();
  // Event-loop thread only: writes as much of conn's queued output as the
  // socket accepts, arming EPOLLOUT on a partial write.
  void FlushConn(const std::shared_ptr<Conn>& conn);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void Wake();

  api::ShardedStore* store_;
  ServerOptions options_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  uint16_t bound_tcp_port_ = 0;

  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  // Batches submitted whose completion callback has not finished yet;
  // Stop() drains to zero before tearing the connections down.
  std::atomic<uint64_t> in_flight_{0};

  // Event-loop-private state (no locking): fd -> connection, plus the
  // DRR ring of connections with admitted-but-unsubmitted requests.
  std::unordered_map<int, std::shared_ptr<Conn>> conns_;
  std::deque<std::shared_ptr<Conn>> drr_ring_;

  // Completion-to-loop handoff: callbacks append the connection here
  // (once until the loop takes it) and the one that finds the list empty
  // signals wake_fd_; the loop swaps the list into woken_ and flushes.
  std::mutex wake_mu_;
  std::vector<std::shared_ptr<Conn>> wake_conns_;
  std::vector<std::shared_ptr<Conn>> woken_;  // loop thread only

  // stats (relaxed increments, snapshot reads)
  std::atomic<uint64_t> s_accepted_{0}, s_closed_{0}, s_bad_{0},
      s_requests_{0}, s_ops_{0}, s_responses_{0}, s_retry_{0},
      s_pipeline_rejects_{0};
};

}  // namespace dash::net

#endif  // DASH_PM_NET_KV_SERVER_H_
