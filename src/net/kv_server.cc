#include "net/kv_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace dash::net {

namespace {

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

// One client connection. The event-loop thread owns every field except
// the outbound queue (`out`, guarded by out_mu — completion callbacks
// append response bytes from shard-worker threads), `wake_queued`
// (guarded by the server's wake_mu_) and the atomic in-flight count.
struct KvServer::Conn {
  int fd = -1;
  bool handshaken = false;
  bool closed = false;      // loop thread: removed from epoll/map
  bool in_drr = false;      // loop thread: queued in drr_ring_
  bool epollout = false;    // loop thread: EPOLLOUT armed
  uint64_t tenant = 0;
  uint32_t weight = 1;
  int64_t deficit = 0;

  // Inbound: accumulated unparsed bytes (loop thread only).
  RecvBuffer in;
  size_t in_off = 0;

  // Admitted requests awaiting DRR submission (loop thread only).
  std::deque<std::unique_ptr<Request>> admit;
  std::atomic<size_t> in_flight{0};

  // Response frames not yet taken by FlushConn.
  std::mutex out_mu;
  std::vector<uint8_t> out;
  // Loop thread only: bytes taken from `out` and not yet written; send()
  // runs on these without out_mu, so completions never wait on a write.
  std::vector<uint8_t> sending;
  size_t sending_off = 0;

  bool wake_queued = false;  // in wake_conns_ (guarded by wake_mu_)
};

// One admitted request frame: owns the decoded ops and the status slots
// for the whole submit -> complete -> respond lifetime (the caller-array
// contract of SubmitExecute); the completion callback owns and frees it.
// Holds its connection alive so a response for a since-closed connection
// degrades to an append into a dead buffer.
struct KvServer::Request {
  uint64_t id = 0;
  uint64_t deadline_us = 0;
  std::vector<api::Op> ops;
  std::vector<api::Status> statuses;
  std::shared_ptr<Conn> conn;
};

KvServer::KvServer(api::ShardedStore* store, const ServerOptions& options)
    : store_(store), options_(options) {
  if (options_.max_pipeline == 0) options_.max_pipeline = 1;
  if (options_.drr_quantum == 0) options_.drr_quantum = 1;
}

KvServer::~KvServer() { Stop(); }

bool KvServer::ListenUds(std::string* error) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "uds path too long";
    return false;
  }
  std::strncpy(addr.sun_path, options_.uds_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options_.uds_path.c_str());
  uds_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (uds_fd_ < 0 ||
      ::bind(uds_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(uds_fd_, 128) != 0) {
    if (error != nullptr) {
      *error = "uds bind/listen failed: " + std::string(strerror(errno));
    }
    return false;
  }
  SetNonBlocking(uds_fd_);
  return true;
}

bool KvServer::ListenTcp(std::string* error) {
  tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (tcp_fd_ < 0) {
    if (error != nullptr) *error = "tcp socket failed";
    return false;
  }
  int one = 1;
  ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.tcp_port);
  if (::inet_pton(AF_INET, options_.tcp_host.c_str(), &addr.sin_addr) !=
      1) {
    if (error != nullptr) *error = "bad tcp host";
    return false;
  }
  if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(tcp_fd_, 128) != 0) {
    if (error != nullptr) {
      *error = "tcp bind/listen failed: " + std::string(strerror(errno));
    }
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_tcp_port_ = ntohs(addr.sin_port);
  SetNonBlocking(tcp_fd_);
  return true;
}

bool KvServer::Start(std::string* error) {
  if (running_.load(std::memory_order_acquire)) return true;
  if (options_.uds_path.empty() && !options_.tcp) {
    if (error != nullptr) *error = "no listener configured";
    return false;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (error != nullptr) *error = "epoll/eventfd failed";
    Stop();
    return false;
  }
  if (!options_.uds_path.empty() && !ListenUds(error)) {
    Stop();
    return false;
  }
  if (options_.tcp && !ListenTcp(error)) {
    Stop();
    return false;
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  if (uds_fd_ >= 0) {
    ev.data.fd = uds_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, uds_fd_, &ev);
  }
  if (tcp_fd_ >= 0) {
    ev.data.fd = tcp_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, tcp_fd_, &ev);
  }

  stopping_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { LoopThread(); });
  return true;
}

void KvServer::Stop() {
  if (running_.load(std::memory_order_acquire)) {
    stopping_.store(true, std::memory_order_release);
    Wake();
    loop_.join();
    running_.store(false, std::memory_order_release);
  }
  for (auto& [fd, conn] : conns_) {
    (void)fd;
    ::close(conn->fd);
    conn->closed = true;
  }
  conns_.clear();
  drr_ring_.clear();
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    wake_conns_.clear();
  }
  woken_.clear();
  if (uds_fd_ >= 0) {
    ::close(uds_fd_);
    uds_fd_ = -1;
    ::unlink(options_.uds_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

ServerStats KvServer::stats() const {
  ServerStats s;
  s.connections_accepted = s_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = s_closed_.load(std::memory_order_relaxed);
  s.frames_bad = s_bad_.load(std::memory_order_relaxed);
  s.requests = s_requests_.load(std::memory_order_relaxed);
  s.ops = s_ops_.load(std::memory_order_relaxed);
  s.responses = s_responses_.load(std::memory_order_relaxed);
  s.retry_responses = s_retry_.load(std::memory_order_relaxed);
  s.pipeline_rejects = s_pipeline_rejects_.load(std::memory_order_relaxed);
  return s;
}

void KvServer::Wake() {
  if (wake_fd_ >= 0) {
    const uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_fd_, &one, sizeof(one));
  }
}

void KvServer::LoopThread() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  for (;;) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && in_flight_.load(std::memory_order_acquire) == 0) {
      break;
    }
    const int timeout_ms = stopping ? 5 : 100;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        // One read drains it: an eventfd read returns and zeroes the
        // whole counter. Woken conns are flushed below.
        uint64_t drain;
        [[maybe_unused]] ssize_t r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == uds_fd_ || fd == tcp_fd_) {
        if (!stopping) AcceptFrom(fd);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      std::shared_ptr<Conn> conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        CloseConn(conn);
        continue;
      }
      if ((events[i].events & EPOLLIN) != 0 && !stopping) {
        ReadConn(conn);
      }
      if ((events[i].events & EPOLLOUT) != 0 && !conn->closed) {
        FlushConn(conn);
      }
    }
    FlushWoken();
    if (!stopping) RunAdmission();
  }
  // Final drain: responses whose callbacks landed after the last pass.
  FlushWoken();
}

void KvServer::FlushWoken() {
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    woken_.swap(wake_conns_);  // both keep their capacity
    for (const auto& conn : woken_) conn->wake_queued = false;
  }
  for (const auto& conn : woken_) {
    if (!conn->closed) FlushConn(conn);
  }
  woken_.clear();
}

void KvServer::AcceptFrom(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or error: nothing more to accept
    if (listen_fd == tcp_fd_) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_[fd] = conn;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    s_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void KvServer::ReadConn(const std::shared_ptr<Conn>& conn) {
  // Reads into uninitialised spare room at the back of `in`. A read that
  // comes back short of the chunk emptied the socket for now; epoll is
  // level-triggered, so bytes that arrive later re-arm it, and there is
  // no need for a further read that ends in EAGAIN.
  constexpr size_t kReadChunk = 64 * 1024;
  for (;;) {
    const size_t at = conn->in.size();
    conn->in.resize(at + kReadChunk);
    const ssize_t n = ::read(conn->fd, conn->in.data() + at, kReadChunk);
    conn->in.resize(at + (n > 0 ? static_cast<size_t>(n) : 0));
    if (n == 0) {  // orderly client close
      CloseConn(conn);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConn(conn);
      return;
    }
    if (static_cast<size_t>(n) < kReadChunk) break;
  }

  // Parse every complete frame in the buffer.
  while (!conn->closed) {
    Frame frame;
    size_t consumed = 0;
    const DecodeResult r =
        DecodeFrame(conn->in.data() + conn->in_off,
                    conn->in.size() - conn->in_off, &frame, &consumed);
    if (r == DecodeResult::kNeedMore) break;
    if (r == DecodeResult::kBad || !HandleFrame(conn, frame)) {
      s_bad_.fetch_add(1, std::memory_order_relaxed);
      CloseConn(conn);
      return;
    }
    conn->in_off += consumed;
  }
  // Compact the consumed prefix away once it dominates the buffer.
  if (conn->in_off > 0 && conn->in_off * 2 >= conn->in.size()) {
    conn->in.erase(conn->in.begin(),
                   conn->in.begin() + static_cast<ptrdiff_t>(conn->in_off));
    conn->in_off = 0;
  }
}

bool KvServer::HandleFrame(const std::shared_ptr<Conn>& conn,
                           const Frame& frame) {
  if (!conn->handshaken) {
    HelloView hello;
    if (!ParseHello(frame, &hello)) return false;  // hello-first contract
    conn->handshaken = true;
    conn->tenant = hello.tenant_id;
    conn->weight = hello.weight;
    QueueFrame(conn, [this](std::vector<uint8_t>* out) {
      AppendHelloAck(out, static_cast<uint32_t>(store_->shard_count()),
                     kMaxOpsPerRequest);
    });
    FlushConn(conn);
    return true;
  }

  RequestView request;
  if (!ParseRequest(frame, &request)) return false;

  // Pipeline cap: admission control before the store ever sees the ops.
  if (conn->admit.size() + conn->in_flight.load(std::memory_order_acquire) >=
      options_.max_pipeline) {
    s_pipeline_rejects_.fetch_add(1, std::memory_order_relaxed);
    RespondAllFailed(conn, frame.header.request_id, request.count,
                     api::Status::kUnavailable);
    return true;
  }

  auto req = std::make_unique<Request>();
  req->id = frame.header.request_id;
  req->deadline_us = request.deadline_us;
  req->conn = conn;
  req->ops.resize(request.count);
  req->statuses.assign(request.count, api::Status::kInternal);
  for (size_t i = 0; i < request.count; ++i) {
    if (!DecodeRequestOp(request, i, &req->ops[i])) return false;
  }
  s_requests_.fetch_add(1, std::memory_order_relaxed);
  s_ops_.fetch_add(request.count, std::memory_order_relaxed);
  conn->admit.push_back(std::move(req));
  if (!conn->in_drr) {
    conn->in_drr = true;
    drr_ring_.push_back(conn);
  }
  return true;
}

// Deficit round robin across connections with admitted requests: each
// visit earns weight x quantum ops of deficit; whole requests are
// submitted while the deficit covers their op count. A connection with
// leftover requests re-queues (deficit carries over); an emptied one
// leaves the ring and forfeits its remaining deficit, so idle tenants
// cannot bank credit.
void KvServer::RunAdmission() {
  size_t rounds_left = drr_ring_.size() * 64 + 64;  // defensive bound
  while (!drr_ring_.empty() && rounds_left-- > 0) {
    std::shared_ptr<Conn> conn = drr_ring_.front();
    drr_ring_.pop_front();
    if (conn->closed || conn->admit.empty()) {
      conn->in_drr = false;
      conn->deficit = 0;
      continue;
    }
    conn->deficit +=
        static_cast<int64_t>(conn->weight) * options_.drr_quantum;
    while (!conn->admit.empty()) {
      const auto& front = conn->admit.front();
      const int64_t cost =
          static_cast<int64_t>(front->ops.empty() ? 1 : front->ops.size());
      if (cost > conn->deficit) break;
      conn->deficit -= cost;
      std::unique_ptr<Request> req = std::move(conn->admit.front());
      conn->admit.pop_front();
      SubmitRequest(std::move(req));
    }
    if (conn->admit.empty()) {
      conn->in_drr = false;
      conn->deficit = 0;
    } else {
      drr_ring_.push_back(conn);  // deficit carries to the next round
    }
  }
}

void KvServer::SubmitRequest(std::unique_ptr<Request> request) {
  const size_t count = request->ops.size();
  if (count == 0) {
    // Empty batch: answer immediately, nothing to run.
    QueueFrame(request->conn, [&](std::vector<uint8_t>* out) {
      AppendResponse(out, request->id, nullptr, nullptr, 0, 0);
    });
    s_responses_.fetch_add(1, std::memory_order_relaxed);
    FlushConn(request->conn);
    return;
  }
  request->conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  api::SubmitOptions submit;
  if (request->deadline_us != 0) {
    submit.deadline = std::chrono::microseconds(request->deadline_us);
  }
  api::BatchFuture future = store_->SubmitExecute(
      request->ops.data(), count, request->statuses.data(), submit);
  // Completion-queue delivery: the last shard's gather runs this on its
  // worker thread (or right here when the future is born ready). The
  // callback takes ownership; two pointers fit std::function's inline
  // storage, so registering it allocates nothing.
  Request* req = request.release();
  future.OnReady(
      [this, req] { OnRequestDone(std::unique_ptr<Request>(req)); });
}

void KvServer::OnRequestDone(std::unique_ptr<Request> request) {
  const size_t count = request->ops.size();
  std::vector<uint64_t> values(count);
  bool unavailable = false;
  for (size_t i = 0; i < count; ++i) {
    values[i] = request->ops[i].value;
    if (request->statuses[i] == api::Status::kUnavailable ||
        request->statuses[i] == api::Status::kTimeout) {
      unavailable = true;
    }
  }
  const uint32_t retry_after_us =
      unavailable ? options_.retry_after_us : 0;
  QueueFrame(request->conn, [&](std::vector<uint8_t>* out) {
    AppendResponse(out, request->id, request->statuses.data(),
                   values.data(), count, retry_after_us);
  });
  s_responses_.fetch_add(1, std::memory_order_relaxed);
  if (retry_after_us != 0) {
    s_retry_.fetch_add(1, std::memory_order_relaxed);
  }
  NotifyWritable(request->conn);
  request->conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  // Last: once in_flight_ reaches zero Stop() may tear the server down.
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
}

void KvServer::RespondAllFailed(const std::shared_ptr<Conn>& conn,
                                uint64_t id, size_t count,
                                api::Status status) {
  std::vector<api::Status> statuses(count, status);
  QueueFrame(conn, [&](std::vector<uint8_t>* out) {
    AppendResponse(out, id, statuses.data(), nullptr, count,
                   options_.retry_after_us);
  });
  s_responses_.fetch_add(1, std::memory_order_relaxed);
  s_retry_.fetch_add(1, std::memory_order_relaxed);
  FlushConn(conn);
}

template <typename Encode>
void KvServer::QueueFrame(const std::shared_ptr<Conn>& conn,
                          Encode encode) {
  std::lock_guard<std::mutex> lock(conn->out_mu);
  encode(&conn->out);
}

void KvServer::NotifyWritable(const std::shared_ptr<Conn>& conn) {
  bool first = false;
  {
    std::lock_guard<std::mutex> lock(wake_mu_);
    if (conn->wake_queued) return;  // a flush is already due after this
    conn->wake_queued = true;
    first = wake_conns_.empty();
    wake_conns_.push_back(conn);
  }
  // Coalesced wake: only the completion that makes the list non-empty
  // writes the eventfd; the rest ride the loop pass it triggers.
  if (first) Wake();
}

void KvServer::FlushConn(const std::shared_ptr<Conn>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->out_mu);
    if (conn->sending_off == conn->sending.size()) {
      conn->sending.clear();
      conn->sending_off = 0;
      conn->sending.swap(conn->out);
    } else {
      conn->sending.insert(conn->sending.end(), conn->out.begin(),
                           conn->out.end());
      conn->out.clear();
    }
  }
  bool blocked = false;
  while (conn->sending_off < conn->sending.size()) {
    const ssize_t n =
        ::send(conn->fd, conn->sending.data() + conn->sending_off,
               conn->sending.size() - conn->sending_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn->sending_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      blocked = true;
      break;
    }
    // Hard write error: the reader side will observe HUP and close.
    conn->sending.clear();
    conn->sending_off = 0;
    return;
  }
  if (blocked != conn->epollout) {
    conn->epollout = blocked;
    epoll_event ev{};
    ev.events = EPOLLIN | (blocked ? static_cast<uint32_t>(EPOLLOUT) : 0u);
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
}

void KvServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->closed) return;
  conn->closed = true;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  conns_.erase(conn->fd);
  ::close(conn->fd);
  s_closed_.fetch_add(1, std::memory_order_relaxed);
  // Outstanding requests still hold the Conn; their responses land in the
  // dead buffer and are dropped with it.
}

}  // namespace dash::net
