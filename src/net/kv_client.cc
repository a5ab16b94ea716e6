#include "net/kv_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace dash::net {

bool KvClient::ConnectUds(const std::string& path, uint64_t tenant_id,
                          uint32_t weight, std::string* error) {
  Close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "uds path too long";
    return false;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0 || ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) != 0) {
    if (error != nullptr) {
      *error = "uds connect failed: " + std::string(strerror(errno));
    }
    Close();
    return false;
  }
  return Handshake(tenant_id, weight, error);
}

bool KvClient::ConnectTcp(const std::string& host, uint16_t port,
                          uint64_t tenant_id, uint32_t weight,
                          std::string* error) {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) {
    if (error != nullptr) *error = "tcp socket failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0) {
    if (error != nullptr) {
      *error = "tcp connect failed: " + std::string(strerror(errno));
    }
    Close();
    return false;
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return Handshake(tenant_id, weight, error);
}

void KvClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  in_.clear();
  in_off_ = 0;
  shard_count_ = 0;
  max_ops_ = 0;
}

bool KvClient::Handshake(uint64_t tenant_id, uint32_t weight,
                         std::string* error) {
  send_buf_.clear();
  AppendHello(&send_buf_, tenant_id, weight);
  if (!WriteAll(send_buf_.data(), send_buf_.size())) {
    if (error != nullptr) *error = "hello write failed";
    Close();
    return false;
  }
  Frame frame;
  HelloAckView ack;
  if (!ReadFrame(&frame) || !ParseHelloAck(frame, &ack)) {
    if (error != nullptr) *error = "handshake failed";
    Close();
    return false;
  }
  shard_count_ = ack.shard_count;
  max_ops_ = ack.max_ops;
  return true;
}

bool KvClient::WriteAll(const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd_, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool KvClient::ReadFrame(Frame* frame) {
  for (;;) {
    size_t consumed = 0;
    const DecodeResult r = DecodeFrame(in_.data() + in_off_,
                                       in_.size() - in_off_, frame,
                                       &consumed);
    if (r == DecodeResult::kFrame) {
      // The payload stays borrowed from in_: consumed bytes are only
      // dropped by the next ReadFrame, so the span is valid until then.
      in_off_ += consumed;
      return true;
    }
    if (r == DecodeResult::kBad) {
      Close();
      return false;
    }
    // kNeedMore: drop the frames already handed out, then pull more
    // bytes off the socket into uninitialised spare room.
    if (in_off_ > 0) {
      in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(in_off_));
      in_off_ = 0;
    }
    constexpr size_t kReadChunk = 64 * 1024;
    const size_t at = in_.size();
    in_.resize(at + kReadChunk);
    const ssize_t n = ::read(fd_, in_.data() + at, kReadChunk);
    in_.resize(at + (n > 0 ? static_cast<size_t>(n) : 0));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      Close();
      return false;
    }
  }
}

bool KvClient::Send(const api::Op* ops, size_t count, uint64_t deadline_us,
                    uint64_t* request_id) {
  if (fd_ < 0 || count > max_ops_) return false;
  const uint64_t id = next_id_++;
  send_buf_.clear();
  AppendRequest(&send_buf_, id, ops, count, deadline_us);
  if (!WriteAll(send_buf_.data(), send_buf_.size())) {
    Close();
    return false;
  }
  if (request_id != nullptr) *request_id = id;
  return true;
}

bool KvClient::Receive(ClientResponse* out) {
  Frame frame;
  ResponseView view;
  if (!ReadFrame(&frame) || !ParseResponse(frame, &view)) {
    Close();
    return false;
  }
  out->request_id = frame.header.request_id;
  out->retry_after_us = view.retry_after_us;
  out->statuses.resize(view.count);
  out->values.resize(view.count);
  for (size_t i = 0; i < view.count; ++i) {
    if (!DecodeResponseEntry(view, i, &out->statuses[i],
                             &out->values[i])) {
      Close();
      return false;
    }
  }
  return true;
}

bool KvClient::Execute(const api::Op* ops, size_t count,
                       uint64_t deadline_us, ClientResponse* out,
                       uint32_t max_retries) {
  uint64_t id = 0;
  if (!Send(ops, count, deadline_us, &id)) return false;
  if (!Receive(out)) return false;
  if (out->request_id != id) return false;

  for (uint32_t round = 0; round < max_retries; ++round) {
    if (out->retry_after_us == 0) break;
    // Resend only the shed ops; anything else (kOk, kTimeout, ...) is a
    // final answer for its slot.
    std::vector<size_t> pending;
    for (size_t i = 0; i < count; ++i) {
      if (out->statuses[i] == api::Status::kUnavailable) pending.push_back(i);
    }
    if (pending.empty()) break;
    std::this_thread::sleep_for(
        std::chrono::microseconds(out->retry_after_us));
    std::vector<api::Op> retry_ops;
    retry_ops.reserve(pending.size());
    for (const size_t i : pending) retry_ops.push_back(ops[i]);
    ClientResponse sub;
    if (!Send(retry_ops.data(), retry_ops.size(), deadline_us, &id)) {
      return false;
    }
    if (!Receive(&sub) || sub.request_id != id) return false;
    for (size_t j = 0; j < pending.size(); ++j) {
      out->statuses[pending[j]] = sub.statuses[j];
      out->values[pending[j]] = sub.values[j];
    }
    out->retry_after_us = sub.retry_after_us;
  }
  return true;
}

}  // namespace dash::net
