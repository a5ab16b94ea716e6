// KvServer end-to-end tests over both transports: handshake, pipelined
// out-of-order responses matched by request id, concurrent clients,
// admission control as protocol-level responses (pipeline cap, saturated
// depth-1 queue, expired deadlines — never a dropped connection), and
// clean per-connection close on malformed frames.

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/kv_client.h"
#include "net/kv_server.h"
#include "test_util.h"

namespace dash::net {
namespace {

using test::SmallStoreOptions;
using test::TempShardPaths;

// A server-ready 4-shard store: worker executor on, bounded backoff so a
// full queue sheds load as kUnavailable instead of blocking the event
// loop (the shape the KvServer header documents).
std::unique_ptr<api::ShardedStore> OpenStore(const TempShardPaths& paths,
                                             size_t shards,
                                             size_t queue_depth = 128) {
  api::ShardedStoreOptions options =
      SmallStoreOptions(paths.prefix(), shards);
  options.async.workers = true;
  options.async.inline_single_shard = false;
  options.async.queue_depth = queue_depth;
  options.async.submit_retries = 3;
  return api::ShardedStore::Open(options);
}

std::string TestUdsPath(const std::string& tag) {
  return "/tmp/dash_kv_" + tag + "_" + std::to_string(getpid()) + ".sock";
}

// Insert/search/delete round trip through one client on one transport.
void SmokeOneClient(KvClient* client) {
  const api::Op inserts[] = {api::Op::Insert(1, 100),
                             api::Op::Insert(2, 200)};
  ClientResponse response;
  ASSERT_TRUE(client->Execute(inserts, 2, 0, &response));
  ASSERT_EQ(response.statuses.size(), 2u);
  EXPECT_EQ(response.statuses[0], api::Status::kOk);
  EXPECT_EQ(response.statuses[1], api::Status::kOk);

  const api::Op searches[] = {api::Op::Search(1), api::Op::Search(2),
                              api::Op::Search(3)};
  ASSERT_TRUE(client->Execute(searches, 3, 0, &response));
  ASSERT_EQ(response.statuses.size(), 3u);
  EXPECT_EQ(response.statuses[0], api::Status::kOk);
  EXPECT_EQ(response.values[0], 100u);
  EXPECT_EQ(response.statuses[1], api::Status::kOk);
  EXPECT_EQ(response.values[1], 200u);
  EXPECT_EQ(response.statuses[2], api::Status::kNotFound);

  const api::Op del = api::Op::Delete(1);
  ASSERT_TRUE(client->Execute(&del, 1, 0, &response));
  EXPECT_EQ(response.statuses[0], api::Status::kOk);
  const api::Op again = api::Op::Search(1);
  ASSERT_TRUE(client->Execute(&again, 1, 0, &response));
  EXPECT_EQ(response.statuses[0], api::Status::kNotFound);
}

TEST(KvServerTest, UdsSmoke) {
  TempShardPaths paths("srv_uds", 4);
  auto store = OpenStore(paths, 4);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("smoke");
  KvServer server(store.get(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  KvClient client;
  ASSERT_TRUE(client.ConnectUds(options.uds_path, 1, 1, &error)) << error;
  EXPECT_EQ(client.shard_count(), 4u);
  EXPECT_EQ(client.max_ops(), kMaxOpsPerRequest);
  SmokeOneClient(&client);
  client.Close();
  server.Stop();
  store->CloseClean();
}

TEST(KvServerTest, TcpSmoke) {
  TempShardPaths paths("srv_tcp", 4);
  auto store = OpenStore(paths, 4);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.tcp = true;  // ephemeral port
  KvServer server(store.get(), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_NE(server.tcp_port(), 0);

  KvClient client;
  ASSERT_TRUE(
      client.ConnectTcp("127.0.0.1", server.tcp_port(), 1, 1, &error))
      << error;
  SmokeOneClient(&client);
  client.Close();
  server.Stop();
  store->CloseClean();
}

// Pipelining: many requests in flight on one connection; responses come
// back in completion order and are matched by request id, and every id
// gets exactly one response.
TEST(KvServerTest, PipelinedOutOfOrderResponses) {
  TempShardPaths paths("srv_pipe", 4);
  auto store = OpenStore(paths, 4);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("pipe");
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  KvClient client;
  ASSERT_TRUE(client.ConnectUds(options.uds_path));

  constexpr int kInFlight = 64;
  constexpr size_t kOpsPer = 16;
  std::map<uint64_t, uint64_t> sent;  // id -> first key of its batch
  for (int r = 0; r < kInFlight; ++r) {
    api::Op ops[kOpsPer];
    const uint64_t base = static_cast<uint64_t>(r) * kOpsPer + 1;
    for (size_t i = 0; i < kOpsPer; ++i) {
      ops[i] = api::Op::Insert(base + i, base + i);
    }
    uint64_t id = 0;
    ASSERT_TRUE(client.Send(ops, kOpsPer, 0, &id));
    sent[id] = base;
  }
  for (int r = 0; r < kInFlight; ++r) {
    ClientResponse response;
    ASSERT_TRUE(client.Receive(&response));
    auto it = sent.find(response.request_id);
    ASSERT_NE(it, sent.end()) << "unknown or duplicate response id";
    ASSERT_EQ(response.statuses.size(), kOpsPer);
    for (size_t i = 0; i < kOpsPer; ++i) {
      EXPECT_EQ(response.statuses[i], api::Status::kOk);
    }
    sent.erase(it);
  }
  EXPECT_TRUE(sent.empty());

  // Everything really landed in the store.
  uint64_t value = 0;
  EXPECT_EQ(store->Search(1, &value), api::Status::kOk);
  EXPECT_EQ(store->Search(kInFlight * kOpsPer, &value), api::Status::kOk);
  server.Stop();
  store->CloseClean();
}

// >= 4 concurrent clients, each pipelining over its own connection on
// disjoint key ranges; zero protocol errors, all ops applied.
TEST(KvServerTest, ConcurrentPipelinedClients) {
  TempShardPaths paths("srv_multi", 4);
  auto store = OpenStore(paths, 4);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("multi");
  options.tcp = true;
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  constexpr int kClients = 6;
  constexpr int kRequests = 40;
  constexpr size_t kOpsPer = 8;
  constexpr int kWindow = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      KvClient client;
      // Alternate transports across clients.
      const bool ok =
          (c % 2 == 0)
              ? client.ConnectUds(options.uds_path, c, 1)
              : client.ConnectTcp("127.0.0.1", server.tcp_port(), c, 1);
      if (!ok) {
        failures.fetch_add(1);
        return;
      }
      uint64_t next_key = static_cast<uint64_t>(c) * 1000000 + 1;
      int sent = 0, received = 0;
      while (received < kRequests) {
        while (sent < kRequests && sent - received < kWindow) {
          api::Op ops[kOpsPer];
          for (size_t i = 0; i < kOpsPer; ++i) {
            ops[i] = api::Op::Insert(next_key, next_key);
            ++next_key;
          }
          if (!client.Send(ops, kOpsPer, 0, nullptr)) {
            failures.fetch_add(1);
            return;
          }
          ++sent;
        }
        ClientResponse response;
        if (!client.Receive(&response) ||
            response.statuses.size() != kOpsPer) {
          failures.fetch_add(1);
          return;
        }
        for (const api::Status s : response.statuses) {
          if (s != api::Status::kOk) failures.fetch_add(1);
        }
        ++received;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store->Stats().totals.records,
            static_cast<uint64_t>(kClients) * kRequests * kOpsPer);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.frames_bad, 0u);
  EXPECT_EQ(stats.requests, static_cast<uint64_t>(kClients) * kRequests);
  server.Stop();
  store->CloseClean();
}

// Malformed bytes close that connection cleanly; the server keeps
// serving other connections.
TEST(KvServerTest, MalformedFrameClosesOnlyThatConnection) {
  TempShardPaths paths("srv_bad", 2);
  auto store = OpenStore(paths, 2);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("bad");
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  KvClient good;
  ASSERT_TRUE(good.ConnectUds(options.uds_path));

  // Raw socket speaking garbage after a valid hello.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.uds_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<uint8_t> hello;
  AppendHello(&hello, 7, 1);
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  uint8_t ack[64];
  ASSERT_GT(::recv(fd, ack, sizeof(ack), 0), 0);
  const uint8_t garbage[] = "this is not a frame at all, not even close";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
  // Server must close: recv sees EOF, not a hang.
  uint8_t drain[64];
  ssize_t n;
  while ((n = ::recv(fd, drain, sizeof(drain), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);
  ::close(fd);

  // A request before the handshake is a protocol error too.
  const int fd2 = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd2, 0);
  ASSERT_EQ(
      ::connect(fd2, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<uint8_t> early;
  const api::Op op = api::Op::Search(1);
  AppendRequest(&early, 1, &op, 1, 0);
  ASSERT_EQ(::send(fd2, early.data(), early.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(early.size()));
  while ((n = ::recv(fd2, drain, sizeof(drain), 0)) > 0) {
  }
  EXPECT_EQ(n, 0);
  ::close(fd2);

  // The well-behaved connection is unaffected.
  SmokeOneClient(&good);
  EXPECT_GE(server.stats().frames_bad + server.stats().connections_closed,
            2u);
  server.Stop();
  store->CloseClean();
}

// Saturate a depth-1 store queue: some ops come back kUnavailable with
// the retry-after flag, the connection survives, and a follow-up request
// succeeds. Backpressure is a response, not a disconnect.
TEST(KvServerTest, SaturatedQueueYieldsRetryAfterNotDisconnect) {
  TempShardPaths paths("srv_sat", 2);
  auto store = OpenStore(paths, 2, /*queue_depth=*/1);
  ASSERT_NE(store, nullptr);
  // Make shedding fast: one submit retry, tiny backoff.
  ServerOptions options;
  options.uds_path = TestUdsPath("sat");
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  KvClient client;
  ASSERT_TRUE(client.ConnectUds(options.uds_path));

  constexpr int kBurst = 128;
  constexpr size_t kOpsPer = 64;
  for (int r = 0; r < kBurst; ++r) {
    api::Op ops[kOpsPer];
    const uint64_t base = static_cast<uint64_t>(r) * kOpsPer + 1;
    for (size_t i = 0; i < kOpsPer; ++i) {
      ops[i] = api::Op::Insert(base + i, base + i);
    }
    ASSERT_TRUE(client.Send(ops, kOpsPer, 0, nullptr));
  }
  uint64_t unavailable = 0, ok = 0, retry_flags = 0;
  for (int r = 0; r < kBurst; ++r) {
    ClientResponse response;
    ASSERT_TRUE(client.Receive(&response)) << "connection dropped";
    ASSERT_EQ(response.statuses.size(), kOpsPer);
    if (response.retry_after_us != 0) ++retry_flags;
    for (const api::Status s : response.statuses) {
      if (s == api::Status::kOk) {
        ++ok;
      } else {
        ASSERT_EQ(s, api::Status::kUnavailable);
        ++unavailable;
      }
    }
  }
  // Every op was answered, one way or the other.
  EXPECT_EQ(ok + unavailable, static_cast<uint64_t>(kBurst) * kOpsPer);
  EXPECT_GT(ok, 0u);
  if (unavailable > 0) {
    EXPECT_GT(retry_flags, 0u);
    EXPECT_GT(server.stats().retry_responses, 0u);
  }
  // The connection is still healthy after the burst.
  ClientResponse response;
  const api::Op probe = api::Op::Search(1);
  ASSERT_TRUE(client.Execute(&probe, 1, 0, &response));
  server.Stop();
  store->CloseClean();
}

// Opt-in client-side retry: Execute(max_retries) resends the shed subset
// of a batch after the advised backoff instead of surfacing
// kUnavailable. kUnavailable is a never-executed guarantee (shed at
// submit or admission), so the resent inserts land exactly once: every
// slot must end kOk and every key must be durable.
TEST(KvServerTest, ExecuteRetriesShedOpsUntilTheyLand) {
  TempShardPaths paths("srv_retry", 2);
  auto store = OpenStore(paths, 2, /*queue_depth=*/1);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("retry");
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  KvClient client;
  ASSERT_TRUE(client.ConnectUds(options.uds_path));
  // Each burst dwarfs the depth-1 shard queues, so the first response
  // usually mixes kOk with shed kUnavailable slots; the retry rounds
  // resend the shed remainder into the by-then idle queues.
  constexpr size_t kOpsPer = 512;
  constexpr int kBursts = 16;
  std::vector<api::Op> ops(kOpsPer);
  ClientResponse response;
  for (int r = 0; r < kBursts; ++r) {
    const uint64_t base = static_cast<uint64_t>(r) * kOpsPer + 1;
    for (size_t i = 0; i < kOpsPer; ++i) {
      ops[i] = api::Op::Insert(base + i, base + i + 9);
    }
    ASSERT_TRUE(client.Execute(ops.data(), kOpsPer, 0, &response,
                               /*max_retries=*/16));
    ASSERT_EQ(response.statuses.size(), kOpsPer);
    for (size_t i = 0; i < kOpsPer; ++i) {
      // kOk, never kExists: a retried op had provably not executed.
      ASSERT_EQ(response.statuses[i], api::Status::kOk)
          << "burst " << r << " slot " << i;
    }
  }
  // Every insert is durable exactly once.
  for (int r = 0; r < kBursts; ++r) {
    const uint64_t base = static_cast<uint64_t>(r) * kOpsPer + 1;
    for (size_t i = 0; i < kOpsPer; ++i) {
      ops[i] = api::Op::Search(base + i);
    }
    ASSERT_TRUE(client.Execute(ops.data(), kOpsPer, 0, &response));
    for (size_t i = 0; i < kOpsPer; ++i) {
      ASSERT_EQ(response.statuses[i], api::Status::kOk);
      ASSERT_EQ(response.values[i], base + i + 9);
    }
  }
  server.Stop();
  store->CloseClean();
}

// A maximum-size request (4096 ops, a 69.6 KB frame) is larger than the
// server's 64 KiB read chunk, so it only decodes once a second read has
// appended the rest of it.
TEST(KvServerTest, MaxSizeRequestSpansReadChunks) {
  TempShardPaths paths("srv_big", 2);
  auto store = OpenStore(paths, 2);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("big");
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());
  KvClient client;
  ASSERT_TRUE(client.ConnectUds(options.uds_path));

  constexpr size_t kOps = kMaxOpsPerRequest;
  ASSERT_GT(kHeaderSize + 16 + kRequestOpBytes * kOps, 64u * 1024);
  std::vector<api::Op> ops(kOps);
  for (size_t i = 0; i < kOps; ++i) ops[i] = api::Op::Insert(i + 1, i * 7);
  ClientResponse response;
  ASSERT_TRUE(client.Execute(ops.data(), kOps, 0, &response));
  ASSERT_EQ(response.statuses.size(), kOps);
  for (size_t i = 0; i < kOps; ++i) {
    ASSERT_EQ(response.statuses[i], api::Status::kOk) << "op " << i;
  }
  for (size_t i = 0; i < kOps; ++i) ops[i] = api::Op::Search(i + 1);
  ASSERT_TRUE(client.Execute(ops.data(), kOps, 0, &response));
  ASSERT_EQ(response.values.size(), kOps);
  for (size_t i = 0; i < kOps; ++i) {
    ASSERT_EQ(response.statuses[i], api::Status::kOk) << "op " << i;
    ASSERT_EQ(response.values[i], i * 7) << "op " << i;
  }
  EXPECT_EQ(server.stats().frames_bad, 0u);
  server.Stop();
  store->CloseClean();
}

// Pipelined frames written to the socket one byte per send(): the server
// sees frames split at every offset, header included, and must answer
// each exactly once.
TEST(KvServerTest, PipelinedFramesArrivingByteByByte) {
  TempShardPaths paths("srv_drip", 2);
  auto store = OpenStore(paths, 2);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("drip");
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.uds_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  constexpr int kFrames = 8;
  constexpr size_t kOpsPer = 4;
  std::vector<uint8_t> bytes;
  AppendHello(&bytes, 1, 1);
  for (int r = 0; r < kFrames; ++r) {
    api::Op ops[kOpsPer];
    for (size_t i = 0; i < kOpsPer; ++i) {
      const uint64_t key = static_cast<uint64_t>(r) * kOpsPer + i + 1;
      ops[i] = api::Op::Insert(key, key * 11);
    }
    AppendRequest(&bytes, static_cast<uint64_t>(r) + 1, ops, kOpsPer, 0);
  }
  for (const uint8_t byte : bytes) {
    ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
  }

  std::vector<uint8_t> in;
  size_t in_off = 0;
  // Returns the next whole frame from the socket.
  const auto next_frame = [&](Frame* frame) {
    for (;;) {
      size_t consumed = 0;
      const DecodeResult dr = DecodeFrame(in.data() + in_off,
                                          in.size() - in_off, frame,
                                          &consumed);
      if (dr == DecodeResult::kFrame) {
        in_off += consumed;
        return true;
      }
      if (dr == DecodeResult::kBad) return false;
      uint8_t chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      in.insert(in.end(), chunk, chunk + n);
    }
  };
  Frame frame;
  HelloAckView ack;
  ASSERT_TRUE(next_frame(&frame));
  ASSERT_TRUE(ParseHelloAck(frame, &ack));
  std::vector<int> answered(kFrames, 0);
  for (int r = 0; r < kFrames; ++r) {
    ASSERT_TRUE(next_frame(&frame)) << "connection dropped";
    ResponseView view;
    ASSERT_TRUE(ParseResponse(frame, &view));
    ASSERT_GE(frame.header.request_id, 1u);
    ASSERT_LE(frame.header.request_id, static_cast<uint64_t>(kFrames));
    ++answered[frame.header.request_id - 1];
    ASSERT_EQ(view.count, kOpsPer);
    for (size_t i = 0; i < kOpsPer; ++i) {
      api::Status status;
      uint64_t value;
      ASSERT_TRUE(DecodeResponseEntry(view, i, &status, &value));
      EXPECT_EQ(status, api::Status::kOk);
    }
  }
  for (int r = 0; r < kFrames; ++r) EXPECT_EQ(answered[r], 1) << "id " << r;
  ::close(fd);
  uint64_t value = 0;
  for (uint64_t key = 1; key <= kFrames * kOpsPer; ++key) {
    ASSERT_EQ(store->Search(key, &value), api::Status::kOk) << key;
    EXPECT_EQ(value, key * 11);
  }
  EXPECT_EQ(server.stats().frames_bad, 0u);
  server.Stop();
  store->CloseClean();
}

// The per-connection pipeline cap bounces the overflow request with
// kUnavailable + retry-after immediately (it never reaches the store),
// and the connection keeps working.
TEST(KvServerTest, PipelineCapRejectsWithRetryAfter) {
  TempShardPaths paths("srv_cap", 2);
  auto store = OpenStore(paths, 2);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("cap");
  options.max_pipeline = 2;
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  // Raw socket so the whole burst goes out in ONE write: the server's
  // read loop then parses all frames before the admission pass runs,
  // making the cap overflow deterministic.
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.uds_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  std::vector<uint8_t> hello;
  AppendHello(&hello, 1, 1);
  ASSERT_EQ(::send(fd, hello.data(), hello.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(hello.size()));
  uint8_t ack[kHeaderSize + kHelloAckPayload];
  ASSERT_EQ(::recv(fd, ack, sizeof(ack), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(ack)));

  constexpr int kBurst = 32;
  std::vector<uint8_t> burst;
  for (int r = 0; r < kBurst; ++r) {
    const api::Op op = api::Op::Insert(static_cast<uint64_t>(r) + 1, 1);
    AppendRequest(&burst, static_cast<uint64_t>(r) + 1, &op, 1, 0);
  }
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  uint64_t rejected = 0;
  std::vector<uint8_t> in;
  size_t in_off = 0;
  for (int r = 0; r < kBurst; ++r) {
    // Accumulate until one whole response frame is buffered.
    Frame frame;
    size_t consumed = 0;
    for (;;) {
      const DecodeResult dr = DecodeFrame(in.data() + in_off,
                                          in.size() - in_off, &frame,
                                          &consumed);
      if (dr == DecodeResult::kFrame) break;
      ASSERT_EQ(dr, DecodeResult::kNeedMore);
      uint8_t chunk[4096];
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      ASSERT_GT(n, 0) << "connection dropped";
      in.insert(in.end(), chunk, chunk + n);
    }
    ResponseView view;
    ASSERT_TRUE(ParseResponse(frame, &view));
    ASSERT_EQ(view.count, 1u);
    api::Status status;
    uint64_t value;
    ASSERT_TRUE(DecodeResponseEntry(view, 0, &status, &value));
    if (status == api::Status::kUnavailable) {
      EXPECT_NE(view.retry_after_us, 0u);
      ++rejected;
    } else {
      EXPECT_EQ(status, api::Status::kOk);
    }
    in_off += consumed;
  }
  // Cap 2, 32 requests in one read: the overflow had to bounce.
  EXPECT_GE(rejected, static_cast<uint64_t>(kBurst) - options.max_pipeline);
  EXPECT_EQ(server.stats().pipeline_rejects, rejected);
  ::close(fd);

  // A fresh well-behaved client still works.
  KvClient client;
  ASSERT_TRUE(client.ConnectUds(options.uds_path));
  ClientResponse response;
  const api::Op probe = api::Op::Search(1);
  ASSERT_TRUE(client.Execute(&probe, 1, 0, &response));
  server.Stop();
  store->CloseClean();
}

// An already-expired deadline surfaces as kTimeout statuses in a normal
// response — the connection is never dropped.
TEST(KvServerTest, ExpiredDeadlineYieldsTimeoutResponse) {
  TempShardPaths paths("srv_dl", 2);
  auto store = OpenStore(paths, 2);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("dl");
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  KvClient client;
  ASSERT_TRUE(client.ConnectUds(options.uds_path));

  // Pile up work so some batches sit in queue past a 1us deadline.
  constexpr int kBurst = 64;
  constexpr size_t kOpsPer = 32;
  for (int r = 0; r < kBurst; ++r) {
    api::Op ops[kOpsPer];
    for (size_t i = 0; i < kOpsPer; ++i) {
      ops[i] = api::Op::Insert(
          static_cast<uint64_t>(r) * kOpsPer + i + 1, 1);
    }
    ASSERT_TRUE(client.Send(ops, kOpsPer, /*deadline_us=*/1, nullptr));
  }
  uint64_t timeouts = 0;
  for (int r = 0; r < kBurst; ++r) {
    ClientResponse response;
    ASSERT_TRUE(client.Receive(&response)) << "connection dropped";
    for (const api::Status s : response.statuses) {
      if (s == api::Status::kTimeout) ++timeouts;
    }
    if (response.retry_after_us != 0) {
      // Timeout batches carry the retry-after hint.
      EXPECT_GT(response.retry_after_us, 0u);
    }
  }
  // The 1us deadline with a 64-request pileup must expire something.
  EXPECT_GT(timeouts, 0u);
  // Connection still alive.
  ClientResponse response;
  const api::Op probe = api::Op::Search(12345);
  ASSERT_TRUE(client.Execute(&probe, 1, 0, &response));
  server.Stop();
  store->CloseClean();
}

// Tenant weights shape admitted throughput: with the store as the
// bottleneck, a weight-4 tenant drains ahead of a weight-1 tenant when
// both have a backlog queued behind the DRR scheduler.
TEST(KvServerTest, WeightedFairnessDrainsHeavierTenantFirst) {
  TempShardPaths paths("srv_drr", 2);
  auto store = OpenStore(paths, 2, /*queue_depth=*/2);
  ASSERT_NE(store, nullptr);
  ServerOptions options;
  options.uds_path = TestUdsPath("drr");
  options.drr_quantum = 8;
  KvServer server(store.get(), options);
  ASSERT_TRUE(server.Start());

  KvClient heavy, light;
  ASSERT_TRUE(heavy.ConnectUds(options.uds_path, /*tenant=*/1,
                               /*weight=*/4));
  ASSERT_TRUE(light.ConnectUds(options.uds_path, /*tenant=*/2,
                               /*weight=*/1));

  constexpr int kRequests = 32;
  constexpr size_t kOpsPer = 8;
  for (int r = 0; r < kRequests; ++r) {
    api::Op heavy_ops[kOpsPer], light_ops[kOpsPer];
    for (size_t i = 0; i < kOpsPer; ++i) {
      const uint64_t k = static_cast<uint64_t>(r) * kOpsPer + i;
      heavy_ops[i] = api::Op::Insert(1000000 + k, 1);
      light_ops[i] = api::Op::Insert(2000000 + k, 1);
    }
    ASSERT_TRUE(heavy.Send(heavy_ops, kOpsPer, 0, nullptr));
    ASSERT_TRUE(light.Send(light_ops, kOpsPer, 0, nullptr));
  }
  // Both backlogs drain completely; fairness shapes order, not outcome.
  for (int r = 0; r < kRequests; ++r) {
    ClientResponse response;
    ASSERT_TRUE(heavy.Receive(&response));
    ASSERT_TRUE(light.Receive(&response));
  }
  server.Stop();
  store->CloseClean();
}

}  // namespace
}  // namespace dash::net
