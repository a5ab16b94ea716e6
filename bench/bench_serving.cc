// Closed-loop serving benchmark over KvServer, on the end-to-end
// benchmark's client loop (bench_suite/serving_load.h): the same seeded
// keys, op streams, result check and latency histogram.
//
// It serves an in-process ShardedStore (--kind, --shards) over UDS or
// --transport=tcp, or drives a running server at --connect=<uds path |
// host:port>. It preloads --preload seeded keys over the wire (kExists
// counts as loaded, so a rerun works), warms up untimed, then measures
// --duration with --clients callers, each keeping --window frames of
// --batch ops in flight. --workload={a,b,c} is 50/95/100% searches, the
// rest updates, over zipf 0.99 keys.
//
// A served op is answered kOk, and a search with a value written for its
// key. `mops` counts served ops of the measured window; `failed` counts
// every other answer (kUnavailable and kTimeout too), `wrong` those with
// an unexpected status or value, warm-up included. One JSON line; exit
// status 1 on a protocol error or a wrong result, 2 on a failed set-up.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "net/kv_client.h"
#include "net/kv_server.h"
#include "serving_load.h"
#include "util/zipf.h"

namespace dash::bench {
namespace {

using bench_suite::Clock;
using bench_suite::kMaxBatch;
using Seconds = std::chrono::duration<double>;

constexpr uint64_t kSeed = 1;
constexpr double kZipfTheta = 0.99;
constexpr double kWarmupSeconds = 0.5;
constexpr int kWarmupPhase = 0;
constexpr int kMeasuredPhase = 1;

struct Flags {
  std::string workload = "b";
  size_t clients = 4;
  size_t shards = 4;
  size_t batch = 16;
  int window = 4;
  double duration_s = 5.0;
  uint64_t preload = 200'000;
  std::string transport = "uds";
  std::string kind = "dash-eh";  // in-process store only
  std::string connect;           // nonempty: drive this server instead
};

bool ParseFlags(int argc, char** argv, Flags* flags,
                bench_suite::Mix* mix) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      return arg.compare(0, n, name) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      flags->workload = v;
    } else if (const char* v = value("--clients=")) {
      flags->clients = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--shards=")) {
      flags->shards = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--batch=")) {
      flags->batch = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--window=")) {
      flags->window = std::atoi(v);
    } else if (const char* v = value("--duration=")) {
      flags->duration_s = std::atof(v);  // trailing "s" ignored by atof
    } else if (const char* v = value("--preload=")) {
      flags->preload = static_cast<uint64_t>(std::atoll(v));
    } else if (const char* v = value("--transport=")) {
      flags->transport = v;
    } else if (const char* v = value("--kind=")) {
      flags->kind = v;
    } else if (const char* v = value("--connect=")) {
      flags->connect = v;
    }
  }
  if (flags->clients < 1 || flags->shards < 1 || flags->batch < 1 ||
      flags->batch > kMaxBatch || flags->window < 1 ||
      flags->duration_s <= 0 || flags->preload < 1) {
    std::fprintf(stderr, "bad serving flags\n");
    return false;
  }
  if (flags->transport != "uds" && flags->transport != "tcp") {
    std::fprintf(stderr, "unknown --transport=%s (uds|tcp)\n",
                 flags->transport.c_str());
    return false;
  }
  const std::string& w = flags->workload;
  if (w != "a" && w != "b" && w != "c") {
    std::fprintf(stderr, "unknown --workload=%s (a|b|c)\n", w.c_str());
    return false;
  }
  mix->read_pct = w == "a" ? 50 : w == "b" ? 95 : 100;
  mix->zipf_theta = kZipfTheta;
  return true;
}

// A server address: a UDS path, or "host:port" over TCP.
struct Endpoint {
  bool tcp = false;
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  std::string uds_path;

  static Endpoint Parse(const std::string& address) {
    Endpoint e;
    const size_t colon = address.rfind(':');
    if (colon != std::string::npos && address.find('/') == std::string::npos) {
      e.tcp = true;
      e.host = address.substr(0, colon);
      e.port = static_cast<uint16_t>(std::atoi(address.c_str() + colon + 1));
    } else {
      e.uds_path = address;
    }
    return e;
  }

  bool Connect(net::KvClient* client, uint64_t tenant,
               std::string* error) const {
    return tcp ? client->ConnectTcp(host, port, tenant, 1, error)
               : client->ConnectUds(uds_path, tenant, 1, error);
  }
};

// Inserts the seeded records [0, records) in kMaxBatch-op frames; false
// unless every insert answers kOk or kExists.
bool Preload(const Endpoint& endpoint, uint64_t records) {
  net::KvClient loader;
  std::string error;
  if (!endpoint.Connect(&loader, 0, &error)) {
    std::fprintf(stderr, "preload connect failed: %s\n", error.c_str());
    return false;
  }
  std::array<api::Op, kMaxBatch> ops;
  net::ClientResponse response;
  for (uint64_t at = 0; at < records;) {
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(kMaxBatch, records - at));
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = bench_suite::KeyOf(kSeed, at + i);
      ops[i] = api::Op::Insert(key, bench_suite::ValueFor(key, 0));
    }
    if (!loader.Execute(ops.data(), n, /*deadline_us=*/0, &response)) {
      std::fprintf(stderr, "preload failed at record %llu\n",
                   static_cast<unsigned long long>(at));
      return false;
    }
    for (const api::Status status : response.statuses) {
      if (status != api::Status::kOk && status != api::Status::kExists) {
        std::fprintf(stderr, "preload insert answered %s\n",
                     api::StatusName(status));
        return false;
      }
    }
    at += n;
  }
  return true;
}

int Run(int argc, char** argv) {
  Flags flags;
  bench_suite::Mix mix;
  if (!ParseFlags(argc, argv, &flags, &mix)) return 2;

  StoreHandle handle;
  std::unique_ptr<net::KvServer> server;
  Endpoint endpoint;
  std::string error;
  if (flags.connect.empty()) {
    api::IndexKind kind = api::IndexKind::kDashEH;
    if (!api::ParseIndexKind(flags.kind, &kind)) {
      std::fprintf(stderr, "unknown --kind=%s\n", flags.kind.c_str());
      return 2;
    }
    // Bounded submit backoff, as in the kv_server example: saturation
    // surfaces as kUnavailable answers instead of a blocked event loop.
    api::AsyncOptions async;
    async.inline_single_shard = false;
    async.submit_retries = 8;
    handle = MakeShardedStore(kind, flags.shards, ParseArgs(argc, argv),
                              DashOptions{}, async);
    if (handle.store == nullptr) {
      std::fprintf(stderr, "store open failed\n");
      return 2;
    }
    net::ServerOptions server_options;
    server_options.tcp = flags.transport == "tcp";
    if (!server_options.tcp) server_options.uds_path = handle.prefix + ".sock";
    server = std::make_unique<net::KvServer>(handle.store.get(),
                                             server_options);
    if (!server->Start(&error)) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return 2;
    }
    endpoint.tcp = server_options.tcp;
    endpoint.port = server->tcp_port();
    endpoint.uds_path = server->uds_path();
  } else {
    endpoint = Endpoint::Parse(flags.connect);
  }
  if (!Preload(endpoint, flags.preload)) return 2;

  const util::ZipfGenerator zipf(flags.preload, kZipfTheta, kSeed);
  bench_suite::FreshKeys fresh;  // the mixes insert no fresh keys
  std::vector<std::unique_ptr<net::KvClient>> clients;
  std::vector<std::unique_ptr<bench_suite::OpStream>> streams;
  std::vector<std::unique_ptr<bench_suite::ClientLog>> logs;
  for (size_t c = 0; c < flags.clients; ++c) {
    clients.push_back(std::make_unique<net::KvClient>());
    if (!endpoint.Connect(clients.back().get(), c, &error)) {
      std::fprintf(stderr, "client %zu connect failed: %s\n", c,
                   error.c_str());
      return 2;
    }
    streams.push_back(std::make_unique<bench_suite::OpStream>(
        mix, kSeed, c, flags.preload, &zipf, &fresh));
    logs.push_back(std::make_unique<bench_suite::ClientLog>(0, 0));
  }

  bench_suite::PhaseControl control;  // starts in kWarmupPhase
  double seconds = 0.0;
  {
    const Clock::time_point origin = Clock::now();
    std::vector<std::jthread> threads;
    for (size_t c = 0; c < flags.clients; ++c) {
      threads.emplace_back([&, c] {
        bench_suite::RunClient(clients[c].get(), streams[c].get(),
                               flags.batch, flags.window, control, c, origin,
                               logs[c].get());
      });
    }
    std::this_thread::sleep_for(Seconds(kWarmupSeconds));
    const Clock::time_point t0 = Clock::now();
    control.phase.store(kMeasuredPhase, std::memory_order_release);
    std::this_thread::sleep_for(Seconds(flags.duration_s));
    seconds = Seconds(Clock::now() - t0).count();
    control.phase.store(bench_suite::kStopPhase, std::memory_order_release);
  }

  bench_suite::LegStats measured;
  bench_suite::OpTally checked;
  uint64_t protocol_errors = 0;
  for (const auto& log : logs) {
    measured.Merge(log->phases[kMeasuredPhase]);
    checked.Merge(log->phases[kWarmupPhase].ops);
    checked.Merge(log->phases[kMeasuredPhase].ops);
    protocol_errors += log->protocol_error ? 1 : 0;
  }
  const auto us = [&measured](double q) {
    return measured.request_ns.Quantile(q) / 1e3;
  };
  std::printf(
      "{\"bench\":\"bench_serving\",\"workload\":\"%s\",\"kind\":\"%s\","
      "\"transport\":\"%s\",\"clients\":%zu,\"shards\":%zu,\"batch\":%zu,"
      "\"window\":%d,\"preload\":%llu,\"duration_s\":%.2f,"
      "\"requests\":%llu,\"ops\":%llu,\"mops\":%.4f,\"failed\":%llu,"
      "\"wrong\":%llu,\"protocol_errors\":%llu,\"retry_responses\":%llu,"
      "\"p50_us\":%.1f,\"p99_us\":%.1f,\"p999_us\":%.1f}\n",
      flags.workload.c_str(),
      flags.connect.empty() ? flags.kind.c_str() : "external",
      endpoint.tcp ? "tcp" : "uds", flags.clients, flags.shards,
      flags.batch, flags.window,
      static_cast<unsigned long long>(flags.preload), seconds,
      static_cast<unsigned long long>(measured.requests),
      static_cast<unsigned long long>(measured.ops.ok),
      static_cast<double>(measured.ops.ok) / seconds / 1e6,
      static_cast<unsigned long long>(checked.failed),
      static_cast<unsigned long long>(checked.wrong),
      static_cast<unsigned long long>(protocol_errors),
      static_cast<unsigned long long>(measured.retry_responses), us(0.50),
      us(0.99), us(0.999));
  std::fflush(stdout);
  return protocol_errors == 0 && checked.wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace dash::bench

int main(int argc, char** argv) { return dash::bench::Run(argc, argv); }
