// bench_suite: one named workload of the served request path per call.
//
// Every workload runs the shipped stack in one process: a 2-shard
// ShardedStore with per-shard workers behind a KvServer on a Unix-domain
// socket, driven by 2 closed-loop KvClient callers that each keep 4
// request frames in flight on their own connection. PM emulation is set
// in code (read 140 ns, flush 100 ns), never from the environment. With at
// least 4 hardware threads the stack runs on fixed CPUs: shard worker s on
// CPU s, the event loop on CPU 2, the clients on CPU 3.
//
//   bench_suite --workload=NAME --seed=S --seconds=N [--trace=SPANS_FILE]
//
// Pools, checkpoints and the socket are created in the working directory
// under short relative names and removed on exit.
//
// Without --trace the run measures the end-to-end metrics: set-up (store
// open + preload + server start + client handshakes, the median of
// several), an untimed warm-up, a steady window of --seconds, then
// crash-reopen cycles. With --trace it replays the same seed through a
// ladder of legs, each timed from this file around calls into one layer's
// public functions:
//   wire   KvClient Send/Receive, alternating untraced and traced slices
//   store  ShardedStore::SubmitExecute / BatchFuture::Wait
//   table  shard(i)->MultiExecute on the caller's thread, split by ShardOf
//   codec  the protocol.h encoders and decoders, single-threaded
// and reports the per-layer metrics; the spans go to SPANS_FILE as JSON
// lines. Per-layer numbers are differences of medians: they attribute
// cost, they do not prove that the layers add up to the request time.
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit status: 0 all results correct, 1 a wrong result or protocol error,
// 2 bad usage or a failed set-up (no JSON line).

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/sharded_store.h"
#include "net/kv_client.h"
#include "net/kv_server.h"
#include "net/protocol.h"
#include "pmem/stats.h"
#include "serving_load.h"
#include "util/amac.h"
#include "util/zipf.h"

namespace dash::bench_suite {
namespace {

// ---- the workloads ----

struct Workload {
  const char* name;
  api::IndexKind kind;
  uint64_t records;        // preloaded before the callers start
  Mix mix;
  size_t batch;            // ops per request frame
  int setups;              // timed set-ups per run; setup_s is the median
  uint64_t round_inserts;  // > 0: fixed-count insert rounds, each on an
                           // empty store, instead of a steady window
  uint32_t compaction_interval_ms;
  double compaction_trigger;
};

// Why each exists is recorded in README.md and BENCHMARK.json.
constexpr Workload kWorkloads[] = {
    {"serve-hot", api::IndexKind::kDashEH, 1'000'000,
     {.read_pct = 95, .inserts = false, .zipf_theta = 0.99}, 16, 5, 0, 0,
     0.0},
    {"read-large", api::IndexKind::kDashEH, 16'000'000,
     {.read_pct = 100, .inserts = false, .zipf_theta = 0.0}, 256, 3, 0, 0,
     0.0},
    {"insert-grow", api::IndexKind::kDashEH, 0,
     {.read_pct = 0, .inserts = true, .zipf_theta = 0.0}, 64, 5, 4'000'000,
     0, 0.0},
    // Background compaction runs while serving, periodic checkpoints do
    // not: each is a ~20 MB file written by the shard worker into the run
    // directory, on a disk other machines share. Every 2 s they cut
    // throughput from ~1.5 M to 0.2-0.9 M ops/s in 6 of 10 consecutive
    // runs (p99 from 0.12 to 0.8-7.4 ms) while the other workloads ran
    // normally. Recovery cycles still write one checkpoint each, untimed.
    {"update-hybrid", api::IndexKind::kHybrid, 1'000'000,
     {.read_pct = 50, .inserts = false, .zipf_theta = 0.99}, 16, 5, 0, 10,
     0.25},
};

// Load shape shared by every workload (see README.md for why 2 x 2).
constexpr size_t kShards = 2;
constexpr int kClients = 2;
constexpr int kWindow = 4;
constexpr int kLoadThreads = 4;
constexpr uint32_t kEmulatedReadNs = 140;
constexpr uint32_t kEmulatedFlushNs = 100;
constexpr double kWarmupSeconds = 2.0;
constexpr int kMinRounds = 3;
constexpr int kRecoveryCycles = 7;
constexpr uint64_t kTailOps = 50'000;
constexpr size_t kVerifySample = 4096;
constexpr size_t kSpanCap = 10'000;  // per caller thread and leg

// CPU placement, used with at least 4 hardware threads: shard worker s on
// CPU s (ExecutorOptions::pin_workers), the event loop on kLoopCpu, and
// the threads that play the clients on kClientCpu. Fixed CPUs roughly
// halved the second-to-second throughput spread on a 4-vCPU guest.
constexpr int kLoopCpu = 2;
constexpr int kClientCpu = 3;

bool PinCpus() { return std::thread::hardware_concurrency() >= 4; }

// Restricts the calling thread to `cpu` when PinCpus().
void PinThread(int cpu) {
  if (!PinCpus()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

// ---- small helpers ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// DRAM the heap holds live: bytes in use in every malloc arena plus
// mmapped chunks. PM pools are file mappings and never count. Taken from
// the allocator rather than RssAnon because what free memory glibc keeps
// resident after the earlier set-ups varies from run to run by ~20 MB.
double HeapMiB() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
}

void SleepSeconds(double s) {
  std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// File prefix of the k-th serving stack of a run.
std::string StackPrefix(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "d%d", k);
  return buf;
}

// ---- one serving stack ----

api::ShardedStoreOptions StoreOptions(const Workload& w,
                                      const std::string& prefix,
                                      bool background) {
  api::ShardedStoreOptions o;
  o.kind = w.kind;
  o.shards = kShards;
  o.path_prefix = prefix;
  o.table.compaction_trigger = w.compaction_trigger;
  o.async.workers = true;
  o.async.inline_single_shard = false;
  // Saturation must come back as retry-after responses, not a blocked
  // event loop (see kv_server.h).
  o.async.submit_retries = 8;
  o.async.pin_workers = PinCpus();
  if (background) o.compaction_interval_ms = w.compaction_interval_ms;
  return o;
}

void RemoveStoreFiles(const std::string& prefix) {
  for (size_t s = 0; s < kShards; ++s) {
    const std::string shard = prefix + ".shard" + std::to_string(s);
    std::remove(shard.c_str());
    std::remove((shard + ".ckpt").c_str());
    std::remove((shard + ".ckpt.tmp").c_str());
  }
  std::remove((prefix + ".manifest").c_str());
  std::remove((prefix + ".manifest.tmp").c_str());
  std::remove((prefix + ".sock").c_str());
}

// Inserts records [0, records) of the seeded key space through batched
// MultiInsert from kLoadThreads threads; false unless every insert is kOk.
bool Preload(api::ShardedStore* store, uint64_t seed, uint64_t records) {
  std::atomic<bool> ok{true};
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kLoadThreads; ++t) {
      threads.emplace_back([&, t] {
        const uint64_t begin = records * static_cast<uint64_t>(t) /
                               kLoadThreads;
        const uint64_t end = records * static_cast<uint64_t>(t + 1) /
                             kLoadThreads;
        std::array<uint64_t, kMaxBatch> keys;
        std::array<uint64_t, kMaxBatch> values;
        std::array<api::Status, kMaxBatch> statuses;
        for (uint64_t at = begin; at < end;) {
          const size_t n = static_cast<size_t>(
              std::min<uint64_t>(kMaxBatch, end - at));
          for (size_t i = 0; i < n; ++i) {
            keys[i] = KeyOf(seed, at + i);
            values[i] = ValueFor(keys[i], 0);
          }
          store->MultiInsert(keys.data(), values.data(), n, statuses.data());
          for (size_t i = 0; i < n; ++i) {
            if (statuses[i] != api::Status::kOk) ok = false;
          }
          at += n;
        }
      });
    }
  }
  return ok.load();
}

// Store, server and connected clients over files named after `prefix`.
// Destruction discards the stack: the store is dropped without CloseClean,
// so no final checkpoint is written for files about to be removed.
class Deployment {
 public:
  Deployment(const Workload& w, std::string prefix)
      : w_(w), prefix_(std::move(prefix)) {
    RemoveStoreFiles(prefix_);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    StopServing();
    store_.reset();
    RemoveStoreFiles(prefix_);
  }

  // Store open + preload + server start + client handshakes, timed into
  // *seconds. False (with a message on stderr) if any step fails.
  bool Start(uint64_t seed, double* seconds) {
    const Clock::time_point t0 = Clock::now();
    store_ = api::ShardedStore::Open(StoreOptions(w_, prefix_, true));
    if (store_ == nullptr || store_->QuarantinedCount() != 0) {
      std::fprintf(stderr, "store open failed at %s\n", prefix_.c_str());
      return false;
    }
    if (!Preload(store_.get(), seed, w_.records)) {
      std::fprintf(stderr, "preload returned a status other than kOk\n");
      return false;
    }
    net::ServerOptions server_options;
    server_options.uds_path = prefix_ + ".sock";
    server_ = std::make_unique<net::KvServer>(store_.get(), server_options);
    std::string error;
    bool started = false;
    // The event loop thread inherits the CPU of the thread that starts it.
    std::thread([&] {
      PinThread(kLoopCpu);
      started = server_->Start(&error);
    }).join();
    if (!started) {
      std::fprintf(stderr, "server start failed: %s\n", error.c_str());
      return false;
    }
    for (int c = 0; c < kClients; ++c) {
      clients_.push_back(std::make_unique<net::KvClient>());
      if (!clients_.back()->ConnectUds(server_options.uds_path,
                                       static_cast<uint64_t>(c), 1, &error)) {
        std::fprintf(stderr, "client connect failed: %s\n", error.c_str());
        return false;
      }
    }
    *seconds = Seconds(t0, Clock::now());
    return true;
  }

  // Disconnects, stops the server and closes the store cleanly; the files
  // stay for a reopen.
  void Shutdown() {
    StopServing();
    if (store_ != nullptr) store_->CloseClean();
    store_.reset();
  }

  api::ShardedStore* store() { return store_.get(); }
  net::KvClient* client(int c) { return clients_[static_cast<size_t>(c)].get(); }
  const std::string& prefix() const { return prefix_; }

 private:
  void StopServing() {
    clients_.clear();
    if (server_ != nullptr) server_->Stop();
    server_.reset();
  }

  const Workload& w_;
  std::string prefix_;
  std::unique_ptr<api::ShardedStore> store_;
  std::unique_ptr<net::KvServer> server_;
  std::vector<std::unique_ptr<net::KvClient>> clients_;
};

// Counters summed over the shards' IndexStats, read at quiescent points.
struct TableSnapshot {
  uint64_t records = 0;
  uint64_t capacity = 0;
  uint64_t bytes_used = 0;
  uint64_t opt_retries = 0;
  uint64_t write_locks = 0;
  uint64_t bucket_spins = 0;
  uint64_t log_dead_slots = 0;
  uint64_t log_chunk_bytes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_bytes = 0;
};

TableSnapshot Snapshot(api::ShardedStore* store) {
  TableSnapshot t;
  for (size_t s = 0; s < store->shard_count(); ++s) {
    const api::IndexStats st = store->shard(s)->Stats();
    t.records += st.records;
    t.capacity += st.capacity_slots;
    t.bytes_used += st.bytes_used;
    t.opt_retries += st.opt_retries;
    t.write_locks += st.write_locks;
    t.bucket_spins += st.bucket_lock_contended_spins;
    t.log_dead_slots += st.log_dead_slots;
    t.log_chunk_bytes += st.log_chunk_bytes;
    t.compactions += st.compactions;
    t.compaction_bytes += st.compaction_bytes_rewritten;
  }
  return t;
}

// ---- the run ----

struct Args {
  std::string workload;
  bool has_seed = false;   // --seed is required
  uint64_t seed = 0;
  double seconds = 0.0;    // required
  std::string trace_file;  // nonempty: traced run
};

struct WireRun {
  std::array<LegStats, kMaxPhases> phases;
  std::array<double, kMaxPhases> seconds{};
  // Per schedule step: its length and the ops completed kOk during it.
  std::vector<double> step_seconds;
  std::vector<uint64_t> step_ops;
  std::vector<SpanLog> spans;
  Clock::time_point last_completion{};
  bool protocol_error = false;
};

class Run {
 public:
  Run(const Workload& w, const Args& args)
      : w_(w), args_(args), origin_(Clock::now()) {
    if (w.mix.zipf_theta > 0.0) {
      zipf_ = std::make_unique<util::ZipfGenerator>(w.records, w.mix.zipf_theta,
                                                    args.seed);
    }
  }

  int EndToEnd();
  int Traced();

 private:
  std::unique_ptr<OpStream> Stream(uint64_t id, FreshKeys* fresh = nullptr) {
    return std::make_unique<OpStream>(w_.mix, args_.seed, id, w_.records,
                                      zipf_.get(),
                                      fresh != nullptr ? fresh : &fresh_);
  }
  std::vector<std::unique_ptr<OpStream>> Streams() {
    std::vector<std::unique_ptr<OpStream>> s;
    for (int c = 0; c < kClients; ++c) s.push_back(Stream(c));
    return s;
  }

  WireRun RunWire(Deployment* d, int first_phase,
                  const std::vector<std::pair<int, double>>& schedule,
                  uint32_t traced_mask, size_t span_cap);
  bool Recover(const std::string& prefix, int cycles, uint64_t present);

  const Workload& w_;
  Args args_;
  Clock::time_point origin_;
  std::unique_ptr<util::ZipfGenerator> zipf_;
  FreshKeys fresh_;
  // Recovery results (filled by Recover).
  std::vector<double> recovery_ms_;
  double recovery_shard_ms_max_ = 0.0;
  uint64_t recovery_replayed_ = 0;
  uint64_t recovery_staleness_ = 0;
};

// Drives the clients of `d` from `first_phase` through `schedule` (phase,
// seconds) steps, then stops them; with an empty schedule they run until
// their streams run dry.
WireRun Run::RunWire(Deployment* d, int first_phase,
                     const std::vector<std::pair<int, double>>& schedule,
                     uint32_t traced_mask, size_t span_cap) {
  PhaseControl control;
  control.phase.store(first_phase);
  control.traced_mask = traced_mask;
  auto streams = Streams();
  std::vector<std::unique_ptr<ClientLog>> logs;
  for (int c = 0; c < kClients; ++c) {
    logs.push_back(std::make_unique<ClientLog>(schedule.size(), span_cap));
  }
  WireRun out;
  out.step_ops.assign(schedule.size(), 0);
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        PinThread(kClientCpu);
        RunClient(d->client(c), streams[static_cast<size_t>(c)].get(),
                  w_.batch, kWindow, control, static_cast<uint64_t>(c),
                  origin_, logs[static_cast<size_t>(c)].get());
      });
    }
    for (size_t step = 0; step < schedule.size(); ++step) {
      const auto [phase, secs] = schedule[step];
      const Clock::time_point t0 = Clock::now();
      control.step.store(step, std::memory_order_release);
      control.phase.store(phase, std::memory_order_release);
      SleepSeconds(secs);
      const double elapsed = Seconds(t0, Clock::now());
      out.step_seconds.push_back(elapsed);
      out.seconds[static_cast<size_t>(phase)] += elapsed;
    }
    if (!schedule.empty()) {
      control.phase.store(kStopPhase, std::memory_order_release);
    }
  }
  for (const auto& log : logs) {
    for (int p = 0; p < kMaxPhases; ++p) {
      out.phases[static_cast<size_t>(p)].Merge(
          log->phases[static_cast<size_t>(p)]);
    }
    for (size_t step = 0; step < schedule.size(); ++step) {
      out.step_ops[step] += log->step_ops[step];
    }
    out.protocol_error |= log->protocol_error;
    out.last_completion = std::max(out.last_completion, log->last_completion);
    out.spans.push_back(std::move(log->spans));
  }
  return out;
}

// Crash-reopen cycles on the closed store at `prefix`: each cycle writes a
// checkpoint on every shard (a no-op on PM-native tables), runs a fixed
// tail of the workload's own mix, drops the store without CloseClean, and
// times ShardedStore::Open plus one Search routed to each shard.
// Background compaction stays off here so every cycle replays the same
// tail. Checks the recovery source, the probes, every key the tail
// wrote and a sample of records [0, present) of the key space.
bool Run::Recover(const std::string& prefix, int cycles, uint64_t present) {
  const api::ShardedStoreOptions options = StoreOptions(w_, prefix, false);
  const char* want_source =
      w_.kind == api::IndexKind::kHybrid ? "checkpoint" : "native";
  std::unique_ptr<api::ShardedStore> store = api::ShardedStore::Open(options);
  if (store == nullptr) return false;
  std::vector<uint64_t> probes(kShards, 0);
  for (uint64_t i = 0, found = 0; found < kShards && i < present; ++i) {
    const uint64_t key = KeyOf(args_.seed, i);
    uint64_t& probe = probes[store->ShardOf(key)];
    if (probe == 0) {
      probe = key;
      ++found;
    }
  }
  std::unique_ptr<OpStream> tail = Stream(100);
  std::unordered_map<uint64_t, uint64_t> written;
  bool ok = true;
  for (int c = 0; c < cycles && ok; ++c) {
    for (size_t s = 0; s < kShards; ++s) store->shard(s)->WriteCheckpoint();
    std::array<api::Op, kMaxBatch> ops;
    std::array<api::Status, kMaxBatch> statuses;
    OpTally tally;
    for (uint64_t done = 0; done < kTailOps;) {
      const size_t n = tail->Fill(
          static_cast<size_t>(std::min<uint64_t>(w_.batch, kTailOps - done)),
          ops.data());
      store->MultiExecute(ops.data(), n, statuses.data());
      for (size_t i = 0; i < n; ++i) {
        CheckOp(ops[i], statuses[i], ops[i].value, &tally);
        if (ops[i].type != api::OpType::kSearch) {
          written[ops[i].key] = ops[i].value;
        }
      }
      done += n;
    }
    store.reset();  // no CloseClean: dirty pools, the image a crash leaves

    const Clock::time_point t0 = Clock::now();
    store = api::ShardedStore::Open(options);
    bool probes_ok = store != nullptr;
    for (size_t s = 0; probes_ok && s < kShards; ++s) {
      uint64_t value = 0;
      probes_ok = probes[s] != 0 &&
                  store->Search(probes[s], &value) == api::Status::kOk &&
                  ValueMatches(probes[s], value);
    }
    const double ms = Seconds(t0, Clock::now()) * 1e3;
    if (!probes_ok || tally.ok != kTailOps) {
      std::fprintf(stderr, "recovery cycle %d: failed probe or tail op\n", c);
      ok = false;
      break;
    }
    const api::RecoveryReport& report = store->recovery_report();
    for (size_t s = 0; s < kShards; ++s) {
      if (report.shard_source[s] != want_source) {
        std::fprintf(stderr, "recovery source of shard %zu is %s, not %s\n",
                     s, report.shard_source[s].c_str(), want_source);
        ok = false;
      }
      recovery_shard_ms_max_ =
          std::max(recovery_shard_ms_max_, report.shard_ms[s]);
    }
    recovery_replayed_ = 0;
    recovery_staleness_ = 0;
    for (size_t s = 0; s < kShards; ++s) {
      recovery_replayed_ += report.shard_replayed[s];
      recovery_staleness_ += report.shard_staleness[s];
    }
    recovery_ms_.push_back(ms);

    // Every acknowledged write of the tails must read back exactly; a
    // sample of the other records must read back a value of its key.
    std::vector<uint64_t> keys;
    for (const auto& entry : written) keys.push_back(entry.first);
    util::Xoshiro256 rng(args_.seed ^ 0xabcdefull);
    for (size_t i = 0; i < kVerifySample && present > 0; ++i) {
      const uint64_t key = KeyOf(args_.seed, rng.NextBounded(present));
      if (written.count(key) == 0) keys.push_back(key);
    }
    std::vector<uint64_t> values(keys.size());
    std::vector<api::Status> st(keys.size());
    store->MultiSearch(keys.data(), keys.size(), values.data(), st.data());
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto w = written.find(keys[i]);
      const bool good = st[i] == api::Status::kOk &&
                        (w != written.end() ? values[i] == w->second
                                            : ValueMatches(keys[i], values[i]));
      if (!good) {
        std::fprintf(stderr, "recovery cycle %d: key %llx lost or wrong\n", c,
                     static_cast<unsigned long long>(keys[i]));
        ok = false;
        break;
      }
    }
  }
  if (store != nullptr) store->CloseClean();
  std::printf("# %s recovery: %zu cycles, source %s%s\n", w_.name,
              recovery_ms_.size(), want_source, ok ? "" : ", FAILED");
  return ok;
}

// The result line: the last line of stdout.
void Emit(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintInfo(const char* workload, const std::vector<Metric>& info) {
  for (const Metric& m : info) {
    std::printf("# %s %s = %.10g %s\n", workload, m.name.c_str(), m.value,
                m.unit);
  }
}

int Run::EndToEnd() {
  std::vector<Metric> info;
  std::vector<double> setups;
  std::unique_ptr<Deployment> live;
  LegStats measured;
  // One entry per insert round, or one for the steady window.
  std::vector<double> round_ops_per_s;
  std::vector<double> round_p50_us;
  std::vector<double> round_p99_us;
  std::vector<double> round_bytes_per_record;
  double window_seconds = 0.0;
  bool broken = false;  // protocol error or wrong record count
  double dram_mb = 0.0;

  // Set up w_.setups times and keep the last stack; the median is the
  // set-up time, so work moved into set-up shows.
  int stacks = 0;
  const auto set_up = [&] {
    live.reset();
    live = std::make_unique<Deployment>(w_, StackPrefix(stacks++));
    double s = 0.0;
    if (!live->Start(args_.seed, &s)) return false;
    setups.push_back(s);
    return true;
  };
  for (int k = 0; k < w_.setups; ++k) {
    if (!set_up()) return 2;
  }

  if (w_.round_inserts == 0) {
    WireRun wire = RunWire(live.get(), 0,
                           {{0, kWarmupSeconds}, {1, args_.seconds}}, 0, 0);
    measured = wire.phases[1];
    window_seconds = wire.seconds[1];
    broken = wire.protocol_error;
    const TableSnapshot t = Snapshot(live->store());
    if (t.records != w_.records) {
      std::fprintf(stderr, "store holds %llu records, expected %llu\n",
                   static_cast<unsigned long long>(t.records),
                   static_cast<unsigned long long>(w_.records));
      broken = true;
    }
    round_bytes_per_record.push_back(Ratio(static_cast<double>(t.bytes_used),
                                           static_cast<double>(t.records)));
    round_ops_per_s.push_back(
        Ratio(static_cast<double>(measured.ops.ok), window_seconds));
    round_p50_us.push_back(measured.request_ns.Quantile(0.50) / 1e3);
    round_p99_us.push_back(measured.request_ns.Quantile(0.99) / 1e3);
    dram_mb = HeapMiB();
  } else {
    // Fixed-count rounds, each inserting round_inserts fresh keys into an
    // empty store, until --seconds of insert time is measured (at least
    // kMinRounds rounds). Every round after the first sets up a new stack.
    fresh_.limit = w_.round_inserts;
    for (int k = 0; k < kMinRounds || window_seconds < args_.seconds; ++k) {
      if (k > 0 && !set_up()) return 2;
      fresh_.next.store(0);
      const Clock::time_point t0 = Clock::now();
      WireRun wire = RunWire(live.get(), 1, {}, 0, 0);
      const double round_s = Seconds(t0, wire.last_completion);
      window_seconds += round_s;
      measured.Merge(wire.phases[1]);
      broken |= wire.protocol_error;
      round_ops_per_s.push_back(static_cast<double>(w_.round_inserts) /
                                round_s);
      round_p50_us.push_back(wire.phases[1].request_ns.Quantile(0.50) / 1e3);
      round_p99_us.push_back(wire.phases[1].request_ns.Quantile(0.99) / 1e3);
      const TableSnapshot t = Snapshot(live->store());
      if (t.records != w_.round_inserts) {
        std::fprintf(stderr, "round %d: store holds %llu records\n", k,
                     static_cast<unsigned long long>(t.records));
        broken = true;
      }
      round_bytes_per_record.push_back(
          Ratio(static_cast<double>(t.bytes_used),
                static_cast<double>(t.records)));
      info.push_back({"round_load_factor",
                      Ratio(static_cast<double>(t.records),
                            static_cast<double>(t.capacity)),
                      "fraction"});
      dram_mb = HeapMiB();
    }
    fresh_.limit = std::numeric_limits<uint64_t>::max();
    fresh_.next.store(w_.round_inserts);
  }

  live->Shutdown();
  const bool recovered =
      Recover(live->prefix(), kRecoveryCycles, w_.records + w_.round_inserts);
  live.reset();

  const uint64_t attempted = measured.ops.ok + measured.ops.failed;
  const bool correct = recovered && !broken &&
                       measured.ops.wrong == 0 && attempted > 0;
  info.push_back({"p999_us", measured.request_ns.Quantile(0.999) / 1e3, "us"});
  info.push_back({"requests", static_cast<double>(measured.requests),
                  "count"});
  info.push_back({"error_ratio",
                  Ratio(static_cast<double>(measured.ops.failed),
                        static_cast<double>(attempted)),
                  "fraction"});
  info.push_back({"window_s", window_seconds, "s"});
  // Not gated: reopen time moves with the host far more than the gated
  // metrics; serve-hot's median over 10 runs halved between two sets.
  info.push_back({"recovery_ms", Median(recovery_ms_), "ms"});
  for (double s : setups) info.push_back({"setup_sample", s, "s"});
  for (double ms : recovery_ms_) info.push_back({"recovery_sample", ms, "ms"});
  PrintInfo(w_.name, info);
  Emit(correct, attempted, measured.ops.failed,
       {{"ops_per_s", Median(round_ops_per_s), "ops/s"},
        {"p50_us", Median(round_p50_us), "us"},
        {"p99_us", Median(round_p99_us), "us"},
        {"setup_s", Median(setups), "s"},
        {"pm_bytes_per_record", Median(round_bytes_per_record), "B"},
        {"dram_mb", dram_mb, "MiB"}});
  return correct ? 0 : 1;
}

// ---- traced legs ----

struct StoreLeg {
  uint64_t batches = 0;
  uint64_t shard_touches = 0;
  OpTally ops;
  LatencyHistogram batch_ns;
  LatencyHistogram submit_ns;

  void Merge(const StoreLeg& o) {
    batches += o.batches;
    shard_touches += o.shard_touches;
    ops.Merge(o.ops);
    batch_ns.Merge(o.batch_ns);
    submit_ns.Merge(o.submit_ns);
  }
};

// One store-leg caller: the wire caller's window, with SubmitExecute in
// place of Send and BatchFuture::Wait (oldest first) in place of Receive.
void StoreCaller(api::ShardedStore* store, OpStream* stream, size_t batch,
                 const std::atomic<bool>& stop, uint64_t span_base,
                 Clock::time_point origin, StoreLeg* out, SpanLog* spans) {
  struct Slot {
    std::array<api::Op, kMaxBatch> ops;
    std::array<api::Status, kMaxBatch> statuses;
    size_t n = 0;
    api::BatchFuture future;
    Clock::time_point start{};
    Clock::time_point submitted{};
  };
  std::vector<Slot> ring(kWindow);
  size_t head = 0;
  size_t used = 0;
  uint64_t seq = 0;
  const auto complete_oldest = [&] {
    Slot& slot = ring[head];
    slot.future.Wait();
    const Clock::time_point done = Clock::now();
    out->batch_ns.Record(ElapsedNs(slot.start, done));
    out->submit_ns.Record(ElapsedNs(slot.start, slot.submitted));
    ++out->batches;
    for (size_t i = 0; i < slot.n; ++i) {
      CheckOp(slot.ops[i], slot.statuses[i], slot.ops[i].value, &out->ops);
    }
    const uint64_t id = span_base | seq++;
    spans->Add("api.store.batch", nullptr, id, slot.start, done, origin);
    spans->Add("api.store.submit", "api.store.batch", id, slot.start,
               slot.submitted, origin);
    head = (head + 1) % ring.size();
    --used;
  };
  while (!stop.load(std::memory_order_acquire)) {
    if (used == ring.size()) {
      complete_oldest();
      continue;
    }
    Slot& slot = ring[(head + used) % ring.size()];
    slot.n = stream->Fill(batch, slot.ops.data());
    if (slot.n == 0) break;
    uint32_t touched = 0;
    for (size_t i = 0; i < slot.n; ++i) {
      touched |= 1u << store->ShardOf(slot.ops[i].key);
    }
    out->shard_touches += static_cast<uint64_t>(__builtin_popcount(touched));
    slot.start = Clock::now();
    slot.future =
        store->SubmitExecute(slot.ops.data(), slot.n, slot.statuses.data());
    slot.submitted = Clock::now();
    ++used;
  }
  while (used > 0) complete_oldest();
}

struct TableLeg {
  OpTally ops;
  LatencyHistogram batch_ns;

  void Merge(const TableLeg& o) {
    ops.Merge(o.ops);
    batch_ns.Merge(o.batch_ns);
  }
};

// One table-leg caller: each batch is split by ShardOf and run through
// shard(i)->MultiExecute on this thread; table.batch spans the calls.
void TableCaller(api::ShardedStore* store, OpStream* stream, size_t batch,
                 const std::atomic<bool>& stop, uint64_t span_base,
                 Clock::time_point origin, TableLeg* out, SpanLog* spans) {
  std::array<api::Op, kMaxBatch> ops;
  std::array<std::array<api::Op, kMaxBatch>, kShards> sub;
  std::array<std::array<api::Status, kMaxBatch>, kShards> statuses;
  std::array<size_t, kShards> count{};
  uint64_t seq = 0;
  while (!stop.load(std::memory_order_acquire)) {
    const size_t n = stream->Fill(batch, ops.data());
    if (n == 0) break;
    count.fill(0);
    for (size_t i = 0; i < n; ++i) {
      const size_t s = store->ShardOf(ops[i].key);
      sub[s][count[s]++] = ops[i];
    }
    const Clock::time_point start = Clock::now();
    for (size_t s = 0; s < kShards; ++s) {
      if (count[s] > 0) {
        store->shard(s)->MultiExecute(sub[s].data(), count[s],
                                      statuses[s].data());
      }
    }
    const Clock::time_point done = Clock::now();
    out->batch_ns.Record(ElapsedNs(start, done));
    spans->Add("table.batch", nullptr, span_base | seq++, start, done, origin);
    for (size_t s = 0; s < kShards; ++s) {
      for (size_t j = 0; j < count[s]; ++j) {
        CheckOp(sub[s][j], statuses[s][j], sub[s][j].value, &out->ops);
      }
    }
  }
}

// Runs `caller` on kClients threads over replayed streams for `seconds`.
template <typename Leg, typename Caller>
Leg RunLeg(double seconds, Caller caller, std::vector<SpanLog>* spans,
           double* elapsed) {
  std::atomic<bool> stop{false};
  std::vector<Leg> parts(kClients);
  const size_t first_log = spans->size();
  for (int c = 0; c < kClients; ++c) spans->emplace_back(kSpanCap);
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        caller(c, stop, &parts[static_cast<size_t>(c)],
               &(*spans)[first_log + static_cast<size_t>(c)]);
      });
    }
    SleepSeconds(seconds);
    stop.store(true, std::memory_order_release);
  }
  *elapsed = Seconds(t0, Clock::now());
  Leg total;
  for (const Leg& p : parts) total.Merge(p);
  return total;
}

struct CodecLeg {
  double request_encode_ns = 0;
  double request_decode_ns = 0;
  double response_encode_ns = 0;
  double response_decode_ns = 0;
  bool round_trips = true;
};

// Times each protocol.h codec over the workload's own frames, single-
// threaded, for about `seconds` each; checks that every frame decodes to
// what was encoded.
CodecLeg RunCodecLeg(OpStream* stream, size_t batch, double seconds) {
  constexpr size_t kFrames = 1024;
  std::vector<std::vector<api::Op>> frames(kFrames);
  std::vector<std::vector<api::Status>> statuses(kFrames);
  std::vector<std::vector<uint64_t>> values(kFrames);
  uint64_t ops_per_pass = 0;
  for (size_t f = 0; f < kFrames; ++f) {
    frames[f].resize(batch);
    frames[f].resize(stream->Fill(batch, frames[f].data()));
    statuses[f].assign(frames[f].size(), api::Status::kOk);
    for (const api::Op& op : frames[f]) {
      values[f].push_back(ValueFor(op.key, 7));
    }
    ops_per_pass += frames[f].size();
  }
  CodecLeg out;
  uint64_t sink = 0;
  // Repeats `pass` until `seconds` elapse; returns ns per op.
  const auto time_passes = [&](auto pass) {
    uint64_t passes = 0;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point now = t0;
    do {
      pass();
      ++passes;
      now = Clock::now();
    } while (Seconds(t0, now) < seconds);
    return static_cast<double>(ElapsedNs(t0, now)) /
           static_cast<double>(passes * ops_per_pass);
  };

  std::vector<uint8_t> buf;
  out.request_encode_ns = time_passes([&] {
    for (size_t f = 0; f < kFrames; ++f) {
      buf.clear();
      net::AppendRequest(&buf, f + 1, frames[f].data(), frames[f].size(), 0);
      sink += buf.size();
    }
  });
  std::vector<uint8_t> requests;
  std::vector<uint8_t> responses;
  for (size_t f = 0; f < kFrames; ++f) {
    net::AppendRequest(&requests, f + 1, frames[f].data(), frames[f].size(),
                       0);
    net::AppendResponse(&responses, f + 1, statuses[f].data(),
                        values[f].data(), frames[f].size(), 0);
  }
  bool first = true;
  out.request_decode_ns = time_passes([&] {
    size_t off = 0;
    for (size_t f = 0; f < kFrames; ++f) {
      net::Frame frame;
      size_t used = 0;
      net::RequestView view;
      if (net::DecodeFrame(requests.data() + off, requests.size() - off,
                           &frame, &used) != net::DecodeResult::kFrame ||
          !net::ParseRequest(frame, &view) ||
          view.count != frames[f].size()) {
        out.round_trips = false;
        return;
      }
      for (size_t i = 0; i < view.count; ++i) {
        api::Op op;
        if (!net::DecodeRequestOp(view, i, &op)) out.round_trips = false;
        sink += op.key;
        if (first && (op.type != frames[f][i].type ||
                      op.key != frames[f][i].key ||
                      op.value != frames[f][i].value)) {
          out.round_trips = false;
        }
      }
      off += used;
    }
    first = false;
  });
  out.response_encode_ns = time_passes([&] {
    for (size_t f = 0; f < kFrames; ++f) {
      buf.clear();
      net::AppendResponse(&buf, f + 1, statuses[f].data(), values[f].data(),
                          frames[f].size(), 0);
      sink += buf.size();
    }
  });
  first = true;
  out.response_decode_ns = time_passes([&] {
    size_t off = 0;
    for (size_t f = 0; f < kFrames; ++f) {
      net::Frame frame;
      size_t used = 0;
      net::ResponseView view;
      if (net::DecodeFrame(responses.data() + off, responses.size() - off,
                           &frame, &used) != net::DecodeResult::kFrame ||
          !net::ParseResponse(frame, &view) ||
          view.count != frames[f].size()) {
        out.round_trips = false;
        return;
      }
      for (size_t i = 0; i < view.count; ++i) {
        api::Status st = api::Status::kInternal;
        uint64_t value = 0;
        if (!net::DecodeResponseEntry(view, i, &st, &value)) {
          out.round_trips = false;
        }
        sink += value;
        if (first && (st != statuses[f][i] || value != values[f][i])) {
          out.round_trips = false;
        }
      }
      off += used;
    }
    first = false;
  });
  if (sink == 0) out.round_trips = false;  // keeps the loops observable
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      std::fprintf(f,
                   "{\"name\": \"%s\", \"id\": %llu, \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": ",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
      if (s.parent != nullptr) {
        std::fprintf(f, "\"%s\"}\n", s.parent);
      } else {
        std::fprintf(f, "null}\n");
      }
    }
  }
  return std::fclose(f) == 0;
}

int Run::Traced() {
  // Leg lengths as shares of --seconds. The wire leg alternates untraced
  // and traced slices of 0.1 s.
  constexpr double kWireSlice = 0.1;
  const int wire_pairs =
      std::max(8, static_cast<int>(args_.seconds * 0.45 / (2 * kWireSlice)));
  const double store_s = args_.seconds * 0.2;
  const double table_s = args_.seconds * 0.2;
  const double codec_s = args_.seconds * 0.025;

  Deployment d(w_, "t0");
  double setup_s = 0.0;
  if (!d.Start(args_.seed, &setup_s)) return 2;
  api::ShardedStore* store = d.store();
  const TableSnapshot before = Snapshot(store);
  std::vector<SpanLog> spans;

  // Wire leg: untraced (phase 1) and traced (phase 2) slices alternate in
  // ABBA order, so a drift (host noise, a growing table) hits both alike.
  std::vector<std::pair<int, double>> schedule = {{0, 1.0}};
  for (int i = 0; i < wire_pairs; ++i) {
    schedule.push_back({i % 2 == 0 ? 1 : 2, kWireSlice});
    schedule.push_back({i % 2 == 0 ? 2 : 1, kWireSlice});
  }
  WireRun wire = RunWire(&d, 0, schedule, 1u << 2, kSpanCap);
  for (SpanLog& s : wire.spans) spans.push_back(std::move(s));
  const LegStats& untraced = wire.phases[1];
  const LegStats& traced = wire.phases[2];

  // Store leg: its callers play the clients and run on their CPU.
  double store_elapsed = 0.0;
  std::vector<std::unique_ptr<OpStream>> streams = Streams();
  const StoreLeg store_leg = RunLeg<StoreLeg>(
      store_s,
      [&](int c, const std::atomic<bool>& stop, StoreLeg* out, SpanLog* log) {
        PinThread(kClientCpu);
        StoreCaller(store, streams[static_cast<size_t>(c)].get(), w_.batch,
                    stop, (uint64_t{2} << 56) | (uint64_t(c) << 48), origin_,
                    out, log);
      },
      &spans, &store_elapsed);

  // Table leg, with the table's counters read at its boundaries. Its
  // callers do the shard workers' table work, on the workers' CPUs.
  streams = Streams();
  const TableSnapshot table_before = Snapshot(store);
  const pmem::PmStats pm_before = pmem::AggregatePmStats();
  util::AmacTelemetry::DrainAll();
  double table_elapsed = 0.0;
  const TableLeg table_leg = RunLeg<TableLeg>(
      table_s,
      [&](int c, const std::atomic<bool>& stop, TableLeg* out, SpanLog* log) {
        PinThread(c);
        TableCaller(store, streams[static_cast<size_t>(c)].get(), w_.batch,
                    stop, (uint64_t{3} << 56) | (uint64_t(c) << 48), origin_,
                    out, log);
      },
      &spans, &table_elapsed);
  const util::AmacTelemetry amac = util::AmacTelemetry::DrainAll();
  const pmem::PmStats pm_after = pmem::AggregatePmStats();
  const TableSnapshot after = Snapshot(store);

  // Codec leg, over client 0's frames; its inserts are never sent, so they
  // draw fresh keys from a counter of their own.
  const uint64_t present = w_.records + fresh_.next.load();
  FreshKeys codec_keys;
  std::unique_ptr<OpStream> codec_stream = Stream(0, &codec_keys);
  const CodecLeg codec = RunCodecLeg(codec_stream.get(), w_.batch, codec_s);

  d.Shutdown();
  std::vector<Metric> info;
  const bool recovered = Recover(d.prefix(), 1, present);

  const double table_ops = static_cast<double>(table_leg.ops.ok +
                                               table_leg.ops.failed);
  const double store_ops = static_cast<double>(store_leg.ops.ok +
                                               store_leg.ops.failed);
  const double leg_ops = static_cast<double>(
      untraced.ops.ok + untraced.ops.failed + traced.ops.ok +
      traced.ops.failed) + store_ops + table_ops;
  const double wire_p50_us = traced.request_ns.Quantile(0.5) / 1e3;
  const double store_p50_us = store_leg.batch_ns.Quantile(0.5) / 1e3;
  const double table_p50_us = table_leg.batch_ns.Quantile(0.5) / 1e3;
  const double untraced_ops_s =
      Ratio(static_cast<double>(untraced.ops.ok), wire.seconds[1]);
  const double traced_ops_s =
      Ratio(static_cast<double>(traced.ops.ok), wire.seconds[2]);
  const auto per_op = [&](uint64_t a, uint64_t b) {
    return Ratio(static_cast<double>(b - a), table_ops);
  };
  // Tracing overhead: 1 minus the median traced/untraced throughput ratio
  // of adjacent slices. The host's own drift over a second is ~10%, far
  // above the overhead; adjacent 0.1 s slices see nearly the same host.
  std::vector<double> pair_ratios;
  for (size_t step = 1; step + 1 < schedule.size(); step += 2) {
    const auto rate = [&](size_t k) {
      return Ratio(static_cast<double>(wire.step_ops[k]),
                   wire.step_seconds[k]);
    };
    const bool traced_first = schedule[step].first == 2;
    const double t = rate(traced_first ? step : step + 1);
    const double u = rate(traced_first ? step + 1 : step);
    pair_ratios.push_back(Ratio(t, u));
  }
  const double overhead_pct = (1.0 - Median(pair_ratios)) * 100.0;

  OpTally all;
  all.Merge(untraced.ops);
  all.Merge(traced.ops);
  all.Merge(store_leg.ops);
  all.Merge(table_leg.ops);
  const bool spans_written = WriteSpans(args_.trace_file, spans);
  const bool correct = recovered && spans_written && codec.round_trips &&
                       !wire.protocol_error && all.wrong == 0;

  info.push_back({"setup_s", setup_s, "s"});
  info.push_back({"wire_ops_per_s_untraced", untraced_ops_s, "ops/s"});
  info.push_back({"wire_ops_per_s_traced", traced_ops_s, "ops/s"});
  info.push_back({"wire_p50_us", wire_p50_us, "us"});
  info.push_back({"spans_written", spans_written ? 1.0 : 0.0, "bool"});
  PrintInfo(w_.name, info);
  std::printf("# %s spans -> %s\n", w_.name, args_.trace_file.c_str());

  Emit(correct, all.ok + all.failed, all.failed,
       {{"net.client.send_us", traced.send_ns.Quantile(0.5) / 1e3, "us"},
        {"net.client.wait_us_p50", traced.wait_ns.Quantile(0.5) / 1e3, "us"},
        {"net.client.wait_us_p99", traced.wait_ns.Quantile(0.99) / 1e3, "us"},
        {"net.protocol.request_encode_ns_per_op", codec.request_encode_ns,
         "ns"},
        {"net.protocol.request_decode_ns_per_op", codec.request_decode_ns,
         "ns"},
        {"net.protocol.response_encode_ns_per_op", codec.response_encode_ns,
         "ns"},
        {"net.protocol.response_decode_ns_per_op", codec.response_decode_ns,
         "ns"},
        {"net.server.overhead_us", wire_p50_us - store_p50_us, "us"},
        {"net.server.retry_ratio",
         Ratio(static_cast<double>(untraced.retry_responses +
                                   traced.retry_responses),
               static_cast<double>(untraced.requests + traced.requests)),
         "fraction"},
        {"api.store.batch_us_p50", store_p50_us, "us"},
        {"api.store.batch_us_p99", store_leg.batch_ns.Quantile(0.99) / 1e3,
         "us"},
        {"api.store.submit_us", store_leg.submit_ns.Quantile(0.5) / 1e3, "us"},
        {"api.store.handoff_us", store_p50_us - table_p50_us, "us"},
        {"api.store.ops_per_s",
         Ratio(static_cast<double>(store_leg.ops.ok), store_elapsed), "ops/s"},
        {"api.store.shards_per_batch",
         Ratio(static_cast<double>(store_leg.shard_touches),
               static_cast<double>(store_leg.batches)),
         "count"},
        {"api.store.unavailable_ratio",
         Ratio(static_cast<double>(store_leg.ops.failed - store_leg.ops.wrong),
               store_ops),
         "fraction"},
        {"table.batch_us", table_p50_us, "us"},
        {"table.ops_per_s",
         Ratio(static_cast<double>(table_leg.ops.ok), table_elapsed), "ops/s"},
        {"table.opt_retries_per_op",
         per_op(table_before.opt_retries, after.opt_retries), "count"},
        {"table.write_locks_per_op",
         per_op(table_before.write_locks, after.write_locks), "count"},
        {"table.bucket_lock_spins_per_op",
         per_op(table_before.bucket_spins, after.bucket_spins), "count"},
        {"table.load_factor",
         Ratio(static_cast<double>(after.records),
               static_cast<double>(after.capacity)),
         "fraction"},
        {"amac.suspends_per_op",
         Ratio(static_cast<double>(amac.TotalSuspends()),
               static_cast<double>(amac.ops)),
         "count"},
        {"amac.ops_per_group",
         Ratio(static_cast<double>(amac.ops), static_cast<double>(amac.groups)),
         "count"},
        {"pmem.read_probes_per_op",
         per_op(pm_before.read_probes, pm_after.read_probes), "count"},
        {"pmem.clwb_per_op", per_op(pm_before.clwb, pm_after.clwb), "count"},
        {"pmem.fence_per_op", per_op(pm_before.fence, pm_after.fence),
         "count"},
        {"hybrid.log_amplification",
         Ratio(static_cast<double>(after.log_chunk_bytes),
               static_cast<double>(after.records) * 32.0),
         "ratio"},
        {"hybrid.log_dead_slots", static_cast<double>(after.log_dead_slots),
         "count"},
        {"hybrid.compactions",
         static_cast<double>(after.compactions - before.compactions), "count"},
        {"hybrid.compaction_bytes_rewritten_per_op",
         Ratio(static_cast<double>(after.compaction_bytes -
                                   before.compaction_bytes),
               leg_ops),
         "B"},
        {"recovery.open_ms", Median(recovery_ms_), "ms"},
        {"recovery.shard_ms_max", recovery_shard_ms_max_, "ms"},
        {"recovery.replayed", static_cast<double>(recovery_replayed_),
         "count"},
        {"recovery.staleness", static_cast<double>(recovery_staleness_),
         "count"},
        {"trace.overhead_pct", overhead_pct, "%"}});
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.compare(0, 2, "--") != 0 || eq == std::string::npos) return false;
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    char* end = nullptr;
    if (name == "workload") {
      args->workload = value;
    } else if (name == "seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
      args->has_seed = true;
    } else if (name == "seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (name == "trace") {
      args->trace_file = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->has_seed && args->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_suite --workload=NAME --seed=S --seconds=N "
                 "[--trace=SPANS_FILE]\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  pmem::PmEmulationConfig& emulation = pmem::GetEmulationConfig();
  emulation.read_latency_ns.store(kEmulatedReadNs);
  emulation.flush_latency_ns.store(kEmulatedFlushNs);
  std::printf("# %s seed=%llu seconds=%g shards=%zu clients=%d window=%d "
              "batch=%zu pm_read_ns=%u pm_flush_ns=%u hw_threads=%u "
              "pinned=%d\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, kShards, kClients, kWindow, w->batch,
              kEmulatedReadNs, kEmulatedFlushNs,
              std::thread::hardware_concurrency(), PinCpus() ? 1 : 0);
  Run run(*w, args);
  return args.trace_file.empty() ? run.EndToEnd() : run.Traced();
}

}  // namespace
}  // namespace dash::bench_suite

int main(int argc, char** argv) {
  return dash::bench_suite::Main(argc, argv);
}
