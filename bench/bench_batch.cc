// Batched vs single-op throughput (the batch pipeline with software
// prefetching, see src/util/prefetch.h and the MultiSearch/MultiInsert
// implementations in each table).
//
// For every table kind the same uniform-random key stream is driven once
// through the single-op loop and once through Multi* batches; the batch
// path should win by overlapping memory stalls across the group and by
// amortizing one epoch guard over the batch. Results are printed as the
// usual human-readable rows plus one JSON line per measurement (and one
// speedup summary line per table) for the perf trajectory.
//
// Flags: --preload=N --ops=M --batch=B (defaults 3M / 2M / 16) plus the
// common --pool-gb/--pool-dir flags. Batch measurements carry the AMAC
// engine's per-state suspend/resume counters in their JSON lines.
// Every per-table measurement also carries the read-path lock telemetry
// deltas (optimistic retries, version conflicts, exclusive lock
// acquisitions — IndexStats), which is how "searches write no lock word"
// is observable: search-only phases report "write_locks":0.
// --check-speedup=X exits non-zero if any table's batch search speedup
// over single-op falls below X (CI gate).
//
// --workload={a,b,c,d,f} switches to the YCSB-style mixed mode instead:
// 50/50 (a), 95/5 (b), 100/0 (c) search/update, 95/5 read-latest/insert
// (d), or 50/50 read/RMW (f) over a zipfian key choice
// (theta 0.99) against the preloaded table, run at each --threads value,
// single-op loop vs MultiExecute descriptor batches. This
// measures the optimistic read path under write contention rather than
// in a pure search phase.
// --shards=N (N >= 1) switches to the ShardedStore facade: the same key
// stream runs once through single-op calls and once through mixed-op
// MultiExecute descriptor batches that are scattered/regrouped per shard
// (sequential caller-thread execution). A last row runs the same mixed
// batches on a store with per-shard workers, where MultiExecute is the
// sync wrapper (submit, then wait), and the summary line reports its
// ratio to the sequential path. Served throughput over the network is
// bench_serving's.
//
// --churn[=MULT] (default MULT=4) switches to the hybrid-tier log
// compaction A/B instead: preload, live-set downsize to a sixteenth, then
// MULT x --preload uniform updates over the survivors — once with
// compaction off (log space stays at its peak) and once with a
// background compactor racing the storm. Each leg reports storm
// throughput, live-space amplification, and post-churn dirty-reopen
// time; a churn-summary JSON line carries the on/off ratios the CI
// churn gate asserts on.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_common.h"
#include "util/amac.h"
#include "util/hash.h"
#include "util/rand.h"
#include "util/zipf.h"

namespace dash::bench {
namespace {

constexpr size_t kMaxBatch = 256;

// One JSON fragment with the AMAC engine's per-op suspend/resume
// telemetry (drained between phases; empty when no op ran through an
// AMAC engine, e.g. single-op phases).
std::string TelemetryJson(const util::AmacTelemetry& t) {
  if (t.ops == 0) return "";
  char buf[512];
  const double ops = static_cast<double>(t.ops);
  std::snprintf(
      buf, sizeof(buf),
      ",\"amac\":{\"steps_per_op\":%.2f,\"suspends_per_op\":%.2f,"
      "\"suspends\":{\"hash\":%.2f,\"dir_probe\":%.2f,\"seg_resolve\":%.2f,"
      "\"bucket_probe\":%.2f,\"execute\":%.2f,\"retry\":%.2f}}",
      static_cast<double>(t.steps) / ops,
      static_cast<double>(t.TotalSuspends()) / ops,
      static_cast<double>(t.suspends[0]) / ops,
      static_cast<double>(t.suspends[1]) / ops,
      static_cast<double>(t.suspends[2]) / ops,
      static_cast<double>(t.suspends[3]) / ops,
      static_cast<double>(t.suspends[4]) / ops,
      static_cast<double>(t.suspends[5]) / ops);
  return buf;
}

// Read-path lock telemetry snapshot (cumulative per table); JSON lines
// report the per-phase delta. A search-only phase on the optimistic
// tables must show write_locks == 0 — the observable form of "searches
// perform zero PM lock-word writes".
struct LockCounters {
  uint64_t opt_retries = 0;
  uint64_t version_conflicts = 0;
  uint64_t write_locks = 0;
  uint64_t bucket_acqs = 0;
  uint64_t bucket_spins = 0;
};

LockCounters SnapshotLockCounters(api::KvIndex* table) {
  const api::IndexStats s = table->Stats();
  return {s.opt_retries, s.version_conflicts, s.write_locks,
          s.bucket_lock_acquisitions, s.bucket_lock_contended_spins};
}

std::string LockJson(const LockCounters& before, const LockCounters& after) {
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      ",\"lock\":{\"opt_retries\":%llu,\"version_conflicts\":%llu,"
      "\"write_locks\":%llu,\"bucket_acqs\":%llu,\"bucket_spins\":%llu}",
      static_cast<unsigned long long>(after.opt_retries - before.opt_retries),
      static_cast<unsigned long long>(after.version_conflicts -
                                      before.version_conflicts),
      static_cast<unsigned long long>(after.write_locks -
                                      before.write_locks),
      static_cast<unsigned long long>(after.bucket_acqs -
                                      before.bucket_acqs),
      static_cast<unsigned long long>(after.bucket_spins -
                                      before.bucket_spins));
  return buf;
}

PhaseResult BatchSearchPhase(api::KvIndex* table, uint64_t preloaded,
                             uint64_t ops, size_t batch) {
  return RunParallel(
      1, ops, [table, preloaded, batch](int, uint64_t begin, uint64_t end) {
        uint64_t keys[kMaxBatch];
        uint64_t values[kMaxBatch];
        api::Status statuses[kMaxBatch];
        uint64_t i = begin;
        while (i < end) {
          const size_t n =
              std::min<uint64_t>(batch, end - i);
          for (size_t j = 0; j < n; ++j) {
            keys[j] = UniformKey(i + j, preloaded);
          }
          table->MultiSearch(keys, n, values, statuses);
          i += n;
        }
      });
}

PhaseResult BatchInsertPhase(api::KvIndex* table, uint64_t base, uint64_t n,
                             size_t batch) {
  return RunParallel(
      1, n, [table, base, batch](int, uint64_t begin, uint64_t end) {
        uint64_t keys[kMaxBatch];
        uint64_t values[kMaxBatch];
        api::Status statuses[kMaxBatch];
        uint64_t i = begin;
        while (i < end) {
          const size_t count = std::min<uint64_t>(batch, end - i);
          for (size_t j = 0; j < count; ++j) {
            keys[j] = base + i + j + 1;
            values[j] = i + j;
          }
          table->MultiInsert(keys, values, count, statuses);
          i += count;
        }
      });
}

// ---- YCSB-style mixed workload mode (--workload={a,b,c,d,f}) ----
//
// 50/50 (a), 95/5 (b) or 100/0 (c) search/update over a zipfian key
// choice (theta 0.99, YCSB's default skew) against the preloaded key
// space. Workload d is read-latest: 95% reads of the zipf rank counted
// back from the highest inserted key, 5% inserts extending the key
// space. Workload f is read-modify-write: 50% plain reads, 50% RMW
// pairs (a Search and an Update of the same key in one request —
// MultiExecute runs the search group before the update group within a
// batch, so each pair reads then writes). Both phases replay identical
// per-thread op streams (fixed generator seeds), so single vs batch
// compares only the execution path.

struct WorkloadSpec {
  int read_pct = 50;
  bool read_latest = false;  // d: reads target newest keys, writes insert
  bool rmw = false;          // f: each write is a search+update pair
};

// Read-latest key choice: zipf rank 0 (the most likely) maps to the
// newest inserted key, rank r to the r-th newest. `hi` is the shared
// high-water mark of inserted keys.
inline uint64_t LatestKey(uint64_t rank, uint64_t hi) {
  return hi > rank ? hi - rank : 1;
}

PhaseResult WorkloadSinglePhase(api::KvIndex* table, uint64_t ops,
                                int threads, const WorkloadSpec& spec,
                                const util::ZipfGenerator& zipf_proto,
                                std::atomic<uint64_t>* max_key) {
  return RunParallel(
      threads, ops,
      [table, &spec, &zipf_proto, max_key](int t, uint64_t begin,
                                           uint64_t end) {
        util::ZipfGenerator zipf(zipf_proto, 42 + t);
        util::Xoshiro256 op_rng(1000 + t);
        uint64_t value = 0;
        for (uint64_t i = begin; i < end; ++i) {
          const bool is_read =
              op_rng.NextBounded(100) < static_cast<uint64_t>(spec.read_pct);
          if (spec.read_latest) {
            if (is_read) {
              const uint64_t hi =
                  max_key->load(std::memory_order_relaxed);
              table->Search(LatestKey(zipf.Next(), hi), &value);
            } else {
              const uint64_t key =
                  max_key->fetch_add(1, std::memory_order_relaxed) + 1;
              table->Insert(key, i);
            }
            continue;
          }
          const uint64_t key = zipf.Next() + 1;
          if (is_read) {
            table->Search(key, &value);
          } else if (spec.rmw) {
            table->Search(key, &value);
            table->Update(key, value + 1);
          } else {
            table->Update(key, i);
          }
        }
      });
}

PhaseResult WorkloadBatchPhase(api::KvIndex* table, uint64_t ops,
                               int threads, const WorkloadSpec& spec,
                               size_t batch,
                               const util::ZipfGenerator& zipf_proto,
                               std::atomic<uint64_t>* max_key) {
  return RunParallel(
      threads, ops,
      [table, &spec, batch, &zipf_proto, max_key](int t, uint64_t begin,
                                                  uint64_t end) {
        util::ZipfGenerator zipf(zipf_proto, 42 + t);
        util::Xoshiro256 op_rng(1000 + t);
        api::Op descriptors[kMaxBatch];
        api::Status statuses[kMaxBatch];
        uint64_t i = begin;
        while (i < end) {
          // One stream step can emit two descriptors (an RMW pair), so
          // fill until the next step would not fit.
          const uint64_t steps = std::min<uint64_t>(batch, end - i);
          size_t n = 0;
          uint64_t taken = 0;
          while (taken < steps && n + 2 <= kMaxBatch &&
                 n < batch) {
            const bool is_read =
                op_rng.NextBounded(100) <
                static_cast<uint64_t>(spec.read_pct);
            if (spec.read_latest) {
              if (is_read) {
                const uint64_t hi =
                    max_key->load(std::memory_order_relaxed);
                descriptors[n++] =
                    api::Op::Search(LatestKey(zipf.Next(), hi));
              } else {
                const uint64_t key =
                    max_key->fetch_add(1, std::memory_order_relaxed) + 1;
                descriptors[n++] = api::Op::Insert(key, i + taken);
              }
            } else {
              const uint64_t key = zipf.Next() + 1;
              if (is_read) {
                descriptors[n++] = api::Op::Search(key);
              } else if (spec.rmw) {
                // Search lands in the batch's read group (runs first),
                // the update in the write group: read-then-write.
                descriptors[n++] = api::Op::Search(key);
                descriptors[n++] = api::Op::Update(key, i + taken);
              } else {
                descriptors[n++] = api::Op::Update(key, i + taken);
              }
            }
            ++taken;
          }
          table->MultiExecute(descriptors, n, statuses);
          i += taken;
        }
      });
}

void PrintJson(const std::string& table, const std::string& op,
               const std::string& mode, size_t batch,
               const PhaseResult& result, size_t shards = 0,
               const std::string& extra = "", int threads = 1) {
  std::printf(
      "{\"bench\":\"bench_batch\",\"table\":\"%s\",\"op\":\"%s\","
      "\"mode\":\"%s\",\"batch\":%zu,\"threads\":%d,\"shards\":%zu,"
      "\"mops\":%.4f,"
      "\"reads_per_op\":%.2f,\"clwb_per_op\":%.2f,"
      "\"fences_per_op\":%.2f%s}\n",
      table.c_str(), op.c_str(), mode.c_str(), batch, threads, shards,
      result.mops, result.reads_per_op, result.clwb_per_op,
      result.fences_per_op, extra.c_str());
  std::fflush(stdout);
}

// Maps a YCSB workload letter onto its mix. False on an unknown letter.
bool ResolveWorkload(const std::string& workload, WorkloadSpec* spec) {
  if (workload == "a") {
    spec->read_pct = 50;
  } else if (workload == "b") {
    spec->read_pct = 95;
  } else if (workload == "c") {
    spec->read_pct = 100;
  } else if (workload == "d") {
    spec->read_pct = 95;
    spec->read_latest = true;
  } else if (workload == "f") {
    spec->read_pct = 50;
    spec->rmw = true;
  } else {
    return false;
  }
  return true;
}

// The --workload={a,b,c,d,f} mode: for every table, at every --threads
// value, run the zipfian mix once through the single-op loop and once
// through MultiExecute descriptor batches. JSON lines carry
// the lock-telemetry deltas, so the contention behaviour of the
// optimistic read path (retries/conflicts vs exclusive acquisitions) is
// recorded alongside throughput.
int RunWorkloadMode(const std::string& workload,
                    const std::string& only_table, uint64_t preload,
                    uint64_t ops, size_t batch, const BenchConfig& config) {
  WorkloadSpec spec;
  if (!ResolveWorkload(workload, &spec)) {
    std::fprintf(stderr, "unknown --workload=%s (a|b|c|d|f)\n",
                 workload.c_str());
    return 1;
  }
  const std::string opname = "ycsb-" + workload;
  for (api::IndexKind kind :
       {api::IndexKind::kDashEH, api::IndexKind::kDashLH,
        api::IndexKind::kCCEH, api::IndexKind::kLevel,
        api::IndexKind::kHybrid}) {
    const std::string name = api::IndexKindName(kind);
    if (!only_table.empty() && only_table != name) continue;
    DashOptions options;
    TableHandle handle = MakeTable(kind, config, options);
    Preload(handle.table.get(), preload);
    api::KvIndex* table = handle.table.get();
    // One zeta computation (O(preload) pow calls) outside every timed
    // region; the per-thread generators derive from it.
    const util::ZipfGenerator zipf_proto(preload, 0.99, 0);
    // Read-latest high-water mark; inserts (workload d) push it forward.
    std::atomic<uint64_t> max_key{preload};
    for (int threads : config.thread_counts) {
      LockCounters lc0 = SnapshotLockCounters(table);
      const PhaseResult single = WorkloadSinglePhase(
          table, ops, threads, spec, zipf_proto, &max_key);
      LockCounters lc1 = SnapshotLockCounters(table);
      PrintRow("bench_batch", name, opname + "-single", threads, single);
      PrintJson(name, opname, "single", 1, single, 0, LockJson(lc0, lc1),
                threads);
      util::AmacTelemetry::DrainAll();
      lc0 = SnapshotLockCounters(table);
      const PhaseResult batched = WorkloadBatchPhase(
          table, ops, threads, spec, batch, zipf_proto, &max_key);
      lc1 = SnapshotLockCounters(table);
      const auto tele = util::AmacTelemetry::DrainAll();
      PrintRow("bench_batch", name, opname + "-batch", threads, batched);
      PrintJson(name, opname, "batch", batch, batched, 0,
                TelemetryJson(tele) + LockJson(lc0, lc1), threads);
      std::printf(
          "{\"bench\":\"bench_batch\",\"table\":\"%s\",\"workload\":"
          "\"%s\",\"threads\":%d,\"batch\":%zu,"
          "\"read_pct\":%d,\"mixed_speedup_vs_single\":%.3f}\n",
          name.c_str(), workload.c_str(), threads, batch, spec.read_pct,
          batched.mops / single.mops);
      std::fflush(stdout);
    }
  }
  return 0;
}

// ---- ShardedStore phases (mixed-op descriptor batches) ----

void ShardedPreload(api::ShardedStore* store, uint64_t n) {
  RunParallel(1, n, [store](int, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) store->Insert(i + 1, i + 1);
  });
}

PhaseResult ShardedSingleSearchPhase(api::ShardedStore* store,
                                     uint64_t preloaded, uint64_t ops) {
  return RunParallel(1, ops,
                     [store, preloaded](int, uint64_t begin, uint64_t end) {
                       uint64_t value = 0;
                       for (uint64_t i = begin; i < end; ++i) {
                         store->Search(UniformKey(i, preloaded), &value);
                       }
                     });
}

PhaseResult ShardedBatchSearchPhase(api::ShardedStore* store,
                                    uint64_t preloaded, uint64_t ops,
                                    size_t batch) {
  return RunParallel(
      1, ops,
      [store, preloaded, batch](int, uint64_t begin, uint64_t end) {
        uint64_t keys[kMaxBatch];
        uint64_t values[kMaxBatch];
        api::Status statuses[kMaxBatch];
        uint64_t i = begin;
        while (i < end) {
          const size_t n = std::min<uint64_t>(batch, end - i);
          for (size_t j = 0; j < n; ++j) {
            keys[j] = UniformKey(i + j, preloaded);
          }
          store->MultiSearch(keys, n, values, statuses);
          i += n;
        }
      });
}

// 50% search / 25% update / 25% fresh insert mixed stream; both modes
// derive the identical op stream from the index, so the comparison only
// measures the descriptor batch path.
api::Op MixedOp(uint64_t i, uint64_t preloaded, uint64_t insert_base) {
  const uint64_t r = util::Mix64(i);
  switch (r & 3) {
    case 0:
    case 1: return api::Op::Search(UniformKey(i, preloaded));
    case 2: return api::Op::Update(UniformKey(i, preloaded), i);
    default: return api::Op::Insert(insert_base + i + 1, i);
  }
}

PhaseResult ShardedSingleMixedPhase(api::ShardedStore* store,
                                    uint64_t preloaded, uint64_t insert_base,
                                    uint64_t ops) {
  return RunParallel(
      1, ops,
      [store, preloaded, insert_base](int, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          api::Op op = MixedOp(i, preloaded, insert_base);
          switch (op.type) {
            case api::OpType::kSearch: store->Search(op.key, &op.value); break;
            case api::OpType::kInsert: store->Insert(op.key, op.value); break;
            case api::OpType::kUpdate: store->Update(op.key, op.value); break;
            case api::OpType::kDelete: store->Delete(op.key); break;
          }
        }
      });
}

PhaseResult ShardedBatchMixedPhase(api::ShardedStore* store,
                                   uint64_t preloaded, uint64_t insert_base,
                                   uint64_t ops, size_t batch) {
  return RunParallel(
      1, ops,
      [store, preloaded, insert_base, batch](int, uint64_t begin,
                                             uint64_t end) {
        api::Op descriptors[kMaxBatch];
        api::Status statuses[kMaxBatch];
        uint64_t i = begin;
        while (i < end) {
          const size_t n = std::min<uint64_t>(batch, end - i);
          for (size_t j = 0; j < n; ++j) {
            descriptors[j] = MixedOp(i + j, preloaded, insert_base);
          }
          store->MultiExecute(descriptors, n, statuses);
          i += n;
        }
      });
}

// ---- sustained-churn mode (--churn[=MULT]) ----
//
// Space behaviour of the hybrid tier's value log under update churn,
// A/B over DashOptions::compaction_trigger. Each leg preloads
// --preload records, deletes fifteen of every sixteen keys (the
// live-set downsize: pure update churn is space-bounded by epoch
// recycling alone — freed slots feed the very next append — so dead
// capacity only accumulates when the live set shrinks below the chain
// sizes built for its peak), then drives MULT x preload uniform updates
// over the survivors. Run under DASH_PM_READ_NS/DASH_PM_FLUSH_NS to
// model DCPMM: the reopen scan is charged per chunk line, which is the
// term compaction shrinks. The compaction leg races a background compactor thread
// against the storm, standing in for the ShardExecutor idle path; the
// baseline leg never compacts. Reported per leg: storm throughput,
// live-space amplification (log_chunk_bytes / live-bytes), and the
// post-churn dirty-reopen time (scan rebuild — a compacted log scans
// fewer chunks). The CI churn gate parses the summary line.

struct ChurnLeg {
  PhaseResult storm;
  double amplification = 0.0;
  double reopen_ms = 0.0;
  api::IndexStats stats;
};

// One leg's open table state; both legs stay open at once so their storm
// segments can interleave.
struct ChurnTable {
  std::string path;
  DashOptions options;
  std::unique_ptr<pmem::PmPool> pool;
  std::unique_ptr<epoch::EpochManager> epochs;
  std::unique_ptr<api::KvIndex> table;
};

ChurnTable OpenChurnTable(const BenchConfig& config, bool compaction) {
  static int counter = 0;
  ChurnTable t;
  t.path = config.pool_dir + "/dash_churn_" + std::to_string(getpid()) +
           "_" + std::to_string(counter++);
  std::remove(t.path.c_str());
  t.options.compaction_trigger = compaction ? 0.25 : 0.0;
  pmem::PmPool::Options pool_options;
  pool_options.pool_size = config.pool_gb << 30;
  t.pool = pmem::PmPool::Create(t.path, pool_options);
  if (t.pool == nullptr) std::exit(1);
  t.epochs = std::make_unique<epoch::EpochManager>();
  t.table = api::CreateKvIndex(api::IndexKind::kHybrid, t.pool.get(),
                               t.epochs.get(), t.options);
  return t;
}

// Preload, live-set downsize (keep only keys divisible by sixteen), and —
// on the compaction leg — burn down the downsize backlog, so the timed
// storm measures the sustained cost of background compaction rather than
// the one-time catch-up (which the compactions/chunks_reclaimed telemetry
// still reports). The downsize is what makes the A/B meaningful: pure
// update churn is space-bounded by epoch recycling alone (freed slots
// feed the very next append); dead capacity accumulates when the live
// set shrinks below the chain sizes built for its peak — which is when
// compaction matters.
void PrepareChurn(ChurnTable& t, uint64_t records, int threads) {
  Preload(t.table.get(), records, threads);
  api::KvIndex* table = t.table.get();
  RunParallel(threads, records, [&](int, uint64_t begin, uint64_t end) {
    for (uint64_t k = begin; k < end; ++k) {
      if ((k + 1) % 16 != 0) table->Delete(k + 1);
    }
  });
  t.epochs->DrainAll();
  while (t.table->Compact()) {  // no-op when the trigger is 0
    t.epochs->DrainAll();
  }
}

double Amplification(const api::IndexStats& s, uint64_t live) {
  return static_cast<double>(s.log_chunk_bytes) /
         (static_cast<double>(live) * static_cast<double>(sizeof(uint64_t) * 4));
}

void PrintChurnLeg(const char* label, uint64_t records, uint64_t updates,
                   int threads, const ChurnLeg& leg) {
  std::printf(
      "{\"bench\":\"bench_batch\",\"op\":\"churn\",\"compaction\":%s,"
      "\"records\":%llu,\"live\":%llu,\"updates\":%llu,\"threads\":%d,"
      "\"update_mops\":%.4f,\"amplification\":%.3f,\"log_chunks\":%llu,"
      "\"log_chunk_bytes\":%llu,\"reopen_ms\":%.3f,\"dead_ratio\":%.3f,"
      "\"compactions\":%llu,\"chunks_reclaimed\":%llu,"
      "\"bytes_rewritten\":%llu}\n",
      label, static_cast<unsigned long long>(records),
      static_cast<unsigned long long>(records / 16),
      static_cast<unsigned long long>(updates), threads, leg.storm.mops,
      leg.amplification,
      static_cast<unsigned long long>(leg.stats.log_chunks),
      static_cast<unsigned long long>(leg.stats.log_chunk_bytes),
      leg.reopen_ms, leg.stats.compaction_dead_ratio,
      static_cast<unsigned long long>(leg.stats.compactions),
      static_cast<unsigned long long>(leg.stats.compaction_chunks_reclaimed),
      static_cast<unsigned long long>(leg.stats.compaction_bytes_rewritten));
  std::fflush(stdout);
}

int RunChurnMode(const BenchConfig& config, uint64_t records,
                 uint64_t churn_mult) {
  const int threads =
      config.thread_counts.empty() ? 4 : config.thread_counts.back();
  const uint64_t updates = records * churn_mult;
  const uint64_t live = records / 16;

  ChurnTable off = OpenChurnTable(config, false);
  ChurnTable on = OpenChurnTable(config, true);
  PrepareChurn(off, records, threads);
  PrepareChurn(on, records, threads);

  // Background compactor over the compaction leg, interval-throttled
  // like the ShardExecutor idle path (compaction_interval_ms) rather
  // than a tight loop, so the storm threads keep the machine.
  std::atomic<bool> stop{false};
  std::thread compactor([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!on.table->Compact()) on.epochs->TryAdvanceAndReclaim();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  // The storm runs as four equal segments per leg, interleaved
  // off/on/off/on/..., and each leg reports its median segment: host
  // speed drifting over the run or a one-off stall dents individual
  // segments, not the A/B ratio the CI gate asserts on.
  constexpr size_t kSegments = 4;
  auto storm_segment = [&](ChurnTable& t, size_t seg) {
    api::KvIndex* table = t.table.get();
    return RunParallel(
        threads, updates / kSegments,
        [&, table, seg](int th, uint64_t begin, uint64_t end) {
          util::Xoshiro256 rng(0x9e3779b97f4a7c15ull + seg * 131 + th);
          for (uint64_t i = begin; i < end; ++i) {
            table->Update(16 * (1 + rng.NextBounded(live)), i);
          }
        });
  };
  std::vector<PhaseResult> off_segs, on_segs;
  for (size_t seg = 0; seg < kSegments; ++seg) {
    off_segs.push_back(storm_segment(off, seg));
    on_segs.push_back(storm_segment(on, seg));
  }
  stop.store(true, std::memory_order_release);
  compactor.join();

  auto median = [](std::vector<PhaseResult> v) {
    std::sort(v.begin(), v.end(),
              [](const PhaseResult& a, const PhaseResult& b) {
                return a.mops < b.mops;
              });
    return v[v.size() / 2];
  };
  ChurnLeg off_leg, on_leg;
  off_leg.storm = median(off_segs);
  on_leg.storm = median(on_segs);

  // Quiesce both legs; converge the compaction leg back under its
  // trigger before reading the space numbers.
  off.epochs->DrainAll();
  on.epochs->DrainAll();
  while (on.table->Compact()) {
    on.epochs->DrainAll();
  }
  off_leg.stats = off.table->Stats();
  on_leg.stats = on.table->Stats();
  off_leg.amplification = Amplification(off_leg.stats, live);
  on_leg.amplification = Amplification(on_leg.stats, live);

  auto crash_close = [](ChurnTable& t) {
    t.epochs->DiscardAll();
    t.table.reset();
    t.pool->CloseDirty();  // crash image for the reopen measurement
    t.pool.reset();
  };
  crash_close(off);
  crash_close(on);

  // Post-churn restart: time-to-first-request over each leg's crash
  // image. No checkpoint is configured, so this is the full log-scan
  // rebuild — proportional to the chunk bytes the leg left behind.
  auto timed_reopen = [](ChurnTable& t) {
    const auto start = std::chrono::steady_clock::now();
    auto pool = pmem::PmPool::Open(t.path);
    if (pool == nullptr) std::exit(1);
    epoch::EpochManager epochs;
    auto table = api::CreateKvIndex(api::IndexKind::kHybrid, pool.get(),
                                    &epochs, t.options);
    uint64_t value = 0;
    table->Search(16, &value);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    epochs.DiscardAll();
    table.reset();
    pool->CloseDirty();
    std::remove(t.path.c_str());
    return ms;
  };
  off_leg.reopen_ms = timed_reopen(off);
  on_leg.reopen_ms = timed_reopen(on);
  PrintChurnLeg("false", records, updates, threads, off_leg);
  PrintChurnLeg("true", records, updates, threads, on_leg);
  std::printf(
      "{\"bench\":\"bench_batch\",\"op\":\"churn-summary\","
      "\"amp_on\":%.3f,\"amp_off\":%.3f,\"reopen_on_ms\":%.3f,"
      "\"reopen_off_ms\":%.3f,\"reopen_speedup\":%.2f,"
      "\"mops_on\":%.4f,\"mops_off\":%.4f,\"mops_ratio\":%.3f}\n",
      on_leg.amplification, off_leg.amplification, on_leg.reopen_ms, off_leg.reopen_ms,
      on_leg.reopen_ms > 0 ? off_leg.reopen_ms / on_leg.reopen_ms : 0.0, on_leg.storm.mops,
      off_leg.storm.mops,
      off_leg.storm.mops > 0 ? on_leg.storm.mops / off_leg.storm.mops : 0.0);
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace dash::bench

int main(int argc, char** argv) {
  using namespace dash;
  using namespace dash::bench;

  BenchConfig config = ParseArgs(argc, argv);
  uint64_t preload = 3'000'000;
  uint64_t ops = 2'000'000;
  size_t batch = 16;
  size_t shards = 0;
  std::string only_table;
  std::string workload_arg;
  uint64_t churn_mult = 0;  // 0 = churn mode off
  double check_speedup = 0.0;
  std::string check_vs_arg;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--preload=", 10) == 0) {
      preload = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--ops=", 6) == 0) {
      ops = std::strtoull(argv[i] + 6, nullptr, 10);
    } else if (std::strncmp(argv[i], "--batch=", 8) == 0) {
      batch = std::clamp<size_t>(std::strtoull(argv[i] + 8, nullptr, 10), 1,
                                 kMaxBatch);
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::strtoull(argv[i] + 9, nullptr, 10);
    } else if (std::strncmp(argv[i], "--table=", 8) == 0) {
      only_table = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--kind=", 7) == 0) {
      // Alias for --table=, matching bench_serving's spelling.
      only_table = argv[i] + 7;
    } else if (std::strncmp(argv[i], "--workload=", 11) == 0) {
      workload_arg = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--churn=", 8) == 0) {
      churn_mult = std::max<uint64_t>(1, std::strtoull(argv[i] + 8, nullptr, 10));
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      churn_mult = 4;
    } else if (std::strncmp(argv[i], "--check-speedup=", 16) == 0) {
      check_speedup = std::strtod(argv[i] + 16, nullptr);
    } else if (std::strncmp(argv[i], "--check-vs=", 11) == 0) {
      check_vs_arg = argv[i] + 11;
    }
  }
  // --check-vs=BASE:RATIO — a cross-table gate: every other table's
  // batch search throughput must be >= RATIO x the BASE table's. BASE
  // always runs, even under --table=/--kind=.
  std::string check_vs_base;
  double check_vs_ratio = 0.0;
  if (!check_vs_arg.empty()) {
    const size_t colon = check_vs_arg.find(':');
    api::IndexKind base_kind;
    if (colon == std::string::npos ||
        !api::ParseIndexKind(check_vs_arg.substr(0, colon), &base_kind)) {
      std::fprintf(stderr, "bad --check-vs=%s (want BASE:RATIO)\n",
                   check_vs_arg.c_str());
      return 1;
    }
    check_vs_base = check_vs_arg.substr(0, colon);
    check_vs_ratio = std::strtod(check_vs_arg.c_str() + colon + 1, nullptr);
    if (check_vs_ratio <= 0.0) {
      std::fprintf(stderr, "bad --check-vs ratio in %s\n",
                   check_vs_arg.c_str());
      return 1;
    }
  }
  if (check_speedup > 0 && shards > 0) {
    std::fprintf(stderr,
                 "--check-speedup only applies to the per-table A/B mode; "
                 "drop --shards\n");
    return 1;
  }
  if (!check_vs_arg.empty() && (shards > 0 || !workload_arg.empty())) {
    std::fprintf(stderr,
                 "--check-vs only applies to the per-table A/B mode; "
                 "drop --shards/--workload\n");
    return 1;
  }
  const uint64_t insert_ops = std::min<uint64_t>(ops / 2, preload);

  PrintHeader("bench_batch");

  // --churn[=MULT]: hybrid-tier space/throughput under sustained update
  // churn, compaction on vs off.
  if (churn_mult > 0) {
    if (shards > 0 || !workload_arg.empty()) {
      std::fprintf(stderr,
                   "--churn is its own mode; drop --shards/--workload\n");
      return 1;
    }
    return RunChurnMode(config, preload, churn_mult);
  }

  // --workload={a,b,c}: the YCSB-style zipfian read/update mix.
  if (!workload_arg.empty()) {
    if (shards > 0) {
      std::fprintf(stderr,
                   "--workload applies to the per-table mode; drop "
                   "--shards\n");
      return 1;
    }
    return RunWorkloadMode(workload_arg, only_table, preload, ops, batch,
                           config);
  }

  // --shards=N: the serving-path configuration — one ShardedStore, the
  // single-op facade vs mixed-op MultiExecute descriptor batches.
  if (shards > 0) {
    api::IndexKind kind = api::IndexKind::kDashEH;
    if (!only_table.empty() && !api::ParseIndexKind(only_table, &kind)) {
      std::fprintf(stderr, "unknown table kind %s\n", only_table.c_str());
      return 1;
    }
    const std::string name =
        std::string(api::IndexKindName(kind)) + "-x" + std::to_string(shards);
    DashOptions options;
    // Sequential caller-thread execution: this mode isolates the
    // descriptor-batch path itself.
    api::AsyncOptions sequential;
    sequential.workers = false;
    StoreHandle handle =
        MakeShardedStore(kind, shards, config, options, sequential);
    ShardedPreload(handle.store.get(), preload);

    const PhaseResult single_search =
        ShardedSingleSearchPhase(handle.store.get(), preload, ops);
    PrintRow("bench_batch", name, "search-single", 1, single_search);
    PrintJson(name, "search", "single", 1, single_search, shards);
    const PhaseResult batch_search =
        ShardedBatchSearchPhase(handle.store.get(), preload, ops, batch);
    PrintRow("bench_batch", name, "search-batch", 1, batch_search);
    PrintJson(name, "search", "batch", batch, batch_search, shards);

    const uint64_t mixed_ops = std::min<uint64_t>(ops, preload * 2);
    const PhaseResult single_mixed = ShardedSingleMixedPhase(
        handle.store.get(), preload, preload, mixed_ops);
    PrintRow("bench_batch", name, "mixed-single", 1, single_mixed);
    PrintJson(name, "mixed", "single", 1, single_mixed, shards);
    const PhaseResult batch_mixed = ShardedBatchMixedPhase(
        handle.store.get(), preload, preload + mixed_ops, mixed_ops, batch);
    PrintRow("bench_batch", name, "mixed-batch", 1, batch_mixed);
    PrintJson(name, "mixed", "batch", batch, batch_mixed, shards);

    // The same batches through the sync wrapper over per-shard workers,
    // on a fresh store preloaded alike: the price of the queue hand-off.
    StoreHandle workers = MakeShardedStore(kind, shards, config, options);
    ShardedPreload(workers.store.get(), preload);
    const PhaseResult wrapper = ShardedBatchMixedPhase(
        workers.store.get(), preload, preload + mixed_ops, mixed_ops, batch);
    PrintRow("bench_batch", name, "mixed-wrapper", 1, wrapper);
    PrintJson(name, "mixed", "sync-wrapper", batch, wrapper, shards);

    std::printf(
        "{\"bench\":\"bench_batch\",\"table\":\"%s\",\"shards\":%zu,"
        "\"batch\":%zu,\"search_speedup_vs_single\":%.3f,"
        "\"mixed_speedup_vs_single\":%.3f,"
        "\"wrapper_vs_sequential\":%.3f}\n",
        name.c_str(), shards, batch, batch_search.mops / single_search.mops,
        batch_mixed.mops / single_mixed.mops,
        wrapper.mops / batch_mixed.mops);
    std::fflush(stdout);
    return 0;
  }
  std::vector<std::string> gate_failures;
  // Batch-search Mops per table, for --check-vs.
  std::vector<std::pair<std::string, double>> search_mops;
  for (api::IndexKind kind :
       {api::IndexKind::kDashEH, api::IndexKind::kDashLH,
        api::IndexKind::kCCEH, api::IndexKind::kLevel,
        api::IndexKind::kHybrid}) {
    const std::string name = api::IndexKindName(kind);
    if (!only_table.empty() && only_table != name &&
        name != check_vs_base) {
      continue;
    }
    DashOptions options;

    // Searches do not mutate the table, so the single-op baseline and the
    // batch phase share one table (identical key stream, identical
    // layout).
    PhaseResult single_search;
    PhaseResult batch_search;
    {
      TableHandle handle = MakeTable(kind, config, options);
      Preload(handle.table.get(), preload);
      LockCounters lc0 = SnapshotLockCounters(handle.table.get());
      single_search =
          PositiveSearchPhase(handle.table.get(), preload, ops, 1);
      LockCounters lc1 = SnapshotLockCounters(handle.table.get());
      PrintRow("bench_batch", name, "search-single", 1, single_search);
      // Search-only phase: on the optimistic tables the write_locks
      // delta here must be zero (no lock-word writes on the read path).
      PrintJson(name, "search", "single", 1, single_search, 0,
                LockJson(lc0, lc1));

      util::AmacTelemetry::DrainAll();
      lc0 = SnapshotLockCounters(handle.table.get());
      batch_search =
          BatchSearchPhase(handle.table.get(), preload, ops, batch);
      lc1 = SnapshotLockCounters(handle.table.get());
      const auto tele = util::AmacTelemetry::DrainAll();
      PrintRow("bench_batch", name, "search-batch", 1, batch_search);
      PrintJson(name, "search", "batch", batch, batch_search, 0,
                TelemetryJson(tele) + LockJson(lc0, lc1));
    }

    // Fresh-key inserts: a fresh preloaded table per mode, so both modes
    // start from the same load factor and hit the same split/resize
    // schedule.
    PhaseResult single_insert;
    PhaseResult batch_insert;
    {
      TableHandle handle = MakeTable(kind, config, options);
      Preload(handle.table.get(), preload);
      single_insert = InsertPhase(handle.table.get(), preload, insert_ops, 1);
      PrintRow("bench_batch", name, "insert-single", 1, single_insert);
      PrintJson(name, "insert", "single", 1, single_insert);
    }
    {
      TableHandle handle = MakeTable(kind, config, options);
      Preload(handle.table.get(), preload);
      util::AmacTelemetry::DrainAll();
      const LockCounters lc0 = SnapshotLockCounters(handle.table.get());
      batch_insert =
          BatchInsertPhase(handle.table.get(), preload, insert_ops, batch);
      const LockCounters lc1 = SnapshotLockCounters(handle.table.get());
      const auto tele = util::AmacTelemetry::DrainAll();
      PrintRow("bench_batch", name, "insert-batch", 1, batch_insert);
      PrintJson(name, "insert", "batch", batch, batch_insert, 0,
                TelemetryJson(tele) + LockJson(lc0, lc1));
    }

    search_mops.emplace_back(name, batch_search.mops);
    const double search_speedup = batch_search.mops / single_search.mops;
    std::printf(
        "{\"bench\":\"bench_batch\",\"table\":\"%s\",\"batch\":%zu,"
        "\"search_speedup_vs_single\":%.3f,"
        "\"insert_speedup_vs_single\":%.3f}\n",
        name.c_str(), batch, search_speedup,
        batch_insert.mops / single_insert.mops);
    std::fflush(stdout);
    if (check_speedup > 0 && search_speedup < check_speedup) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "%s search %.3fx < %.3fx",
                    name.c_str(), search_speedup, check_speedup);
      gate_failures.push_back(buf);
    }
  }

  // Batch-size sweep on Dash-EH: how wide the group must be before the
  // engine covers the memory latency.
  if (only_table.empty() || only_table == "dash-eh") {
    DashOptions options;
    TableHandle handle =
        MakeTable(api::IndexKind::kDashEH, config, options);
    Preload(handle.table.get(), preload);
    for (size_t b : {2, 4, 8, 16, 32, 64}) {
      const PhaseResult r =
          BatchSearchPhase(handle.table.get(), preload, ops, b);
      PrintRow("bench_batch", "dash-eh", "search-b" + std::to_string(b), 1,
               r);
      PrintJson("dash-eh", "search-sweep", "batch", b, r);
    }
  }

  // Cross-table gate: every non-base table that ran must hit RATIO x the
  // base table's batch-search throughput.
  if (check_vs_ratio > 0) {
    double base_mops = 0.0;
    for (const auto& [tname, mops] : search_mops) {
      if (tname == check_vs_base) base_mops = mops;
    }
    if (base_mops <= 0.0) {
      std::fprintf(stderr, "--check-vs base table %s did not run\n",
                   check_vs_base.c_str());
      return 1;
    }
    for (const auto& [tname, mops] : search_mops) {
      if (tname == check_vs_base) continue;
      const double ratio = mops / base_mops;
      std::printf(
          "{\"bench\":\"bench_batch\",\"table\":\"%s\",\"batch\":%zu,"
          "\"search_mops_vs_%s\":%.3f}\n",
          tname.c_str(), batch, check_vs_base.c_str(), ratio);
      std::fflush(stdout);
      if (ratio < check_vs_ratio) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s batch search %.3f Mops is %.3fx %s (%.3f Mops), "
                      "need %.3fx",
                      tname.c_str(), mops, ratio, check_vs_base.c_str(),
                      base_mops, check_vs_ratio);
        gate_failures.push_back(buf);
      }
    }
  }

  if (!gate_failures.empty()) {
    for (const std::string& f : gate_failures) {
      std::fprintf(stderr, "SPEEDUP GATE FAILED: %s\n", f.c_str());
    }
    return 1;
  }
  return 0;
}
