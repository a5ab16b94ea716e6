// Shared benchmark driver (paper §6.2 methodology).
//
// The paper preloads 10 M records and then runs 190 M operations per phase
// on a 24-core machine. Sizes here are scaled by --scale (default 0.02 →
// 200 k preload / 3.8 M ops) so every figure regenerates in CI time; pass
// --scale=1 for paper-sized runs. Threads are pinned to cores. Each phase
// reports throughput (Mops/s) plus PM access counters per operation, so
// the bandwidth arguments of the paper are directly visible.
//
// Optional PM latency emulation: set DASH_PM_FLUSH_NS / DASH_PM_READ_NS
// (e.g., 100 / 300) to model DCPMM access costs on DRAM.

#ifndef DASH_PM_BENCH_BENCH_COMMON_H_
#define DASH_PM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/kv_index.h"
#include "api/sharded_store.h"
#include "epoch/epoch_manager.h"
#include "pmem/pool.h"
#include "pmem/stats.h"

namespace dash::bench {

struct BenchConfig {
  double scale = 0.02;           // fraction of paper-sized workloads
  std::vector<int> thread_counts = {1, 2, 4};
  size_t pool_gb = 4;
  std::string pool_dir;          // default: /dev/shm or /tmp
  // > 0 switches supporting benches (tab1_recovery, fig14) into sharded
  // mode: an N-shard ShardedStore is crashed and reopened, reporting the
  // parallel-recovery timings as JSON instead of the per-table matrix.
  size_t shards = 0;

  // Paper-sized phases, scaled.
  uint64_t Preload() const { return Scaled(10'000'000); }
  uint64_t Ops() const { return Scaled(190'000'000); }
  uint64_t Scaled(uint64_t paper_n) const {
    const double n = static_cast<double>(paper_n) * scale;
    return n < 1 ? 1 : static_cast<uint64_t>(n);
  }
};

// Parses --scale=X, --threads=a,b,c, --pool-gb=N, --shards=N; ignores
// unknown flags.
BenchConfig ParseArgs(int argc, char** argv);

// Cheap uniform stride walk over the preloaded key space [1, preloaded].
// Single-op and batched phases must draw from this one definition so their
// key streams stay byte-identical.
inline uint64_t UniformKey(uint64_t i, uint64_t preloaded) {
  return (i * 2654435761u) % preloaded + 1;
}

// A freshly created pool + table of `kind`, at a unique temp path.
struct TableHandle {
  std::unique_ptr<pmem::PmPool> pool;
  std::unique_ptr<epoch::EpochManager> epochs;
  std::unique_ptr<api::KvIndex> table;
  std::string path;

  TableHandle() = default;
  TableHandle(TableHandle&&) = default;
  TableHandle& operator=(TableHandle&&) = default;
  ~TableHandle();
};

TableHandle MakeTable(api::IndexKind kind, const BenchConfig& config,
                      const DashOptions& options);

// A freshly created ShardedStore over `shards` pools at unique temp
// paths; the per-shard pool size divides config.pool_gb. Closed cleanly
// on destruction, which unlinks every file under the prefix: pools,
// checkpoints, the manifest and a `<prefix>.sock` listener.
struct StoreHandle {
  std::unique_ptr<api::ShardedStore> store;
  std::string prefix;
  size_t shards = 0;

  StoreHandle() = default;
  // Moves must disarm the source (its destructor would otherwise remove
  // `.shard<i>` files at whatever path its moved-from prefix holds), and
  // move-assignment must first close and unlink whatever the target
  // currently owns.
  StoreHandle(StoreHandle&& other) noexcept
      : store(std::move(other.store)),
        prefix(std::move(other.prefix)),
        shards(other.shards) {
    other.prefix.clear();
    other.shards = 0;
  }
  StoreHandle& operator=(StoreHandle&& other) noexcept {
    if (this != &other) {
      Reset();
      store = std::move(other.store);
      prefix = std::move(other.prefix);
      shards = other.shards;
      other.prefix.clear();
      other.shards = 0;
    }
    return *this;
  }
  ~StoreHandle();

 private:
  // Closes the store cleanly and unlinks the shard pools + manifest.
  void Reset();
};

// `async` selects the execution mode behind the store's batch surface:
// the default enables the per-shard worker threads; pass
// {.workers = false} for the sequential caller-thread baseline.
StoreHandle MakeShardedStore(api::IndexKind kind, size_t shards,
                             const BenchConfig& config,
                             const DashOptions& options,
                             const api::AsyncOptions& async = {});

// Phase result: throughput and PM counters per op.
struct PhaseResult {
  double mops = 0;
  double seconds = 0;
  double clwb_per_op = 0;
  double fences_per_op = 0;
  double reads_per_op = 0;
  double lockwrites_per_op = 0;
};

// Runs `fn(thread_id, begin, end)` over [0, total_ops) partitioned across
// `threads` pinned threads; returns wall-clock based throughput and the PM
// counter deltas.
PhaseResult RunParallel(
    int threads, uint64_t total_ops,
    const std::function<void(int, uint64_t, uint64_t)>& fn);

// Standard phases over a KvIndex with keys in [1, n] preloaded.
// `key_base` offsets the key space (insert phases use fresh keys).
// Preload runs on one thread unless asked otherwise, so the table's
// layout, and every PM counter measured on it, repeats run to run.
void Preload(api::KvIndex* table, uint64_t n, int threads = 1);
PhaseResult InsertPhase(api::KvIndex* table, uint64_t base, uint64_t n,
                        int threads);
PhaseResult PositiveSearchPhase(api::KvIndex* table, uint64_t preloaded,
                                uint64_t ops, int threads);
PhaseResult NegativeSearchPhase(api::KvIndex* table, uint64_t preloaded,
                                uint64_t ops, int threads);
PhaseResult DeletePhase(api::KvIndex* table, uint64_t n, int threads);
// 20% insert / 80% search (paper §6.4 mixed workload).
PhaseResult MixedPhase(api::KvIndex* table, uint64_t preloaded, uint64_t ops,
                       int threads);

// Prints a row: bench, table, op, threads, Mops, counters.
void PrintHeader(const std::string& bench);
void PrintRow(const std::string& bench, const std::string& table,
              const std::string& op, int threads, const PhaseResult& result);

}  // namespace dash::bench

#endif  // DASH_PM_BENCH_BENCH_COMMON_H_
