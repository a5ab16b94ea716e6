#include "bench_common.h"

#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

namespace dash::bench {

namespace {

void PinToCore(int core) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(core % static_cast<int>(std::thread::hardware_concurrency()), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

std::string UniquePoolPath(const std::string& dir) {
  static int counter = 0;
  return dir + "/dash_bench_" + std::to_string(getpid()) + "_" +
         std::to_string(counter++);
}

}  // namespace

BenchConfig ParseArgs(int argc, char** argv) {
  BenchConfig config;
  config.pool_dir = access("/dev/shm", W_OK) == 0 ? "/dev/shm" : "/tmp";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      config.scale = std::strtod(arg + 8, nullptr);
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      config.thread_counts.clear();
      const char* p = arg + 10;
      while (*p != '\0') {
        config.thread_counts.push_back(std::atoi(p));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
    } else if (std::strncmp(arg, "--pool-gb=", 10) == 0) {
      config.pool_gb = std::strtoul(arg + 10, nullptr, 10);
    } else if (std::strncmp(arg, "--pool-dir=", 11) == 0) {
      config.pool_dir = arg + 11;
    } else if (std::strncmp(arg, "--shards=", 9) == 0) {
      config.shards = std::strtoul(arg + 9, nullptr, 10);
    }
  }
  if (const char* env = std::getenv("DASH_BENCH_SCALE")) {
    config.scale = std::strtod(env, nullptr);
  }
  return config;
}

TableHandle::~TableHandle() {
  if (table != nullptr) table->CloseClean();
  table.reset();
  if (pool != nullptr) pool->CloseClean();
  pool.reset();
  if (!path.empty()) std::remove(path.c_str());
}

TableHandle MakeTable(api::IndexKind kind, const BenchConfig& config,
                      const DashOptions& options) {
  TableHandle handle;
  handle.path = UniquePoolPath(config.pool_dir);
  std::remove(handle.path.c_str());
  pmem::PmPool::Options pool_options;
  pool_options.pool_size = config.pool_gb << 30;
  handle.pool = pmem::PmPool::Create(handle.path, pool_options);
  if (handle.pool == nullptr) {
    std::fprintf(stderr, "cannot create pool at %s\n", handle.path.c_str());
    std::exit(1);
  }
  handle.epochs = std::make_unique<epoch::EpochManager>();
  handle.table =
      api::CreateKvIndex(kind, handle.pool.get(), handle.epochs.get(), options);
  return handle;
}

StoreHandle::~StoreHandle() { Reset(); }

void StoreHandle::Reset() {
  if (store != nullptr) store->CloseClean();
  store.reset();
  if (prefix.empty()) return;  // default-constructed or moved-from
  for (size_t i = 0; i < shards; ++i) {
    const std::string shard = prefix + ".shard" + std::to_string(i);
    std::remove(shard.c_str());
    std::remove((shard + ".ckpt").c_str());
    std::remove((shard + ".ckpt.tmp").c_str());
  }
  std::remove((prefix + ".manifest").c_str());
  std::remove((prefix + ".manifest.tmp").c_str());
  std::remove((prefix + ".sock").c_str());  // bench_serving's listener
  prefix.clear();
  shards = 0;
}

StoreHandle MakeShardedStore(api::IndexKind kind, size_t shards,
                             const BenchConfig& config,
                             const DashOptions& options,
                             const api::AsyncOptions& async) {
  StoreHandle handle;
  handle.prefix = UniquePoolPath(config.pool_dir) + "_store";
  handle.shards = shards;
  api::ShardedStoreOptions store_options;
  store_options.kind = kind;
  store_options.shards = shards;
  store_options.path_prefix = handle.prefix;
  store_options.shard_pool_size =
      std::max<size_t>((config.pool_gb << 30) / shards, 1ull << 30);
  store_options.table = options;
  store_options.async = async;
  handle.store = api::ShardedStore::Open(store_options);
  if (handle.store == nullptr) {
    std::fprintf(stderr, "cannot create sharded store at %s\n",
                 handle.prefix.c_str());
    std::exit(1);
  }
  return handle;
}

PhaseResult RunParallel(
    int threads, uint64_t total_ops,
    const std::function<void(int, uint64_t, uint64_t)>& fn) {
  pmem::ResetPmStats();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  const uint64_t per_thread = total_ops / threads;
  for (int t = 0; t < threads; ++t) {
    const uint64_t begin = t * per_thread;
    const uint64_t end = (t == threads - 1) ? total_ops : begin + per_thread;
    workers.emplace_back([&, t, begin, end] {
      PinToCore(t);
      fn(t, begin, end);
    });
  }
  for (auto& w : workers) w.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  PhaseResult result;
  result.seconds =
      std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
          .count();
  result.mops = static_cast<double>(total_ops) / result.seconds / 1e6;
  const pmem::PmStats stats = pmem::AggregatePmStats();
  result.clwb_per_op =
      static_cast<double>(stats.clwb) / static_cast<double>(total_ops);
  result.fences_per_op =
      static_cast<double>(stats.fence) / static_cast<double>(total_ops);
  result.reads_per_op =
      static_cast<double>(stats.read_probes) / static_cast<double>(total_ops);
  result.lockwrites_per_op =
      static_cast<double>(stats.nt_stores) / static_cast<double>(total_ops);
  return result;
}

void Preload(api::KvIndex* table, uint64_t n, int threads) {
  RunParallel(threads, n, [table](int, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      table->Insert(i + 1, i + 1);
    }
  });
}

PhaseResult InsertPhase(api::KvIndex* table, uint64_t base, uint64_t n,
                        int threads) {
  return RunParallel(threads, n,
                     [table, base](int, uint64_t begin, uint64_t end) {
                       for (uint64_t i = begin; i < end; ++i) {
                         table->Insert(base + i + 1, i);
                       }
                     });
}

PhaseResult PositiveSearchPhase(api::KvIndex* table, uint64_t preloaded,
                                uint64_t ops, int threads) {
  return RunParallel(
      threads, ops, [table, preloaded](int, uint64_t begin, uint64_t end) {
        uint64_t value;
        for (uint64_t i = begin; i < end; ++i) {
          const uint64_t key = UniformKey(i, preloaded);
          table->Search(key, &value);
        }
      });
}

PhaseResult NegativeSearchPhase(api::KvIndex* table, uint64_t preloaded,
                                uint64_t ops, int threads) {
  // Keys strictly above the loaded range never exist.
  const uint64_t absent_base = preloaded * 16 + 1'000'000'000ull;
  return RunParallel(
      threads, ops, [table, absent_base](int, uint64_t begin, uint64_t end) {
        uint64_t value;
        for (uint64_t i = begin; i < end; ++i) {
          table->Search(absent_base + i, &value);
        }
      });
}

PhaseResult DeletePhase(api::KvIndex* table, uint64_t n, int threads) {
  return RunParallel(threads, n, [table](int, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      table->Delete(i + 1);
    }
  });
}

PhaseResult MixedPhase(api::KvIndex* table, uint64_t preloaded, uint64_t ops,
                       int threads) {
  const uint64_t insert_base = preloaded * 4;
  return RunParallel(
      threads, ops,
      [table, preloaded, insert_base](int, uint64_t begin, uint64_t end) {
        uint64_t value;
        for (uint64_t i = begin; i < end; ++i) {
          if (i % 5 == 0) {  // 20% inserts
            table->Insert(insert_base + i, i);
          } else {  // 80% searches
            const uint64_t key = UniformKey(i, preloaded);
            table->Search(key, &value);
          }
        }
      });
}

void PrintHeader(const std::string& bench) {
  std::printf("# %s\n", bench.c_str());
  std::printf("%-28s %-10s %-12s %8s %10s %10s %10s %10s %12s\n", "bench",
              "table", "op", "threads", "Mops/s", "clwb/op", "fence/op",
              "reads/op", "lockwr/op");
}

void PrintRow(const std::string& bench, const std::string& table,
              const std::string& op, int threads, const PhaseResult& result) {
  std::printf("%-28s %-10s %-12s %8d %10.3f %10.2f %10.2f %10.2f %12.2f\n",
              bench.c_str(), table.c_str(), op.c_str(), threads, result.mops,
              result.clwb_per_op, result.fences_per_op, result.reads_per_op,
              result.lockwrites_per_op);
  std::fflush(stdout);
}

}  // namespace dash::bench
