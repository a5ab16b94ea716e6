// YCSB-style workload runner over the unified index API — the kind of
// key-value cache workload the paper's introduction motivates. Supports
// uniform and Zipfian key distributions (the paper also examined skewed
// runs, §6.2) and the classic workload mixes:
//   A = 50% read / 50% update    B = 95% read / 5% update
//   C = 100% read                D-ish = 95% read / 5% insert
//
// Usage: ./ycsb_like [--table=dash-eh] [--workload=A|B|C|D]
//                    [--records=1000000] [--ops=2000000] [--threads=4]
//                    [--zipf=0.99 | --uniform]
//
// Every read targets a loaded key, so it exits non-zero on any miss.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/kv_index.h"
#include "pmem/pool.h"
#include "util/rand.h"
#include "util/zipf.h"

using namespace dash;

namespace {

struct Config {
  std::string table = "dash-eh";
  char workload = 'B';
  uint64_t records = 1'000'000;
  uint64_t ops = 2'000'000;
  int threads = 4;
  double zipf_theta = 0.99;
  bool uniform = false;
};

Config Parse(int argc, char** argv) {
  Config c;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--table=", 8) == 0) c.table = a + 8;
    else if (std::strncmp(a, "--workload=", 11) == 0) c.workload = a[11];
    else if (std::strncmp(a, "--records=", 10) == 0) c.records = std::strtoull(a + 10, nullptr, 10);
    else if (std::strncmp(a, "--ops=", 6) == 0) c.ops = std::strtoull(a + 6, nullptr, 10);
    else if (std::strncmp(a, "--threads=", 10) == 0) c.threads = std::atoi(a + 10);
    else if (std::strncmp(a, "--zipf=", 7) == 0) c.zipf_theta = std::strtod(a + 7, nullptr);
    else if (std::strcmp(a, "--uniform") == 0) c.uniform = true;
  }
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = Parse(argc, argv);
  api::IndexKind kind;
  if (!api::ParseIndexKind(config.table, &kind)) {
    std::fprintf(stderr, "unknown table %s\n", config.table.c_str());
    return 1;
  }
  int read_pct;
  bool insert_for_writes = false;
  switch (config.workload) {
    case 'A': read_pct = 50; break;
    case 'B': read_pct = 95; break;
    case 'C': read_pct = 100; break;
    case 'D': read_pct = 95; insert_for_writes = true; break;
    default:
      std::fprintf(stderr, "workload must be A, B, C or D\n");
      return 1;
  }

  const std::string path = "/tmp/dash_ycsb.pool";
  std::remove(path.c_str());
  pmem::PmPool::Options options;
  options.pool_size = 4ull << 30;
  auto pool = pmem::PmPool::Create(path, options);
  if (pool == nullptr) return 1;
  epoch::EpochManager epochs;
  DashOptions opts;
  auto table = api::CreateKvIndex(kind, pool.get(), &epochs, opts);

  std::printf("loading %lu records into %s...\n",
              static_cast<unsigned long>(config.records),
              config.table.c_str());
  {
    std::vector<std::thread> loaders;
    const uint64_t per = config.records / config.threads;
    for (int t = 0; t < config.threads; ++t) {
      loaders.emplace_back([&, t] {
        const uint64_t begin = t * per + 1;
        const uint64_t end =
            t == config.threads - 1 ? config.records : (t + 1) * per;
        for (uint64_t k = begin; k <= end; ++k) table->Insert(k, k);
      });
    }
    for (auto& l : loaders) l.join();
  }

  std::printf("running workload %c (%d%% reads, %s keys) with %d threads\n",
              config.workload, read_pct,
              config.uniform ? "uniform" : "zipfian", config.threads);
  std::atomic<uint64_t> reads{0}, writes{0}, misses{0};
  std::atomic<uint64_t> insert_cursor{config.records};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  const uint64_t ops_per = config.ops / config.threads;
  for (int t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(t + 7);
      util::ZipfGenerator zipf(config.records, config.zipf_theta,
                               t * 31 + 11);
      uint64_t local_reads = 0, local_writes = 0, local_misses = 0;
      for (uint64_t i = 0; i < ops_per; ++i) {
        const uint64_t key =
            config.uniform ? rng.NextBounded(config.records) + 1
                           : zipf.Next() + 1;
        if (static_cast<int>(rng.NextBounded(100)) < read_pct) {
          uint64_t value;
          if (!api::IsOk(table->Search(key, &value))) ++local_misses;
          ++local_reads;
        } else if (insert_for_writes) {
          table->Insert(insert_cursor.fetch_add(1) + 1, i);
          ++local_writes;
        } else {
          // In-place update of the opaque 8-byte payload (§4.1).
          table->Update(key, i);
          ++local_writes;
        }
      }
      reads += local_reads;
      writes += local_writes;
      misses += local_misses;
    });
  }
  for (auto& w : workers) w.join();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  std::printf("throughput: %.2f Mops/s (%lu reads, %lu writes, %lu misses) "
              "load_factor=%.3f\n",
              static_cast<double>(config.ops) / secs / 1e6,
              static_cast<unsigned long>(reads.load()),
              static_cast<unsigned long>(writes.load()),
              static_cast<unsigned long>(misses.load()),
              table->Stats().load_factor);
  table->CloseClean();
  pool->CloseClean();
  std::remove(path.c_str());
  return misses.load() == 0 ? 0 : 1;
}
