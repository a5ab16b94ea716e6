// Instant-recovery demonstration (paper §4.8, Table 1, Fig. 14).
//
// Loads a table, simulates a power failure (no clean-shutdown marker),
// reopens it and measures (1) the time until the table can serve its first
// request — constant, regardless of data size — and (2) how throughput
// ramps up while lazy recovery touches segments on demand.
//
// Run:  ./recovery_demo [records]  (exits non-zero on data loss)

#include <chrono>
#include <cstdio>
#include <string>

#include "api/kv_index.h"
#include "pmem/pool.h"
#include "util/rand.h"

using namespace dash;
using Clock = std::chrono::steady_clock;

int main(int argc, char** argv) {
  const uint64_t records = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                    : 1'000'000;
  const std::string path = "/tmp/dash_recovery_demo.pool";
  std::remove(path.c_str());

  // Session 1: load, then "crash".
  {
    pmem::PmPool::Options options;
    options.pool_size = 2ull << 30;
    auto pool = pmem::PmPool::Create(path, options);
    if (pool == nullptr) return 1;
    epoch::EpochManager epochs;
    DashOptions opts;
    auto table =
        api::CreateKvIndex(api::IndexKind::kDashEH, pool.get(), &epochs, opts);
    for (uint64_t k = 1; k <= records; ++k) table->Insert(k, k);
    std::printf("loaded %lu records, simulating power failure...\n",
                static_cast<unsigned long>(records));
    epochs.DiscardAll();
    table.reset();
    pool->CloseDirty();  // no clean marker — like pulling the plug
  }

  // Session 2: instant recovery.
  {
    const auto open_start = Clock::now();
    auto pool = pmem::PmPool::Open(path);
    if (pool == nullptr) return 1;
    epoch::EpochManager epochs;
    DashOptions opts;
    auto table =
        api::CreateKvIndex(api::IndexKind::kDashEH, pool.get(), &epochs, opts);
    uint64_t value = 0;
    table->Search(1, &value);  // first request
    const double ready_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - open_start)
            .count();
    std::printf("crash-recovered and served first request in %.2f ms "
                "(constant in data size)\n", ready_ms);

    // Throughput ramp while lazy recovery sweeps segments.
    util::Xoshiro256 rng(1);
    for (int window = 0; window < 8; ++window) {
      const auto start = Clock::now();
      uint64_t ops = 0;
      while (Clock::now() - start < std::chrono::milliseconds(100)) {
        for (int i = 0; i < 512; ++i) {
          table->Search(rng.NextBounded(records) + 1, &value);
        }
        ops += 512;
      }
      std::printf("  t=%3d ms..%3d ms: %7.2f Mops/s\n", window * 100,
                  (window + 1) * 100, static_cast<double>(ops) / 0.1 / 1e6);
    }

    // Verify nothing was lost.
    uint64_t missing = 0;
    for (uint64_t k = 1; k <= records; ++k) {
      if (!api::IsOk(table->Search(k, &value))) ++missing;
    }
    std::printf("verification: %lu/%lu records intact (%s)\n",
                static_cast<unsigned long>(records - missing),
                static_cast<unsigned long>(records),
                missing == 0 ? "OK" : "DATA LOSS");
    table->CloseClean();
    pool->CloseClean();
    if (missing != 0) {
      std::remove(path.c_str());
      return 1;
    }
  }
  std::remove(path.c_str());
  return 0;
}
