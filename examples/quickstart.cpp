// Quickstart: create a persistent pool, open a Dash-EH table in it, do a
// few operations, close cleanly, reopen and observe the data is still
// there. Run:  ./quickstart [pool-path]  (exits non-zero if the reopened
// table lost the record or kept it after the delete)

#include <cstdio>
#include <string>

#include "api/kv_index.h"
#include "pmem/pool.h"

using namespace dash;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/dash_quickstart.pool";

  // --- first session: create and populate ---
  {
    std::remove(path.c_str());
    pmem::PmPool::Options options;
    options.pool_size = 64ull << 20;  // 64 MB
    auto pool = pmem::PmPool::Create(path, options);
    if (pool == nullptr) {
      std::fprintf(stderr, "failed to create pool at %s\n", path.c_str());
      return 1;
    }

    epoch::EpochManager epochs;
    DashOptions opts;  // paper defaults: 16 KB segments, 2 stash buckets
    auto table =
        api::CreateKvIndex(api::IndexKind::kDashEH, pool.get(), &epochs, opts);

    for (uint64_t k = 1; k <= 100000; ++k) {
      table->Insert(k, k * k);
    }
    uint64_t value = 0;
    table->Search(217, &value);
    std::printf("session 1: inserted 100k records; table[217] = %lu\n",
                static_cast<unsigned long>(value));
    std::printf("session 1: load factor = %.2f\n",
                table->Stats().load_factor);

    table->CloseClean();
    pool->CloseClean();
  }

  // --- second session: reopen, everything persisted ---
  {
    auto pool = pmem::PmPool::Open(path);
    if (pool == nullptr) {
      std::fprintf(stderr, "failed to reopen pool\n");
      return 1;
    }
    epoch::EpochManager epochs;
    DashOptions opts;
    auto table =
        api::CreateKvIndex(api::IndexKind::kDashEH, pool.get(), &epochs, opts);

    uint64_t value = 0;
    const bool found = api::IsOk(table->Search(217, &value));
    std::printf("session 2: reopened; table[217] %s= %lu (records: %lu)\n",
                found ? "" : "NOT FOUND ",
                static_cast<unsigned long>(value),
                static_cast<unsigned long>(table->Stats().records));

    table->Delete(217);
    const bool still_found = api::IsOk(table->Search(217, &value));
    std::printf("session 2: deleted key 217; search now %s\n",
                still_found ? "hits" : "misses");

    table->CloseClean();
    pool->CloseClean();
    if (!found || still_found) {
      std::remove(path.c_str());
      return 1;
    }
  }
  std::remove(path.c_str());
  std::printf("quickstart OK\n");
  return 0;
}
