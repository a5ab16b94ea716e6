// Batch API walkthrough: insert, look up and delete keys in batches via
// MultiInsert / MultiSearch / MultiDelete. The batch entry points are
// semantically identical to looping the single-op calls, but run each
// group of operations through a software-prefetching pipeline and amortize
// one epoch guard over each group — the natural shape for serving request
// batches from many concurrent users.
//
// Run:  ./batch_ops [pool-path] [table-kind] [keys]
// where table-kind is one of: dash-eh (default), dash-lh, cceh, level,
// hybrid, and keys (default 1000000) is a multiple of 16. Exits non-zero
// unless every search hits and every delete finds its key.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/kv_index.h"
#include "pmem/pool.h"

using namespace dash;

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "/tmp/dash_batch_ops.pool";
  api::IndexKind kind = api::IndexKind::kDashEH;
  if (argc > 2 && !api::ParseIndexKind(argv[2], &kind)) {
    std::fprintf(stderr, "unknown table kind '%s'\n", argv[2]);
    return 1;
  }

  std::remove(path.c_str());
  pmem::PmPool::Options options;
  options.pool_size = 256ull << 20;
  auto pool = pmem::PmPool::Create(path, options);
  if (pool == nullptr) {
    std::fprintf(stderr, "failed to create pool at %s\n", path.c_str());
    return 1;
  }
  epoch::EpochManager epochs;
  DashOptions opts;
  auto table = api::CreateKvIndex(kind, pool.get(), &epochs, opts);

  // A "request batch" as a server would collect it from the network.
  constexpr size_t kBatch = 16;
  const uint64_t total =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) / kBatch * kBatch
               : 1'000'000;

  uint64_t keys[kBatch];
  uint64_t values[kBatch];
  api::Status ok[kBatch];

  const auto t0 = std::chrono::steady_clock::now();
  for (uint64_t base = 0; base < total; base += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      keys[i] = base + i + 1;
      values[i] = (base + i) * 2;
    }
    table->MultiInsert(keys, values, kBatch, ok);
  }
  const auto t1 = std::chrono::steady_clock::now();

  uint64_t hits = 0;
  for (uint64_t base = 0; base < total; base += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      // Scramble so the lookups are not sequential.
      keys[i] = (base + i) * 2654435761u % total + 1;
    }
    table->MultiSearch(keys, kBatch, values, ok);
    for (size_t i = 0; i < kBatch; ++i) hits += api::IsOk(ok[i]);
  }
  const auto t2 = std::chrono::steady_clock::now();
  const double load_factor = table->Stats().load_factor;

  uint64_t deleted = 0;
  for (uint64_t base = 0; base < total; base += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) keys[i] = base + i + 1;
    table->MultiDelete(keys, kBatch, ok);
    for (size_t i = 0; i < kBatch; ++i) deleted += api::IsOk(ok[i]);
  }

  const auto ms = [](auto a, auto b) {
    return std::chrono::duration_cast<std::chrono::milliseconds>(b - a)
        .count();
  };
  std::printf("table=%s inserted=%lu in %ld ms, searched=%lu (hits=%lu) in %ld ms\n",
              api::IndexKindName(table->kind()),
              static_cast<unsigned long>(total), static_cast<long>(ms(t0, t1)),
              static_cast<unsigned long>(total),
              static_cast<unsigned long>(hits), static_cast<long>(ms(t1, t2)));
  std::printf("load factor: %.2f\n", load_factor);
  std::printf("deleted=%lu, records left=%lu\n",
              static_cast<unsigned long>(deleted),
              static_cast<unsigned long>(table->Stats().records));

  table->CloseClean();
  pool->CloseClean();
  std::remove(path.c_str());
  return hits == total && deleted == total ? 0 : 1;
}
