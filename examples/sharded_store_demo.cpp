// ShardedStore demo: a 4-shard Dash-EH store serving a mixed-op
// descriptor batch through MultiExecute — the serving-path configuration
// of API v2. Each shard owns its own pool and epoch manager; the store
// scatters a batch per shard, runs every sub-batch through that shard's
// prefetch pipeline, and gathers results in caller order.
//
//   ./sharded_store_demo [pool_prefix]
//
// Exits non-zero if any op's status differs from the one the demo expects.

#include <cstdio>
#include <string>

#include "api/sharded_store.h"

using namespace dash;

namespace {
void RemoveStoreFiles(const api::ShardedStoreOptions& options) {
  for (size_t i = 0; i < options.shards; ++i) {
    std::remove((options.path_prefix + ".shard" + std::to_string(i)).c_str());
  }
  std::remove((options.path_prefix + ".manifest").c_str());
}
}  // namespace

int main(int argc, char** argv) {
  api::ShardedStoreOptions options;
  options.kind = api::IndexKind::kDashEH;
  options.shards = 4;
  options.path_prefix = argc > 1 ? argv[1] : "/tmp/dash_sharded_demo";
  options.shard_pool_size = 256ull << 20;
  RemoveStoreFiles(options);

  auto store = api::ShardedStore::Open(options);
  if (store == nullptr) {
    std::fprintf(stderr, "cannot open sharded store\n");
    return 1;
  }

  // Load a few records through the single-op facade.
  for (uint64_t k = 1; k <= 10000; ++k) {
    store->Insert(k, k * 10);
  }

  // One heterogeneous batch: reads, an update, an insert, a delete, and a
  // deliberate error (reserved key 0).
  api::Op ops[] = {
      api::Op::Search(1),        api::Op::Search(9999),
      api::Op::Update(2, 222),   api::Op::Insert(10001, 42),
      api::Op::Delete(3),        api::Op::Search(0),
  };
  constexpr size_t kN = sizeof(ops) / sizeof(ops[0]);
  const api::Status expected[kN] = {
      api::Status::kOk, api::Status::kOk, api::Status::kOk,
      api::Status::kOk, api::Status::kOk, api::Status::kInvalidArgument};
  api::Status statuses[kN];
  store->MultiExecute(ops, kN, statuses);

  bool as_expected = true;
  for (size_t i = 0; i < kN; ++i) {
    as_expected = as_expected && statuses[i] == expected[i];
    std::printf("%-6s key=%-6lu -> %-16s", api::OpTypeName(ops[i].type),
                static_cast<unsigned long>(ops[i].key),
                api::StatusName(statuses[i]));
    if (ops[i].type == api::OpType::kSearch && api::IsOk(statuses[i])) {
      std::printf(" value=%lu", static_cast<unsigned long>(ops[i].value));
    }
    std::printf("\n");
  }

  const api::ShardedStats stats = store->Stats();
  std::printf(
      "shards=%lu records=%lu bytes_used=%lu load_factor=%.2f "
      "(per-shard %.2f..%.2f)\n",
      static_cast<unsigned long>(stats.shard_count),
      static_cast<unsigned long>(stats.totals.records),
      static_cast<unsigned long>(stats.totals.bytes_used),
      stats.totals.load_factor, stats.min_shard_load_factor,
      stats.max_shard_load_factor);

  store->CloseClean();
  RemoveStoreFiles(options);
  return as_expected ? 0 : 1;
}
