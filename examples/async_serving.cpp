// Async submission API walkthrough: submit/wait lifecycle, windowed
// (pipelined) submission, completion polling, and clean shutdown.
//
//   ./async_serving [pool_prefix]
//
// A 4-shard store is opened with its per-shard worker threads (the
// default); batches are scattered on this thread, executed on the
// workers, and the returned BatchFuture tells us when the caller-owned
// result arrays are safe to read. Exits non-zero if a search misses or the
// store holds a different record count than was inserted.

#include <cstdio>
#include <string>
#include <vector>

#include "api/sharded_store.h"

using dash::api::BatchFuture;
using dash::api::Op;
using dash::api::Status;
using dash::api::StatusName;

int main(int argc, char** argv) {
  const std::string prefix =
      argc > 1 ? argv[1] : "/tmp/dash_async_serving_example";
  for (size_t i = 0; i < 4; ++i) {
    std::remove((prefix + ".shard" + std::to_string(i)).c_str());
  }
  std::remove((prefix + ".manifest").c_str());

  dash::api::ShardedStoreOptions options;
  options.kind = dash::api::IndexKind::kDashEH;
  options.shards = 4;
  options.path_prefix = prefix;
  options.shard_pool_size = 256ull << 20;
  // options.async.workers      — per-shard worker threads (default true)
  // options.async.queue_depth  — bounded per-shard queue (default 128)
  // options.async.pin_workers  — pin worker i to core i (default false)
  auto store = dash::api::ShardedStore::Open(options);
  if (store == nullptr) {
    std::fprintf(stderr, "cannot open sharded store at %s\n",
                 prefix.c_str());
    return 1;
  }

  // 1. Submit one mixed batch and wait for its completion token. The ops
  //    and statuses arrays must stay alive (and result slots unread)
  //    until the future is ready.
  std::vector<Op> ops;
  for (uint64_t k = 1; k <= 8; ++k) ops.push_back(Op::Insert(k, k * 100));
  std::vector<Status> statuses(ops.size());
  BatchFuture future =
      store->SubmitExecute(ops.data(), ops.size(), statuses.data());
  future.Wait();
  std::printf("insert batch done: status[0]=%s pending=%u\n",
              StatusName(statuses[0]), future.pending_shards());

  // 2. Pipeline: keep a window of batches in flight. Batches submitted
  //    to the same shard run in submission order (per-shard FIFO);
  //    different shards run in parallel on their workers.
  constexpr size_t kWindow = 3;
  struct Slot {
    std::vector<Op> ops;
    std::vector<Status> statuses;
    BatchFuture future;
  };
  Slot window[kWindow];
  uint64_t next_key = 9;
  for (int round = 0; round < 9; ++round) {
    Slot& slot = window[round % kWindow];
    if (slot.future.valid()) slot.future.Wait();  // reap before reuse
    slot.ops.clear();
    for (int i = 0; i < 16; ++i) {
      slot.ops.push_back(Op::Insert(next_key, next_key * 100));
      ++next_key;
    }
    slot.statuses.resize(slot.ops.size());
    slot.future = store->SubmitExecute(slot.ops.data(), slot.ops.size(),
                                       slot.statuses.data());
  }
  for (Slot& slot : window) {
    if (slot.future.valid()) slot.future.Wait();
  }
  std::printf("pipelined %llu inserts across 4 shards\n",
              static_cast<unsigned long long>(next_key - 1));

  // 3. Homogeneous submission + poll instead of block.
  std::vector<uint64_t> keys, values(32);
  for (uint64_t k = 1; k <= 32; ++k) keys.push_back(k);
  std::vector<Status> search_status(keys.size());
  BatchFuture search = store->SubmitSearch(keys.data(), keys.size(),
                                           values.data(),
                                           search_status.data());
  while (!search.Ready()) {
    // ... a real frontend would do other work here ...
  }
  std::printf("search[7]: %s -> %llu\n", StatusName(search_status[7]),
              static_cast<unsigned long long>(values[7]));

  // 4. The synchronous Multi* calls are submit+wait wrappers over the
  //    same executor — existing callers need no changes.
  std::vector<uint64_t> more_values(keys.size());
  store->MultiSearch(keys.data(), keys.size(), more_values.data(),
                     search_status.data());

  const dash::api::ShardedStats stats = store->Stats();
  std::printf("records=%llu across %zu shards (lf %.3f..%.3f)\n",
              static_cast<unsigned long long>(stats.totals.records),
              stats.shard_count, stats.min_shard_load_factor,
              stats.max_shard_load_factor);

  // 5. Clean shutdown: drains queued batches, joins the workers, then
  //    closes the shards. Later submissions are rejected.
  store->CloseClean();
  BatchFuture rejected =
      store->SubmitExecute(ops.data(), ops.size(), statuses.data());
  std::printf("submit after close: %s\n",
              StatusName(rejected.submit_status()));
  for (const Status s : search_status) {
    if (s != Status::kOk) return 1;
  }
  return stats.totals.records == next_key - 1 ? 0 : 1;
}
