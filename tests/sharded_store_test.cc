// ShardedStore tests: routing stability, scatter/regroup/gather batch
// execution, aggregated stats, persistence across reopen, and concurrent
// mixed batches from multiple threads against 4 shards.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include <fstream>

#include "api/sharded_store.h"
#include "pmem/crash_point.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash::api {
namespace {

using test::SmallStoreOptions;
using test::TempShardPaths;

TEST(ShardedStoreTest, SingleOpsRouteAndRoundTrip) {
  TempShardPaths paths("store_basic", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->shard_count(), 4u);

  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Insert(k, k * 7), Status::kOk) << "key " << k;
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << "key " << k;
    ASSERT_EQ(value, k * 7);
  }
  EXPECT_EQ(store->Insert(5, 1), Status::kExists);
  EXPECT_EQ(store->Update(5, 500), Status::kOk);
  ASSERT_EQ(store->Search(5, &value), Status::kOk);
  EXPECT_EQ(value, 500u);
  EXPECT_EQ(store->Delete(5), Status::kOk);
  EXPECT_EQ(store->Delete(5), Status::kNotFound);
  EXPECT_EQ(store->Insert(0, 1), Status::kInvalidArgument);

  // Every shard must have received a fair share of a uniform keyspace.
  const ShardedStats stats = store->Stats();
  EXPECT_EQ(stats.shard_count, 4u);
  EXPECT_EQ(stats.totals.records, kKeys - 1);
  EXPECT_GT(stats.totals.bytes_used, 0u);
  for (size_t s = 0; s < store->shard_count(); ++s) {
    const uint64_t records = store->shard(s)->Stats().records;
    EXPECT_GT(records, kKeys / 8) << "shard " << s << " starved";
  }
  EXPECT_GE(stats.max_shard_load_factor, stats.min_shard_load_factor);
  EXPECT_GT(stats.min_shard_load_factor, 0.0);

  store->CloseClean();
}

TEST(ShardedStoreTest, RoutingIsStableAcrossReopen) {
  TempShardPaths paths("store_reopen", 2);
  constexpr uint64_t kKeys = 5000;
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k + 1), Status::kOk);
    }
    store->CloseClean();
  }
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
    ASSERT_NE(store, nullptr);
    uint64_t value = 0;
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Search(k, &value), Status::kOk) << "key " << k;
      ASSERT_EQ(value, k + 1);
    }
    EXPECT_EQ(store->Stats().totals.records, kKeys);
    store->CloseClean();
  }
}

TEST(ShardedStoreTest, MultiExecuteMatchesModel) {
  TempShardPaths paths("store_mexec", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);

  std::map<uint64_t, uint64_t> model;
  util::Xoshiro256 rng(11);
  constexpr uint64_t kKeySpace = 10000;
  for (int round = 0; round < 40; ++round) {
    constexpr size_t kN = 300;
    std::vector<Op> ops;
    std::map<uint64_t, bool> used;
    while (ops.size() < kN) {
      const uint64_t key = rng.NextBounded(kKeySpace) + 1;
      if (used.count(key)) continue;
      used[key] = true;
      switch (rng.NextBounded(4)) {
        case 0: ops.push_back(Op::Search(key)); break;
        case 1: ops.push_back(Op::Insert(key, rng.Next())); break;
        case 2: ops.push_back(Op::Update(key, rng.Next())); break;
        default: ops.push_back(Op::Delete(key)); break;
      }
    }
    std::vector<Status> statuses(kN);
    store->MultiExecute(ops.data(), kN, statuses.data());
    for (size_t i = 0; i < kN; ++i) {
      Status expected = Status::kInternal;
      switch (ops[i].type) {
        case OpType::kSearch: {
          const auto it = model.find(ops[i].key);
          expected = it == model.end() ? Status::kNotFound : Status::kOk;
          if (it != model.end()) {
            ASSERT_EQ(ops[i].value, it->second) << "key " << ops[i].key;
          }
          break;
        }
        case OpType::kInsert:
          expected = model.emplace(ops[i].key, ops[i].value).second
                         ? Status::kOk
                         : Status::kExists;
          break;
        case OpType::kUpdate: {
          const auto it = model.find(ops[i].key);
          expected = it == model.end() ? Status::kNotFound : Status::kOk;
          if (it != model.end()) it->second = ops[i].value;
          break;
        }
        case OpType::kDelete:
          expected = model.erase(ops[i].key) == 1 ? Status::kOk
                                                  : Status::kNotFound;
          break;
      }
      ASSERT_EQ(statuses[i], expected)
          << "round " << round << " slot " << i << " key " << ops[i].key;
    }
  }
  EXPECT_EQ(store->Stats().totals.records, model.size());
  store->CloseClean();
}

// The hybrid DRAM-PM tier behind the sharded facade: mixed batches match
// the model, and a reopen (which discards every shard's DRAM index and
// rebuilds it from the per-thread PM logs) serves the same contents.
TEST(ShardedStoreTest, HybridKindMatchesModelAcrossReopen) {
  TempShardPaths paths("store_hybrid", 4);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 4);
  options.kind = IndexKind::kHybrid;
  std::map<uint64_t, uint64_t> model;
  {
    auto store = ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    util::Xoshiro256 rng(23);
    constexpr uint64_t kKeySpace = 8000;
    for (int round = 0; round < 30; ++round) {
      constexpr size_t kN = 200;
      std::vector<Op> ops;
      std::map<uint64_t, bool> used;
      while (ops.size() < kN) {
        const uint64_t key = rng.NextBounded(kKeySpace) + 1;
        if (used.count(key)) continue;
        used[key] = true;
        switch (rng.NextBounded(4)) {
          case 0: ops.push_back(Op::Search(key)); break;
          case 1: ops.push_back(Op::Insert(key, rng.Next())); break;
          case 2: ops.push_back(Op::Update(key, rng.Next())); break;
          default: ops.push_back(Op::Delete(key)); break;
        }
      }
      std::vector<Status> statuses(kN);
      store->MultiExecute(ops.data(), kN, statuses.data());
      for (size_t i = 0; i < kN; ++i) {
        Status expected = Status::kInternal;
        switch (ops[i].type) {
          case OpType::kSearch: {
            const auto it = model.find(ops[i].key);
            expected = it == model.end() ? Status::kNotFound : Status::kOk;
            if (it != model.end()) {
              ASSERT_EQ(ops[i].value, it->second) << "key " << ops[i].key;
            }
            break;
          }
          case OpType::kInsert:
            expected = model.emplace(ops[i].key, ops[i].value).second
                           ? Status::kOk
                           : Status::kExists;
            break;
          case OpType::kUpdate: {
            const auto it = model.find(ops[i].key);
            expected = it == model.end() ? Status::kNotFound : Status::kOk;
            if (it != model.end()) it->second = ops[i].value;
            break;
          }
          case OpType::kDelete:
            expected = model.erase(ops[i].key) == 1 ? Status::kOk
                                                    : Status::kNotFound;
            break;
        }
        ASSERT_EQ(statuses[i], expected)
            << "round " << round << " slot " << i << " key " << ops[i].key;
      }
    }
    EXPECT_EQ(store->Stats().totals.records, model.size());
    store->CloseClean();
  }
  {
    auto store = ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->Stats().totals.records, model.size());
    uint64_t value = 0;
    for (const auto& [key, expected] : model) {
      ASSERT_EQ(store->Search(key, &value), Status::kOk) << "key " << key;
      ASSERT_EQ(value, expected) << "key " << key;
    }
    store->CloseClean();
  }
}

// Homogeneous Multi* facade entry points: scatter by key, per-shard
// pipeline dispatch, gather in caller order. Batch sizes straddle the
// stack/heap scratch boundary (256).
TEST(ShardedStoreTest, HomogeneousMultiOpsMatchSingleOps) {
  TempShardPaths paths("store_multi", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);

  for (const size_t n : {5ul, 64ul, 300ul}) {
    std::vector<uint64_t> keys(n), values(n), got(n);
    std::vector<Status> statuses(n);
    const uint64_t base = n * 100000;
    for (size_t i = 0; i < n; ++i) {
      keys[i] = base + i + 1;
      values[i] = i + 7;
    }
    store->MultiInsert(keys.data(), values.data(), n, statuses.data());
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(statuses[i], Status::kOk);
    store->MultiInsert(keys.data(), values.data(), n, statuses.data());
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(statuses[i], Status::kExists);

    store->MultiSearch(keys.data(), n, got.data(), statuses.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(statuses[i], Status::kOk) << "key " << keys[i];
      ASSERT_EQ(got[i], values[i]);
    }

    for (size_t i = 0; i < n; ++i) values[i] = i + 1000;
    store->MultiUpdate(keys.data(), values.data(), n, statuses.data());
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(statuses[i], Status::kOk);
    store->MultiSearch(keys.data(), n, got.data(), statuses.data());
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(got[i], values[i]);

    store->MultiDelete(keys.data(), n, statuses.data());
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(statuses[i], Status::kOk);
    store->MultiDelete(keys.data(), n, statuses.data());
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(statuses[i], Status::kNotFound);
  }

  // Reserved key inside a batch: flagged, neighbors still execute.
  uint64_t keys[3] = {11, 0, 13};
  uint64_t values[3] = {1, 2, 3};
  Status statuses[3];
  store->MultiInsert(keys, values, 3, statuses);
  EXPECT_EQ(statuses[0], Status::kOk);
  EXPECT_EQ(statuses[1], Status::kInvalidArgument);
  EXPECT_EQ(statuses[2], Status::kOk);

  EXPECT_EQ(store->Stats().totals.records, 2u);
  store->CloseClean();
}

// Multiple threads issue mixed batches against 4 shards over disjoint key
// ranges; a reader thread hammers the full range concurrently.
TEST(ShardedStoreTest, ConcurrentMixedBatches) {
  TempShardPaths paths("store_conc", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);

  const int writers = 4;
  constexpr uint64_t kPerThread = 8000;
  constexpr size_t kBatch = 64;
  std::atomic<uint64_t> wrong_values{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < writers; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t base = static_cast<uint64_t>(t) * kPerThread;
      Op ops[kBatch];
      Status statuses[kBatch];
      // Insert the range in mixed batches that also re-search earlier keys.
      for (uint64_t k = 1; k <= kPerThread; k += kBatch / 2) {
        size_t n = 0;
        for (uint64_t i = k; i < k + kBatch / 2 && i <= kPerThread; ++i) {
          ops[n++] = Op::Insert(base + i, base + i + 1);
        }
        const size_t inserts = n;
        for (uint64_t i = k; i >= 2 && n < kBatch; --i) {
          ops[n++] = Op::Search(base + i - 1);
        }
        store->MultiExecute(ops, n, statuses);
        for (size_t i = 0; i < inserts; ++i) {
          if (!IsOk(statuses[i])) wrong_values.fetch_add(1);
        }
        for (size_t i = inserts; i < n; ++i) {
          if (IsOk(statuses[i]) &&
              ops[i].value != ops[i].key + 1) {
            wrong_values.fetch_add(1);
          }
        }
      }
    });
  }
  threads.emplace_back([&] {
    util::Xoshiro256 rng(5);
    Op ops[kBatch];
    Status statuses[kBatch];
    for (int round = 0; round < 300; ++round) {
      for (size_t i = 0; i < kBatch; ++i) {
        ops[i] = Op::Search(
            rng.NextBounded(static_cast<uint64_t>(writers) * kPerThread) + 1);
      }
      store->MultiExecute(ops, kBatch, statuses);
      for (size_t i = 0; i < kBatch; ++i) {
        if (IsOk(statuses[i]) && ops[i].value != ops[i].key + 1) {
          wrong_values.fetch_add(1);
        }
      }
    }
  });
  for (auto& t : threads) t.join();

  EXPECT_EQ(wrong_values.load(), 0u);
  EXPECT_EQ(store->Stats().totals.records,
            static_cast<uint64_t>(writers) * kPerThread);
  uint64_t value = 0;
  for (uint64_t k = 1; k <= static_cast<uint64_t>(writers) * kPerThread;
       ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << "key " << k;
    ASSERT_EQ(value, k + 1);
  }
  store->CloseClean();
}

// Regression (issue: stats during concurrent batches): Stats() must be
// routed through the shard queues, so a snapshot taken right after a pile
// of async submissions — without waiting on their futures — still counts
// every record of every batch enqueued before it (per-shard FIFO), and
// never reads a shard mid-batch.
TEST(ShardedStoreTest, StatsSnapshotsQueuedBatches) {
  TempShardPaths paths("store_stats", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->async_enabled());

  constexpr size_t kBatches = 16;
  constexpr size_t kBatch = 256;
  std::vector<std::vector<Op>> ops(kBatches);
  std::vector<std::vector<Status>> statuses(kBatches);
  std::vector<BatchFuture> futures(kBatches);
  uint64_t next_key = 1;
  for (size_t b = 0; b < kBatches; ++b) {
    ops[b].reserve(kBatch);
    statuses[b].resize(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      ops[b].push_back(Op::Insert(next_key++, 1));
    }
    futures[b] =
        store->SubmitExecute(ops[b].data(), kBatch, statuses[b].data());
    ASSERT_EQ(futures[b].submit_status(), Status::kOk);
  }

  // No future has been waited on: the snapshot request queues behind all
  // of the insert batches on every shard.
  const ShardedStats stats = store->Stats();
  EXPECT_EQ(stats.totals.records, kBatches * kBatch);

  for (auto& future : futures) future.Wait();
  for (size_t b = 0; b < kBatches; ++b) {
    for (size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(statuses[b][i], Status::kOk);
    }
  }
  store->CloseClean();
  // Stats after a clean close is guarded, not undefined.
  EXPECT_EQ(store->Stats().shard_count, 0u);
}

// The sequential scatter/execute/gather path (async.workers = false) must
// stay semantically identical to the executor-backed wrappers, on every
// table kind. Its cross-shard priming is the only caller of
// PrefetchBatch, so the mixed batches below — small enough to be primed,
// with read and write hints — run every table's resolve-and-prefetch
// helper, and one of them must straddle a structural modification.
class ShardedStoreKindTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(ShardedStoreKindTest, InlineModeMatchesModel) {
  TempShardPaths paths(
      std::string("store_inline_") + IndexKindName(GetParam()), 4);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 4);
  options.kind = GetParam();
  options.table.lh_base_segments = 4;  // Dash-LH: expand early
  options.table.lh_stride = 2;
  options.async.workers = false;
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  ASSERT_FALSE(store->async_enabled());

  constexpr size_t kN = 300;
  std::vector<uint64_t> keys(kN), values(kN), got(kN);
  std::vector<Status> statuses(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i + 1;
    values[i] = i + 42;
  }
  store->MultiInsert(keys.data(), values.data(), kN, statuses.data());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(statuses[i], Status::kOk);
  store->MultiSearch(keys.data(), kN, got.data(), statuses.data());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(statuses[i], Status::kOk);
    ASSERT_EQ(got[i], values[i]);
  }

  // Submit* on an inline store executes on the caller thread; the future
  // is born ready.
  std::vector<Op> ops;
  for (size_t i = 0; i < kN; ++i) ops.push_back(Op::Search(keys[i]));
  BatchFuture future = store->SubmitExecute(ops.data(), kN, statuses.data());
  EXPECT_TRUE(future.Ready());
  EXPECT_EQ(future.pending_shards(), 0u);
  future.Wait();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(statuses[i], Status::kOk);
    ASSERT_EQ(ops[i].value, values[i]);
  }

  // Mixed batches of 200 distinct keys: two thirds fresh inserts, the
  // rest searches, updates and deletes of live keys. Distinct keys make
  // the documented type-group reordering unobservable, so the serial
  // model is exact. Runs until a batch grows the capacity mid-flight.
  std::map<uint64_t, uint64_t> model;
  std::vector<uint64_t> live;
  for (size_t i = 0; i < kN; ++i) {
    model[keys[i]] = values[i];
    live.push_back(keys[i]);
  }
  util::Xoshiro256 rng(static_cast<uint64_t>(GetParam()) + 5);
  uint64_t fresh = kN;
  bool straddled = false;
  for (int round = 0; round < 80 && !straddled; ++round) {
    const uint64_t capacity_before = store->Stats().totals.capacity_slots;
    std::vector<Op> batch;
    std::map<uint64_t, bool> used;
    while (batch.size() < 200) {
      if (batch.size() % 3 != 2) {
        batch.push_back(Op::Insert(++fresh, rng.Next()));
        continue;
      }
      const size_t pick = rng.NextBounded(live.size());
      const uint64_t key = live[pick];
      if (used[key]) continue;
      used[key] = true;
      switch (rng.NextBounded(3)) {
        case 0: batch.push_back(Op::Search(key)); break;
        case 1: batch.push_back(Op::Update(key, rng.Next())); break;
        default:
          batch.push_back(Op::Delete(key));
          live[pick] = live.back();
          live.pop_back();
          break;
      }
    }
    std::vector<Status> batch_statuses(batch.size());
    store->MultiExecute(batch.data(), batch.size(), batch_statuses.data());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Op& op = batch[i];
      ASSERT_EQ(batch_statuses[i], Status::kOk)
          << "round " << round << " " << OpTypeName(op.type) << " key "
          << op.key;
      switch (op.type) {
        case OpType::kSearch: ASSERT_EQ(op.value, model[op.key]); break;
        case OpType::kInsert:
          model[op.key] = op.value;
          live.push_back(op.key);
          break;
        case OpType::kUpdate: model[op.key] = op.value; break;
        case OpType::kDelete: model.erase(op.key); break;
      }
    }
    straddled = store->Stats().totals.capacity_slots > capacity_before;
  }
  EXPECT_TRUE(straddled) << "no mixed batch straddled a structural change";
  EXPECT_EQ(store->Stats().totals.records, model.size());
  uint64_t value = 0;
  for (const auto& [key, expected] : model) {
    ASSERT_EQ(store->Search(key, &value), Status::kOk) << "key " << key;
    ASSERT_EQ(value, expected) << "key " << key;
  }

  store->CloseClean();
  // The inline wrappers reject after close, like the executor path.
  store->MultiDelete(keys.data(), kN, statuses.data());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(statuses[i], Status::kInvalidArgument);
  }
}

std::string KindTestName(const ::testing::TestParamInfo<IndexKind>& info) {
  std::string name = IndexKindName(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, ShardedStoreKindTest,
                         ::testing::Values(IndexKind::kDashEH,
                                           IndexKind::kDashLH,
                                           IndexKind::kCCEH,
                                           IndexKind::kLevel,
                                           IndexKind::kHybrid),
                         KindTestName);

TEST(ShardedStoreTest, RejectsBadOptions) {
  EXPECT_EQ(ShardedStore::Open({}), nullptr);  // empty prefix
  TempShardPaths paths("store_zero", 1);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 0);
  EXPECT_EQ(ShardedStore::Open(options), nullptr);
}

// Reopening with a different shard count or kind must fail loudly (the
// manifest check) — a silent mismatch would misroute every key.
TEST(ShardedStoreTest, RejectsMismatchedReopen) {
  TempShardPaths paths("store_manifest", 4);
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->Insert(1, 1), Status::kOk);
    store->CloseClean();
  }
  EXPECT_EQ(ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2)),
            nullptr);
  ShardedStoreOptions wrong_kind = SmallStoreOptions(paths.prefix(), 4);
  wrong_kind.kind = IndexKind::kCCEH;
  EXPECT_EQ(ShardedStore::Open(wrong_kind), nullptr);
  // The matching configuration still opens.
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);
  uint64_t value = 0;
  EXPECT_EQ(store->Search(1, &value), Status::kOk);
  store->CloseClean();
}

// ---- fault isolation: quarantine, RecoverShard, manifest v2 ----

void CorruptPoolHeader(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open()) << path;
  const char garbage[8] = {'X', 'X', 'X', 'X', 'X', 'X', 'X', 'X'};
  f.write(garbage, sizeof garbage);  // clobbers the pool magic
}

// One shard with a wrecked pool header must not fail the store: it is
// quarantined (kUnavailable on every op routed to it) while the other
// shard keeps serving, Stats reports the degradation, and RecoverShard
// re-admits the shard once the operator clears the wreck.
TEST(ShardedStoreTest, CorruptShardIsQuarantinedNotFatal) {
  TempShardPaths paths("store_quar", 2);
  constexpr uint64_t kKeys = 4000;
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k * 3), Status::kOk);
    }
    store->CloseClean();
  }
  CorruptPoolHeader(paths.prefix() + ".shard1");
  if (::testing::Test::HasFatalFailure()) return;

  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr) << "one bad shard must not fail the store";
  EXPECT_FALSE(store->IsQuarantined(0));
  EXPECT_TRUE(store->IsQuarantined(1));
  EXPECT_EQ(store->QuarantinedCount(), 1u);
  const RecoveryReport& report = store->recovery_report();
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_EQ(report.quarantined[0], 1u);
  EXPECT_EQ(report.shard_ms.size(), 2u);

  // Single ops: healthy shard serves its keys, quarantined one refuses.
  uint64_t value = 0;
  size_t served = 0, refused = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    const Status st = store->Search(k, &value);
    if (store->ShardOf(k) == 1) {
      ASSERT_EQ(st, Status::kUnavailable) << "key " << k;
      ++refused;
    } else {
      ASSERT_EQ(st, Status::kOk) << "key " << k;
      ASSERT_EQ(value, k * 3);
      ++served;
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_GT(refused, 0u);

  // Batches spanning both shards: quarantined slots complete with
  // kUnavailable, their neighbors still execute.
  constexpr size_t kN = 256;
  uint64_t keys[kN], got[kN];
  Status statuses[kN];
  for (size_t i = 0; i < kN; ++i) keys[i] = i + 1;
  store->MultiSearch(keys, kN, got, statuses);
  for (size_t i = 0; i < kN; ++i) {
    if (store->ShardOf(keys[i]) == 1) {
      ASSERT_EQ(statuses[i], Status::kUnavailable);
    } else {
      ASSERT_EQ(statuses[i], Status::kOk);
      ASSERT_EQ(got[i], keys[i] * 3);
    }
  }

  const ShardedStats stats = store->Stats();
  EXPECT_EQ(stats.shard_count, 2u);
  EXPECT_EQ(stats.quarantined_count, 1u);
  ASSERT_EQ(stats.quarantined_shards.size(), 1u);
  EXPECT_EQ(stats.quarantined_shards[0], 1u);
  EXPECT_LT(stats.totals.records, kKeys);  // only the healthy shard counts

  // Recovery with the file still corrupt keeps the shard quarantined;
  // deleting the wreck and retrying re-admits it empty.
  EXPECT_EQ(store->RecoverShard(1), Status::kUnavailable);
  EXPECT_TRUE(store->IsQuarantined(1));
  ASSERT_EQ(std::remove((paths.prefix() + ".shard1").c_str()), 0);
  EXPECT_EQ(store->RecoverShard(1), Status::kOk);
  EXPECT_FALSE(store->IsQuarantined(1));
  EXPECT_EQ(store->RecoverShard(1), Status::kOk);  // no-op on healthy
  for (uint64_t k = 1; k <= kKeys; ++k) {
    const Status st = store->Search(k, &value);
    if (store->ShardOf(k) == 1) {
      ASSERT_EQ(st, Status::kNotFound);  // data went with the file
    } else {
      ASSERT_EQ(st, Status::kOk);
    }
  }
  for (uint64_t k = kKeys + 1; k <= kKeys + 500; ++k) {
    ASSERT_EQ(store->Insert(k, k), Status::kOk);
  }
  EXPECT_EQ(store->Stats().quarantined_count, 0u);
  EXPECT_EQ(store->RecoverShard(99), Status::kInvalidArgument);
  store->CloseClean();
}

// Swapped .shard files carry the wrong identity tag: both shards are
// quarantined instead of silently serving misrouted keys. Swapping back
// and re-admitting recovers all data.
TEST(ShardedStoreTest, SwappedShardFilesAreQuarantined) {
  TempShardPaths paths("store_swap", 2);
  constexpr uint64_t kKeys = 3000;
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k + 9), Status::kOk);
    }
    store->CloseClean();
  }
  const std::string s0 = paths.prefix() + ".shard0";
  const std::string s1 = paths.prefix() + ".shard1";
  const std::string tmp = paths.prefix() + ".swaptmp";
  auto swap_files = [&] {
    ASSERT_EQ(std::rename(s0.c_str(), tmp.c_str()), 0);
    ASSERT_EQ(std::rename(s1.c_str(), s0.c_str()), 0);
    ASSERT_EQ(std::rename(tmp.c_str(), s1.c_str()), 0);
  };
  swap_files();
  if (::testing::Test::HasFatalFailure()) return;

  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->QuarantinedCount(), 2u);
  uint64_t value = 0;
  EXPECT_EQ(store->Search(1, &value), Status::kUnavailable);

  swap_files();
  if (::testing::Test::HasFatalFailure()) return;
  EXPECT_EQ(store->RecoverShard(0), Status::kOk);
  EXPECT_EQ(store->RecoverShard(1), Status::kOk);
  EXPECT_EQ(store->QuarantinedCount(), 0u);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << "key " << k;
    ASSERT_EQ(value, k + 9);
  }
  store->CloseClean();
}

// With quarantine disabled, any shard failure fails the whole open.
TEST(ShardedStoreTest, QuarantineDisabledFailsOpen) {
  TempShardPaths paths("store_noquar", 2);
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->Insert(1, 1), Status::kOk);
    store->CloseClean();
  }
  CorruptPoolHeader(paths.prefix() + ".shard1");
  if (::testing::Test::HasFatalFailure()) return;
  ShardedStoreOptions strict = SmallStoreOptions(paths.prefix(), 2);
  strict.quarantine_failed_shards = false;
  EXPECT_EQ(ShardedStore::Open(strict), nullptr);
  // The default policy still opens the same on-disk state, degraded.
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->QuarantinedCount(), 1u);
  store->CloseClean();
}

// A torn v2 manifest (checksum mismatch) refuses to guess the layout; a
// legacy v1 manifest is accepted and upgraded in place; a stray
// .manifest.tmp from a crashed rewrite is discarded.
TEST(ShardedStoreTest, TornManifestRejectsV1Upgrades) {
  TempShardPaths paths("store_mani2", 2);
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
    ASSERT_NE(store, nullptr);
    ASSERT_EQ(store->Insert(1, 11), Status::kOk);
    store->CloseClean();
  }
  const std::string manifest = paths.prefix() + ".manifest";
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << "v2 2 dash-eh 1 deadbeef\n";  // plausible fields, bad checksum
  }
  EXPECT_EQ(ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2)),
            nullptr);
  {
    std::ofstream out(manifest, std::ios::trunc);
    out << "2 dash-eh\n";  // legacy v1
    std::ofstream stray(manifest + ".tmp", std::ios::trunc);
    stray << "half-written rewrite\n";
  }
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr);
  uint64_t value = 0;
  EXPECT_EQ(store->Search(1, &value), Status::kOk);
  EXPECT_EQ(value, 11u);
  store->CloseClean();
  std::string tag;
  std::ifstream in(manifest);
  in >> tag;
  EXPECT_EQ(tag, "v2") << "v1 manifest was not upgraded";
  EXPECT_FALSE(std::ifstream(manifest + ".tmp").good());
  // The upgraded manifest round-trips.
  store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr);
  EXPECT_EQ(store->Search(1, &value), Status::kOk);
  store->CloseClean();
}

// Crashes around the manifest rename leave either no manifest (retry
// recreates the store) or a complete one (retry opens it) — never a torn
// configuration.
TEST(ShardedStoreTest, ManifestWriteCrashLeavesRecoverableState) {
  {
    TempShardPaths paths("store_mcrash_pre", 2);
    ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 2);
    ASSERT_TRUE(pmem::CrashPointArm("manifest_before_rename"));
    EXPECT_THROW(ShardedStore::Open(options), pmem::CrashInjected);
    pmem::CrashPointDisarm();
    auto store = ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->Insert(1, 5), Status::kOk);
    store->CloseClean();
  }
  {
    TempShardPaths paths("store_mcrash_post", 2);
    ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 2);
    ASSERT_TRUE(pmem::CrashPointArm("manifest_after_rename"));
    EXPECT_THROW(ShardedStore::Open(options), pmem::CrashInjected);
    pmem::CrashPointDisarm();
    auto store = ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(store->Insert(1, 6), Status::kOk);
    store->CloseClean();
  }
}

// The recovery report covers every shard for both serial and parallel
// opens, and the shard data survives either path identically.
TEST(ShardedStoreTest, RecoveryReportCoversAllShards) {
  TempShardPaths paths("store_rrep", 4);
  constexpr uint64_t kKeys = 2000;
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k), Status::kOk);
    }
    store->CloseClean();
  }
  for (const size_t threads : {1ul, 4ul}) {
    ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 4);
    options.recovery_threads = threads;
    auto store = ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    const RecoveryReport& report = store->recovery_report();
    EXPECT_EQ(report.threads, threads);
    ASSERT_EQ(report.shard_ms.size(), 4u);
    ASSERT_EQ(report.shard_recovered.size(), 4u);
    EXPECT_TRUE(report.quarantined.empty());
    for (size_t s = 0; s < 4; ++s) {
      EXPECT_GE(report.shard_ms[s], 0.0);
      EXPECT_FALSE(report.shard_recovered[s]) << "clean close, shard " << s;
    }
    uint64_t value = 0;
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Search(k, &value), Status::kOk);
      ASSERT_EQ(value, k);
    }
    store->CloseClean();
  }
}

// A dirty reopen recovers every shard on its own thread, and each records
// its outcome in the shared report. Regression: the per-shard "recovered"
// flags were written from those threads straight into a vector<bool>,
// where neighbouring shards share a word (a data race under TSan).
TEST(ShardedStoreTest, DirtyParallelReopenReportsEveryShardRecovered) {
  TempShardPaths paths("store_dirty_par", 4);
  constexpr uint64_t kKeys = 2000;
  {
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k * 3), Status::kOk);
    }
    // Destroyed without CloseClean: every shard's pool stays dirty.
  }
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 4);
  options.recovery_threads = 4;
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  const RecoveryReport& report = store->recovery_report();
  EXPECT_EQ(report.threads, 4u);
  ASSERT_EQ(report.shard_recovered.size(), 4u);
  EXPECT_TRUE(report.quarantined.empty());
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_TRUE(report.shard_recovered[s]) << "dirty close, shard " << s;
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << "key " << k;
    ASSERT_EQ(value, k * 3);
  }
  store->CloseClean();
}

// Stats() totals carry every per-shard counter: a sharded hybrid store
// that compacted reports the sum of its shards' compaction, log-footprint
// and lock counters, not zeros.
TEST(ShardedStoreTest, StatsTotalsSumEveryShardCounter) {
  TempShardPaths paths("store_agg", 2);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 2);
  options.kind = IndexKind::kHybrid;
  options.table.compaction_trigger = 0.1;
  options.async.workers = false;  // compaction driven from this thread
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  constexpr uint64_t kKeys = 6000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Insert(k, k), Status::kOk);
  }
  // Shrink the live set so the logs hold reclaimable chunks.
  for (uint64_t k = 1; k <= kKeys; ++k) {
    if (k % 4 != 0) ASSERT_EQ(store->Delete(k), Status::kOk);
  }
  for (size_t s = 0; s < 2; ++s) {
    while (store->shard(s)->Compact()) {
    }
  }

  IndexStats sum;
  double worst_dead_ratio = 0.0;
  for (size_t s = 0; s < 2; ++s) {
    const IndexStats st = store->shard(s)->Stats();
    sum.records += st.records;
    sum.bucket_lock_acquisitions += st.bucket_lock_acquisitions;
    sum.bucket_lock_contended_spins += st.bucket_lock_contended_spins;
    sum.log_dead_slots += st.log_dead_slots;
    sum.compactions += st.compactions;
    sum.compaction_chunks_reclaimed += st.compaction_chunks_reclaimed;
    sum.compaction_bytes_rewritten += st.compaction_bytes_rewritten;
    sum.log_chunks += st.log_chunks;
    sum.log_chunk_bytes += st.log_chunk_bytes;
    worst_dead_ratio = std::max(worst_dead_ratio, st.compaction_dead_ratio);
  }
  ASSERT_GT(sum.compactions, 0u) << "the churn never triggered compaction";
  ASSERT_GT(sum.log_chunk_bytes, 0u);

  const IndexStats totals = store->Stats().totals;
  EXPECT_EQ(totals.records, kKeys / 4);
  EXPECT_EQ(totals.records, sum.records);
  EXPECT_EQ(totals.bucket_lock_acquisitions, sum.bucket_lock_acquisitions);
  EXPECT_EQ(totals.bucket_lock_contended_spins,
            sum.bucket_lock_contended_spins);
  EXPECT_EQ(totals.log_dead_slots, sum.log_dead_slots);
  EXPECT_EQ(totals.compactions, sum.compactions);
  EXPECT_EQ(totals.compaction_chunks_reclaimed,
            sum.compaction_chunks_reclaimed);
  EXPECT_EQ(totals.compaction_bytes_rewritten, sum.compaction_bytes_rewritten);
  EXPECT_EQ(totals.log_chunks, sum.log_chunks);
  EXPECT_EQ(totals.log_chunk_bytes, sum.log_chunk_bytes);
  EXPECT_EQ(totals.compaction_dead_ratio, worst_dead_ratio);
  store->CloseClean();
}

}  // namespace
}  // namespace dash::api
