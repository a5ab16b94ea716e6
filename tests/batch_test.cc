// Batch API tests: MultiSearch/MultiInsert/MultiUpdate/MultiDelete must
// be semantically identical to single-op loops across all four IndexKinds
// (the native implementations only add prefetching and epoch-guard
// amortization), including under concurrent mixed batch/single-op use.

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "test_util.h"
#include "util/amac.h"
#include "util/rand.h"

namespace dash::api {
namespace {

class BatchTest : public ::testing::TestWithParam<IndexKind> {};

// Structural options small enough that the workloads below force splits /
// expansions / resizes while a batch is in flight.
DashOptions SmallTableOptions() {
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.lh_base_segments = 4;
  opts.lh_stride = 2;
  return opts;
}

TEST_P(BatchTest, MultiInsertMatchesSingleOpSemantics) {
  test::TempPoolFile file(std::string("batch_ins_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  // Keys with deliberate duplicates: every third key repeats.
  constexpr size_t kN = 20000;
  std::vector<uint64_t> keys(kN), values(kN);
  std::map<uint64_t, uint64_t> model;
  util::Xoshiro256 rng(7);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = rng.NextBounded(kN / 2) + 1;
    values[i] = i + 1;
  }

  std::unique_ptr<Status[]> inserted(new Status[kN]);
  index->MultiInsert(keys.data(), values.data(), kN, inserted.get());
  for (size_t i = 0; i < kN; ++i) {
    const bool expect_new = model.find(keys[i]) == model.end();
    ASSERT_EQ(inserted[i], expect_new ? Status::kOk : Status::kExists)
        << "slot " << i;
    if (expect_new) model[keys[i]] = values[i];
  }
  EXPECT_EQ(index->Stats().records, model.size());

  // Every surviving value must match the first insert of that key.
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_EQ(index->Search(key, &got), Status::kOk) << "key " << key;
    EXPECT_EQ(got, value);
  }

  index->CloseClean();
  pool->CloseClean();
}

TEST_P(BatchTest, MultiSearchMatchesSingleOpLoop) {
  test::TempPoolFile file(std::string("batch_search_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  constexpr uint64_t kLoaded = 10000;
  for (uint64_t k = 1; k <= kLoaded; ++k) {
    ASSERT_EQ(index->Insert(k, k * 3), Status::kOk);
  }

  // Mix of present and absent keys, sized to leave a partial final group.
  constexpr size_t kN = 4099;
  std::vector<uint64_t> keys(kN);
  util::Xoshiro256 rng(13);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = rng.NextBounded(2 * kLoaded) + 1;
  }

  std::vector<uint64_t> batch_values(kN);
  std::unique_ptr<Status[]> batch_found(new Status[kN]);
  index->MultiSearch(keys.data(), kN, batch_values.data(),
                    batch_found.get());

  for (size_t i = 0; i < kN; ++i) {
    uint64_t single_value = 0;
    const Status single_found = index->Search(keys[i], &single_value);
    ASSERT_EQ(batch_found[i], single_found)
        << "key " << keys[i];
    if (IsOk(single_found)) {
      ASSERT_EQ(batch_values[i], single_value) << "key " << keys[i];
    }
  }

  index->CloseClean();
  pool->CloseClean();
}

TEST_P(BatchTest, MultiDeleteMatchesSingleOpSemantics) {
  test::TempPoolFile file(std::string("batch_del_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  constexpr uint64_t kLoaded = 5000;
  for (uint64_t k = 1; k <= kLoaded; ++k) {
    ASSERT_EQ(index->Insert(k, k), Status::kOk);
  }

  // Delete odd keys plus some absent ones; repeated keys in one batch must
  // succeed exactly once.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= kLoaded; k += 2) {
    keys.push_back(k);
    if (k % 31 == 1) keys.push_back(k);            // duplicate delete
    if (k % 17 == 1) keys.push_back(kLoaded + k);  // absent key
  }
  std::unique_ptr<Status[]> deleted(new Status[keys.size()]);
  std::map<uint64_t, int> delete_count;
  index->MultiDelete(keys.data(), keys.size(), deleted.get());
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool expect =
        keys[i] <= kLoaded && delete_count[keys[i]]++ == 0;
    ASSERT_EQ(deleted[i], expect ? Status::kOk : Status::kNotFound)
        << "key " << keys[i];
  }

  uint64_t value;
  for (uint64_t k = 1; k <= kLoaded; ++k) {
    ASSERT_EQ(index->Search(k, &value),
              k % 2 == 0 ? Status::kOk : Status::kNotFound)
        << "key " << k;
  }

  index->CloseClean();
  pool->CloseClean();
}

// Batched Update (new in API v2 — the PR 1 trio could not express it):
// present keys get the new payload, absent keys report kNotFound.
TEST_P(BatchTest, MultiUpdateMatchesSingleOpSemantics) {
  test::TempPoolFile file(std::string("batch_upd_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  constexpr uint64_t kLoaded = 8000;
  for (uint64_t k = 1; k <= kLoaded; ++k) {
    ASSERT_EQ(index->Insert(k, k), Status::kOk);
  }

  // Update a mix of present and absent keys, with duplicates (the later
  // update of a key must win since same-type batch order is preserved).
  constexpr size_t kN = 4099;
  std::vector<uint64_t> keys(kN), values(kN);
  util::Xoshiro256 rng(21);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = rng.NextBounded(2 * kLoaded) + 1;
    values[i] = 1000000 + i;
  }
  std::unique_ptr<Status[]> updated(new Status[kN]);
  index->MultiUpdate(keys.data(), values.data(), kN, updated.get());

  std::map<uint64_t, uint64_t> last_value;
  for (size_t i = 0; i < kN; ++i) {
    const bool present = keys[i] <= kLoaded;
    ASSERT_EQ(updated[i], present ? Status::kOk : Status::kNotFound)
        << "key " << keys[i];
    if (present) last_value[keys[i]] = values[i];
  }
  for (const auto& [key, value] : last_value) {
    uint64_t got = 0;
    ASSERT_EQ(index->Search(key, &got), Status::kOk);
    ASSERT_EQ(got, value) << "key " << key;
  }
  EXPECT_EQ(index->Stats().records, kLoaded);

  index->CloseClean();
  pool->CloseClean();
}

// Batches and single ops running concurrently over overlapping key ranges:
// every key is inserted by exactly one path; searches must never observe a
// wrong value; the final record count must be exact.
TEST_P(BatchTest, ConcurrentMixedBatchAndSingleOps) {
  test::TempPoolFile file(std::string("batch_conc_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  constexpr uint64_t kKeys = 30000;
  constexpr size_t kBatch = 16;
  std::atomic<uint64_t> wrong_values{0};

  // Batch inserter: even keys, in batches.
  std::thread batch_writer([&] {
    uint64_t keys[kBatch];
    uint64_t values[kBatch];
    Status inserted[kBatch];
    for (uint64_t base = 2; base <= kKeys; base += 2 * kBatch) {
      size_t n = 0;
      for (uint64_t k = base; k <= kKeys && n < kBatch; k += 2, ++n) {
        keys[n] = k;
        values[n] = k + 1;
      }
      index->MultiInsert(keys, values, n, inserted);
    }
  });

  // Single-op inserter: odd keys.
  std::thread single_writer([&] {
    for (uint64_t k = 1; k <= kKeys; k += 2) {
      index->Insert(k, k + 1);
    }
  });

  // Batch reader over the full range while both writers run.
  std::thread reader([&] {
    uint64_t keys[kBatch];
    uint64_t values[kBatch];
    Status found[kBatch];
    util::Xoshiro256 rng(99);
    for (int round = 0; round < 400; ++round) {
      for (size_t i = 0; i < kBatch; ++i) {
        keys[i] = rng.NextBounded(kKeys) + 1;
      }
      index->MultiSearch(keys, kBatch, values, found);
      for (size_t i = 0; i < kBatch; ++i) {
        if (IsOk(found[i]) && values[i] != keys[i] + 1) {
          wrong_values.fetch_add(1);
        }
      }
    }
  });

  batch_writer.join();
  single_writer.join();
  reader.join();

  EXPECT_EQ(wrong_values.load(), 0u);
  EXPECT_EQ(index->Stats().records, kKeys);
  uint64_t value;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(index->Search(k, &value), Status::kOk) << "key " << k;
    ASSERT_EQ(value, k + 1);
  }

  index->CloseClean();
  pool->CloseClean();
}

// The shared write engine reports each write's prefetch passes as AMAC
// suspends: two per op on the directory tables (directory entry, then
// segment header and buckets), one on Level (its four candidate buckets).
TEST_P(BatchTest, WriteEngineReportsItsPrefetchPasses) {
  test::TempPoolFile file(std::string("batch_tele_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  constexpr size_t kN = 100;  // six full groups and a partial one
  std::vector<uint64_t> keys(kN), values(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i + 1;
    values[i] = i + 7;
  }
  std::vector<Status> statuses(kN);
  util::AmacTelemetry::DrainAll();
  index->MultiInsert(keys.data(), values.data(), kN, statuses.data());
  index->MultiUpdate(keys.data(), values.data(), kN, statuses.data());
  index->MultiDelete(keys.data(), kN, statuses.data());
  const util::AmacTelemetry t = util::AmacTelemetry::DrainAll();

  const uint64_t ops = 3 * kN;
  const uint64_t passes = GetParam() == IndexKind::kLevel ? 1 : 2;
  EXPECT_EQ(t.ops, ops);
  EXPECT_EQ(t.groups, 3 * 7u);
  EXPECT_EQ(t.TotalSuspends(), passes * ops);
  EXPECT_EQ(t.steps, passes * ops);
  EXPECT_EQ(t.suspends[static_cast<size_t>(util::AmacState::kHash)], ops);
  for (const Status s : statuses) EXPECT_EQ(s, Status::kOk);

  index->CloseClean();
  pool->CloseClean();
}

INSTANTIATE_TEST_SUITE_P(
    AllTables, BatchTest,
    ::testing::Values(IndexKind::kDashEH, IndexKind::kDashLH,
                      IndexKind::kCCEH, IndexKind::kLevel,
                      IndexKind::kHybrid),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      std::string name = IndexKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The variable-length-key indexes share the same templated batch pipeline;
// one smoke test over Dash-EH covers the VarKvIndex entry points.
TEST(VarBatchTest, DashEhVarKeysRoundTrip) {
  test::TempPoolFile file("batch_var");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  auto index =
      CreateVarKvIndex(IndexKind::kDashEH, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);

  constexpr size_t kN = 2000;
  std::vector<std::string> storage(kN);
  std::vector<std::string_view> keys(kN);
  std::vector<uint64_t> values(kN);
  for (size_t i = 0; i < kN; ++i) {
    storage[i] = "var-key-" + std::to_string(i);
    keys[i] = storage[i];
    values[i] = i + 1;
  }
  std::unique_ptr<Status[]> inserted(new Status[kN]);
  index->MultiInsert(keys.data(), values.data(), kN, inserted.get());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(inserted[i], Status::kOk) << "key " << storage[i];
  }

  std::vector<uint64_t> got(kN);
  std::unique_ptr<Status[]> found(new Status[kN]);
  index->MultiSearch(keys.data(), kN, got.data(), found.get());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(found[i], Status::kOk) << "key " << storage[i];
    ASSERT_EQ(got[i], values[i]);
  }

  std::unique_ptr<Status[]> updated(new Status[kN]);
  index->MultiUpdate(keys.data(), values.data(), kN, updated.get());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(updated[i], Status::kOk) << "key " << storage[i];
  }

  std::unique_ptr<Status[]> deleted(new Status[kN]);
  index->MultiDelete(keys.data(), kN, deleted.get());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(deleted[i], Status::kOk);
  }
  EXPECT_EQ(index->Stats().records, 0u);

  index->CloseClean();
  pool->CloseClean();
}

}  // namespace
}  // namespace dash::api
