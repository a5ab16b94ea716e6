// Stress tests for the optimistic (versioned) read paths of CCEH, Level
// hashing, and the hybrid DRAM-PM tier: lock-free searches racing the
// structure-modifying operations that invalidate them — CCEH/hybrid
// directory doubling / segment splits and Level full-table resizes —
// plus in-place updates (which for the hybrid tier are PM log appends
// racing the searches that chase the old handle; for Dash-EH/LH, value
// stores racing lock-free value loads). Readers
// must never observe torn records (a hit returns the exact value some
// serial history wrote), and batch results must match the serial model.
// The suite is part of the TSan CI job, where the snapshot/revalidate
// protocol's atomics are checked for data races.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash {
namespace {

using api::IndexKind;
using api::IsOk;
using api::KvIndex;
using api::Status;

// Keys [1, kPreloaded] are inserted with value key * 3 before readers
// start; the writer then grows the table far enough to force repeated
// SMOs (CCEH: splits + doubling; Level: full-table resizes) with the
// small geometry below.
constexpr uint64_t kPreloaded = 4000;
constexpr uint64_t kGrowTo = 40000;
// Absent probe range, disjoint from every inserted key.
constexpr uint64_t kAbsentBase = 1u << 30;

class OptimisticRaceTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  void SetUp() override {
    file_ = std::make_unique<test::TempPoolFile>(
        std::string("optrace_") + api::IndexKindName(GetParam()));
    pool_ = test::CreatePool(*file_, 512ull << 20);
    ASSERT_NE(pool_, nullptr);
    DashOptions opts;
    opts.buckets_per_segment = 16;  // small segments -> frequent SMOs
    opts.initial_depth = 1;
    table_ = api::CreateKvIndex(GetParam(), pool_.get(), &epochs_, opts);
    ASSERT_NE(table_, nullptr);
    for (uint64_t key = 1; key <= kPreloaded; ++key) {
      ASSERT_EQ(table_->Insert(key, key * 3), Status::kOk);
    }
  }

  // Rounds of whole-table in-place updates (values alternate between
  // key * 5 and key * 3) racing single-op and batch searches, which must
  // only ever see one of the two.
  void UpdateStorm() {
    std::atomic<bool> stop{false};
    std::thread writer([&] {
      for (int round = 0; round < 40; ++round) {
        const uint64_t mult = (round & 1) == 0 ? 5 : 3;
        for (uint64_t key = 1; key <= kPreloaded; ++key) {
          ASSERT_EQ(table_->Update(key, key * mult), Status::kOk);
        }
      }
      stop.store(true);
    });
    std::vector<std::thread> readers;
    for (int t = 0; t < Readers(); ++t) {
      readers.emplace_back([&, t] {
        util::Xoshiro256 rng(t + 101);
        constexpr size_t kBatch = 16;
        uint64_t keys[kBatch];
        uint64_t values[kBatch];
        Status statuses[kBatch];
        uint64_t value = 0;
        while (!stop.load()) {
          const uint64_t key = rng.NextBounded(kPreloaded) + 1;
          ASSERT_EQ(table_->Search(key, &value), Status::kOk);
          ASSERT_TRUE(value == key * 3 || value == key * 5)
              << "torn value " << value << " for key " << key;
          for (size_t j = 0; j < kBatch; ++j) {
            keys[j] = rng.NextBounded(kPreloaded) + 1;
          }
          table_->MultiSearch(keys, kBatch, values, statuses);
          for (size_t j = 0; j < kBatch; ++j) {
            ASSERT_EQ(statuses[j], Status::kOk) << "key " << keys[j];
            ASSERT_TRUE(values[j] == keys[j] * 3 || values[j] == keys[j] * 5)
                << "torn batch value " << values[j] << " for key " << keys[j];
          }
        }
      });
    }
    writer.join();
    for (auto& r : readers) r.join();
  }

  int Readers() const {
    return std::max(1u, std::min(3u, std::thread::hardware_concurrency())) ;
  }

  std::unique_ptr<test::TempPoolFile> file_;
  std::unique_ptr<pmem::PmPool> pool_;
  epoch::EpochManager epochs_;
  std::unique_ptr<KvIndex> table_;
};

// Single-op searches racing growth SMOs: present keys must always hit
// with their exact value, absent keys must never surface.
TEST_P(OptimisticRaceTest, SearchesNeverTornDuringGrowth) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t key = kPreloaded + 1; key <= kGrowTo; ++key) {
      ASSERT_EQ(table_->Insert(key, key * 3), Status::kOk);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < Readers(); ++t) {
    readers.emplace_back([&, t] {
      util::Xoshiro256 rng(t + 7);
      uint64_t value = 0;
      while (!stop.load()) {
        const uint64_t key = rng.NextBounded(kPreloaded) + 1;
        ASSERT_EQ(table_->Search(key, &value), Status::kOk)
            << "present key lost during SMO: " << key;
        ASSERT_EQ(value, key * 3) << "torn read for key " << key;
        const uint64_t absent = kAbsentBase + rng.NextBounded(kPreloaded);
        ASSERT_EQ(table_->Search(absent, &value), Status::kNotFound)
            << "phantom hit for absent key " << absent;
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  // The growth must actually have exercised SMOs.
  EXPECT_GE(table_->Stats().records, kGrowTo);
}

// Batch searches (the suspendable AMAC machine with its Retry pass)
// racing growth SMOs: every slot of every batch must match the serial
// model — present keys kOk with the exact value, absent keys kNotFound.
TEST_P(OptimisticRaceTest, BatchSearchMatchesSerialModelDuringGrowth) {
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (uint64_t key = kPreloaded + 1; key <= kGrowTo; ++key) {
      ASSERT_EQ(table_->Insert(key, key * 3), Status::kOk);
    }
    stop.store(true);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < Readers(); ++t) {
    readers.emplace_back([&, t] {
      util::Xoshiro256 rng(t + 31);
      constexpr size_t kBatch = 16;
      uint64_t keys[kBatch];
      uint64_t values[kBatch];
      Status statuses[kBatch];
      while (!stop.load()) {
        // Even slots: always-present keys; odd slots: absent keys.
        for (size_t j = 0; j < kBatch; ++j) {
          keys[j] = (j & 1) == 0 ? rng.NextBounded(kPreloaded) + 1
                                 : kAbsentBase + rng.NextBounded(kPreloaded);
        }
        table_->MultiSearch(keys, kBatch, values, statuses);
        for (size_t j = 0; j < kBatch; ++j) {
          if ((j & 1) == 0) {
            ASSERT_EQ(statuses[j], Status::kOk) << "key " << keys[j];
            ASSERT_EQ(values[j], keys[j] * 3)
                << "torn batch read for key " << keys[j];
          } else {
            ASSERT_EQ(statuses[j], Status::kNotFound)
                << "phantom batch hit for key " << keys[j];
          }
        }
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  // The growth must actually have exercised SMOs.
  EXPECT_GE(table_->Stats().records, kGrowTo);
}

// In-place updates racing single-op and batch searches: a reader must
// always observe one of the two values some committed update wrote,
// never a mix (the versioned probe discards any state a writer touched).
TEST_P(OptimisticRaceTest, UpdatesNeverYieldTornValues) { UpdateStorm(); }

// The telemetry contract behind "searches write no lock word": a
// search-only phase must not move the write-lock counter, and the racing
// phases above must have recorded writer activity.
TEST_P(OptimisticRaceTest, SearchOnlyPhasePerformsNoLockWordWrites) {
  const uint64_t write_locks_before = table_->Stats().write_locks;
  EXPECT_GT(write_locks_before, 0u);  // the preload took exclusive locks
  uint64_t value = 0;
  uint64_t keys[16];
  uint64_t values[16];
  Status statuses[16];
  for (uint64_t key = 1; key <= kPreloaded; ++key) {
    ASSERT_EQ(table_->Search(key, &value), Status::kOk);
  }
  for (uint64_t base = 1; base + 16 <= kPreloaded; base += 16) {
    for (size_t j = 0; j < 16; ++j) keys[j] = base + j;
    table_->MultiSearch(keys, 16, values, statuses);
  }
  EXPECT_EQ(table_->Stats().write_locks, write_locks_before)
      << "a search path acquired an exclusive lock";
  EXPECT_EQ(table_->Stats().version_conflicts, 0u)
      << "single-threaded searches cannot conflict";
}

// Dash's lock-free readers load a record value while an in-place update
// stores it (Bucket::LoadValue vs UpdateSlotValue). Dash tables keep no
// opt-lock telemetry, so they get this storm only, not the suite above.
class DashUpdateRaceTest : public OptimisticRaceTest {};

TEST_P(DashUpdateRaceTest, SearchesVsUpdatesNeverTorn) { UpdateStorm(); }

std::string KindTestName(const ::testing::TestParamInfo<IndexKind>& info) {
  std::string name = api::IndexKindName(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(OptimisticTables, OptimisticRaceTest,
                         ::testing::Values(IndexKind::kCCEH,
                                           IndexKind::kLevel,
                                           IndexKind::kHybrid),
                         KindTestName);

INSTANTIATE_TEST_SUITE_P(DashTables, DashUpdateRaceTest,
                         ::testing::Values(IndexKind::kDashEH,
                                           IndexKind::kDashLH),
                         KindTestName);

}  // namespace
}  // namespace dash
