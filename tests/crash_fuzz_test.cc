// Crash-instant fuzzing: instead of crashing at the first hit of a crash
// point, crash at the N-th hit for a sweep of N values and random points.
// This explores many distinct persistent-state snapshots (different
// segments mid-split, different records mid-displacement) and checks the
// global recovery contract after each: no committed record lost, no
// duplicates, structure verified, table fully operational. Torn writes
// are armed: at the crash, each line not flushed and fenced keeps its
// contents with probability 0.5 (a seeded eviction subset) and otherwise
// reverts to its last durable image.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dash/dash_eh.h"
#include "dash/dash_lh.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash {
namespace {

struct FuzzCase {
  const char* point;
  uint64_t skip;  // crash at the (skip+1)-th hit
};

constexpr double kKeepProbability = 0.5;
// Room for either workload several times over; torn-write tracking
// shadows the whole pool, so it stays small.
constexpr size_t kPoolSize = 64ull << 20;

// The eviction subset's seed: one per case, so every case is reproducible.
uint64_t SeedOf(const FuzzCase& c) {
  return std::hash<std::string>{}(c.point) ^ c.skip;
}

std::string CaseName(const ::testing::TestParamInfo<FuzzCase>& info) {
  return std::string(info.param.point) + "_skip" +
         std::to_string(info.param.skip);
}

class EhCrashFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EhCrashFuzz, RecoveryContractHolds) {
  const FuzzCase& c = GetParam();
  test::TempPoolFile file(std::string("fuzz_eh_") + CaseName({c, 0}));
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.stash_buckets = 2;
  auto table = std::make_unique<DashEH<>>(pool.get(), &epochs, opts);

  test::InjectionCleanup cleanup;
  ASSERT_TRUE(pmem::TornWriteArm());
  ASSERT_TRUE(pmem::CrashPointArm(c.point, c.skip));
  uint64_t crashed_key = 0;
  for (uint64_t k = 1; k <= 60000 && crashed_key == 0; ++k) {
    try {
      table->Insert(k, k);
    } catch (const pmem::CrashInjected&) {
      crashed_key = k;
    }
  }
  pmem::CrashPointDisarm();
  if (crashed_key == 0) {
    pmem::TornWriteDisarm();
    GTEST_SKIP() << "crash point " << c.point << " not reached " << c.skip + 1
                 << " times in this workload";
  }

  pmem::TornWriteRevert(kKeepProbability, SeedOf(c));
  epochs.DiscardAll();
  table.reset();
  pool->CloseDirty();
  pool.reset();
  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  table = std::make_unique<DashEH<>>(pool.get(), &epochs, opts);

  uint64_t value;
  for (uint64_t k = 1; k < crashed_key; ++k) {
    ASSERT_EQ(table->Search(k, &value), OpStatus::kOk)
        << "key " << k << " lost (" << c.point << " skip " << c.skip << ")";
    ASSERT_EQ(value, k);
  }
  // No duplicates: total records equals distinct findable keys.
  uint64_t found = crashed_key - 1;
  if (table->Search(crashed_key, &value) == OpStatus::kOk) ++found;
  EXPECT_EQ(table->Size(), found);
  // The searches recovered every segment, so the check is now strict.
  EXPECT_TRUE(table->VerifyStructure());
  // Fully operational afterwards.
  for (uint64_t k = crashed_key + 1; k <= crashed_key + 2000; ++k) {
    ASSERT_EQ(table->Insert(k, k), OpStatus::kOk);
  }
  table->CloseClean();
  pool->CloseClean();
}

std::vector<FuzzCase> EhCases() {
  std::vector<FuzzCase> cases;
  for (const char* point :
       {"eh_split_after_mark", "eh_split_after_activate",
        "eh_split_after_rehash", "eh_split_after_dir_update",
        "displace_after_insert", "stash_after_insert"}) {
    for (uint64_t skip : {0ull, 3ull, 17ull, 64ull}) {
      cases.push_back({point, skip});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, EhCrashFuzz, ::testing::ValuesIn(EhCases()),
                         CaseName);

class LhCrashFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(LhCrashFuzz, RecoveryContractHolds) {
  const FuzzCase& c = GetParam();
  test::TempPoolFile file(std::string("fuzz_lh_") + CaseName({c, 0}));
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.stash_buckets = 2;
  opts.lh_base_segments = 4;
  opts.lh_stride = 2;
  auto table = std::make_unique<DashLH<>>(pool.get(), &epochs, opts);

  test::InjectionCleanup cleanup;
  ASSERT_TRUE(pmem::TornWriteArm());
  ASSERT_TRUE(pmem::CrashPointArm(c.point, c.skip));
  uint64_t crashed_key = 0;
  for (uint64_t k = 1; k <= 80000 && crashed_key == 0; ++k) {
    try {
      table->Insert(k, k);
    } catch (const pmem::CrashInjected&) {
      crashed_key = k;
    }
  }
  pmem::CrashPointDisarm();
  if (crashed_key == 0) {
    pmem::TornWriteDisarm();
    GTEST_SKIP() << "crash point not reached often enough";
  }

  pmem::TornWriteRevert(kKeepProbability, SeedOf(c));
  epochs.DiscardAll();
  table.reset();
  pool->CloseDirty();
  pool.reset();
  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  table = std::make_unique<DashLH<>>(pool.get(), &epochs, opts);

  uint64_t value;
  for (uint64_t k = 1; k < crashed_key; ++k) {
    ASSERT_EQ(table->Search(k, &value), OpStatus::kOk)
        << "key " << k << " lost (" << c.point << " skip " << c.skip << ")";
  }
  uint64_t found = crashed_key - 1;
  if (table->Search(crashed_key, &value) == OpStatus::kOk) ++found;
  EXPECT_EQ(table->Size(), found);
  EXPECT_TRUE(table->VerifyStructure());
  for (uint64_t k = crashed_key + 1; k <= crashed_key + 2000; ++k) {
    ASSERT_EQ(table->Insert(k, k), OpStatus::kOk);
  }
  table->CloseClean();
  pool->CloseClean();
}

std::vector<FuzzCase> LhCases() {
  std::vector<FuzzCase> cases;
  for (const char* point :
       {"lh_split_after_mark", "lh_split_after_rehash",
        "lh_expand_after_advance", "lh_chain_after_publish",
        "displace_after_insert", "stash_after_insert"}) {
    for (uint64_t skip : {0ull, 5ull, 23ull}) {
      cases.push_back({point, skip});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, LhCrashFuzz, ::testing::ValuesIn(LhCases()),
                         CaseName);

}  // namespace
}  // namespace dash
