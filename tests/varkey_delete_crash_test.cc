// A crash in a variable-length-key delete must not leave a record whose
// key blob is free.
//
// A delete clears the record's slot, persists the clear, and only then
// frees the key blob. In the reverse order a crash between the two left a
// committed record whose key lived in a block on the allocator's free
// list: the next insert of that size took the block and wrote its own key
// over it, so the crashed key vanished and its record stayed behind.
//
// The test loads 2,000 keys "key-%010u" (one size class) into a var-key
// table with crash_sweep_test's small options and torn writes armed, then
// deletes keys in order until one crashes right after its clear: a key in
// a bucket pair, and on Dash also one in the stash. It reverts the
// unflushed lines and reopens, inserts one new key of the same length, and
// checks that the crashed key still reads as it did after the reopen, that
// every other key is intact, and that deleting every key leaves no record.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "epoch/epoch_manager.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/pool.h"
#include "test_util.h"

namespace dash::api {
namespace {

// crash_sweep_test's small tables: 2,000 keys fill many segments and put
// some records in the stash.
DashOptions SmallTableOptions() {
  DashOptions o;
  o.buckets_per_segment = 16;
  o.stash_buckets = 2;
  o.initial_depth = 1;
  o.lh_base_segments = 4;
  o.lh_stride = 2;
  return o;
}

constexpr uint32_t kKeys = 2000;
constexpr size_t kPoolSize = 64ull << 20;

std::string Key(uint32_t k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key-%010u", k);
  return buf;
}

uint64_t ValueOf(uint32_t k) { return uint64_t{k} * 31 + 7; }

struct DeleteCrash {
  IndexKind kind;
  const char* point;  // the CRASH_POINT between a delete's clear and free
  const char* name;
};

void PrintTo(const DeleteCrash& c, std::ostream* os) { *os << c.name; }

// Statuses compare by name, so a failure prints them readably.
std::string Name(Status status) { return StatusName(status); }

std::unique_ptr<VarKvIndex> Open(IndexKind kind, pmem::PmPool* pool,
                                 epoch::EpochManager* epochs) {
  return CreateVarKvIndex(kind, pool, epochs, SmallTableOptions());
}

void RunDeleteCrash(const DeleteCrash& c) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file(std::string("varkey_delete_") + c.name);
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index = Open(c.kind, pool.get(), &epochs);
  ASSERT_NE(index, nullptr);

  ASSERT_TRUE(pmem::TornWriteArm());
  for (uint32_t k = 0; k < kKeys; ++k) {
    ASSERT_EQ(index->Insert(Key(k), ValueOf(k)), Status::kOk) << "key " << k;
  }
  // Keys deleted before the crash are gone for good.
  ASSERT_TRUE(pmem::CrashPointArm(c.point));
  uint32_t crashed = kKeys;
  for (uint32_t k = 0; k < kKeys; ++k) {
    try {
      ASSERT_EQ(index->Delete(Key(k)), Status::kOk) << "key " << k;
    } catch (const pmem::CrashInjected&) {
      crashed = k;
      break;
    }
  }
  pmem::CrashPointDisarm();
  ASSERT_LT(crashed, kKeys) << c.point << " never reached";

  pmem::TornWriteRevert();
  epochs.DiscardAll();
  index.reset();
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  ASSERT_TRUE(pool->recovered_from_crash());
  epoch::EpochManager epochs2;
  index = Open(c.kind, pool.get(), &epochs2);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->Verify());

  // The delete was in flight, so either answer is legal; it must not
  // change afterwards.
  uint64_t value = 0;
  const Status reopened = index->Search(Key(crashed), &value);
  ASSERT_TRUE(reopened == Status::kNotFound ||
              (reopened == Status::kOk && value == ValueOf(crashed)))
      << "crashed key " << crashed << ": " << StatusName(reopened);

  ASSERT_EQ(index->Insert(Key(kKeys), ValueOf(kKeys)), Status::kOk);
  EXPECT_EQ(Name(index->Search(Key(crashed), &value)), Name(reopened))
      << "crashed key " << crashed << " changed after an insert of its size";
  for (uint32_t k = 0; k <= kKeys; ++k) {
    if (k == crashed) continue;
    const std::string st = Name(index->Search(Key(k), &value));
    if (k < crashed) {
      ASSERT_EQ(st, Name(Status::kNotFound))
          << "deleted key " << k << " came back";
    } else {
      ASSERT_EQ(st, Name(Status::kOk)) << "key " << k << " lost";
      ASSERT_EQ(value, ValueOf(k)) << "key " << k << " corrupt";
    }
  }

  for (uint32_t k = crashed; k <= kKeys; ++k) {
    const Status expected = k == crashed ? reopened : Status::kOk;
    ASSERT_EQ(Name(index->Delete(Key(k))), Name(expected))
        << "delete of key " << k;
  }
  EXPECT_EQ(index->Stats().records, 0u);
  index->CloseClean();
  pool->CloseClean();
}

class VarKeyDeleteCrashTest : public ::testing::TestWithParam<DeleteCrash> {};

TEST_P(VarKeyDeleteCrashTest, CrashedDeleteKeepsItsKeyBlob) {
  RunDeleteCrash(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllSites, VarKeyDeleteCrashTest,
    ::testing::Values(
        DeleteCrash{IndexKind::kDashEH, "delete_after_clear", "dash_eh_bucket"},
        DeleteCrash{IndexKind::kDashEH, "stash_delete_after_clear",
                    "dash_eh_stash"},
        DeleteCrash{IndexKind::kDashLH, "delete_after_clear", "dash_lh_bucket"},
        DeleteCrash{IndexKind::kDashLH, "stash_delete_after_clear",
                    "dash_lh_stash"},
        DeleteCrash{IndexKind::kCCEH, "cceh_delete_after_clear",
                    "cceh_bucket"}),
    [](const ::testing::TestParamInfo<DeleteCrash>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dash::api
