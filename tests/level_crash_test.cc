// A deleted Level key must not come back after a crash.
//
// Level's insert movement copies a record from a full top candidate to its
// alternative top bucket, persists the copy, then deletes the original. A
// crash between the two leaves the record in both buckets, and Level's
// recovery does constant work, so it never looks for the duplicate. This
// test crashes at that point ("level_move_after_copy") at several hits of
// crash_sweep_test's torn-write insert workload, reopens, finishes the
// workload (its resizes rehash the surviving copies), and checks that
// after updating and then deleting every key none is found and the table
// holds no record: updates and deletes must reach every copy. It runs with
// fixed and with variable-length keys (whose copies share one key blob,
// which must be freed once).

#include <cstdint>
#include <memory>
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

// crash_sweep_test's small tables: resizes and insert movements start
// within the first few thousand inserts.
DashOptions SmallTableOptions() {
  DashOptions o;
  o.buckets_per_segment = 16;
  o.stash_buckets = 2;
  o.initial_depth = 1;
  o.lh_base_segments = 4;
  o.lh_stride = 2;
  return o;
}

constexpr uint64_t kWorkloadKeys = 20000;
constexpr size_t kPoolSize = 64ull << 20;
constexpr uint64_t kSkips[] = {0, 5, 50, 200};
constexpr char kPoint[] = "level_move_after_copy";

uint64_t ValueOf(uint64_t key) { return key * 31 + 7; }

struct FixedKeys {
  static std::unique_ptr<KvIndex> Open(pmem::PmPool* pool,
                                       epoch::EpochManager* epochs) {
    return CreateKvIndex(IndexKind::kLevel, pool, epochs,
                         SmallTableOptions());
  }
  static uint64_t Key(uint64_t k) { return k; }
};

struct VarKeys {
  static std::unique_ptr<VarKvIndex> Open(pmem::PmPool* pool,
                                          epoch::EpochManager* epochs) {
    return CreateVarKvIndex(IndexKind::kLevel, pool, epochs,
                            SmallTableOptions());
  }
  static std::string Key(uint64_t k) {
    return "level-key-" + std::to_string(k);
  }
};

template <typename Keys>
void RunMoveCrash(uint64_t skip) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file("level_move");
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index = Keys::Open(pool.get(), &epochs);
  ASSERT_NE(index, nullptr);

  ASSERT_TRUE(pmem::TornWriteArm());
  ASSERT_TRUE(pmem::CrashPointArm(kPoint, skip));
  uint64_t crashed_at = 0;
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    try {
      ASSERT_EQ(index->Insert(Keys::Key(k), ValueOf(k)), Status::kOk)
          << "key " << k;
    } catch (const pmem::CrashInjected&) {
      crashed_at = k;
      break;
    }
  }
  pmem::CrashPointDisarm();
  ASSERT_NE(crashed_at, 0u) << "hit " << skip << " never reached";

  pmem::TornWriteRevert();
  epochs.DiscardAll();
  index.reset();
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  ASSERT_TRUE(pool->recovered_from_crash());
  epoch::EpochManager epochs2;
  index = Keys::Open(pool.get(), &epochs2);
  ASSERT_NE(index, nullptr);
  ASSERT_TRUE(index->Verify());

  uint64_t value = 0;
  for (uint64_t k = 1; k < crashed_at; ++k) {
    ASSERT_EQ(index->Search(Keys::Key(k), &value), Status::kOk)
        << "committed key " << k << " lost";
    ASSERT_EQ(value, ValueOf(k)) << "key " << k << " corrupt";
  }

  // Finish the workload, in-flight key included: the resizes it triggers
  // rehash the surviving copies, possibly both into one bucket.
  for (uint64_t k = crashed_at; k <= kWorkloadKeys; ++k) {
    const Status st = index->Insert(Keys::Key(k), ValueOf(k));
    ASSERT_TRUE(st == Status::kOk || (k == crashed_at && st == Status::kExists))
        << "key " << k << ": " << StatusName(st);
  }

  // Update, then delete, every key; none may come back.
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    ASSERT_EQ(index->Update(Keys::Key(k), ValueOf(k) + 1), Status::kOk)
        << "update of key " << k;
  }
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    ASSERT_EQ(index->Delete(Keys::Key(k)), Status::kOk)
        << "delete of key " << k;
  }
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    ASSERT_EQ(index->Search(Keys::Key(k), &value), Status::kNotFound)
        << "deleted key " << k << " came back with value " << value;
  }
  EXPECT_EQ(index->Stats().records, 0u);
  index->CloseClean();
  pool->CloseClean();
}

template <typename Keys>
class LevelMoveCrashTest : public ::testing::Test {};

using KeyKinds = ::testing::Types<FixedKeys, VarKeys>;
TYPED_TEST_SUITE(LevelMoveCrashTest, KeyKinds);

TYPED_TEST(LevelMoveCrashTest, DeletedKeyStaysDeletedAfterMoveCrash) {
  for (const uint64_t skip : kSkips) {
    SCOPED_TRACE("hit " + std::to_string(skip));
    RunMoveCrash<TypeParam>(skip);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace dash::api
