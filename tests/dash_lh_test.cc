// Dash-LH tests: linear expansion, hybrid directory, stash chaining,
// helped splits, persistence.

#include "dash/dash_lh.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "pmem/flush_tracker.h"
#include "test_util.h"

namespace dash {
namespace {

class DashLhTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<test::TempPoolFile>("dash_lh");
    pool_ = test::CreatePool(*file_);
    ASSERT_NE(pool_, nullptr);
    opts_.buckets_per_segment = 16;
    opts_.stash_buckets = 2;
    opts_.lh_base_segments = 4;  // small so rounds complete in tests
    opts_.lh_stride = 2;
    table_ = std::make_unique<DashLH<>>(pool_.get(), &epochs_, opts_);
  }

  std::unique_ptr<test::TempPoolFile> file_;
  std::unique_ptr<pmem::PmPool> pool_;
  epoch::EpochManager epochs_;
  DashOptions opts_;
  std::unique_ptr<DashLH<>> table_;
};

TEST_F(DashLhTest, BasicRoundTrip) {
  EXPECT_EQ(table_->Insert(1, 11), OpStatus::kOk);
  uint64_t value = 0;
  EXPECT_EQ(table_->Search(1, &value), OpStatus::kOk);
  EXPECT_EQ(value, 11u);
  EXPECT_EQ(table_->Delete(1), OpStatus::kOk);
  EXPECT_EQ(table_->Search(1, &value), OpStatus::kNotFound);
}

TEST_F(DashLhTest, DuplicateInsertRejected) {
  EXPECT_EQ(table_->Insert(5, 1), OpStatus::kOk);
  EXPECT_EQ(table_->Insert(5, 2), OpStatus::kExists);
}

TEST_F(DashLhTest, ExpandsThroughRoundsUnderLoad) {
  constexpr uint64_t kKeys = 40000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Insert(k, k + 3), OpStatus::kOk) << "key " << k;
  }
  // With 4 base segments of ~900 slots, 40k records force several rounds.
  EXPECT_GT(table_->rounds(), 0u);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    uint64_t value = 0;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k + 3);
  }
  EXPECT_EQ(table_->Size(), kKeys);
  for (uint64_t k = kKeys + 1; k <= kKeys + 1000; ++k) {
    uint64_t value;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kNotFound);
  }
}

TEST_F(DashLhTest, ManualExpansionPreservesRecords) {
  std::set<uint64_t> keys;
  for (uint64_t k = 1; k <= 3000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
    keys.insert(k);
  }
  const uint32_t next_before = table_->next_pointer();
  table_->ExpandForTest();
  EXPECT_TRUE(table_->next_pointer() == next_before + 1 ||
              table_->next_pointer() == 0);
  for (uint64_t k : keys) {
    uint64_t value = 0;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
  }
  EXPECT_EQ(table_->Size(), keys.size());
}

// The LH split moves its records without a flush per record: each line
// of the new buddy is flushed at most once (the one persist of the filled
// buddy; the allocator does not zero a split buddy), each source bucket
// once, plus a few lines of state marks, allocator bookkeeping, the
// buddy's array and the commit.
TEST_F(DashLhTest, SplitOfFullSegmentStaysWithinFlushBudget) {
  // With 4 base segments, keys whose segment bits end in 00 all land in
  // segment 0, the first to split. Count how many fit before an insert
  // overflows into a chained stash bucket and triggers the split.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < 2000; ++k) {
    if (((IntKeyPolicy::Hash(k) >> 32) & 3) == 0) keys.push_back(k);
  }
  size_t fit = 0;
  while (table_->next_pointer() == 0 && table_->rounds() == 0) {
    ASSERT_LT(fit, keys.size());
    ASSERT_EQ(table_->Insert(keys[fit], 1), OpStatus::kOk);
    ++fit;
  }
  --fit;  // the last insert triggered the split

  // Fill a fresh table's segment 0 to that point, then split it.
  test::TempPoolFile file("dash_lh_budget");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashLH<> table(pool.get(), &epochs, opts_);
  uint64_t moving = 0;
  for (size_t i = 0; i < fit; ++i) {
    ASSERT_EQ(table.Insert(keys[i], 1), OpStatus::kOk);
    moving += (IntKeyPolicy::Hash(keys[i]) >> 34) & 1;
  }
  ASSERT_EQ(table.next_pointer(), 0u);
  ASSERT_GT(moving, 50u) << "the split must move records to be measured";
  pmem::ResetPmStats();
  table.ExpandForTest();
  const uint64_t clwb = pmem::AggregatePmStats().clwb;
  ASSERT_EQ(table.next_pointer(), 1u);
  EXPECT_EQ(table.Size(), fit);

  const uint64_t segment_lines =
      Segment::AllocSize(opts_.buckets_per_segment, opts_.stash_buckets) /
      pmem::kCachelineSize;
  const uint64_t source_buckets =
      opts_.buckets_per_segment + opts_.stash_buckets;
  constexpr uint64_t kFixedLines = 32;
  EXPECT_LE(clwb, segment_lines + source_buckets + kFixedLines)
      << moving << " records moved";
  table.CloseClean();
  pool->CloseClean();
}

// A split puts each moved record in its target bucket of the buddy
// while that bucket has room, so most positive searches read one bucket's
// metadata line and then the record (test::kMaxReadsPerPositiveSearch).
TEST_F(DashLhTest, PositiveSearchesAfterSplitsReadMostlyOneBucket) {
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 40000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk) << "key " << k;
    keys.push_back(k);
  }
  ASSERT_GT(table_->Stats().segments, 100u) << "the table must have split";
  const double reads = test::ReadsPerPositiveSearch(*table_, keys);
  ASSERT_GE(reads, 0) << "a key was lost";
  EXPECT_LE(reads, test::kMaxReadsPerPositiveSearch);
}

// After a crash, a segment no operation has touched yet still carries the
// lock words its last persisted metadata lines held. An expansion must
// recover the segment at Next before it locks it.
TEST_F(DashLhTest, ExpansionRecoversAnUntouchedSegmentAfterCrash) {
  ASSERT_TRUE(pmem::TornWriteArm());
  for (uint64_t k = 1; k <= 3000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  pmem::TornWriteRevert();
  epochs_.DiscardAll();
  table_.reset();
  pool_->CloseDirty();
  pool_.reset();
  pool_ = pmem::PmPool::Open(file_->path());
  ASSERT_NE(pool_, nullptr);
  table_ = std::make_unique<DashLH<>>(pool_.get(), &epochs_, opts_);

  // Without the recovery the expansion spins forever; end the test
  // binary instead.
  alarm(60);
  table_->ExpandForTest();
  alarm(0);
  uint64_t value = 0;
  for (uint64_t k = 1; k <= 3000; ++k) {
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k);
  }
  EXPECT_EQ(table_->Size(), 3000u);
}

TEST_F(DashLhTest, FullRoundOfExpansions) {
  for (uint64_t k = 1; k <= 2000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  // Drive expansions until the round rolls over (preloading may already
  // have advanced Next partway through the current round).
  const uint32_t n_before = table_->rounds();
  while (table_->rounds() == n_before) table_->ExpandForTest();
  EXPECT_EQ(table_->rounds(), n_before + 1);
  EXPECT_EQ(table_->next_pointer(), 0u);
  for (uint64_t k = 1; k <= 2000; ++k) {
    uint64_t value;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
  }
}

TEST_F(DashLhTest, DeleteAcrossExpandedTable) {
  for (uint64_t k = 1; k <= 20000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  for (uint64_t k = 1; k <= 20000; k += 2) {
    ASSERT_EQ(table_->Delete(k), OpStatus::kOk) << "key " << k;
  }
  uint64_t value;
  for (uint64_t k = 1; k <= 20000; ++k) {
    const OpStatus expected =
        (k % 2 == 0) ? OpStatus::kOk : OpStatus::kNotFound;
    ASSERT_EQ(table_->Search(k, &value), expected) << "key " << k;
  }
  EXPECT_EQ(table_->Size(), 10000u);
}

TEST_F(DashLhTest, PersistsAcrossCleanRestart) {
  constexpr uint64_t kKeys = 15000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Insert(k, k * 13), OpStatus::kOk);
  }
  table_->CloseClean();
  table_.reset();
  pool_->CloseClean();
  pool_.reset();

  pool_ = pmem::PmPool::Open(file_->path());
  ASSERT_NE(pool_, nullptr);
  table_ = std::make_unique<DashLH<>>(pool_.get(), &epochs_, opts_);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    uint64_t value = 0;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k * 13);
  }
}

TEST_F(DashLhTest, HybridDirectoryStaysTiny) {
  // §5.2: even after many expansions the directory is a handful of
  // entries. 40k keys with 16-bucket segments ≈ hundreds of segments.
  for (uint64_t k = 1; k <= 40000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  const DashTableStats stats = table_->Stats();
  EXPECT_GT(stats.segments, 32u);
  // Directory entries used: segments live in geometrically growing arrays;
  // count entries needed for the segment count.
  uint64_t entries = 0, covered = 0;
  while (covered < stats.segments) {
    covered += opts_.lh_base_segments << (entries / opts_.lh_stride);
    ++entries;
  }
  EXPECT_LE(entries, DashLhRoot::kMaxDirEntries / 2);
}

TEST_F(DashLhTest, LoadFactorStaysReasonable) {
  for (uint64_t k = 1; k <= 30000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  EXPECT_GT(table_->LoadFactor(), 0.4);
}

}  // namespace
}  // namespace dash
