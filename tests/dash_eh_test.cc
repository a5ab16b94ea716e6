// Dash-EH table tests: directory growth, splits, doubling, persistence
// across clean restarts, and statistics.

#include "dash/dash_eh.h"

#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace dash {
namespace {

class DashEhTest : public ::testing::Test {
 protected:
  void SetUp() override {
    file_ = std::make_unique<test::TempPoolFile>("dash_eh");
    pool_ = test::CreatePool(*file_);
    ASSERT_NE(pool_, nullptr);
    // Small segments grow the directory quickly in tests.
    opts_.buckets_per_segment = 16;
    opts_.stash_buckets = 2;
    opts_.initial_depth = 1;
    table_ = std::make_unique<DashEH<>>(pool_.get(), &epochs_, opts_);
  }

  std::unique_ptr<test::TempPoolFile> file_;
  std::unique_ptr<pmem::PmPool> pool_;
  epoch::EpochManager epochs_;
  DashOptions opts_;
  std::unique_ptr<DashEH<>> table_;
};

TEST_F(DashEhTest, BasicRoundTrip) {
  EXPECT_EQ(table_->Insert(1, 100), OpStatus::kOk);
  uint64_t value = 0;
  EXPECT_EQ(table_->Search(1, &value), OpStatus::kOk);
  EXPECT_EQ(value, 100u);
  EXPECT_EQ(table_->Delete(1), OpStatus::kOk);
  EXPECT_EQ(table_->Search(1, &value), OpStatus::kNotFound);
}

TEST_F(DashEhTest, DuplicateInsertRejected) {
  EXPECT_EQ(table_->Insert(9, 1), OpStatus::kOk);
  EXPECT_EQ(table_->Insert(9, 2), OpStatus::kExists);
}

TEST_F(DashEhTest, UpdateReplacesPayloadInPlace) {
  EXPECT_EQ(table_->Update(5, 1), OpStatus::kNotFound);
  ASSERT_EQ(table_->Insert(5, 1), OpStatus::kOk);
  EXPECT_EQ(table_->Update(5, 99), OpStatus::kOk);
  uint64_t value = 0;
  ASSERT_EQ(table_->Search(5, &value), OpStatus::kOk);
  EXPECT_EQ(value, 99u);
  EXPECT_EQ(table_->Size(), 1u) << "update must not add a record";
}

TEST_F(DashEhTest, UpdateFindsStashResidents) {
  // Fill far enough that some keys live in stash buckets; update them all.
  for (uint64_t k = 1; k <= 20000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  for (uint64_t k = 1; k <= 20000; ++k) {
    ASSERT_EQ(table_->Update(k, k + 7), OpStatus::kOk) << "key " << k;
  }
  uint64_t value;
  for (uint64_t k = 1; k <= 20000; ++k) {
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk);
    ASSERT_EQ(value, k + 7);
  }
}

TEST_F(DashEhTest, GrowsThroughManySplits) {
  constexpr uint64_t kKeys = 50000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Insert(k, k * 2 + 1), OpStatus::kOk) << "key " << k;
  }
  EXPECT_GT(table_->global_depth(), opts_.initial_depth)
      << "directory must have doubled";
  const DashTableStats stats = table_->Stats();
  EXPECT_EQ(stats.records, kKeys);
  EXPECT_GT(stats.segments, 4u);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    uint64_t value = 0;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k * 2 + 1);
  }
  // Negative lookups after heavy growth.
  for (uint64_t k = kKeys + 1; k <= kKeys + 1000; ++k) {
    uint64_t value;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kNotFound);
  }
}

TEST_F(DashEhTest, LoadFactorStaysHighWhileGrowing) {
  for (uint64_t k = 1; k <= 30000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  // Splits halve individual segments, but the aggregate load factor of a
  // Dash table stays well above CCEH's 35-43% band (Fig. 12).
  EXPECT_GT(table_->LoadFactor(), 0.45);
}

TEST_F(DashEhTest, DeleteEverythingThenReinsert) {
  constexpr uint64_t kKeys = 5000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Delete(k), OpStatus::kOk) << "key " << k;
  }
  EXPECT_EQ(table_->Size(), 0u);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Insert(k, k + 1), OpStatus::kOk);
    uint64_t value;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk);
    ASSERT_EQ(value, k + 1);
  }
}

TEST_F(DashEhTest, MixedInterleavedOperations) {
  uint64_t value;
  for (uint64_t k = 1; k <= 20000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
    if (k % 3 == 0) {
      ASSERT_EQ(table_->Delete(k / 3), table_->Search(k / 3, &value) == OpStatus::kOk
                                           ? OpStatus::kOk
                                           : OpStatus::kNotFound);
    }
  }
  // Sanity: every surviving key maps to its value.
  const DashTableStats stats = table_->Stats();
  uint64_t found = 0;
  for (uint64_t k = 1; k <= 20000; ++k) {
    if (table_->Search(k, &value) == OpStatus::kOk) {
      ASSERT_EQ(value, k);
      ++found;
    }
  }
  EXPECT_EQ(found, stats.records);
}

TEST_F(DashEhTest, PersistsAcrossCleanRestart) {
  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table_->Insert(k, k * 7), OpStatus::kOk);
  }
  table_->CloseClean();
  table_.reset();
  pool_->CloseClean();
  pool_.reset();

  pool_ = pmem::PmPool::Open(file_->path());
  ASSERT_NE(pool_, nullptr);
  EXPECT_FALSE(pool_->recovered_from_crash());
  table_ = std::make_unique<DashEH<>>(pool_.get(), &epochs_, opts_);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    uint64_t value = 0;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k * 7);
  }
  EXPECT_EQ(table_->Size(), kKeys);
}

TEST_F(DashEhTest, SplitForTestSplitsSegment) {
  const uint64_t segments_before = table_->Stats().segments;
  ASSERT_TRUE(table_->SplitForTest(IntKeyPolicy::Hash(42)));
  EXPECT_EQ(table_->Stats().segments, segments_before + 1);
  // Table still behaves.
  EXPECT_EQ(table_->Insert(42, 1), OpStatus::kOk);
  uint64_t value;
  EXPECT_EQ(table_->Search(42, &value), OpStatus::kOk);
}

// A split moves its records without a flush per record: it flushes each
// line of the new segment at most once (the one persist of the filled
// segment; the allocator does not zero a split destination), each source
// bucket once (its moved slots cleared with one store), plus a few lines
// of state marks, allocator bookkeeping, directory doubling and commit.
TEST_F(DashEhTest, SplitOfFullSegmentStaysWithinFlushBudget) {
  // Keys whose top hash bit is 0 all land in the first of the two
  // segments. Count how many fit before an insert has to split it.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; keys.size() < 2000; ++k) {
    if ((IntKeyPolicy::Hash(k) >> 63) == 0) keys.push_back(k);
  }
  size_t fit = 0;
  const uint64_t segments = table_->Stats().segments;
  while (table_->Stats().segments == segments) {
    ASSERT_LT(fit, keys.size());
    ASSERT_EQ(table_->Insert(keys[fit], 1), OpStatus::kOk);
    ++fit;
  }
  --fit;  // the last insert needed the split

  // Fill a fresh table's segment to that point, then split it.
  test::TempPoolFile file("dash_eh_budget");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashEH<> table(pool.get(), &epochs, opts_);
  uint64_t moving = 0;
  for (size_t i = 0; i < fit; ++i) {
    ASSERT_EQ(table.Insert(keys[i], 1), OpStatus::kOk);
    moving += (IntKeyPolicy::Hash(keys[i]) >> 62) & 1;
  }
  ASSERT_GT(moving, 50u) << "the split must move records to be measured";
  pmem::ResetPmStats();
  ASSERT_TRUE(table.SplitForTest(IntKeyPolicy::Hash(keys[0])));
  const uint64_t clwb = pmem::AggregatePmStats().clwb;
  ASSERT_EQ(table.Stats().segments, 3u);
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

// A split puts each moved record in its target bucket of the new segment
// while that bucket has room, so most positive searches read one bucket's
// metadata line and then the record (test::kMaxReadsPerPositiveSearch).
TEST_F(DashEhTest, PositiveSearchesAfterSplitsReadMostlyOneBucket) {
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

TEST_F(DashEhTest, SplitPreservesAllRecords) {
  // Fill one segment's worth, split repeatedly, verify no record is lost.
  std::set<uint64_t> keys;
  for (uint64_t k = 1; k <= 2000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
    keys.insert(k);
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(table_->SplitForTest(IntKeyPolicy::Hash(i * 1000 + 1)));
  }
  for (uint64_t k : keys) {
    uint64_t value = 0;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k);
  }
  EXPECT_EQ(table_->Size(), keys.size());
}

TEST_F(DashEhTest, StatsCapacityConsistent) {
  for (uint64_t k = 1; k <= 10000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  const DashTableStats stats = table_->Stats();
  EXPECT_EQ(stats.records, 10000u);
  EXPECT_GE(stats.capacity_slots, stats.records);
  EXPECT_NEAR(stats.load_factor,
              static_cast<double>(stats.records) / stats.capacity_slots,
              1e-9);
  EXPECT_EQ(stats.segments * ((opts_.buckets_per_segment +
                               opts_.stash_buckets) *
                              Bucket::kNumSlots),
            stats.capacity_slots);
}

TEST_F(DashEhTest, RwLockModeWorks) {
  opts_.concurrency = ConcurrencyMode::kRwLock;
  table_ = std::make_unique<DashEH<>>(pool_.get(), &epochs_, opts_);
  for (uint64_t k = 100000; k < 101000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  for (uint64_t k = 100000; k < 101000; ++k) {
    uint64_t value;
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk);
  }
}

TEST_F(DashEhTest, FingerprintsOffStillCorrect) {
  opts_.use_fingerprints = false;
  table_ = std::make_unique<DashEH<>>(pool_.get(), &epochs_, opts_);
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  uint64_t value;
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_EQ(table_->Search(k, &value), OpStatus::kOk);
  }
  ASSERT_EQ(table_->Search(999999, &value), OpStatus::kNotFound);
}

TEST_F(DashEhTest, FingerprintsReducePmReads) {
  for (uint64_t k = 1; k <= 20000; ++k) {
    ASSERT_EQ(table_->Insert(k, k), OpStatus::kOk);
  }
  uint64_t value;
  pmem::ResetPmStats();
  for (uint64_t k = 1000000; k < 1002000; ++k) {
    table_->Search(k, &value);  // negative searches
  }
  const uint64_t with_fp = pmem::AggregatePmStats().read_probes;

  table_->mutable_options().use_fingerprints = false;
  pmem::ResetPmStats();
  for (uint64_t k = 1000000; k < 1002000; ++k) {
    table_->Search(k, &value);
  }
  const uint64_t without_fp = pmem::AggregatePmStats().read_probes;
  table_->mutable_options().use_fingerprints = true;

  EXPECT_LT(with_fp, without_fp / 2)
      << "fingerprints must avoid most record probes on negative search "
         "(paper Fig. 9)";
}

}  // namespace
}  // namespace dash
