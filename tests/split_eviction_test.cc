// Split crash sweep under eviction subsets, for Dash-EH and Dash-LH.
//
// A write-back cache may evict a dirty line to PM at any moment, so a power
// failure leaves the last flushed-and-fenced contents of every line plus an
// arbitrary subset of the lines written since. Reverting every unflushed
// line (crash_sweep_test) is only one of those images: a split destination
// filled without flushes looks empty there, whatever its recovery does.
//
// For every split crash point a deterministic insert workload reaches
// (Dash-LH's buddy creation and expansion points included), crash at
// several hits, keep each unflushed line with probability 0.5
// (three seeds), reopen, and check:
//   * the structure verifies;
//   * every committed key is present with its value, the in-flight key is
//     present with its value or absent;
//   * Stats().records equals that count exactly, so the roll-forward
//     neither duplicated nor resurrected a record;
//   * after updating and then deleting every present key, none is found
//     and the table is empty: no stale copy comes back.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dash/dash_eh.h"
#include "dash/dash_lh.h"
#include "epoch/epoch_manager.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/pool.h"
#include "test_util.h"

namespace dash {
namespace {

// Small segments so a few thousand inserts split many times; the same
// options for the trace and every crash run.
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
constexpr size_t kPoolSize = 16ull << 20;
constexpr double kKeepProbability = 0.5;
constexpr uint64_t kSeeds[] = {1, 2, 3};
// Crash at these hits of each point; the workload reaches each point well
// over 47 times.
constexpr uint64_t kSkips[] = {0, 1, 3, 7, 15, 31, 47};

uint64_t ValueOf(uint64_t key) { return key * 31 + 7; }

template <typename Table>
std::vector<std::string> DiscoverSplitPoints() {
  test::TempPoolFile file("evict_trace");
  auto pool = test::CreatePool(file, kPoolSize);
  EXPECT_NE(pool, nullptr);
  if (pool == nullptr) return {};
  epoch::EpochManager epochs;
  Table table(pool.get(), &epochs, SmallTableOptions());
  pmem::CrashPointTraceStart();
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    EXPECT_EQ(table.Insert(k, ValueOf(k)), OpStatus::kOk) << "key " << k;
  }
  // The split's own points, plus Dash-LH's buddy creation and Next advance
  // that precede its split.
  std::vector<std::string> split_points;
  for (const std::string& point : pmem::CrashPointTraceStop()) {
    for (const char* part : {"split", "expand", "buddy"}) {
      if (point.find(part) != std::string::npos) {
        split_points.push_back(point);
        break;
      }
    }
  }
  table.CloseClean();
  pool->CloseClean();
  return split_points;
}

template <typename Table>
void RunEvictionCase(const std::string& point, uint64_t skip, uint64_t seed) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file("evict");
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto table =
      std::make_unique<Table>(pool.get(), &epochs, SmallTableOptions());

  ASSERT_TRUE(pmem::TornWriteArm());
  ASSERT_TRUE(pmem::CrashPointArm(point, skip));
  uint64_t crashed_at = 0;
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    try {
      ASSERT_EQ(table->Insert(k, ValueOf(k)), OpStatus::kOk) << "key " << k;
    } catch (const pmem::CrashInjected&) {
      crashed_at = k;
      break;
    }
  }
  pmem::CrashPointDisarm();
  ASSERT_NE(crashed_at, 0u) << "hit " << skip << " never reached";

  pmem::TornWriteRevert(kKeepProbability, seed);
  epochs.DiscardAll();
  table.reset();
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  ASSERT_TRUE(pool->recovered_from_crash());
  epoch::EpochManager epochs2;
  table = std::make_unique<Table>(pool.get(), &epochs2, SmallTableOptions());
  ASSERT_TRUE(table->VerifyStructure());

  uint64_t value = 0;
  for (uint64_t k = 1; k < crashed_at; ++k) {
    ASSERT_EQ(table->Search(k, &value), OpStatus::kOk)
        << "committed key " << k << " lost";
    ASSERT_EQ(value, ValueOf(k)) << "key " << k << " corrupt";
  }
  const OpStatus in_flight = table->Search(crashed_at, &value);
  ASSERT_TRUE(in_flight == OpStatus::kOk || in_flight == OpStatus::kNotFound);
  if (in_flight == OpStatus::kOk) {
    ASSERT_EQ(value, ValueOf(crashed_at));
  }
  // The searches recovered every segment, so the check is now strict.
  ASSERT_TRUE(table->VerifyStructure());
  const uint64_t present = in_flight == OpStatus::kOk ? crashed_at
                                                      : crashed_at - 1;
  ASSERT_EQ(table->Stats().records, present)
      << "records other than the committed keys survived";

  for (uint64_t k = 1; k <= present; ++k) {
    ASSERT_EQ(table->Update(k, ValueOf(k) + 1), OpStatus::kOk) << "key " << k;
  }
  for (uint64_t k = 1; k <= present; ++k) {
    ASSERT_EQ(table->Search(k, &value), OpStatus::kOk);
    ASSERT_EQ(value, ValueOf(k) + 1) << "stale copy of key " << k;
    ASSERT_EQ(table->Delete(k), OpStatus::kOk) << "key " << k;
  }
  for (uint64_t k = 1; k <= present; ++k) {
    ASSERT_EQ(table->Search(k, &value), OpStatus::kNotFound)
        << "deleted key " << k << " came back";
  }
  ASSERT_EQ(table->Stats().records, 0u);
  table->CloseClean();
  pool->CloseClean();
}

template <typename Table>
void SweepSplitPoints(const char* kind) {
  const std::vector<std::string> points = DiscoverSplitPoints<Table>();
  ASSERT_FALSE(points.empty()) << "no split crash points traced for " << kind;
  for (const char* required :
       {"split_after_fill", "split_after_child_persist",
        "split_after_mark_filled"}) {
    EXPECT_NE(std::find(points.begin(), points.end(), required), points.end())
        << kind << " never reached " << required;
  }
  for (const std::string& point : points) {
    for (uint64_t skip : kSkips) {
      for (uint64_t seed : kSeeds) {
        SCOPED_TRACE(std::string(kind) + " @ " + point + " hit " +
                     std::to_string(skip) + " seed " + std::to_string(seed));
        RunEvictionCase<Table>(point, skip, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// A split destination is reserved without zeroing, so it may be a block
// whose last owner left records in it. Merge a Dash-EH buddy pair, write
// the retired right sibling's pre-merge image (its records still
// allocated) back into the freed block, then insert until a split takes
// that block as its child: once without a crash, and once crashing at
// split_after_fill with each unflushed line kept with probability p. The
// table must hold exactly the inserted keys either way.
void RunRecycledSplitCase(bool crash, uint64_t seed) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file("evict_recycled");
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  const DashOptions opts = SmallTableOptions();
  auto table = std::make_unique<DashEH<>>(pool.get(), &epochs, opts);

  // Grow to many segments, then thin the table so a buddy pair merges.
  constexpr uint64_t kGrowKeys = 2000;
  constexpr uint64_t kKeptKeys = 100;
  for (uint64_t k = 1; k <= kGrowKeys; ++k) {
    ASSERT_EQ(table->Insert(k, ValueOf(k)), OpStatus::kOk) << "key " << k;
  }
  for (uint64_t k = kKeptKeys + 1; k <= kGrowKeys; ++k) {
    ASSERT_EQ(table->Delete(k), OpStatus::kOk) << "key " << k;
  }
  const size_t segment_bytes =
      Segment::AllocSize(opts.buckets_per_segment, opts.stash_buckets);
  std::map<Segment*, std::vector<char>> images;
  table->ForEachSegment([&](Segment* seg) {
    const char* bytes = reinterpret_cast<const char*>(seg);
    images[seg].assign(bytes, bytes + segment_bytes);
  });
  bool merged = false;
  for (uint64_t probe = 0; probe < 64 && !merged; ++probe) {
    merged = table->MergeForTest(util::HashInt64(probe * 977 + 1));
  }
  ASSERT_TRUE(merged);
  auto in_directory = [&](const Segment* target) {
    bool found = false;
    table->ForEachSegment([&](Segment* seg) { found |= seg == target; });
    return found;
  };
  Segment* recycled = nullptr;
  for (const auto& [seg, image] : images) {
    if (!in_directory(seg)) recycled = seg;
  }
  ASSERT_NE(recycled, nullptr);
  epochs.DrainAll();  // the retired sibling goes back to the allocator
  std::memcpy(static_cast<void*>(recycled), images[recycled].data(),
              segment_bytes);
  pmem::Persist(recycled, segment_bytes);
  ASSERT_GT(recycled->RecordCount(), 0u) << "the freed block holds no record";
  const uint64_t recycled_off = pool->ToOffset(recycled);

  if (crash) {
    ASSERT_TRUE(pmem::TornWriteArm());
    ASSERT_TRUE(pmem::CrashPointArm("split_after_fill", 0));
  }
  uint64_t crashed_at = 0;
  uint64_t last = kGrowKeys;
  while (crashed_at == 0 && !in_directory(recycled)) {
    ++last;
    ASSERT_LE(last, 4 * kGrowKeys) << "no split reused the freed block";
    try {
      ASSERT_EQ(table->Insert(last, ValueOf(last)), OpStatus::kOk)
          << "key " << last;
    } catch (const pmem::CrashInjected&) {
      crashed_at = last;
    }
  }
  pmem::CrashPointDisarm();
  ASSERT_EQ(crashed_at != 0, crash);

  if (crash) {
    pmem::TornWriteRevert(kKeepProbability, seed);
    epochs.DiscardAll();
    table.reset();
    pool->CloseDirty();
    pool.reset();
    pool = pmem::PmPool::Open(file.path());
    ASSERT_NE(pool, nullptr);
    ASSERT_TRUE(pool->recovered_from_crash());
  }
  epoch::EpochManager epochs2;
  if (crash) {
    table = std::make_unique<DashEH<>>(pool.get(), &epochs2, opts);
    ASSERT_TRUE(table->VerifyStructure());
  }

  uint64_t expected = 0;
  uint64_t value = 0;
  auto check_committed = [&](uint64_t k) {
    ASSERT_EQ(table->Search(k, &value), OpStatus::kOk)
        << "committed key " << k << " lost";
    ASSERT_EQ(value, ValueOf(k)) << "key " << k << " corrupt";
    ++expected;
  };
  for (uint64_t k = 1; k <= kKeptKeys; ++k) check_committed(k);
  const uint64_t committed_end = crash ? crashed_at : last + 1;
  for (uint64_t k = kGrowKeys + 1; k < committed_end; ++k) check_committed(k);
  if (crash) {
    const OpStatus in_flight = table->Search(crashed_at, &value);
    ASSERT_TRUE(in_flight == OpStatus::kOk || in_flight == OpStatus::kNotFound);
    if (in_flight == OpStatus::kOk) {
      ASSERT_EQ(value, ValueOf(crashed_at));
      ++expected;
    }
  }
  // The searches rolled an interrupted split forward into the block.
  ASSERT_TRUE(in_directory(pool->FromOffset<Segment>(recycled_off)));
  ASSERT_TRUE(table->VerifyStructure());
  ASSERT_EQ(table->Stats().records, expected)
      << "stale records of the recycled block became visible";
  table->CloseClean();
  pool->CloseClean();
}

// Recovery refills an interrupted split's new segment through the split's
// own placement, so the records it moves land in their target buckets
// too. Crash at split_after_fill once the table has grown, keep each
// unflushed line with probability p, reopen, and search every committed
// key: the keys of the refilled segment must cost no more PM reads per
// search than a table grown without a crash allows.
void RunRefillPlacementCase(uint64_t seed) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file("evict_refill");
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto table =
      std::make_unique<DashEH<>>(pool.get(), &epochs, SmallTableOptions());

  ASSERT_TRUE(pmem::TornWriteArm());
  ASSERT_TRUE(pmem::CrashPointArm("split_after_fill", 47));
  uint64_t crashed_at = 0;
  for (uint64_t k = 1; k <= kWorkloadKeys && crashed_at == 0; ++k) {
    try {
      ASSERT_EQ(table->Insert(k, ValueOf(k)), OpStatus::kOk) << "key " << k;
    } catch (const pmem::CrashInjected&) {
      crashed_at = k;
    }
  }
  pmem::CrashPointDisarm();
  ASSERT_NE(crashed_at, 0u);
  pmem::TornWriteRevert(kKeepProbability, seed);
  epochs.DiscardAll();
  table.reset();
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs2;
  table = std::make_unique<DashEH<>>(pool.get(), &epochs2, SmallTableOptions());
  // The interrupted split: its source is still SPLITTING and its new
  // segment NEW, because recovery is lazy.
  Segment* child = nullptr;
  table->ForEachSegment([&](Segment* seg) {
    if (seg->state() == Segment::kSplitting) child = seg->side_link();
  });
  ASSERT_NE(child, nullptr);
  ASSERT_EQ(child->state(), Segment::kNew) << "the fill was not durable yet";
  // The check after open reads the table and recovers nothing, so a
  // crash reopen stays constant work.
  ASSERT_TRUE(table->VerifyStructure());
  EXPECT_EQ(child->state(), Segment::kNew) << "the verify recovered the split";
  const uint32_t shift = 64 - child->local_depth();
  const uint64_t pattern = child->pattern();
  std::vector<uint64_t> refilled;
  for (uint64_t k = 1; k < crashed_at; ++k) {
    if ((IntKeyPolicy::Hash(k) >> shift) == pattern) refilled.push_back(k);
  }
  ASSERT_GT(refilled.size(), 50u) << "the split must move records";

  uint64_t value = 0;
  for (uint64_t k = 1; k < crashed_at; ++k) {
    ASSERT_EQ(table->Search(k, &value), OpStatus::kOk)
        << "committed key " << k << " lost";
    ASSERT_EQ(value, ValueOf(k)) << "key " << k << " corrupt";
  }
  ASSERT_TRUE(table->VerifyStructure());
  ASSERT_EQ(child->state(), Segment::kClean);
  const double reads = test::ReadsPerPositiveSearch(*table, refilled);
  ASSERT_GE(reads, 0);
  EXPECT_LE(reads, test::kMaxReadsPerPositiveSearch)
      << refilled.size() << " records refilled";
  table->CloseClean();
  pool->CloseClean();
}

TEST(SplitEvictionTest, RefilledSplitDestinationKeepsTargetPlacement) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunRefillPlacementCase(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SplitEvictionTest, SplitIntoRecycledBlockHoldsExactRecords) {
  RunRecycledSplitCase(/*crash=*/false, /*seed=*/0);
}

TEST(SplitEvictionTest, SplitIntoRecycledBlockRecoversExactlyAfterEviction) {
  for (uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunRecycledSplitCase(/*crash=*/true, seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(SplitEvictionTest, DashEhSplitPointsRecoverExactly) {
  SweepSplitPoints<DashEH<>>("dash-eh");
}

TEST(SplitEvictionTest, DashLhSplitPointsRecoverExactly) {
  SweepSplitPoints<DashLH<>>("dash-lh");
}

}  // namespace
}  // namespace dash
