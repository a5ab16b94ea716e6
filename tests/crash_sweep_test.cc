// Crash-sweep harness over every table kind with torn-write simulation.
//
// Phase 1 (discover): run a deterministic insert workload under crash-point
// trace mode and collect the distinct CRASH_POINT markers it reaches —
// so a point added to any table or to the pmem layer is swept
// automatically, without this file enumerating names.
//
// Phase 2 (sweep): for every discovered point, replay the same workload on
// a fresh pool with torn-write tracking armed, crash at the point's first
// hit, revert every cacheline that was not flushed+fenced (the power-
// failure image), reopen, and assert the recovered table is
// model-consistent (every committed insert present with its value, the
// in-flight key present-or-absent but never corrupt), structurally sound
// (Verify(), after the reopen and again after every key was searched),
// and still operational.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "epoch/epoch_manager.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/pool.h"
#include "test_util.h"

namespace dash::api {
namespace {

// Small tables so splits, doublings, expansions, and resizes all happen
// within the first few thousand inserts; identical for trace and sweep so
// every traced point is guaranteed reachable in the sweep run.
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

uint64_t ValueOf(uint64_t key) { return key * 31 + 7; }

std::vector<std::string> DiscoverPoints(IndexKind kind) {
  test::TempPoolFile file(std::string("sweep_trace_") + IndexKindName(kind));
  auto pool = test::CreatePool(file, kPoolSize);
  EXPECT_NE(pool, nullptr);
  if (pool == nullptr) return {};
  epoch::EpochManager epochs;
  auto index = CreateKvIndex(kind, pool.get(), &epochs, SmallTableOptions());
  EXPECT_NE(index, nullptr);
  if (index == nullptr) return {};
  pmem::CrashPointTraceStart();
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    EXPECT_EQ(index->Insert(k, ValueOf(k)), Status::kOk) << "key " << k;
  }
  std::vector<std::string> points = pmem::CrashPointTraceStop();
  index->CloseClean();
  pool->CloseClean();
  return points;
}

void RunCrashCase(IndexKind kind, const std::string& point) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file(std::string("sweep_") + IndexKindName(kind));
  auto pool = test::CreatePool(file, kPoolSize);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index = CreateKvIndex(kind, pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  ASSERT_TRUE(pmem::TornWriteArm());
  ASSERT_TRUE(pmem::CrashPointArm(point));
  uint64_t crashed_at = 0;
  for (uint64_t k = 1; k <= kWorkloadKeys; ++k) {
    try {
      ASSERT_EQ(index->Insert(k, ValueOf(k)), Status::kOk) << "key " << k;
    } catch (const pmem::CrashInjected&) {
      crashed_at = k;
      break;
    }
  }
  pmem::CrashPointDisarm();
  // The trace run hit this point with the very same workload, so the
  // sweep run must crash.
  ASSERT_NE(crashed_at, 0u) << "point " << point << " never fired";

  // Power failure: unflushed cachelines are lost, volatile state is gone,
  // the mapping goes away without a clean-shutdown marker.
  pmem::TornWriteRevert();
  epochs.DiscardAll();
  index.reset();
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  ASSERT_TRUE(pool->recovered_from_crash());
  epoch::EpochManager epochs2;
  index = CreateKvIndex(kind, pool.get(), &epochs2, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  EXPECT_TRUE(index->Verify()) << "structural verify failed after " << point;

  // Model consistency: every insert that returned before the crash is
  // durable; the in-flight one may have landed or not, but never with a
  // wrong value.
  uint64_t value = 0;
  for (uint64_t k = 1; k < crashed_at; ++k) {
    ASSERT_EQ(index->Search(k, &value), Status::kOk)
        << "committed key " << k << " lost after " << point;
    ASSERT_EQ(value, ValueOf(k)) << "key " << k << " corrupt after " << point;
  }
  const Status in_flight = index->Search(crashed_at, &value);
  ASSERT_TRUE(in_flight == Status::kOk || in_flight == Status::kNotFound)
      << "in-flight key " << crashed_at << ": " << StatusName(in_flight);
  if (in_flight == Status::kOk) {
    ASSERT_EQ(value, ValueOf(crashed_at));
  }
  // Dash-EH's verify leaves recovery lazy and checks runs only on the
  // segments recovered so far; the searches above recovered them all.
  EXPECT_TRUE(index->Verify()) << "structural verify failed after " << point
                               << " and a search of every key";

  // Operational: the recovered table accepts and serves new traffic.
  for (uint64_t k = kWorkloadKeys + 1; k <= kWorkloadKeys + 1000; ++k) {
    ASSERT_EQ(index->Insert(k, ValueOf(k)), Status::kOk) << "key " << k;
  }
  for (uint64_t k = kWorkloadKeys + 1; k <= kWorkloadKeys + 1000; ++k) {
    ASSERT_EQ(index->Search(k, &value), Status::kOk);
    ASSERT_EQ(value, ValueOf(k));
  }
  index->CloseClean();
  pool->CloseClean();
}

class CrashSweepTest : public ::testing::TestWithParam<IndexKind> {};

TEST_P(CrashSweepTest, TornWriteSweepRecoversModelConsistentState) {
  const IndexKind kind = GetParam();
  const std::vector<std::string> points = DiscoverPoints(kind);
  ASSERT_FALSE(points.empty()) << "no crash points traced for "
                               << IndexKindName(kind);
  for (const std::string& point : points) {
    SCOPED_TRACE(std::string(IndexKindName(kind)) + " @ " + point);
    RunCrashCase(kind, point);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

std::string KindName(const ::testing::TestParamInfo<IndexKind>& info) {
  std::string name = IndexKindName(info.param);
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllKinds, CrashSweepTest,
                         ::testing::Values(IndexKind::kDashEH,
                                           IndexKind::kDashLH,
                                           IndexKind::kCCEH,
                                           IndexKind::kLevel,
                                           IndexKind::kHybrid),
                         KindName);

// Double-arming is an error (the second Arm must not silently replace the
// first), and trace mode excludes arming.
TEST(CrashPointContractTest, ArmIsExclusive) {
  ASSERT_TRUE(pmem::CrashPointArm("some_point"));
  EXPECT_FALSE(pmem::CrashPointArm("another_point"));
  pmem::CrashPointDisarm();
  pmem::CrashPointTraceStart();
  EXPECT_FALSE(pmem::CrashPointArm("some_point"));
  EXPECT_TRUE(pmem::CrashPointTraceStop().empty());
  ASSERT_TRUE(pmem::CrashPointArm("some_point"));
  pmem::CrashPointDisarm();
}

}  // namespace
}  // namespace dash::api
