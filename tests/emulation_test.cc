// PM emulation layer tests: latency injection wiring and counter
// semantics under table operations and concurrent writers.

#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dash/dash_eh.h"
#include "pmem/persist.h"
#include "pmem/stats.h"
#include "test_util.h"

namespace dash::pmem {
namespace {

TEST(EmulationTest, FlushLatencyInjectionSlowsPersist) {
  auto& config = GetEmulationConfig();
  using Clock = std::chrono::steady_clock;
  alignas(64) static char line[64];

  constexpr int kIters = 2000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kIters; ++i) Persist(line, 64);
  const auto base = Clock::now() - t0;

  config.flush_latency_ns.store(5000, std::memory_order_relaxed);
  const auto t1 = Clock::now();
  for (int i = 0; i < kIters; ++i) Persist(line, 64);
  const auto slowed = Clock::now() - t1;
  config.flush_latency_ns.store(0, std::memory_order_relaxed);

  // 2000 x 5 us >= 10 ms of injected latency; allow generous slack.
  EXPECT_GT(std::chrono::duration_cast<std::chrono::milliseconds>(slowed)
                .count(),
            std::chrono::duration_cast<std::chrono::milliseconds>(base)
                    .count() +
                5);
}

TEST(EmulationTest, TableWorksWithLatencyInjection) {
  auto& config = GetEmulationConfig();
  config.flush_latency_ns.store(50, std::memory_order_relaxed);
  config.read_latency_ns.store(100, std::memory_order_relaxed);

  test::TempPoolFile file("emulation");
  auto pool = test::CreatePool(file, 64ull << 20);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  opts.buckets_per_segment = 16;
  DashEH<> table(pool.get(), &epochs, opts);
  for (uint64_t k = 1; k <= 2000; ++k) {
    ASSERT_EQ(table.Insert(k, k), OpStatus::kOk);
  }
  uint64_t value;
  for (uint64_t k = 1; k <= 2000; ++k) {
    ASSERT_EQ(table.Search(k, &value), OpStatus::kOk);
  }
  config.flush_latency_ns.store(0, std::memory_order_relaxed);
  config.read_latency_ns.store(0, std::memory_order_relaxed);
  table.CloseClean();
  pool->CloseClean();
}

TEST(EmulationTest, InsertFlushCountMatchesProtocol) {
  test::TempPoolFile file("emu_counts");
  auto pool = test::CreatePool(file, 64ull << 20);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  DashEH<> table(pool.get(), &epochs, opts);
  // Warm up (allocations, first splits).
  for (uint64_t k = 1; k <= 1000; ++k) table.Insert(k, k);

  ResetPmStats();
  for (uint64_t k = 1001; k <= 2000; ++k) table.Insert(k, k);
  const PmStats stats = AggregatePmStats();
  // Algorithm 2: record persist (1 line) + metadata persist (1 line) per
  // insert, plus occasional split/stash overhead.
  const double clwb_per_insert = static_cast<double>(stats.clwb) / 1000.0;
  EXPECT_GE(clwb_per_insert, 2.0);
  EXPECT_LE(clwb_per_insert, 6.0);

  ResetPmStats();
  uint64_t value;
  for (uint64_t k = 1; k <= 1000; ++k) table.Search(k, &value);
  EXPECT_EQ(AggregatePmStats().clwb, 0u)
      << "optimistic searches must never flush";
  table.CloseClean();
  pool->CloseClean();
}

// The per-op counters are single-writer: each thread bumps only its own
// PM counter block and its own shard of a table's bucket-lock telemetry,
// with a relaxed load and store instead of a locked read-modify-write.
// Four threads bumping concurrently must still add up exactly once they
// have joined.
TEST(EmulationTest, PerThreadCountersAreExactAfterJoin) {
  constexpr uint64_t kThreads = 4;
  constexpr uint64_t kOps = 20000;
  auto run_threads = [&](auto body) {
    std::vector<std::thread> threads;
    for (uint64_t t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
    for (std::thread& th : threads) th.join();
  };

  ResetPmStats();
  run_threads([&](uint64_t) {
    alignas(64) char line[64] = {};
    for (uint64_t i = 0; i < kOps; ++i) {
      Clwb(line);
      Fence();
      ReadProbe(line);
    }
  });
  const PmStats stats = AggregatePmStats();
  EXPECT_EQ(stats.clwb, kThreads * kOps);
  EXPECT_EQ(stats.fence, kThreads * kOps);
  EXPECT_EQ(stats.read_probes, kThreads * kOps);

  // Table inserts: with 256 segments of 64 buckets for 40k keys no bucket
  // pair fills, so every insert locks exactly its target and probing
  // bucket once, and no split, displacement or stash insert adds more.
  constexpr uint64_t kInserts = 10000;
  test::TempPoolFile file("emu_threads");
  auto pool = test::CreatePool(file, 64ull << 20);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  opts.initial_depth = 8;
  DashEH<> table(pool.get(), &epochs, opts);
  const DashTableStats before = table.Stats();
  run_threads([&](uint64_t t) {
    for (uint64_t k = t * kInserts + 1; k <= (t + 1) * kInserts; ++k) {
      ASSERT_EQ(table.Insert(k, k), OpStatus::kOk);
    }
  });
  const DashTableStats after = table.Stats();
  ASSERT_EQ(after.segments, before.segments) << "a split ran";
  EXPECT_EQ(after.records, kThreads * kInserts);
  EXPECT_EQ(after.bucket_lock_acquisitions - before.bucket_lock_acquisitions,
            2 * kThreads * kInserts);
  table.CloseClean();
  pool->CloseClean();
}

}  // namespace
}  // namespace dash::pmem
