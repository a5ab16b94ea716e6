// Online log-compaction tests (src/hybrid/): model equivalence under
// randomized update/delete/reinsert churn for both key widths, physical
// chain shrink after bulk deletes, searches and updates racing a lane
// rewrite (the TSan target), a torn-write crash sweep over every
// compaction crash point, checkpoint-then-compact-then-reopen
// equivalence, and the reopen path seeding honest dead ratios.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "epoch/epoch_manager.h"
#include "hybrid/hybrid_table.h"
#include "pmem/index_persist.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/pool.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash::hybrid {
namespace {

using api::IndexKind;
using api::Status;

HybridOptions CompactingOptions() {
  HybridOptions o;
  o.buckets_per_segment = 16;
  o.stash_slots = 16;
  o.initial_depth = 1;
  o.log_lanes = 4;
  o.records_per_chunk = 256;
  o.compaction_trigger = 0.2;
  return o;
}

struct TempCheckpoint {
  explicit TempCheckpoint(std::string p) : path(std::move(p)) {
    pmem::RemoveCheckpointFile(path);
  }
  ~TempCheckpoint() { pmem::RemoveCheckpointFile(path); }
  std::string path;
};

// Randomized churn with periodic compaction passes must stay equal to a
// std::map model: relocation is value-preserving and invisible.
TEST(CompactionTest, ModelEquivalenceUnderChurn) {
  test::TempPoolFile file("compact_model");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  HybridTable<> table(pool.get(), &epochs, CompactingOptions());

  std::map<uint64_t, uint64_t> model;
  util::Xoshiro256 rng(42);
  constexpr uint64_t kKeySpace = 4000;
  constexpr int kOps = 60000;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t k = 1 + rng.NextBounded(kKeySpace);
    switch (rng.NextBounded(4)) {
      case 0: {  // insert (or collide)
        const auto st = table.Insert(k, k + i);
        if (model.count(k)) {
          ASSERT_EQ(st, OpStatus::kExists);
        } else {
          ASSERT_EQ(st, OpStatus::kOk);
          model[k] = k + i;
        }
        break;
      }
      case 1: {  // update
        const auto st = table.Update(k, i);
        if (model.count(k)) {
          ASSERT_EQ(st, OpStatus::kOk);
          model[k] = i;
        } else {
          ASSERT_EQ(st, OpStatus::kNotFound);
        }
        break;
      }
      case 2: {  // delete
        const auto st = table.Delete(k);
        if (model.count(k)) {
          ASSERT_EQ(st, OpStatus::kOk);
          model.erase(k);
        } else {
          ASSERT_EQ(st, OpStatus::kNotFound);
        }
        break;
      }
      default: {  // search
        uint64_t value = 0;
        const auto st = table.Search(k, &value);
        if (model.count(k)) {
          ASSERT_EQ(st, OpStatus::kOk);
          ASSERT_EQ(value, model[k]);
        } else {
          ASSERT_EQ(st, OpStatus::kNotFound);
        }
        break;
      }
    }
    if (i % 2000 == 1999) {
      epochs.DrainAll();
      table.Compact();
    }
  }
  // Shrink the live set: steady churn recycles slots through the epoch
  // manager and keeps the dead ratio near zero (space is already
  // bounded), so the trigger-worthy state is a downsized table whose
  // chains are still sized for the old peak.
  std::vector<uint64_t> doomed;
  for (const auto& [k, v] : model) {
    if (k % 2 == 0) doomed.push_back(k);
  }
  for (uint64_t k : doomed) {
    ASSERT_EQ(table.Delete(k), OpStatus::kOk);
    model.erase(k);
  }
  epochs.DrainAll();
  while (table.Compact()) {
  }
  ASSERT_TRUE(table.VerifyStructure());

  const HybridStats stats = table.Stats();
  EXPECT_GT(stats.compactions, 0u);
  EXPECT_GT(stats.compaction_chunks_reclaimed, 0u);
  EXPECT_GT(stats.compaction_bytes_rewritten, 0u);
  EXPECT_EQ(stats.records, model.size());
  uint64_t value = 0;
  for (const auto& [k, v] : model) {
    ASSERT_EQ(table.Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, v) << "key " << k;
  }
  table.CloseClean();
  pool->CloseClean();
}

// Same churn through the var-key adapter: relocation deep-copies the key
// blob, so pointer-mode compaction must be just as invisible.
TEST(CompactionTest, ModelEquivalenceUnderChurnVarKeys) {
  test::TempPoolFile file("compact_model_var");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.compaction_trigger = 0.2;
  auto index =
      api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);

  auto key_of = [](uint64_t i) {
    // Mixed lengths, some past any inline threshold.
    std::string k = "compact_key_" + std::to_string(i);
    if (i % 3 == 0) k += std::string(i % 40, 'x');
    return k;
  };
  std::map<uint64_t, uint64_t> model;
  util::Xoshiro256 rng(7);
  constexpr uint64_t kKeySpace = 2000;
  constexpr int kOps = 30000;
  for (int i = 0; i < kOps; ++i) {
    const uint64_t n = 1 + rng.NextBounded(kKeySpace);
    const std::string k = key_of(n);
    switch (rng.NextBounded(3)) {
      case 0: {
        const auto st = index->Insert(k, n + i);
        if (model.count(n)) {
          ASSERT_EQ(st, Status::kExists);
        } else {
          ASSERT_EQ(st, Status::kOk);
          model[n] = n + i;
        }
        break;
      }
      case 1: {
        const auto st = index->Update(k, i);
        if (model.count(n)) {
          ASSERT_EQ(st, Status::kOk);
          model[n] = i;
        } else {
          ASSERT_EQ(st, Status::kNotFound);
        }
        break;
      }
      default: {
        const auto st = index->Delete(k);
        if (model.count(n)) {
          ASSERT_EQ(st, Status::kOk);
          model.erase(n);
        } else {
          ASSERT_EQ(st, Status::kNotFound);
        }
        break;
      }
    }
    if (i % 2000 == 1999) {
      epochs.DrainAll();
      index->Compact();
    }
  }
  epochs.DrainAll();
  while (index->Compact()) {
  }
  EXPECT_TRUE(index->Verify());
  uint64_t value = 0;
  for (uint64_t n = 1; n <= kKeySpace; ++n) {
    if (model.count(n)) {
      ASSERT_EQ(index->Search(key_of(n), &value), Status::kOk) << n;
      ASSERT_EQ(value, model[n]) << n;
    } else {
      ASSERT_EQ(index->Search(key_of(n), &value), Status::kNotFound) << n;
    }
  }
  index->CloseClean();
  pool->CloseClean();
}

// The point of compaction: after a bulk delete the lane chains must
// shrink *physically* (chunks returned to the pool), not just logically.
TEST(CompactionTest, ChainsShrinkAfterBulkDelete) {
  test::TempPoolFile file("compact_shrink");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  HybridTable<> table(pool.get(), &epochs, CompactingOptions());

  constexpr uint64_t kKeys = 20000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table.Insert(k, k), OpStatus::kOk);
  }
  for (uint64_t k = 1; k <= kKeys; ++k) {
    if (k % 10 != 0) ASSERT_EQ(table.Delete(k), OpStatus::kOk);
  }
  epochs.DrainAll();  // retirements run: slots recycle, dead counts rise

  const HybridStats before = table.Stats();
  EXPECT_GT(before.compaction_dead_ratio, 0.2);
  while (table.Compact()) {
  }
  const HybridStats after = table.Stats();
  EXPECT_GT(after.compaction_chunks_reclaimed, 0u);
  EXPECT_LT(after.log_chunks, before.log_chunks / 2)
      << "compaction failed to shrink the chains physically";
  ASSERT_TRUE(table.VerifyStructure());

  uint64_t value = 0;
  for (uint64_t k = 10; k <= kKeys; k += 10) {
    ASSERT_EQ(table.Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k);
  }
  EXPECT_EQ(table.Stats().records, kKeys / 10);
  table.CloseClean();
  pool->CloseClean();
}

// Searches and updates racing lane rewrites (run under TSan in CI).
// Readers chasing a stale handle revalidate exactly as for updates, so
// every search must observe some committed value its key once held.
TEST(CompactionTest, ConcurrentOpsDuringCompaction) {
  test::TempPoolFile file("compact_race");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  HybridTable<> table(pool.get(), &epochs, CompactingOptions());

  constexpr uint64_t kKeys = 8000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table.Insert(k, k), OpStatus::kOk);
  }
  // Shrink the live set to a quarter so the chains carry real dead
  // capacity and every Compact() pass below has victims to rewrite.
  for (uint64_t k = 1; k <= kKeys; ++k) {
    if (k % 4 != 0) ASSERT_EQ(table.Delete(k), OpStatus::kOk);
  }
  epochs.DrainAll();
  ASSERT_GT(table.Stats().compaction_dead_ratio, 0.2);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      util::Xoshiro256 rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const uint64_t k = 4 * (1 + rng.NextBounded(kKeys / 4));
        if (rng.NextBounded(4) == 0) {
          if (table.Update(k, k + (rng.NextBounded(1000))) != OpStatus::kOk) {
            failures.fetch_add(1);
          }
        } else {
          uint64_t value = 0;
          if (table.Search(k, &value) != OpStatus::kOk || value < k ||
              value >= k + 1000) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (int pass = 0; pass < 50; ++pass) {
    table.Compact();
    epochs.TryAdvanceAndReclaim();
  }
  stop.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0u);
  epochs.DrainAll();
  ASSERT_TRUE(table.VerifyStructure());
  EXPECT_GT(table.Stats().compactions, 0u);
  table.CloseClean();
  pool->CloseClean();
}

// Torn-write crash sweep over every compaction crash point: reserve
// (slot popped, nothing written), copy (payload persisted, meta not
// published), publish (slot swung, original not yet retired), retire
// (chunk unlinked + staged, not yet freed). Recovery must rebuild the
// exact pre-compaction logical state — compaction is invisible to
// crashes too.
TEST(CompactionCrashTest, CrashSweepAtEveryCompactionPoint) {
  for (const char* point :
       {"hybrid_compact_after_reserve", "hybrid_compact_after_copy",
        "hybrid_compact_after_publish", "hybrid_compact_after_retire"}) {
    SCOPED_TRACE(point);
    test::InjectionCleanup cleanup;
    test::TempPoolFile file("compact_crash");
    auto pool = test::CreatePool(file);
    ASSERT_NE(pool, nullptr);
    DashOptions opts;
    opts.buckets_per_segment = 16;
    opts.compaction_trigger = 0.1;
    constexpr uint64_t kKeys = 6000;
    {
      auto epochs = std::make_unique<epoch::EpochManager>();
      auto index = api::CreateKvIndex(IndexKind::kHybrid, pool.get(),
                                      epochs.get(), opts);
      ASSERT_NE(index, nullptr);
      for (uint64_t k = 1; k <= kKeys; ++k) {
        ASSERT_EQ(index->Insert(k, k * 3), Status::kOk);
      }
      // Half the records die; the other half must be relocated, so every
      // crash point is reachable.
      for (uint64_t k = 2; k <= kKeys; k += 2) {
        ASSERT_EQ(index->Delete(k), Status::kOk);
      }
      epochs->DrainAll();

      ASSERT_TRUE(pmem::TornWriteArm());
      ASSERT_TRUE(pmem::CrashPointArm(point));
      bool crashed = false;
      try {
        for (int pass = 0; pass < 60 && !crashed; ++pass) {
          index->Compact();
        }
      } catch (const pmem::CrashInjected&) {
        crashed = true;
      }
      pmem::CrashPointDisarm();
      ASSERT_TRUE(crashed) << point << " never fired";
      pmem::TornWriteRevert();
      epochs->DiscardAll();
      index.reset();
      epochs.reset();
      pool->CloseDirty();
      pool.reset();
    }

    pool = pmem::PmPool::Open(file.path());
    ASSERT_NE(pool, nullptr);
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    EXPECT_TRUE(index->Verify());
    uint64_t value = 0;
    for (uint64_t k = 1; k <= kKeys; ++k) {
      if (k % 2 == 0) {
        ASSERT_EQ(index->Search(k, &value), Status::kNotFound)
            << "deleted key " << k << " resurrected after " << point;
      } else {
        ASSERT_EQ(index->Search(k, &value), Status::kOk)
            << "key " << k << " lost after " << point;
        ASSERT_EQ(value, k * 3) << "key " << k << " corrupt after " << point;
      }
    }
    index->CloseClean();
    pool->CloseClean();
  }
}

// Checkpoint, then compact, then dirty reopen from the checkpoint. The
// interplay under test: compaction zeroes originals whose seqs sit at or
// below the checkpointed watermark (their checkpointed slots become
// untrusted and are dropped) and stamps the copies with fresh seqs above
// it (they come back via tail replay). The reopened table must equal the
// model, from the checkpoint, with honest dead accounting.
TEST(CompactionCrashTest, CheckpointThenCompactThenReopen) {
  test::TempPoolFile file("compact_ckpt");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.compaction_trigger = 0.1;
  opts.checkpoint_path = ckpt.path;
  constexpr uint64_t kKeys = 6000;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(index->Insert(k, k), Status::kOk);
    }
    ASSERT_TRUE(index->WriteCheckpoint());
    // Post-checkpoint churn: every key's record moves past the
    // watermark, half the keys die, and compaction then rewrites what
    // the checkpoint thought it knew.
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(index->Update(k, k * 9), Status::kOk);
    }
    for (uint64_t k = 3; k <= kKeys; k += 3) {
      ASSERT_EQ(index->Delete(k), Status::kOk);
    }
    epochs.DrainAll();
    while (index->Compact()) {
    }
    EXPECT_GT(index->Stats().compaction_chunks_reclaimed, 0u);
    // Dirty close: recovery has only the stale checkpoint + the log.
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  const api::IndexStats stats = index->Stats();
  EXPECT_EQ(stats.recovery_source, RecoverySource::kCheckpoint);
  EXPECT_TRUE(index->Verify());
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    if (k % 3 == 0) {
      ASSERT_EQ(index->Search(k, &value), Status::kNotFound) << k;
    } else {
      ASSERT_EQ(index->Search(k, &value), Status::kOk) << k;
      ASSERT_EQ(value, k * 9) << k;
    }
  }
  index->CloseClean();
  pool->CloseClean();
}

// A reopen from a stale checkpoint must start with honest dead ratios
// (the untrusted slots it dropped and the garbage it swept feed the
// accounting), so compaction can reclaim space immediately instead of
// waiting for fresh churn to rediscover what the load already knew.
TEST(CompactionCrashTest, ReopenSeedsDeadAccounting) {
  test::TempPoolFile file("compact_seed");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.compaction_trigger = 0.1;
  opts.checkpoint_path = ckpt.path;
  constexpr uint64_t kKeys = 6000;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(index->Insert(k, k), Status::kOk);
    }
    // Checkpoint first, then shrink the live set: the checkpointed slots
    // for the deleted keys go stale, and the zeroed records they named
    // are real reclaimable capacity the reopen must not forget. (An
    // update storm would not do: its garbage recycles through the epoch
    // manager as it runs, so the clamp against the free-list size
    // rightly reports a near-zero ratio.)
    ASSERT_TRUE(index->WriteCheckpoint());
    for (uint64_t k = 1; k <= kKeys; ++k) {
      if (k % 4 != 0) ASSERT_EQ(index->Delete(k), Status::kOk);
    }
    epochs.DrainAll();
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  api::IndexStats stats = index->Stats();
  EXPECT_EQ(stats.recovery_source, RecoverySource::kCheckpoint);
  EXPECT_GT(stats.log_dead_slots, 0u)
      << "reopen did not seed dead-slot accounting";
  EXPECT_GT(stats.compaction_dead_ratio, 0.0);
  // ... and the honest ratio is actionable: compaction reclaims chunks
  // with no further churn at all.
  while (index->Compact()) {
  }
  stats = index->Stats();
  EXPECT_GT(stats.compaction_chunks_reclaimed, 0u)
      << "seeded ratios did not let compaction make progress";
  EXPECT_TRUE(index->Verify());
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    if (k % 4 != 0) {
      ASSERT_EQ(index->Search(k, &value), Status::kNotFound) << k;
    } else {
      ASSERT_EQ(index->Search(k, &value), Status::kOk) << k;
      ASSERT_EQ(value, k) << k;
    }
  }
  index->CloseClean();
  pool->CloseClean();
}

}  // namespace
}  // namespace dash::hybrid
