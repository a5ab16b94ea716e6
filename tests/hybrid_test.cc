// Hybrid DRAM-PM tier tests (src/hybrid/): white-box log behaviour
// (chunk growth, epoch-deferred slot reuse), rebuild-equals-model
// recovery across clean and dirty reopens for both key widths, and the
// hybrid-specific crash points the generic insert sweep cannot reach
// (reclamation callbacks, the rebuild GC itself).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "epoch/epoch_manager.h"
#include "hybrid/hybrid_table.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/pool.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash::hybrid {
namespace {

using api::IndexKind;
using api::Status;

HybridOptions SmallHybridOptions() {
  HybridOptions o;
  o.buckets_per_segment = 16;
  o.stash_slots = 16;
  o.initial_depth = 1;
  o.log_lanes = 4;
  o.records_per_chunk = 256;
  return o;
}

TEST(HybridTableTest, BasicCrudAndStructure) {
  test::TempPoolFile file("hybrid_crud");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  HybridTable<> table(pool.get(), &epochs, SmallHybridOptions());

  constexpr uint64_t kKeys = 50000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table.Insert(k, k * 3), OpStatus::kOk) << "key " << k;
  }
  EXPECT_EQ(table.Insert(7, 1), OpStatus::kExists);
  ASSERT_TRUE(table.VerifyStructure());

  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table.Search(k, &value), OpStatus::kOk) << "key " << k;
    ASSERT_EQ(value, k * 3);
  }
  EXPECT_EQ(table.Search(kKeys + 1, &value), OpStatus::kNotFound);

  for (uint64_t k = 1; k <= kKeys; k += 2) {
    ASSERT_EQ(table.Update(k, k * 5), OpStatus::kOk);
  }
  for (uint64_t k = 2; k <= kKeys; k += 2) {
    ASSERT_EQ(table.Delete(k), OpStatus::kOk);
  }
  EXPECT_EQ(table.Delete(2), OpStatus::kNotFound);
  ASSERT_TRUE(table.VerifyStructure());

  const HybridStats stats = table.Stats();
  EXPECT_EQ(stats.records, kKeys / 2);
  EXPECT_GT(stats.segments, 1u);          // the workload forced splits
  EXPECT_GT(stats.log_chunks, 1u);        // and multiple PM chunks
  EXPECT_GT(stats.write_locks, 0u);
  for (uint64_t k = 1; k <= kKeys; ++k) {
    if (k % 2 == 1) {
      ASSERT_EQ(table.Search(k, &value), OpStatus::kOk);
      ASSERT_EQ(value, k * 5);
    } else {
      ASSERT_EQ(table.Search(k, &value), OpStatus::kNotFound);
    }
  }
  table.CloseClean();
  pool->CloseClean();
}

// Epoch-deferred reclamation must actually recycle log slots: updating
// and re-inserting the same keyset for many rounds (with quiescent
// drains between rounds, standing in for epoch advance under load) may
// not grow the log linearly with the number of appends.
TEST(HybridTableTest, LogSlotsAreReusedAfterReclamation) {
  test::TempPoolFile file("hybrid_reuse");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  HybridTable<> table(pool.get(), &epochs, SmallHybridOptions());

  constexpr uint64_t kKeys = 2000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table.Insert(k, k), OpStatus::kOk);
  }
  epochs.DrainAll();
  const uint64_t chunks_before = table.Stats().log_chunks;

  constexpr int kRounds = 50;
  for (int round = 1; round <= kRounds; ++round) {
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(table.Update(k, k + round), OpStatus::kOk);
    }
    for (uint64_t k = 1; k <= kKeys; k += 4) {
      ASSERT_EQ(table.Delete(k), OpStatus::kOk);
      ASSERT_EQ(table.Insert(k, k + round), OpStatus::kOk);
    }
    epochs.DrainAll();  // grace period: retirements run, slots recycle
  }

  // ~62 appends/key happened; without reuse that is kRounds * kKeys
  // extra slots (~390 chunks of 256). With reuse the chain stays near
  // its high-water mark.
  const uint64_t chunks_after = table.Stats().log_chunks;
  EXPECT_LT(chunks_after, chunks_before + 30)
      << "log grew as if reclaimed slots were never reused";
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(table.Search(k, &value), OpStatus::kOk);
    ASSERT_EQ(value, k + kRounds);
  }
  ASSERT_TRUE(table.VerifyStructure());
  table.CloseClean();
  pool->CloseClean();
}

// The recovery contract for both reopen flavours: the rebuilt DRAM index
// serves exactly the model — the last committed value per key, deleted
// keys absent — and the rebuilt table is structurally sound and accepts
// new traffic. `clean` controls CloseClean vs a simulated power loss
// (epoch discard + dirty pool close).
void RunRebuildEqualsModel(bool clean) {
  test::TempPoolFile file(clean ? "hybrid_reopen_clean"
                                : "hybrid_reopen_dirty");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  DashOptions opts;
  opts.buckets_per_segment = 16;
  std::map<uint64_t, uint64_t> model;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    util::Xoshiro256 rng(77);
    for (int iter = 0; iter < 60000; ++iter) {
      const uint64_t key = rng.NextBounded(6000) + 1;
      switch (rng.NextBounded(4)) {
        case 0:
        case 1:
          if (api::IsOk(index->Insert(key, iter))) model[key] = iter;
          break;
        case 2:
          if (api::IsOk(index->Update(key, iter + 1))) model[key] = iter + 1;
          break;
        default:
          if (api::IsOk(index->Delete(key))) model.erase(key);
          break;
      }
    }
    if (clean) {
      index->CloseClean();
      pool->CloseClean();
    } else {
      index.reset();   // ~HybridTable discards pending retirements
      pool->CloseDirty();
    }
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->recovered_from_crash(), !clean);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->Verify());

  EXPECT_EQ(index->Stats().records, model.size());
  uint64_t value = 0;
  for (const auto& [key, expected] : model) {
    ASSERT_EQ(index->Search(key, &value), Status::kOk) << "key " << key;
    ASSERT_EQ(value, expected) << "key " << key;
  }
  // A deleted key must not resurrect from a superseded log record.
  for (uint64_t key = 1; key <= 6000; ++key) {
    if (model.count(key)) continue;
    ASSERT_EQ(index->Search(key, &value), Status::kNotFound)
        << "deleted key " << key << " resurrected by rebuild";
  }
  for (uint64_t key = 100000; key < 101000; ++key) {
    ASSERT_EQ(index->Insert(key, key), Status::kOk);
  }
  index->CloseClean();
  pool->CloseClean();
}

TEST(HybridRecoveryTest, RebuildEqualsModelAfterCleanClose) {
  RunRebuildEqualsModel(/*clean=*/true);
}

TEST(HybridRecoveryTest, RebuildEqualsModelAfterDirtyClose) {
  RunRebuildEqualsModel(/*clean=*/false);
}

// Var-key flavour of the dirty reopen: rebuild must re-share the VarKey
// blobs between slots and records, dedup by content (not blob address),
// and free loser blobs without touching winners.
TEST(HybridRecoveryTest, VarKeyRebuildAfterDirtyClose) {
  test::TempPoolFile file("hybrid_var_reopen");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  DashOptions opts;
  opts.buckets_per_segment = 16;
  auto key_of = [](uint64_t i) {
    return "hybrid-var-key-" + std::to_string(i);
  };
  constexpr uint64_t kKeys = 4000;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    for (uint64_t i = 1; i <= kKeys; ++i) {
      ASSERT_EQ(index->Insert(key_of(i), i), Status::kOk);
    }
    for (uint64_t i = 1; i <= kKeys; i += 2) {
      ASSERT_EQ(index->Update(key_of(i), i * 2), Status::kOk);
    }
    for (uint64_t i = 4; i <= kKeys; i += 4) {
      ASSERT_EQ(index->Delete(key_of(i)), Status::kOk);
    }
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->Verify());
  uint64_t value = 0;
  for (uint64_t i = 1; i <= kKeys; ++i) {
    if (i % 4 == 0) {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kNotFound) << i;
    } else {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kOk) << i;
      ASSERT_EQ(value, i % 2 == 1 ? i * 2 : i) << i;
    }
  }
  index->CloseClean();
  pool->CloseClean();
}

// Crash inside the reclamation callback chain (after the superseded
// record was zeroed, before its tombstone was). Reclamation only ever
// destroys already-superseded records, so the logical contents must
// come back exactly — at worst the crash leaks a slot until the next
// rebuild GC.
TEST(HybridCrashTest, CrashMidReclaimPreservesLogicalState) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file("hybrid_crash_reclaim");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  DashOptions opts;
  opts.buckets_per_segment = 16;
  auto epochs = std::make_unique<epoch::EpochManager>();
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), epochs.get(), opts);
  ASSERT_NE(index, nullptr);

  constexpr uint64_t kKeys = 3000;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(index->Insert(k, k), Status::kOk);
  }
  // Deletes queue ReclaimPair retirements; the armed point fires from
  // inside one of them once the epoch advances far enough.
  ASSERT_TRUE(pmem::TornWriteArm());
  ASSERT_TRUE(pmem::CrashPointArm("hybrid_reclaim_after_zero"));
  bool crashed = false;
  uint64_t survivors_deleted = 0;
  try {
    for (uint64_t k = 2; k <= kKeys; k += 2) {
      ASSERT_EQ(index->Delete(k), Status::kOk);
      ++survivors_deleted;
    }
    epochs->DrainAll();
  } catch (const pmem::CrashInjected&) {
    crashed = true;
  }
  pmem::CrashPointDisarm();
  ASSERT_TRUE(crashed) << "reclaim crash point never fired";

  pmem::TornWriteRevert();
  epochs->DiscardAll();
  index.reset();
  epochs.reset();
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs2;
  index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs2, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_TRUE(index->Verify());
  // Every delete that returned kOk is durable (the tombstone publish
  // persisted before Delete returned), whether or not its reclamation
  // callbacks got to run. Odd keys are all still present.
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; k += 2) {
    ASSERT_EQ(index->Search(k, &value), Status::kOk) << "key " << k;
    ASSERT_EQ(value, k);
  }
  for (uint64_t k = 2; k <= 2 * survivors_deleted && k <= kKeys; k += 2) {
    ASSERT_EQ(index->Search(k, &value), Status::kNotFound)
        << "deleted key " << k << " resurrected";
  }
  index->CloseClean();
  pool->CloseClean();
}

// Crash inside the rebuild itself (after the scan; after the GC). A
// half-finished rebuild leaves only zeroed losers / spent tombstones
// behind, so rebuilding again from the same image must converge to the
// identical logical table.
TEST(HybridCrashTest, CrashMidRebuildIsIdempotent) {
  for (const char* point :
       {"hybrid_rebuild_after_scan", "hybrid_rebuild_after_gc"}) {
    SCOPED_TRACE(point);
    test::InjectionCleanup cleanup;
    test::TempPoolFile file("hybrid_crash_rebuild");
    auto pool = test::CreatePool(file);
    ASSERT_NE(pool, nullptr);
    DashOptions opts;
    opts.buckets_per_segment = 16;
    constexpr uint64_t kKeys = 3000;
    {
      epoch::EpochManager epochs;
      auto index =
          api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
      ASSERT_NE(index, nullptr);
      // Updates and deletes leave superseded records and tombstones in
      // the log for the rebuild GC to chew on.
      for (uint64_t k = 1; k <= kKeys; ++k) {
        ASSERT_EQ(index->Insert(k, k), Status::kOk);
      }
      for (uint64_t k = 1; k <= kKeys; k += 3) {
        ASSERT_EQ(index->Update(k, k * 7), Status::kOk);
      }
      for (uint64_t k = 5; k <= kKeys; k += 5) {
        ASSERT_EQ(index->Delete(k), Status::kOk);
      }
      index.reset();  // dirty: retirements discarded, log keeps garbage
      pool->CloseDirty();
      pool.reset();
    }

    pool = pmem::PmPool::Open(file.path());
    ASSERT_NE(pool, nullptr);
    {
      epoch::EpochManager epochs;
      ASSERT_TRUE(pmem::TornWriteArm());
      ASSERT_TRUE(pmem::CrashPointArm(point));
      EXPECT_THROW(api::CreateKvIndex(IndexKind::kHybrid, pool.get(),
                                      &epochs, opts),
                   pmem::CrashInjected);
      pmem::CrashPointDisarm();
      pmem::TornWriteRevert();
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
      if (k % 5 == 0) {
        ASSERT_EQ(index->Search(k, &value), Status::kNotFound) << k;
      } else {
        ASSERT_EQ(index->Search(k, &value), Status::kOk) << k;
        ASSERT_EQ(value, k % 3 == 1 ? k * 7 : k) << k;
      }
    }
    index->CloseClean();
    pool->CloseClean();
  }
}

}  // namespace
}  // namespace dash::hybrid
