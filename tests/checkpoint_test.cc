// Checkpoint subsystem tests (src/pmem/index_persist + the hybrid tier's
// serialize/load path): checkpoint + tail replay equals the model after a
// dirty close for both key widths; every rejection path (torn writer
// crash, truncation, bit flip, stale generation, wrong kind) falls back
// to the full log scan and still serves exactly the model — never wrong,
// only slower; the lane-parallel scan fallback matches the serial one;
// and the sharded store surfaces per-shard provenance, including the
// executor's idle-path periodic refresh.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "api/sharded_store.h"
#include "epoch/epoch_manager.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/index_persist.h"
#include "pmem/pool.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash {
namespace {

using api::IndexKind;
using api::Status;

// Removes the checkpoint file (and its temp) when the test scope ends.
struct TempCheckpoint {
  explicit TempCheckpoint(std::string p) : path(std::move(p)) {
    pmem::RemoveCheckpointFile(path);
  }
  ~TempCheckpoint() { pmem::RemoveCheckpointFile(path); }
  std::string path;
};

DashOptions SmallOptions(const std::string& ckpt_path = "") {
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.checkpoint_path = ckpt_path;
  return opts;
}

// Random op mix against a std::map model. `seed` varies the stream so two
// phases (before / after a checkpoint) touch overlapping key sets.
void RunOps(api::KvIndex* index, std::map<uint64_t, uint64_t>* model,
            int iters, uint64_t seed) {
  util::Xoshiro256 rng(seed);
  for (int iter = 0; iter < iters; ++iter) {
    const uint64_t key = rng.NextBounded(6000) + 1;
    const uint64_t value = seed * 1000000 + iter;
    switch (rng.NextBounded(4)) {
      case 0:
      case 1:
        if (api::IsOk(index->Insert(key, value))) (*model)[key] = value;
        break;
      case 2:
        if (api::IsOk(index->Update(key, value))) (*model)[key] = value;
        break;
      default:
        if (api::IsOk(index->Delete(key))) model->erase(key);
        break;
    }
  }
}

// The rebuilt (or loaded) index serves exactly the model and nothing
// else, is structurally sound, and accepts new traffic.
void ExpectEqualsModel(api::KvIndex* index,
                       const std::map<uint64_t, uint64_t>& model) {
  EXPECT_TRUE(index->Verify());
  EXPECT_EQ(index->Stats().records, model.size());
  uint64_t value = 0;
  for (const auto& [key, expected] : model) {
    ASSERT_EQ(index->Search(key, &value), Status::kOk) << "key " << key;
    ASSERT_EQ(value, expected) << "key " << key;
  }
  for (uint64_t key = 1; key <= 6000; ++key) {
    if (model.count(key)) continue;
    ASSERT_EQ(index->Search(key, &value), Status::kNotFound)
        << "absent key " << key << " resurrected";
  }
  for (uint64_t key = 500000; key < 500200; ++key) {
    ASSERT_EQ(index->Insert(key, key), Status::kOk);
  }
}

// Builds a table with a checkpoint taken mid-stream (so the reopen must
// replay a non-empty tail), crashes, and hands the caller the model.
// Returns the on-disk image at `file` with the checkpoint at
// `file.path() + .ckpt`.
std::map<uint64_t, uint64_t> BuildCheckpointThenTail(
    pmem::PmPool* pool, const DashOptions& opts) {
  std::map<uint64_t, uint64_t> model;
  epoch::EpochManager epochs;
  auto index = api::CreateKvIndex(IndexKind::kHybrid, pool, &epochs, opts);
  EXPECT_NE(index, nullptr);
  RunOps(index.get(), &model, 30000, /*seed=*/11);
  EXPECT_TRUE(index->WriteCheckpoint());
  RunOps(index.get(), &model, 15000, /*seed=*/12);  // the tail
  index.reset();  // dirty: pending retirements discarded
  return model;
}

TEST(CheckpointTest, CheckpointPlusTailReplayEqualsModel) {
  test::TempPoolFile file("ckpt_tail");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  const auto model = BuildCheckpointThenTail(pool.get(), opts);
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  const api::IndexStats stats = index->Stats();
  EXPECT_EQ(stats.recovery_source, RecoverySource::kCheckpoint);
  EXPECT_GT(stats.recovery_replayed, 0u) << "tail was not replayed";
  EXPECT_GT(stats.recovery_staleness, 0u);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

TEST(CheckpointTest, VarKeyCheckpointPlusTailReplayEqualsModel) {
  test::TempPoolFile file("ckpt_var_tail");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  auto key_of = [](uint64_t i) { return "ckpt-var-key-" + std::to_string(i); };
  constexpr uint64_t kKeys = 4000;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    for (uint64_t i = 1; i <= kKeys; ++i) {
      ASSERT_EQ(index->Insert(key_of(i), i), Status::kOk);
    }
    ASSERT_TRUE(index->WriteCheckpoint());
    // Tail: updates, deletes, and re-inserts past the watermarks — the
    // replay must win over the checkpointed slots.
    for (uint64_t i = 1; i <= kKeys; i += 2) {
      ASSERT_EQ(index->Update(key_of(i), i * 2), Status::kOk);
    }
    for (uint64_t i = 4; i <= kKeys; i += 4) {
      ASSERT_EQ(index->Delete(key_of(i)), Status::kOk);
    }
    for (uint64_t i = 8; i <= kKeys; i += 8) {
      ASSERT_EQ(index->Insert(key_of(i), i * 3), Status::kOk);
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
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kCheckpoint);
  EXPECT_GT(index->Stats().recovery_replayed, 0u);
  uint64_t value = 0;
  for (uint64_t i = 1; i <= kKeys; ++i) {
    if (i % 8 == 0) {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kOk) << i;
      ASSERT_EQ(value, i * 3) << i;
    } else if (i % 4 == 0) {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kNotFound) << i;
    } else {
      ASSERT_EQ(index->Search(key_of(i), &value), Status::kOk) << i;
      ASSERT_EQ(value, i % 2 == 1 ? i * 2 : i) << i;
    }
  }
  index->CloseClean();
  pool->CloseClean();
}

// A quiesced clean close writes an exact checkpoint: the reopen loads it
// with an empty tail (replayed == 0, staleness == 0).
TEST(CheckpointTest, CleanCloseCheckpointHasEmptyTail) {
  test::TempPoolFile file("ckpt_clean");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  std::map<uint64_t, uint64_t> model;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 30000, /*seed=*/21);
    index->CloseClean();  // writes the checkpoint
    pool->CloseClean();
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
  EXPECT_EQ(stats.recovery_replayed, 0u);
  EXPECT_EQ(stats.recovery_staleness, 0u);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// Crash inside the checkpoint writer at every CRASH_POINT, under the
// torn-write simulation. Whatever the file ends up as — stray temp, old
// file, or fully renamed new file — the reopen serves exactly the model:
// a complete checkpoint is accepted, anything else is rejected into the
// scan path.
TEST(CheckpointCrashTest, TornWriterSweepReopensModelEquivalent) {
  for (const char* point : {"ckpt_after_temp_write", "ckpt_after_checksum",
                            "ckpt_after_rename"}) {
    SCOPED_TRACE(point);
    test::InjectionCleanup cleanup;
    test::TempPoolFile file("ckpt_torn");
    TempCheckpoint ckpt(file.path() + ".ckpt");
    auto pool = test::CreatePool(file);
    ASSERT_NE(pool, nullptr);
    const DashOptions opts = SmallOptions(ckpt.path);
    std::map<uint64_t, uint64_t> model;
    {
      epoch::EpochManager epochs;
      auto index =
          api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
      ASSERT_NE(index, nullptr);
      RunOps(index.get(), &model, 20000, /*seed=*/31);
      ASSERT_TRUE(pmem::TornWriteArm());
      ASSERT_TRUE(pmem::CrashPointArm(point));
      EXPECT_THROW(index->WriteCheckpoint(), pmem::CrashInjected);
      pmem::CrashPointDisarm();
      pmem::TornWriteRevert();
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
    // Only a crash after the rename leaves a complete, current file.
    const RecoverySource expected =
        std::string(point) == "ckpt_after_rename"
            ? RecoverySource::kCheckpoint
            : RecoverySource::kScan;
    EXPECT_EQ(index->Stats().recovery_source, expected);
    ExpectEqualsModel(index.get(), model);
    index->CloseClean();
    pool->CloseClean();
  }
}

// A crash *between* the log scan and the tail replay of a checkpoint
// load leaves the on-disk image untouched (the load path is PM-read-
// only); the next open converges to the same table.
TEST(CheckpointCrashTest, CrashMidCheckpointLoadIsIdempotent) {
  test::InjectionCleanup cleanup;
  test::TempPoolFile file("ckpt_load_crash");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  const auto model = BuildCheckpointThenTail(pool.get(), opts);
  pool->CloseDirty();
  pool.reset();

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  {
    epoch::EpochManager epochs;
    ASSERT_TRUE(pmem::TornWriteArm());
    ASSERT_TRUE(pmem::CrashPointArm("hybrid_ckpt_load_after_scan"));
    EXPECT_THROW(
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts),
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
  // The interrupted load bumped the generation, so the checkpoint is now
  // stale — this open must scan, and must still serve the model.
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// Shared tail for the file-corruption rejection tests: mutate the
// checkpoint file with `corrupt`, reopen, and require scan-fallback with
// model equivalence.
void RunRejection(const std::string& tag,
                  const std::function<void(const std::string&)>& corrupt) {
  test::TempPoolFile file("ckpt_" + tag);
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  const auto model = BuildCheckpointThenTail(pool.get(), opts);
  pool->CloseDirty();
  pool.reset();

  corrupt(ckpt.path);

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan)
      << "corrupt checkpoint was not rejected";
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

TEST(CheckpointRejectionTest, TruncatedFileFallsBackToScan) {
  RunRejection("trunc", [](const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    const auto size = static_cast<long>(in.tellg());
    in.close();
    ASSERT_GT(size, 64);
    ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  });
}

TEST(CheckpointRejectionTest, BitFlippedPayloadFallsBackToScan) {
  RunRejection("flip", [](const std::string& path) {
    std::fstream io(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(io.good());
    io.seekg(0, std::ios::end);
    const auto size = static_cast<long>(io.tellg());
    ASSERT_GT(size, 200);
    io.seekp(size / 2);
    char byte = 0;
    io.seekg(size / 2);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    io.seekp(size / 2);
    io.write(&byte, 1);
  });
}

// A checkpoint left behind by run N is stale once run N+1 appended or
// recycled log records without refreshing it: run N+2 must reject it (the
// slots it references may have been reused for other keys) and scan.
TEST(CheckpointRejectionTest, StaleGenerationFallsBackToScan) {
  test::TempPoolFile file("ckpt_stale");
  TempCheckpoint ckpt(file.path() + ".ckpt");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  const DashOptions opts = SmallOptions(ckpt.path);
  std::map<uint64_t, uint64_t> model;
  {
    // Run 1: checkpoint, crash.
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 20000, /*seed=*/41);
    ASSERT_TRUE(index->WriteCheckpoint());
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }
  {
    // Run 2: opens (consuming the checkpoint's generation), mutates
    // without ever refreshing the checkpoint, crashes.
    pool = pmem::PmPool::Open(file.path());
    ASSERT_NE(pool, nullptr);
    epoch::EpochManager epochs;
    DashOptions no_ckpt = opts;
    no_ckpt.checkpoint_path.clear();
    auto index = api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs,
                                    no_ckpt);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 20000, /*seed=*/42);
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  // Run 3: the on-disk checkpoint carries run 1's generation — stale.
  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan)
      << "stale-generation checkpoint was not rejected";
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// A checkpoint from a table with a different key policy (var-key) must be
// rejected by its kind tag before anything is interpreted.
TEST(CheckpointRejectionTest, WrongKindFallsBackToScan) {
  test::TempPoolFile var_file("ckpt_kind_var");
  TempCheckpoint var_ckpt(var_file.path() + ".ckpt");
  {
    // Produce a perfectly valid checkpoint — of the wrong flavour.
    auto pool = test::CreatePool(var_file);
    ASSERT_NE(pool, nullptr);
    epoch::EpochManager epochs;
    auto index = api::CreateVarKvIndex(IndexKind::kHybrid, pool.get(),
                                       &epochs, SmallOptions(var_ckpt.path));
    ASSERT_NE(index, nullptr);
    for (uint64_t i = 1; i <= 500; ++i) {
      ASSERT_EQ(index->Insert("kind-key-" + std::to_string(i), i),
                Status::kOk);
    }
    ASSERT_TRUE(index->WriteCheckpoint());
    index->CloseClean();
    pool->CloseClean();
  }
  RunRejection("kind", [&](const std::string& path) {
    std::ifstream in(var_ckpt.path, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
    ASSERT_TRUE(out.good());
  });
}

// The lane-parallel scan fallback (satellite of ROADMAP item 4) must
// produce the same table as the serial scan — including the parallel
// winner-insert path, which needs a few thousand live keys to engage.
TEST(CheckpointTest, ParallelRebuildEqualsModel) {
  test::TempPoolFile file("ckpt_par_rebuild");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  DashOptions opts = SmallOptions();
  std::map<uint64_t, uint64_t> model;
  {
    epoch::EpochManager epochs;
    auto index =
        api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
    ASSERT_NE(index, nullptr);
    RunOps(index.get(), &model, 60000, /*seed=*/51);
    index.reset();
    pool->CloseDirty();
    pool.reset();
  }

  pool = pmem::PmPool::Open(file.path());
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  opts.rebuild_threads = 4;
  auto index =
      api::CreateKvIndex(IndexKind::kHybrid, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->Stats().recovery_source, RecoverySource::kScan);
  ExpectEqualsModel(index.get(), model);
  index->CloseClean();
  pool->CloseClean();
}

// ---- sharded provenance ----

api::ShardedStoreOptions HybridStoreOptions(const std::string& prefix,
                                            size_t shards) {
  api::ShardedStoreOptions options = test::SmallStoreOptions(prefix, shards);
  options.kind = IndexKind::kHybrid;
  return options;
}

// CloseClean writes one checkpoint per shard; the reopen reports
// source == "checkpoint" for every shard and serves the data.
TEST(ShardedCheckpointTest, CloseCleanThenReopenLoadsEveryShard) {
  test::TempShardPaths paths("ckpt_sharded", 3);
  constexpr uint64_t kKeys = 20000;
  {
    auto store = api::ShardedStore::Open(HybridStoreOptions(paths.prefix(), 3));
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k * 3), Status::kOk);
    }
    store->CloseClean();
  }
  auto store = api::ShardedStore::Open(HybridStoreOptions(paths.prefix(), 3));
  ASSERT_NE(store, nullptr);
  const api::RecoveryReport& report = store->recovery_report();
  ASSERT_EQ(report.shard_source.size(), 3u);
  for (size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(report.shard_source[s], "checkpoint") << "shard " << s;
    EXPECT_EQ(report.shard_replayed[s], 0u) << "shard " << s;
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << k;
    ASSERT_EQ(value, k * 3);
  }
  store->CloseClean();
}

// With checkpoints disabled the same reopen reports "scan" — the
// provenance plumbing distinguishes the two paths end to end.
TEST(ShardedCheckpointTest, ScanProvenanceWithoutCheckpoints) {
  test::TempShardPaths paths("ckpt_sharded_scan", 2);
  auto options = HybridStoreOptions(paths.prefix(), 2);
  options.checkpoints = false;
  {
    auto store = api::ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= 5000; ++k) {
      ASSERT_EQ(store->Insert(k, k), Status::kOk);
    }
    store->CloseClean();
  }
  auto store = api::ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(store->recovery_report().shard_source[s], "scan");
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= 5000; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << k;
  }
  store->CloseClean();
}

// The executor's idle path refreshes checkpoints on the configured
// interval — so even a store that crashes (no CloseClean) reopens from a
// checkpoint, replaying only what came after the last refresh.
TEST(ShardedCheckpointTest, PeriodicIdleCheckpointSurvivesCrash) {
  test::TempShardPaths paths("ckpt_periodic", 2);
  auto options = HybridStoreOptions(paths.prefix(), 2);
  options.checkpoint_interval_ms = 20;
  options.async.workers = true;
  constexpr uint64_t kKeys = 10000;
  {
    auto store = api::ShardedStore::Open(options);
    ASSERT_NE(store, nullptr);
    for (uint64_t k = 1; k <= kKeys; ++k) {
      ASSERT_EQ(store->Insert(k, k + 7), Status::kOk);
    }
    // Wait for every shard's idle worker to write its checkpoint file.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    for (size_t s = 0; s < 2;) {
      const std::string ckpt =
          paths.prefix() + ".shard" + std::to_string(s) + ".ckpt";
      std::ifstream probe(ckpt, std::ios::binary);
      if (probe.good()) {
        ++s;
        continue;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "idle checkpoint for shard " << s << " never appeared";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // Destroyed without CloseClean: a crash with idle checkpoints on disk.
  }
  auto store = api::ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  const api::RecoveryReport& report = store->recovery_report();
  for (size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(report.shard_source[s], "checkpoint") << "shard " << s;
  }
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kKeys; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << k;
    ASSERT_EQ(value, k + 7);
  }
  store->CloseClean();
}

}  // namespace
}  // namespace dash
