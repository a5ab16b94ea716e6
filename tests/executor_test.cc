// Async submission API tests: completion tokens, per-shard FIFO
// semantics, windowed (pipelined) submission, queue backpressure, and the
// shutdown contract — CloseClean drains queued work, rejects new
// submissions with kInvalidArgument, and joins the workers.

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/sharded_store.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash::api {
namespace {

using test::SmallStoreOptions;
using test::TempShardPaths;

// Single submitter keeping a window of futures in flight: per-shard FIFO
// means the store still applies the batches in submission order, so a
// serial model stays valid even while batches overlap.
TEST(ExecutorTest, WindowedSubmitMatchesModel) {
  TempShardPaths paths("exec_window", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->async_enabled());

  constexpr size_t kWindow = 4;
  constexpr size_t kBatch = 64;
  constexpr int kRounds = 120;
  struct Slot {
    std::vector<Op> ops;
    std::vector<Status> statuses;
    BatchFuture future;
  };
  Slot window[kWindow];
  for (auto& slot : window) {
    slot.ops.resize(kBatch);
    slot.statuses.resize(kBatch);
  }

  // The model is checked against each batch *after* its future completes;
  // ops across batches use disjoint key mixes per round so the serial
  // model is exact despite the overlap.
  std::map<uint64_t, uint64_t> model;
  util::Xoshiro256 rng(23);
  auto check_slot = [&](Slot& slot) {
    slot.future.Wait();
    ASSERT_EQ(slot.future.submit_status(), Status::kOk);
    for (size_t i = 0; i < kBatch; ++i) {
      const Op& op = slot.ops[i];
      Status expected = Status::kInternal;
      switch (op.type) {
        case OpType::kSearch: {
          const auto it = model.find(op.key);
          expected = it == model.end() ? Status::kNotFound : Status::kOk;
          if (it != model.end()) {
            ASSERT_EQ(op.value, it->second);
          }
          break;
        }
        case OpType::kInsert:
          expected = model.emplace(op.key, op.value).second
                         ? Status::kOk
                         : Status::kExists;
          break;
        case OpType::kUpdate: {
          const auto it = model.find(op.key);
          expected = it == model.end() ? Status::kNotFound : Status::kOk;
          if (it != model.end()) it->second = op.value;
          break;
        }
        case OpType::kDelete:
          expected =
              model.erase(op.key) == 1 ? Status::kOk : Status::kNotFound;
          break;
      }
      ASSERT_EQ(slot.statuses[i], expected) << "key " << op.key;
    }
  };

  // In-flight batches may touch the same key: FIFO applies them in
  // submission order, but the *model* below is applied at completion
  // time, so keep each round's keys unique within the whole window span
  // (round-robin over 4 * kBatch disjoint slices of the key space).
  uint64_t round_base = 1;
  for (int round = 0; round < kRounds; ++round) {
    Slot& slot = window[round % kWindow];
    if (slot.future.valid()) check_slot(slot);
    for (size_t i = 0; i < kBatch; ++i) {
      const uint64_t key = round_base + i;
      switch (rng.NextBounded(4)) {
        case 0: slot.ops[i] = Op::Search(key); break;
        case 1: slot.ops[i] = Op::Insert(key, rng.Next()); break;
        case 2: slot.ops[i] = Op::Update(key, rng.Next()); break;
        default: slot.ops[i] = Op::Delete(key); break;
      }
    }
    slot.future =
        store->SubmitExecute(slot.ops.data(), kBatch, slot.statuses.data());
    // Cycle through 2 * kWindow disjoint key slices so no two in-flight
    // batches share a key, keeping completion-time model checks exact.
    round_base = (round % (2 * kWindow) + 1) * 10000 + 1;
  }
  for (auto& slot : window) {
    if (slot.future.valid()) check_slot(slot);
  }
  EXPECT_EQ(store->Stats().totals.records, model.size());
  store->CloseClean();
}

TEST(ExecutorTest, HomogeneousSubmitVariantsRoundTrip) {
  TempShardPaths paths("exec_homog", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);

  constexpr size_t kN = 500;  // straddles the stack-scratch boundary
  std::vector<uint64_t> keys(kN), values(kN), got(kN, 0);
  std::vector<Status> st_insert(kN), st_search(kN), st_update(kN),
      st_delete(kN);
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i + 1;
    values[i] = i + 1000;
  }

  BatchFuture insert =
      store->SubmitInsert(keys.data(), values.data(), kN, st_insert.data());
  ASSERT_EQ(insert.submit_status(), Status::kOk);
  insert.Wait();
  EXPECT_TRUE(insert.Ready());
  EXPECT_EQ(insert.pending_shards(), 0u);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(st_insert[i], Status::kOk);

  BatchFuture search =
      store->SubmitSearch(keys.data(), kN, got.data(), st_search.data());
  search.Wait();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(st_search[i], Status::kOk);
    ASSERT_EQ(got[i], values[i]);
  }

  for (size_t i = 0; i < kN; ++i) values[i] = i + 9000;
  BatchFuture update =
      store->SubmitUpdate(keys.data(), values.data(), kN, st_update.data());
  update.Wait();
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(st_update[i], Status::kOk);
  search = store->SubmitSearch(keys.data(), kN, got.data(), st_search.data());
  search.Wait();
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(got[i], values[i]);

  BatchFuture del = store->SubmitDelete(keys.data(), kN, st_delete.data());
  del.Wait();
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(st_delete[i], Status::kOk);
  del = store->SubmitDelete(keys.data(), kN, st_delete.data());
  del.Wait();
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(st_delete[i], Status::kNotFound);

  // Empty and invalid tokens are trivially ready.
  BatchFuture empty = store->SubmitExecute(nullptr, 0, nullptr);
  EXPECT_TRUE(empty.valid());
  EXPECT_TRUE(empty.Ready());
  empty.Wait();
  BatchFuture invalid;
  EXPECT_FALSE(invalid.valid());
  EXPECT_TRUE(invalid.Ready());
  invalid.Wait();

  store->CloseClean();
}

// Shutdown semantics: CloseClean must (1) drain every queued batch — all
// previously returned futures become ready with their real results,
// (2) reject new submissions with kInvalidArgument on both the async and
// the sync surface, and (3) join the workers. Exercised with in-flight
// mixed batches on 4 shards and a tiny queue so queues are actually full
// at close time.
TEST(ExecutorTest, CloseCleanDrainsRejectsAndJoins) {
  TempShardPaths paths("exec_close", 4);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 4);
  options.async.queue_depth = 2;  // keep work queued at close time
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);

  constexpr int kSubmitters = 2;
  constexpr size_t kBatchesPerThread = 24;
  constexpr size_t kBatch = 128;
  struct Pending {
    std::vector<Op> ops;
    std::vector<Status> statuses;
    BatchFuture future;
  };
  std::vector<std::vector<Pending>> pending(kSubmitters);

  // Submit mixed insert+search batches from two threads without waiting
  // on any future, so queued work is genuinely in flight when the main
  // thread closes the store.
  std::vector<std::thread> submitters;
  for (int t = 0; t < kSubmitters; ++t) {
    pending[t].resize(kBatchesPerThread);
    submitters.emplace_back([&, t] {
      const uint64_t base = 1 + static_cast<uint64_t>(t) * 1000000;
      for (size_t b = 0; b < kBatchesPerThread; ++b) {
        Pending& p = pending[t][b];
        p.ops.reserve(kBatch);
        p.statuses.resize(kBatch);
        for (size_t i = 0; i < kBatch / 2; ++i) {
          p.ops.push_back(Op::Insert(base + b * kBatch + i, t + 1));
        }
        while (p.ops.size() < kBatch) {
          // Re-search keys from this thread's first batch.
          p.ops.push_back(Op::Search(base + p.ops.size() - kBatch / 2));
        }
        p.future =
            store->SubmitExecute(p.ops.data(), kBatch, p.statuses.data());
      }
    });
  }
  for (auto& thread : submitters) thread.join();

  // Drain: after CloseClean returns, every future is ready and holds the
  // batch's real result, not a cancellation.
  store->CloseClean();
  size_t ok_inserts = 0;
  for (int t = 0; t < kSubmitters; ++t) {
    for (Pending& p : pending[t]) {
      ASSERT_TRUE(p.future.Ready());
      ASSERT_EQ(p.future.submit_status(), Status::kOk);
      for (size_t i = 0; i < kBatch / 2; ++i) {
        ASSERT_EQ(p.statuses[i], Status::kOk);
        ++ok_inserts;
      }
    }
  }
  EXPECT_EQ(ok_inserts, kSubmitters * kBatchesPerThread * kBatch / 2);

  // Reject: async and sync submissions after the close fail fast with
  // kInvalidArgument in the token and in every status slot.
  Op ops[4] = {Op::Insert(7777771, 1), Op::Search(7777771),
               Op::Update(7777771, 2), Op::Delete(7777771)};
  Status statuses[4];
  BatchFuture rejected = store->SubmitExecute(ops, 4, statuses);
  EXPECT_TRUE(rejected.Ready());
  EXPECT_EQ(rejected.submit_status(), Status::kInvalidArgument);
  for (Status s : statuses) EXPECT_EQ(s, Status::kInvalidArgument);

  uint64_t keys[2] = {1, 2};
  uint64_t got[2];
  Status st[2];
  store->MultiSearch(keys, 2, got, st);
  EXPECT_EQ(st[0], Status::kInvalidArgument);
  EXPECT_EQ(st[1], Status::kInvalidArgument);

  // Idempotent: a second close is a no-op, and destruction re-joins
  // nothing (workers are already gone).
  store->CloseClean();
}

// A queue depth of 1 forces constant backpressure; every batch must still
// execute exactly once and in per-shard submission order.
TEST(ExecutorTest, BackpressureWithTinyQueues) {
  TempShardPaths paths("exec_bp", 2);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 2);
  options.async.queue_depth = 1;
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);

  constexpr size_t kBatches = 64;
  constexpr size_t kBatch = 32;
  std::vector<std::vector<Op>> ops(kBatches);
  std::vector<std::vector<Status>> statuses(kBatches);
  std::vector<BatchFuture> futures(kBatches);
  for (size_t b = 0; b < kBatches; ++b) {
    ops[b].resize(kBatch);
    statuses[b].resize(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      ops[b][i] = Op::Insert(1 + b * kBatch + i, b);
    }
    futures[b] =
        store->SubmitExecute(ops[b].data(), kBatch, statuses[b].data());
  }
  for (size_t b = 0; b < kBatches; ++b) {
    futures[b].Wait();
    for (size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(statuses[b][i], Status::kOk) << "batch " << b;
    }
  }
  EXPECT_EQ(store->Stats().totals.records, kBatches * kBatch);
  store->CloseClean();
}

// A 1-shard store skips the executor (inline_single_shard): Submit*
// executes natively off the caller's arrays and the future is born
// ready, for all five entry points.
TEST(ExecutorTest, SingleShardInlineFastPath) {
  TempShardPaths paths("exec_one", 1);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 1));
  ASSERT_NE(store, nullptr);
  ASSERT_FALSE(store->async_enabled());

  constexpr size_t kN = 64;
  uint64_t keys[kN], values[kN], got[kN];
  Status statuses[kN];
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i + 1;
    values[i] = i + 500;
  }
  BatchFuture f = store->SubmitInsert(keys, values, kN, statuses);
  EXPECT_TRUE(f.Ready());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(statuses[i], Status::kOk);

  f = store->SubmitSearch(keys, kN, got, statuses);
  EXPECT_TRUE(f.Ready());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(statuses[i], Status::kOk);
    ASSERT_EQ(got[i], values[i]);
  }

  for (size_t i = 0; i < kN; ++i) values[i] = i + 7000;
  f = store->SubmitUpdate(keys, values, kN, statuses);
  EXPECT_TRUE(f.Ready());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(statuses[i], Status::kOk);

  Op ops[kN];
  for (size_t i = 0; i < kN; ++i) ops[i] = Op::Search(keys[i]);
  f = store->SubmitExecute(ops, kN, statuses);
  EXPECT_TRUE(f.Ready());
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(statuses[i], Status::kOk);
    ASSERT_EQ(ops[i].value, values[i]);
  }

  f = store->SubmitDelete(keys, kN, statuses);
  EXPECT_TRUE(f.Ready());
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(statuses[i], Status::kOk);
  EXPECT_EQ(store->Stats().totals.records, 0u);
  store->CloseClean();
}

// Worker pinning is a placement hint, never a correctness knob.
TEST(ExecutorTest, PinnedWorkersStillCorrect) {
  TempShardPaths paths("exec_pin", 2);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 2);
  options.async.pin_workers = true;
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);

  constexpr size_t kN = 128;
  uint64_t keys[kN], values[kN], got[kN];
  Status statuses[kN];
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i + 1;
    values[i] = i * 3 + 1;
  }
  store->MultiInsert(keys, values, kN, statuses);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(statuses[i], Status::kOk);
  store->MultiSearch(keys, kN, got, statuses);
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(statuses[i], Status::kOk);
    ASSERT_EQ(got[i], values[i]);
  }
  store->CloseClean();
}

// A pinned worker polls its empty queue for a bounded moment before it
// blocks, so an idle store's pinned workers use next to no CPU.
TEST(ExecutorTest, IdlePinnedWorkersStayOffTheCpu) {
  test::TempPoolFile file("exec_idle_spin");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs[2];
  auto index = CreateKvIndex(IndexKind::kDashEH, pool.get(), &epochs[0],
                             DashOptions{});
  ASSERT_NE(index, nullptr);
  ExecutorOptions options;
  options.pin_workers = true;
  ShardExecutor executor({{index.get(), &epochs[0]}, {index.get(), &epochs[1]}},
                         options);
  // One item per shard first, so each worker has gone idle after work.
  auto stats = std::make_shared<internal::StatsState>();
  stats->per_shard.resize(2);
  stats->pending.store(2);
  for (uint32_t s = 0; s < 2; ++s) {
    ShardExecutor::WorkItem item;
    item.kind = ShardExecutor::WorkItem::Kind::kStats;
    item.shard = s;
    item.stats = stats;
    ASSERT_TRUE(executor.Submit(std::move(item)));
  }
  stats->Wait();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  const auto cpu_ns = [&](size_t s) {
    clockid_t clock;
    EXPECT_EQ(pthread_getcpuclockid(executor.worker_handle(s), &clock), 0);
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  };
  const int64_t before[2] = {cpu_ns(0), cpu_ns(1)};
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const int64_t wall_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  for (size_t s = 0; s < 2; ++s) {
    const int64_t used = cpu_ns(s) - before[s];
    EXPECT_LT(used, wall_ns / 10)
        << "idle pinned worker " << s << " used " << used << " ns of CPU";
  }
  executor.Stop();
}

// Open/close churn: worker threads release their dense thread ids on
// exit, so repeated store lifecycles cannot exhaust the process-wide
// per-thread PM slots (util::kMaxThreadId). 40 cycles x 4 workers would
// otherwise burn 160 ids on top of everything the rest of the suite uses.
TEST(ExecutorTest, WorkerChurnRecyclesThreadIds) {
  for (int cycle = 0; cycle < 40; ++cycle) {
    TempShardPaths paths("exec_churn", 4);
    auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
    ASSERT_NE(store, nullptr);
    Op ops[16];
    Status statuses[16];
    for (size_t i = 0; i < 16; ++i) {
      ops[i] = Op::Insert(i + 1, cycle);
    }
    BatchFuture future = store->SubmitExecute(ops, 16, statuses);
    future.Wait();
    for (size_t i = 0; i < 16; ++i) ASSERT_EQ(statuses[i], Status::kOk);
    store->CloseClean();
  }
}

// Concurrent submitters + a Stats poller + single-op traffic: the stress
// shape of a serving frontend. Disjoint key ranges per submitter keep the
// final state checkable.
TEST(ExecutorTest, ConcurrentSubmittersAndStats) {
  TempShardPaths paths("exec_conc", 4);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 4));
  ASSERT_NE(store, nullptr);

  constexpr int kSubmitters = 3;
  constexpr uint64_t kPerThread = 4000;
  constexpr size_t kBatch = 64;
  constexpr size_t kWindow = 4;
  std::atomic<uint64_t> failures{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      const uint64_t base = static_cast<uint64_t>(t) * kPerThread;
      struct Slot {
        Op ops[kBatch];
        Status statuses[kBatch];
        BatchFuture future;
        size_t n = 0;
      };
      Slot window[kWindow];
      size_t w = 0;
      auto reap = [&](Slot& slot) {
        slot.future.Wait();
        for (size_t i = 0; i < slot.n; ++i) {
          if (!IsOk(slot.statuses[i])) failures.fetch_add(1);
        }
      };
      for (uint64_t k = 1; k <= kPerThread; k += kBatch) {
        Slot& slot = window[w++ % kWindow];
        if (slot.future.valid()) reap(slot);
        slot.n = 0;
        for (uint64_t i = k; i < k + kBatch && i <= kPerThread; ++i) {
          slot.ops[slot.n++] = Op::Insert(base + i, base + i + 1);
        }
        slot.future =
            store->SubmitExecute(slot.ops, slot.n, slot.statuses);
      }
      for (auto& slot : window) {
        if (slot.future.valid()) reap(slot);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 50; ++i) {
      const ShardedStats stats = store->Stats();
      if (stats.totals.records > kSubmitters * kPerThread) {
        failures.fetch_add(1);
      }
      uint64_t value = 0;
      store->Search(1, &value);  // single-op traffic bypassing the queues
    }
  });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(store->Stats().totals.records,
            static_cast<uint64_t>(kSubmitters) * kPerThread);
  uint64_t value = 0;
  for (uint64_t k = 1; k <= kSubmitters * kPerThread; ++k) {
    ASSERT_EQ(store->Search(k, &value), Status::kOk) << "key " << k;
    ASSERT_EQ(value, k + 1);
  }
  store->CloseClean();
}

// ---- deadlines, WaitFor, queue-full backoff ----

// A batch whose deadline has passed by the time its shard worker dequeues
// it completes with kTimeout instead of executing; a generous deadline
// executes normally. WaitFor reports not-ready while the worker is busy
// and ready afterwards.
TEST(ExecutorTest, DeadlineExpiresWhileQueued) {
  TempShardPaths paths("exec_deadline", 1);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 1);
  options.async.inline_single_shard = false;  // force the worker + queue
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->async_enabled());

  // Occupy the single worker with a large batch so the timed batch below
  // is still queued when its deadline passes.
  constexpr size_t kBig = 300000;
  std::vector<uint64_t> keys(kBig), values(kBig);
  std::vector<Status> big_status(kBig);
  for (size_t i = 0; i < kBig; ++i) {
    keys[i] = i + 1;
    values[i] = i;
  }
  BatchFuture big = store->SubmitInsert(keys.data(), values.data(), kBig,
                                        big_status.data());
  ASSERT_EQ(big.submit_status(), Status::kOk);

  constexpr size_t kSmall = 32;
  uint64_t small_keys[kSmall];
  Status small_status[kSmall];
  for (size_t i = 0; i < kSmall; ++i) small_keys[i] = 1000000 + i;
  SubmitOptions timed;
  timed.deadline = std::chrono::milliseconds(1);
  BatchFuture expired =
      store->SubmitDelete(small_keys, kSmall, small_status, timed);
  ASSERT_EQ(expired.submit_status(), Status::kOk);

  // 300k inserts take far longer than this poll.
  EXPECT_FALSE(big.WaitFor(std::chrono::nanoseconds(1)));

  expired.Wait();
  for (size_t i = 0; i < kSmall; ++i) {
    ASSERT_EQ(small_status[i], Status::kTimeout) << "slot " << i;
  }
  big.Wait();
  EXPECT_TRUE(big.WaitFor(std::chrono::nanoseconds(0)));  // ready now
  for (size_t i = 0; i < kBig; ++i) {
    ASSERT_EQ(big_status[i], Status::kOk) << "slot " << i;
  }

  // A deadline with plenty of slack executes: these keys were never
  // inserted (the expired batch did not run), so the delete reports
  // kNotFound rather than kTimeout.
  SubmitOptions slack;
  slack.deadline = std::chrono::seconds(30);
  BatchFuture ok = store->SubmitDelete(small_keys, kSmall, small_status,
                                       slack);
  ok.Wait();
  for (size_t i = 0; i < kSmall; ++i) {
    ASSERT_EQ(small_status[i], Status::kNotFound) << "slot " << i;
  }
  store->CloseClean();
}

// With submit_retries configured, a submission that finds the shard queue
// full backs off, retries, and — once the retries are exhausted — fails
// its slots with kUnavailable instead of blocking the submitter forever.
TEST(ExecutorTest, QueueFullBackoffFailsFast) {
  TempShardPaths paths("exec_backoff", 1);
  ShardedStoreOptions options = SmallStoreOptions(paths.prefix(), 1);
  options.async.inline_single_shard = false;
  options.async.queue_depth = 1;
  options.async.submit_retries = 3;
  auto store = ShardedStore::Open(options);
  ASSERT_NE(store, nullptr);
  ASSERT_TRUE(store->async_enabled());

  // A occupies the worker for tens of milliseconds; B takes the single
  // queue slot; C then finds the queue full for far longer than the
  // retry budget (3 retries: 1 + 2 + 4 us of backoff).
  constexpr size_t kBig = 300000;
  std::vector<uint64_t> a_keys(kBig), a_values(kBig);
  std::vector<Status> a_status(kBig);
  for (size_t i = 0; i < kBig; ++i) {
    a_keys[i] = i + 1;
    a_values[i] = i;
  }
  BatchFuture a = store->SubmitInsert(a_keys.data(), a_values.data(), kBig,
                                      a_status.data());
  ASSERT_EQ(a.submit_status(), Status::kOk);

  constexpr size_t kSmall = 16;
  uint64_t b_keys[kSmall], b_values[kSmall], c_keys[kSmall], c_values[kSmall];
  Status b_status[kSmall], c_status[kSmall];
  for (size_t i = 0; i < kSmall; ++i) {
    b_keys[i] = 2000000 + i;
    b_values[i] = i;
    c_keys[i] = 3000000 + i;
    c_values[i] = i;
  }
  BatchFuture b =
      store->SubmitInsert(b_keys, b_values, kSmall, b_status);
  ASSERT_EQ(b.submit_status(), Status::kOk);
  BatchFuture c =
      store->SubmitInsert(c_keys, c_values, kSmall, c_status);
  c.Wait();
  for (size_t i = 0; i < kSmall; ++i) {
    ASSERT_EQ(c_status[i], Status::kUnavailable) << "slot " << i;
  }

  a.Wait();
  b.Wait();
  for (size_t i = 0; i < kBig; ++i) ASSERT_EQ(a_status[i], Status::kOk);
  for (size_t i = 0; i < kSmall; ++i) ASSERT_EQ(b_status[i], Status::kOk);
  // The rejected batch really never executed.
  EXPECT_EQ(store->Stats().totals.records, kBig + kSmall);
  store->CloseClean();
}

// WaitFor contract on trivial futures: invalid and empty tokens report
// ready immediately.
TEST(ExecutorTest, WaitForTrivialFutures) {
  BatchFuture invalid;
  EXPECT_TRUE(invalid.WaitFor(std::chrono::nanoseconds(0)));
  TempShardPaths paths("exec_waitfor", 2);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr);
  BatchFuture empty = store->SubmitExecute(nullptr, 0, nullptr);
  EXPECT_TRUE(empty.WaitFor(std::chrono::nanoseconds(0)));
  store->CloseClean();
}

// Spin until the completion callback has run (it fires on the last
// shard's worker, possibly after Wait() already returned).
void AwaitFlag(const std::atomic<int>& flag, int want) {
  while (flag.load(std::memory_order_acquire) != want) {
    std::this_thread::yield();
  }
}

// OnReady fires exactly once per future: after completion for callbacks
// registered in-flight, immediately for futures that are already ready
// or trivially ready (invalid/empty).
TEST(ExecutorTest, OnReadyFiresExactlyOnce) {
  TempShardPaths paths("exec_onready", 2);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr);

  constexpr size_t kN = 64;
  uint64_t keys[kN], values[kN];
  Status statuses[kN];
  for (size_t i = 0; i < kN; ++i) {
    keys[i] = i + 1;
    values[i] = i;
  }
  std::atomic<int> fired{0};
  BatchFuture f = store->SubmitInsert(keys, values, kN, statuses);
  f.OnReady([&fired] { fired.fetch_add(1, std::memory_order_acq_rel); });
  f.Wait();
  AwaitFlag(fired, 1);
  for (size_t i = 0; i < kN; ++i) ASSERT_EQ(statuses[i], Status::kOk);

  // Registering after completion fires synchronously on this thread.
  std::atomic<int> late{0};
  f.OnReady([&late] { late.fetch_add(1, std::memory_order_acq_rel); });
  EXPECT_EQ(late.load(), 1);

  // Trivially-ready futures fire immediately too.
  std::atomic<int> trivial{0};
  BatchFuture invalid;
  invalid.OnReady(
      [&trivial] { trivial.fetch_add(1, std::memory_order_acq_rel); });
  BatchFuture empty = store->SubmitExecute(nullptr, 0, nullptr);
  empty.OnReady(
      [&trivial] { trivial.fetch_add(1, std::memory_order_acq_rel); });
  EXPECT_EQ(trivial.load(), 2);
  store->CloseClean();
}

// Race the registration against the completing worker: whichever side
// wins the arbitration under the completion lock, the callback fires
// exactly once and Wait() still returns. Many iterations so both
// interleavings (stored-then-fired-by-completer and
// observed-ready-fired-by-registrar) actually occur.
TEST(ExecutorTest, OnReadyVsWaitRace) {
  TempShardPaths paths("exec_onready_race", 2);
  auto store = ShardedStore::Open(SmallStoreOptions(paths.prefix(), 2));
  ASSERT_NE(store, nullptr);
  constexpr int kIters = 300;
  constexpr size_t kN = 8;
  uint64_t keys[kN], values[kN];
  Status statuses[kN];
  for (int iter = 0; iter < kIters; ++iter) {
    for (size_t i = 0; i < kN; ++i) {
      keys[i] = static_cast<uint64_t>(iter) * kN + i + 1;
      values[i] = i;
    }
    std::atomic<int> fired{0};
    BatchFuture f = store->SubmitInsert(keys, values, kN, statuses);
    std::thread waiter([&f] { f.Wait(); });
    f.OnReady([&fired] { fired.fetch_add(1, std::memory_order_acq_rel); });
    waiter.join();
    AwaitFlag(fired, 1);
    ASSERT_EQ(fired.load(), 1) << "iter " << iter;
  }
  store->CloseClean();
}

}  // namespace
}  // namespace dash::api
