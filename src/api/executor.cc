#include "api/executor.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "util/lock.h"
#include "util/thread_id.h"

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

namespace dash::api {

namespace internal {

void BatchState::RunShard(size_t s, KvIndex* index) {
  const size_t begin = start[s];
  const size_t end = start[s + 1];
  index->MultiExecute(sub + begin, end - begin, sub_status + begin);
  // Distributed gather: every regrouped slot maps to a distinct caller
  // slot, so shards write the caller's arrays concurrently without
  // overlap; the release decrement in CompleteOne publishes the writes.
  for (size_t j = begin; j < end; ++j) {
    statuses[origin[j]] = sub_status[j];
    if (sub[j].type == OpType::kSearch && IsOk(sub_status[j])) {
      if (caller_ops != nullptr) {
        caller_ops[origin[j]].value = sub[j].value;
      } else if (values_out != nullptr) {
        values_out[origin[j]] = sub[j].value;
      }
    }
  }
  CompleteOne();
}

}  // namespace internal

namespace {

// How long a pinned worker that found its queue empty polls it before
// blocking on the condition variable. About one serving request's
// round trip: a worker that sleeps between back-to-back batches pays a
// futex wake per batch, and a pinned worker owns its core anyway.
constexpr auto kPinnedIdleSpin = std::chrono::microseconds(20);

void PinToCore(size_t core) {
#if defined(__linux__)
  const unsigned n = std::thread::hardware_concurrency();
  if (n == 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(core % n), &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)core;
#endif
}

}  // namespace

ShardExecutor::ShardExecutor(std::vector<ShardCtx> shards,
                             const ExecutorOptions& options)
    : options_(options) {
  if (options_.queue_depth == 0) options_.queue_depth = 1;
  shards_.reserve(shards.size());
  queues_.reserve(shards.size());
  for (const ShardCtx& ctx : shards) {
    auto slot = std::make_unique<Slot>();
    slot->index.store(ctx.index, std::memory_order_relaxed);
    slot->epochs = ctx.epochs;
    shards_.push_back(std::move(slot));
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

ShardExecutor::~ShardExecutor() { Stop(); }

bool ShardExecutor::Submit(WorkItem item) {
  assert(item.shard < queues_.size());
  Queue& queue = *queues_[item.shard];
  {
    std::unique_lock<std::mutex> lock(queue.mu);
    queue.not_full.wait(lock, [&] {
      return queue.items.size() < options_.queue_depth || queue.stopped;
    });
    if (queue.stopped) return false;
    queue.items.push_back(std::move(item));
    queue.size.store(queue.items.size(), std::memory_order_release);
  }
  queue.not_empty.notify_one();
  return true;
}

ShardExecutor::SubmitResult ShardExecutor::TrySubmit(WorkItem item) {
  assert(item.shard < queues_.size());
  Queue& queue = *queues_[item.shard];
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    if (queue.stopped) return SubmitResult::kStopped;
    if (queue.items.size() >= options_.queue_depth) {
      return SubmitResult::kFull;
    }
    queue.items.push_back(std::move(item));
    queue.size.store(queue.items.size(), std::memory_order_release);
  }
  queue.not_empty.notify_one();
  return SubmitResult::kQueued;
}

void ShardExecutor::SetIndex(size_t shard, KvIndex* index) {
  assert(shard < shards_.size());
  shards_[shard]->index.store(index, std::memory_order_release);
}

void ShardExecutor::Stop() {
  for (auto& queue : queues_) {
    std::lock_guard<std::mutex> lock(queue->mu);
    queue->stopped = true;
  }
  for (auto& queue : queues_) {
    queue->not_empty.notify_all();
    queue->not_full.notify_all();
  }
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void ShardExecutor::WorkerLoop(size_t s) {
  if (options_.pin_workers) PinToCore(s);
  Queue& queue = *queues_[s];
  epoch::EpochManager* epochs = shards_[s]->epochs;
  const auto ckpt_interval =
      std::chrono::milliseconds(options_.checkpoint_interval_ms);
  const auto compact_interval =
      std::chrono::milliseconds(options_.compaction_interval_ms);
  auto last_ckpt = std::chrono::steady_clock::now();
  auto last_compact = last_ckpt;
  const bool timed_idle = options_.checkpoint_interval_ms != 0 ||
                          options_.compaction_interval_ms != 0;
  for (;;) {
    WorkItem item;
    {
      std::unique_lock<std::mutex> lock(queue.mu);
      if (queue.items.empty() && !queue.stopped) {
        // Going idle: advance the shard's epoch and reclaim retired
        // blocks, so garbage does not sit pinned until the next Retire.
        lock.unlock();
        epochs->TryAdvanceAndReclaim();
        // Periodic background maintenance, from the idle path only:
        // checkpoint refresh and log compaction each run between queued
        // batches (never mid-batch) and at most once per their interval.
        // Quarantined shards carry a null index — skip.
        if (options_.checkpoint_interval_ms != 0 &&
            std::chrono::steady_clock::now() - last_ckpt >= ckpt_interval) {
          KvIndex* index =
              shards_[s]->index.load(std::memory_order_acquire);
          if (index != nullptr) index->WriteCheckpoint();
          last_ckpt = std::chrono::steady_clock::now();
        }
        if (options_.compaction_interval_ms != 0 &&
            std::chrono::steady_clock::now() - last_compact >=
                compact_interval) {
          KvIndex* index =
              shards_[s]->index.load(std::memory_order_acquire);
          if (index != nullptr) index->Compact();
          last_compact = std::chrono::steady_clock::now();
        }
        if (options_.pin_workers) {
          // Bounded: an idle pinned worker burns at most this long per
          // transition to idle, then blocks below as an unpinned one does.
          const auto spin_until =
              std::chrono::steady_clock::now() + kPinnedIdleSpin;
          while (queue.size.load(std::memory_order_acquire) == 0 &&
                 std::chrono::steady_clock::now() < spin_until) {
            util::CpuRelax();
          }
        }
        lock.lock();
        if (!timed_idle) {
          queue.not_empty.wait(
              lock, [&] { return !queue.items.empty() || queue.stopped; });
        } else {
          // Timed wait (nearest of the two timers) so a shard that stays
          // idle still runs its maintenance on schedule (the wake loops
          // back to the idle block above, which decides which interval
          // elapsed).
          auto deadline = std::chrono::steady_clock::time_point::max();
          if (options_.checkpoint_interval_ms != 0) {
            deadline = std::min(deadline, last_ckpt + ckpt_interval);
          }
          if (options_.compaction_interval_ms != 0) {
            deadline = std::min(deadline, last_compact + compact_interval);
          }
          queue.not_empty.wait_until(
              lock, deadline,
              [&] { return !queue.items.empty() || queue.stopped; });
          if (queue.items.empty() && !queue.stopped) continue;
        }
      }
      if (queue.items.empty()) break;  // stopped and fully drained
      item = std::move(queue.items.front());
      queue.items.pop_front();
      queue.size.store(queue.items.size(), std::memory_order_relaxed);
    }
    queue.not_full.notify_one();
    Execute(item, s);
  }
  // Quiesced for good: hand the epoch slot and the dense thread id back
  // so future worker threads (or client threads) can adopt them.
  epochs->ReleaseCurrentThreadSlot();
  util::ReleaseThreadId();
}

void ShardExecutor::Execute(WorkItem& item, size_t s) {
  KvIndex* index = shards_[s]->index.load(std::memory_order_acquire);
  switch (item.kind) {
    case WorkItem::Kind::kBatch:
      // Deadline check at dequeue time: a batch that waited out its
      // deadline in the queue completes with kTimeout instead of running,
      // so one overloaded shard cannot stall the whole future.
      if (item.batch->has_deadline &&
          std::chrono::steady_clock::now() > item.batch->deadline) {
        item.batch->FailShard(s, Status::kTimeout);
        break;
      }
      item.batch->RunShard(s, index);
      break;
    case WorkItem::Kind::kStats:
      item.stats->per_shard[s] = index->Stats();
      item.stats->CompleteOne();
      break;
  }
}

}  // namespace dash::api
