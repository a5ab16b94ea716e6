// Per-shard execution subsystem behind ShardedStore's async submission
// API: one worker thread per shard, each owning a bounded MPSC request
// queue. Submitters (any number of client threads) enqueue work items;
// the shard's worker drains them in FIFO order through that shard's AMAC
// batch pipeline. This is what turns ShardedStore from a facade that
// time-slices shards on the caller's thread into a concurrent service
// whose throughput scales with the shard count.
//
// Ordering contract: items enqueued on one shard execute in submission
// order (per-shard FIFO); items on different shards are unordered with
// respect to each other. A full queue blocks the submitter (backpressure)
// rather than dropping or unboundedly buffering requests.
//
// Worker threads pin the shard's epochs from their own dense thread id
// (util::ThreadId) exactly like any client thread would; on exit — after
// Stop() has drained their queue — they release their epoch slot and
// return the id for reuse, so worker churn across many store open/close
// cycles cannot exhaust the process-wide id space.

#ifndef DASH_PM_API_EXECUTOR_H_
#define DASH_PM_API_EXECUTOR_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/batch_future.h"
#include "api/kv_index.h"
#include "epoch/epoch_manager.h"

namespace dash::api {

struct ExecutorOptions {
  // Maximum work items buffered per shard queue; submitters block while
  // their target queue is full.
  size_t queue_depth = 128;
  // Pin worker i to core i (mod hardware concurrency). Off by default:
  // pinning helps steady-state serving but hurts when clients and workers
  // oversubscribe a small machine. A pinned worker owns its core, so when
  // its queue runs empty it polls it for a bounded ~20 us before blocking,
  // which spares back-to-back batches a futex wake each.
  bool pin_workers = false;
  // When non-zero, each shard's worker refreshes its index checkpoint
  // from the idle path at most every this-many milliseconds (see
  // KvIndex::WriteCheckpoint — a no-op for PM-native tables). The
  // checkpoint runs on the worker thread between queued batches, never
  // in the middle of one.
  uint32_t checkpoint_interval_ms = 0;
  // When non-zero, each shard's worker runs one log-compaction pass from
  // the idle path at most every this-many milliseconds (see
  // KvIndex::Compact — a no-op unless DashOptions::compaction_trigger is
  // set and a lane's dead ratio crosses it). Same discipline as the
  // checkpoint refresh: between queued batches, never mid-batch.
  uint32_t compaction_interval_ms = 0;
};

class ShardExecutor {
 public:
  struct ShardCtx {
    KvIndex* index = nullptr;
    epoch::EpochManager* epochs = nullptr;
  };

  // One queued request for one shard.
  struct WorkItem {
    enum class Kind : uint8_t {
      kBatch,  // run batch->RunShard(shard, index)
      kStats,  // snapshot index->Stats() into stats->per_shard[shard]
    };
    Kind kind = Kind::kBatch;
    uint32_t shard = 0;
    std::shared_ptr<internal::BatchState> batch;
    std::shared_ptr<internal::StatsState> stats;
  };

  // Spawns one worker per shard. The ShardCtx pointees must outlive the
  // executor.
  ShardExecutor(std::vector<ShardCtx> shards, const ExecutorOptions& options);
  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;
  ~ShardExecutor();  // Stop()

  // Enqueues `item` on its shard's queue, blocking while the queue is
  // full. Returns false only when the executor has been stopped (the item
  // is then not enqueued and the caller owns its completion).
  bool Submit(WorkItem item);

  // Non-blocking submission attempt, for the bounded backoff-and-retry
  // path: kFull means the queue was at capacity (the caller may back off
  // and retry), kStopped that the executor is shut down. The item is only
  // enqueued on kQueued.
  enum class SubmitResult : uint8_t { kQueued, kFull, kStopped };
  SubmitResult TrySubmit(WorkItem item);

  // Swaps the index a shard's worker executes against (release store; the
  // worker loads it per item). ShardedStore::RecoverShard uses this to
  // point the worker at the freshly recovered table.
  void SetIndex(size_t shard, KvIndex* index);

  // Marks every queue stopped, drains all queued work, and joins the
  // workers. Safe to call more than once. Submissions that lost the race
  // and arrived after Stop() return false from Submit.
  void Stop();

  size_t shard_count() const { return shards_.size(); }
  // Worker s's thread, e.g. for pthread_getcpuclockid.
  std::thread::native_handle_type worker_handle(size_t s) {
    return workers_[s].native_handle();
  }
  size_t queue_depth() const { return options_.queue_depth; }

 private:
  struct Queue {
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::deque<WorkItem> items;
    bool stopped = false;
    // items.size(), published under mu, so an idle pinned worker can poll
    // for work without taking the lock.
    std::atomic<size_t> size{0};
  };

  // Internal per-shard context: the index pointer is atomic so
  // RecoverShard can swap it while the worker runs (the worker loads it
  // acquire per work item); epochs never changes after construction.
  struct Slot {
    std::atomic<KvIndex*> index{nullptr};
    epoch::EpochManager* epochs = nullptr;
  };

  void WorkerLoop(size_t s);
  void Execute(WorkItem& item, size_t s);

  ExecutorOptions options_;
  std::vector<std::unique_ptr<Slot>> shards_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
};

}  // namespace dash::api

#endif  // DASH_PM_API_EXECUTOR_H_
