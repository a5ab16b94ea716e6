// Completion tokens for the asynchronous submission API.
//
// ShardedStore::Submit* scatters a batch on the caller thread, enqueues one
// work item per touched shard on that shard's worker queue, and returns a
// BatchFuture. Each worker executes its contiguous sub-range through the
// shard's AMAC pipeline, writes results straight back into the caller's
// arrays (the gather is distributed — every regrouped slot maps to a
// distinct caller slot, so writers never overlap), and signals one shard
// completion. The future becomes ready when the last shard completes; the
// release-decrement / acquire-load pair on the pending count is what makes
// the caller's reads of its result arrays safe after Wait()/Ready().

#ifndef DASH_PM_API_BATCH_FUTURE_H_
#define DASH_PM_API_BATCH_FUTURE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <new>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "api/kv_index.h"
#include "api/status.h"

namespace dash::api {

namespace internal {

// Shared shard-completion counting. `pending` is the number of shard work
// items still outstanding; the last CompleteOne wakes every waiter and
// fires the completion callback, if one was registered.
struct CompletionState {
  std::atomic<uint32_t> pending{0};

  bool Ready() const {
    return pending.load(std::memory_order_acquire) == 0;
  }

  void Wait() {
    if (Ready()) return;
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return Ready(); });
  }

  // Bounded wait: returns Ready() after at most `timeout`. A false return
  // means the batch is still in flight — the caller's arrays are NOT yet
  // safe to read; Wait() (or another WaitFor) must still complete before
  // they are touched or freed.
  bool WaitFor(std::chrono::nanoseconds timeout) {
    if (Ready()) return true;
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, timeout, [this] { return Ready(); });
  }

  void CompleteOne() {
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::function<void()> cb;
      {
        // The lock orders the notify against a waiter that observed
        // pending != 0 but has not started waiting yet, and arbitrates
        // the callback handoff against a racing OnReady.
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
        cb = std::move(callback);
        callback = nullptr;
      }
      if (cb) cb();  // outside the lock: the callback may Wait()/resubmit
    }
  }

  // Registers the completion callback. If the batch is already complete,
  // `fn` runs synchronously on the calling thread before OnReady returns;
  // otherwise it runs exactly once on the thread that completes the last
  // shard. At most one callback is held: a second registration before
  // completion replaces the first (which is then never invoked).
  //
  // The callback-vs-completion race resolves under `mu`: either the
  // registration lands before the final CompleteOne takes the lock (the
  // completer finds and fires it), or it observes Ready() under the lock
  // and fires on the registering thread — never both, never neither.
  void OnReady(std::function<void()> fn) {
    if (!fn) return;
    {
      std::unique_lock<std::mutex> lock(mu);
      if (!Ready()) {
        callback = std::move(fn);
        return;
      }
    }
    fn();
  }

 protected:
  std::mutex mu;
  std::condition_variable cv;
  std::function<void()> callback;
};

// One submitted batch. Owns the regrouped copy of the operations (shard s
// holds the contiguous range [start[s], start[s+1])) so the request stays
// valid while it sits in queues; the caller's output arrays must outlive
// the future's completion. Make() sizes the per-op and per-shard arrays to
// the batch and places them behind the state in its one allocation.
struct BatchState : CompletionState {
  // Allocates the state together with its arrays (count ops, `shards`
  // shards), left uninitialised: SubmitScattered writes every slot before
  // any reader. One heap block, holding the shared_ptr control block too.
  static std::shared_ptr<BatchState> Make(size_t count, size_t shards);

  // Spans into the trailing storage set up by Make.
  Op* sub = nullptr;           // regrouped descriptors
  Status* sub_status = nullptr;
  uint32_t* origin = nullptr;  // regrouped slot -> caller slot
  size_t* start = nullptr;     // per-shard offsets, size shards + 1

  // Caller-owned result arrays.
  Status* statuses = nullptr;
  Op* caller_ops = nullptr;       // mixed batch: search results
  uint64_t* values_out = nullptr;  // homogeneous search: search results

  // kOk when the batch was accepted; kInvalidArgument when the store had
  // already been closed (the future is then born ready and every caller
  // status slot holds kInvalidArgument).
  Status submit_status = Status::kOk;

  // Optional per-submit deadline (AsyncOptions / SubmitOptions). A shard
  // worker that dequeues this batch after the deadline has passed fails
  // the shard's slots with kTimeout instead of executing them, so a
  // stuck or overloaded shard cannot hold the whole batch hostage.
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};

  // Runs shard s's sub-range against `index`, writes statuses (and search
  // results) back to the caller slots, and signals the shard completion.
  // Defined in executor.cc.
  void RunShard(size_t s, KvIndex* index);

  // Completes shard s without executing it: every caller slot of the
  // shard's sub-range gets `st` (kTimeout for an expired deadline,
  // kUnavailable for a quarantined shard or exhausted queue retries).
  void FailShard(size_t s, Status st) {
    const size_t begin = start[s];
    const size_t end = start[s + 1];
    for (size_t j = begin; j < end; ++j) statuses[origin[j]] = st;
    CompleteOne();
  }
};

// allocate_shared allocator that over-allocates its single block by
// `extra` bytes and reports where they start through `*tail` (written by
// allocate(), the only call that reads `tail`).
template <typename T>
struct TailAllocator {
  using value_type = T;

  TailAllocator(size_t extra_bytes, std::byte** tail_out)
      : extra(extra_bytes), tail(tail_out) {}
  template <typename U>
  TailAllocator(const TailAllocator<U>& other) noexcept
      : extra(other.extra), tail(other.tail) {}

  T* allocate(size_t n) {
    auto* block = static_cast<std::byte*>(
        ::operator new(n * sizeof(T) + extra));
    *tail = block + n * sizeof(T);
    return reinterpret_cast<T*>(block);
  }
  void deallocate(T* p, size_t n) noexcept {
    ::operator delete(p, n * sizeof(T) + extra);
  }
  template <typename U>
  bool operator==(const TailAllocator<U>& other) const noexcept {
    return extra == other.extra;
  }

  size_t extra;
  std::byte** tail;
};

inline std::shared_ptr<BatchState> BatchState::Make(size_t count,
                                                    size_t shards) {
  // Widest alignment first, so every array lands aligned (the block
  // itself is at least 8-aligned: operator new plus a whole number of
  // control blocks).
  static_assert(alignof(Op) <= alignof(size_t));
  const size_t start_bytes = (shards + 1) * sizeof(size_t);
  const size_t sub_bytes = count * sizeof(Op);
  const size_t origin_bytes = count * sizeof(uint32_t);
  const size_t extra = start_bytes + sub_bytes + origin_bytes +
                       count * sizeof(Status);
  std::byte* tail = nullptr;
  auto state = std::allocate_shared<BatchState>(
      TailAllocator<BatchState>(extra, &tail));
  state->start = reinterpret_cast<size_t*>(tail);
  state->sub = reinterpret_cast<Op*>(tail + start_bytes);
  state->origin = reinterpret_cast<uint32_t*>(tail + start_bytes + sub_bytes);
  state->sub_status = reinterpret_cast<Status*>(tail + start_bytes +
                                                sub_bytes + origin_bytes);
  return state;
}

// One Stats snapshot routed through the shard queues: shard s's worker
// fills per_shard[s] at its queue position, i.e. after every batch that
// was enqueued before the snapshot request.
struct StatsState : CompletionState {
  std::vector<IndexStats> per_shard;
};

}  // namespace internal

// Completion token of one submitted batch. Copyable (shares the underlying
// state); default-constructed futures are invalid. The submitting caller
// must keep its operation/status arrays alive and unread until the future
// is ready.
class BatchFuture {
 public:
  BatchFuture() = default;

  bool valid() const { return state_ != nullptr; }

  // Whether the submission was accepted (kOk) or rejected because the
  // store was closed (kInvalidArgument). Invalid futures report
  // kInvalidArgument.
  Status submit_status() const {
    return state_ == nullptr ? Status::kInvalidArgument
                             : state_->submit_status;
  }

  // Non-blocking completion poll. Invalid futures are trivially ready.
  bool Ready() const { return state_ == nullptr || state_->Ready(); }

  // Blocks until every shard of the batch has completed. After Wait()
  // returns, the caller's status/value arrays are fully written and safe
  // to read. No-op on invalid futures.
  void Wait() {
    if (state_ != nullptr) state_->Wait();
  }

  // Bounded wait: blocks until the batch completes or `timeout` elapses,
  // returning whether it completed. On false the batch is still running
  // and the caller's arrays remain off-limits (and must outlive it) until
  // a later Wait()/WaitFor() returns true. Invalid futures return true.
  bool WaitFor(std::chrono::nanoseconds timeout) {
    return state_ == nullptr || state_->WaitFor(timeout);
  }

  // Registers a completion callback, the serving path's alternative to
  // parking a thread in Wait(): the last shard's gather fires `fn` exactly
  // once on the completing thread (a shard worker — keep the callback
  // short and never block it on another future of the same store). If the
  // batch is already complete — including invalid and born-ready futures —
  // `fn` runs synchronously before OnReady returns. After the callback
  // begins, the caller's status/value arrays are fully written (the same
  // release/acquire edge Wait() relies on). At most one callback per
  // future: registering again before completion replaces the previous fn.
  // Wait()/WaitFor() semantics are unchanged and compose with OnReady.
  void OnReady(std::function<void()> fn) {
    if (state_ == nullptr) {
      if (fn) fn();
      return;
    }
    state_->OnReady(std::move(fn));
  }

  // Number of shard sub-batches still outstanding (0 once ready).
  uint32_t pending_shards() const {
    return state_ == nullptr
               ? 0
               : state_->pending.load(std::memory_order_acquire);
  }

 private:
  friend class ShardedStore;
  explicit BatchFuture(std::shared_ptr<internal::BatchState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::BatchState> state_;
};

}  // namespace dash::api

#endif  // DASH_PM_API_BATCH_FUTURE_H_
