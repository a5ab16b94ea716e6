// ShardedStore: N hash-partitioned KvIndex instances behind one Status-
// based serving surface. Each shard owns its own PM pool, epoch manager,
// and — by default — a dedicated worker thread with a bounded request
// queue (see executor.h), so a cross-shard batch genuinely runs in
// parallel: the caller scatters and enqueues, N workers execute their
// contiguous sub-batches through their shard's AMAC pipeline, and the
// results are gathered back into the caller's arrays as each shard
// completes.
//
// Submission surface:
//   * Submit{Execute,Search,Insert,Update,Delete} enqueue a batch and
//     return a BatchFuture immediately; the caller's op/status/value
//     arrays must stay alive and unread until the future is ready.
//   * The synchronous Multi* entry points are thin submit+wait wrappers
//     (identical per-op semantics to the PR2 facade), so existing callers
//     keep working unchanged.
//   * Single-op Insert/Search/Update/Delete route directly to the owning
//     shard on the caller's thread, bypassing the queues.
//
// Ordering contract: batches submitted to the same shard execute in
// submission order (per-shard FIFO); sub-batches on different shards are
// unordered relative to each other. Two ops on the same key always route
// to the same shard, so a single submitter that never overlaps dependent
// batches observes serial semantics. Single-op calls bypass the queues
// and may overtake queued batches.
//
// Shard routing re-mixes the table hash (splitmix64 over HashInt64) so a
// shard's key population stays uniform in every hash-bit range the tables
// consume (MSB directory bits, bucket bits, fingerprint bits) — routing
// on raw hash bits would starve one of those ranges inside each shard.
//
// The pool mapper supports a bounded number of concurrently mapped pools
// (16 fixed base addresses, see pmem/pool.cc); keep `shards` well under
// that. The shard count and table kind decide key routing, so they are
// recorded in a `<path_prefix>.manifest` file at creation; Open refuses a
// mismatched configuration instead of silently misrouting keys. The
// manifest (v2) carries an epoch and a checksum and is replaced via
// write-to-temp + rename, so a crash mid-write leaves either the old or
// the new manifest — a torn one is detected and rejected.
//
// Fault isolation: shards are recovered in parallel at Open, each
// followed by a structural verify when the pool was dirty. A shard whose
// pool fails to open, whose identity tag mismatches (swapped files), or
// whose verify fails is *quarantined* instead of failing the whole store:
// ops routed to it return kUnavailable while every other shard keeps
// serving. RecoverShard() re-attempts recovery and re-admits the shard
// on success.

#ifndef DASH_PM_API_SHARDED_STORE_H_
#define DASH_PM_API_SHARDED_STORE_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <vector>

#include "api/batch_future.h"
#include "api/executor.h"
#include "api/kv_index.h"
#include "api/status.h"
#include "dash/config.h"
#include "epoch/epoch_manager.h"
#include "pmem/pool.h"

namespace dash::api {

// Knobs of the per-shard worker subsystem.
struct AsyncOptions {
  // Spawn one worker thread + bounded queue per shard. When false, Submit*
  // executes inline on the caller's thread (the future is born ready) and
  // Multi* keep the sequential scatter/execute/gather path — useful as a
  // baseline and on single-core machines.
  bool workers = true;
  // Per-shard queue depth; submitters block while their shard's queue is
  // full (backpressure).
  size_t queue_depth = 128;
  // Pin worker i to core i (mod hardware concurrency).
  bool pin_workers = false;
  // A 1-shard store skips the executor even when workers == true: there
  // is no cross-shard parallelism to win, only a thread hop to pay.
  bool inline_single_shard = true;
  // Opt-in bounded backoff on a full shard queue (replacing the
  // unconditional block): a submission that finds a queue at capacity
  // retries up to `submit_retries` times with exponential backoff (1 us,
  // doubling, capped at 1024 us); when the retries are exhausted the
  // shard's slots complete with kUnavailable instead of stalling the
  // submitter forever. 0 keeps the blocking behaviour.
  size_t submit_retries = 0;
};

// Per-submission knobs (defaulted trailing parameter of every Submit*).
struct SubmitOptions {
  // Relative deadline for the whole batch; zero = none. A shard worker
  // that dequeues a sub-batch after the deadline has passed completes its
  // slots with kTimeout instead of executing them, so a stuck shard
  // cannot hold the future hostage; WaitFor() then observes completion.
  std::chrono::nanoseconds deadline{0};
};

struct ShardedStoreOptions {
  IndexKind kind = IndexKind::kDashEH;
  // Number of shards (>= 1). Pool files are `<path_prefix>.shard<i>`.
  size_t shards = 4;
  std::string path_prefix;
  size_t shard_pool_size = 1ull << 30;  // per shard
  DashOptions table;
  AsyncOptions async;
  // Threads used to open/recover the shards in parallel; 0 = one per
  // shard, capped at the hardware concurrency. 1 recovers serially.
  size_t recovery_threads = 0;
  // Quarantine a pre-existing shard that fails open, tag check, or verify
  // instead of failing the whole store. A shard that fails *creation*
  // always fails the open (there is no data to degrade around). When
  // false, any shard failure fails the open (pre-PR behaviour).
  bool quarantine_failed_shards = true;
  // Run the index's structural verify on every shard whose pool was not
  // cleanly shut down (crash recovery).
  bool verify_on_open = true;
  // Derive a per-shard checkpoint path (`<path_prefix>.shard<i>.ckpt`)
  // for tables with a DRAM-resident index (hybrid), so a reopen loads the
  // index instead of rebuilding it from a full log scan. PM-native tables
  // ignore the path (their restart is already a load). When false, the
  // table config's own checkpoint_path (normally empty) is used verbatim.
  bool checkpoints = true;
  // Ask each shard's worker to refresh its checkpoint from the idle path
  // every this-many milliseconds (0 = only at CloseClean). Requires the
  // async executor; inline stores checkpoint only at CloseClean.
  uint32_t checkpoint_interval_ms = 0;
  // Ask each shard's worker to run a log-compaction pass from the idle
  // path every this-many milliseconds (0 = never; compaction also needs
  // table.compaction_trigger > 0 or every pass is a no-op). Requires the
  // async executor; inline stores compact only via explicit Compact()
  // calls on the underlying index.
  uint32_t compaction_interval_ms = 0;
};

struct ShardedStats {
  // Every counter summed over *healthy* shards; load_factor recomputed
  // from the sums, compaction_dead_ratio and pool_page_bytes the worst
  // shard's. recovery_source stays default: per-shard provenance is in
  // RecoveryReport::shard_source.
  IndexStats totals;
  size_t shard_count = 0;
  // Load-factor spread across healthy shards: a wide gap means the
  // routing hash is skewed for this workload.
  double min_shard_load_factor = 0.0;
  double max_shard_load_factor = 0.0;
  // Degradation: shards currently quarantined (excluded from totals; ops
  // routed to them return kUnavailable).
  size_t quarantined_count = 0;
  std::vector<size_t> quarantined_shards;
};

// How the last Open recovered the shards (timing + quarantine outcome);
// bench_tab1_recovery's --shards mode reports these numbers.
struct RecoveryReport {
  size_t threads = 0;           // recovery thread count actually used
  double total_ms = 0.0;        // wall time of the parallel open phase
  std::vector<double> shard_ms;        // per-shard open+verify time
  std::vector<bool> shard_recovered;   // pool was dirty -> recovery ran
  std::vector<size_t> quarantined;     // shards quarantined at open
  // Recovery provenance per shard: "fresh" / "native" / "scan" /
  // "checkpoint" (RecoverySourceName), "quarantined" when the shard
  // failed open. Replayed = log records applied past the checkpoint's
  // watermarks; staleness = log sequence numbers the checkpoint was
  // behind the tail at open (both 0 unless source == "checkpoint").
  std::vector<std::string> shard_source;
  std::vector<uint64_t> shard_replayed;
  std::vector<uint64_t> shard_staleness;
};

class ShardedStore {
 public:
  // Opens (or creates) every shard pool and, unless configured inline,
  // starts the per-shard workers. Returns nullptr if any pool or index
  // fails to open, or if an existing manifest disagrees with the
  // requested shard count / kind; already-opened shards are released.
  static std::unique_ptr<ShardedStore> Open(
      const ShardedStoreOptions& options);

  ShardedStore(const ShardedStore&) = delete;
  ShardedStore& operator=(const ShardedStore&) = delete;
  ~ShardedStore();

  // Single operations route to the owning shard on the caller's thread.
  // Thread-safe; not ordered against queued batches. Ops routed to a
  // quarantined shard return kUnavailable.
  Status Insert(uint64_t key, uint64_t value);
  Status Search(uint64_t key, uint64_t* value);
  Status Update(uint64_t key, uint64_t value);
  Status Delete(uint64_t key);

  // ---- degraded-mode management ----

  // Whether shard i is quarantined (failed open/verify; ops to it return
  // kUnavailable while the rest of the store serves).
  bool IsQuarantined(size_t i) const {
    return i < shards_.size() &&
           quarantined_[i].load(std::memory_order_acquire);
  }
  size_t QuarantinedCount() const {
    size_t n = 0;
    for (size_t i = 0; i < shards_.size(); ++i) {
      if (IsQuarantined(i)) ++n;
    }
    return n;
  }

  // Re-attempts recovery of a quarantined shard (reopen pool + index +
  // verify) and re-admits it on success. kOk: the shard is healthy (also
  // when it never was quarantined). kUnavailable: recovery failed, the
  // shard stays quarantined (e.g. the pool file is still corrupt — the
  // operator may delete it and call again to start the shard empty).
  // kInvalidArgument: bad index or closed store. Serialized against
  // CloseClean and concurrent RecoverShard calls; ops on other shards
  // keep running.
  Status RecoverShard(size_t i);

  // Timing and quarantine outcome of the parallel open (stable after
  // Open returns).
  const RecoveryReport& recovery_report() const { return recovery_; }

  // ---- asynchronous submission ----
  //
  // Scatters the batch by shard on the caller's thread, enqueues one work
  // item per touched shard, and returns a completion token. The caller's
  // arrays (ops/keys/values/statuses) must stay alive — and result slots
  // unread — until the returned future is ready. After CloseClean, every
  // Submit* rejects: the future is born ready with submit_status() ==
  // kInvalidArgument and every status slot set to kInvalidArgument.

  // Mixed-op batch; same per-op semantics as KvIndex::MultiExecute with
  // shard partitioning on top. Search results land in ops[i].value. Ops
  // of different types on the same key may be reordered within the batch
  // (same-type ops keep their relative order); split batches at
  // cross-type same-key dependencies. Slots routed to a quarantined
  // shard complete immediately with kUnavailable; slots whose shard
  // dequeues them after `submit.deadline` complete with kTimeout.
  BatchFuture SubmitExecute(Op* ops, size_t count, Status* statuses,
                            const SubmitOptions& submit = {});

  // Homogeneous variants (contract of the KvIndex counterparts).
  BatchFuture SubmitSearch(const uint64_t* keys, size_t count,
                           uint64_t* values, Status* statuses,
                           const SubmitOptions& submit = {});
  BatchFuture SubmitInsert(const uint64_t* keys, const uint64_t* values,
                           size_t count, Status* statuses,
                           const SubmitOptions& submit = {});
  BatchFuture SubmitUpdate(const uint64_t* keys, const uint64_t* values,
                           size_t count, Status* statuses,
                           const SubmitOptions& submit = {});
  BatchFuture SubmitDelete(const uint64_t* keys, size_t count,
                           Status* statuses,
                           const SubmitOptions& submit = {});

  // ---- synchronous wrappers (submit + wait) ----

  void MultiSearch(const uint64_t* keys, size_t count, uint64_t* values,
                   Status* statuses);
  void MultiInsert(const uint64_t* keys, const uint64_t* values,
                   size_t count, Status* statuses);
  void MultiUpdate(const uint64_t* keys, const uint64_t* values,
                   size_t count, Status* statuses);
  void MultiDelete(const uint64_t* keys, size_t count, Status* statuses);
  void MultiExecute(Op* ops, size_t count, Status* statuses);

  // Sums shard stats and reports the shard load-factor spread. With
  // workers, the snapshot is routed through the shard queues, so each
  // shard's numbers reflect a point between two queued batches — never
  // the middle of one. Returns zeros after CloseClean.
  ShardedStats Stats();

  // Clean shutdown: stops accepting submissions (subsequent Submit*/
  // Multi* reject with kInvalidArgument), drains every queued batch,
  // joins the workers, then closes every shard (table marker, epoch
  // drain, pool). Idempotent; single-op calls are invalid afterwards.
  void CloseClean();

  size_t shard_count() const { return shards_.size(); }
  // Whether per-shard workers are running (false for inline stores).
  bool async_enabled() const { return executor_ != nullptr; }
  // The shard index `key` routes to (stable across runs).
  size_t ShardOf(uint64_t key) const;
  // Direct access for tests / introspection.
  KvIndex* shard(size_t i) { return shards_[i].index.get(); }

 private:
  struct Shard {
    std::unique_ptr<pmem::PmPool> pool;
    std::unique_ptr<epoch::EpochManager> epochs;
    std::unique_ptr<KvIndex> index;
  };

  ShardedStore() = default;

  // The single-op front end: reserved-key check, the owning shard's close
  // gate held shared for the call, the accepting and quarantine checks,
  // then `fn(index)` on the owning shard's index.
  template <typename Fn>
  Status RunSingle(uint64_t key, Fn fn);

  void ExecuteScattered(Op* ops, size_t count, Status* statuses,
                        uint32_t* shard_of, size_t* start, uint32_t* origin,
                        Op* sub, Status* sub_status, size_t* cursor);

  enum class BatchKind { kSearch, kInsert, kUpdate, kDelete };

  // Stable bucket sort of `count` items by shard. `key_at(i)` returns the
  // routing key of caller slot i; afterwards shard s owns regrouped slots
  // [start[s], start[s+1]) and origin[j] is the caller index of slot j.
  // Scratch spans: shard_of/origin hold `count`, start holds shards+1,
  // cursor holds shards.
  template <typename KeyAt>
  void PlanScatter(size_t count, KeyAt key_at, uint32_t* shard_of,
                   size_t* start, size_t* cursor, uint32_t* origin) {
    const size_t num_shards = shards_.size();
    for (size_t s = 0; s <= num_shards; ++s) start[s] = 0;
    for (size_t i = 0; i < count; ++i) {
      shard_of[i] = static_cast<uint32_t>(ShardOf(key_at(i)));
      ++start[shard_of[i] + 1];
    }
    for (size_t s = 0; s < num_shards; ++s) {
      start[s + 1] += start[s];
      cursor[s] = start[s];
    }
    for (size_t i = 0; i < count; ++i) {
      origin[cursor[shard_of[i]]++] = static_cast<uint32_t>(i);
    }
  }

  // When the store is closed, fills every status slot with
  // kInvalidArgument and returns true. Authoritative when the caller
  // holds the relevant gates; used gate-free only as a fast-path check
  // (the gated re-check follows).
  bool RejectClosed(Status* statuses, size_t count) const {
    if (accepting_.load(std::memory_order_acquire)) return false;
    for (size_t i = 0; i < count; ++i) {
      statuses[i] = Status::kInvalidArgument;
    }
    return true;
  }

  // Shared submission path: scatter into `state`, then enqueue (or run
  // inline when no executor). `key_at(i)` returns caller slot i's routing
  // key (cheap, called during the scatter); `make_op(i)` materializes its
  // full descriptor once for the regrouped copy; `run_direct(index)`
  // executes the batch natively out of the caller's arrays — used by the
  // single-shard inline fast path, which needs no scatter state at all.
  template <typename KeyAt, typename MakeOp, typename RunDirect>
  BatchFuture SubmitScattered(std::shared_ptr<internal::BatchState> state,
                              size_t count, KeyAt key_at, MakeOp make_op,
                              RunDirect run_direct);

  // Sequential scatter/prime/dispatch/gather loop behind the homogeneous
  // Multi* entry points when no executor is running. `values_in` feeds
  // insert/update payloads; `values_out` receives search results; either
  // may be null.
  void MultiUniform(BatchKind kind, const uint64_t* keys,
                    const uint64_t* values_in, uint64_t* values_out,
                    size_t count, Status* statuses);

  static ShardedStats Aggregate(const IndexStats* per_shard, size_t count);

  // Per-shard table config: the store-wide DashOptions with the shard's
  // derived checkpoint path (see ShardedStoreOptions::checkpoints).
  DashOptions ShardTableOptions(size_t i) const {
    DashOptions table = options_.table;
    if (options_.checkpoints) {
      table.checkpoint_path =
          options_.path_prefix + ".shard" + std::to_string(i) + ".ckpt";
    }
    return table;
  }

  std::vector<Shard> shards_;

  // quarantined_[i]: shard i failed open/tag-check/verify and is excluded
  // from serving until RecoverShard re-admits it. Read with acquire on
  // every routing decision; flipped with release only by Open (before the
  // store is visible) and RecoverShard (under close_mu_ + the shard's
  // exclusive gate).
  std::unique_ptr<std::atomic<bool>[]> quarantined_;
  RecoveryReport recovery_;
  // Retained for RecoverShard (pool path, sizes, table config).
  ShardedStoreOptions options_;

  // Per-shard close gates (replacing the PR-3 store-wide shared_mutex):
  // each shard owns one cacheline-padded gate; a single op holds only its
  // own shard's gate shared for the duration of the probe, and a batch
  // holds the gates of exactly the shards it touches (acquired in
  // ascending shard order — the same order CloseClean sweeps — so the
  // two can never deadlock). The old design made every single op take a
  // shared-mode CAS on one store-wide cacheline, which bounced between
  // every core serving traffic; gates keep that line per shard.
  //
  // CloseClean flips `accepting_` and then locks/unlocks every gate
  // exclusively once, in order. The sweep (a) waits out every in-flight
  // holder that read accepting_ == true, and (b) forms a release/acquire
  // edge through each gate, so any later holder of that gate observes
  // accepting_ == false and backs off before touching the shard.
  struct alignas(64) ShardGate {
    std::shared_mutex mu;
  };

  // RAII shared hold on a set of gates, ascending. Either every gate
  // (`LockAll`) or the shards a scatter touched (`LockTouched`, where
  // start[s + 1] > start[s] marks shard s as touched).
  class GateSpan {
   public:
    GateSpan() = default;
    GateSpan(const GateSpan&) = delete;
    GateSpan& operator=(const GateSpan&) = delete;
    ~GateSpan() { Release(); }

    void LockAll(ShardGate* gates, size_t n) {
      gates_ = gates;
      n_ = n;
      start_ = nullptr;
      for (size_t s = 0; s < n; ++s) gates[s].mu.lock_shared();
    }
    void LockTouched(ShardGate* gates, const size_t* start, size_t n) {
      gates_ = gates;
      n_ = n;
      start_ = start;
      for (size_t s = 0; s < n; ++s) {
        if (start[s + 1] > start[s]) gates[s].mu.lock_shared();
      }
    }
    void Release() {
      if (gates_ == nullptr) return;
      for (size_t s = 0; s < n_; ++s) {
        if (start_ == nullptr || start_[s + 1] > start_[s]) {
          gates_[s].mu.unlock_shared();
        }
      }
      gates_ = nullptr;
    }

   private:
    ShardGate* gates_ = nullptr;
    const size_t* start_ = nullptr;
    size_t n_ = 0;
  };

  std::unique_ptr<ShardGate[]> gates_;
  // Idempotency latch and fast-path reject flag; authoritative only when
  // read under a gate (see ShardGate comment). `close_mu_` serializes
  // whole CloseClean calls, so a concurrent second caller blocks until
  // the first close (drain + shard teardown) has fully finished instead
  // of returning mid-close.
  std::mutex close_mu_;
  std::atomic<bool> accepting_{true};

  // Declared last: destroyed first, which joins the workers before the
  // shards they execute on go away.
  std::unique_ptr<ShardExecutor> executor_;
};

}  // namespace dash::api

#endif  // DASH_PM_API_SHARDED_STORE_H_
