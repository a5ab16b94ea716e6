// Unified key-value index interface over all five tables (Dash-EH,
// Dash-LH, CCEH, Level hashing, the hybrid tier), one class template for
// fixed 8-byte keys and for variable-length keys. The benchmark harness,
// examples and integration tests are written against this interface so
// every experiment runs table-generically.
//
// API v2: every operation reports a Status (status.h) instead of a bool,
// the batch surface gains MultiUpdate, and MultiExecute accepts a mixed
// Search/Insert/Update/Delete descriptor batch that the factory adapter
// type-partitions and dispatches through each table's AMAC batch engine.
// Key 0 (and the empty var-key) is reserved and rejected with
// Status::kInvalidArgument at this boundary.

#ifndef DASH_PM_API_KV_INDEX_H_
#define DASH_PM_API_KV_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "api/status.h"
#include "dash/config.h"
#include "epoch/epoch_manager.h"
#include "pmem/pool.h"

namespace dash::api {

enum class IndexKind {
  kDashEH,
  kDashLH,
  kCCEH,
  kLevel,
  // Hybrid DRAM-PM tier (src/hybrid/): hash structure in DRAM, values in
  // a per-thread PM log; recovery rebuilds the DRAM index from the log.
  kHybrid,
};

// Returns a short stable name ("dash-eh", "cceh", ...).
const char* IndexKindName(IndexKind kind);
// Parses the name back; returns false on unknown names.
bool ParseIndexKind(std::string_view name, IndexKind* kind);

struct IndexStats {
  uint64_t records = 0;
  uint64_t capacity_slots = 0;
  double load_factor = 0.0;
  // Heap bytes the index's pool has handed out (bump high-water mark:
  // includes blocks awaiting epoch reclamation, so an upper bound).
  uint64_t bytes_used = 0;
  // Page size backing the pool mapping (4096, or 2 MB when the pool got
  // huge pages — hugetlbfs or transparent huge pages). Software
  // prefetches only survive a DTLB miss when the TLB can hold the working
  // set, so this is the knob that decides whether the batch pipeline's
  // extra prefetches actually land.
  uint64_t pool_page_bytes = 4096;
  // Read-path concurrency telemetry (cumulative since table open), for
  // tables with optimistic versioned search paths (CCEH, Level): how
  // often optimistic reads retried after a failed revalidation, how often
  // a snapshot observed an active writer, and how many exclusive
  // (lock-word-writing) acquisitions the write paths performed. In a
  // search-only phase `write_locks` staying zero is the observable form
  // of "searches perform no lock-word writes". Dash tables' optimistic
  // buckets predate these counters and report zeros.
  uint64_t opt_retries = 0;
  uint64_t version_conflicts = 0;
  uint64_t write_locks = 0;
  // Write-path bucket-lock telemetry (cumulative since table open) for
  // the Dash tables: exclusive BucketLock acquisitions and backoff pauses
  // spent contended behind a holder. CCEH/Level have no per-bucket locks
  // and report zeros (their write-path locking shows up in write_locks).
  uint64_t bucket_lock_acquisitions = 0;
  uint64_t bucket_lock_contended_spins = 0;
  // Recovery provenance of this open. PM-native tables report kNative
  // (their structure never left PM — restart is already a load); the
  // hybrid tier reports kFresh, kScan (full log-scan rebuild), or
  // kCheckpoint (checkpoint load + tail replay). With kCheckpoint,
  // `recovery_replayed` counts the tail records applied on top of the
  // checkpoint and `recovery_staleness` the committed seqs past the
  // checkpoint frontier (0 after a quiesced clean close).
  RecoverySource recovery_source = RecoverySource::kNative;
  uint64_t recovery_replayed = 0;
  uint64_t recovery_staleness = 0;
  // Hybrid log compaction telemetry (cumulative since open; zeros for
  // PM-native tables). `log_dead_slots` counts recycled-then-freed record
  // slots across lanes; `compaction_dead_ratio` is the worst per-lane
  // dead/capacity ratio — the value Compact() weighs against
  // DashOptions::compaction_trigger.
  uint64_t log_dead_slots = 0;
  double compaction_dead_ratio = 0.0;
  uint64_t compactions = 0;
  uint64_t compaction_chunks_reclaimed = 0;
  uint64_t compaction_bytes_rewritten = 0;
  // Value-log footprint (hybrid tier): chunks currently linked across all
  // lanes and the bytes they pin. log_chunk_bytes / (records * 32) is the
  // live-space amplification the churn bench gates on.
  uint64_t log_chunks = 0;
  uint64_t log_chunk_bytes = 0;
};

// Key-value index over keys of type K, with one interface for both key
// shapes: KvIndex (fixed 8-byte keys) and VarKvIndex (variable-length
// keys, §4.5 pointer mode). All operations are thread-safe. Key 0 (the
// CCEH baseline's empty-slot marker) and the empty var-key are reserved;
// every entry point rejects them with Status::kInvalidArgument.
template <typename K>
class BasicKvIndex {
 public:
  using Key = K;
  using OpDesc = BasicOp<K>;

  virtual ~BasicKvIndex() = default;

  // Inserts key -> value. kOk, kExists, kOutOfSpace, kInvalidArgument.
  virtual Status Insert(Key key, uint64_t value) = 0;
  // Looks up key; writes *value on kOk. kOk, kNotFound, kInvalidArgument.
  virtual Status Search(Key key, uint64_t* value) = 0;
  // Replaces the payload of an existing key. kOk, kNotFound,
  // kInvalidArgument.
  virtual Status Update(Key key, uint64_t value) = 0;
  // Deletes key. kOk, kNotFound, kInvalidArgument.
  virtual Status Delete(Key key) = 0;

  // ---- batched operations ----
  //
  // Semantically identical to looping the single-op calls over the spans,
  // with per-slot statuses written to the output array (all arrays hold
  // `count` entries). The tables run each group of operations through
  // their AMAC prefetch engine and amortize one epoch guard per group.

  // statuses[i] = Search(keys[i], &values[i]).
  virtual void MultiSearch(const Key* keys, size_t count, uint64_t* values,
                           Status* statuses) = 0;
  // statuses[i] = Insert(keys[i], values[i]).
  virtual void MultiInsert(const Key* keys, const uint64_t* values,
                           size_t count, Status* statuses) = 0;
  // statuses[i] = Update(keys[i], values[i]).
  virtual void MultiUpdate(const Key* keys, const uint64_t* values,
                           size_t count, Status* statuses) = 0;
  // statuses[i] = Delete(keys[i]).
  virtual void MultiDelete(const Key* keys, size_t count,
                           Status* statuses) = 0;

  // Mixed-operation batch: executes `count` descriptors and writes one
  // Status per descriptor; search results land in ops[i].value. A
  // malformed descriptor (type byte out of range) gets kInvalidArgument.
  //
  // Ordering contract: the batch is processed in bounded chunks; each
  // chunk is stably partitioned by op type and the type groups run in
  // OpType declaration order (search, insert, update, delete). Ops of the
  // same type always keep their relative order; ops of *different* types
  // on the same key may be reordered within a chunk, so batches needing a
  // serial left-to-right guarantee across types must split at the
  // dependency. Each type group runs through the table's batch engine,
  // which is what makes a heterogeneous batch as fast as four
  // homogeneous ones.
  virtual void MultiExecute(OpDesc* ops, size_t count, Status* statuses) = 0;

  // Warms the cache lines the given keys' probes will touch by running
  // only the resolve-and-prefetch stages of the table's batch engine
  // (`for_write` fetches the lines a write locks for ownership). A pure
  // hint with no semantic effect; ShardedStore uses it to overlap one
  // shard's memory stalls with another shard's execution.
  virtual void PrefetchBatch(const Key* keys, size_t count,
                             bool for_write) = 0;

  // Structural self-check, run after crash recovery: directory pointers
  // inside the pool, depths consistent, bucket metadata sane. Returns
  // false when the recovered image is structurally corrupt — ShardedStore
  // quarantines such a shard instead of serving from it. Read-only and
  // O(directory + buckets); tables without a native check accept
  // everything.
  virtual bool Verify() = 0;

  // Writes a crash-consistent checkpoint of the index's DRAM-resident
  // state (hybrid tier), so the next open is a load plus a bounded tail
  // replay instead of a full scan. Safe under concurrent operations;
  // returns false when the index has nothing to checkpoint (PM-native
  // tables), checkpointing is disabled (no path configured), or the
  // attempt was abandoned (racing splits / I/O error) — failure never
  // affects correctness, only the speed of the next open. The shard
  // workers' idle path and CloseClean call this.
  virtual bool WriteCheckpoint() = 0;

  // Runs one online log-compaction pass (hybrid tier): lanes whose
  // dead-slot ratio exceeds DashOptions::compaction_trigger get their
  // oldest chunk rewritten — live records copied to the tail, the
  // drained chunk returned to the pool. Safe under concurrent
  // operations; returns false when nothing qualified, compaction is
  // disabled (trigger 0), or the index has no log (PM-native tables).
  // The shard workers' idle path calls this on a timer.
  virtual bool Compact() = 0;

  // Marks a clean shutdown (before closing the pool).
  virtual void CloseClean() = 0;
  virtual IndexStats Stats() = 0;
  virtual IndexKind kind() const = 0;
};

using KvIndex = BasicKvIndex<uint64_t>;
using VarKvIndex = BasicKvIndex<std::string_view>;

// Creates (or re-opens, if the pool already holds one) an index of `kind`
// in `pool`'s root area. `options` supplies Dash knobs; baselines map the
// structural fields onto their own parameters.
std::unique_ptr<KvIndex> CreateKvIndex(IndexKind kind, pmem::PmPool* pool,
                                       epoch::EpochManager* epochs,
                                       const DashOptions& options);

std::unique_ptr<VarKvIndex> CreateVarKvIndex(IndexKind kind,
                                             pmem::PmPool* pool,
                                             epoch::EpochManager* epochs,
                                             const DashOptions& options);

}  // namespace dash::api

#endif  // DASH_PM_API_KV_INDEX_H_
