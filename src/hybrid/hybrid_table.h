// Hybrid DRAM-PM tier (ROADMAP item 1): the entire hash structure —
// directory, segments, fingerprint buckets, stash — lives in ordinary
// DRAM; only the KV payload sits on PM, in the per-thread append-only log
// of pm_log.h, behind an 8-byte PmOffset handle stored in the DRAM slot.
// This is the Halo/HESH hybrid idiom (SNIPPETS.md): a search pays DRAM
// probes plus exactly ONE PM read (the value record), where the
// PM-resident tables (dash-eh/lh, CCEH, level) pay several PM reads per
// probe; writes pay one PM record append (16 bytes of data + an 8-byte
// atomic meta publish) instead of persisting bucket metadata in place.
//
// Concurrency mirrors the Dash §4.4 discipline already used by the other
// tables: one version lock per segment, exclusively held by writers;
// searches are lock-free snapshot/probe/revalidate. Because the structure
// is volatile, splits and directory doubling are pure DRAM operations —
// no mini-transactions, no persistence ordering; crash consistency is
// entirely the log's problem.
//
// Durability contract: an operation is durable when its log record's meta
// word is published (Append returns). Recovery (any open of an existing
// pool — the DRAM index always perished with the process) scans the log
// chains, keeps the highest-seq record per key (a winning tombstone makes
// the key absent), garbage-collects superseded records and spent
// tombstones, and re-inserts the winners. Every acked op was published
// before returning, so the rebuilt table equals the model exactly — the
// same exact-state contract the crash sweep checks for the PM tables.
//
// Reclamation: update/delete garbage (the superseded record, plus the
// tombstone once it is no longer needed for crash-ordering) is retired
// through the shared EpochManager and zeroed + returned to the lane free
// list after the grace period, because lock-free readers may still
// dereference the old handle. A delete zeroes the superseded record
// strictly before its tombstone so a crash between the two never
// resurrects the key.
//
// Compaction: slot recycling alone does not shrink chains — update churn
// strands dead slots across old chunks. Compact() (driven by the shard
// workers' idle path when DashOptions::compaction_trigger > 0) claims the
// oldest chunk of each lane whose dead ratio crosses the trigger, walks
// the index under segment locks and relocates every live record that
// sits in a victim (append a copy with a fresh seq, swing the slot's
// handle exactly like an update, epoch-retire the old record), then
// unlinks and frees the fully drained chunk. Optimistic readers chasing a
// stale handle revalidate and retry exactly as for updates; see pm_log.h
// for why a freed chunk can never be reached by a reader.

#ifndef DASH_PM_HYBRID_HYBRID_TABLE_H_
#define DASH_PM_HYBRID_HYBRID_TABLE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dash/config.h"
#include "dash/key_policy.h"
#include "dash/op_status.h"
#include "dash/table_front.h"
#include "epoch/epoch_manager.h"
#include "hybrid/pm_log.h"
#include "pmem/crash_point.h"
#include "pmem/index_persist.h"
#include "pmem/persist.h"
#include "pmem/pool.h"
#include "util/amac.h"
#include "util/lock.h"
#include "util/prefetch.h"

namespace dash::hybrid {

inline constexpr uint64_t kSlotsPerBucket = 8;
// Empty-slot marker. Key 0 is reserved at the API boundary (IsReservedKey)
// and a null VarKey pointer never names a live blob, so 0 is free in both
// key modes — same convention as CCEH.
inline constexpr uint64_t kEmptyKey = 0;
// Bucket meta bit: some key homed here overflowed to the segment stash.
// Sticky (never cleared on delete) — a false positive costs one extra
// DRAM stash scan, never a wrong answer.
inline constexpr uint64_t kStashHint = 1;

// SWAR fingerprint filter over the packed fps word: XOR against the
// broadcast fingerprint turns matching bytes to zero, then the classic
// has-zero-byte trick ((x - 0x01..) & ~x & 0x80..) lights bit 7 of every
// zero byte — one branch-free pass instead of eight byte extractions.
// The trick can light the byte directly above a match (borrow artifact);
// like any fingerprint collision, the key compare behind the filter
// absorbs that, and matches are never missed.
inline uint64_t MatchFps(uint64_t fps, uint8_t fp) {
  const uint64_t x = fps ^ (0x0101010101010101ull * fp);
  return (x - 0x0101010101010101ull) & ~x & 0x8080808080808080ull;
}

// One DRAM slot: stored key word + PmOffset handle of the live record.
// Invariant: slot.key == Record(slot.off)->key (same word, shared
// ownership of the VarKey blob in pointer mode). Optimistic readers probe
// without the segment lock, so racing fields go through 8-byte atomics.
struct HybridSlot {
  uint64_t key;
  uint64_t off;

  uint64_t LoadKeyAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&key)->load(
        std::memory_order_acquire);
  }
  uint64_t LoadOffAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&off)->load(
        std::memory_order_acquire);
  }
  void StoreKeyRelease(uint64_t k) {
    reinterpret_cast<std::atomic<uint64_t>*>(&key)->store(
        k, std::memory_order_release);
  }
  void StoreOffRelease(uint64_t o) {
    reinterpret_cast<std::atomic<uint64_t>*>(&off)->store(
        o, std::memory_order_release);
  }
};
static_assert(sizeof(HybridSlot) == 16);

// Bucket: one fingerprint byte per slot packed in a word (load once,
// filter eight slots — for pointer keys this is what keeps PM blob derefs
// off the miss path), a meta word for the stash hint, then the slots.
struct HybridBucket {
  uint64_t fps;
  uint64_t meta;
  HybridSlot slots[kSlotsPerBucket];

  uint64_t LoadFpsAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&fps)->load(
        std::memory_order_acquire);
  }
  void StoreFpsRelease(uint64_t f) {
    reinterpret_cast<std::atomic<uint64_t>*>(&fps)->store(
        f, std::memory_order_release);
  }
  uint64_t LoadMetaAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&meta)->load(
        std::memory_order_acquire);
  }
  // Writer-side helpers; callers hold the segment lock, so plain
  // read-modify-write through the atomic view is race-free.
  void SetFp(size_t s, uint8_t fp) {
    const uint64_t shift = 8 * s;
    StoreFpsRelease((LoadFpsAcquire() & ~(0xffull << shift)) |
                    (static_cast<uint64_t>(fp) << shift));
  }
  void SetStashHint() {
    reinterpret_cast<std::atomic<uint64_t>*>(&meta)->store(
        LoadMetaAcquire() | kStashHint, std::memory_order_release);
  }
};
static_assert(sizeof(HybridBucket) == 144);

// DRAM segment: version-locked header + buckets + stash slot array.
struct HybridSegment {
  util::VersionLock lock;  // 4 bytes
  uint32_t num_buckets = 0;
  uint32_t stash_slots = 0;
  uint32_t local_depth_ = 0;
  uint64_t pattern_ = 0;
  uint64_t pad = 0;

  static size_t AllocSize(uint32_t nb, uint32_t ss) {
    return sizeof(HybridSegment) + nb * sizeof(HybridBucket) +
           ss * sizeof(HybridSlot);
  }
  HybridBucket* bucket(uint32_t i) {
    return reinterpret_cast<HybridBucket*>(this + 1) + i;
  }
  HybridSlot* stash(uint32_t i) {
    return reinterpret_cast<HybridSlot*>(bucket(num_buckets)) + i;
  }
  uint32_t local_depth() const {
    return reinterpret_cast<const std::atomic<uint32_t>*>(&local_depth_)
        ->load(std::memory_order_acquire);
  }
  void SetLocalDepth(uint32_t d) {
    reinterpret_cast<std::atomic<uint32_t>*>(&local_depth_)->store(
        d, std::memory_order_release);
  }
  uint64_t PatternAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&pattern_)->load(
        std::memory_order_acquire);
  }
  void StorePatternRelease(uint64_t p) {
    reinterpret_cast<std::atomic<uint64_t>*>(&pattern_)->store(
        p, std::memory_order_release);
  }

  // Same addressing split as CCEH: MSBs pick the directory entry, bits
  // 8.. pick the bucket, the low byte is the fingerprint.
  static uint32_t BucketIndex(uint64_t hash, uint32_t num_buckets) {
    return static_cast<uint32_t>((hash >> 8) & (num_buckets - 1));
  }
  static uint8_t Fingerprint(uint64_t hash) {
    return static_cast<uint8_t>(hash & 0xff);
  }
};
static_assert(sizeof(HybridSegment) == 32);

// DRAM directory (CcehDirectory shape, minus persistence).
struct HybridDirectory {
  uint64_t global_depth;

  static size_t AllocSize(uint64_t depth) {
    return sizeof(HybridDirectory) + (1ull << depth) * sizeof(uint64_t);
  }
  std::atomic<uint64_t>* entries() {
    return reinterpret_cast<std::atomic<uint64_t>*>(this + 1);
  }
  HybridSegment* entry(uint64_t i) {
    return reinterpret_cast<HybridSegment*>(
        entries()[i].load(std::memory_order_acquire));
  }
  void SetEntry(uint64_t i, HybridSegment* seg) {
    entries()[i].store(reinterpret_cast<uint64_t>(seg),
                       std::memory_order_release);
  }
};

// Preallocated DRAM segment allocator (the Halo "preallocated" idiom
// applied to the volatile half): segments are carved from slabs and
// handed out from a free list, refilled a slab at a time at a low-water
// mark, so a split's allocation is a pop — slab growth is amortized and
// never involves the PM allocator.
class SegmentArena {
 public:
  SegmentArena(size_t seg_bytes, size_t prealloc)
      : seg_bytes_((seg_bytes + 63) & ~size_t{63}) {
    Refill(prealloc > kSlabSegments ? prealloc : kSlabSegments);
  }
  SegmentArena(const SegmentArena&) = delete;
  SegmentArena& operator=(const SegmentArena&) = delete;

  void* Get() {
    util::SpinLockGuard g(lock_);
    if (free_.size() <= kLowWater) Refill(kSlabSegments);
    void* p = free_.back();
    free_.pop_back();
    return p;
  }

 private:
  static constexpr size_t kSlabSegments = 16;
  static constexpr size_t kLowWater = 2;

  void Refill(size_t n) {
    auto slab = std::make_unique<char[]>(n * seg_bytes_ + 63);
    char* base = reinterpret_cast<char*>(
        (reinterpret_cast<uintptr_t>(slab.get()) + 63) & ~uintptr_t{63});
    for (size_t i = 0; i < n; ++i) free_.push_back(base + i * seg_bytes_);
    slabs_.push_back(std::move(slab));
  }

  const size_t seg_bytes_;
  util::SpinLock lock_;
  std::vector<void*> free_;
  std::vector<std::unique_ptr<char[]>> slabs_;
};

// Persistent root: everything recovery needs — the log geometry and the
// lane chain heads. The DRAM structure is deliberately absent.
struct HybridRoot {
  uint64_t initialized;
  uint8_t clean;
  uint8_t pad[7];
  uint32_t log_lanes;
  uint32_t records_per_chunk;
  uint64_t lane_heads[kMaxLanes];
  // Open-generation counter, bumped crash-atomically on every open of an
  // existing pool. A checkpoint is stamped with the generation of the run
  // that wrote it and is valid only while the root still carries that
  // generation: any later run may have recycled log slots the checkpoint
  // references, so its mere existence invalidates older checkpoints.
  // (Pools from before this field read 0 here — no valid checkpoint can
  // match, so they fall back to the scan, which is always correct.)
  uint64_t open_gen;
};

struct HybridOptions {
  uint32_t buckets_per_segment = 64;  // 64 x 144 B + stash ~ 9.5 KB DRAM
  uint32_t stash_slots = 16;
  uint32_t initial_depth = 1;
  uint32_t log_lanes = 16;            // power of two <= kMaxLanes
  uint32_t records_per_chunk = 2048;  // 64 KB PM chunks
  // Checkpoint file path; empty disables checkpoint write and load.
  std::string checkpoint_path;
  // Lane-parallel rebuild workers for the full-scan recovery path.
  uint32_t rebuild_threads = 1;
  // Per-lane dead-slot ratio at which Compact() rewrites a lane's oldest
  // chunk (0 disables compaction entirely).
  double compaction_trigger = 0.0;
};

struct HybridStats {
  uint64_t segments = 0;
  uint64_t records = 0;
  uint64_t capacity_slots = 0;
  double load_factor = 0.0;
  uint64_t opt_retries = 0;
  uint64_t version_conflicts = 0;
  uint64_t write_locks = 0;
  uint64_t log_chunks = 0;
  uint64_t log_free_slots = 0;
  uint64_t log_chunk_bytes = 0;
  // Compaction telemetry: known-dead free slots, the worst per-lane dead
  // ratio, and cumulative compaction work since open.
  uint64_t log_dead_slots = 0;
  double compaction_dead_ratio = 0.0;
  uint64_t compactions = 0;
  uint64_t compaction_chunks_reclaimed = 0;
  uint64_t compaction_bytes_rewritten = 0;
  // Recovery provenance of this open (see RecoverySource).
  RecoverySource recovery_source = RecoverySource::kFresh;
  // Tail records replayed on top of the loaded checkpoint.
  uint64_t recovery_replayed = 0;
  // Committed seqs past the checkpoint frontier at open (0 when the
  // checkpoint was written at a quiesced close).
  uint64_t recovery_staleness = 0;
};

// Insert/Search/Update/Delete, the Multi* batch calls and PrefetchBatch
// come from TableFront (dash/table_front.h).
template <typename KP = IntKeyPolicy>
class HybridTable : public TableFront<HybridTable<KP>, KP> {
 public:
  using KeyArg = typename KP::KeyArg;

  HybridTable(pmem::PmPool* pool, epoch::EpochManager* epochs,
              const HybridOptions& options)
      : pool_(pool),
        alloc_(&pool->allocator()),
        epochs_(epochs),
        opts_(options),
        root_(static_cast<HybridRoot*>(pool->root())) {
    assert((opts_.buckets_per_segment & (opts_.buckets_per_segment - 1)) == 0);
    assert(opts_.stash_slots <= 64);
    assert(opts_.log_lanes != 0 && opts_.log_lanes <= kMaxLanes &&
           (opts_.log_lanes & (opts_.log_lanes - 1)) == 0);
    if (root_->initialized == 0) {
      CreateNew();
    } else {
      OpenExisting();
    }
  }

  HybridTable(const HybridTable&) = delete;
  HybridTable& operator=(const HybridTable&) = delete;

  ~HybridTable() {
    // Pending retirements capture `this`. A teardown without CloseClean
    // models a crash: drop them un-run (the log still holds the garbage;
    // the next open's rebuild GC collects it) instead of letting the
    // epoch manager's destructor drain into a dead table.
    epochs_->DiscardAll();
  }

  void CloseClean() {
    epochs_->DrainAll();
    // Quiesced checkpoint: the next open loads it and replays an empty
    // tail. Failure is harmless — the open falls back to the scan.
    WriteCheckpoint();
    root_->clean = 1;
    pmem::Persist(&root_->clean, 1);
  }

  // Serializes the DRAM index (directory + raw segment images) plus the
  // per-lane log watermarks into opts_.checkpoint_path, written
  // crash-consistently (temp + checksum + generation + rename). Safe to
  // call concurrently with readers and writers: watermarks are
  // snapshotted before any copy, each segment is copied under its
  // version lock, and a split racing the copy pass is detected via
  // split_epoch_ and retried. Returns false when disabled, when splits
  // kept invalidating the pass, or on I/O failure (the previous
  // checkpoint file, if any, stays intact).
  bool WriteCheckpoint() {
    if (opts_.checkpoint_path.empty()) return false;
    std::string payload;
    for (int attempt = 0; attempt < 3; ++attempt) {
      if (!SerializeIndex(&payload)) continue;  // split raced the copy
      pmem::CheckpointMeta meta;
      meta.kind_tag = CheckpointTag();
      meta.generation = root_->open_gen;
      return pmem::WriteCheckpointFile(opts_.checkpoint_path, meta,
                                       payload.data(), payload.size());
    }
    return false;
  }

  RecoverySource recovery_source() const { return recovery_source_; }

  // One bounded online compaction pass (safe to call concurrently with
  // all operations; concurrent passes skip each other's lanes). For every
  // lane whose dead ratio is at or above opts_.compaction_trigger, claims
  // the lane's oldest chunk, relocates its live records (one index walk
  // covers all claimed lanes), runs the epoch manager so the retired
  // originals get zeroed, and frees every chunk that fully drained.
  // Chunks still waiting on reader grace periods stay claimed and finish
  // on a later pass. Returns true when a chunk was reclaimed.
  bool Compact() {
    if (opts_.compaction_trigger <= 0.0) return false;
    bool claimed[kMaxLanes] = {};
    uint64_t begin[kMaxLanes] = {};
    uint64_t end[kMaxLanes] = {};
    uint32_t active = 0;
    for (uint32_t li = 0; li < opts_.log_lanes; ++li) {
      if (!log_->TryLockCompaction(li)) continue;
      if ((log_->HasRetiring(li) ||
           log_->ShouldCompact(li, opts_.compaction_trigger)) &&
          log_->BeginCompactChunk(li)) {
        claimed[li] = true;
        log_->RetiringRange(li, &begin[li], &end[li]);
        ++active;
      } else {
        log_->UnlockCompaction(li);
      }
    }
    if (active == 0) return false;
    RelocateVictims(claimed, begin, end);
    // Drain: the relocations' retired originals zero after a grace
    // period; a few advance attempts usually suffice when no reader is
    // pinned. Whatever stays live finishes on a later pass.
    bool progressed = false;
    for (int attempt = 0; attempt < 4; ++attempt) {
      epochs_->TryAdvanceAndReclaim();
      bool pending = false;
      for (uint32_t li = 0; li < opts_.log_lanes; ++li) {
        if (!claimed[li] || !log_->HasRetiring(li)) continue;
        if (log_->FinishCompactChunk(li)) {
          progressed = true;
        } else {
          pending = true;
        }
      }
      if (!pending) break;
    }
    for (uint32_t li = 0; li < opts_.log_lanes; ++li) {
      if (claimed[li]) log_->UnlockCompaction(li);
    }
    return progressed;
  }

  uint64_t global_depth() const { return Dir()->global_depth; }

  template <typename Fn>
  void ForEachSegment(Fn fn) const {
    HybridDirectory* dir = Dir();
    const uint64_t n = 1ull << dir->global_depth;
    uint64_t i = 0;
    while (i < n) {
      HybridSegment* seg = dir->entry(i);
      fn(seg);
      i += 1ull << (dir->global_depth - seg->local_depth());
    }
  }

  HybridStats Stats() const {
    HybridStats stats;
    ForEachSegment([&](HybridSegment* seg) {
      ++stats.segments;
      stats.capacity_slots +=
          static_cast<uint64_t>(seg->num_buckets) * kSlotsPerBucket +
          seg->stash_slots;
      for (uint32_t b = 0; b < seg->num_buckets; ++b) {
        for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
          if (seg->bucket(b)->slots[s].LoadKeyAcquire() != kEmptyKey) {
            ++stats.records;
          }
        }
      }
      for (uint32_t s = 0; s < seg->stash_slots; ++s) {
        if (seg->stash(s)->LoadKeyAcquire() != kEmptyKey) ++stats.records;
      }
    });
    stats.load_factor = stats.capacity_slots == 0
                            ? 0.0
                            : static_cast<double>(stats.records) /
                                  static_cast<double>(stats.capacity_slots);
    stats.opt_retries = lock_stats_.TotalRetries();
    stats.version_conflicts = lock_stats_.TotalConflicts();
    stats.write_locks = lock_stats_.TotalWriteLocks();
    const LogStats ls = log_->Stats();
    stats.log_chunks = ls.chunks;
    stats.log_free_slots = ls.free_slots;
    stats.log_chunk_bytes = ls.chunk_bytes;
    stats.log_dead_slots = ls.dead_slots;
    stats.compaction_dead_ratio = ls.max_dead_ratio;
    stats.compactions = ls.compactions;
    stats.compaction_chunks_reclaimed = ls.chunks_reclaimed;
    stats.compaction_bytes_rewritten = ls.bytes_rewritten;
    stats.recovery_source = recovery_source_;
    stats.recovery_replayed = replayed_records_;
    stats.recovery_staleness = recovery_staleness_;
    return stats;
  }

  uint64_t Size() const { return Stats().records; }
  double LoadFactor() const { return Stats().load_factor; }

  // Structural invariant check at a quiescent point: directory coverage
  // runs are aligned and patterns match position (as for CCEH), every
  // occupied slot's handle decodes into a mapped log chunk, the record it
  // names is committed, non-tombstone, and carries the same stored key
  // word, the fingerprint byte matches, the home bucket is right, and the
  // persistent lane chains are intact. Read-only.
  bool VerifyStructure() const {
    HybridDirectory* dir = Dir();
    if (dir == nullptr) return false;
    const uint64_t gd = dir->global_depth;
    if (gd > 48) return false;
    const uint64_t n = 1ull << gd;
    uint64_t i = 0;
    while (i < n) {
      HybridSegment* seg = dir->entry(i);
      if (seg == nullptr) return false;
      const uint32_t ld = seg->local_depth();
      if (ld > gd) return false;
      if (seg->num_buckets == 0 ||
          (seg->num_buckets & (seg->num_buckets - 1)) != 0) {
        return false;
      }
      if (seg->lock.IsLockedNow()) return false;
      const uint64_t run = 1ull << (gd - ld);
      if ((i & (run - 1)) != 0) return false;
      if (ld > 0 && seg->PatternAcquire() != (i >> (gd - ld))) return false;
      for (uint64_t j = i + 1; j < i + run; ++j) {
        if (dir->entry(j) != seg) return false;
      }
      if (!VerifySegmentSlots(seg)) return false;
      i += run;
    }
    return log_->VerifyChains();
  }

 private:
  friend class TableFront<HybridTable<KP>, KP>;

  using MapKey = std::conditional_t<KP::kInline, uint64_t, std::string>;

  // ---- lifecycle ----

  void CreateNew() {
    root_->log_lanes = opts_.log_lanes;
    root_->records_per_chunk = opts_.records_per_chunk;
    root_->clean = 0;
    root_->open_gen = 1;
    pmem::Persist(root_, sizeof(*root_));
    InitVolatile();
    root_->initialized = 1;
    pmem::PersistObject(&root_->initialized);
    recovery_source_ = RecoverySource::kFresh;
  }

  void OpenExisting() {
    opts_.log_lanes = root_->log_lanes;
    opts_.records_per_chunk = root_->records_per_chunk;
    root_->clean = 0;
    pmem::Persist(&root_->clean, 1);
    // A checkpoint is valid only if the root still carries the
    // generation it was stamped with. Bump the generation FIRST — before
    // this run can append or recycle anything — so a crash at any later
    // point leaves older checkpoints invalid, as they must be.
    const uint64_t ckpt_gen = root_->open_gen;
    pmem::AtomicPersist64(&root_->open_gen, ckpt_gen + 1);
    InitVolatile();
    // The DRAM index died with the previous process whether or not it
    // closed clean; the open either loads a checkpoint and replays the
    // log tail past its watermarks, or rebuilds from a full scan.
    if (!LoadCheckpoint(ckpt_gen)) {
      recovery_source_ = RecoverySource::kScan;
      Rebuild();
    }
  }

  void InitVolatile() {
    arena_ = std::make_unique<SegmentArena>(
        HybridSegment::AllocSize(opts_.buckets_per_segment, opts_.stash_slots),
        (1ull << opts_.initial_depth) + 4);
    log_ = std::make_unique<HybridLog>(pool_, root_->lane_heads,
                                       opts_.log_lanes,
                                       opts_.records_per_chunk);
    HybridDirectory* dir = NewDirectory(opts_.initial_depth);
    const uint64_t n = 1ull << opts_.initial_depth;
    for (uint64_t i = 0; i < n; ++i) {
      dir->SetEntry(i, NewSegment(opts_.initial_depth, i));
    }
    dir_.store(dir, std::memory_order_release);
  }

  HybridSegment* NewSegment(uint32_t depth, uint64_t pattern) {
    void* raw = arena_->Get();
    std::memset(raw, 0,
                HybridSegment::AllocSize(opts_.buckets_per_segment,
                                         opts_.stash_slots));
    auto* seg = static_cast<HybridSegment*>(raw);
    seg->num_buckets = opts_.buckets_per_segment;
    seg->stash_slots = opts_.stash_slots;
    seg->local_depth_ = depth;
    seg->pattern_ = pattern;
    seg->lock.Reset();
    return seg;
  }

  // Directory buffers are retained until table destruction: a lock-free
  // reader may hold a replaced directory arbitrarily long, and doubling
  // is rare enough that the stale copies are noise.
  HybridDirectory* NewDirectory(uint64_t depth) {
    const size_t bytes = HybridDirectory::AllocSize(depth);
    auto buf = std::make_unique<char[]>(bytes + 63);
    char* base = reinterpret_cast<char*>(
        (reinterpret_cast<uintptr_t>(buf.get()) + 63) & ~uintptr_t{63});
    std::memset(base, 0, bytes);
    auto* dir = reinterpret_cast<HybridDirectory*>(base);
    dir->global_depth = depth;
    retained_dirs_.push_back(std::move(buf));
    return dir;
  }

  // ---- checkpointing ----

  // Checkpoint payload layout (raw host-layout images; the pool remaps
  // at a fixed base, so handles and VarKey pointers in slot words are
  // stable across restarts — the same idiom as the persisted lane
  // chains):
  //   PayloadHeader
  //   num_segments x { SegmentPrefix, bucket array, stash array }
  // in directory-coverage order (position + local depth reconstruct the
  // directory exactly).
  struct PayloadHeader {
    uint64_t checkpoint_seq;            // next_seq at watermark snapshot
    uint64_t watermarks[kMaxLanes];     // per-lane committed-seq frontier
    uint64_t global_depth;
    uint64_t num_segments;
  };
  struct SegmentPrefix {
    uint32_t local_depth;
    uint32_t num_buckets;
    uint32_t stash_slots;
    uint32_t pad;
    uint64_t pattern;
  };

  size_t SegmentImageBytes() const {
    return opts_.buckets_per_segment * sizeof(HybridBucket) +
           opts_.stash_slots * sizeof(HybridSlot);
  }

  // Identifies this table flavour (key mode + geometry): a checkpoint
  // from a different kind or geometry must not parse.
  uint64_t CheckpointTag() const {
    uint64_t t = util::Mix64(0x687962636b7074ull ^ (KP::kInline ? 1 : 2));
    t = util::Mix64(t ^ opts_.buckets_per_segment);
    t = util::Mix64(t ^ opts_.stash_slots);
    t = util::Mix64(t ^ opts_.log_lanes);
    t = util::Mix64(t ^ opts_.records_per_chunk);
    return t;
  }

  // Copies the index into `payload`. Correctness of the bounded-
  // staleness contract: the watermarks are snapshotted BEFORE any
  // segment copy, seqs are allocated by a global monotone counter while
  // the segment lock is held, and each segment is copied under that
  // lock. So for every committed record: either its publishing op ran
  // before its segment's copy (the slot is in the image), or its seq was
  // allocated after the snapshot and exceeds every watermark (replay
  // picks it up). Records in both sets replay idempotently. Returns
  // false if a split or directory doubling raced the pass (split_epoch_
  // changed) or a stale directory view turned inconsistent mid-walk.
  bool SerializeIndex(std::string* payload) {
    payload->clear();
    const uint64_t e1 = split_epoch_.load(std::memory_order_acquire);
    PayloadHeader ph{};
    log_->SnapshotWatermarks(ph.watermarks);
    ph.checkpoint_seq = log_->NextSeqRelaxed();
    HybridDirectory* dir = Dir();
    const uint64_t gd = dir->global_depth;
    if (gd > 48) return false;
    ph.global_depth = gd;
    const size_t seg_bytes = SegmentImageBytes();
    payload->resize(sizeof(PayloadHeader));
    const uint64_t n = 1ull << gd;
    uint64_t i = 0;
    while (i < n) {
      HybridSegment* seg = dir->entry(i);
      seg->lock.Lock();
      const uint32_t ld = seg->local_depth();
      if (ld > gd || seg->num_buckets != opts_.buckets_per_segment ||
          seg->stash_slots != opts_.stash_slots) {
        seg->lock.Unlock();
        return false;  // concurrent split outran this directory view
      }
      SegmentPrefix sp{ld, seg->num_buckets, seg->stash_slots, 0,
                       seg->PatternAcquire()};
      payload->append(reinterpret_cast<const char*>(&sp), sizeof(sp));
      payload->append(reinterpret_cast<const char*>(seg + 1), seg_bytes);
      seg->lock.Unlock();
      ++ph.num_segments;
      i += 1ull << (gd - ld);
    }
    std::memcpy(payload->data(), &ph, sizeof(ph));
    return split_epoch_.load(std::memory_order_acquire) == e1;
  }

  // Loads opts_.checkpoint_path (stamped with generation `ckpt_gen`)
  // and replays the log tail. Returns false — leaving a freshly
  // re-initialized empty structure for Rebuild() — on any rejection:
  // the file layer already logged torn/checksum/stale/kind failures,
  // and a structurally invalid payload is reported here.
  bool LoadCheckpoint(uint64_t ckpt_gen) {
    if (opts_.checkpoint_path.empty()) return false;
    pmem::CheckpointMeta expect;
    expect.kind_tag = CheckpointTag();
    expect.generation = ckpt_gen;
    std::string payload;
    if (pmem::ReadCheckpointFile(opts_.checkpoint_path, expect, &payload) !=
        pmem::CheckpointLoad::kOk) {
      return false;
    }
    if (!InstallCheckpoint(payload)) {
      std::fprintf(stderr,
                   "dash: checkpoint %s structurally invalid; falling back "
                   "to full recovery scan\n",
                   opts_.checkpoint_path.c_str());
      InitVolatile();  // wipe the half-installed structure
      return false;
    }
    recovery_source_ = RecoverySource::kCheckpoint;
    return true;
  }

  bool InstallCheckpoint(const std::string& payload) {
    PayloadHeader ph;
    if (payload.size() < sizeof(ph)) return false;
    std::memcpy(&ph, payload.data(), sizeof(ph));
    if (ph.global_depth > 48) return false;
    const uint64_t n = 1ull << ph.global_depth;
    if (ph.num_segments == 0 || ph.num_segments > n) return false;
    const size_t seg_bytes = SegmentImageBytes();
    const size_t entry_bytes = sizeof(SegmentPrefix) + seg_bytes;
    if (payload.size() !=
        sizeof(ph) + ph.num_segments * entry_bytes) {
      return false;
    }
    HybridDirectory* dir = NewDirectory(ph.global_depth);
    size_t off = sizeof(ph);
    uint64_t pos = 0;
    for (uint64_t s = 0; s < ph.num_segments; ++s) {
      SegmentPrefix sp;
      std::memcpy(&sp, payload.data() + off, sizeof(sp));
      if (sp.local_depth > ph.global_depth ||
          sp.num_buckets != opts_.buckets_per_segment ||
          sp.stash_slots != opts_.stash_slots) {
        return false;
      }
      const uint64_t run = 1ull << (ph.global_depth - sp.local_depth);
      if (pos >= n || (pos & (run - 1)) != 0) return false;
      if (sp.local_depth > 0 &&
          sp.pattern != (pos >> (ph.global_depth - sp.local_depth))) {
        return false;
      }
      HybridSegment* seg = NewSegment(sp.local_depth, sp.pattern);
      std::memcpy(seg + 1, payload.data() + off + sizeof(sp), seg_bytes);
      for (uint64_t j = pos; j < pos + run; ++j) dir->SetEntry(j, seg);
      pos += run;
      off += entry_bytes;
    }
    if (pos != n) return false;
    dir_.store(dir, std::memory_order_release);

    // Scan the chains once (free lists + sequence counter — the scan is
    // unavoidable; what the checkpoint saves is the per-record dedup and
    // re-insert work), collecting the tail: committed records past the
    // recorded watermark of their lane.
    struct Tail {
      uint64_t stored;
      uint64_t handle;
      uint64_t meta;
    };
    std::vector<Tail> tail;
    // Every committed record, for the post-replay garbage sweep below.
    struct Committed {
      uint64_t handle;
      uint64_t meta;
    };
    std::vector<Committed> committed;
    // Trusted-handle bitmap, one bit per pool record slot (byte offset /
    // sizeof(LogRecord)). A record that is committed, non-tombstone, and
    // at or below its lane's watermark cannot have changed since before
    // the segment copies: seqs are globally monotone, so recycling or
    // tombstoning it would have stamped a seq above the watermark. A
    // checkpointed slot referencing a trusted record is therefore still
    // exactly what the copy saw — key match and placement included —
    // and can be kept without touching the record again.
    std::vector<uint64_t> trusted(
        (pool_->size() / sizeof(LogRecord) + 63) / 64);
    uint64_t max_seq = 0;
    for (uint32_t li = 0; li < opts_.log_lanes; ++li) {
      const uint64_t wm = ph.watermarks[li];
      const uint64_t lane_max = log_->ScanLane(
          li, [&](LogRecord* rec, uint64_t handle, uint64_t meta) {
            committed.push_back(Committed{handle, meta});
            if (LogRecord::Seq(meta) > wm) {
              tail.push_back(Tail{rec->key, handle, meta});
            } else if (!LogRecord::IsTombstone(meta)) {
              const uint64_t slot = HandleOffset(handle) / sizeof(LogRecord);
              trusted[slot >> 6] |= 1ull << (slot & 63);
            }
          });
      if (lane_max > max_seq) max_seq = lane_max;
    }
    log_->NoteScannedSeq(max_seq);
    // Clear every slot whose record is not trusted: zeroed, recycled,
    // tombstoned, or superseded past the watermark. Reclamation only
    // runs after a superseding append, so any still-live key among the
    // dropped slots has its true state in the tail. This also keeps
    // var-key replay probes off freed blobs. The per-lane drop counts
    // seed the dead-slot accounting: most dropped slots name records
    // whose reclamation already ran, i.e. dead capacity the compaction
    // trigger should see from the first tick of this run.
    uint64_t dropped[kMaxLanes] = {};
    DropDeadSlots(trusted, dropped);
    for (uint32_t li = 0; li < opts_.log_lanes; ++li) {
      if (dropped[li] != 0) log_->SeedDead(li, dropped[li]);
    }
    CRASH_POINT("hybrid_ckpt_load_after_scan");
    // Ascending seq order makes unconditional last-writer-wins apply
    // exactly log-replay semantics; replay performs no PM writes, so a
    // crash mid-replay trivially re-recovers.
    std::sort(tail.begin(), tail.end(), [](const Tail& a, const Tail& b) {
      return LogRecord::Seq(a.meta) < LogRecord::Seq(b.meta);
    });
    for (const Tail& t : tail) ApplyReplay(t.stored, t.handle, t.meta);
    replayed_records_ = tail.size();
    recovery_staleness_ =
        max_seq + 1 > ph.checkpoint_seq ? max_seq + 1 - ph.checkpoint_seq : 0;
    SweepUnreferenced(committed);
    return true;
  }

  // Collects the committed garbage a checkpoint open would otherwise
  // strand: records superseded within the replay tail, spent tombstones,
  // and pairs whose epoch retirement was lost to the crash. After replay
  // the index references exactly one record per live key, so every
  // committed record no slot points at is garbage — with no concurrent
  // ops at open, that judgement is exact, where the online path must
  // leave non-current records to their pending retirements. Without this
  // sweep such orphans would also pin their chunks against compaction
  // forever. Zeroing order is the delete-pair rule writ large: ALL
  // unreferenced regular records strictly before ANY tombstone. Any
  // record a tombstone supersedes is itself unreferenced (a checkpointed
  // slot for the key would imply the tombstone outran the watermark and
  // replay cleared it), so a crash between the phases can only lose
  // tombstones whose victims are already gone — never resurrect a key.
  template <typename CommittedVec>
  void SweepUnreferenced(const CommittedVec& committed) {
    std::vector<uint64_t> referenced(
        (pool_->size() / sizeof(LogRecord) + 63) / 64);
    ForEachSegment([&](HybridSegment* seg) {
      auto mark = [&](const HybridSlot* slot) {
        if (slot->key == kEmptyKey) return;
        const uint64_t idx = HandleOffset(slot->off) / sizeof(LogRecord);
        referenced[idx >> 6] |= 1ull << (idx & 63);
      };
      for (uint32_t b = 0; b < seg->num_buckets; ++b) {
        for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
          mark(&seg->bucket(b)->slots[s]);
        }
      }
      for (uint32_t s = 0; s < seg->stash_slots; ++s) mark(seg->stash(s));
    });
    auto orphaned = [&](uint64_t handle) {
      const uint64_t idx = HandleOffset(handle) / sizeof(LogRecord);
      return ((referenced[idx >> 6] >> (idx & 63)) & 1) == 0;
    };
    for (const auto& c : committed) {
      if (LogRecord::IsTombstone(c.meta) || !orphaned(c.handle)) continue;
      ReclaimOne(c.handle);
      log_->ReleaseSlot(c.handle);
    }
    for (const auto& c : committed) {
      if (!LogRecord::IsTombstone(c.meta)) continue;
      ReclaimOne(c.handle);
      log_->ReleaseSlot(c.handle);
    }
  }

  // Clears checkpointed slots that reference anything but a trusted
  // record. Key-word equality against the record would not be a valid
  // substitute: with var keys both the record slot and the key blob can
  // be recycled for a *different* key, making the pointers match again
  // while the new content hashes elsewhere. The trusted bitmap closes
  // that hole structurally — a recycled record carries a post-watermark
  // seq and is never trusted — and replaces a random PM probe per slot
  // with an L2-resident bit test.
  void DropDeadSlots(const std::vector<uint64_t>& trusted,
                     uint64_t dropped[kMaxLanes]) {
    auto dead = [&](const HybridSlot* slot) {
      const uint64_t idx = HandleOffset(slot->off) / sizeof(LogRecord);
      return (idx >> 6) >= trusted.size() ||
             ((trusted[idx >> 6] >> (idx & 63)) & 1) == 0;
    };
    auto clear = [&](HybridSlot* slot) {
      ++dropped[HandleLane(slot->off)];
      slot->StoreKeyRelease(kEmptyKey);
      slot->StoreOffRelease(0);
    };
    ForEachSegment([&](HybridSegment* seg) {
      for (uint32_t b = 0; b < seg->num_buckets; ++b) {
        HybridBucket* bucket = seg->bucket(b);
        for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
          HybridSlot* slot = &bucket->slots[s];
          if (slot->key != kEmptyKey && dead(slot)) clear(slot);
        }
      }
      for (uint32_t s = 0; s < seg->stash_slots; ++s) {
        HybridSlot* slot = seg->stash(s);
        if (slot->key != kEmptyKey && dead(slot)) clear(slot);
      }
    });
  }

  KeyArg KeyFromStored(uint64_t stored) const {
    if constexpr (KP::kInline) {
      return stored;
    } else {
      return reinterpret_cast<const VarKey*>(stored)->view();
    }
  }

  // Applies one tail record against the loaded index (single-threaded,
  // at open). Idempotent: re-applying a record the checkpoint already
  // reflects swings the slot to the handle it already holds.
  void ApplyReplay(uint64_t stored, uint64_t handle, uint64_t meta) {
    const uint64_t h = KP::HashStored(stored);
    const KeyArg key = KeyFromStored(stored);
    for (;;) {
      HybridSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      HybridBucket* bucket =
          seg->bucket(HybridSegment::BucketIndex(h, seg->num_buckets));
      bool in_stash = false;
      HybridSlot* slot = ProbeSegment(seg, bucket, h, key, &in_stash);
      if (LogRecord::IsTombstone(meta)) {
        if (slot != nullptr) {
          slot->StoreKeyRelease(kEmptyKey);
          slot->StoreOffRelease(0);
        }
        seg->lock.Unlock();
        return;
      }
      if (slot != nullptr) {
        slot->StoreOffRelease(handle);
        slot->StoreKeyRelease(stored);
        seg->lock.Unlock();
        return;
      }
      slot = FindEmpty(seg, bucket, &in_stash);
      if (slot == nullptr) {
        seg->lock.Unlock();
        const bool ok = Split(seg, h);
        assert(ok && "hybrid replay split failed");
        (void)ok;
        continue;
      }
      PublishSlot(bucket, slot, in_stash, stored, handle, h);
      seg->lock.Unlock();
      return;
    }
  }

  // ---- recovery ----

  // Scans the lane chains, keeps the highest-seq record per key,
  // garbage-collects everything else, and re-inserts the winners.
  // Runs in the ctor. With rebuild_threads > 1 the scan is parallelized
  // by lane (lanes are disjoint: private winner/loser sets per worker, a
  // serial merge keeps the highest seq per key) and the winner
  // re-insertion is parallelized too (InsertRebuilt takes segment
  // locks). GC stays serial: zeroing order — superseded records strictly
  // before the tombstones that beat them — is what makes a crash mid-GC
  // re-rebuild to the same table.
  void Rebuild() {
    struct Winner {
      uint64_t handle;
      uint64_t meta;
    };
    using WinnerMap = std::unordered_map<MapKey, Winner>;
    auto record_key = [](LogRecord* rec) -> MapKey {
      if constexpr (KP::kInline) {
        return rec->key;
      } else {
        const auto* blob = reinterpret_cast<const VarKey*>(rec->key);
        pmem::ReadProbe(blob);
        return MapKey(blob->data, blob->length);
      }
    };
    auto classify = [](WinnerMap& w, std::vector<uint64_t>& l, MapKey&& k,
                       uint64_t handle, uint64_t meta) {
      auto [it, fresh] = w.try_emplace(std::move(k), Winner{handle, meta});
      if (!fresh) {
        if (LogRecord::Seq(meta) > LogRecord::Seq(it->second.meta)) {
          l.push_back(it->second.handle);
          it->second = Winner{handle, meta};
        } else {
          l.push_back(handle);
        }
      }
    };

    const uint32_t threads = RebuildThreads();
    WinnerMap winners;
    std::vector<uint64_t> losers;
    if (threads <= 1) {
      log_->Scan([&](LogRecord* rec, uint64_t handle, uint64_t meta) {
        classify(winners, losers, record_key(rec), handle, meta);
      });
    } else {
      std::vector<WinnerMap> wmaps(threads);
      std::vector<std::vector<uint64_t>> lsets(threads);
      std::vector<uint64_t> lane_max(threads, 0);
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (uint32_t t = 0; t < threads; ++t) {
        workers.emplace_back([this, t, threads, &wmaps, &lsets, &lane_max,
                              &record_key, &classify] {
          for (uint32_t li = t; li < opts_.log_lanes; li += threads) {
            const uint64_t m = log_->ScanLane(
                li, [&](LogRecord* rec, uint64_t handle, uint64_t meta) {
                  classify(wmaps[t], lsets[t], record_key(rec), handle, meta);
                });
            if (m > lane_max[t]) lane_max[t] = m;
          }
        });
      }
      for (auto& w : workers) w.join();
      uint64_t max_seq = 0;
      for (uint32_t t = 0; t < threads; ++t) {
        if (lane_max[t] > max_seq) max_seq = lane_max[t];
      }
      log_->NoteScannedSeq(max_seq);
      winners = std::move(wmaps[0]);
      losers = std::move(lsets[0]);
      for (uint32_t t = 1; t < threads; ++t) {
        for (auto& kv : wmaps[t]) {
          classify(winners, losers, MapKey(kv.first), kv.second.handle,
                   kv.second.meta);
        }
        losers.insert(losers.end(), lsets[t].begin(), lsets[t].end());
      }
    }
    CRASH_POINT("hybrid_rebuild_after_scan");
    for (uint64_t h : losers) {
      ReclaimOne(h);
      log_->ReleaseSlot(h);
    }
    CRASH_POINT("hybrid_rebuild_after_gc");
    std::vector<std::pair<uint64_t, uint64_t>> live;  // {stored, handle}
    live.reserve(winners.size());
    for (auto& [k, w] : winners) {
      if (LogRecord::IsTombstone(w.meta)) {
        // Spent tombstone: everything it superseded was zeroed above.
        ReclaimOne(w.handle);
        log_->ReleaseSlot(w.handle);
        continue;
      }
      live.emplace_back(log_->Record(w.handle)->key, w.handle);
    }
    if (threads <= 1 || live.size() < 4096) {
      for (const auto& [stored, handle] : live) InsertRebuilt(stored, handle);
    } else {
      const size_t chunk = (live.size() + threads - 1) / threads;
      std::vector<std::thread> workers;
      workers.reserve(threads);
      for (uint32_t t = 0; t < threads; ++t) {
        const size_t begin = t * chunk;
        const size_t end = std::min(live.size(), begin + chunk);
        if (begin >= end) break;
        workers.emplace_back([this, &live, begin, end] {
          for (size_t i = begin; i < end; ++i) {
            InsertRebuilt(live[i].first, live[i].second);
          }
        });
      }
      for (auto& w : workers) w.join();
    }
  }

  uint32_t RebuildThreads() const {
    uint32_t t = opts_.rebuild_threads == 0 ? 1 : opts_.rebuild_threads;
    if (t > opts_.log_lanes) t = opts_.log_lanes;
    return t;
  }

  // Places a surviving record into the DRAM index. The record keeps its
  // handle and stored key word (the slot shares the VarKey blob with the
  // record — the same invariant the insert path establishes).
  void InsertRebuilt(uint64_t stored, uint64_t handle) {
    const uint64_t h = KP::HashStored(stored);
    for (;;) {
      HybridSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      HybridBucket* bucket =
          seg->bucket(HybridSegment::BucketIndex(h, seg->num_buckets));
      bool in_stash = false;
      HybridSlot* slot = FindEmpty(seg, bucket, &in_stash);
      if (slot == nullptr) {
        seg->lock.Unlock();
        const bool ok = Split(seg, h);
        assert(ok && "hybrid rebuild split failed");
        (void)ok;
        continue;
      }
      PublishSlot(bucket, slot, in_stash, stored, handle, h);
      seg->lock.Unlock();
      return;
    }
  }

  // ---- reclamation (epoch callbacks) ----

  void ReclaimOne(uint64_t handle) {
    LogRecord* rec = log_->Record(handle);
    const uint64_t stored = rec->key;
    log_->ZeroRecord(handle);
    // Blob free after the zero: a crash between the two leaks the blob
    // (harmless), the reverse order would leave a committed record whose
    // key points at freed PM.
    KP::FreeStored(stored, alloc_);
  }

  void ReclaimPair(uint64_t old_handle, uint64_t tomb_handle) {
    ReclaimOne(old_handle);
    CRASH_POINT("hybrid_reclaim_after_zero");
    if (tomb_handle != 0) ReclaimOne(tomb_handle);
    log_->ReleaseSlot(old_handle);
    if (tomb_handle != 0) log_->ReleaseSlot(tomb_handle);
  }

  // ---- compaction ----

  // Walks the index once and copies every live record that sits in a
  // claimed victim chunk out to a fresh slot of its lane. Done under
  // segment locks, which is what makes it safe: the slot is current by
  // construction (a concurrent supersede needs the same lock), so the
  // record — and in pointer mode the key blob the slot shares with it —
  // cannot be retired under us. Records of a victim that the walk does
  // NOT find are already superseded; their pending epoch retirements
  // zero them. Segments that split mid-walk may carry live victim
  // records past this pass; the chunk then simply fails to drain and a
  // later pass retries — convergence, not correctness, depends on the
  // walk.
  void RelocateVictims(const bool claimed[kMaxLanes],
                       const uint64_t begin[kMaxLanes],
                       const uint64_t end[kMaxLanes]) {
    auto in_victim = [&](uint64_t handle) {
      const uint32_t li = HandleLane(handle);
      const uint64_t off = HandleOffset(handle);
      return claimed[li] && off >= begin[li] && off < end[li];
    };
    HybridDirectory* dir = Dir();
    const uint64_t n = 1ull << dir->global_depth;
    uint64_t i = 0;
    while (i < n) {
      HybridSegment* seg = dir->entry(i);
      LockSegment(seg);
      for (uint32_t b = 0; b < seg->num_buckets; ++b) {
        HybridBucket* bucket = seg->bucket(b);
        for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
          HybridSlot* slot = &bucket->slots[s];
          if (slot->key != kEmptyKey && in_victim(slot->off)) {
            RelocateSlot(slot);
          }
        }
      }
      for (uint32_t s = 0; s < seg->stash_slots; ++s) {
        HybridSlot* slot = seg->stash(s);
        if (slot->key != kEmptyKey && in_victim(slot->off)) {
          RelocateSlot(slot);
        }
      }
      const uint32_t ld = seg->local_depth();
      seg->lock.Unlock();
      i += ld >= dir->global_depth ? 1 : 1ull << (dir->global_depth - ld);
    }
  }

  // Copies one live record out of a victim chunk (segment lock held).
  // The same protocol as an out-of-place update with an unchanged value:
  // fresh stored key word (each record owns its blob — sharing the old
  // blob would let a crash between publish and zero leave two committed
  // records co-owning one blob, and rebuild's loser GC would free it out
  // from under the winner), fresh seq above every snapshotted checkpoint
  // watermark, handle swing, epoch-retire the original. Fingerprint and
  // stash hint are keyed off the key and do not change. An out-of-memory
  // append just leaves the record in place for a later pass.
  void RelocateSlot(HybridSlot* slot) {
    const uint64_t old_handle = slot->LoadOffAcquire();
    const uint64_t value = log_->Record(old_handle)->LoadValueAcquire();
    const uint64_t stored = KP::MakeStored(KeyFromStored(slot->key), alloc_);
    if (!KP::kInline && stored == 0) return;
    const uint64_t handle =
        log_->AppendCompacted(HandleLane(old_handle), stored, value);
    if (handle == 0) {
      KP::FreeStored(stored, alloc_);
      return;
    }
    slot->StoreOffRelease(handle);
    slot->StoreKeyRelease(stored);
    CRASH_POINT("hybrid_compact_after_publish");
    HybridTable* self = this;
    epochs_->Retire([self, old_handle] { self->ReclaimPair(old_handle, 0); });
  }

  // ---- per-op bodies (caller holds an epoch guard) ----

  OpStatus InsertWithHash(KeyArg key, uint64_t value, uint64_t h) {
    for (;;) {
      HybridSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      HybridBucket* bucket =
          seg->bucket(HybridSegment::BucketIndex(h, seg->num_buckets));
      bool in_stash = false;
      if (ProbeSegment(seg, bucket, h, key, &in_stash) != nullptr) {
        seg->lock.Unlock();
        return OpStatus::kExists;
      }
      HybridSlot* slot = FindEmpty(seg, bucket, &in_stash);
      if (slot == nullptr) {
        seg->lock.Unlock();
        if (!Split(seg, h)) return OpStatus::kOutOfMemory;
        continue;
      }
      const uint64_t stored = KP::MakeStored(key, alloc_);
      if (!KP::kInline && stored == 0) {
        seg->lock.Unlock();
        return OpStatus::kOutOfMemory;
      }
      // The append (one 16-byte PM write + one atomic meta publish) is
      // the durability point of the insert; the DRAM slot is volatile.
      const uint64_t handle = log_->Append(stored, value, /*tombstone=*/false);
      if (handle == 0) {
        KP::FreeStored(stored, alloc_);
        seg->lock.Unlock();
        return OpStatus::kOutOfMemory;
      }
      PublishSlot(bucket, slot, in_stash, stored, handle, h);
      seg->lock.Unlock();
      return OpStatus::kOk;
    }
  }

  OpStatus UpdateWithHash(KeyArg key, uint64_t value, uint64_t h) {
    for (;;) {
      HybridSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      HybridBucket* bucket =
          seg->bucket(HybridSegment::BucketIndex(h, seg->num_buckets));
      bool in_stash = false;
      HybridSlot* slot = ProbeSegment(seg, bucket, h, key, &in_stash);
      if (slot == nullptr) {
        seg->lock.Unlock();
        return OpStatus::kNotFound;
      }
      // Out-of-place update: append a fresh record (its own stored key
      // word — each record owns its blob in pointer mode), swing the
      // handle, retire the superseded record to the epoch manager.
      const uint64_t stored = KP::MakeStored(key, alloc_);
      if (!KP::kInline && stored == 0) {
        seg->lock.Unlock();
        return OpStatus::kOutOfMemory;
      }
      const uint64_t handle = log_->Append(stored, value, /*tombstone=*/false);
      if (handle == 0) {
        KP::FreeStored(stored, alloc_);
        seg->lock.Unlock();
        return OpStatus::kOutOfMemory;
      }
      const uint64_t old_handle = slot->LoadOffAcquire();
      slot->StoreOffRelease(handle);
      slot->StoreKeyRelease(stored);
      seg->lock.Unlock();
      HybridTable* self = this;
      epochs_->Retire(
          [self, old_handle] { self->ReclaimPair(old_handle, 0); });
      return OpStatus::kOk;
    }
  }

  OpStatus DeleteWithHash(KeyArg key, uint64_t h) {
    for (;;) {
      HybridSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      HybridBucket* bucket =
          seg->bucket(HybridSegment::BucketIndex(h, seg->num_buckets));
      bool in_stash = false;
      HybridSlot* slot = ProbeSegment(seg, bucket, h, key, &in_stash);
      if (slot == nullptr) {
        seg->lock.Unlock();
        return OpStatus::kNotFound;
      }
      // The tombstone append is the durability point of the delete: its
      // higher seq beats the live record at rebuild. Both are retired as
      // a pair; reclamation zeroes the superseded record strictly first.
      const uint64_t tomb_stored = KP::MakeStored(key, alloc_);
      if (!KP::kInline && tomb_stored == 0) {
        seg->lock.Unlock();
        return OpStatus::kOutOfMemory;
      }
      const uint64_t tomb_handle =
          log_->Append(tomb_stored, 0, /*tombstone=*/true);
      if (tomb_handle == 0) {
        KP::FreeStored(tomb_stored, alloc_);
        seg->lock.Unlock();
        return OpStatus::kOutOfMemory;
      }
      const uint64_t old_handle = slot->LoadOffAcquire();
      slot->StoreKeyRelease(kEmptyKey);
      slot->StoreOffRelease(0);
      seg->lock.Unlock();
      HybridTable* self = this;
      epochs_->Retire([self, old_handle, tomb_handle] {
        self->ReclaimPair(old_handle, tomb_handle);
      });
      return OpStatus::kOk;
    }
  }

  // Optimistic probe of one segment view (§4.4): snapshot the version,
  // check coverage, probe DRAM (fingerprint filter, then key compare),
  // dereference the PM record — the ONE PM read of the hybrid search —
  // and revalidate. kRetry sends the caller back through the directory.
  OpStatus SearchSegmentOptimistic(HybridSegment* seg, KeyArg key, uint64_t h,
                                   uint64_t* out) {
    const uint32_t snap = seg->lock.Snapshot();
    if (util::VersionLock::IsLocked(snap)) {
      lock_stats_.CountConflict();
      return OpStatus::kRetry;
    }
    const uint32_t ld = seg->local_depth();
    if (ld != 0 && (h >> (64 - ld)) != seg->PatternAcquire()) {
      lock_stats_.CountRetry();
      return OpStatus::kRetry;
    }
    HybridBucket* bucket =
        seg->bucket(HybridSegment::BucketIndex(h, seg->num_buckets));
    bool in_stash = false;
    HybridSlot* slot = ProbeSegment(seg, bucket, h, key, &in_stash);
    if (slot == nullptr) {
      if (!seg->lock.Verify(snap)) {
        lock_stats_.CountRetry();
        return OpStatus::kRetry;
      }
      return OpStatus::kNotFound;
    }
    const uint64_t handle = slot->LoadOffAcquire();
    if (handle == 0) {  // torn slot view (concurrent delete)
      lock_stats_.CountRetry();
      return OpStatus::kRetry;
    }
    // A stale handle still dereferences safely even though compaction
    // frees drained chunks: a chunk is only unlinked once every record
    // in it was zeroed post-grace and its slots left the free list, so
    // no handle a reader can have observed reaches freed memory (see
    // pm_log.h). Verify discards the stale value either way.
    LogRecord* rec = log_->Record(handle);
    pmem::ReadProbe(rec);
    const uint64_t value = rec->LoadValueAcquire();
    if (!seg->lock.Verify(snap)) {
      lock_stats_.CountRetry();
      return OpStatus::kRetry;
    }
    *out = value;
    return OpStatus::kOk;
  }

  OpStatus SearchWithHash(KeyArg key, uint64_t h, uint64_t* out) {
    util::SpinBackoff backoff;
    for (;;) {
      HybridSegment* seg = Lookup(h);
      const OpStatus status = SearchSegmentOptimistic(seg, key, h, out);
      if (status != OpStatus::kRetry) return status;
      backoff.Pause();
    }
  }

  // ---- probing helpers ----

  // Finds the slot holding `key`, or nullptr. Safe both under the
  // segment lock and optimistically (all acquire loads; the caller's
  // version check discards stale results). Fingerprints keep pointer-key
  // blob dereferences (PM probes in EqualStored) off the miss path.
  HybridSlot* ProbeSegment(HybridSegment* seg, HybridBucket* bucket,
                           uint64_t h, KeyArg key, bool* in_stash) {
    const uint8_t fp = HybridSegment::Fingerprint(h);
    const uint64_t fps = bucket->LoadFpsAcquire();
    for (uint64_t m = MatchFps(fps, fp); m != 0; m &= m - 1) {
      const uint64_t s = static_cast<uint64_t>(__builtin_ctzll(m)) >> 3;
      HybridSlot* slot = &bucket->slots[s];
      const uint64_t stored = slot->LoadKeyAcquire();
      if (stored == kEmptyKey) continue;
      if (KP::EqualStored(stored, key)) {
        *in_stash = false;
        return slot;
      }
    }
    if ((bucket->LoadMetaAcquire() & kStashHint) != 0) {
      for (uint32_t s = 0; s < seg->stash_slots; ++s) {
        HybridSlot* slot = seg->stash(s);
        const uint64_t stored = slot->LoadKeyAcquire();
        if (stored == kEmptyKey) continue;
        if (KP::EqualStored(stored, key)) {
          *in_stash = true;
          return slot;
        }
      }
    }
    return nullptr;
  }

  // Free-slot pick under the segment lock: home bucket first, stash as
  // overflow. Plain (relaxed-equivalent) reads are fine — writers are
  // serialized by the lock.
  HybridSlot* FindEmpty(HybridSegment* seg, HybridBucket* bucket,
                        bool* in_stash) {
    for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
      if (bucket->slots[s].key == kEmptyKey) {
        *in_stash = false;
        return &bucket->slots[s];
      }
    }
    for (uint32_t s = 0; s < seg->stash_slots; ++s) {
      if (seg->stash(s)->key == kEmptyKey) {
        *in_stash = true;
        return seg->stash(s);
      }
    }
    return nullptr;
  }

  // Publishes a slot under the segment lock: handle before key (readers
  // racing the critical section fail version verification regardless;
  // the order just keeps the torn window sane), then the fingerprint or
  // the sticky stash hint on the home bucket.
  void PublishSlot(HybridBucket* home_bucket, HybridSlot* slot, bool in_stash,
                   uint64_t stored, uint64_t handle, uint64_t h) {
    slot->StoreOffRelease(handle);
    slot->StoreKeyRelease(stored);
    if (in_stash) {
      home_bucket->SetStashHint();
    } else {
      home_bucket->SetFp(static_cast<size_t>(slot - home_bucket->slots),
                         HybridSegment::Fingerprint(h));
    }
  }

  // ---- directory / segment management ----

  HybridDirectory* Dir() const {
    return dir_.load(std::memory_order_acquire);
  }

  HybridSegment* Lookup(uint64_t h) const {
    HybridDirectory* dir = Dir();
    const uint64_t idx =
        dir->global_depth == 0 ? 0 : (h >> (64 - dir->global_depth));
    return dir->entry(idx);
  }

  void LockSegment(HybridSegment* seg) {
    seg->lock.Lock();
    lock_stats_.CountWriteLock();
  }

  bool Valid(HybridSegment* seg, uint64_t h) const {
    if (Lookup(h) != seg) return false;
    const uint32_t ld = seg->local_depth();
    if (ld == 0) return true;
    return (h >> (64 - ld)) == seg->PatternAcquire();
  }

  // DRAM-only split: no persistence, no mini-transaction — rebuild
  // derives the structure from the log, so a crash mid-split is
  // irrelevant. Items keep their bucket index (it depends only on hash
  // bits the split doesn't consume) and stash items stay stash, so the
  // child can never overflow. The child is fully built before the
  // directory publishes it; readers holding the parent retry via the
  // pattern check once the parent's version bumps at unlock.
  bool Split(HybridSegment* seg, uint64_t h) {
    LockSegment(seg);
    if (!Valid(seg, h)) {
      seg->lock.Unlock();
      return true;  // someone else already split; caller retries
    }
    const uint32_t old_depth = seg->local_depth();
    while (Dir()->global_depth == old_depth) {
      DoubleDirectory();
    }
    const uint64_t old_pattern = seg->PatternAcquire();
    HybridSegment* child = NewSegment(old_depth + 1, (old_pattern << 1) | 1);
    RehashToChild(seg, child, old_depth);
    seg->StorePatternRelease(old_pattern << 1);
    seg->SetLocalDepth(old_depth + 1);
    dir_lock_.LockShared();
    HybridDirectory* dir = Dir();
    const uint64_t gd = dir->global_depth;
    const uint64_t chunk = 1ull << (gd - old_depth);
    const uint64_t base = old_pattern << (gd - old_depth);
    for (uint64_t i = base + chunk / 2; i < base + chunk; ++i) {
      dir->SetEntry(i, child);
    }
    dir_lock_.UnlockShared();
    // Invalidates any checkpoint copy pass in flight: the checkpointer
    // rereads this counter after its walk and retries on a change.
    split_epoch_.fetch_add(1, std::memory_order_acq_rel);
    seg->lock.Unlock();
    return true;
  }

  void RehashToChild(HybridSegment* seg, HybridSegment* child,
                     uint32_t old_depth) {
    const uint32_t shift = 64 - (old_depth + 1);
    for (uint32_t b = 0; b < seg->num_buckets; ++b) {
      HybridBucket* src = seg->bucket(b);
      HybridBucket* dst = child->bucket(b);
      for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
        HybridSlot* slot = &src->slots[s];
        if (slot->key == kEmptyKey) continue;
        const uint64_t rh = KP::HashStored(slot->key);
        if (((rh >> shift) & 1) == 0) continue;
        // Same bucket index in the child; it starts empty, so the moved
        // subset always fits.
        bool placed = false;
        for (uint64_t d = 0; d < kSlotsPerBucket && !placed; ++d) {
          if (dst->slots[d].key != kEmptyKey) continue;
          dst->slots[d].off = slot->off;
          dst->slots[d].key = slot->key;
          dst->SetFp(d, HybridSegment::Fingerprint(rh));
          placed = true;
        }
        assert(placed && "hybrid child bucket overflow");
        slot->StoreKeyRelease(kEmptyKey);
        slot->StoreOffRelease(0);
      }
    }
    for (uint32_t s = 0; s < seg->stash_slots; ++s) {
      HybridSlot* slot = seg->stash(s);
      if (slot->key == kEmptyKey) continue;
      const uint64_t rh = KP::HashStored(slot->key);
      if (((rh >> shift) & 1) == 0) continue;
      bool placed = false;
      for (uint32_t d = 0; d < child->stash_slots && !placed; ++d) {
        if (child->stash(d)->key != kEmptyKey) continue;
        child->stash(d)->off = slot->off;
        child->stash(d)->key = slot->key;
        child->bucket(HybridSegment::BucketIndex(rh, child->num_buckets))
            ->SetStashHint();
        placed = true;
      }
      assert(placed && "hybrid child stash overflow");
      slot->StoreKeyRelease(kEmptyKey);
      slot->StoreOffRelease(0);
    }
  }

  void DoubleDirectory() {
    dir_lock_.Lock();
    HybridDirectory* old_dir = Dir();
    const uint64_t gd = old_dir->global_depth;
    HybridDirectory* new_dir = NewDirectory(gd + 1);
    for (uint64_t i = 0; i < (1ull << gd); ++i) {
      HybridSegment* seg = old_dir->entry(i);
      new_dir->SetEntry(2 * i, seg);
      new_dir->SetEntry(2 * i + 1, seg);
    }
    dir_.store(new_dir, std::memory_order_release);
    dir_lock_.Unlock();
  }

  // ---- batch scaffolding ----

  // The resolve-and-prefetch passes shared by the write engine and
  // PrefetchBatch (caller holds an epoch guard): directory entries, then
  // each segment header (for ownership on write batches — it holds the
  // version lock) and the target DRAM bucket.
  void PrefetchGroup(const KeyArg* keys, size_t n, uint64_t* hashes,
                     bool for_write) {
    HybridDirectory* dir = Dir();
    const uint64_t gd = dir->global_depth;
    std::atomic<uint64_t>* entries = dir->entries();
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = KP::Hash(keys[i]);
      const uint64_t idx = gd == 0 ? 0 : (hashes[i] >> (64 - gd));
      util::PrefetchRead(&entries[idx]);
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t idx = gd == 0 ? 0 : (hashes[i] >> (64 - gd));
      auto* seg = reinterpret_cast<HybridSegment*>(
          entries[idx].load(std::memory_order_acquire));
      util::Prefetch(seg, for_write);  // header holds the version lock
      util::PrefetchRange(
          seg->bucket(HybridSegment::BucketIndex(hashes[i], seg->num_buckets)),
          sizeof(HybridBucket));
    }
  }

  // ---- state-machine (AMAC) engines ----

  struct AmacOp {
    uint64_t hash;
    HybridSegment* seg;
    uint32_t snap;
    uint64_t handle;
  };

  // Lock-free search machine. The DRAM passes (hash -> directory ->
  // bucket probe) suspend far less than the PM tables' equivalents —
  // the deep miss the engine exists to hide is the PM value record, so
  // the bucket-probe pass resolves the handle, puts the record line in
  // flight, and suspends once more before the execute pass reads the
  // value and revalidates.
  void AmacMultiSearch(const KeyArg* keys, size_t count, uint64_t* values,
                       OpStatus* statuses) {
    util::AmacTelemetry& tele = util::AmacTelemetry::Local();
    AmacOp ops[util::kBatchGroupWidth];
    for (size_t base = 0; base < count; base += util::kBatchGroupWidth) {
      const size_t n = std::min(util::kBatchGroupWidth, count - base);
      epoch::EpochManager::Guard guard(*epochs_);
      util::AmacGroupCounters ctr;
      ++tele.groups;
      tele.ops += n;
      HybridDirectory* dir = Dir();
      const uint64_t gd = dir->global_depth;
      std::atomic<uint64_t>* entries = dir->entries();
      for (size_t i = 0; i < n; ++i) {
        ops[i].hash = KP::Hash(keys[base + i]);
        const uint64_t idx = gd == 0 ? 0 : (ops[i].hash >> (64 - gd));
        util::PrefetchRead(&entries[idx]);
        ctr.Suspend(util::AmacState::kHash);
      }
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        const uint64_t idx = gd == 0 ? 0 : (ops[i].hash >> (64 - gd));
        ops[i].seg = reinterpret_cast<HybridSegment*>(
            entries[idx].load(std::memory_order_acquire));
        util::PrefetchRead(ops[i].seg);
        util::PrefetchRange(
            ops[i].seg->bucket(HybridSegment::BucketIndex(
                ops[i].hash, ops[i].seg->num_buckets)),
            sizeof(HybridBucket));
        ctr.Suspend(util::AmacState::kDirProbe);
      }
      // Bucket-probe pass: resolve the handle in DRAM, launch the PM
      // record prefetch, defer the value read to the execute pass.
      util::AmacReadyList exec_pending;
      util::AmacReadyList retry_pending;
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        HybridSegment* seg = ops[i].seg;
        const uint64_t h = ops[i].hash;
        const uint32_t snap = seg->lock.Snapshot();
        bool conflict = false;
        if (util::VersionLock::IsLocked(snap)) {
          lock_stats_.CountConflict();
          conflict = true;
        } else {
          const uint32_t ld = seg->local_depth();
          if (ld != 0 && (h >> (64 - ld)) != seg->PatternAcquire()) {
            lock_stats_.CountRetry();
            conflict = true;
          }
        }
        if (!conflict) {
          HybridBucket* bucket =
              seg->bucket(HybridSegment::BucketIndex(h, seg->num_buckets));
          bool in_stash = false;
          HybridSlot* slot =
              ProbeSegment(seg, bucket, h, keys[base + i], &in_stash);
          if (slot == nullptr) {
            if (seg->lock.Verify(snap)) {
              statuses[base + i] = OpStatus::kNotFound;
              continue;
            }
            lock_stats_.CountRetry();
            conflict = true;
          } else {
            const uint64_t handle = slot->LoadOffAcquire();
            if (handle != 0) {
              ops[i].snap = snap;
              ops[i].handle = handle;
              util::PrefetchRead(log_->Record(handle));
              exec_pending.Push(i);
              ctr.Suspend(util::AmacState::kBucketProbe);
              continue;
            }
            lock_stats_.CountRetry();
            conflict = true;
          }
        }
        // Conflict or stale view: re-resolve through the live directory,
        // put fresh lines in flight, finish in the retry pass.
        ops[i].seg = Lookup(h);
        util::PrefetchRead(ops[i].seg);
        util::PrefetchRange(
            ops[i].seg->bucket(
                HybridSegment::BucketIndex(h, ops[i].seg->num_buckets)),
            sizeof(HybridBucket));
        retry_pending.Push(i);
        ctr.Suspend(util::AmacState::kRetry);
      }
      // Execute pass: the PM value read over the warm record line.
      for (size_t j = 0; j < exec_pending.count; ++j) {
        const size_t i = exec_pending.idx[j];
        ++ctr.steps;
        LogRecord* rec = log_->Record(ops[i].handle);
        pmem::ReadProbe(rec);
        const uint64_t value = rec->LoadValueAcquire();
        if (ops[i].seg->lock.Verify(ops[i].snap)) {
          values[base + i] = value;
          statuses[base + i] = OpStatus::kOk;
        } else {
          lock_stats_.CountRetry();
          statuses[base + i] =
              SearchWithHash(keys[base + i], ops[i].hash, &values[base + i]);
        }
      }
      for (size_t j = 0; j < retry_pending.count; ++j) {
        const size_t i = retry_pending.idx[j];
        ++ctr.steps;
        statuses[base + i] =
            SearchWithHash(keys[base + i], ops[i].hash, &values[base + i]);
      }
      ctr.FlushTo(tele);
    }
  }

  // ---- verification helper ----

  bool VerifySegmentSlots(HybridSegment* seg) const {
    for (uint32_t b = 0; b < seg->num_buckets; ++b) {
      HybridBucket* bucket = seg->bucket(b);
      for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
        const HybridSlot* slot = &bucket->slots[s];
        if (slot->key == kEmptyKey) continue;
        const uint64_t rh = KP::HashStored(slot->key);
        if (HybridSegment::BucketIndex(rh, seg->num_buckets) != b) {
          return false;
        }
        if (static_cast<uint8_t>(bucket->fps >> (8 * s)) !=
            HybridSegment::Fingerprint(rh)) {
          return false;
        }
        if (!VerifySlotRecord(slot)) return false;
      }
    }
    for (uint32_t s = 0; s < seg->stash_slots; ++s) {
      const HybridSlot* slot = seg->stash(s);
      if (slot->key == kEmptyKey) continue;
      const uint64_t rh = KP::HashStored(slot->key);
      HybridBucket* home =
          seg->bucket(HybridSegment::BucketIndex(rh, seg->num_buckets));
      if ((home->meta & kStashHint) == 0) return false;
      if (!VerifySlotRecord(slot)) return false;
    }
    return true;
  }

  bool VerifySlotRecord(const HybridSlot* slot) const {
    if (slot->off == 0) return false;
    if (!log_->ContainsHandle(slot->off)) return false;
    const LogRecord* rec = log_->Record(slot->off);
    const uint64_t meta = rec->meta;
    if (meta == 0 || LogRecord::IsTombstone(meta)) return false;
    return rec->key == slot->key;
  }

  pmem::PmPool* pool_;
  pmem::PmAllocator* alloc_;
  epoch::EpochManager* epochs_;
  HybridOptions opts_;
  HybridRoot* root_;
  std::unique_ptr<SegmentArena> arena_;
  std::unique_ptr<HybridLog> log_;
  std::atomic<HybridDirectory*> dir_{nullptr};
  std::vector<std::unique_ptr<char[]>> retained_dirs_;
  util::RwSpinLock dir_lock_;
  // Bumped by every split; the checkpoint copy pass validates against it.
  std::atomic<uint64_t> split_epoch_{0};
  // Recovery provenance of this open (surfaced via Stats()).
  RecoverySource recovery_source_ = RecoverySource::kFresh;
  uint64_t replayed_records_ = 0;
  uint64_t recovery_staleness_ = 0;
  // Per-thread sharded telemetry: no shared cacheline on the hot paths.
  mutable util::ShardedOptimisticLockStats lock_stats_;
};

}  // namespace dash::hybrid

#endif  // DASH_PM_HYBRID_HYBRID_TABLE_H_
