// CCEH baseline (Nam et al., FAST '19) as characterized in the paper
// (§2.3, §6): cacheline-conscious extendible hashing with
//
//  * 16 KB segments of 64-byte buckets (4 records each),
//  * linear probing bounded to four cachelines,
//  * MSB segment addressing with a persistent directory,
//  * recovery by scanning the directory on open (Table 1: recovery time
//    grows linearly with data size),
//  * a reserved key value (0) marks empty slots (§6.3 notes this CCEH
//    restriction; Dash avoids it via its allocation bitmap).
//
// The segment-split leak the paper found in the original CCEH is fixed the
// same way Dash's own splits are made safe: allocate-activate through the
// side-link plus a mini-transaction commit (§6.1 "we fixed this problem
// using PMDK transaction").
//
// Locking. The original port used a pessimistic reader-writer lock per
// segment (the paper ports CCEH to PMDK rw-locks, §6.1): every search
// *wrote* the PM-resident lock word, which Fig. 8a identifies as a primary
// PM bottleneck. The segment lock is now a Dash-style version lock (§4.4):
// writers still acquire it exclusively (one PM lock-word write per write
// op, as before), but searches are lock-free — snapshot the version,
// probe, revalidate, retry on conflict. A split bumps the version on
// release, so an in-flight reader of a stale segment fails revalidation
// (or the pattern coverage check) and retries through the directory.

#ifndef DASH_PM_CCEH_CCEH_H_
#define DASH_PM_CCEH_CCEH_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>

#include "dash/config.h"
#include "dash/key_policy.h"
#include "dash/op_status.h"
#include "dash/table_front.h"
#include "epoch/epoch_manager.h"
#include "pmem/allocator.h"
#include "pmem/crash_point.h"
#include "pmem/mini_tx.h"
#include "pmem/persist.h"
#include "pmem/pool.h"
#include "util/amac.h"
#include "util/lock.h"
#include "util/prefetch.h"

namespace dash::cceh {

// Reserved empty-slot marker (CCEH design restriction).
inline constexpr uint64_t kEmptyKey = 0;
// Tombstone for deleted variable-length keys (pointer mode): slots freed by
// deletion become immediately reusable.
inline constexpr uint64_t kSlotsPerBucket = 4;   // 64-byte bucket
inline constexpr uint64_t kProbeBuckets = 4;     // probe <= 4 cachelines

struct CcehSlot {
  uint64_t key;
  uint64_t value;

  // Optimistic readers probe slots without the segment lock, so every
  // access that can race a writer goes through 8-byte atomics (the
  // snapshot/revalidate protocol discards torn *logical* states; these
  // keep the individual loads/stores untorn and TSan-clean).
  uint64_t LoadKeyAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&key)->load(
        std::memory_order_acquire);
  }
  uint64_t LoadValueAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&value)->load(
        std::memory_order_acquire);
  }
  // Value stores are ordered before the key's atomic publication
  // (pmem::AtomicPersist64), so relaxed is enough here.
  void StoreValueRelaxed(uint64_t v) {
    reinterpret_cast<std::atomic<uint64_t>*>(&value)->store(
        v, std::memory_order_relaxed);
  }
};

struct CcehBucket {
  CcehSlot slots[kSlotsPerBucket];
};
static_assert(sizeof(CcehBucket) == 64);

struct CcehSegment {
  static constexpr uint32_t kClean = 0;
  static constexpr uint32_t kSplitting = 1;
  static constexpr uint32_t kNew = 2;

  // persistent header
  std::atomic<uint64_t> side_link{0};
  std::atomic<uint64_t> depth_state{0};  // [local_depth:32 | state:32]
  uint64_t pattern = 0;
  uint32_t num_buckets = 0;
  uint32_t pad = 0;
  // PM-resident version lock: writers acquire exclusively (and still pay
  // the PM lock-word write); searches snapshot/revalidate and never write.
  util::VersionLock lock;
  uint8_t pad2[28] = {};

  static size_t AllocSize(uint32_t num_buckets) {
    return sizeof(CcehSegment) + num_buckets * sizeof(CcehBucket);
  }
  CcehBucket* bucket(uint32_t i) {
    return reinterpret_cast<CcehBucket*>(this + 1) + i;
  }
  uint32_t local_depth() const {
    return static_cast<uint32_t>(
        depth_state.load(std::memory_order_acquire) >> 32);
  }
  uint32_t state() const {
    return static_cast<uint32_t>(depth_state.load(std::memory_order_acquire));
  }
  void SetDepthState(uint32_t depth, uint32_t state) {
    depth_state.store((static_cast<uint64_t>(depth) << 32) | state,
                      std::memory_order_release);
    pmem::Persist(&depth_state, sizeof(depth_state));
  }
  uint64_t* depth_state_word() {
    return reinterpret_cast<uint64_t*>(&depth_state);
  }
  // Pattern accessors for the paths that race optimistic readers: the
  // split's coverage handoff (FinishSplit) stores it atomically and the
  // lock-free search loads it atomically. Lock-holding code may keep
  // reading the plain field (no writer can run concurrently).
  uint64_t PatternAcquire() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&pattern)->load(
        std::memory_order_acquire);
  }
  void StorePatternRelease(uint64_t p) {
    reinterpret_cast<std::atomic<uint64_t>*>(&pattern)->store(
        p, std::memory_order_release);
  }
  CcehSegment* side() const {
    return reinterpret_cast<CcehSegment*>(
        side_link.load(std::memory_order_acquire));
  }
  uint64_t* side_link_word() { return reinterpret_cast<uint64_t*>(&side_link); }

  static uint32_t BucketIndex(uint64_t hash, uint32_t num_buckets) {
    return static_cast<uint32_t>((hash >> 8) & (num_buckets - 1));
  }
};
static_assert(sizeof(CcehSegment) == 64);

struct CcehDirectory {
  uint64_t global_depth;
  static size_t AllocSize(uint64_t depth) {
    return sizeof(CcehDirectory) + (1ull << depth) * sizeof(uint64_t);
  }
  std::atomic<uint64_t>* entries() {
    return reinterpret_cast<std::atomic<uint64_t>*>(this + 1);
  }
  CcehSegment* entry(uint64_t i) {
    return reinterpret_cast<CcehSegment*>(
        entries()[i].load(std::memory_order_acquire));
  }
  void SetEntry(uint64_t i, CcehSegment* seg) {
    entries()[i].store(reinterpret_cast<uint64_t>(seg),
                       std::memory_order_release);
  }
};

struct CcehRoot {
  uint64_t directory;
  uint64_t initialized;
  uint8_t clean;
  uint8_t pad[7];
  uint32_t buckets_per_segment;
  uint32_t initial_depth;
};

struct CcehOptions {
  uint32_t buckets_per_segment = 256;  // 256 x 64 B = 16 KB segments
  uint32_t initial_depth = 1;
};

// Aggregate statistics, mirroring DashTableStats.
struct CcehStats {
  uint64_t segments = 0;
  uint64_t records = 0;
  uint64_t capacity_slots = 0;
  double load_factor = 0.0;
  // Read-path concurrency telemetry (cumulative since table open): how
  // often optimistic searches retried, how often they observed a writer
  // holding the segment lock, and how many exclusive (PM-writing) lock
  // acquisitions the write paths performed.
  uint64_t opt_retries = 0;
  uint64_t version_conflicts = 0;
  uint64_t write_locks = 0;
};

// Insert/Search/Update/Delete, the Multi* batch calls and PrefetchBatch
// come from TableFront (dash/table_front.h).
template <typename KP = IntKeyPolicy>
class CCEH : public TableFront<CCEH<KP>, KP> {
 public:
  using KeyArg = typename KP::KeyArg;

  CCEH(pmem::PmPool* pool, epoch::EpochManager* epochs,
       const CcehOptions& options)
      : pool_(pool),
        alloc_(&pool->allocator()),
        epochs_(epochs),
        opts_(options),
        root_(static_cast<CcehRoot*>(pool->root())) {
    if (root_->initialized == 0) {
      CreateNew();
    } else {
      OpenExisting();
    }
  }

  CCEH(const CCEH&) = delete;
  CCEH& operator=(const CCEH&) = delete;

  void CloseClean() {
    epochs_->DrainAll();
    root_->clean = 1;
    pmem::Persist(&root_->clean, 1);
  }

 private:
  friend class TableFront<CCEH<KP>, KP>;

  // ---- state-machine (AMAC) engine ----

  struct AmacOp {
    uint64_t hash;
    CcehSegment* seg;
  };

  // Lock-free search machine: Hash pass (hash + directory-entry
  // prefetch) -> DirProbe pass (resolve the segment, prefetch its header
  // for *read* and the bounded 4-cacheline probe window) -> Execute pass
  // (optimistic snapshot/probe/revalidate over warm lines). Ops whose
  // snapshot conflicted with a writer or whose segment went stale under a
  // split re-resolve through the live directory, prefetch the fresh
  // segment, and suspend once more (the Retry pass), finishing with the
  // single-op retry loop over warm lines. Because the probe takes no
  // lock, the machine may suspend at the execute stage — the capability
  // the pessimistic segment lock used to rule out.
  void AmacMultiSearch(const KeyArg* keys, size_t count, uint64_t* values,
                       OpStatus* statuses) {
    util::AmacTelemetry& tele = util::AmacTelemetry::Local();
    AmacOp ops[util::kBatchGroupWidth];
    const uint32_t mask = opts_.buckets_per_segment - 1;
    for (size_t base = 0; base < count; base += util::kBatchGroupWidth) {
      const size_t n = std::min(util::kBatchGroupWidth, count - base);
      epoch::EpochManager::Guard guard(*epochs_);
      util::AmacGroupCounters ctr;
      ++tele.groups;
      tele.ops += n;
      // One directory snapshot per group (a stale entry fails the
      // optimistic coverage check and lands in the Retry pass).
      CcehDirectory* dir = Dir();
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
        ops[i].seg = reinterpret_cast<CcehSegment*>(
            entries[idx].load(std::memory_order_acquire));
        util::PrefetchRead(ops[i].seg);  // header: version / depth / pattern
        const uint32_t y =
            CcehSegment::BucketIndex(ops[i].hash, opts_.buckets_per_segment);
        for (uint64_t p = 0; p < kProbeBuckets; ++p) {
          util::PrefetchRead(ops[i].seg->bucket((y + p) & mask));
        }
        ctr.Suspend(util::AmacState::kDirProbe);
      }
      util::AmacReadyList retry_pending;
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        const OpStatus status = SearchSegmentOptimistic(
            ops[i].seg, keys[base + i], ops[i].hash, &values[base + i]);
        if (status != OpStatus::kRetry) {
          statuses[base + i] = status;
          continue;
        }
        // Conflict or stale segment: re-resolve through the live
        // directory, put the fresh lines in flight, resume next pass.
        ops[i].seg = Lookup(ops[i].hash);
        util::PrefetchRead(ops[i].seg);
        const uint32_t y =
            CcehSegment::BucketIndex(ops[i].hash, opts_.buckets_per_segment);
        for (uint64_t p = 0; p < kProbeBuckets; ++p) {
          util::PrefetchRead(ops[i].seg->bucket((y + p) & mask));
        }
        retry_pending.Push(i);
        ctr.Suspend(util::AmacState::kRetry);
      }
      for (size_t j = 0; j < retry_pending.count; ++j) {
        const size_t i = retry_pending.idx[j];
        ++ctr.steps;
        // Revalidate-and-finish over warm lines; the single-op loop keeps
        // retrying if writers stay ahead of us.
        statuses[base + i] =
            SearchWithHash(keys[base + i], ops[i].hash, &values[base + i]);
      }
      ctr.FlushTo(tele);
    }
  }

  // ---- per-op bodies (caller holds an epoch guard) ----

  OpStatus InsertWithHash(KeyArg key, uint64_t value, uint64_t h) {
    for (;;) {
      CcehSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      const uint32_t y = CcehSegment::BucketIndex(h, seg->num_buckets);
      // Uniqueness check over the probe window.
      if (FindSlot(seg, y, key) != nullptr) {
        seg->lock.Unlock();
        return OpStatus::kExists;
      }
      CcehSlot* free_slot = FindEmpty(seg, y);
      if (free_slot != nullptr) {
        const uint64_t stored = KP::MakeStored(key, alloc_);
        free_slot->StoreValueRelaxed(value);
        pmem::Persist(&free_slot->value, sizeof(uint64_t));
        // Publishing the key is the atomic commit of the insert.
        pmem::AtomicPersist64(&free_slot->key, stored);
        seg->lock.Unlock();
        return OpStatus::kOk;
      }
      seg->lock.Unlock();
      if (!Split(seg, h)) return OpStatus::kOutOfMemory;
    }
  }

  // Optimistic probe of one segment view (§4.4 applied to CCEH): snapshot
  // the version, check the segment still covers `h` (a completed split
  // moves coverage to the child and is detected here), probe the bounded
  // window, then revalidate. Returns kOk/kNotFound on a verified probe,
  // kRetry when the caller must re-resolve through the directory (writer
  // active, version moved, or stale coverage). Never writes the
  // PM-resident lock word.
  OpStatus SearchSegmentOptimistic(CcehSegment* seg, KeyArg key, uint64_t h,
                                   uint64_t* out) {
    const uint32_t snap = seg->lock.Snapshot();
    if (util::VersionLock::IsLocked(snap)) {
      lock_stats_.CountConflict();
      return OpStatus::kRetry;
    }
    // Coverage check under the snapshot: after a split this segment's
    // pattern no longer matches keys routed to the new child, so a reader
    // holding a stale directory entry retries against the live directory.
    const uint32_t ld = seg->local_depth();
    if (ld != 0 && (h >> (64 - ld)) != seg->PatternAcquire()) {
      lock_stats_.CountRetry();
      return OpStatus::kRetry;
    }
    const uint32_t y = CcehSegment::BucketIndex(h, seg->num_buckets);
    const CcehSlot* slot = FindSlot(seg, y, key);
    const bool found = slot != nullptr;
    const uint64_t value = found ? slot->LoadValueAcquire() : 0;
    if (!seg->lock.Verify(snap)) {
      lock_stats_.CountRetry();
      return OpStatus::kRetry;
    }
    if (found) *out = value;
    return found ? OpStatus::kOk : OpStatus::kNotFound;
  }

  OpStatus SearchWithHash(KeyArg key, uint64_t h, uint64_t* out) {
    // Lock-free search: the pessimistic shared lock (a PM write per
    // acquisition/release — the bottleneck the paper identifies in
    // Fig. 8b/c and Fig. 13) is gone; conflicts retry via the directory.
    util::SpinBackoff backoff;
    for (;;) {
      CcehSegment* seg = Lookup(h);
      const OpStatus status = SearchSegmentOptimistic(seg, key, h, out);
      if (status != OpStatus::kRetry) return status;
      backoff.Pause();
    }
  }

  OpStatus DeleteWithHash(KeyArg key, uint64_t h) {
    for (;;) {
      CcehSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      const uint32_t y = CcehSegment::BucketIndex(h, seg->num_buckets);
      CcehSlot* slot = FindSlot(seg, y, key);
      const bool found = slot != nullptr;
      if (found) {
        // Clear durably, then free the key blob: see Segment::DeleteRecord.
        const uint64_t stored = slot->key;
        pmem::AtomicPersist64(&slot->key, kEmptyKey);
        CRASH_POINT("cceh_delete_after_clear");
        KP::FreeStored(stored, alloc_);
      }
      seg->lock.Unlock();
      return found ? OpStatus::kOk : OpStatus::kNotFound;
    }
  }

  OpStatus UpdateWithHash(KeyArg key, uint64_t value, uint64_t h) {
    for (;;) {
      CcehSegment* seg = Lookup(h);
      LockSegment(seg);
      if (!Valid(seg, h)) {
        seg->lock.Unlock();
        continue;
      }
      const uint32_t y = CcehSegment::BucketIndex(h, seg->num_buckets);
      CcehSlot* slot = FindSlot(seg, y, key);
      const bool found = slot != nullptr;
      if (found) pmem::AtomicPersist64(&slot->value, value);
      seg->lock.Unlock();
      return found ? OpStatus::kOk : OpStatus::kNotFound;
    }
  }

  // The resolve-and-prefetch passes shared by the write engine and
  // PrefetchBatch (caller holds an epoch guard): hash the group and
  // prefetch each directory entry, then resolve the segments and prefetch
  // the header (for ownership only on write batches — searches never
  // write it) plus the bounded linear-probe window around the target
  // bucket. The directory snapshot may go stale; the op bodies revalidate
  // (under the segment lock for writes, via snapshot/verify for
  // searches).
  void PrefetchGroup(const KeyArg* keys, size_t n, uint64_t* hashes,
                     bool for_write) {
    CcehDirectory* dir = Dir();
    const uint64_t gd = dir->global_depth;
    std::atomic<uint64_t>* entries = dir->entries();
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = KP::Hash(keys[i]);
      const uint64_t idx = gd == 0 ? 0 : (hashes[i] >> (64 - gd));
      util::PrefetchRead(&entries[idx]);
    }
    const uint32_t mask = opts_.buckets_per_segment - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint64_t idx = gd == 0 ? 0 : (hashes[i] >> (64 - gd));
      CcehSegment* seg = dir->entry(idx);
      util::Prefetch(seg, for_write);  // header holds the PM-resident lock
      const uint32_t y =
          CcehSegment::BucketIndex(hashes[i], opts_.buckets_per_segment);
      for (uint64_t p = 0; p < kProbeBuckets; ++p) {
        util::PrefetchRead(seg->bucket((y + p) & mask));
      }
    }
  }

 public:
  uint64_t global_depth() const { return Dir()->global_depth; }

  template <typename Fn>
  void ForEachSegment(Fn fn) const {
    CcehDirectory* dir = Dir();
    const uint64_t n = 1ull << dir->global_depth;
    uint64_t i = 0;
    while (i < n) {
      CcehSegment* seg = dir->entry(i);
      fn(seg);
      i += 1ull << (dir->global_depth - seg->local_depth());
    }
  }

  CcehStats Stats() const {
    CcehStats stats;
    ForEachSegment([&](CcehSegment* seg) {
      ++stats.segments;
      stats.capacity_slots +=
          static_cast<uint64_t>(seg->num_buckets) * kSlotsPerBucket;
      for (uint32_t b = 0; b < seg->num_buckets; ++b) {
        for (uint64_t s = 0; s < kSlotsPerBucket; ++s) {
          if (seg->bucket(b)->slots[s].LoadKeyAcquire() != kEmptyKey) {
            ++stats.records;
          }
        }
      }
    });
    stats.load_factor = stats.capacity_slots == 0
                            ? 0.0
                            : static_cast<double>(stats.records) /
                                  static_cast<double>(stats.capacity_slots);
    stats.opt_retries = lock_stats_.TotalRetries();
    stats.version_conflicts = lock_stats_.TotalConflicts();
    stats.write_locks = lock_stats_.TotalWriteLocks();
    return stats;
  }

  uint64_t Size() const { return Stats().records; }
  double LoadFactor() const { return Stats().load_factor; }

  // Structural invariant check, for use at a quiescent point (after open
  // recovery): the directory and every segment live inside the pool, the
  // directory covers each segment with a correctly aligned run of
  // duplicate entries, local depths never exceed the global depth, the
  // stored pattern matches the directory position, and no segment is left
  // mid-split. Read-only.
  bool VerifyStructure() const {
    CcehDirectory* dir = Dir();
    if (dir == nullptr || !pool_->Contains(dir)) return false;
    const uint64_t gd = dir->global_depth;
    if (gd > 48) return false;
    const uint64_t n = 1ull << gd;
    uint64_t i = 0;
    while (i < n) {
      CcehSegment* seg = dir->entry(i);
      if (seg == nullptr || !pool_->Contains(seg)) return false;
      const uint32_t ld = seg->local_depth();
      if (ld > gd) return false;
      if (seg->num_buckets == 0 ||
          (seg->num_buckets & (seg->num_buckets - 1)) != 0) {
        return false;
      }
      if (seg->state() != CcehSegment::kClean) return false;
      const uint64_t run = 1ull << (gd - ld);
      if ((i & (run - 1)) != 0) return false;        // run misaligned
      if (ld > 0 && seg->pattern != (i >> (gd - ld))) return false;
      for (uint64_t j = i + 1; j < i + run; ++j) {
        if (dir->entry(j) != seg) return false;      // torn coverage run
      }
      i += run;
    }
    return true;
  }

 private:
  void CreateNew() {
    if (root_->directory == 0) {
      root_->buckets_per_segment = opts_.buckets_per_segment;
      root_->initial_depth = opts_.initial_depth;
      root_->clean = 0;
      pmem::Persist(root_, sizeof(*root_));
      auto r = alloc_->Reserve(CcehDirectory::AllocSize(opts_.initial_depth));
      assert(r.valid());
      auto* dir = static_cast<CcehDirectory*>(r.ptr);
      dir->global_depth = opts_.initial_depth;
      pmem::PersistObject(&dir->global_depth);
      alloc_->Activate(r, &root_->directory);
    }
    CcehDirectory* dir = Dir();
    const uint64_t n = 1ull << dir->global_depth;
    for (uint64_t i = 0; i < n; ++i) {
      if (dir->entry(i) != nullptr) continue;
      auto r = alloc_->Reserve(
          CcehSegment::AllocSize(opts_.buckets_per_segment));
      assert(r.valid());
      auto* seg = static_cast<CcehSegment*>(r.ptr);
      InitSegment(seg, dir->global_depth, i, CcehSegment::kClean);
      alloc_->Activate(r, reinterpret_cast<uint64_t*>(&dir->entries()[i]));
    }
    root_->initialized = 1;
    pmem::PersistObject(&root_->initialized);
  }

  void InitSegment(CcehSegment* seg, uint32_t depth, uint64_t pattern,
                   uint32_t state) {
    seg->num_buckets = opts_.buckets_per_segment;
    seg->pattern = pattern;
    seg->side_link.store(0, std::memory_order_relaxed);
    seg->depth_state.store((static_cast<uint64_t>(depth) << 32) | state,
                           std::memory_order_relaxed);
    seg->lock.Reset();
    pmem::Persist(seg, CcehSegment::AllocSize(seg->num_buckets));
  }

  void OpenExisting() {
    opts_.buckets_per_segment = root_->buckets_per_segment;
    opts_.initial_depth = root_->initial_depth;
    const bool crashed = root_->clean == 0;
    root_->clean = 0;
    pmem::Persist(&root_->clean, 1);
    if (crashed) RecoverByDirectoryScan();
  }

  // CCEH recovery: a full directory scan (Table 1 — time scales with the
  // directory, i.e., with data size). Clears locks and finishes or rolls
  // back interrupted splits.
  void RecoverByDirectoryScan() {
    CcehDirectory* dir = Dir();
    const uint64_t n = 1ull << dir->global_depth;
    uint64_t i = 0;
    while (i < n) {
      CcehSegment* seg = dir->entry(i);
      pmem::ReadProbe(seg);  // touching each segment header costs PM reads
      seg->lock.Reset();
      if (seg->state() == CcehSegment::kSplitting) {
        CcehSegment* child = seg->side();
        if (child != nullptr && child->state() == CcehSegment::kNew) {
          child->lock.Reset();
          RehashToChild(seg, child, seg->local_depth(),
                        /*check_unique=*/true);
          FinishSplit(seg, child, seg->local_depth());
        } else {
          seg->SetDepthState(seg->local_depth(), CcehSegment::kClean);
        }
      }
      i += 1ull << (dir->global_depth - seg->local_depth());
    }
  }

  CcehDirectory* Dir() const {
    return reinterpret_cast<CcehDirectory*>(
        reinterpret_cast<const std::atomic<uint64_t>*>(&root_->directory)
            ->load(std::memory_order_acquire));
  }

  CcehSegment* Lookup(uint64_t h) const {
    CcehDirectory* dir = Dir();
    const uint64_t idx =
        dir->global_depth == 0 ? 0 : (h >> (64 - dir->global_depth));
    return dir->entry(idx);
  }

  // Exclusive segment acquisition for the write paths: the lock CAS is
  // the PM lock-word write searches no longer pay.
  void LockSegment(CcehSegment* seg) {
    seg->lock.Lock();
    pmem::WriteHint(&seg->lock);
    lock_stats_.CountWriteLock();
  }

  bool Valid(CcehSegment* seg, uint64_t h) const {
    if (Lookup(h) != seg) return false;
    const uint32_t ld = seg->local_depth();
    if (ld == 0) return true;
    return (h >> (64 - ld)) == seg->pattern;
  }

  // Probes the bounded linear-probe window (4 buckets = 4 cachelines).
  // Shared by the locked write bodies and the lock-free search, so keys
  // are loaded atomically (a concurrent publish/delete is an atomic store
  // on the writer side; the search's version check discards stale hits).
  CcehSlot* FindSlot(CcehSegment* seg, uint32_t y, KeyArg key) const {
    const uint32_t mask = seg->num_buckets - 1;
    for (uint64_t p = 0; p < kProbeBuckets; ++p) {
      CcehBucket* bucket = seg->bucket((y + p) & mask);
      pmem::ReadProbe(bucket);  // one cacheline per probed bucket
      for (auto& slot : bucket->slots) {
        const uint64_t stored = slot.LoadKeyAcquire();
        if (stored == kEmptyKey) continue;
        if (KP::EqualStored(stored, key)) return &slot;
      }
    }
    return nullptr;
  }

  CcehSlot* FindEmpty(CcehSegment* seg, uint32_t y) const {
    const uint32_t mask = seg->num_buckets - 1;
    for (uint64_t p = 0; p < kProbeBuckets; ++p) {
      CcehBucket* bucket = seg->bucket((y + p) & mask);
      for (auto& slot : bucket->slots) {
        if (slot.key == kEmptyKey) return &slot;
      }
    }
    return nullptr;
  }

  // Returns false only when the split could not make progress because the
  // pool is out of memory (the insert path surfaces kOutOfMemory instead
  // of retrying forever).
  bool Split(CcehSegment* seg, uint64_t h) {
    LockSegment(seg);
    if (!Valid(seg, h)) {
      seg->lock.Unlock();
      return true;  // someone else already split; caller retries
    }
    const uint32_t old_depth = seg->local_depth();
    while (Dir()->global_depth == old_depth) {
      if (!DoubleDirectory()) {
        seg->lock.Unlock();
        return false;
      }
    }
    seg->SetDepthState(old_depth, CcehSegment::kSplitting);
    CRASH_POINT("cceh_split_after_mark");
    auto r = alloc_->Reserve(CcehSegment::AllocSize(seg->num_buckets));
    if (!r.valid()) {
      seg->SetDepthState(old_depth, CcehSegment::kClean);
      seg->lock.Unlock();
      return false;
    }
    auto* child = static_cast<CcehSegment*>(r.ptr);
    InitSegment(child, old_depth + 1, (seg->pattern << 1) | 1,
                CcehSegment::kNew);
    child->side_link.store(seg->side_link.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    pmem::Persist(child, sizeof(CcehSegment));
    alloc_->Activate(r, seg->side_link_word());
    CRASH_POINT("cceh_split_after_activate");

    RehashToChild(seg, child, old_depth, /*check_unique=*/false);
    CRASH_POINT("cceh_split_after_rehash");
    FinishSplit(seg, child, old_depth);
    seg->lock.Unlock();
    return true;
  }

  void RehashToChild(CcehSegment* seg, CcehSegment* child, uint32_t old_depth,
                     bool check_unique) {
    const uint32_t shift = 64 - (old_depth + 1);
    const uint32_t mask = child->num_buckets - 1;
    for (uint32_t b = 0; b < seg->num_buckets; ++b) {
      for (auto& slot : seg->bucket(b)->slots) {
        if (slot.key == kEmptyKey) continue;
        const uint64_t rh = KP::HashStored(slot.key);
        if (((rh >> shift) & 1) == 0) continue;
        const uint32_t y = CcehSegment::BucketIndex(rh, child->num_buckets);
        bool placed = check_unique && FindStoredInChild(child, y, slot.key);
        if (!placed) {
          for (uint64_t p = 0; p < kProbeBuckets && !placed; ++p) {
            for (auto& dst : child->bucket((y + p) & mask)->slots) {
              if (dst.key == kEmptyKey) {
                dst.StoreValueRelaxed(slot.value);
                pmem::Persist(&dst.value, sizeof(uint64_t));
                pmem::AtomicPersist64(&dst.key, slot.key);
                placed = true;
                break;
              }
            }
          }
        }
        // CCEH's pre-mature splits guarantee the child has room: only the
        // probe window around y can be occupied, and it was just created.
        assert(placed && "CCEH child overflow during split");
        pmem::AtomicPersist64(&slot.key, kEmptyKey);
      }
    }
  }

  bool FindStoredInChild(CcehSegment* child, uint32_t y, uint64_t stored) {
    const uint32_t mask = child->num_buckets - 1;
    for (uint64_t p = 0; p < kProbeBuckets; ++p) {
      for (auto& slot : child->bucket((y + p) & mask)->slots) {
        if (slot.key == stored) return true;
      }
    }
    return false;
  }

  void FinishSplit(CcehSegment* seg, CcehSegment* child, uint32_t old_depth) {
    // Atomic store: optimistic readers load the pattern for their
    // coverage check while this handoff runs (their version snapshot
    // invalidates the result either way).
    seg->StorePatternRelease(child->pattern & ~1ull);
    pmem::Persist(&seg->pattern, sizeof(seg->pattern));
    dir_lock_.LockShared();
    CcehDirectory* dir = Dir();
    const uint64_t gd = dir->global_depth;
    const uint64_t chunk = 1ull << (gd - old_depth);
    const uint64_t base = (child->pattern >> 1) << (gd - old_depth);
    for (uint64_t i = base + chunk / 2; i < base + chunk; ++i) {
      dir->SetEntry(i, child);
    }
    pmem::Persist(&dir->entries()[base + chunk / 2],
                  (chunk / 2) * sizeof(uint64_t));
    dir_lock_.UnlockShared();
    CRASH_POINT("cceh_split_after_dir_update");
    pmem::MiniTx tx(pool_);
    tx.Stage(child->depth_state_word(),
             (static_cast<uint64_t>(old_depth + 1) << 32) |
                 CcehSegment::kClean);
    tx.Stage(seg->depth_state_word(),
             (static_cast<uint64_t>(old_depth + 1) << 32) |
                 CcehSegment::kClean);
    tx.Commit();
  }

  bool DoubleDirectory() {
    dir_lock_.Lock();
    CcehDirectory* old_dir = Dir();
    const uint64_t gd = old_dir->global_depth;
    auto r = alloc_->Reserve(CcehDirectory::AllocSize(gd + 1));
    if (!r.valid()) {
      dir_lock_.Unlock();
      return false;
    }
    auto* new_dir = static_cast<CcehDirectory*>(r.ptr);
    new_dir->global_depth = gd + 1;
    for (uint64_t i = 0; i < (1ull << gd); ++i) {
      CcehSegment* seg = old_dir->entry(i);
      new_dir->SetEntry(2 * i, seg);
      new_dir->SetEntry(2 * i + 1, seg);
    }
    pmem::Persist(new_dir, CcehDirectory::AllocSize(gd + 1));
    CRASH_POINT("cceh_double_after_alloc");
    pmem::MiniTx tx(pool_);
    tx.Stage(&root_->directory, reinterpret_cast<uint64_t>(new_dir));
    const size_t retire_slot = pool_->StageRetire(&tx, old_dir);
    tx.Stage(pool_->FromOffset<uint64_t>(
                 alloc_->ReservationSlotBlockOffset(r)),
             0);
    tx.Commit();
    CRASH_POINT("cceh_double_after_commit");
    dir_lock_.Unlock();
    pmem::PmPool* pool = pool_;
    epochs_->Retire([pool, retire_slot] { pool->CompleteRetire(retire_slot); });
    return true;
  }

  pmem::PmPool* pool_;
  pmem::PmAllocator* alloc_;
  epoch::EpochManager* epochs_;
  CcehOptions opts_;
  CcehRoot* root_;
  util::RwSpinLock dir_lock_;
  // Read-path concurrency telemetry, sharded per thread so concurrent
  // writers do not bounce a shared counter cacheline; Stats() sums.
  alignas(64) mutable util::ShardedOptimisticLockStats lock_stats_;
};

}  // namespace dash::cceh

#endif  // DASH_PM_CCEH_CCEH_H_
