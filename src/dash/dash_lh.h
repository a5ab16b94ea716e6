// Dash-Linear Hashing (paper §5).
//
// Segments are organized in arrays referenced by a tiny directory that uses
// hybrid expansion (§5.2): the directory entry sizes grow geometrically
// every `stride` entries, so a sub-KB, L1-resident directory indexes
// TB-scale data, while load factor only halves at (rare) size-class
// boundaries instead of at every expansion.
//
// Expansion follows LHlf (§5.3): the (N, Next) pair lives in one 64-bit
// word advanced by CAS; the thread that advances it performs the physical
// split of the old Next segment, and any thread that encounters a segment
// whose split is still pending (its buddy is in state NEW) helps complete
// it first. Splits of different segments therefore proceed in parallel.
//
// Overflow handling (§5.1): each segment has the fixed Dash stash buckets
// plus a chained stash; a segment split is triggered whenever a chained
// stash bucket has to be allocated.

#ifndef DASH_PM_DASH_DASH_LH_H_
#define DASH_PM_DASH_DASH_LH_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <mutex>

#include "dash/config.h"
#include "dash/key_policy.h"
#include "dash/segment.h"
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

namespace dash {

// Persistent root object of a Dash-LH table.
struct DashLhRoot {
  static constexpr size_t kMaxDirEntries = 96;

  std::atomic<uint64_t> meta;  // [N:32 | Next:32], atomically updated (§5.3)
  uint64_t dir[kMaxDirEntries];  // -> segment-pointer arrays
  uint64_t initialized;
  uint8_t global_version;
  uint8_t clean;
  uint8_t pad[6];
  uint32_t buckets_per_segment;
  uint32_t stash_buckets;
  uint32_t base_segments;  // capacity at N = 0
  uint32_t stride;         // hybrid-expansion stride (§5.2)

  static uint64_t PackMeta(uint32_t n, uint32_t next) {
    return (static_cast<uint64_t>(n) << 32) | next;
  }
  static uint32_t MetaN(uint64_t m) { return static_cast<uint32_t>(m >> 32); }
  static uint32_t MetaNext(uint64_t m) {
    return static_cast<uint32_t>(m & 0xFFFFFFFFu);
  }
};

// Insert/Search/Update/Delete, the Multi* batch calls and PrefetchBatch
// come from TableFront (dash/table_front.h).
template <typename KP = IntKeyPolicy>
class DashLH : public TableFront<DashLH<KP>, KP> {
 public:
  using KeyArg = typename KP::KeyArg;

  DashLH(pmem::PmPool* pool, epoch::EpochManager* epochs,
         const DashOptions& options)
      : pool_(pool),
        alloc_(&pool->allocator()),
        epochs_(epochs),
        opts_(options),
        root_(static_cast<DashLhRoot*>(pool->root())) {
    opts_.lock_stats = &lock_stats_;  // table-local telemetry sink
    if (root_->initialized == 0) {
      CreateNew();
    } else {
      OpenExisting();
    }
    PrecomputeStarts();
  }

  DashLH(const DashLH&) = delete;
  DashLH& operator=(const DashLH&) = delete;

  void CloseClean() {
    epochs_->DrainAll();
    root_->clean = 1;
    pmem::Persist(&root_->clean, 1);
  }

  // ---- introspection ----

  uint32_t rounds() const {
    return DashLhRoot::MetaN(root_->meta.load(std::memory_order_acquire));
  }
  uint32_t next_pointer() const {
    return DashLhRoot::MetaNext(root_->meta.load(std::memory_order_acquire));
  }
  const DashOptions& options() const { return opts_; }
  DashOptions& mutable_options() { return opts_; }

  // Walks every allocated segment once (statistics / tests).
  template <typename Fn>
  void ForEachSegment(Fn fn) const {
    for (size_t e = 0; e < DashLhRoot::kMaxDirEntries; ++e) {
      auto* array = ArrayAt(e);
      if (array == nullptr) break;
      const uint64_t size = ArraySize(e);
      for (uint64_t i = 0; i < size; ++i) {
        auto* seg = reinterpret_cast<Segment*>(
            array[i].load(std::memory_order_acquire));
        if (seg != nullptr) fn(seg);
      }
    }
  }

  DashTableStats Stats() const {
    DashTableStats stats;
    ForEachSegment([&](Segment* seg) {
      ++stats.segments;
      stats.records += seg->RecordCount();
      uint64_t slots =
          static_cast<uint64_t>(seg->num_buckets() + seg->num_stash()) *
          Bucket::kNumSlots;
      for (StashChainNode* node = seg->stash_chain(); node != nullptr;
           node = reinterpret_cast<StashChainNode*>(node->next)) {
        slots += Bucket::kNumSlots;
      }
      stats.capacity_slots += slots;
    });
    stats.load_factor = stats.capacity_slots == 0
                            ? 0.0
                            : static_cast<double>(stats.records) /
                                  static_cast<double>(stats.capacity_slots);
    stats.bucket_lock_acquisitions = lock_stats_.TotalAcquisitions();
    stats.bucket_lock_contended_spins = lock_stats_.TotalSpins();
    return stats;
  }

  uint64_t Size() const { return Stats().records; }
  double LoadFactor() const { return Stats().load_factor; }

  // Structural invariant check, for use at a quiescent point (after
  // open): meta covers an address range the directory can hold, every
  // published segment-pointer array and segment lives inside the pool,
  // and segment metadata is sane. Lazy recovery makes in-flight states
  // legal; wild pointers are not. Read-only.
  bool VerifyStructure() const {
    if (root_->base_segments == 0 || root_->stride == 0) return false;
    const uint64_t meta = root_->meta.load(std::memory_order_acquire);
    const uint32_t n = DashLhRoot::MetaN(meta);
    const uint32_t next = DashLhRoot::MetaNext(meta);
    if (n >= 32) return false;
    const uint64_t cap = static_cast<uint64_t>(root_->base_segments) << n;
    if (next >= cap || cap + next > total_capacity_) return false;
    for (size_t e = 0; e < DashLhRoot::kMaxDirEntries; ++e) {
      auto* array = ArrayAt(e);
      if (array == nullptr) continue;  // arrays past N may be unallocated
      if (!pool_->Contains(array)) return false;
      const uint64_t size = ArraySize(e);
      for (uint64_t i = 0; i < size; ++i) {
        auto* seg = reinterpret_cast<Segment*>(
            array[i].load(std::memory_order_acquire));
        if (seg == nullptr) continue;
        if (!pool_->Contains(seg)) return false;
        if (seg->state() > Segment::kMaxState) return false;
        if (seg->num_buckets() == 0 ||
            (seg->num_buckets() & (seg->num_buckets() - 1)) != 0) {
          return false;
        }
      }
    }
    return true;
  }

  // Test hook: performs one expansion step (advance Next + split).
  void ExpandForTest() { TriggerExpand(); }

 private:
  friend class TableFront<DashLH<KP>, KP>;

  // ---- state-machine (AMAC) engine ----
  //
  // Monotonic per-op machines scheduled as state passes (util/amac.h).
  // Dash-LH's machine carries one more resolved artifact than Dash-EH's:
  // the hybrid-expansion walk (meta snapshot -> IndexFor -> EntryFor
  // binary search -> array slot) runs once per op in the Hash pass and
  // caches the slot pointer, so the extra address-resolution work is both
  // amortized and covered by the slot-line prefetch issued in the same
  // pass.

  // Interleaved search: Hash pass (hash; resolve + prefetch the
  // segment-pointer array slot) -> DirProbe pass (slot load; segment
  // header and probe lines prefetched together) -> BucketProbe pass
  // (validate the warm header: version, NEW-state, pattern — then probe
  // the warm pair; stash-implicated ops prefetch their planned lines and
  // suspend once more) -> Execute pass (stash/chain scans over warm
  // lines). Rare invalidations — a missing buddy slot, an unrecovered or
  // NEW segment, a stale pattern, a torn read — fall back to the
  // single-op loop, whose LookupLive performs the helping and recovery.
  void AmacMultiSearch(const KeyArg* keys, size_t count, uint64_t* values,
                       OpStatus* statuses) {
    util::AmacTelemetry& tele = util::AmacTelemetry::Local();
    uint64_t hashes[util::kBatchGroupWidth];
    std::atomic<uint64_t>* slots[util::kBatchGroupWidth];
    Segment* segs[util::kBatchGroupWidth];
    Segment::StashPlan plans[util::kBatchGroupWidth];
    for (size_t base = 0; base < count; base += util::kBatchGroupWidth) {
      const size_t n = std::min(util::kBatchGroupWidth, count - base);
      epoch::EpochManager::Guard guard(*epochs_);
      util::AmacGroupCounters ctr;
      ++tele.groups;
      tele.ops += n;
      // One (N, Next) snapshot per group: the execute pass revalidates
      // against the live segment state.
      const uint64_t meta = root_->meta.load(std::memory_order_acquire);
      const uint32_t rounds = DashLhRoot::MetaN(meta);
      const uint32_t next = DashLhRoot::MetaNext(meta);
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = KP::Hash(keys[base + i]);
        const uint64_t idx = IndexFor(SegBits(hashes[i]), rounds, next);
        const size_t e = EntryFor(idx);
        std::atomic<uint64_t>* array = ArrayAt(e);
        slots[i] = array == nullptr ? nullptr : &array[idx - starts_[e]];
        if (slots[i] != nullptr) {
          util::PrefetchRead(slots[i]);
        }
        ctr.Suspend(util::AmacState::kHash);
      }
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        segs[i] = slots[i] == nullptr
                      ? nullptr
                      : reinterpret_cast<Segment*>(
                            slots[i]->load(std::memory_order_acquire));
        if (segs[i] != nullptr) {
          util::PrefetchRead(segs[i]);  // header: version / state / pattern
          segs[i]->PrefetchProbe(hashes[i], opts_.buckets_per_segment,
                                 opts_.use_probing_bucket,
                                 /*for_write=*/false);
        }
        ctr.Suspend(util::AmacState::kDirProbe);
      }
      util::AmacReadyList stash_pending;
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        const KeyArg key = keys[base + i];
        if (opts_.concurrency != ConcurrencyMode::kOptimistic) {
          statuses[base + i] =
              SearchWithHash(key, hashes[i], &values[base + i]);
          continue;
        }
        OpStatus status = OpStatus::kRetry;
        plans[i] = Segment::StashPlan{};
        Segment* seg = segs[i];
        if (seg != nullptr && seg->version() == root_->global_version &&
            !seg->IsNew() &&
            (SegBits(hashes[i]) & (Capacity(seg->local_depth()) - 1)) ==
                seg->pattern()) {
          status = seg->template SearchPairOptimistic<KP>(
              key, hashes[i], opts_, &values[base + i],
              [&] { return SegmentValid(seg, hashes[i]); }, &plans[i]);
        }
        if (status == OpStatus::kRetry) {
          ctr.Suspend(util::AmacState::kRetry);
          statuses[base + i] =
              SearchWithHash(key, hashes[i], &values[base + i]);
          continue;
        }
        if (plans[i].pending) {
          seg->PrefetchStashPlan(plans[i]);
          stash_pending.Push(i);
          ctr.Suspend(util::AmacState::kBucketProbe);
          continue;
        }
        statuses[base + i] = status;
      }
      for (size_t j = 0; j < stash_pending.count; ++j) {
        const size_t i = stash_pending.idx[j];
        ++ctr.steps;
        const KeyArg key = keys[base + i];
        const OpStatus status = segs[i]->template SearchStashPlanned<KP>(
            key, Segment::Fingerprint(hashes[i]), plans[i], opts_,
            &values[base + i]);
        if (status == OpStatus::kRetry) {
          ctr.Suspend(util::AmacState::kRetry);
          statuses[base + i] =
              SearchWithHash(key, hashes[i], &values[base + i]);
          continue;
        }
        statuses[base + i] = status;
      }
      ctr.FlushTo(tele);
    }
  }

  // ---- per-op bodies (caller holds an epoch guard) ----

  OpStatus InsertWithHash(KeyArg key, uint64_t value, uint64_t h) {
    for (;;) {
      Segment* seg = LookupLive(h);
      const uint64_t chain_before =
          reinterpret_cast<uint64_t>(seg->stash_chain());
      const OpStatus status = seg->template Insert<KP>(
          key, value, h, opts_, alloc_, /*allow_stash_chain=*/true,
          [&] { return SegmentValid(seg, h); });
      switch (status) {
        case OpStatus::kOk:
          // §5.1: a split is triggered whenever a chained stash bucket was
          // allocated to absorb the overflow.
          if (reinterpret_cast<uint64_t>(seg->stash_chain()) !=
              chain_before) {
            TriggerExpand();
          }
          return OpStatus::kOk;
        case OpStatus::kExists:
        case OpStatus::kOutOfMemory:
          return status;
        case OpStatus::kRetry:
          break;
        default:
          assert(false && "Dash-LH insert cannot require an in-place split");
          return OpStatus::kOutOfMemory;
      }
    }
  }

  OpStatus SearchWithHash(KeyArg key, uint64_t h, uint64_t* out) {
    for (;;) {
      Segment* seg = LookupLive(h);
      const OpStatus status = seg->template Search<KP>(
          key, h, opts_, out, [&] { return SegmentValid(seg, h); });
      if (status != OpStatus::kRetry) return status;
    }
  }

  OpStatus UpdateWithHash(KeyArg key, uint64_t value, uint64_t h) {
    for (;;) {
      Segment* seg = LookupLive(h);
      const OpStatus status = seg->template Update<KP>(
          key, value, h, opts_, [&] { return SegmentValid(seg, h); });
      if (status != OpStatus::kRetry) return status;
    }
  }

  OpStatus DeleteWithHash(KeyArg key, uint64_t h) {
    for (;;) {
      Segment* seg = LookupLive(h);
      const OpStatus status = seg->template Delete<KP>(
          key, h, opts_, alloc_, [&] { return SegmentValid(seg, h); });
      if (status != OpStatus::kRetry) return status;
    }
  }

  // The resolve-and-prefetch passes shared by the write engine and
  // PrefetchBatch (caller holds an epoch guard). Hash pass: hash the
  // group, run the hybrid-expansion walk (meta snapshot -> IndexFor ->
  // EntryFor -> array slot) once per op and prefetch the slot line.
  // DirProbe pass: load the cached slot and prefetch the segment header
  // (for ownership on write batches) with the target bucket lines. The
  // (N, Next) snapshot may advance concurrently; the op bodies revalidate
  // through LookupLive, so a stale prefetch costs at most an extra miss.
  void PrefetchGroup(const KeyArg* keys, size_t n, uint64_t* hashes,
                     bool for_write) {
    const uint64_t meta = root_->meta.load(std::memory_order_acquire);
    const uint32_t rounds = DashLhRoot::MetaN(meta);
    const uint32_t next = DashLhRoot::MetaNext(meta);
    std::atomic<uint64_t>* slots[util::kBatchGroupWidth];
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = KP::Hash(keys[i]);
      const uint64_t idx = IndexFor(SegBits(hashes[i]), rounds, next);
      const size_t e = EntryFor(idx);
      std::atomic<uint64_t>* array = ArrayAt(e);
      slots[i] = array == nullptr ? nullptr : &array[idx - starts_[e]];
      if (slots[i] != nullptr) util::PrefetchRead(slots[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (slots[i] == nullptr) continue;
      auto* seg = reinterpret_cast<Segment*>(
          slots[i]->load(std::memory_order_acquire));
      if (seg == nullptr) continue;
      util::Prefetch(seg, for_write);  // version / depth-state / pattern
      seg->PrefetchProbe(hashes[i], opts_.buckets_per_segment,
                         opts_.use_probing_bucket, for_write);
    }
  }

  // Segment-addressing bits: the upper 32 bits of the hash, disjoint from
  // the fingerprint (bits 0-7) and in-segment bucket bits (bits 8+).
  static uint64_t SegBits(uint64_t h) { return h >> 32; }

  uint64_t Capacity(uint32_t n) const {
    return static_cast<uint64_t>(root_->base_segments) << n;
  }

  // Classic linear-hash addressing (§2.2) over segment indices.
  uint64_t IndexFor(uint64_t hseg, uint32_t n, uint32_t next) const {
    const uint64_t cap = Capacity(n);
    uint64_t idx = hseg & (cap - 1);
    if (idx < next) idx = hseg & (2 * cap - 1);
    return idx;
  }

  // ---- hybrid-expansion directory (§5.2) ----

  uint64_t ArraySize(size_t entry) const {
    return static_cast<uint64_t>(root_->base_segments)
           << (entry / root_->stride);
  }

  void PrecomputeStarts() {
    uint64_t start = 0;
    for (size_t e = 0; e < DashLhRoot::kMaxDirEntries; ++e) {
      starts_[e] = start;
      start += ArraySize(e);
    }
    total_capacity_ = start;
  }

  size_t EntryFor(uint64_t g) const {
    // Entry sizes are monotone; a linear scan over <=96 entries would do,
    // but the stride structure allows direct computation per size class.
    size_t lo = 0, hi = DashLhRoot::kMaxDirEntries;
    while (lo + 1 < hi) {
      const size_t mid = (lo + hi) / 2;
      if (starts_[mid] <= g) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  std::atomic<uint64_t>* ArrayAt(size_t entry) const {
    const uint64_t ptr =
        reinterpret_cast<const std::atomic<uint64_t>*>(&root_->dir[entry])
            ->load(std::memory_order_acquire);
    return reinterpret_cast<std::atomic<uint64_t>*>(ptr);
  }

  Segment* SlotAt(uint64_t g) const {
    const size_t e = EntryFor(g);
    auto* array = ArrayAt(e);
    if (array == nullptr) return nullptr;
    return reinterpret_cast<Segment*>(
        array[g - starts_[e]].load(std::memory_order_acquire));
  }

  // Ensures the directory array and the segment object for slot `g` exist.
  // `level`/`pattern=g` are used when the segment must be created (as a
  // split buddy, state NEW). Serialized by dir_lock_ (rare path). The
  // level-0 slots become CLEAN straight from CreateNew, so their blocks
  // are zeroed; every other slot is a split buddy, reserved without
  // zeroing because SplitInto clears its buckets before filling them.
  Segment* EnsureSlot(uint64_t g, uint32_t level) {
    Segment* seg = SlotAt(g);
    if (seg != nullptr) return seg;
    util::SpinLockGuard guard(dir_lock_);
    const size_t e = EntryFor(g);
    auto* array = ArrayAt(e);
    if (array == nullptr) {
      auto r = alloc_->Reserve(ArraySize(e) * sizeof(uint64_t));
      if (!r.valid()) return nullptr;
      alloc_->Activate(r, &root_->dir[e]);
      array = ArrayAt(e);
      CRASH_POINT("lh_after_array_publish");
    }
    seg = reinterpret_cast<Segment*>(
        array[g - starts_[e]].load(std::memory_order_acquire));
    if (seg != nullptr) return seg;
    const size_t bytes =
        Segment::AllocSize(opts_.buckets_per_segment, opts_.stash_buckets);
    auto r = g < root_->base_segments ? alloc_->Reserve(bytes)
                                      : alloc_->ReserveUninitialized(bytes);
    if (!r.valid()) return nullptr;
    seg = static_cast<Segment*>(r.ptr);
    seg->Initialize(opts_.buckets_per_segment, opts_.stash_buckets, level,
                    /*pattern=*/g, Segment::kNew, root_->global_version);
    seg->PersistHeader();
    alloc_->Activate(
        r, reinterpret_cast<uint64_t*>(&array[g - starts_[e]]));
    CRASH_POINT("lh_after_buddy_publish");
    return seg;
  }

  // ---- creation / open ----

  void CreateNew() {
    root_->buckets_per_segment = opts_.buckets_per_segment;
    root_->stash_buckets = opts_.stash_buckets;
    root_->base_segments = opts_.lh_base_segments;
    root_->stride = opts_.lh_stride;
    root_->global_version = 1;
    root_->clean = 0;
    root_->meta.store(DashLhRoot::PackMeta(0, 0), std::memory_order_relaxed);
    pmem::Persist(root_, sizeof(*root_));
    PrecomputeStarts();

    // Allocate the initial segments (level 0, CLEAN). Idempotent on crash:
    // `initialized` is only set once every slot is populated.
    for (uint64_t g = 0; g < root_->base_segments; ++g) {
      Segment* seg = EnsureSlot(g, /*level=*/0);
      assert(seg != nullptr && "pool too small for initial LH segments");
      if (seg->state() != Segment::kClean) {
        seg->SetDepthState(0, Segment::kClean);
      }
    }
    root_->initialized = 1;
    pmem::PersistObject(&root_->initialized);
  }

  void OpenExisting() {
    opts_.buckets_per_segment = root_->buckets_per_segment;
    opts_.stash_buckets = root_->stash_buckets;
    opts_.lh_base_segments = root_->base_segments;
    opts_.lh_stride = root_->stride;
    PrecomputeStarts();
    if (root_->clean) {
      root_->clean = 0;
      pmem::Persist(&root_->clean, 1);
      return;
    }
    if (root_->global_version == 255) {
      ForEachSegment([](Segment* seg) { seg->SetVersion(1); });
      root_->global_version = 0;
    } else {
      ++root_->global_version;
    }
    pmem::Persist(&root_->global_version, 1);
  }

  // ---- addressing + lazy recovery ----

  Segment* LookupLive(uint64_t h) {
    const uint64_t hseg = SegBits(h);
    for (;;) {
      const uint64_t meta = root_->meta.load(std::memory_order_acquire);
      const uint64_t idx = IndexFor(hseg, DashLhRoot::MetaN(meta),
                                    DashLhRoot::MetaNext(meta));
      Segment* seg = SlotAt(idx);
      if (seg == nullptr) {
        // The buddy slot for a crashed advance may be missing; create it so
        // the helping path below can run.
        const uint32_t n = DashLhRoot::MetaN(meta);
        seg = EnsureSlot(idx, LevelOfIndex(idx, n));
        if (seg == nullptr) continue;
      }
      if (seg->version() != root_->global_version) {
        LazyRecover(seg);
        continue;
      }
      if (seg->IsNew()) {
        // Pending split: help complete it, then retry (§5.3 / LHlf).
        HelpSplitOfBuddy(seg);
        continue;
      }
      // The segment must own the key's range at its level.
      const uint64_t mask = Capacity(seg->local_depth()) - 1;
      if ((hseg & mask) != seg->pattern()) {
        // Stale view (concurrent expansion); retry with fresh metadata.
        continue;
      }
      return seg;
    }
  }

  // Level implied by a slot index: index g belongs to round level L where
  // base*2^(L-1) <= g < base*2^L (level 0 for g < base).
  uint32_t LevelOfIndex(uint64_t g, uint32_t n_hint) const {
    const uint64_t base = root_->base_segments;
    if (g < base) return n_hint;  // original slots: level grows with rounds
    uint32_t level = 0;
    while ((base << level) <= g) ++level;
    return level;
  }

  bool SegmentValid(Segment* seg, uint64_t h) const {
    if (seg->IsNew()) return false;
    const uint64_t hseg = SegBits(h);
    const uint64_t mask = Capacity(seg->local_depth()) - 1;
    return (hseg & mask) == seg->pattern();
  }

  void LazyRecover(Segment* seg) {
    Segment* target = seg;
    if (seg->IsNew()) {
      Segment* src = SourceOf(seg);
      if (src != nullptr) target = src;
    }
    std::lock_guard<std::mutex> lock(recovery_mutexes_[MutexIndex(target)]);
    if (target->version() != root_->global_version) {
      RecoverSegmentLocked(target);
    }
    if (seg != target && seg->version() != root_->global_version) {
      std::lock_guard<std::mutex> lock2(recovery_mutexes_[MutexIndex(seg)]);
      if (seg->version() != root_->global_version) {
        seg->ResetAllLocks();
        // An unfilled buddy holds no record yet, only what its block held
        // before SplitInto clears it.
        if (seg->state() != Segment::kNew) {
          seg->template DedupAdjacent<KP>(opts_);
          seg->template RebuildOverflowMetadata<KP>(opts_);
        }
        seg->SetVersion(root_->global_version);
      }
    }
  }

  // The split source of a buddy segment: its pattern without the top bit.
  Segment* SourceOf(Segment* buddy) {
    const uint32_t level = buddy->local_depth();
    if (level == 0) return nullptr;
    const uint64_t src_pattern =
        buddy->pattern() & (Capacity(level - 1) - 1);
    if (src_pattern == buddy->pattern()) return nullptr;
    return SlotAt(src_pattern);
  }

  static size_t MutexIndex(const Segment* seg) {
    return (reinterpret_cast<uintptr_t>(seg) >> 6) % kRecoveryMutexes;
  }

  void RecoverSegmentLocked(Segment* seg) {
    seg->ResetAllLocks();
    if (seg->state() == Segment::kSplitting) {
      // Roll the split forward (the buddy exists: it is created before the
      // SPLITTING mark).
      // SplitInto refills a buddy that was not FILLED yet and otherwise
      // drops the source's leftover copies of the moved records. No insert
      // reaches a buddy before the commit, so it holds exactly the fill.
      Segment* buddy = SlotAt(seg->pattern() + Capacity(seg->local_depth()));
      assert(buddy != nullptr);
      buddy->ResetAllLocks();
      seg->template DedupAdjacent<KP>(opts_);
      seg->template SplitInto<KP>(buddy, MovesToBuddy(seg), opts_, alloc_,
                                  /*allow_stash_chain=*/true);
      CommitSplit(seg, buddy, seg->local_depth());
      buddy->template RebuildOverflowMetadata<KP>(opts_);
      seg->template RebuildOverflowMetadata<KP>(opts_);
      buddy->SetVersion(root_->global_version);
      seg->SetVersion(root_->global_version);
      return;
    }
    seg->template DedupAdjacent<KP>(opts_);
    seg->template RebuildOverflowMetadata<KP>(opts_);
    seg->SetVersion(root_->global_version);
  }

  // ---- expansion (§5.3) ----

  void TriggerExpand() {
    for (;;) {
      const uint64_t meta = root_->meta.load(std::memory_order_acquire);
      const uint32_t n = DashLhRoot::MetaN(meta);
      const uint32_t next = DashLhRoot::MetaNext(meta);
      const uint64_t cap = Capacity(n);

      Segment* src = SlotAt(next);
      if (src == nullptr) return;  // should not happen
      if (src->version() != root_->global_version) {
        // Not recovered since the crash: its lock words may still read as
        // held, so HelpSplit would spin on them forever.
        LazyRecover(src);
        continue;
      }
      if (src->IsNew()) {
        // The source is itself a buddy whose own split (previous round) is
        // still pending; complete that first.
        HelpSplitOfBuddy(src);
        continue;
      }
      // Pre-create the buddy slot *before* advancing Next (§5.3: "the
      // accessing thread first probes the directory entry for the new
      // segment to test whether the corresponding segment array is
      // allocated").
      Segment* buddy = EnsureSlot(next + cap, src->local_depth() + 1);
      if (buddy == nullptr) return;  // out of memory: skip expansion
      CRASH_POINT("lh_expand_after_buddy");

      uint64_t expected = meta;
      const uint64_t desired = (next + 1 == cap)
                                   ? DashLhRoot::PackMeta(n + 1, 0)
                                   : DashLhRoot::PackMeta(n, next + 1);
      if (root_->meta.compare_exchange_strong(expected, desired,
                                              std::memory_order_acq_rel)) {
        pmem::Persist(&root_->meta, sizeof(root_->meta));
        CRASH_POINT("lh_expand_after_advance");
        // The advancing thread performs the physical split; concurrent
        // advances split different segments in parallel.
        HelpSplit(src, buddy);
        return;
      }
      // Raced with another expansion; retry with fresh metadata.
    }
  }

  void HelpSplitOfBuddy(Segment* buddy) {
    Segment* src = SourceOf(buddy);
    if (src == nullptr) return;
    HelpSplit(src, buddy);
  }

  // Physically splits `src` into `buddy` (level +1). Idempotent: returns
  // immediately if the split already completed. Only the source's buckets
  // are locked: the buddy is unreachable while NEW (every accessor helps
  // first, and helpers serialize on the source's bucket locks), so
  // SplitInto can fill it without locking — exactly like Dash-EH's
  // not-yet-published child segment.
  void HelpSplit(Segment* src, Segment* buddy) {
    src->LockAllBuckets(opts_);
    if (!buddy->IsNew() || buddy->local_depth() != src->local_depth() + 1) {
      src->UnlockAllBuckets(opts_);
      return;  // already done (or src itself advanced)
    }
    const uint32_t level = src->local_depth();
    src->SetDepthState(level, Segment::kSplitting);
    CRASH_POINT("lh_split_after_mark");
    src->template SplitInto<KP>(buddy, MovesToBuddy(src), opts_, alloc_,
                                /*allow_stash_chain=*/true);
    CRASH_POINT("lh_split_after_rehash");
    CommitSplit(src, buddy, level);
    CRASH_POINT("lh_split_after_commit");
    src->template RebuildOverflowMetadata<KP>(opts_);
    src->UnlockAllBuckets(opts_);
  }

  void CommitSplit(Segment* src, Segment* buddy, uint32_t level) {
    pmem::MiniTx tx(pool_);
    tx.Stage(buddy->depth_state_word(),
             (static_cast<uint64_t>(level + 1) << 32) | Segment::kClean);
    tx.Stage(src->depth_state_word(),
             (static_cast<uint64_t>(level + 1) << 32) | Segment::kClean);
    tx.Commit();
  }

  // The records of `src` that its split moves to the buddy: those whose
  // level+1 pattern gains the top bit.
  auto MovesToBuddy(const Segment* src) const {
    const uint32_t level = src->local_depth();
    const uint64_t moved_pattern = src->pattern() + Capacity(level);
    const uint64_t mask = Capacity(level + 1) - 1;
    return [moved_pattern, mask](uint64_t h) {
      return (SegBits(h) & mask) == moved_pattern;
    };
  }

  static constexpr size_t kRecoveryMutexes = 64;

  pmem::PmPool* pool_;
  pmem::PmAllocator* alloc_;
  epoch::EpochManager* epochs_;
  DashOptions opts_;
  DashLhRoot* root_;
  util::ShardedBucketLockStats lock_stats_;  // DRAM, per-thread sharded
  util::SpinLock dir_lock_;  // volatile; serializes slot/array creation
  std::mutex recovery_mutexes_[kRecoveryMutexes];
  uint64_t starts_[DashLhRoot::kMaxDirEntries];
  uint64_t total_capacity_ = 0;
};

}  // namespace dash

#endif  // DASH_PM_DASH_DASH_LH_H_
