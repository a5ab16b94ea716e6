// Dash-Extendible Hashing (paper §4).
//
// A persistent directory of segment pointers, indexed by the *most
// significant* bits of the hash (§4.7) so the directory entries covering a
// segment are contiguous — a split updates a dense entry range. Segment
// splits follow the crash-consistent protocol of §4.7:
//
//   1. mark the source segment SPLITTING;
//   2. reserve + initialize the new segment (state NEW, depth+1) and commit
//      the allocation by publishing it into the source's side-link
//      (allocate-activate: at no crash point is the segment leaked);
//   3. rehash (Segment::SplitInto): fill the child without flushes, persist
//      it once, mark it FILLED, then clear the moved slots of each source
//      bucket with one flush;
//   4. update the source pattern and the directory entries (idempotent);
//   5. commit: one mini-transaction atomically flips both segments'
//      (depth, state) words to (depth+1, CLEAN).
//
// Lazy recovery (§4.8): opening the table after a crash only increments a
// one-byte global version. A segment whose version byte mismatches is
// recovered on first access — locks cleared, duplicates removed, overflow
// metadata rebuilt, and any in-flight split rolled forward (child reachable
// via the side-link, state NEW or FILLED) or rolled back.

#ifndef DASH_PM_DASH_DASH_EH_H_
#define DASH_PM_DASH_DASH_EH_H_

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

// Persistent directory: global depth + 2^depth segment pointers.
struct EhDirectory {
  uint64_t global_depth;

  static size_t AllocSize(uint64_t depth) {
    return sizeof(EhDirectory) + (1ull << depth) * sizeof(uint64_t);
  }
  std::atomic<uint64_t>* entries() {
    return reinterpret_cast<std::atomic<uint64_t>*>(this + 1);
  }
  Segment* entry(uint64_t i) {
    return reinterpret_cast<Segment*>(
        entries()[i].load(std::memory_order_acquire));
  }
  void SetEntry(uint64_t i, Segment* seg) {
    entries()[i].store(reinterpret_cast<uint64_t>(seg),
                       std::memory_order_release);
  }
};

// Persistent root object of a Dash-EH table (stored in the pool root area).
struct DashEhRoot {
  uint64_t directory;         // EhDirectory*
  uint64_t initialized;       // creation completed marker
  uint8_t global_version;     // V (§4.8)
  uint8_t clean;              // clean-shutdown marker (§4.8)
  uint8_t pad[6];
  uint32_t buckets_per_segment;  // structural options are persisted
  uint32_t stash_buckets;
};

// Insert/Search/Update/Delete, the Multi* batch calls and PrefetchBatch
// come from TableFront (dash/table_front.h).
template <typename KP = IntKeyPolicy>
class DashEH : public TableFront<DashEH<KP>, KP> {
 public:
  using KeyArg = typename KP::KeyArg;

  // Opens (or creates) the table living in `pool`'s root area. Structural
  // options are taken from the pool when it already holds a table. The
  // open path performs the constant recovery work of §4.8: read the clean
  // marker, possibly bump the one-byte global version.
  DashEH(pmem::PmPool* pool, epoch::EpochManager* epochs,
         const DashOptions& options)
      : pool_(pool),
        alloc_(&pool->allocator()),
        epochs_(epochs),
        opts_(options),
        root_(static_cast<DashEhRoot*>(pool->root())) {
    opts_.lock_stats = &lock_stats_;  // table-local telemetry sink
    if (root_->directory == 0 || root_->initialized == 0) {
      CreateNew();
    } else {
      OpenExisting();
    }
  }

  DashEH(const DashEH&) = delete;
  DashEH& operator=(const DashEH&) = delete;

  // Marks a clean shutdown for the *table* (§4.8). Also drains pending
  // epoch reclamations (they reference the pool, which the caller closes
  // next). The caller still closes the pool itself.
  void CloseClean() {
    epochs_->DrainAll();
    root_->clean = 1;
    pmem::Persist(&root_->clean, 1);
  }

  // Test/maintenance hook: attempts one merge of the buddy pair covering
  // `h`'s range. Returns true if a merge happened.
  bool MergeForTest(uint64_t h) {
    epoch::EpochManager::Guard guard(*epochs_);
    return TryMerge(h, 0.5);
  }

  // ---- introspection ----

  uint64_t global_depth() const { return CurrentDir()->global_depth; }

  const DashOptions& options() const { return opts_; }
  DashOptions& mutable_options() { return opts_; }

  // Walks every distinct segment once. Not linearizable; intended for
  // statistics and tests.
  template <typename Fn>
  void ForEachSegment(Fn fn) const {
    EhDirectory* dir = CurrentDir();
    const uint64_t n = 1ull << dir->global_depth;
    uint64_t i = 0;
    while (i < n) {
      Segment* seg = dir->entry(i);
      fn(seg);
      const uint64_t covered = 1ull << (dir->global_depth - seg->local_depth());
      i += covered;
    }
  }

  DashTableStats Stats() const {
    DashTableStats stats;
    EhDirectory* dir = CurrentDir();
    stats.directory_entries = 1ull << dir->global_depth;
    ForEachSegment([&](Segment* seg) {
      ++stats.segments;
      stats.records += seg->RecordCount();
      stats.capacity_slots +=
          static_cast<uint64_t>(seg->num_buckets() + seg->num_stash()) *
          Bucket::kNumSlots;
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
  // open). Read-only, so a crash reopen that runs it stays instant:
  // recovery is lazy (§4.8), and a segment not recovered yet may be
  // mid-split, with directory runs that legally disagree with its stale
  // local depth. Every entry must point into the pool at a segment with
  // a local depth within the global depth, a known state and a
  // power-of-two bucket count. A segment already recovered (its version
  // is the global one) must also be CLEAN and covered by one aligned run
  // of 2^(gd-ld) entries. Once every segment has been reached, as after
  // a search of every key, this is the whole-table check.
  bool VerifyStructure() const {
    EhDirectory* dir = CurrentDir();
    if (dir == nullptr || !pool_->Contains(dir)) return false;
    const uint64_t gd = dir->global_depth;
    if (gd > 48) return false;
    const uint64_t n = 1ull << gd;
    uint64_t i = 0;
    while (i < n) {
      Segment* seg = dir->entry(i);
      if (seg == nullptr || !pool_->Contains(seg)) return false;
      const uint32_t ld = seg->local_depth();
      if (ld > gd) return false;
      if (seg->state() > Segment::kMaxState) return false;
      if (seg->num_buckets() == 0 ||
          (seg->num_buckets() & (seg->num_buckets() - 1)) != 0) {
        return false;
      }
      if (seg->version() != root_->global_version) {
        ++i;
        continue;
      }
      if (seg->state() != Segment::kClean) return false;
      const uint64_t run = 1ull << (gd - ld);
      if ((i & (run - 1)) != 0) return false;        // run misaligned
      for (uint64_t j = i + 1; j < i + run; ++j) {
        if (dir->entry(j) != seg) return false;      // torn coverage run
      }
      i += run;
    }
    return true;
  }

  // Test hook: forces a split of the segment holding `h`'s range.
  bool SplitForTest(uint64_t h) { return Split(LookupLive(h), h); }

 private:
  friend class TableFront<DashEH<KP>, KP>;

  // ---- state-machine (AMAC) engine ----
  //
  // Monotonic per-op machines scheduled as state passes (util/amac.h):
  // each pass is one round-robin lap over the ops still in flight, and
  // every prefetch issued in pass k has a full lap of foreign work
  // between issue and first use in pass k+1.

  // Interleaved search: Hash pass (hash + directory-entry prefetch) ->
  // DirProbe pass (segment resolve; header and probe lines prefetched
  // together — bucket addresses are pure arithmetic off the segment
  // pointer, so the header need not be read first) -> BucketProbe pass
  // (validate the warm header, probe the warm pair; ops whose overflow
  // metadata implicates the stash prefetch their planned lines and
  // suspend once more) -> Execute pass (stash scans over warm lines).
  // Rare invalidations — concurrent SMO, lazy recovery, a torn
  // optimistic read — fall back to the single-op retry loop, which is
  // semantically identical and keeps the hot passes branch-lean.
  void AmacMultiSearch(const KeyArg* keys, size_t count, uint64_t* values,
                       OpStatus* statuses) {
    util::AmacTelemetry& tele = util::AmacTelemetry::Local();
    uint64_t hashes[util::kBatchGroupWidth];
    Segment* segs[util::kBatchGroupWidth];
    Segment::StashPlan plans[util::kBatchGroupWidth];
    for (size_t base = 0; base < count; base += util::kBatchGroupWidth) {
      const size_t n = std::min(util::kBatchGroupWidth, count - base);
      epoch::EpochManager::Guard guard(*epochs_);
      util::AmacGroupCounters ctr;
      ++tele.groups;
      tele.ops += n;
      // One directory snapshot per group; stale resolutions are caught
      // by SegmentValid (which reads the live directory) and fall back.
      // The epoch guard keeps a concurrently replaced directory mapped
      // for the duration of the group.
      EhDirectory* dir = CurrentDir();
      const uint64_t gd = dir->global_depth;
      std::atomic<uint64_t>* entries = dir->entries();
      for (size_t i = 0; i < n; ++i) {
        hashes[i] = KP::Hash(keys[base + i]);
        util::PrefetchRead(&entries[DirIndex(hashes[i], gd)]);
        ctr.Suspend(util::AmacState::kHash);
      }
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        segs[i] = reinterpret_cast<Segment*>(
            entries[DirIndex(hashes[i], gd)].load(std::memory_order_acquire));
        util::PrefetchRead(segs[i]);  // header: version / depth / pattern
        segs[i]->PrefetchProbe(hashes[i], opts_.buckets_per_segment,
                               opts_.use_probing_bucket, /*for_write=*/false);
        ctr.Suspend(util::AmacState::kDirProbe);
      }
      util::AmacReadyList stash_pending;
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        const KeyArg key = keys[base + i];
        if (opts_.concurrency != ConcurrencyMode::kOptimistic) {
          // Pessimistic probes hold shared bucket locks; no suspend
          // points inside a locked region (see util/amac.h).
          statuses[base + i] =
              SearchWithHash(key, hashes[i], &values[base + i]);
          continue;
        }
        OpStatus status = OpStatus::kRetry;
        plans[i] = Segment::StashPlan{};
        if (segs[i]->version() == root_->global_version) {
          Segment* seg = segs[i];
          status = seg->template SearchPairOptimistic<KP>(
              key, hashes[i], opts_, &values[base + i],
              [&] { return SegmentValid(seg, hashes[i]); }, &plans[i]);
        }
        if (status == OpStatus::kRetry) {
          // Unrecovered segment, stale view or torn read: the single-op
          // loop (LookupLive + Search) recovers, helps and retries.
          ctr.Suspend(util::AmacState::kRetry);
          statuses[base + i] =
              SearchWithHash(key, hashes[i], &values[base + i]);
          continue;
        }
        if (plans[i].pending) {
          segs[i]->PrefetchStashPlan(plans[i]);
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
      const OpStatus status = seg->template Insert<KP>(
          key, value, h, opts_, alloc_, /*allow_stash_chain=*/false,
          [&] { return SegmentValid(seg, h); });
      switch (status) {
        case OpStatus::kOk:
        case OpStatus::kExists:
        case OpStatus::kOutOfMemory:
          return status;
        case OpStatus::kRetry:
          break;
        case OpStatus::kNeedSplit:
          if (!Split(seg, h)) return OpStatus::kOutOfMemory;
          break;
        default:
          assert(false);
      }
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

  OpStatus SearchWithHash(KeyArg key, uint64_t h, uint64_t* out) {
    for (;;) {
      Segment* seg = LookupLive(h);
      const OpStatus status = seg->template Search<KP>(
          key, h, opts_, out, [&] { return SegmentValid(seg, h); });
      if (status != OpStatus::kRetry) return status;
    }
  }

  // When merging is enabled (options().merge_threshold > 0), deletions
  // occasionally sample the segment's fullness and merge under-utilized
  // buddy pairs (§4.6).
  OpStatus DeleteWithHash(KeyArg key, uint64_t h) {
    for (;;) {
      Segment* seg = LookupLive(h);
      const OpStatus status = seg->template Delete<KP>(
          key, h, opts_, alloc_, [&] { return SegmentValid(seg, h); });
      if (status == OpStatus::kRetry) continue;
      if (status == OpStatus::kOk && opts_.merge_threshold > 0) {
        thread_local uint32_t delete_counter = 0;
        if ((++delete_counter & 31) == 0) {
          TryMerge(h, std::min(opts_.merge_threshold, 0.5));
        }
      }
      return status;
    }
  }

  // The resolve-and-prefetch passes shared by the write engine and
  // PrefetchBatch (caller holds an epoch guard). Hash pass: hash the
  // group's keys into `hashes` and prefetch each directory entry.
  // DirProbe pass: resolve the segment pointers and prefetch each segment
  // header (for ownership on write batches) together with the target and
  // probing bucket lines — bucket addresses are pure arithmetic off the
  // segment pointer. One directory snapshot serves the group; the op
  // bodies revalidate through LookupLive/SegmentValid, so a stale
  // prefetch costs at most an extra miss.
  void PrefetchGroup(const KeyArg* keys, size_t n, uint64_t* hashes,
                     bool for_write) {
    EhDirectory* dir = CurrentDir();
    const uint64_t gd = dir->global_depth;
    std::atomic<uint64_t>* entries = dir->entries();
    for (size_t i = 0; i < n; ++i) {
      hashes[i] = KP::Hash(keys[i]);
      util::PrefetchRead(&entries[DirIndex(hashes[i], gd)]);
    }
    for (size_t i = 0; i < n; ++i) {
      Segment* seg = dir->entry(DirIndex(hashes[i], gd));
      util::Prefetch(seg, for_write);  // version / depth-state / pattern
      seg->PrefetchProbe(hashes[i], opts_.buckets_per_segment,
                         opts_.use_probing_bucket, for_write);
    }
  }

  // ---- creation / open ----

  void CreateNew() {
    if (root_->directory == 0) {
      root_->buckets_per_segment = opts_.buckets_per_segment;
      root_->stash_buckets = opts_.stash_buckets;
      root_->global_version = 1;
      root_->clean = 0;
      pmem::Persist(root_, sizeof(*root_));

      auto r = alloc_->Reserve(EhDirectory::AllocSize(opts_.initial_depth));
      assert(r.valid() && "pool too small for initial directory");
      auto* dir = static_cast<EhDirectory*>(r.ptr);
      dir->global_depth = opts_.initial_depth;
      pmem::PersistObject(&dir->global_depth);
      alloc_->Activate(r, &root_->directory);
    }
    // Fill missing segments (idempotent: resumes after a creation crash).
    EhDirectory* dir = CurrentDir();
    const uint64_t n = 1ull << dir->global_depth;
    Segment* prev = nullptr;
    for (uint64_t i = 0; i < n; ++i) {
      Segment* seg = dir->entry(i);
      if (seg == nullptr) {
        auto r = alloc_->Reserve(Segment::AllocSize(
            opts_.buckets_per_segment, opts_.stash_buckets));
        assert(r.valid() && "pool too small for initial segments");
        seg = static_cast<Segment*>(r.ptr);
        seg->Initialize(opts_.buckets_per_segment, opts_.stash_buckets,
                        dir->global_depth, /*pattern=*/i, Segment::kClean,
                        root_->global_version);
        seg->PersistHeader();
        alloc_->Activate(
            r, reinterpret_cast<uint64_t*>(&dir->entries()[i]));
      }
      if (prev != nullptr && prev->side_link() == nullptr) {
        // Chain segments left-to-right (§4.7).
        pmem::AtomicPersist64(prev->side_link_word(),
                              reinterpret_cast<uint64_t>(seg));
      }
      prev = seg;
    }
    root_->initialized = 1;
    pmem::PersistObject(&root_->initialized);
  }

  void OpenExisting() {
    // Structural options come from the persistent root.
    opts_.buckets_per_segment = root_->buckets_per_segment;
    opts_.stash_buckets = root_->stash_buckets;
    if (root_->clean) {
      // Clean shutdown: no recovery at all. Mark dirty while open.
      root_->clean = 0;
      pmem::Persist(&root_->clean, 1);
      return;
    }
    // Crash: bump the global version; all segments become lazily
    // recoverable. Constant work — this is the entire recovery cost
    // (§4.8, Table 1).
    if (root_->global_version == 255) {
      // Wrap-around (rare): reset every segment to version 1, V to 0.
      ForEachSegment([](Segment* seg) { seg->SetVersion(1); });
      root_->global_version = 0;
    } else {
      ++root_->global_version;
    }
    pmem::Persist(&root_->global_version, 1);
  }

  // ---- addressing ----

  EhDirectory* CurrentDir() const {
    return reinterpret_cast<EhDirectory*>(
        reinterpret_cast<const std::atomic<uint64_t>*>(&root_->directory)
            ->load(std::memory_order_acquire));
  }

  static uint64_t DirIndex(uint64_t h, uint64_t global_depth) {
    return global_depth == 0 ? 0 : (h >> (64 - global_depth));
  }

  Segment* LookupSegment(uint64_t h) const {
    EhDirectory* dir = CurrentDir();
    return dir->entry(DirIndex(h, dir->global_depth));
  }

  // Segment lookup + lazy recovery trigger (§4.8).
  Segment* LookupLive(uint64_t h) {
    for (;;) {
      Segment* seg = LookupSegment(h);
      if (seg->version() == root_->global_version) return seg;
      LazyRecover(seg);
    }
  }

  // Re-validation run under bucket locks / before optimistic reads: the
  // directory entry must still reference `seg` and the hash prefix must
  // match the segment's pattern (Algorithm 1 lines 9-12).
  bool SegmentValid(Segment* seg, uint64_t h) const {
    if (LookupSegment(h) != seg) return false;
    const uint32_t ld = seg->local_depth();
    if (ld == 0) return true;
    return (h >> (64 - ld)) == seg->pattern();
  }

  // ---- lazy recovery (§4.8) ----

  void LazyRecover(Segment* seg) {
    Segment* target = seg;
    if (seg->IsNew()) {
      // A NEW segment is recovered through its splitting parent, reachable
      // via the directory entry of the buddy pattern.
      Segment* parent = FindParentOf(seg);
      if (parent != nullptr) target = parent;
    } else if (seg->state() == Segment::kMerging) {
      // The right sibling of an interrupted merge is recovered through the
      // surviving left sibling.
      Segment* left = FindLeftSiblingOf(seg);
      if (left != nullptr) target = left;
    }
    std::lock_guard<std::mutex> lock(
        recovery_mutexes_[MutexIndex(target)]);
    if (target->version() != root_->global_version) {
      RecoverSegmentLocked(target);
    }
  }

  Segment* FindParentOf(Segment* child) {
    EhDirectory* dir = CurrentDir();
    const uint32_t ld = child->local_depth();
    if (ld == 0 || ld > dir->global_depth) return nullptr;
    const uint64_t buddy_pattern = child->pattern() & ~1ull;
    const uint64_t idx = buddy_pattern << (dir->global_depth - ld);
    Segment* parent = dir->entry(idx);
    return (parent != nullptr && parent->side_link() == child) ? parent
                                                               : nullptr;
  }

  // The left sibling of a merging right segment: the directory entry for
  // the even buddy pattern (never redirected by the merge).
  Segment* FindLeftSiblingOf(Segment* right) {
    EhDirectory* dir = CurrentDir();
    const uint32_t ld = right->local_depth();
    if (ld == 0 || ld > dir->global_depth) return nullptr;
    const uint64_t left_pattern = right->pattern() & ~1ull;
    const uint64_t idx = left_pattern << (dir->global_depth - ld);
    Segment* left = dir->entry(idx);
    return (left != nullptr && left != right) ? left : nullptr;
  }

  static size_t MutexIndex(const Segment* seg) {
    return (reinterpret_cast<uintptr_t>(seg) >> 6) % kRecoveryMutexes;
  }

  // Recovers one segment: clear locks, finish/abort any in-flight split or
  // merge, remove duplicates, rebuild overflow metadata (§4.8 steps 1-4).
  void RecoverSegmentLocked(Segment* seg) {
    seg->ResetAllLocks();
    if (seg->state() == Segment::kSplitting) {
      Segment* child = seg->side_link();
      if (child != nullptr && child->IsNew()) {
        // Roll the split forward: the child is owned (side-link published).
        // SplitInto refills a child that was not FILLED yet and otherwise
        // drops the source's leftover copies of the moved records.
        child->ResetAllLocks();
        seg->template DedupAdjacent<KP>(opts_);
        const uint32_t old_depth = child->local_depth() - 1;
        seg->template SplitInto<KP>(child, MovesToChild(old_depth), opts_,
                                    alloc_, /*allow_stash_chain=*/false);
        // Once the directory points at the FILLED child, inserts can land
        // in it (and displace) before the commit.
        child->template DedupAdjacent<KP>(opts_);
        FinishSplit(seg, child, old_depth);
        child->template RebuildOverflowMetadata<KP>(opts_);
        seg->template RebuildOverflowMetadata<KP>(opts_);
        child->SetVersion(root_->global_version);
        seg->SetVersion(root_->global_version);
        return;
      }
      // Roll back: the allocation was never published; nothing moved yet.
      seg->SetDepthState(seg->local_depth(), Segment::kClean);
    }
    // An interrupted merge is rolled forward from the left sibling's side:
    // either this segment is the right sibling (redirected here only when
    // the left could not be found) or its side-link is a merging right
    // sibling whose records must finish moving in.
    if (seg->state() == Segment::kMerging) {
      Segment* left = FindLeftSiblingOf(seg);
      if (left != nullptr) {
        left->ResetAllLocks();
        CompleteMerge(left, seg);
        left->SetVersion(root_->global_version);
        return;
      }
    }
    Segment* side = seg->side_link();
    if (side != nullptr && side->state() == Segment::kMerging) {
      const bool post_commit =  // left already wears its merged identity
          side->local_depth() == seg->local_depth() + 1 &&
          (side->pattern() >> 1) == seg->pattern();
      const bool pre_commit =  // left untouched; right marked only
          side->local_depth() == seg->local_depth() &&
          (seg->pattern() & 1) == 0 &&
          side->pattern() == (seg->pattern() | 1);
      if (post_commit || pre_commit) CompleteMerge(seg, side);
    }
    seg->template DedupAdjacent<KP>(opts_);
    seg->template RebuildOverflowMetadata<KP>(opts_);
    seg->SetVersion(root_->global_version);
  }

  // ---- merge + directory halving (extension; §4.6-4.7 mention both) ----

  // Attempts to merge the buddy pair covering `h`. The pair must sit at
  // equal local depth, be CLEAN, and fit comfortably (`limit` <= 50% of
  // one segment's normal capacity) so the drain cannot fail. Returns true
  // if a merge was performed.
  bool TryMerge(uint64_t h, double limit) {
    Segment* seg = LookupLive(h);
    const uint32_t ld = seg->local_depth();
    if (ld == 0) return false;
    EhDirectory* dir = CurrentDir();
    const uint64_t p = seg->pattern();
    const uint64_t left_idx = (p & ~1ull) << (dir->global_depth - ld);
    const uint64_t right_idx =
        ((p & ~1ull) | 1ull) << (dir->global_depth - ld);
    Segment* left = dir->entry(left_idx);
    Segment* right = dir->entry(right_idx);
    if (left == nullptr || right == nullptr || left == right) return false;

    // Lock both segments in global address order (deadlock-free against
    // concurrent merges whose directory views may be stale).
    Segment* first = left < right ? left : right;
    Segment* second = left < right ? right : left;
    first->LockAllBuckets(opts_);
    second->LockAllBuckets(opts_);
    // Re-validate everything under the locks.
    EhDirectory* dir2 = CurrentDir();
    const bool valid =
        left->state() == Segment::kClean &&
        right->state() == Segment::kClean &&
        left->local_depth() == ld && right->local_depth() == ld &&
        (left->pattern() | 1ull) == right->pattern() &&
        dir2->entry((left->pattern()) << (dir2->global_depth - ld)) == left &&
        dir2->entry((right->pattern()) << (dir2->global_depth - ld)) == right;
    const uint64_t combined =
        valid ? left->RecordCount() + right->RecordCount() : ~0ull;
    const uint64_t capacity =
        static_cast<uint64_t>(left->num_buckets()) * Bucket::kNumSlots;
    const double fullness =
        static_cast<double>(combined) / static_cast<double>(capacity);
    if (!valid || fullness > std::min(limit, 0.5)) {
      second->UnlockAllBuckets(opts_);
      first->UnlockAllBuckets(opts_);
      return false;
    }
    MergeLocked(left, right, ld);
    second->UnlockAllBuckets(opts_);
    first->UnlockAllBuckets(opts_);
    TryHalveDirectory();
    return true;
  }

  // Merge protocol (both segments fully locked):
  //   1. mark the right sibling kMerging (the recovery anchor);
  //   2. drain its records into the left sibling (delete-after-insert,
  //      §4.6 persistence rules apply per record);
  //   3. commit the left's merged identity (pattern, then depth+state in
  //      one atomic store);
  //   4. point the right's directory entries at the left (idempotent);
  //   5. one mini-transaction unlinks the right from the side-link chain
  //      and moves it to the retire buffer — owned by the application or
  //      the retire buffer at every crash point, never leaked.
  void MergeLocked(Segment* left, Segment* right, uint32_t ld) {
    right->SetDepthState(ld, Segment::kMerging);
    CRASH_POINT("eh_merge_after_mark");
    DrainForMerge(right, left, /*check_unique=*/false);
    CRASH_POINT("eh_merge_after_drain");
    CommitMerge(left, right, ld);
  }

  // Steps 3-5; shared with recovery roll-forward. Idempotent.
  void CommitMerge(Segment* left, Segment* right, uint32_t ld) {
    left->SetPattern(right->pattern() >> 1);
    left->SetDepthState(ld - 1, Segment::kClean);
    CRASH_POINT("eh_merge_after_commit_left");
    {
      dir_lock_.LockShared();
      EhDirectory* dir = CurrentDir();
      const uint64_t gd = dir->global_depth;
      const uint64_t chunk = 1ull << (gd - ld);
      const uint64_t base = right->pattern() << (gd - ld);
      for (uint64_t i = base; i < base + chunk; ++i) dir->SetEntry(i, left);
      pmem::Persist(&dir->entries()[base], chunk * sizeof(uint64_t));
      dir_lock_.UnlockShared();
    }
    CRASH_POINT("eh_merge_after_dir");
    pmem::MiniTx tx(pool_);
    tx.Stage(left->side_link_word(),
             reinterpret_cast<uint64_t>(right->side_link()));
    const size_t retire_slot = pool_->StageRetire(&tx, right);
    tx.Commit();
    CRASH_POINT("eh_merge_after_retire");
    pmem::PmPool* pool = pool_;
    epochs_->Retire([pool, retire_slot] { pool->CompleteRetire(retire_slot); });
  }

  // Recovery roll-forward of an interrupted merge (no bucket locks held;
  // exclusivity comes from the recovery mutex + version gating).
  void CompleteMerge(Segment* left, Segment* right) {
    const uint32_t ld = right->local_depth();
    right->ResetAllLocks();
    left->template DedupAdjacent<KP>(opts_);
    right->template DedupAdjacent<KP>(opts_);
    DrainForMerge(right, left, /*check_unique=*/true);
    CommitMerge(left, right, ld);
    left->template RebuildOverflowMetadata<KP>(opts_);
  }

  // Moves every record of `src` into `dst`. The pair pre-check guarantees
  // room; a placement failure would require pathological per-bucket pileup
  // far beyond the <=50% fullness gate and is treated as fatal.
  void DrainForMerge(Segment* src, Segment* dst, bool check_unique) {
    src->ForEachRecord([&](Bucket* bucket, int slot) {
      const uint64_t stored = bucket->record(slot).key;
      const uint64_t rh = KP::HashStored(stored);
      const uint64_t value = bucket->LoadValue(slot);
      const uint8_t fp = Segment::Fingerprint(rh);
      const uint32_t y0 = Segment::BucketIndex(rh, dst->num_buckets());
      const uint32_t y1 = (y0 + 1) & (dst->num_buckets() - 1);
      Bucket* c0 = dst->bucket(y0);
      Bucket* c1 = opts_.use_probing_bucket ? dst->bucket(y1) : nullptr;
      bool already = false;
      if (check_unique) {
        already = c0->FindStoredKey<KP>(fp, stored, opts_) >= 0 ||
                  (c1 != nullptr &&
                   c1->FindStoredKey<KP>(fp, stored, opts_) >= 0);
        for (uint32_t i = 0; i < dst->num_stash() && !already; ++i) {
          already =
              dst->stash_bucket(i)->FindStoredKey<KP>(fp, stored, opts_) >= 0;
        }
      }
      if (!already) {
        const OpStatus st = dst->template InsertStoredLocked<KP>(
            stored, value, fp, y0, c0, c1, opts_, alloc_,
            /*allow_stash_chain=*/false);
        assert(st == OpStatus::kOk && "merge drain overflow");
        (void)st;
      }
      bucket->DeleteSlot(slot);
    });
  }

  // Shrinks the directory when every entry pair is redundant (the halving
  // counterpart of §4.7's doubling). Publication mirrors DoubleDirectory.
  bool TryHalveDirectory() {
    dir_lock_.Lock();
    EhDirectory* old_dir = CurrentDir();
    const uint64_t gd = old_dir->global_depth;
    if (gd <= opts_.initial_depth || gd == 0) {
      dir_lock_.Unlock();
      return false;
    }
    for (uint64_t i = 0; i < (1ull << (gd - 1)); ++i) {
      if (old_dir->entry(2 * i) != old_dir->entry(2 * i + 1)) {
        dir_lock_.Unlock();
        return false;
      }
    }
    auto r = alloc_->ReserveUninitialized(EhDirectory::AllocSize(gd - 1));
    if (!r.valid()) {
      dir_lock_.Unlock();
      return false;
    }
    auto* new_dir = static_cast<EhDirectory*>(r.ptr);
    new_dir->global_depth = gd - 1;
    for (uint64_t i = 0; i < (1ull << (gd - 1)); ++i) {
      new_dir->SetEntry(i, old_dir->entry(2 * i));
    }
    pmem::Persist(new_dir, EhDirectory::AllocSize(gd - 1));
    pmem::MiniTx tx(pool_);
    tx.Stage(&root_->directory, reinterpret_cast<uint64_t>(new_dir));
    const size_t retire_slot = pool_->StageRetire(&tx, old_dir);
    tx.Stage(pool_->FromOffset<uint64_t>(
                 alloc_->ReservationSlotBlockOffset(r)),
             0);
    tx.Commit();
    CRASH_POINT("eh_halve_after_commit");
    dir_lock_.Unlock();
    pmem::PmPool* pool = pool_;
    epochs_->Retire([pool, retire_slot] { pool->CompleteRetire(retire_slot); });
    return true;
  }

  // ---- structural modification operations (§4.7) ----

  // Splits the segment currently owning `h`'s range. Returns false on
  // out-of-memory.
  bool Split(Segment* seg, uint64_t h) {
    seg->LockAllBuckets(opts_);
    if (!SegmentValid(seg, h)) {
      seg->UnlockAllBuckets(opts_);
      return true;  // someone else already split; caller retries
    }
    const uint32_t old_depth = seg->local_depth();

    // Ensure directory capacity first (may be raced by other splits; the
    // directory write lock serializes doubling).
    while (CurrentDir()->global_depth == old_depth) {
      if (!DoubleDirectory()) {
        seg->UnlockAllBuckets(opts_);
        return false;
      }
    }

    // 1. Mark SPLITTING.
    seg->SetDepthState(old_depth, Segment::kSplitting);
    CRASH_POINT("eh_split_after_mark");

    // 2. Allocate + publish the child via the side-link. The block is not
    // zeroed: SplitInto clears every bucket before it fills them.
    auto r = alloc_->ReserveUninitialized(
        Segment::AllocSize(seg->num_buckets(), seg->num_stash()));
    if (!r.valid()) {
      seg->SetDepthState(old_depth, Segment::kClean);
      seg->UnlockAllBuckets(opts_);
      return false;
    }
    auto* child = static_cast<Segment*>(r.ptr);
    child->Initialize(seg->num_buckets(), seg->num_stash(), old_depth + 1,
                      (seg->pattern() << 1) | 1, Segment::kNew,
                      root_->global_version);
    // The child inherits the source's right neighbor (§4.7).
    child->side_link_word()[0] =
        reinterpret_cast<uint64_t>(seg->side_link());
    child->PersistHeader();
    alloc_->Activate(r, seg->side_link_word());
    CRASH_POINT("eh_split_after_activate");

    // 3. Rehash into the child.
    seg->template SplitInto<KP>(child, MovesToChild(old_depth), opts_, alloc_,
                                /*allow_stash_chain=*/false);
    CRASH_POINT("eh_split_after_rehash");

    // 4-5. Pattern + directory + atomic state commit.
    FinishSplit(seg, child, old_depth);
    CRASH_POINT("eh_split_after_commit");

    // Rebuild the source's overflow metadata: records left in its stash
    // may now have different bucket owners than before the rehash deletes.
    seg->template RebuildOverflowMetadata<KP>(opts_);

    seg->UnlockAllBuckets(opts_);
    return true;
  }

  // Steps 4-5 of the split, shared with recovery roll-forward. Idempotent.
  void FinishSplit(Segment* seg, Segment* child, uint32_t old_depth) {
    seg->SetPattern(child->pattern() & ~1ull);
    UpdateDirectoryEntries(seg, child, old_depth);
    CRASH_POINT("eh_split_after_dir_update");
    pmem::MiniTx tx(pool_);
    tx.Stage(reinterpret_cast<uint64_t*>(child->depth_state_word()),
             (static_cast<uint64_t>(old_depth + 1) << 32) | Segment::kClean);
    tx.Stage(reinterpret_cast<uint64_t*>(seg->depth_state_word()),
             (static_cast<uint64_t>(old_depth + 1) << 32) | Segment::kClean);
    tx.Commit();
  }

  // The records of a segment at `old_depth` that its split moves to the
  // child: those whose (old_depth+1)-th hash MSB is 1.
  static auto MovesToChild(uint32_t old_depth) {
    const uint32_t shift = 64 - (old_depth + 1);
    return [shift](uint64_t h) { return ((h >> shift) & 1) != 0; };
  }

  // Points the upper half of the source's directory range at the child.
  // Idempotent; runs under the directory read lock so doubling cannot copy
  // a half-written range.
  void UpdateDirectoryEntries(Segment* seg, Segment* child,
                              uint32_t old_depth) {
    dir_lock_.LockShared();
    EhDirectory* dir = CurrentDir();
    const uint64_t gd = dir->global_depth;
    assert(gd > old_depth);
    const uint64_t old_pattern = child->pattern() >> 1;
    const uint64_t chunk = 1ull << (gd - old_depth);
    const uint64_t base = old_pattern << (gd - old_depth);
    for (uint64_t i = base + chunk / 2; i < base + chunk; ++i) {
      dir->SetEntry(i, child);
    }
    pmem::Persist(&dir->entries()[base + chunk / 2],
                  (chunk / 2) * sizeof(uint64_t));
    (void)seg;
    dir_lock_.UnlockShared();
  }

  // Doubles the directory (§4.7): build the new directory, then commit
  // {root pointer swap, retire-buffer entry for the old directory,
  // reservation-slot clear} in one mini-transaction. The old directory is
  // freed after an epoch grace period.
  bool DoubleDirectory() {
    dir_lock_.Lock();
    EhDirectory* old_dir = CurrentDir();
    const uint64_t gd = old_dir->global_depth;
    // Every entry is written and persisted below, before the commit.
    auto r = alloc_->ReserveUninitialized(EhDirectory::AllocSize(gd + 1));
    if (!r.valid()) {
      dir_lock_.Unlock();
      return false;
    }
    auto* new_dir = static_cast<EhDirectory*>(r.ptr);
    new_dir->global_depth = gd + 1;
    for (uint64_t i = 0; i < (1ull << gd); ++i) {
      Segment* seg = old_dir->entry(i);
      new_dir->SetEntry(2 * i, seg);
      new_dir->SetEntry(2 * i + 1, seg);
    }
    pmem::Persist(new_dir, EhDirectory::AllocSize(gd + 1));
    CRASH_POINT("eh_double_before_commit");

    pmem::MiniTx tx(pool_);
    tx.Stage(&root_->directory, reinterpret_cast<uint64_t>(new_dir));
    const size_t retire_slot = pool_->StageRetire(&tx, old_dir);
    tx.Stage(pool_->FromOffset<uint64_t>(
                 alloc_->ReservationSlotBlockOffset(r)),
             0);
    tx.Commit();
    CRASH_POINT("eh_double_after_commit");
    dir_lock_.Unlock();

    pmem::PmPool* pool = pool_;
    epochs_->Retire([pool, retire_slot] { pool->CompleteRetire(retire_slot); });
    return true;
  }

  static constexpr size_t kRecoveryMutexes = 64;

  pmem::PmPool* pool_;
  pmem::PmAllocator* alloc_;
  epoch::EpochManager* epochs_;
  DashOptions opts_;
  DashEhRoot* root_;
  util::ShardedBucketLockStats lock_stats_;  // DRAM, per-thread sharded
  util::RwSpinLock dir_lock_;  // volatile: shared=entry updates, excl=double
  std::mutex recovery_mutexes_[kRecoveryMutexes];
};

}  // namespace dash

#endif  // DASH_PM_DASH_DASH_EH_H_
