// Level hashing baseline (Zuo et al., OSDI '18) as characterized in the
// paper (§2.3 "Static Hashing on PM", §6):
//
//  * a two-level structure: a top level of 2^L buckets and a bottom
//    ("standby") level of 2^(L-1) buckets;
//  * 128-byte (two-cacheline) buckets;
//  * two hash choices per level, plus one movement attempt before resizing;
//  * resizing rehashes the bottom level into a new top level twice the old
//    top's size; the old top becomes the new bottom. This full-table rehash
//    is expensive on PM and blocks concurrent operations (Fig. 8a);
//  * lock striping for concurrency: all locks live in one small, contiguous
//    (and therefore cacheable) array;
//  * constant-time recovery (Table 1): only the root pointers are read.
//
// Locking. The striped bucket locks and the resize lock's read side are
// *optimistic* (Dash §4.4 applied to the baseline): searches snapshot a
// stripe's version, probe without writing any lock word, and revalidate —
// retrying on conflict. Writers (insert/update/delete) still acquire
// stripes exclusively, and still take the resize lock shared to exclude
// the full-table resize; the resize itself bumps a seqlock-style version
// (util::OptimisticRwLock) so in-flight readers of the old top/bottom
// arrays detect the swap and retry instead of blocking behind it.

#ifndef DASH_PM_LEVEL_LEVEL_HASHING_H_
#define DASH_PM_LEVEL_LEVEL_HASHING_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdint>

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
#include "util/hash.h"
#include "util/lock.h"
#include "util/prefetch.h"

namespace dash::level {

inline constexpr uint32_t kSlotsPerBucket = 7;  // 16 B header + 7 records

struct LevelRecord {
  uint64_t key;
  uint64_t value;
};

// 128-byte, two-cacheline bucket.
struct LevelBucket {
  std::atomic<uint32_t> bitmap;  // bits 0..6 = slot occupancy
  uint32_t pad0;
  uint64_t pad1;
  LevelRecord records[kSlotsPerBucket];

  uint32_t Occupied() const { return bitmap.load(std::memory_order_acquire); }
  bool IsFull() const {
    return (Occupied() & ((1u << kSlotsPerBucket) - 1)) ==
           ((1u << kSlotsPerBucket) - 1);
  }
  int FreeSlot() const {
    const uint32_t free =
        ~Occupied() & ((1u << kSlotsPerBucket) - 1);
    return free == 0 ? -1 : __builtin_ctz(free);
  }
  uint32_t CountRecords() const { return __builtin_popcount(Occupied()); }

  // Record-field atomics: optimistic searches probe buckets without the
  // stripe lock, so every load/store that can race goes through 8-byte
  // atomics (the version revalidation discards stale *logical* states;
  // these keep the individual accesses untorn and TSan-clean).
  uint64_t LoadKeyAcquire(int slot) const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&records[slot].key)
        ->load(std::memory_order_acquire);
  }
  uint64_t LoadValueAcquire(int slot) const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(
               &records[slot].value)
        ->load(std::memory_order_acquire);
  }

  // Crash-consistent insert: record first, then the bitmap bit.
  void Insert(int slot, uint64_t stored, uint64_t value) {
    reinterpret_cast<std::atomic<uint64_t>*>(&records[slot].key)
        ->store(stored, std::memory_order_relaxed);
    reinterpret_cast<std::atomic<uint64_t>*>(&records[slot].value)
        ->store(value, std::memory_order_relaxed);
    pmem::Persist(&records[slot], sizeof(LevelRecord));
    bitmap.store(Occupied() | (1u << slot), std::memory_order_release);
    pmem::Persist(this, 16);
  }
  void Delete(int slot) {
    bitmap.store(Occupied() & ~(1u << slot), std::memory_order_release);
    pmem::Persist(this, 16);
  }
};
static_assert(sizeof(LevelBucket) == 128);

struct LevelRoot {
  uint64_t top;           // LevelBucket[top_buckets]
  uint64_t bottom;        // LevelBucket[top_buckets / 2]
  uint64_t top_buckets;   // power of two
  uint64_t initialized;
  uint8_t clean;
  uint8_t pad[7];
};

struct LevelOptions {
  // Initial top-level bucket count (power of two). 2^10 x 128 B = 128 KB.
  uint64_t initial_top_buckets = 1024;
};

struct LevelStats {
  uint64_t records = 0;
  uint64_t capacity_slots = 0;
  uint64_t top_buckets = 0;
  uint64_t resizes = 0;
  double load_factor = 0.0;
  // Read-path concurrency telemetry (cumulative since table open): see
  // util::ShardedOptimisticLockStats. write_locks counts exclusive
  // acquisitions (per-op stripe LockAll, movement-path TryLock wins,
  // resizes).
  uint64_t opt_retries = 0;
  uint64_t version_conflicts = 0;
  uint64_t write_locks = 0;
};

// Insert/Search/Update/Delete, the Multi* batch calls and PrefetchBatch
// come from TableFront (dash/table_front.h). Its write engine runs one
// prefetch pass here: a Level write probes all four candidates while
// holding every involved stripe lock (LockAll), so there is no lock-free
// program point after the candidate prefetch to suspend at.
template <typename KP = IntKeyPolicy>
class LevelHashing : public TableFront<LevelHashing<KP>, KP, 1> {
 public:
  using KeyArg = typename KP::KeyArg;

  LevelHashing(pmem::PmPool* pool, epoch::EpochManager* epochs,
               const LevelOptions& options)
      : pool_(pool),
        alloc_(&pool->allocator()),
        epochs_(epochs),
        opts_(options),
        root_(static_cast<LevelRoot*>(pool->root())) {
    if (root_->initialized == 0) {
      CreateNew();
    } else {
      // Constant-work recovery: read the root, clear stale striped locks
      // (they are volatile), mark dirty.
      root_->clean = 0;
      pmem::Persist(&root_->clean, 1);
    }
  }

  LevelHashing(const LevelHashing&) = delete;
  LevelHashing& operator=(const LevelHashing&) = delete;

  void CloseClean() {
    epochs_->DrainAll();
    root_->clean = 1;
    pmem::Persist(&root_->clean, 1);
  }

  LevelStats Stats() const {
    LevelStats stats;
    stats.top_buckets = root_->top_buckets;
    stats.resizes = resizes_;
    auto count = [&](LevelBucket* arr, uint64_t n) {
      for (uint64_t i = 0; i < n; ++i) stats.records += arr[i].CountRecords();
      stats.capacity_slots += n * kSlotsPerBucket;
    };
    count(Top(), root_->top_buckets);
    count(Bottom(), root_->top_buckets / 2);
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
  // recovery): both level arrays live inside the pool, the top size is a
  // non-zero power of two, and no bucket bitmap has occupancy bits beyond
  // the slot count (a torn 16-byte header write leaves exactly that).
  // Read-only; O(capacity), which also gives parallel shard recovery
  // measurable per-shard work.
  bool VerifyStructure() const {
    const uint64_t n = root_->top_buckets;
    if (n == 0 || (n & (n - 1)) != 0) return false;
    LevelBucket* top = Top();
    LevelBucket* bottom = Bottom();
    if (!pool_->Contains(top) ||
        !pool_->Contains(top + n - 1)) {
      return false;
    }
    if (n >= 2 &&
        (!pool_->Contains(bottom) || !pool_->Contains(bottom + n / 2 - 1))) {
      return false;
    }
    constexpr uint32_t kValidBits = (1u << kSlotsPerBucket) - 1;
    for (uint64_t i = 0; i < n; ++i) {
      if ((top[i].Occupied() & ~kValidBits) != 0) return false;
    }
    for (uint64_t i = 0; i < n / 2; ++i) {
      if ((bottom[i].Occupied() & ~kValidBits) != 0) return false;
    }
    return true;
  }

 private:
  friend class TableFront<LevelHashing<KP>, KP, 1>;

  static constexpr uint32_t kStripes = 4096;

  struct Candidates {
    // 0,1 = top choices; 2,3 = bottom (standby) choices.
    LevelBucket* buckets[4];
    uint64_t ids[4];  // global bucket ids (top: [0,N), bottom: N + [0,N/2))
  };

  // ---- per-op bodies (caller holds an epoch guard) ----
  //
  // `h` is the key's first hash; the second choice is Mix64(h) (Locate).

  OpStatus InsertWithHash(KeyArg key, uint64_t value, uint64_t h) {
    for (;;) {
      resize_lock_.LockShared();
      const AttemptResult result = InsertAttempt(key, value, h);
      resize_lock_.UnlockShared();
      if (result == AttemptResult::kInserted) return OpStatus::kOk;
      if (result == AttemptResult::kDuplicate) return OpStatus::kExists;
      // Out of room: full-table resize (blocks all operations). A failed
      // resize — pool exhausted, or the (virtually impossible, 5x
      // headroom) cuckoo-displacement overflow — means the table cannot
      // grow; surface that instead of retrying forever.
      if (!Resize(TopBuckets())) return OpStatus::kOutOfMemory;
    }
  }

  // Lock-free search: snapshot the resize version, probe the four
  // candidates optimistically (per-stripe snapshot/verify), then confirm
  // the table was not swapped under us. An in-flight or completed resize
  // invalidates the snapshot and the whole op retries against the fresh
  // top/bottom pointers; the epoch guard keeps a retired bottom array
  // mapped while a stale probe is still touching it.
  OpStatus SearchWithHash(KeyArg key, uint64_t h, uint64_t* out) {
    util::SpinBackoff backoff;
    for (;;) {
      const uint32_t rs = SnapshotResize();
      Candidates c = Locate(h);
      const bool found = ProbeCandidateRangeOptimistic(c, 0, 4, h, key, out);
      if (resize_lock_.Verify(rs)) {
        return found ? OpStatus::kOk : OpStatus::kNotFound;
      }
      lock_stats_.CountRetry();
      backoff.Pause();
    }
  }

  // Resize-version snapshot for optimistic reads; spins while a resize is
  // active (odd parity) since the commit swaps the arrays mid-section.
  uint32_t SnapshotResize() {
    util::SpinBackoff backoff;
    for (;;) {
      const uint32_t rs = resize_lock_.Snapshot();
      if (util::OptimisticRwLock::SnapshotValid(rs)) return rs;
      lock_stats_.CountConflict();
      backoff.Pause();
    }
  }

  // Probes candidates [from, to) in order, each under its stripe's
  // version: snapshot, probe, verify, retry the candidate on conflict.
  // No lock word is written. The same helper backs the single-op search
  // (whole range) and the AMAC search's two halves (top level then
  // bottom), so probe order and revalidation are shared.
  bool ProbeCandidateRangeOptimistic(const Candidates& c, int from, int to,
                                     uint64_t h1, KeyArg key,
                                     uint64_t* out) {
    for (int i = from; i < to; ++i) {
      const uint32_t stripe = StripeOf(c.ids[i]);
      util::SpinBackoff backoff;
      for (;;) {
        const uint32_t snap = locks_[stripe].Snapshot();
        if (util::VersionLock::IsLocked(snap)) {
          lock_stats_.CountConflict();
          backoff.Pause();
          continue;
        }
        const int slot = FindIn(c.buckets[i], h1 & 0xFF, key);
        const uint64_t value =
            slot >= 0 ? c.buckets[i]->LoadValueAcquire(slot) : 0;
        if (!locks_[stripe].Verify(snap)) {
          lock_stats_.CountRetry();
          backoff.Pause();
          continue;
        }
        if (slot >= 0) {
          *out = value;
          return true;
        }
        break;
      }
    }
    return false;
  }

  // ---- state-machine (AMAC) search engine ----
  //
  // Monotonic per-op machines scheduled as state passes (util/amac.h).
  // Searches take no locks at all: one resize-version snapshot covers the
  // group (the candidate pointers computed in the Hash pass stay valid
  // across suspends — the epoch guard keeps even a concurrently retired
  // bottom array mapped), each op revalidates the snapshot when it
  // completes, and ops that lose the race against a resize commit finish
  // through the single-op retry loop in a dedicated Retry pass. A resize
  // therefore never waits for an in-flight group, and a group never
  // blocks behind a resize already in progress at snapshot time only.

  void AmacMultiSearch(const KeyArg* keys, size_t count, uint64_t* values,
                       OpStatus* statuses) {
    util::AmacTelemetry& tele = util::AmacTelemetry::Local();
    uint64_t h1s[util::kBatchGroupWidth];
    Candidates cands[util::kBatchGroupWidth];
    for (size_t base = 0; base < count; base += util::kBatchGroupWidth) {
      const size_t n = std::min(util::kBatchGroupWidth, count - base);
      epoch::EpochManager::Guard guard(*epochs_);
      const uint32_t rs = SnapshotResize();
      util::AmacGroupCounters ctr;
      ++tele.groups;
      tele.ops += n;
      for (size_t i = 0; i < n; ++i) {
        h1s[i] = KP::Hash(keys[base + i]);
        cands[i] = Locate(h1s[i]);
        // First top candidate only: each later candidate is fetched
        // lazily on a miss of the previous one, keeping the group's
        // outstanding-prefetch burst within what the core's miss buffers
        // can track (16 ops x 2 lines instead of x 4+).
        util::PrefetchRange(cands[i].buckets[0], sizeof(LevelBucket));
        ctr.Suspend(util::AmacState::kHash);
      }
      util::AmacReadyList second_pending;
      util::AmacReadyList bottom_pending;
      util::AmacReadyList retry_pending;
      for (size_t i = 0; i < n; ++i) {
        ++ctr.steps;
        if (ProbeCandidateRangeOptimistic(cands[i], 0, 1, h1s[i],
                                          keys[base + i],
                                          &values[base + i])) {
          if (resize_lock_.Verify(rs)) {
            statuses[base + i] = OpStatus::kOk;
          } else {
            retry_pending.Push(i);
            ctr.Suspend(util::AmacState::kRetry);
          }
          continue;
        }
        util::PrefetchRange(cands[i].buckets[1], sizeof(LevelBucket));
        second_pending.Push(i);
        ctr.Suspend(util::AmacState::kDirProbe);
      }
      for (size_t j = 0; j < second_pending.count; ++j) {
        const size_t i = second_pending.idx[j];
        ++ctr.steps;
        if (ProbeCandidateRangeOptimistic(cands[i], 1, 2, h1s[i],
                                          keys[base + i],
                                          &values[base + i])) {
          if (resize_lock_.Verify(rs)) {
            statuses[base + i] = OpStatus::kOk;
          } else {
            retry_pending.Push(i);
            ctr.Suspend(util::AmacState::kRetry);
          }
          continue;
        }
        util::PrefetchRange(cands[i].buckets[2], sizeof(LevelBucket));
        util::PrefetchRange(cands[i].buckets[3], sizeof(LevelBucket));
        bottom_pending.Push(i);
        ctr.Suspend(util::AmacState::kBucketProbe);
      }
      for (size_t j = 0; j < bottom_pending.count; ++j) {
        const size_t i = bottom_pending.idx[j];
        ++ctr.steps;
        // Bottom (standby) level reprobe over warm lines.
        const bool found = ProbeCandidateRangeOptimistic(
            cands[i], 2, 4, h1s[i], keys[base + i], &values[base + i]);
        if (resize_lock_.Verify(rs)) {
          statuses[base + i] = found ? OpStatus::kOk : OpStatus::kNotFound;
        } else {
          retry_pending.Push(i);
          ctr.Suspend(util::AmacState::kRetry);
        }
      }
      for (size_t j = 0; j < retry_pending.count; ++j) {
        const size_t i = retry_pending.idx[j];
        ++ctr.steps;
        // A resize committed mid-group: redo against the live arrays
        // (fresh snapshot, fresh candidate pointers).
        lock_stats_.CountRetry();
        statuses[base + i] =
            SearchWithHash(keys[base + i], h1s[i], &values[base + i]);
      }
      ctr.FlushTo(tele);
    }
  }

  // Updates and deletes act on every copy of the key among the four
  // candidates. A crash between the insert movement's copy and its delete
  // (InsertAttempt) leaves the moved key in two buckets, and a later resize
  // may rehash both copies into one bucket. Recovery does constant work
  // and never looks for them, so a write that stopped at the first copy
  // would let the other one come back.
  OpStatus DeleteWithHash(KeyArg key, uint64_t h) {
    resize_lock_.LockShared();
    Candidates c = Locate(h);
    LockAll(c);
    uint64_t stored = 0;
    const bool found = ForEachCopy(c, key, [&](LevelBucket* b, int slot) {
      stored = b->records[slot].key;
      b->Delete(slot);
    });
    // The copies share one stored key word (the movement copies it), so a
    // variable-length key's blob is freed once, after the last copy left.
    if (found) KP::FreeStored(stored, alloc_);
    UnlockAll(c);
    resize_lock_.UnlockShared();
    return found ? OpStatus::kOk : OpStatus::kNotFound;
  }

  OpStatus UpdateWithHash(KeyArg key, uint64_t value, uint64_t h) {
    resize_lock_.LockShared();
    Candidates c = Locate(h);
    LockAll(c);
    const bool found = ForEachCopy(c, key, [&](LevelBucket* b, int slot) {
      pmem::AtomicPersist64(&b->records[slot].value, value);
    });
    UnlockAll(c);
    resize_lock_.UnlockShared();
    return found ? OpStatus::kOk : OpStatus::kNotFound;
  }

  // Calls fn(bucket, slot) for every slot of the candidate buckets that
  // holds `key`, visiting a bucket listed twice (equal choices) once.
  // Caller holds the candidates' stripes.
  template <typename Fn>
  bool ForEachCopy(const Candidates& c, KeyArg key, Fn fn) {
    bool found = false;
    for (int i = 0; i < 4; ++i) {
      LevelBucket* b = c.buckets[i];
      if ((i & 1) != 0 && b == c.buckets[i - 1]) continue;
      pmem::ReadProbe(b, 2);
      uint32_t bits = b->Occupied() & ((1u << kSlotsPerBucket) - 1);
      while (bits != 0) {
        const int slot = __builtin_ctz(bits);
        bits &= bits - 1;
        if (KP::EqualStored(b->LoadKeyAcquire(slot), key)) {
          fn(b, slot);
          found = true;
        }
      }
    }
    return found;
  }

  // The one prefetch pass shared by the write engine and PrefetchBatch:
  // hash the group and prefetch both cachelines of all four candidate
  // buckets. The top/bottom pointers and bucket count may be swapped by a
  // concurrent resize (hence the atomic snapshot of the count — the
  // resize commit writes it); the snapshot triple may be mutually
  // inconsistent, which is fine because prefetches are never
  // dereferenced, and the execute stage re-locates under the resize
  // lock. A stale prefetch costs at most an extra miss.
  void PrefetchGroup(const KeyArg* keys, size_t n, uint64_t* hashes,
                     bool for_write) const {
    const uint64_t buckets = TopBuckets();
    LevelBucket* top = Top();
    LevelBucket* bottom = Bottom();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t h1 = hashes[i] = KP::Hash(keys[i]);
      const uint64_t h2 = util::Mix64(h1);
      const LevelBucket* candidates[4] = {
          &top[h1 & (buckets - 1)], &top[h2 & (buckets - 1)],
          &bottom[h1 & (buckets / 2 - 1)], &bottom[h2 & (buckets / 2 - 1)]};
      for (const LevelBucket* b : candidates) {
        // Both cachelines: records 3-6 live entirely in the second line.
        util::PrefetchRange(b, sizeof(LevelBucket), for_write);
      }
    }
  }

  // Bucket count read outside the resize lock, racing the resize
  // commit's atomic store.
  uint64_t TopBuckets() const {
    return reinterpret_cast<const std::atomic<uint64_t>*>(&root_->top_buckets)
        ->load(std::memory_order_acquire);
  }
  LevelBucket* Top() const {
    return reinterpret_cast<LevelBucket*>(
        reinterpret_cast<const std::atomic<uint64_t>*>(&root_->top)->load(
            std::memory_order_acquire));
  }
  LevelBucket* Bottom() const {
    return reinterpret_cast<LevelBucket*>(
        reinterpret_cast<const std::atomic<uint64_t>*>(&root_->bottom)->load(
            std::memory_order_acquire));
  }

  static uint32_t StripeOf(uint64_t bucket_id) {
    return static_cast<uint32_t>(bucket_id) % kStripes;
  }

  Candidates Locate(uint64_t h1) const {
    const uint64_t h2 = util::Mix64(h1);
    // Atomic snapshot: lock-free searches race the resize commit's
    // atomic store of the bucket count (a mutually inconsistent
    // (n, top, bottom) triple is discarded by the resize-version check).
    const uint64_t n = TopBuckets();
    const uint64_t t1 = h1 & (n - 1);
    const uint64_t t2 = h2 & (n - 1);
    // Bottom indices use h mod (N/2). This is what makes resizing work:
    // the old top (indexed by h mod N) becomes the new bottom when the new
    // top has 2N buckets, and h mod N is exactly the new bottom index.
    const uint64_t b1 = h1 & (n / 2 - 1);
    const uint64_t b2 = h2 & (n / 2 - 1);
    LevelBucket* top = Top();
    LevelBucket* bottom = Bottom();
    Candidates c;
    c.buckets[0] = &top[t1];
    c.buckets[1] = &top[t2];
    c.buckets[2] = &bottom[b1];
    c.buckets[3] = &bottom[b2];
    c.ids[0] = t1;
    c.ids[1] = t2;
    c.ids[2] = n + b1;
    c.ids[3] = n + b2;
    return c;
  }

  void LockAll(const Candidates& c) {
    uint32_t stripes[4];
    for (int i = 0; i < 4; ++i) stripes[i] = StripeOf(c.ids[i]);
    std::sort(stripes, stripes + 4);
    uint32_t last = ~0u;
    for (uint32_t s : stripes) {
      if (s != last) locks_[s].Lock();
      last = s;
    }
    lock_stats_.CountWriteLock();
  }
  void UnlockAll(const Candidates& c) {
    uint32_t stripes[4];
    for (int i = 0; i < 4; ++i) stripes[i] = StripeOf(c.ids[i]);
    std::sort(stripes, stripes + 4);
    uint32_t last = ~0u;
    for (uint32_t s : stripes) {
      if (s != last) locks_[s].Unlock();
      last = s;
    }
  }

  // Shared by locked write bodies and lock-free searches, so keys are
  // loaded atomically (slot reuse after a delete is an atomic store on
  // the writer side; the stripe version check discards stale hits).
  int FindIn(LevelBucket* bucket, uint8_t /*fp*/, KeyArg key) const {
    // Two cachelines per probed bucket (128 B).
    pmem::ReadProbe(bucket, 2);
    uint32_t bits =
        bucket->Occupied() & ((1u << kSlotsPerBucket) - 1);
    while (bits != 0) {
      const int slot = __builtin_ctz(bits);
      bits &= bits - 1;
      if (KP::EqualStored(bucket->LoadKeyAcquire(slot), key)) return slot;
    }
    return -1;
  }

  enum class AttemptResult { kInserted, kDuplicate, kNeedResize };

  // One insert attempt under the shared resize lock.
  AttemptResult InsertAttempt(KeyArg key, uint64_t value, uint64_t h) {
    Candidates c = Locate(h);
    LockAll(c);
    // Uniqueness check across all four candidates.
    for (int i = 0; i < 4; ++i) {
      if (FindIn(c.buckets[i], 0, key) >= 0) {
        UnlockAll(c);
        return AttemptResult::kDuplicate;
      }
    }
    // Try the less-loaded top bucket first, then bottom standby buckets.
    int order[4] = {0, 1, 2, 3};
    if (c.buckets[1]->CountRecords() < c.buckets[0]->CountRecords()) {
      std::swap(order[0], order[1]);
    }
    for (int i : order) {
      const int slot = c.buckets[i]->FreeSlot();
      if (slot >= 0) {
        const uint64_t stored = KP::MakeStored(key, alloc_);
        c.buckets[i]->Insert(slot, stored, value);
        UnlockAll(c);
        return AttemptResult::kInserted;
      }
    }
    // One movement attempt: displace a record from a top candidate to its
    // alternative top bucket.
    for (int i = 0; i < 2; ++i) {
      LevelBucket* b = c.buckets[i];
      for (uint32_t slot = 0; slot < kSlotsPerBucket; ++slot) {
        if (((b->Occupied() >> slot) & 1) == 0) continue;
        const uint64_t stored = b->records[slot].key;
        const uint64_t rh1 = KP::HashStored(stored);
        const uint64_t rh2 = util::Mix64(rh1);
        const uint64_t n = root_->top_buckets;
        const uint64_t alt =
            (rh1 & (n - 1)) == c.ids[i] ? (rh2 & (n - 1)) : (rh1 & (n - 1));
        if (alt == c.ids[0] || alt == c.ids[1]) continue;
        const uint32_t alt_stripe = StripeOf(alt);
        if (!locks_[alt_stripe].TryLock()) continue;
        lock_stats_.CountWriteLock();
        LevelBucket* alt_bucket = &Top()[alt];
        const int free_slot = alt_bucket->FreeSlot();
        if (free_slot < 0) {
          locks_[alt_stripe].Unlock();
          continue;
        }
        alt_bucket->Insert(free_slot, stored, b->records[slot].value);
        // The record is durable in both buckets until the delete below.
        CRASH_POINT("level_move_after_copy");
        b->Delete(static_cast<int>(slot));
        locks_[alt_stripe].Unlock();
        const uint64_t new_stored = KP::MakeStored(key, alloc_);
        b->Insert(static_cast<int>(slot), new_stored, value);
        UnlockAll(c);
        return AttemptResult::kInserted;
      }
    }
    UnlockAll(c);
    return AttemptResult::kNeedResize;
  }

  void CreateNew() {
    root_->top_buckets = opts_.initial_top_buckets;
    root_->clean = 0;
    pmem::Persist(root_, sizeof(*root_));
    {
      auto r = alloc_->Reserve(root_->top_buckets * sizeof(LevelBucket));
      assert(r.valid());
      alloc_->Activate(r, &root_->top);
    }
    {
      auto r = alloc_->Reserve(root_->top_buckets / 2 * sizeof(LevelBucket));
      assert(r.valid());
      alloc_->Activate(r, &root_->bottom);
    }
    root_->initialized = 1;
    pmem::PersistObject(&root_->initialized);
  }

  // Full-table resize (§2.3 of the paper's description): the bottom level
  // is rehashed into a brand-new top of twice the old top's size; the old
  // top becomes the new bottom. Exclusive — blocks every operation.
  // Returns false only when no progress could be made because the pool is
  // out of memory.
  bool Resize(uint64_t expected_n) {
    resize_lock_.Lock();
    lock_stats_.CountWriteLock();
    // Another thread may have resized while we waited for the lock.
    if (root_->top_buckets != expected_n) {
      resize_lock_.Unlock();
      return true;
    }
    const uint64_t old_n = root_->top_buckets;
    LevelBucket* old_top = Top();
    LevelBucket* old_bottom = Bottom();

    const uint64_t new_n = old_n * 2;
    auto r = alloc_->Reserve(new_n * sizeof(LevelBucket));
    if (!r.valid()) {
      resize_lock_.Unlock();
      return false;
    }
    auto* new_top = static_cast<LevelBucket*>(r.ptr);
    CRASH_POINT("level_resize_after_alloc");

    // Rehash every bottom record into the *new top only* (two choices plus
    // one movement attempt). The old structure is never mutated before the
    // commit, so a crash at any point leaves the old table intact; the new
    // top is at most 25% full afterwards, so placement virtually never
    // fails.
    bool ok = true;
    for (uint64_t i = 0; i < old_n / 2 && ok; ++i) {
      CRASH_POINT("level_resize_during_rehash");
      LevelBucket* b = &old_bottom[i];
      const uint32_t occupied = b->Occupied();
      for (uint32_t slot = 0; slot < kSlotsPerBucket && ok; ++slot) {
        if (((occupied >> slot) & 1) == 0) continue;
        ok = RehashRecord(new_top, new_n, b->records[slot].key,
                          b->records[slot].value);
      }
    }
    if (!ok) {
      // Extremely unlikely (the new structure has 5x the bottom's
      // capacity); give up cleanly.
      alloc_->Cancel(r);
      resize_lock_.Unlock();
      return false;
    }
    pmem::Persist(new_top, new_n * sizeof(LevelBucket));
    CRASH_POINT("level_resize_before_commit");

    // Atomic commit: swap top/bottom pointers, retire the old bottom,
    // clear the reservation.
    pmem::MiniTx tx(pool_);
    tx.Stage(&root_->top, reinterpret_cast<uint64_t>(new_top));
    tx.Stage(&root_->bottom, reinterpret_cast<uint64_t>(old_top));
    tx.Stage(&root_->top_buckets, new_n);
    const size_t retire_slot = pool_->StageRetire(&tx, old_bottom);
    tx.Stage(pool_->FromOffset<uint64_t>(
                 alloc_->ReservationSlotBlockOffset(r)),
             0);
    tx.Commit();
    CRASH_POINT("level_resize_after_commit");
    ++resizes_;
    resize_lock_.Unlock();

    pmem::PmPool* pool = pool_;
    epochs_->Retire([pool, retire_slot] { pool->CompleteRetire(retire_slot); });
    return true;
  }

  bool RehashRecord(LevelBucket* new_top, uint64_t new_n, uint64_t stored,
                    uint64_t value) {
    const uint64_t h1 = KP::HashStored(stored);
    const uint64_t h2 = util::Mix64(h1);
    const uint64_t t1 = h1 & (new_n - 1);
    const uint64_t t2 = h2 & (new_n - 1);
    for (uint64_t t : {t1, t2}) {
      const int slot = new_top[t].FreeSlot();
      if (slot >= 0) {
        new_top[t].Insert(slot, stored, value);
        return true;
      }
    }
    // Movement attempt within the new top.
    for (uint64_t t : {t1, t2}) {
      LevelBucket* b = &new_top[t];
      for (uint32_t slot = 0; slot < kSlotsPerBucket; ++slot) {
        const uint64_t vk = b->records[slot].key;
        const uint64_t vh1 = KP::HashStored(vk);
        const uint64_t vh2 = util::Mix64(vh1);
        const uint64_t alt =
            (vh1 & (new_n - 1)) == t ? (vh2 & (new_n - 1)) : (vh1 & (new_n - 1));
        if (alt == t1 || alt == t2) continue;
        const int free_slot = new_top[alt].FreeSlot();
        if (free_slot < 0) continue;
        new_top[alt].Insert(free_slot, vk, b->records[slot].value);
        b->Delete(static_cast<int>(slot));
        b->Insert(static_cast<int>(slot), stored, value);
        return true;
      }
    }
    return false;
  }

  pmem::PmPool* pool_;
  pmem::PmAllocator* alloc_;
  epoch::EpochManager* epochs_;
  LevelOptions opts_;
  LevelRoot* root_;
  // Resize lock: writers (insert/update/delete) hold it shared, the
  // resize holds it exclusively, and searches read its version only.
  util::OptimisticRwLock resize_lock_;
  // Striped bucket version locks (volatile): writers exclusive, searches
  // snapshot/verify — a search writes no lock word at all.
  util::VersionLock locks_[kStripes];
  uint64_t resizes_ = 0;
  // Read-path concurrency telemetry, sharded per thread (see CCEH).
  alignas(64) mutable util::ShardedOptimisticLockStats lock_stats_;
};

}  // namespace dash::level

#endif  // DASH_PM_LEVEL_LEVEL_HASHING_H_
