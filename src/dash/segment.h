// The Dash segment (paper §4.1, Figure 3): a fixed number of normal
// buckets followed by stash buckets, plus the metadata needed for
// structural modification operations (SMOs) and lazy recovery.
//
// All record-level operations live here — bucket pair locking, balanced
// insert, displacement, stashing (Algorithm 1/2), optimistic and
// pessimistic search (Algorithm 3), deletion, and the per-segment recovery
// passes (§4.8: lock clearing, duplicate removal, overflow-metadata
// rebuild). The table classes (Dash-EH / Dash-LH) layer directory
// addressing and SMOs on top.

#ifndef DASH_PM_DASH_SEGMENT_H_
#define DASH_PM_DASH_SEGMENT_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dash/bucket.h"
#include "dash/config.h"
#include "dash/key_policy.h"
#include "dash/op_status.h"
#include "pmem/allocator.h"
#include "pmem/crash_point.h"
#include "pmem/persist.h"
#include "util/lock.h"
#include "util/prefetch.h"

namespace dash {

// Aggregate table statistics (shared by Dash-EH and Dash-LH).
struct DashTableStats {
  uint64_t segments = 0;
  uint64_t records = 0;
  uint64_t capacity_slots = 0;
  uint64_t directory_entries = 0;
  double load_factor = 0.0;
  // Bucket-lock telemetry (cumulative since table open): exclusive
  // acquisitions performed by the write paths and backoff pauses spent
  // contended behind a holder (see util::ShardedBucketLockStats).
  uint64_t bucket_lock_acquisitions = 0;
  uint64_t bucket_lock_contended_spins = 0;
};

// Overflow stash-chain node (Dash-LH, §5.1): an extra stash bucket linked
// off the segment when the fixed stash buckets fill up.
struct StashChainNode {
  uint64_t next;  // StashChainNode*; 0 terminates
  uint64_t pad[7];
  Bucket bucket;
};

class Segment {
 public:
  // SMO states (§4.7).
  static constexpr uint32_t kClean = 0;
  static constexpr uint32_t kSplitting = 1;
  static constexpr uint32_t kNew = 2;
  // Right sibling of an in-flight merge (extension; see DashEH::TryMerge).
  static constexpr uint32_t kMerging = 3;
  // A NEW split destination whose records are all in place and durable
  // (SplitInto). It is still NEW to every reader and writer; recovery only
  // drops the source's leftover copies instead of refilling it.
  static constexpr uint32_t kFilled = 4;
  static constexpr uint32_t kMaxState = kFilled;

  // ---- layout ----

  static size_t AllocSize(uint32_t num_buckets, uint32_t num_stash) {
    return sizeof(Segment) +
           (static_cast<size_t>(num_buckets) + num_stash) * sizeof(Bucket);
  }

  Bucket* bucket(uint32_t i) {
    return reinterpret_cast<Bucket*>(this + 1) + i;
  }
  const Bucket* bucket(uint32_t i) const {
    return reinterpret_cast<const Bucket*>(this + 1) + i;
  }
  Bucket* stash_bucket(uint32_t i) { return bucket(num_buckets_ + i); }

  uint32_t num_buckets() const { return num_buckets_; }
  uint32_t num_stash() const { return num_stash_; }

  // ---- hash-bit layout (matches the open-source Dash) ----
  // bits 0..7   : fingerprint
  // bits 8..    : bucket index within the segment
  // top bits    : segment addressing (MSBs for Dash-EH, §4.7)

  static uint8_t Fingerprint(uint64_t hash) {
    return static_cast<uint8_t>(hash & 0xFF);
  }
  static uint32_t BucketIndex(uint64_t hash, uint32_t num_buckets) {
    return static_cast<uint32_t>((hash >> 8) & (num_buckets - 1));
  }

  // ---- header accessors ----

  uint32_t local_depth() const {
    return static_cast<uint32_t>(
        depth_state_.load(std::memory_order_acquire) >> 32);
  }
  uint32_t state() const {
    return static_cast<uint32_t>(
        depth_state_.load(std::memory_order_acquire) & 0xFFFFFFFFu);
  }
  // True for a split destination that is not committed yet.
  bool IsNew() const {
    const uint32_t s = state();
    return s == kNew || s == kFilled;
  }
  // Updates depth and state in one atomic persistent store (the split
  // commit point relies on this).
  void SetDepthState(uint32_t depth, uint32_t state) {
    const uint64_t v = (static_cast<uint64_t>(depth) << 32) | state;
    depth_state_.store(v, std::memory_order_release);
    pmem::Persist(&depth_state_, sizeof(depth_state_));
  }
  // For staging the split commit inside a mini-transaction.
  uint64_t* depth_state_word() {
    return reinterpret_cast<uint64_t*>(&depth_state_);
  }

  // Relaxed atomics: lock-free searches validate against the pattern
  // (SegmentValid) while a split rewrites it.
  uint64_t pattern() const {
    return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(pattern_))
        .load(std::memory_order_relaxed);
  }
  void SetPattern(uint64_t pattern) {
    std::atomic_ref<uint64_t>(pattern_).store(pattern,
                                              std::memory_order_relaxed);
    pmem::Persist(&pattern_, sizeof(pattern_));
  }

  Segment* side_link() const {
    return reinterpret_cast<Segment*>(
        side_link_.load(std::memory_order_acquire));
  }
  // The publication target for split allocations (§4.7): once this points
  // at the new segment, the allocation is owned by the table.
  uint64_t* side_link_word() {
    return reinterpret_cast<uint64_t*>(&side_link_);
  }

  StashChainNode* stash_chain() const {
    return reinterpret_cast<StashChainNode*>(
        stash_chain_.load(std::memory_order_acquire));
  }
  uint64_t* stash_chain_word() {
    return reinterpret_cast<uint64_t*>(&stash_chain_);
  }

  uint8_t version() const { return version_.load(std::memory_order_acquire); }
  void SetVersion(uint8_t v) {
    version_.store(v, std::memory_order_release);
    pmem::Persist(&version_, sizeof(version_));
  }

  // ---- construction ----

  // Sets every byte of the header of a freshly allocated segment; it must
  // then be made durable with PersistHeader(). The buckets are either
  // zeroed and persisted by the allocator (a table's initial segments) or,
  // for a split destination reserved without zeroing, empty only once
  // SplitInto has cleared them: until it has, such a NEW segment may hold
  // anything a recycled block held.
  void Initialize(uint32_t num_buckets, uint32_t num_stash, uint32_t depth,
                  uint64_t pattern, uint32_t state, uint8_t version) {
    num_buckets_ = num_buckets;
    num_stash_ = num_stash;
    pattern_ = pattern;
    side_link_.store(0, std::memory_order_relaxed);
    stash_chain_.store(0, std::memory_order_relaxed);
    version_.store(version, std::memory_order_relaxed);
    depth_state_.store((static_cast<uint64_t>(depth) << 32) | state,
                       std::memory_order_relaxed);
    chain_lock_.Unlock();  // a recycled block may have left it set
    std::memset(pad0_, 0, sizeof(pad0_));
    std::memset(pad1_, 0, sizeof(pad1_));
  }

  void PersistHeader() { pmem::Persist(this, sizeof(Segment)); }

  // Prefetches the metadata cachelines a subsequent probe of `hash` will
  // touch: the target bucket's 32-byte metadata block (lock, bitmap word,
  // fingerprints, overflow/stash hints — all in its first line) and the
  // probing bucket's. `num_buckets` is the table-wide structural constant
  // passed in by the caller so the prefetch itself never stalls on this
  // segment's header; bucket() is pure pointer arithmetic.
  void PrefetchProbe(uint64_t hash, uint32_t num_buckets, bool probing_bucket,
                     bool for_write) const {
    const uint32_t y0 = BucketIndex(hash, num_buckets);
    const Bucket* b0 = bucket(y0);
    // The whole 256-byte target bucket: the probe reads the metadata line
    // first, but the matching record is in one of the three record lines.
    util::PrefetchRange(b0, sizeof(Bucket), for_write);
    if (probing_bucket) {
      util::Prefetch(bucket((y0 + 1) & (num_buckets - 1)), for_write);
    }
  }

  // ---- record operations ----

  // Inserts (key -> value). Algorithm 1: lock target+probing bucket, verify
  // via `verify` (the table re-checks the directory reference under the
  // locks), uniqueness check, then balanced insert -> displacement ->
  // stash. `allow_stash_chain` enables Dash-LH's chained stash buckets.
  template <typename KP, typename VerifyFn>
  OpStatus Insert(typename KP::KeyArg key, uint64_t value, uint64_t hash,
                  const DashOptions& opts, pmem::PmAllocator* alloc,
                  bool allow_stash_chain, VerifyFn verify) {
    const uint8_t fp = Fingerprint(hash);
    const uint32_t mask = num_buckets_ - 1;
    const uint32_t y0 = BucketIndex(hash, num_buckets_);
    const uint32_t y1 = (y0 + 1) & mask;
    Bucket* b0 = bucket(y0);
    Bucket* b1 = opts.use_probing_bucket ? bucket(y1) : nullptr;

    LockPair(b0, b1, y0, y1, opts);
    if (!verify()) {
      UnlockPair(b0, b1, opts);
      return OpStatus::kRetry;
    }

    if (ContainsLocked<KP>(key, fp, y0, b0, b1, opts)) {
      UnlockPair(b0, b1, opts);
      return OpStatus::kExists;
    }

    const uint64_t stored = KP::MakeStored(key, alloc);
    if constexpr (!KP::kInline) {
      if (stored == 0) {
        UnlockPair(b0, b1, opts);
        return OpStatus::kOutOfMemory;
      }
    }

    const OpStatus status = InsertStoredLocked<KP>(
        stored, value, fp, y0, b0, b1, opts, alloc, allow_stash_chain);
    if (status != OpStatus::kOk) KP::FreeStored(stored, alloc);
    UnlockPair(b0, b1, opts);
    return status;
  }

  // Insert body once the bucket pair is locked and the stored key exists.
  // Also used by merge and split (which move already-stored keys).
  template <typename KP, Flush F = Flush::kEach>
  OpStatus InsertStoredLocked(uint64_t stored, uint64_t value, uint8_t fp,
                              uint32_t y0, Bucket* b0, Bucket* b1,
                              const DashOptions& opts,
                              pmem::PmAllocator* alloc,
                              bool allow_stash_chain) {
    const uint32_t mask = num_buckets_ - 1;
    // 1. Balanced insert (§4.3): pick the less-full of target/probing.
    Bucket* dest = nullptr;
    if (b1 == nullptr) {
      dest = b0->IsFull() ? nullptr : b0;
    } else if (opts.use_balanced_insert) {
      if (!b0->IsFull() && b0->count() <= b1->count()) {
        dest = b0;
      } else if (!b1->IsFull()) {
        dest = b1;
      } else if (!b0->IsFull()) {
        dest = b0;
      }
    } else {
      // Plain probing: target first, then the probing bucket.
      dest = !b0->IsFull() ? b0 : (!b1->IsFull() ? b1 : nullptr);
    }
    if (dest != nullptr) {
      dest->template Insert<F>(stored, value, fp, /*member=*/dest == b1);
      return OpStatus::kOk;
    }

    // 2. Displacement (§4.3, Algorithm 2).
    if (opts.use_displacement && b1 != nullptr) {
      dest = TryDisplace<F>(y0, (y0 + 1) & mask, b0, b1, opts);
      if (dest != nullptr) {
        dest->template Insert<F>(stored, value, fp, /*member=*/dest == b1);
        return OpStatus::kOk;
      }
    }

    // 3. Stash (§4.3).
    if (num_stash_ > 0 || allow_stash_chain) {
      return StashInsert<KP, F>(stored, value, fp, b0, b1, opts, alloc,
                                allow_stash_chain);
    }
    return OpStatus::kNeedSplit;
  }

  // Resumable-search continuation: which stash buckets (and whether the
  // chain) still need probing after the bucket pair came up empty. Filled
  // by SearchPairOptimistic; consumed by SearchStashPlanned, optionally
  // with a PrefetchStashPlan suspend point in between (the AMAC engine's
  // execute-stage overlap).
  struct StashPlan {
    uint32_t mask = 0;        // stash-bucket positions to probe
    bool scan_chain = false;  // also walk the chained stash buckets
    bool pending = false;     // true => the stash scan must still run
  };

  // First half of the optimistic search (Algorithm 3): probe the
  // target/probing bucket pair under version validation. Returns kOk,
  // kRetry, or kNotFound; a kNotFound with plan->pending set means the
  // verdict is provisional and SearchStashPlanned must complete it.
  template <typename KP, typename VerifyFn>
  OpStatus SearchPairOptimistic(typename KP::KeyArg key, uint64_t hash,
                                const DashOptions& opts, uint64_t* out,
                                VerifyFn verify, StashPlan* plan) {
    const uint8_t fp = Fingerprint(hash);
    const uint32_t mask = num_buckets_ - 1;
    const uint32_t y0 = BucketIndex(hash, num_buckets_);
    Bucket* b0 = bucket(y0);
    Bucket* b1 = opts.use_probing_bucket ? bucket((y0 + 1) & mask) : nullptr;

    const uint32_t v0 = b0->lock().Snapshot();
    const uint32_t v1 = b1 != nullptr ? b1->lock().Snapshot() : 0;
    if (!verify()) return OpStatus::kRetry;

    int slot = b0->FindKey<KP>(fp, key, opts);
    if (slot >= 0) {
      const uint64_t value = b0->LoadValue(slot);
      if (!b0->lock().Verify(v0)) return OpStatus::kRetry;
      *out = value;
      return OpStatus::kOk;
    }
    if (b1 != nullptr) {
      slot = b1->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        const uint64_t value = b1->LoadValue(slot);
        if (!b1->lock().Verify(v1)) return OpStatus::kRetry;
        *out = value;
        return OpStatus::kOk;
      }
    }
    // A negative answer is only valid if neither bucket changed while we
    // probed (a record can migrate between the pair via displacement).
    if (!b0->lock().Verify(v0) ||
        (b1 != nullptr && !b1->lock().Verify(v1))) {
      return OpStatus::kRetry;
    }
    if (num_stash_ == 0 && stash_chain() == nullptr) {
      return OpStatus::kNotFound;
    }
    if (opts.use_overflow_metadata && b0->overflow_count() == 0) {
      uint32_t hints = b0->OverflowStashHints(fp, /*member=*/false);
      if (b1 != nullptr) hints |= b1->OverflowStashHints(fp, /*member=*/true);
      // The metadata lives in the (unlocked) bucket pair; re-validate it.
      if (!b0->lock().Verify(v0) ||
          (b1 != nullptr && !b1->lock().Verify(v1))) {
        return OpStatus::kRetry;
      }
      if (hints == 0) return OpStatus::kNotFound;  // early stop (§4.3)
      plan->mask = hints;
      plan->scan_chain = false;
    } else {
      plan->mask = ~0u;
      plan->scan_chain = true;
    }
    plan->pending = true;
    return OpStatus::kNotFound;
  }

  // Prefetches the stash cachelines a planned scan will touch. The stash
  // bucket addresses are pure arithmetic off the segment pointer; only the
  // first chain node is prefetched (chains are short and rare).
  void PrefetchStashPlan(const StashPlan& plan) const {
    for (uint32_t pos = 0; pos < num_stash_; ++pos) {
      if ((plan.mask >> pos) & 1) {
        util::PrefetchRange(bucket(num_buckets_ + pos), sizeof(Bucket));
      }
    }
    if (plan.scan_chain) {
      StashChainNode* node = stash_chain();
      if (node != nullptr) {
        util::PrefetchRead(node);  // `next` + pad line
        util::PrefetchRange(&node->bucket, sizeof(Bucket));
      }
    }
  }

  // Second half of the optimistic search: the planned stash scan, with
  // per-stash-bucket version validation.
  template <typename KP>
  OpStatus SearchStashPlanned(typename KP::KeyArg key, uint8_t fp,
                              const StashPlan& plan, const DashOptions& opts,
                              uint64_t* out) {
    for (uint32_t pos = 0; pos < num_stash_; ++pos) {
      if (((plan.mask >> pos) & 1) == 0) continue;
      Bucket* s = stash_bucket(pos);
      const uint32_t vs = s->lock().Snapshot();
      const int slot = s->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        const uint64_t value = s->LoadValue(slot);
        if (!s->lock().Verify(vs)) return OpStatus::kRetry;
        *out = value;
        return OpStatus::kOk;
      }
      if (!s->lock().Verify(vs)) return OpStatus::kRetry;
    }
    if (plan.scan_chain) {
      for (StashChainNode* node = stash_chain(); node != nullptr;
           node = reinterpret_cast<StashChainNode*>(node->next)) {
        Bucket* s = &node->bucket;
        const uint32_t vs = s->lock().Snapshot();
        const int slot = s->FindKey<KP>(fp, key, opts);
        if (slot >= 0) {
          const uint64_t value = s->LoadValue(slot);
          if (!s->lock().Verify(vs)) return OpStatus::kRetry;
          *out = value;
          return OpStatus::kOk;
        }
        if (!s->lock().Verify(vs)) return OpStatus::kRetry;
      }
    }
    return OpStatus::kNotFound;
  }

  // Searches for `key`. Algorithm 3 for optimistic mode (pair probe +
  // planned stash scan, the same two halves the AMAC engine suspends
  // between); shared locks in rw mode (Fig. 13 baseline).
  template <typename KP, typename VerifyFn>
  OpStatus Search(typename KP::KeyArg key, uint64_t hash,
                  const DashOptions& opts, uint64_t* out, VerifyFn verify) {
    const uint8_t fp = Fingerprint(hash);
    const uint32_t mask = num_buckets_ - 1;
    const uint32_t y0 = BucketIndex(hash, num_buckets_);
    Bucket* b0 = bucket(y0);
    Bucket* b1 = opts.use_probing_bucket ? bucket((y0 + 1) & mask) : nullptr;

    if (opts.concurrency == ConcurrencyMode::kOptimistic) {
      StashPlan plan;
      const OpStatus status =
          SearchPairOptimistic<KP>(key, hash, opts, out, verify, &plan);
      if (!plan.pending) return status;
      return SearchStashPlanned<KP>(key, fp, plan, opts, out);
    }

    // Pessimistic mode: hold shared locks on the pair while probing.
    b0->lock().LockShared(opts.lock_stats);
    if (b1 != nullptr) b1->lock().LockShared(opts.lock_stats);
    if (!verify()) {
      if (b1 != nullptr) b1->lock().UnlockShared();
      b0->lock().UnlockShared();
      return OpStatus::kRetry;
    }
    OpStatus result = OpStatus::kNotFound;
    int slot = b0->FindKey<KP>(fp, key, opts);
    if (slot >= 0) {
      *out = b0->record(slot).value;
      result = OpStatus::kOk;
    } else if (b1 != nullptr &&
               (slot = b1->FindKey<KP>(fp, key, opts)) >= 0) {
      *out = b1->record(slot).value;
      result = OpStatus::kOk;
    }
    if (result == OpStatus::kNotFound) {
      result = StashSearchPessimistic<KP>(key, fp, y0, b0, b1, opts, out);
    }
    if (b1 != nullptr) b1->lock().UnlockShared();
    b0->lock().UnlockShared();
    return result;
  }

  // Updates the payload of an existing key in place (extension: the value
  // is an opaque 8-byte word, so an atomic persistent store suffices).
  // Returns kOk, kNotFound or kRetry.
  template <typename KP, typename VerifyFn>
  OpStatus Update(typename KP::KeyArg key, uint64_t value, uint64_t hash,
                  const DashOptions& opts, VerifyFn verify) {
    const uint8_t fp = Fingerprint(hash);
    const uint32_t mask = num_buckets_ - 1;
    const uint32_t y0 = BucketIndex(hash, num_buckets_);
    const uint32_t y1 = (y0 + 1) & mask;
    Bucket* b0 = bucket(y0);
    Bucket* b1 = opts.use_probing_bucket ? bucket(y1) : nullptr;

    LockPair(b0, b1, y0, y1, opts);
    if (!verify()) {
      UnlockPair(b0, b1, opts);
      return OpStatus::kRetry;
    }
    OpStatus result = OpStatus::kNotFound;
    int slot = b0->FindKey<KP>(fp, key, opts);
    if (slot >= 0) {
      b0->UpdateSlotValue(slot, value);
      result = OpStatus::kOk;
    } else if (b1 != nullptr &&
               (slot = b1->FindKey<KP>(fp, key, opts)) >= 0) {
      b1->UpdateSlotValue(slot, value);
      result = OpStatus::kOk;
    } else {
      result = StashUpdate<KP>(key, value, fp, b0, b1, opts);
    }
    UnlockPair(b0, b1, opts);
    return result;
  }

  // Deletes `key`. §4.6: clear the slot's allocation bit; for stash
  // records also fix the overflow metadata in the target/probing bucket.
  template <typename KP, typename VerifyFn>
  OpStatus Delete(typename KP::KeyArg key, uint64_t hash,
                  const DashOptions& opts, pmem::PmAllocator* alloc,
                  VerifyFn verify) {
    const uint8_t fp = Fingerprint(hash);
    const uint32_t mask = num_buckets_ - 1;
    const uint32_t y0 = BucketIndex(hash, num_buckets_);
    const uint32_t y1 = (y0 + 1) & mask;
    Bucket* b0 = bucket(y0);
    Bucket* b1 = opts.use_probing_bucket ? bucket(y1) : nullptr;

    LockPair(b0, b1, y0, y1, opts);
    if (!verify()) {
      UnlockPair(b0, b1, opts);
      return OpStatus::kRetry;
    }

    OpStatus result = OpStatus::kOk;
    Bucket* home = b0;
    int slot = b0->FindKey<KP>(fp, key, opts);
    if (slot < 0 && b1 != nullptr) {
      home = b1;
      slot = b1->FindKey<KP>(fp, key, opts);
    }
    if (slot >= 0) {
      DeleteRecord<KP>(home, slot, alloc, "delete_after_clear");
    } else {
      result = StashDelete<KP>(key, fp, b0, b1, opts, alloc);
    }
    UnlockPair(b0, b1, opts);
    return result;
  }

  // Clears `slot` of `b` durably, then frees the record's key blob (a
  // no-op for fixed keys). Freeing first would let a crash leave a
  // committed record whose key points at a free block, which the next
  // insert of that size overwrites; this order leaks the blob at worst.
  // Requires the exclusive lock.
  template <typename KP>
  static void DeleteRecord(Bucket* b, int slot, pmem::PmAllocator* alloc,
                           const char* crash_point) {
    const uint64_t stored = b->record(slot).key;
    b->DeleteSlot(slot);
    CRASH_POINT(crash_point);
    KP::FreeStored(stored, alloc);
  }

  // ---- iteration (rehash, statistics, validation) ----

  // Invokes fn(Bucket*) for every bucket: normal, stash, then chained
  // stash buckets.
  template <typename Fn>
  void ForEachBucket(Fn fn) {
    for (uint32_t i = 0; i < num_buckets_ + num_stash_; ++i) fn(bucket(i));
    for (StashChainNode* node = stash_chain(); node != nullptr;
         node = reinterpret_cast<StashChainNode*>(node->next)) {
      fn(&node->bucket);
    }
  }

  // Invokes fn(Bucket*, slot) for every occupied slot, including stash and
  // chained stash buckets. Not concurrency-safe; callers hold all bucket
  // locks (SMO) or run single-threaded.
  template <typename Fn>
  void ForEachRecord(Fn fn) {
    ForEachBucket([&fn](Bucket* b) {
      const uint32_t alloc_bits = Bucket::AllocBits(b->meta());
      for (uint32_t slot = 0; slot < Bucket::kNumSlots; ++slot) {
        if ((alloc_bits >> slot) & 1) fn(b, static_cast<int>(slot));
      }
    });
  }

  // A NEW destination that is not FILLED yet counts none: no record is
  // its own before the split's fill, and until SplitInto clears it, its
  // buckets may hold a recycled block's stale records.
  uint64_t RecordCount() {
    if (state() == kNew) return 0;
    uint64_t n = 0;
    ForEachRecord([&n](Bucket*, int) { ++n; });
    return n;
  }

  // Fraction of slots occupied (capacity counts normal + fixed stash
  // buckets + any chained stash buckets).
  double Fullness() {
    uint64_t capacity =
        static_cast<uint64_t>(num_buckets_ + num_stash_) * Bucket::kNumSlots;
    for (StashChainNode* node = stash_chain(); node != nullptr;
         node = reinterpret_cast<StashChainNode*>(node->next)) {
      capacity += Bucket::kNumSlots;
    }
    return static_cast<double>(RecordCount()) / static_cast<double>(capacity);
  }

  // ---- SMO / recovery support (§4.7, §4.8) ----

  // Moves every record whose hash satisfies `moves` from this segment
  // (SPLITTING, every bucket locked) into `dst`, the split's NEW segment,
  // which no other operation reads or writes. The one record mover of the
  // Dash-EH and Dash-LH splits and of their recovery, in this order:
  //   1. if `dst` is not FILLED yet, empty it (after a crash it may hold
  //      any subset of an earlier fill's lines), then put each moving
  //      record in its target bucket while that bucket has room, and the
  //      rest with the insert path's placement, all without a flush per
  //      record. Balanced insert for every record would send most of them
  //      to their probing bucket, still the emptier one while `dst`
  //      fills, and a positive search for those reads both buckets;
  //   2. persist `dst` once, chained stash buckets included, and durably
  //      mark it FILLED;
  //   3. clear the moved slots of each source bucket with one metadata
  //      store and one flush.
  // The source is untouched until the FILLED mark is durable, so a crash
  // before it is rolled forward by refilling, and one after it by redoing
  // step 3. Both are what calling this again does.
  template <typename KP, typename MovesFn>
  void SplitInto(Segment* dst, MovesFn moves, const DashOptions& opts,
                 pmem::PmAllocator* alloc, bool allow_stash_chain) {
    struct MovedSlots {
      Bucket* bucket;
      uint32_t mask;
    };
    struct Spilled {  // a moving record whose target bucket was full
      uint64_t stored;
      uint64_t value;
      uint64_t hash;
    };
    const bool fill = dst->state() != kFilled;
    if (fill) dst->ForEachBucket([](Bucket* b) { b->Clear(); });
    std::vector<MovedSlots> moved;
    std::vector<Spilled> spilled;
    ForEachBucket([&](Bucket* b) {
      const uint32_t alloc_bits = Bucket::AllocBits(b->meta());
      uint32_t mask = 0;
      for (uint32_t slot = 0; slot < Bucket::kNumSlots; ++slot) {
        if (((alloc_bits >> slot) & 1) == 0) continue;
        const uint64_t stored = b->record(static_cast<int>(slot)).key;
        const uint64_t h = KP::HashStored(stored);
        if (!moves(h)) continue;
        mask |= 1u << slot;
        if (fill) {
          const uint64_t value = b->LoadValue(static_cast<int>(slot));
          Bucket* target = dst->bucket(BucketIndex(h, dst->num_buckets_));
          if (!target->template Insert<Flush::kDeferred>(
                  stored, value, Fingerprint(h), /*member=*/false)) {
            spilled.push_back({stored, value, h});
          }
        }
      }
      if (mask != 0) moved.push_back({b, mask});
    });
    if (fill) {
      for (const Spilled& r : spilled) {
        dst->PlaceMoved<KP>(r.stored, r.value, r.hash, opts, alloc,
                            allow_stash_chain);
      }
      CRASH_POINT("split_after_fill");
      dst->ForEachBucket([](Bucket* b) { b->WriteBackOccupied(); });
      pmem::Fence();
      CRASH_POINT("split_after_child_persist");
      dst->SetDepthState(dst->local_depth(), kFilled);
      CRASH_POINT("split_after_mark_filled");
    }
    for (const MovedSlots& m : moved) m.bucket->DeleteSlots(m.mask);
  }

  // Locks every bucket (normal + stash) — SMOs lock the whole segment.
  void LockAllBuckets(const DashOptions& opts) {
    for (uint32_t i = 0; i < num_buckets_ + num_stash_; ++i) {
      bucket(i)->lock().LockExclusive(opts.concurrency, opts.lock_stats);
    }
  }
  void UnlockAllBuckets(const DashOptions& opts) {
    for (uint32_t i = 0; i < num_buckets_ + num_stash_; ++i) {
      bucket(i)->lock().UnlockExclusive(opts.concurrency);
    }
  }

  // Recovery step 1: clear all bucket locks (§4.8).
  void ResetAllLocks() {
    ForEachBucket([](Bucket* b) { b->ResetLock(); });
    chain_lock_.Unlock();
  }

  // Recovery step 2: remove duplicates left by an interrupted displacement
  // (§4.6). A displaced record is first inserted into its destination and
  // then removed from its source; a crash in between leaves the key in two
  // adjacent buckets. Rule: if a record in bucket b+1 has its membership
  // bit set (home = b) and the key also exists in b, drop the b+1 copy
  // (both copies carry identical payloads).
  template <typename KP>
  void DedupAdjacent(const DashOptions& opts) {
    const uint32_t mask = num_buckets_ - 1;
    for (uint32_t y = 0; y < num_buckets_; ++y) {
      Bucket* home = bucket(y);
      Bucket* next = bucket((y + 1) & mask);
      const uint32_t meta = next->meta();
      const uint32_t alloc_bits = Bucket::AllocBits(meta);
      for (uint32_t slot = 0; slot < Bucket::kNumSlots; ++slot) {
        if (((alloc_bits >> slot) & 1) == 0) continue;
        if (!next->SlotMembership(meta, slot)) continue;
        const uint64_t stored = next->record(slot).key;
        const uint8_t fp = next->fingerprint(slot);
        if (home->FindStoredKey<KP>(fp, stored, opts) >= 0) {
          next->DeleteSlot(static_cast<int>(slot));
        }
      }
    }
  }

  // Recovery step 3: rebuild the (non-crash-consistent) overflow metadata
  // from the stash contents (§4.6, §4.8).
  template <typename KP>
  void RebuildOverflowMetadata(const DashOptions& /*opts*/) {
    const uint32_t mask = num_buckets_ - 1;
    for (uint32_t i = 0; i < num_buckets_; ++i) {
      bucket(i)->ClearOverflowMetadata();
    }
    auto account = [&](Bucket* stash, int slot, uint32_t pos) {
      const uint64_t stored = stash->record(slot).key;
      const uint64_t h = KP::HashStored(stored);
      const uint32_t y = BucketIndex(h, num_buckets_);
      const uint8_t fp = Fingerprint(h);
      Bucket* target = bucket(y);
      Bucket* probing = bucket((y + 1) & mask);
      if (!target->TrySetOverflowFp(fp, pos, /*member=*/false) &&
          !probing->TrySetOverflowFp(fp, pos, /*member=*/true)) {
        target->IncOverflowCount();
      }
    };
    for (uint32_t i = 0; i < num_stash_; ++i) {
      Bucket* s = stash_bucket(i);
      const uint32_t alloc_bits = Bucket::AllocBits(s->meta());
      for (uint32_t slot = 0; slot < Bucket::kNumSlots; ++slot) {
        if ((alloc_bits >> slot) & 1) account(s, static_cast<int>(slot), i);
      }
    }
    for (StashChainNode* node = stash_chain(); node != nullptr;
         node = reinterpret_cast<StashChainNode*>(node->next)) {
      const uint32_t alloc_bits = Bucket::AllocBits(node->bucket.meta());
      for (uint32_t slot = 0; slot < Bucket::kNumSlots; ++slot) {
        if ((alloc_bits >> slot) & 1) {
          account(&node->bucket, static_cast<int>(slot),
                  Bucket::kStashPosUnencodable);
        }
      }
    }
  }

 private:
  // SplitInto's placement of a moving record whose target bucket is full:
  // the insert path's balanced insert, displacement and stash, without
  // flushes.
  template <typename KP>
  void PlaceMoved(uint64_t stored, uint64_t value, uint64_t hash,
                  const DashOptions& opts, pmem::PmAllocator* alloc,
                  bool allow_stash_chain) {
    const uint32_t y0 = BucketIndex(hash, num_buckets_);
    Bucket* b0 = bucket(y0);
    Bucket* b1 =
        opts.use_probing_bucket ? bucket((y0 + 1) & (num_buckets_ - 1)) : nullptr;
    const OpStatus st = InsertStoredLocked<KP, Flush::kDeferred>(
        stored, value, Fingerprint(hash), y0, b0, b1, opts, alloc,
        allow_stash_chain);
    assert(st == OpStatus::kOk && "split destination overflow");
    (void)st;
  }

  void LockPair(Bucket* b0, Bucket* b1, uint32_t y0, uint32_t y1,
                const DashOptions& opts) {
    if (b1 == nullptr || b0 == b1) {
      b0->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      return;
    }
    // Global ascending-index order prevents deadlock across wrapped pairs.
    if (y0 < y1) {
      b0->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      b1->lock().LockExclusive(opts.concurrency, opts.lock_stats);
    } else {
      b1->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      b0->lock().LockExclusive(opts.concurrency, opts.lock_stats);
    }
  }
  void UnlockPair(Bucket* b0, Bucket* b1, const DashOptions& opts) {
    if (b1 != nullptr && b1 != b0) b1->lock().UnlockExclusive(opts.concurrency);
    b0->lock().UnlockExclusive(opts.concurrency);
  }

  // Uniqueness check under the pair locks; also consults the stash.
  template <typename KP>
  bool ContainsLocked(typename KP::KeyArg key, uint8_t fp, uint32_t /*y0*/,
                      Bucket* b0, Bucket* b1, const DashOptions& opts) {
    if (b0->FindKey<KP>(fp, key, opts) >= 0) return true;
    if (b1 != nullptr && b1->FindKey<KP>(fp, key, opts) >= 0) return true;
    uint64_t ignored;
    return StashLookupUnsafe<KP>(key, fp, b0, b1, opts, &ignored) ==
           OpStatus::kOk;
  }

  // Stash lookup without version validation (caller holds the pair locks,
  // which is sufficient: any concurrent insert/delete of this key would
  // need those locks).
  template <typename KP>
  OpStatus StashLookupUnsafe(typename KP::KeyArg key, uint8_t fp, Bucket* b0,
                             Bucket* b1, const DashOptions& opts,
                             uint64_t* out) {
    if (num_stash_ == 0 && stash_chain() == nullptr) {
      return OpStatus::kNotFound;
    }
    if (opts.use_overflow_metadata && b0->overflow_count() == 0) {
      uint32_t hints = b0->OverflowStashHints(fp, /*member=*/false);
      if (b1 != nullptr) hints |= b1->OverflowStashHints(fp, /*member=*/true);
      for (uint32_t pos = 0; pos < num_stash_ && hints != 0; ++pos) {
        if (((hints >> pos) & 1) == 0) continue;
        const int slot = stash_bucket(pos)->FindKey<KP>(fp, key, opts);
        if (slot >= 0) {
          *out = stash_bucket(pos)->record(slot).value;
          return OpStatus::kOk;
        }
      }
      return OpStatus::kNotFound;
    }
    // No early-stop metadata (or overflowed counter): scan all stash
    // buckets and the chain.
    for (uint32_t i = 0; i < num_stash_; ++i) {
      const int slot = stash_bucket(i)->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        *out = stash_bucket(i)->record(slot).value;
        return OpStatus::kOk;
      }
    }
    for (StashChainNode* node = stash_chain(); node != nullptr;
         node = reinterpret_cast<StashChainNode*>(node->next)) {
      const int slot = node->bucket.FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        *out = node->bucket.record(slot).value;
        return OpStatus::kOk;
      }
    }
    return OpStatus::kNotFound;
  }

  template <typename KP>
  OpStatus StashSearchPessimistic(typename KP::KeyArg key, uint8_t fp,
                                  uint32_t /*y0*/, Bucket* b0, Bucket* b1,
                                  const DashOptions& opts, uint64_t* out) {
    if (num_stash_ == 0 && stash_chain() == nullptr) {
      return OpStatus::kNotFound;
    }
    uint32_t scan_mask = ~0u;
    bool scan_chain = true;
    if (opts.use_overflow_metadata && b0->overflow_count() == 0) {
      uint32_t hints = b0->OverflowStashHints(fp, /*member=*/false);
      if (b1 != nullptr) hints |= b1->OverflowStashHints(fp, /*member=*/true);
      if (hints == 0) return OpStatus::kNotFound;
      scan_mask = hints;
      scan_chain = false;
    }
    for (uint32_t pos = 0; pos < num_stash_; ++pos) {
      if (((scan_mask >> pos) & 1) == 0) continue;
      Bucket* s = stash_bucket(pos);
      s->lock().LockShared(opts.lock_stats);
      const int slot = s->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        *out = s->record(slot).value;
        s->lock().UnlockShared();
        return OpStatus::kOk;
      }
      s->lock().UnlockShared();
    }
    if (scan_chain) {
      for (StashChainNode* node = stash_chain(); node != nullptr;
           node = reinterpret_cast<StashChainNode*>(node->next)) {
        Bucket* s = &node->bucket;
        s->lock().LockShared(opts.lock_stats);
        const int slot = s->FindKey<KP>(fp, key, opts);
        if (slot >= 0) {
          *out = s->record(slot).value;
          s->lock().UnlockShared();
          return OpStatus::kOk;
        }
        s->lock().UnlockShared();
      }
    }
    return OpStatus::kNotFound;
  }

  // Displacement (Algorithm 2). Requires b0/b1 locked. Frees a slot in b0
  // or b1 by moving a record to its alternative bucket; returns the bucket
  // with the freed slot, or nullptr.
  template <Flush F>
  Bucket* TryDisplace(uint32_t y0, uint32_t y1, Bucket* b0, Bucket* b1,
                      const DashOptions& opts) {
    const uint32_t mask = num_buckets_ - 1;
    // Case 1: move a record homed in b1 (membership unset) to b1's probing
    // bucket b2 = b1+1.
    const uint32_t y2 = (y1 + 1) & mask;
    if (y2 != y0 && y2 != y1) {
      const int victim = b1->FindVictim(/*member=*/false);
      if (victim >= 0) {
        Bucket* b2 = bucket(y2);
        if (b2->lock().TryLockExclusive(opts.concurrency, opts.lock_stats)) {
          if (!b2->IsFull()) {
            const Record rec = b1->record(victim);
            const uint8_t vfp = b1->fingerprint(victim);
            b2->template Insert<F>(rec.key, rec.value, vfp, /*member=*/true);
            if constexpr (F == Flush::kEach) {
              CRASH_POINT("displace_after_insert");
            }
            b1->template DeleteSlot<F>(victim);
            b2->lock().UnlockExclusive(opts.concurrency);
            return b1;
          }
          b2->lock().UnlockExclusive(opts.concurrency);
        }
      }
    }
    // Case 2: move a record in b0 whose home is b0-1 (membership set) back
    // to its home bucket.
    const uint32_t ym = (y0 - 1) & mask;
    if (ym != y0 && ym != y1) {
      const int victim = b0->FindVictim(/*member=*/true);
      if (victim >= 0) {
        Bucket* bm = bucket(ym);
        if (bm->lock().TryLockExclusive(opts.concurrency, opts.lock_stats)) {
          if (!bm->IsFull()) {
            const Record rec = b0->record(victim);
            const uint8_t vfp = b0->fingerprint(victim);
            bm->template Insert<F>(rec.key, rec.value, vfp, /*member=*/false);
            if constexpr (F == Flush::kEach) {
              CRASH_POINT("displace_after_insert");
            }
            b0->template DeleteSlot<F>(victim);
            bm->lock().UnlockExclusive(opts.concurrency);
            return b0;
          }
          bm->lock().UnlockExclusive(opts.concurrency);
        }
      }
    }
    return nullptr;
  }

  // Stash insertion (§4.3) + overflow metadata maintenance.
  template <typename KP, Flush F>
  OpStatus StashInsert(uint64_t stored, uint64_t value, uint8_t fp,
                       Bucket* b0, Bucket* b1, const DashOptions& opts,
                       pmem::PmAllocator* alloc, bool allow_stash_chain) {
    for (uint32_t i = 0; i < num_stash_; ++i) {
      Bucket* s = stash_bucket(i);
      s->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      const bool inserted =
          s->template Insert<F>(stored, value, fp, /*member=*/false);
      s->lock().UnlockExclusive(opts.concurrency);
      if (inserted) {
        if constexpr (F == Flush::kEach) CRASH_POINT("stash_after_insert");
        SetOverflowMetadata(fp, i, b0, b1, opts);
        return OpStatus::kOk;
      }
    }
    if (allow_stash_chain) {
      return ChainInsert<KP, F>(stored, value, fp, b0, alloc, opts);
    }
    return OpStatus::kNeedSplit;
  }

  void SetOverflowMetadata(uint8_t fp, uint32_t pos, Bucket* b0, Bucket* b1,
                           const DashOptions& opts) {
    if (!opts.use_overflow_metadata) return;
    if (!b0->TrySetOverflowFp(fp, pos, /*member=*/false) &&
        !(b1 != nullptr && b1->TrySetOverflowFp(fp, pos, /*member=*/true))) {
      b0->IncOverflowCount();
    }
  }

  // Dash-LH: insert into (possibly extending) the stash chain. The caller
  // should trigger a segment split afterwards (§5.1: "a segment split is
  // triggered whenever a stash bucket is allocated"). A new node is durable
  // and published before use even under Flush::kDeferred, so the allocator
  // never loses it.
  template <typename KP, Flush F>
  OpStatus ChainInsert(uint64_t stored, uint64_t value, uint8_t fp,
                       Bucket* b0, pmem::PmAllocator* alloc,
                       const DashOptions& opts) {
    util::SpinLockGuard guard(chain_lock_);
    StashChainNode* node = stash_chain();
    while (node != nullptr && node->bucket.IsFull()) {
      node = reinterpret_cast<StashChainNode*>(node->next);
    }
    if (node == nullptr) {
      pmem::PmAllocator::Reservation r = alloc->Reserve(sizeof(StashChainNode));
      if (!r.valid()) return OpStatus::kOutOfMemory;
      // Reserve hands out a zeroed, persisted node: only the link needs a
      // flush before the node is published.
      node = static_cast<StashChainNode*>(r.ptr);
      node->next = stash_chain_.load(std::memory_order_relaxed);
      pmem::PersistObject(&node->next);
      alloc->Activate(r, stash_chain_word());
      CRASH_POINT("lh_chain_after_publish");
    }
    node->bucket.lock().LockExclusive(opts.concurrency, opts.lock_stats);
    node->bucket.template Insert<F>(stored, value, fp, /*member=*/false);
    node->bucket.lock().UnlockExclusive(opts.concurrency);
    // Chain positions are not encodable in overflow fingerprints; force
    // stash scans via the counter.
    if (opts.use_overflow_metadata) b0->IncOverflowCount();
    return OpStatus::kOk;
  }

  // In-place update of a stash (or chained-stash) record.
  template <typename KP>
  OpStatus StashUpdate(typename KP::KeyArg key, uint64_t value, uint8_t fp,
                       Bucket* b0, Bucket* b1, const DashOptions& opts) {
    for (uint32_t i = 0; i < num_stash_; ++i) {
      Bucket* s = stash_bucket(i);
      s->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      const int slot = s->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        s->UpdateSlotValue(slot, value);
        s->lock().UnlockExclusive(opts.concurrency);
        return OpStatus::kOk;
      }
      s->lock().UnlockExclusive(opts.concurrency);
    }
    for (StashChainNode* node = stash_chain(); node != nullptr;
         node = reinterpret_cast<StashChainNode*>(node->next)) {
      Bucket* s = &node->bucket;
      s->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      const int slot = s->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        s->UpdateSlotValue(slot, value);
        s->lock().UnlockExclusive(opts.concurrency);
        return OpStatus::kOk;
      }
      s->lock().UnlockExclusive(opts.concurrency);
    }
    (void)b0;
    (void)b1;
    return OpStatus::kNotFound;
  }

  // Stash delete + overflow metadata fix-up (§4.6).
  template <typename KP>
  OpStatus StashDelete(typename KP::KeyArg key, uint8_t fp, Bucket* b0,
                       Bucket* b1, const DashOptions& opts,
                       pmem::PmAllocator* alloc) {
    for (uint32_t i = 0; i < num_stash_; ++i) {
      Bucket* s = stash_bucket(i);
      s->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      const int slot = s->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        DeleteRecord<KP>(s, slot, alloc, "stash_delete_after_clear");
        s->lock().UnlockExclusive(opts.concurrency);
        if (opts.use_overflow_metadata) {
          if (!b0->ClearOverflowFp(fp, i, /*member=*/false) &&
              !(b1 != nullptr &&
                b1->ClearOverflowFp(fp, i, /*member=*/true))) {
            b0->DecOverflowCount();
          }
        }
        return OpStatus::kOk;
      }
      s->lock().UnlockExclusive(opts.concurrency);
    }
    for (StashChainNode* node = stash_chain(); node != nullptr;
         node = reinterpret_cast<StashChainNode*>(node->next)) {
      Bucket* s = &node->bucket;
      s->lock().LockExclusive(opts.concurrency, opts.lock_stats);
      const int slot = s->FindKey<KP>(fp, key, opts);
      if (slot >= 0) {
        DeleteRecord<KP>(s, slot, alloc, "stash_delete_after_clear");
        s->lock().UnlockExclusive(opts.concurrency);
        if (opts.use_overflow_metadata) b0->DecOverflowCount();
        return OpStatus::kOk;
      }
      s->lock().UnlockExclusive(opts.concurrency);
    }
    return OpStatus::kNotFound;
  }

  // ---- persistent header (64 bytes, then the bucket array) ----
  std::atomic<uint64_t> side_link_{0};    // right-neighbor chain (§4.7)
  std::atomic<uint64_t> stash_chain_{0};  // Dash-LH chained stash (§5.1)
  std::atomic<uint64_t> depth_state_{0};  // [local_depth:32 | state:32]
  uint64_t pattern_ = 0;
  std::atomic<uint8_t> version_{0};       // lazy-recovery version (§4.8)
  uint8_t pad0_[3] = {};
  uint32_t num_buckets_ = 0;
  uint32_t num_stash_ = 0;
  // Volatile tail (meaningless across restarts; reset by recovery).
  util::SpinLock chain_lock_;
  uint8_t pad1_[19] = {};
};

static_assert(sizeof(Segment) == 64, "segment header must stay one line");

}  // namespace dash

#endif  // DASH_PM_DASH_SEGMENT_H_
