// The Dash bucket (paper §4.1, Figure 4).
//
// A bucket is 256 bytes — one Optane DCPMM internal block — holding 32
// bytes of metadata followed by 14 records of 16 bytes:
//
//   [version lock 4B][packed bitmap word 4B][14 slot fingerprints]
//   [4 overflow fingerprints][overflow bitmap][overflow membership]
//   [overflow stash positions][overflow count][pad 2B][14 x Record]
//
// The packed bitmap word holds the allocation bitmap (bits 0-13), the
// membership bitmap (bits 14-27) and the record counter (bits 28-31); it is
// updated with a single atomic store so an insert becomes visible (and
// crash-consistent) in one 8-byte-atomic step after its record is persisted.
//
// Normal buckets and stash buckets share this layout (§4.1).

#ifndef DASH_PM_DASH_BUCKET_H_
#define DASH_PM_DASH_BUCKET_H_

#include <atomic>
#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "dash/config.h"
#include "pmem/persist.h"
#include "util/lock.h"

namespace dash {

// When a record operation makes its own stores durable. kEach persists
// them inside the operation (Algorithm 2's record-then-metadata order).
// kDeferred leaves every flush to the caller: a split fills a segment that
// no other operation can reach, then persists it once (Segment::SplitInto).
enum class Flush : uint8_t { kEach, kDeferred };

// A 16-byte key-value record. `key` holds the key inline or a pointer to a
// PM-resident VarKey blob; `value` is an opaque 8-byte payload (§4.1).
struct Record {
  uint64_t key;
  uint64_t value;
};

// Bucket lock supporting both concurrency modes on one 32-bit word:
//  * optimistic (Dash, §4.4): bit 31 = lock, bits 0..30 = version counter;
//    readers snapshot + verify and never write.
//  * rw (baseline, Fig. 13): bit 31 = writer, bits 0..30 = reader count;
//    every reader acquisition writes the PM-resident lock word.
class BucketLock {
 public:
  static constexpr uint32_t kExclusiveBit = 1u << 31;

  // `stats` (optional, DRAM — the owning table's counters reached through
  // DashOptions::lock_stats) records successful acquisitions and the
  // backoff pauses spent waiting behind a holder; the lock word itself
  // stays a bare 4-byte PM-resident atomic.
  void LockExclusive(ConcurrencyMode mode,
                     util::ShardedBucketLockStats* stats = nullptr) {
    util::SpinBackoff backoff;
    if (mode == ConcurrencyMode::kOptimistic) {
      for (;;) {
        uint32_t v = word_.load(std::memory_order_relaxed);
        if ((v & kExclusiveBit) == 0 &&
            word_.compare_exchange_weak(v, v | kExclusiveBit,
                                        std::memory_order_acquire)) {
          if (stats != nullptr) stats->CountAcquisition();
          return;
        }
        if (stats != nullptr) stats->CountSpin();
        backoff.Pause();
      }
    } else {
      // Writer must also wait for readers to drain.
      for (;;) {
        uint32_t v = word_.load(std::memory_order_relaxed);
        if (v == 0 && word_.compare_exchange_weak(v, kExclusiveBit,
                                                  std::memory_order_acquire)) {
          pmem::WriteHint(&word_);
          if (stats != nullptr) stats->CountAcquisition();
          return;
        }
        if (stats != nullptr) stats->CountSpin();
        backoff.Pause();
      }
    }
  }

  bool TryLockExclusive(ConcurrencyMode mode,
                        util::ShardedBucketLockStats* stats = nullptr) {
    bool ok;
    if (mode == ConcurrencyMode::kOptimistic) {
      uint32_t v = word_.load(std::memory_order_relaxed);
      ok = (v & kExclusiveBit) == 0 &&
           word_.compare_exchange_strong(v, v | kExclusiveBit,
                                         std::memory_order_acquire);
    } else {
      uint32_t v = 0;
      ok = word_.compare_exchange_strong(v, kExclusiveBit,
                                         std::memory_order_acquire);
      if (ok) pmem::WriteHint(&word_);
    }
    if (ok && stats != nullptr) stats->CountAcquisition();
    return ok;
  }

  void UnlockExclusive(ConcurrencyMode mode) {
    if (mode == ConcurrencyMode::kOptimistic) {
      // Release the lock and bump the version in one store (§4.4).
      const uint32_t v = word_.load(std::memory_order_relaxed);
      word_.store((v & ~kExclusiveBit) + 1, std::memory_order_release);
    } else {
      word_.store(0, std::memory_order_release);
      pmem::WriteHint(&word_);
    }
  }

  // rw mode only.
  void LockShared(util::ShardedBucketLockStats* stats = nullptr) {
    util::SpinBackoff backoff;
    for (;;) {
      uint32_t v = word_.load(std::memory_order_relaxed);
      if ((v & kExclusiveBit) == 0 &&
          word_.compare_exchange_weak(v, v + 1, std::memory_order_acquire)) {
        pmem::WriteHint(&word_);
        return;
      }
      if (stats != nullptr) stats->CountSpin();
      backoff.Pause();
    }
  }
  void UnlockShared() {
    word_.fetch_sub(1, std::memory_order_release);
    pmem::WriteHint(&word_);
  }

  // Optimistic mode only: snapshot for verified lock-free reads. Spins
  // while a writer holds the lock.
  uint32_t Snapshot() const {
    util::SpinBackoff backoff;
    for (;;) {
      const uint32_t v = word_.load(std::memory_order_acquire);
      if ((v & kExclusiveBit) == 0) return v;
      backoff.Pause();
    }
  }

  bool Verify(uint32_t snapshot) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_acquire) == snapshot;
  }

  bool IsLocked() const {
    return word_.load(std::memory_order_acquire) & kExclusiveBit;
  }

  // Crash recovery: locks held at the moment of a crash are cleared (§4.8).
  void Reset() { word_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint32_t> word_{0};
};

class Bucket {
 public:
  static constexpr uint32_t kNumSlots = 14;
  static constexpr uint32_t kNumOverflowFps = 4;
  static constexpr uint32_t kAllocMask = (1u << kNumSlots) - 1;
  // Marks an overflow fingerprint whose record lives in a stash position
  // that the 2-bit field cannot encode (chained stash, Dash-LH).
  static constexpr uint32_t kStashPosUnencodable = 4;

  // --- packed bitmap word accessors ---
  static uint32_t AllocBits(uint32_t meta) { return meta & kAllocMask; }
  static uint32_t MemberBits(uint32_t meta) {
    return (meta >> kNumSlots) & kAllocMask;
  }
  static uint32_t Count(uint32_t meta) { return meta >> 28; }

  uint32_t meta() const { return meta_.load(std::memory_order_acquire); }
  uint32_t count() const { return Count(meta()); }
  bool IsFull() const { return count() >= kNumSlots; }

  BucketLock& lock() { return lock_; }
  const Record& record(int slot) const { return records_[slot]; }
  // Lock-free readers load a slot's key and value through 8-byte atomics:
  // Insert and UpdateSlotValue store them atomically under the lock, and
  // the reader's version re-validation discards whatever raced a write.
  uint64_t LoadKey(int slot) const { return Load(records_[slot].key); }
  uint64_t LoadValue(int slot) const { return Load(records_[slot].value); }
  uint8_t fingerprint(int slot) const { return fps_[slot]; }
  bool SlotMembership(uint32_t meta_word, int slot) const {
    return (MemberBits(meta_word) >> slot) & 1;
  }

  // Returns a bitmask of occupied slots whose fingerprint equals `fp`.
  // Uses one SIMD compare over all 14 fingerprints when available (§4.2:
  // "this process can be further accelerated with SIMD instructions").
  uint32_t MatchFingerprints(uint8_t fp, uint32_t alloc_bits) const {
#if defined(__SSE2__)
    // The 14 slot fingerprints plus the first two overflow fingerprints
    // occupy 16 contiguous bytes; the mask drops the latter. Loaded as two
    // relaxed 8-byte atomics rather than one vector load: lock-free
    // readers run this while an insert stores a fingerprint, and the
    // caller's version check discards whatever such a race read.
    const auto* words = reinterpret_cast<const std::atomic<uint64_t>*>(fps_);
    const __m128i needle = _mm_set1_epi8(static_cast<char>(fp));
    const __m128i haystack = _mm_set_epi64x(
        static_cast<long long>(words[1].load(std::memory_order_relaxed)),
        static_cast<long long>(words[0].load(std::memory_order_relaxed)));
    const uint32_t eq = static_cast<uint32_t>(
        _mm_movemask_epi8(_mm_cmpeq_epi8(haystack, needle)));
    return eq & alloc_bits & kAllocMask;
#else
    uint32_t match = 0;
    for (uint32_t slot = 0; slot < kNumSlots; ++slot) {
      if (Load(fps_[slot]) == fp) match |= 1u << slot;
    }
    return match & alloc_bits;
#endif
  }

  // Finds an occupied slot whose key equals `key`. Fingerprint-guided when
  // `opts.use_fingerprints`; otherwise every occupied slot is examined.
  // Returns the slot index or -1. Safe to call without the lock in
  // optimistic mode (the caller validates via version snapshot).
  template <typename KP>
  int FindKey(uint8_t fp, typename KP::KeyArg key,
              const DashOptions& opts) const {
    // The metadata lines are the unavoidable PM read of a bucket probe.
    pmem::ReadProbe(this);
    const uint32_t alloc = AllocBits(meta());
    uint32_t candidates =
        opts.use_fingerprints ? MatchFingerprints(fp, alloc) : alloc;
    while (candidates != 0) {
      const int slot = __builtin_ctz(candidates);
      candidates &= candidates - 1;
      // Touching the record is an additional PM read.
      pmem::ReadProbe(&records_[slot]);
      if (KP::EqualStored(LoadKey(slot), key)) return slot;
    }
    return -1;
  }

  // Same as FindKey but compares against a *stored* key representation
  // (used by rehash redo and recovery dedup).
  template <typename KP>
  int FindStoredKey(uint8_t fp, uint64_t stored_key,
                    const DashOptions& opts) const {
    pmem::ReadProbe(this);
    const uint32_t alloc = AllocBits(meta());
    for (uint32_t slot = 0; slot < kNumSlots; ++slot) {
      if (((alloc >> slot) & 1) == 0) continue;
      if (opts.use_fingerprints && fps_[slot] != fp) continue;
      pmem::ReadProbe(&records_[slot]);
      bool equal;
      if constexpr (KP::kInline) {
        equal = records_[slot].key == stored_key;
      } else {
        equal = StoredKeysEqual<KP>(records_[slot].key, stored_key);
      }
      if (equal) return static_cast<int>(slot);
    }
    return -1;
  }

  // Inserts a record. Requires the exclusive lock. `member` is true when
  // the record's home bucket is not this bucket (balanced insert /
  // displacement, §4.3). Crash-consistent per Algorithm 2: record first,
  // then fingerprint + bitmap/counter in one atomic store + one flush.
  // Returns false when full.
  template <Flush F = Flush::kEach>
  bool Insert(uint64_t stored_key, uint64_t value, uint8_t fp, bool member) {
    const uint32_t m = meta_.load(std::memory_order_relaxed);
    const int slot = FirstFreeSlot(m);
    if (slot < 0) return false;
    Store(records_[slot].key, stored_key);
    Store(records_[slot].value, value);
    if constexpr (F == Flush::kEach) {
      pmem::Persist(&records_[slot], sizeof(Record));  // persist record first
    }

    // Atomic byte store: lock-free readers load the fingerprints as words.
    Store(fps_[slot], fp);
    uint32_t next = m | (1u << slot);
    if (member) next |= 1u << (kNumSlots + slot);
    next = (next & ~(0xFu << 28)) | ((Count(m) + 1) << 28);
    meta_.store(next, std::memory_order_release);
    // Fingerprint, bitmap and counter share the metadata cachelines: one
    // flush persists them all (Algorithm 2 comment).
    if constexpr (F == Flush::kEach) pmem::Persist(this, kMetadataBytes);
    return true;
  }

  // In-place payload update (the 8-byte value is opaque to Dash, §4.1).
  // Requires the exclusive lock; the single atomic persistent store keeps
  // optimistic readers safe (they re-validate the version afterwards).
  void UpdateSlotValue(int slot, uint64_t value) {
    pmem::AtomicPersist64(&records_[slot].value, value);
  }

  // Deletes the record in `slot`. Requires the exclusive lock.
  template <Flush F = Flush::kEach>
  void DeleteSlot(int slot) {
    DeleteSlots<F>(1u << slot);
  }

  // Deletes the records of every slot in `mask` with one metadata store
  // and one flush (a split clears its moved slots per source bucket).
  // Requires the exclusive lock.
  template <Flush F = Flush::kEach>
  void DeleteSlots(uint32_t mask) {
    const uint32_t m = meta_.load(std::memory_order_relaxed);
    const uint32_t gone = mask & AllocBits(m);
    uint32_t next = m & ~gone & ~(gone << kNumSlots);
    next = (next & ~(0xFu << 28)) |
           ((Count(m) - static_cast<uint32_t>(__builtin_popcount(gone)))
            << 28);
    meta_.store(next, std::memory_order_release);
    if constexpr (F == Flush::kEach) pmem::Persist(this, kMetadataBytes);
  }

  // Writes back, without a fence, the lines that hold the metadata or an
  // occupied slot. Every other line still holds what the allocator zeroed
  // or what a record moved away left behind, and no reader looks at a slot
  // whose allocation bit is clear.
  void WriteBackOccupied() const {
    const uint32_t alloc = AllocBits(meta());
    const size_t bytes =
        kMetadataBytes +
        (alloc == 0 ? 0 : (32 - __builtin_clz(alloc)) * sizeof(Record));
    const auto* base = reinterpret_cast<const char*>(this);
    for (size_t off = 0; off < bytes; off += pmem::kCachelineSize) {
      pmem::Clwb(base + off);
    }
  }

  // Picks a displacement victim (§4.3): an occupied slot whose membership
  // bit equals `member`. Returns -1 if none.
  int FindVictim(bool member) const {
    const uint32_t m = meta();
    const uint32_t alloc = AllocBits(m);
    const uint32_t members = MemberBits(m);
    for (uint32_t slot = 0; slot < kNumSlots; ++slot) {
      if (((alloc >> slot) & 1) != 0 &&
          (((members >> slot) & 1) != 0) == member) {
        return static_cast<int>(slot);
      }
    }
    return -1;
  }

  // --- overflow (stash) metadata, §4.3 ---
  // Not crash-consistent by design: rebuilt by lazy recovery (§4.6).
  // Writers hold the bucket lock; lock-free searches read the bytes
  // concurrently and re-validate the version afterwards, so every access
  // is a relaxed atomic.

  // Records that a key with fingerprint `fp`, home in this bucket chain,
  // overflowed to stash bucket `stash_pos`. `member` is true when stored in
  // the probing bucket on behalf of the target bucket. Returns false if all
  // four overflow fingerprint slots are taken.
  bool TrySetOverflowFp(uint8_t fp, uint32_t stash_pos, bool member) {
    if (stash_pos >= kStashPosUnencodable) return false;
    const uint8_t bitmap = Load(overflow_bitmap_);
    for (uint32_t i = 0; i < kNumOverflowFps; ++i) {
      if (((bitmap >> i) & 1) == 0) {
        Store(overflow_fps_[i], fp);
        Store(overflow_pos_,
              static_cast<uint8_t>((Load(overflow_pos_) & ~(0x3u << (2 * i))) |
                                   (stash_pos << (2 * i))));
        const uint8_t bit = static_cast<uint8_t>(1u << i);
        const uint8_t members = Load(overflow_member_);
        Store(overflow_member_,
              static_cast<uint8_t>(member ? members | bit : members & ~bit));
        Store(overflow_bitmap_, static_cast<uint8_t>(bitmap | bit));
        return true;
      }
    }
    return false;
  }

  // Clears one overflow fingerprint matching (fp, stash_pos, member).
  // Returns false if no such entry exists (the caller then decrements the
  // overflow counter instead).
  bool ClearOverflowFp(uint8_t fp, uint32_t stash_pos, bool member) {
    const uint8_t bitmap = Load(overflow_bitmap_);
    for (uint32_t i = 0; i < kNumOverflowFps; ++i) {
      if (((bitmap >> i) & 1) != 0 && Load(overflow_fps_[i]) == fp &&
          ((Load(overflow_pos_) >> (2 * i)) & 0x3) == stash_pos &&
          (((Load(overflow_member_) >> i) & 1) != 0) == member) {
        Store(overflow_bitmap_, static_cast<uint8_t>(bitmap & ~(1u << i)));
        return true;
      }
    }
    return false;
  }

  // Returns a bitmask over stash positions hinted by overflow fingerprints
  // matching `fp` with the given membership.
  uint32_t OverflowStashHints(uint8_t fp, bool member) const {
    const uint8_t bitmap = Load(overflow_bitmap_);
    const uint8_t members = Load(overflow_member_);
    const uint8_t positions = Load(overflow_pos_);
    uint32_t hints = 0;
    for (uint32_t i = 0; i < kNumOverflowFps; ++i) {
      if (((bitmap >> i) & 1) != 0 && Load(overflow_fps_[i]) == fp &&
          (((members >> i) & 1) != 0) == member) {
        hints |= 1u << ((positions >> (2 * i)) & 0x3);
      }
    }
    return hints;
  }

  uint8_t overflow_count() const { return Load(overflow_count_); }
  void IncOverflowCount() {
    Store(overflow_count_, static_cast<uint8_t>(overflow_count() + 1));
  }
  void DecOverflowCount() {
    const uint8_t n = overflow_count();
    if (n > 0) Store(overflow_count_, static_cast<uint8_t>(n - 1));
  }
  bool HasAnyOverflow() const {
    return Load(overflow_bitmap_) != 0 || overflow_count() != 0;
  }

  void ClearOverflowMetadata() {
    Store(overflow_bitmap_, uint8_t{0});
    Store(overflow_member_, uint8_t{0});
    Store(overflow_pos_, uint8_t{0});
    Store(overflow_count_, uint8_t{0});
  }

  // Crash recovery: clear the lock (held locks die with the crash).
  void ResetLock() { lock_.Reset(); }

  // Zero-initializes the bucket (used by segment construction).
  void Clear() {
    lock_.Reset();
    meta_.store(0, std::memory_order_relaxed);
    for (auto& f : fps_) f = 0;
    ClearOverflowMetadata();
  }

 private:
  static constexpr uint32_t kMetadataBytes = 32;

  // Relaxed atomic access to a field that lock-free readers load while a
  // locked writer stores it: plain same-size moves on x86, no fences.
  template <typename T>
  static T Load(const T& field) {
    return std::atomic_ref<T>(const_cast<T&>(field))
        .load(std::memory_order_relaxed);
  }
  template <typename T>
  static void Store(T& field, T value) {
    std::atomic_ref<T>(field).store(value, std::memory_order_relaxed);
  }

  static int FirstFreeSlot(uint32_t meta_word) {
    const uint32_t free = ~AllocBits(meta_word) & kAllocMask;
    if (free == 0) return -1;
    return __builtin_ctz(free);
  }

  // Stored-key equality for pointer keys (compares the blobs).
  template <typename KP>
  static bool StoredKeysEqual(uint64_t a, uint64_t b) {
    if (a == b) return true;
    const auto* blob = reinterpret_cast<const VarKeyBlobView*>(b);
    return KP::EqualStored(
        a, typename KP::KeyArg(blob->data, blob->length));
  }

  struct VarKeyBlobView {
    uint32_t length;
    char data[];
  };

  BucketLock lock_;                        // 4
  std::atomic<uint32_t> meta_;             // 4
  uint8_t fps_[kNumSlots];                 // 14
  uint8_t overflow_fps_[kNumOverflowFps];  // 4
  uint8_t overflow_bitmap_;                // 1
  uint8_t overflow_member_;                // 1
  uint8_t overflow_pos_;                   // 1 (2 bits per overflow fp)
  uint8_t overflow_count_;                 // 1
  uint8_t pad_[2];                         // 2 -> 32-byte metadata block
  Record records_[kNumSlots];              // 224

  friend class BucketTestPeer;
};

static_assert(sizeof(Bucket) == 256, "bucket must match the DCPMM block");

}  // namespace dash

#endif  // DASH_PM_DASH_BUCKET_H_
