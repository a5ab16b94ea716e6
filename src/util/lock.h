// Concurrency primitives used by the hash tables.
//
// Three flavours are provided, mirroring the designs the paper compares:
//  * SpinLock          — plain test-and-set lock (infrastructure, SMO paths).
//  * RwSpinLock        — reader-writer spinlock; the "pessimistic" baseline
//                        used by CCEH / Level hashing (Fig. 13 ablation).
//                        Acquiring even a read lock writes the lock word,
//                        which on PM costs write bandwidth.
//  * VersionLock       — Dash's optimistic bucket lock (§4.4): one lock bit
//                        plus a version counter. Readers never write.

#ifndef DASH_PM_UTIL_LOCK_H_
#define DASH_PM_UTIL_LOCK_H_

#include <sched.h>

#include <atomic>
#include <cstdint>

#include "util/thread_id.h"

namespace dash::util {

// Busy-wait pause hint for spin loops.
inline void CpuRelax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

// Bounded-spin backoff: pause for short waits, yield the CPU once the
// owner is clearly descheduled (essential on machines with fewer cores
// than contending threads — a pure spin burns the owner's quantum).
class SpinBackoff {
 public:
  void Pause() {
    if (++spins_ < kSpinLimit) {
      CpuRelax();
    } else {
      sched_yield();
    }
  }

 private:
  static constexpr uint32_t kSpinLimit = 128;
  uint32_t spins_ = 0;
};

// Plain test-and-set spinlock.
class SpinLock {
 public:
  SpinLock() = default;
  SpinLock(const SpinLock&) = delete;
  SpinLock& operator=(const SpinLock&) = delete;

  void Lock() {
    SpinBackoff backoff;
    while (flag_.exchange(true, std::memory_order_acquire)) {
      while (flag_.load(std::memory_order_relaxed)) backoff.Pause();
    }
  }

  bool TryLock() {
    return !flag_.exchange(true, std::memory_order_acquire);
  }

  void Unlock() { flag_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> flag_{false};
};

// RAII guard for SpinLock.
class SpinLockGuard {
 public:
  explicit SpinLockGuard(SpinLock& lock) : lock_(lock) { lock_.Lock(); }
  ~SpinLockGuard() { lock_.Unlock(); }
  SpinLockGuard(const SpinLockGuard&) = delete;
  SpinLockGuard& operator=(const SpinLockGuard&) = delete;

 private:
  SpinLock& lock_;
};

// Reader-writer spinlock packed in a single 32-bit word:
// bit 31 = writer bit; bits 0..30 = reader count.
// This is the pessimistic locking style the paper's baselines use; on PM,
// every reader acquisition is a PM write.
class RwSpinLock {
 public:
  RwSpinLock() = default;
  RwSpinLock(const RwSpinLock&) = delete;
  RwSpinLock& operator=(const RwSpinLock&) = delete;

  void LockShared() {
    SpinBackoff backoff;
    for (;;) {
      uint32_t v = word_.load(std::memory_order_relaxed);
      if ((v & kWriterBit) == 0 &&
          word_.compare_exchange_weak(v, v + 1, std::memory_order_acquire)) {
        return;
      }
      backoff.Pause();
    }
  }

  void UnlockShared() { word_.fetch_sub(1, std::memory_order_release); }

  void Lock() {
    SpinBackoff backoff;
    for (;;) {
      uint32_t v = word_.load(std::memory_order_relaxed);
      if (v == 0 &&
          word_.compare_exchange_weak(v, kWriterBit,
                                      std::memory_order_acquire)) {
        return;
      }
      backoff.Pause();
    }
  }

  bool TryLock() {
    uint32_t v = 0;
    return word_.compare_exchange_strong(v, kWriterBit,
                                         std::memory_order_acquire);
  }

  void Unlock() { word_.store(0, std::memory_order_release); }

  // Forcibly clears the lock word; used by recovery (locks held at the
  // moment of a crash must be released before the structure is reused).
  void Reset() { word_.store(0, std::memory_order_relaxed); }

 private:
  static constexpr uint32_t kWriterBit = 1u << 31;
  std::atomic<uint32_t> word_{0};
};

// Dash's optimistic version lock (§4.4). Layout of the 32-bit word:
// bit 31 = lock bit; bits 0..30 = version counter. Writers CAS the lock bit
// and bump the version on release (single atomic store). Readers snapshot
// the word, do their reads, and verify the word is unchanged and unlocked.
class VersionLock {
 public:
  VersionLock() = default;

  static constexpr uint32_t kLockBit = 1u << 31;

  // Acquires the exclusive lock, spinning until available.
  void Lock() {
    SpinBackoff backoff;
    for (;;) {
      uint32_t v = word_.load(std::memory_order_relaxed);
      if ((v & kLockBit) == 0 &&
          word_.compare_exchange_weak(v, v | kLockBit,
                                      std::memory_order_acquire)) {
        return;
      }
      backoff.Pause();
    }
  }

  bool TryLock() {
    uint32_t v = word_.load(std::memory_order_relaxed);
    return (v & kLockBit) == 0 &&
           word_.compare_exchange_strong(v, v | kLockBit,
                                         std::memory_order_acquire);
  }

  // Releases the lock and increments the version in one atomic store.
  void Unlock() {
    const uint32_t v = word_.load(std::memory_order_relaxed);
    word_.store((v & ~kLockBit) + 1, std::memory_order_release);
  }

  // Returns a snapshot for optimistic reads. The caller should retry if
  // IsLocked(snapshot) or a later Verify(snapshot) fails.
  uint32_t Snapshot() const { return word_.load(std::memory_order_acquire); }

  static bool IsLocked(uint32_t snapshot) { return snapshot & kLockBit; }

  // True iff no writer completed (or is active) since `snapshot` was taken.
  bool Verify(uint32_t snapshot) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return word_.load(std::memory_order_acquire) == snapshot;
  }

  // Forcibly clears lock state; used by crash recovery.
  void Reset() { word_.store(0, std::memory_order_relaxed); }

  bool IsLockedNow() const {
    return word_.load(std::memory_order_acquire) & kLockBit;
  }

 private:
  std::atomic<uint32_t> word_{0};
};

static_assert(sizeof(VersionLock) == 4, "VersionLock must stay 4 bytes");

// Adds `n` to a counter that only the calling thread ever writes: a
// per-thread block (pmem::ThreadPmStats) or the caller's shard of the
// sharded telemetry below. With one writer, a relaxed load and store is
// exact and costs no `lock`-prefixed read-modify-write, which drains the
// store buffer on every bump of the per-op path. Readers (aggregation at
// Stats() time) load each word relaxed and see some recent value. A store
// by any other thread — a reset — can be undone by a racing bump, so
// resets belong at quiescent points only.
inline void SingleWriterAdd(std::atomic<uint64_t>& counter, uint64_t n = 1) {
  counter.store(counter.load(std::memory_order_relaxed) + n,
                std::memory_order_relaxed);
}

// Per-thread sharded lock telemetry, owned by the tables (DRAM). Each
// thread bumps only its own cacheline-padded shard (indexed by the dense
// util::ThreadId, which no two live threads share), so every shard is
// single-writer (SingleWriterAdd) and no line bounces between writers;
// Stats()-time readers sum the shards into racy snapshots. Cost: 16 KB
// per instance (kMaxThreadId x 64 B) — noise next to a table's buckets.

// Read-path concurrency telemetry for tables with optimistic (versioned)
// search paths. The counters make "searches no longer write the lock word"
// observable: in a search-only phase `write_locks` stays zero while
// `version_conflicts` / `opt_retries` record how often readers had to
// retry against writers.
struct ShardedOptimisticLockStats {
  struct alignas(64) Shard {
    std::atomic<uint64_t> opt_retries{0};  // probe restarts (failed Verify)
    std::atomic<uint64_t> version_conflicts{0};  // snapshots saw a writer
    std::atomic<uint64_t> write_locks{0};  // exclusive lock acquisitions
  };
  Shard shards[kMaxThreadId];

  void CountConflict() {
    SingleWriterAdd(shards[ThreadId()].version_conflicts);
  }
  void CountRetry() { SingleWriterAdd(shards[ThreadId()].opt_retries); }
  void CountWriteLock() { SingleWriterAdd(shards[ThreadId()].write_locks); }

  uint64_t TotalRetries() const {
    uint64_t sum = 0;
    for (const Shard& s : shards) {
      sum += s.opt_retries.load(std::memory_order_relaxed);
    }
    return sum;
  }
  uint64_t TotalConflicts() const {
    uint64_t sum = 0;
    for (const Shard& s : shards) {
      sum += s.version_conflicts.load(std::memory_order_relaxed);
    }
    return sum;
  }
  uint64_t TotalWriteLocks() const {
    uint64_t sum = 0;
    for (const Shard& s : shards) {
      sum += s.write_locks.load(std::memory_order_relaxed);
    }
    return sum;
  }
};

// Write-path telemetry for Dash's per-bucket locks (BucketLock in
// dash/bucket.h). The lock words themselves are PM-resident and must stay
// 4 bytes, so the counters live in the owning table (DRAM) and reach the
// lock methods through DashOptions::lock_stats. `acquisitions` counts
// successful exclusive acquisitions (one per locked bucket, so a
// displacing insert that locks two buckets counts twice); a plain counter
// of how much bucket-level locking the write path performs.
// `contended_spins` counts backoff pauses spent waiting for a holder —
// zero under no contention, and the growth rate under load is the
// observable form of bucket-lock contention.
struct ShardedBucketLockStats {
  struct alignas(64) Shard {
    std::atomic<uint64_t> acquisitions{0};
    std::atomic<uint64_t> contended_spins{0};
  };
  Shard shards[kMaxThreadId];

  void CountAcquisition() { SingleWriterAdd(shards[ThreadId()].acquisitions); }
  void CountSpin() { SingleWriterAdd(shards[ThreadId()].contended_spins); }

  uint64_t TotalAcquisitions() const {
    uint64_t sum = 0;
    for (const Shard& s : shards) {
      sum += s.acquisitions.load(std::memory_order_relaxed);
    }
    return sum;
  }
  uint64_t TotalSpins() const {
    uint64_t sum = 0;
    for (const Shard& s : shards) {
      sum += s.contended_spins.load(std::memory_order_relaxed);
    }
    return sum;
  }
};

// Reader-writer lock with an additional *optimistic* read side: a seqlock
// version word layered on the RwSpinLock. Three access modes:
//
//  * Lock()/Unlock()            — exclusive (writers, SMOs). Entry and exit
//                                 each bump the version, so the version is
//                                 odd exactly while an exclusive holder is
//                                 active (seqlock parity).
//  * LockShared()/UnlockShared()— pessimistic shared; excludes writers but
//                                 not other shared holders and does NOT
//                                 affect the version. Used by operations
//                                 that must block the exclusive path but
//                                 are themselves revalidated elsewhere
//                                 (e.g., Level inserts vs. the resize).
//  * Snapshot()/Verify()        — optimistic read: snapshot the version,
//                                 read, verify it is unchanged. Shared
//                                 holders are invisible to readers; only a
//                                 completed or in-flight exclusive section
//                                 invalidates a snapshot. Readers never
//                                 write.
class OptimisticRwLock {
 public:
  OptimisticRwLock() = default;
  OptimisticRwLock(const OptimisticRwLock&) = delete;
  OptimisticRwLock& operator=(const OptimisticRwLock&) = delete;

  void LockShared() { rw_.LockShared(); }
  void UnlockShared() { rw_.UnlockShared(); }

  void Lock() {
    rw_.Lock();
    // Entry bump *after* exclusivity, *before* any protected write: a
    // reader that snapshots mid-section sees an odd version and bails.
    version_.fetch_add(1, std::memory_order_acq_rel);
  }

  void Unlock() {
    version_.fetch_add(1, std::memory_order_release);
    rw_.Unlock();
  }

  // Version snapshot for optimistic reads. Odd means an exclusive holder
  // is active — the caller must treat that as a conflict and retry.
  uint32_t Snapshot() const {
    return version_.load(std::memory_order_acquire);
  }

  static bool SnapshotValid(uint32_t snapshot) {
    return (snapshot & 1) == 0;
  }

  // True iff no exclusive section started or completed since `snapshot`.
  bool Verify(uint32_t snapshot) const {
    std::atomic_thread_fence(std::memory_order_acquire);
    return version_.load(std::memory_order_acquire) == snapshot;
  }

  // Crash recovery: clears both the rw word and the version parity.
  void Reset() {
    rw_.Reset();
    version_.store(0, std::memory_order_relaxed);
  }

 private:
  RwSpinLock rw_;
  std::atomic<uint32_t> version_{0};
};

}  // namespace dash::util

#endif  // DASH_PM_UTIL_LOCK_H_
