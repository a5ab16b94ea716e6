// Persistence primitives: the CLWB / SFENCE analogues of the PM programming
// model (paper §2.1).
//
// On real hardware, data is durable once the flushed cacheline reaches the
// ADR domain. In this DRAM emulation, stores to the pool mapping are already
// "durable" (they live in the file mapping), so Clwb()/Fence() reduce to
// compiler/CPU ordering barriers plus accounting and optional latency
// injection. The important property preserved is the *program discipline*:
// all table code calls these primitives exactly where it would on real PM,
// so flush counts and ordering bugs are observable.

#ifndef DASH_PM_PMEM_PERSIST_H_
#define DASH_PM_PMEM_PERSIST_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "pmem/flush_tracker.h"
#include "pmem/stats.h"

namespace dash::pmem {

inline constexpr size_t kCachelineSize = 64;

// Writes back the cacheline containing `addr` (CLWB analogue).
inline void Clwb(const void* addr) {
  (void)addr;
#if defined(__x86_64__)
  // CLWB itself is valid on DRAM-backed mappings and is the closest
  // analogue; fall back to a compiler barrier when unsupported at runtime
  // is not needed because CLWB on non-PM memory is still correct.
  asm volatile("" ::: "memory");
#endif
  if (internal::g_torn_write_tracking.load(std::memory_order_relaxed)) {
    internal::TornTrackClwb(addr);
  }
  util::SingleWriterAdd(GetThreadPmStats().clwb);
  const uint32_t lat =
      GetEmulationConfig().flush_latency_ns.load(std::memory_order_relaxed);
  if (lat != 0) SpinNanos(lat);
}

// Store fence (SFENCE analogue): orders preceding flushes/stores. Under
// torn-write simulation this is the durability point: only lines whose
// Clwb preceded a Fence survive a simulated power failure.
inline void Fence() {
  std::atomic_thread_fence(std::memory_order_release);
  if (internal::g_torn_write_tracking.load(std::memory_order_relaxed)) {
    internal::TornTrackFence();
  }
  util::SingleWriterAdd(GetThreadPmStats().fence);
}

// Flushes every cacheline in [addr, addr+len) and fences.
inline void Persist(const void* addr, size_t len) {
  const auto start = reinterpret_cast<uintptr_t>(addr);
  const uintptr_t first = start & ~(kCachelineSize - 1);
  const uintptr_t last = (start + len - 1) & ~(kCachelineSize - 1);
  for (uintptr_t line = first; line <= last; line += kCachelineSize) {
    Clwb(reinterpret_cast<const void*>(line));
  }
  Fence();
}

// Convenience: persists a single object.
template <typename T>
inline void PersistObject(const T* obj) {
  Persist(obj, sizeof(T));
}

// Records an explicit PM read probe (a likely cache miss touching the PM
// media, e.g., loading a bucket line or dereferencing a key pointer).
// Injects read latency when enabled.
inline void ReadProbe(const void* addr, size_t lines = 1) {
  (void)addr;
  util::SingleWriterAdd(GetThreadPmStats().read_probes, lines);
  const uint32_t lat =
      GetEmulationConfig().read_latency_ns.load(std::memory_order_relaxed);
  if (lat != 0) SpinNanos(lat * static_cast<uint32_t>(lines));
}

// Records a PM write that does not need an explicit flush (e.g., CAS on a
// PM-resident lock word). On DCPMM such stores still consume write
// bandwidth — this is what makes pessimistic (reader-writer) locking
// non-scalable for search operations (paper Fig. 13). Under torn-write
// simulation these stores are deliberately NOT tracked: they revert at a
// simulated crash, so recovery must never depend on them (lock words are
// reset on open by every table).
inline void WriteHint(const void* addr) {
  (void)addr;
  util::SingleWriterAdd(GetThreadPmStats().nt_stores);
  const uint32_t lat =
      GetEmulationConfig().flush_latency_ns.load(std::memory_order_relaxed);
  if (lat != 0) SpinNanos(lat);
}

// 8-byte atomic store + persist: the fundamental crash-atomic publication
// primitive on PM (§2.1 "DCPMM supports 8-byte atomic writes").
inline void AtomicPersist64(uint64_t* addr, uint64_t value) {
  reinterpret_cast<std::atomic<uint64_t>*>(addr)->store(
      value, std::memory_order_release);
  Persist(addr, sizeof(uint64_t));
}

}  // namespace dash::pmem

#endif  // DASH_PM_PMEM_PERSIST_H_
