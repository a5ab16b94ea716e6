// Software-prefetch portability shim for the batched operation pipeline.
//
// The batch entry points (KvIndex::MultiSearch & friends) stage each group
// of operations AMAC-style: hash everything, prefetch the directory
// entries for the whole group, then the target bucket metadata lines, and
// only then execute the probes — so one operation's memory stall overlaps
// the next operation's prefetch. These helpers wrap __builtin_prefetch so
// table code stays compiler-portable.

#ifndef DASH_PM_UTIL_PREFETCH_H_
#define DASH_PM_UTIL_PREFETCH_H_

#include <cstddef>
#include <cstdint>

namespace dash::util {

inline constexpr size_t kPrefetchLineSize = 64;

// Number of operations staged together by the batch pipeline. Large enough
// to cover DRAM/PM latency with overlapping misses, small enough that the
// prefetched lines are still resident when the execute stage reaches them.
inline constexpr size_t kBatchGroupWidth = 16;

inline void PrefetchRead(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

// For lines the operation will write (bucket metadata on insert/delete,
// PM-resident lock words): fetch in exclusive state to skip the later
// read-for-ownership transition.
inline void PrefetchWrite(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/1, /*locality=*/3);
#else
  (void)addr;
#endif
}

// PrefetchWrite for lines a write batch will lock or store to,
// PrefetchRead otherwise.
inline void Prefetch(const void* addr, bool for_write) {
  if (for_write) {
    PrefetchWrite(addr);
  } else {
    PrefetchRead(addr);
  }
}

// Prefetches every cacheline of [addr, addr + bytes).
inline void PrefetchRange(const void* addr, size_t bytes, bool for_write = false) {
  const auto start = reinterpret_cast<uintptr_t>(addr);
  const uintptr_t first = start & ~(kPrefetchLineSize - 1);
  const uintptr_t last = (start + bytes - 1) & ~(kPrefetchLineSize - 1);
  for (uintptr_t line = first; line <= last; line += kPrefetchLineSize) {
    Prefetch(reinterpret_cast<const void*>(line), for_write);
  }
}

}  // namespace dash::util

#endif  // DASH_PM_UTIL_PREFETCH_H_
