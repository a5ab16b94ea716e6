// Software-prefetch portability shim for the batched operation pipeline.
//
// The batch entry points (KvIndex::MultiSearch & friends) stage each group
// of operations AMAC-style: hash everything, prefetch the directory
// entries for the whole group, then the target bucket metadata lines, and
// only then execute the probes — so one operation's memory stall overlaps
// the next operation's prefetch.
//
// On x86-64 the helpers emit the instruction through `asm volatile`, never
// through __builtin_prefetch. GCC 12 at -O2/-O3 treats a prefetch-only
// helper such as Segment::PrefetchProbe (a PrefetchRange loop plus one
// more prefetch) as side-effect free once it may assume the loop
// terminates, and deletes every call: the Dash batch engines then
// prefetched directory entries and segment headers but no bucket. A
// volatile asm is never removed. Other targets keep __builtin_prefetch.
// This header is the only place that may name the builtin
// (tests/prefetch_codegen_test.py enforces both properties).

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

// prefetcht0: into every cache level.
inline void PrefetchRead(const void* addr) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  asm volatile("prefetcht0 (%0)" : : "r"(addr));
#elif defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/0, /*locality=*/3);
#else
  (void)addr;
#endif
}

// For lines the operation will write (bucket metadata on insert/delete,
// PM-resident lock words). On x86-64 this emits the same prefetcht0 as
// PrefetchRead — a shared-state fetch, not an exclusive one: GCC without
// -mprfchw lowered __builtin_prefetch(addr, 1) to prefetcht0 as well, so
// the engines keep the instruction they always ran. The separate entry
// point keeps the write intent at every call site for the targets that
// distinguish it.
inline void PrefetchWrite(const void* addr) {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  asm volatile("prefetcht0 (%0)" : : "r"(addr));
#elif defined(__GNUC__) || defined(__clang__)
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
