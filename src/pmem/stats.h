// Persistent-memory access accounting and latency emulation.
//
// Real Optane DCPMM has ~3-14x lower bandwidth than DRAM and a higher
// end-to-end read latency than write latency (paper §2.1). Since we emulate
// PM over DRAM, we provide two mechanisms to preserve the paper's
// experimental *shape*:
//
//  1. Counters: every cacheline flush, fence, and explicit PM read probe is
//     counted per thread. Benchmarks report these, making claims like
//     "fingerprinting avoids PM reads" directly measurable.
//  2. Optional latency injection: a calibrated busy-wait added per flushed
//     line and per counted read miss, configurable at runtime (environment
//     variable DASH_PM_FLUSH_NS / DASH_PM_READ_NS or programmatically).

#ifndef DASH_PM_PMEM_STATS_H_
#define DASH_PM_PMEM_STATS_H_

#include <atomic>
#include <cstdint>

#include "util/lock.h"

namespace dash::pmem {

// Aggregated PM access counters.
struct PmStats {
  uint64_t clwb = 0;        // cacheline write-backs issued
  uint64_t fence = 0;       // store fences issued
  uint64_t read_probes = 0; // explicit PM read probes (cache-miss proxies)
  uint64_t nt_stores = 0;   // non-temporal (streaming) stores

  PmStats& operator+=(const PmStats& o) {
    clwb += o.clwb;
    fence += o.fence;
    read_probes += o.read_probes;
    nt_stores += o.nt_stores;
    return *this;
  }
};

// Emulation knobs. Zero values disable latency injection (default), which
// is what unit tests use; benchmarks may enable them to model DCPMM.
struct PmEmulationConfig {
  std::atomic<uint32_t> flush_latency_ns{0};
  std::atomic<uint32_t> read_latency_ns{0};
};

// Global emulation configuration. Initialized from the environment
// (DASH_PM_FLUSH_NS, DASH_PM_READ_NS) on first use.
PmEmulationConfig& GetEmulationConfig();

// Per-thread counter block. Obtained once per thread. Single-writer: only
// the owning thread bumps it (util::SingleWriterAdd, a relaxed load and
// store with no locked instruction), while AggregatePmStats may read it
// from any thread at any time.
struct ThreadPmStats {
  std::atomic<uint64_t> clwb{0};
  std::atomic<uint64_t> fence{0};
  std::atomic<uint64_t> read_probes{0};
  std::atomic<uint64_t> nt_stores{0};
};

// Returns this thread's counter block (registered globally on first call).
ThreadPmStats& GetThreadPmStats();

// Sums counters across all threads that ever touched PM.
PmStats AggregatePmStats();

// Resets all thread counters to zero (benchmark phase boundaries). For
// quiescent points only: a reset racing a thread's bump can be undone by
// that bump's store, so no other thread may touch PM meanwhile.
void ResetPmStats();

// Busy-waits approximately `ns` nanoseconds (calibrated on first use).
void SpinNanos(uint32_t ns);

}  // namespace dash::pmem

#endif  // DASH_PM_PMEM_STATS_H_
