// AMAC (Asynchronous Memory Access Chaining) scheduler: the one batch
// engine behind every table's Multi* entry points.
//
// Overlapping only the *prefetch* stages of a batch — hash and prefetch
// every directory entry, resolve and prefetch every bucket, then execute
// each operation serially — still stalls the core once per operation on
// misses taken *inside* the execute stage: stash probes, Dash-LH's extra
// address-resolution walk, Level hashing's bottom-level reprobe,
// SMO-triggered re-reads.
//
// This engine instead keeps up to kBatchGroupWidth in-flight per-operation
// state machines: whenever one operation is about to dereference a cold
// cacheline it issues a software prefetch for that line, records its
// continuation, and yields, so the miss resolves while the other
// operations make progress.
//
// Scheduling. The machines' states are monotonic (an op never moves to an
// earlier state, except via the explicit kRetry restart), so a fair
// round-robin over them unrolls into *state passes*: pass k visits, in
// submission order, exactly the ops still suspended at state k — one ring
// lap per state, with completed ops dropping out. The tables implement
// the passes directly (plain loops plus an AmacReadyList of suspended
// continuations) rather than through a generic per-step dispatcher:
// measured on the fixed-schedule common path, per-step dispatch costs
// ~5 % of the whole operation. The shared pieces here are the state
// vocabulary, the ready-list, and the suspend/resume telemetry surfaced
// by bench_batch and bench_suite.
//
// Write engine. Write ops hold locks across their whole body (see the
// constraint below), so the write engine is a fixed schedule, written
// once for every table in dash/table_front.h: the table's PrefetchGroup
// runs its prefetch passes (Hash and DirProbe for the directory tables,
// Hash only for Level hashing), then the locked op bodies execute in index
// order (CountWriteGroup records it). PrefetchGroup is the table's only
// resolve-and-prefetch code; PrefetchBatch reuses it for ShardedStore's
// cross-shard priming.
//
// Scheduling constraint: a state machine must never yield while holding a
// lock another operation in the same group could need — the scheduler is
// single-threaded, so the holder would never resume and the waiter would
// spin forever. All suspend points therefore sit at lock-free program
// points; lock-protected regions (write ops, pessimistic probes) run to
// completion within a single pass visit. Since the optimistic-locking
// conversion of CCEH and Level (versioned snapshot/revalidate searches),
// every table's *search* path is lock-free end to end, so all four
// tables suspend at the execute-stage probe; ops whose revalidation
// fails against a concurrent SMO re-arm their prefetches and resume in
// the kRetry state instead of stalling cold.

#ifndef DASH_PM_UTIL_AMAC_H_
#define DASH_PM_UTIL_AMAC_H_

#include <cstddef>
#include <cstdint>

#include "util/prefetch.h"

namespace dash::util {

// Canonical stage names for the per-op state machines. Tables reuse the
// subset that applies to their layout (Level hashing has no directory;
// CCEH's bounded-window probe covers kBucketProbe and kExecute in one
// optimistic step).
enum class AmacState : uint8_t {
  kHash = 0,        // key hashed, directory/candidate lines prefetched
  kDirProbe = 1,    // directory entry read, segment header prefetched
  kSegResolve = 2,  // header validated, probe cachelines prefetched
  kBucketProbe = 3, // bucket pair probed, stash plan prefetched
  kExecute = 4,     // execute-stage continuation (stash scan / locked body)
  kRetry = 5,       // restarted after kRetry (concurrent SMO / recovery)
};
inline constexpr size_t kAmacStateCount = 6;

inline const char* AmacStateName(AmacState s) {
  switch (s) {
    case AmacState::kHash: return "hash";
    case AmacState::kDirProbe: return "dir_probe";
    case AmacState::kSegResolve: return "seg_resolve";
    case AmacState::kBucketProbe: return "bucket_probe";
    case AmacState::kExecute: return "execute";
    case AmacState::kRetry: return "retry";
  }
  return "?";
}

// Per-thread suspend/resume counters. Tables bump the thread-local
// instance on the hot path (plain stores, no atomics); bench_batch drains
// the aggregate between phases. DrainAll() must only be called while no
// other thread is executing a batch (the benchmark joins its workers
// first) — the counters are deliberately unsynchronized.
struct AmacTelemetry {
  uint64_t suspends[kAmacStateCount] = {};  // yields leaving each state
  uint64_t steps = 0;                       // state-machine step invocations
  uint64_t ops = 0;                         // operations run through the engine
  uint64_t groups = 0;                      // groups scheduled

  void Suspend(AmacState s) { ++suspends[static_cast<size_t>(s)]; }

  // Counts one group of the tables' fixed-schedule write engine:
  // `prefetch_passes` passes, each op suspending once after each (Hash,
  // then DirProbe for the directory tables), then the execute pass — one
  // step per op per prefetch pass.
  void CountWriteGroup(size_t n, size_t prefetch_passes) {
    ++groups;
    ops += n;
    for (size_t p = 0; p < prefetch_passes; ++p) suspends[p] += n;
    steps += prefetch_passes * n;
  }

  uint64_t TotalSuspends() const {
    uint64_t t = 0;
    for (size_t i = 0; i < kAmacStateCount; ++i) t += suspends[i];
    return t;
  }

  // The calling thread's counters (registered on first use; the entry
  // outlives the thread so DrainAll can read it after a join).
  static AmacTelemetry& Local();
  // Sums and resets every registered thread's counters.
  static AmacTelemetry DrainAll();
};

// Stack-local accumulator flushed into the thread's AmacTelemetry once
// per group: the per-step increments stay on the stack (register-
// allocatable) instead of read-modify-writing a heap line inside the
// scheduler's hot loop.
struct AmacGroupCounters {
  uint64_t suspends[kAmacStateCount] = {};
  uint64_t steps = 0;

  void Suspend(AmacState s) { ++suspends[static_cast<size_t>(s)]; }

  void FlushTo(AmacTelemetry& t) const {
    for (size_t i = 0; i < kAmacStateCount; ++i) {
      t.suspends[i] += suspends[i];
    }
    t.steps += steps;
  }
};

// The set of operations suspended at one state: a state pass drains the
// previous state's list in submission order (one round-robin lap), and an
// op that suspends again is pushed onto the next state's list. Keeping
// submission order end to end is also what lets the write engines keep
// the batch API's same-type ordering guarantee.
struct AmacReadyList {
  size_t idx[kBatchGroupWidth];
  size_t count = 0;

  void Push(size_t i) { idx[count++] = i; }
};

}  // namespace dash::util

#endif  // DASH_PM_UTIL_AMAC_H_
