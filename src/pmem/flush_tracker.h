// Torn-write power-failure simulation.
//
// The DRAM emulation's crash model used to be "drop volatile state": every
// store that reached the mapping survived a simulated crash, flushed or
// not. Real PM is harsher — only cachelines that were flushed (CLWB) and
// fenced (SFENCE) before the failure are guaranteed durable; everything
// else may silently revert to its last-fenced contents. This tracker
// upgrades the simulation to that model (pmemcheck/Yat-style persistency
// order checking):
//
//   * Every pool registers its mapping here (pool.cc).
//   * TornWriteArm() snapshots each registered pool into a shadow copy —
//     the "last durable image" — and starts tracking.
//   * While tracking, Clwb(addr) captures the current 64-byte line
//     contents into a per-thread pending list, and Fence() commits the
//     calling thread's pending lines into the shadow. A store that is
//     never followed by its own Clwb+Fence therefore never reaches the
//     shadow — exactly the write-back-cache behaviour that loses it on
//     power failure. Capture happens at Clwb time, so a store issued
//     *after* the Clwb of its line is also lost (the strictest reading).
//   * When an injected crash fires, TornWriteRevert() copies the shadows
//     back over the mappings before the test reopens the pool: the
//     recovery code now sees only what a real power failure would have
//     left behind.
//   * Reverting every unflushed line is one legal image of many: a write-
//     back cache may evict a dirty line to PM at any moment (Yat, Lantz et
//     al., USENIX ATC 2014). The eviction mode of TornWriteRevert keeps
//     each unflushed line with probability p instead, drawn from a seeded
//     generator, so a test can walk a reproducible set of those images.
//
// Tracking costs one relaxed atomic load per Clwb/Fence when disarmed.
// The armed paths are test-only and single-writer by construction (crash
// tests drive one mutating thread); the registry mutex still guards the
// shadow for safety.

#ifndef DASH_PM_PMEM_FLUSH_TRACKER_H_
#define DASH_PM_PMEM_FLUSH_TRACKER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dash::pmem {

namespace internal {
extern std::atomic<bool> g_torn_write_tracking;
// Capture the line containing `addr` into the thread's pending list.
void TornTrackClwb(const void* addr);
// Commit the calling thread's pending lines to the shadows.
void TornTrackFence();
}  // namespace internal

// Mapping registry; called by PmPool on map/unmap. Unregistering drops
// the pool's shadow (its lines can no longer be reverted).
void TornWriteRegisterPool(void* base, size_t size);
void TornWriteUnregisterPool(void* base);

// Snapshots every registered pool into a shadow image and starts
// tracking. Call at a quiescent point (no store since the last Fence is
// in flight). Returns false when no pool is registered.
bool TornWriteArm();

// Reverts every registered pool to its shadow image — undoing all stores
// not committed by a completed Clwb+Fence — and stops tracking. With
// `keep_probability` p > 0, each such line instead keeps its current
// contents with probability p, as if the cache had evicted it just before
// the failure; `seed` makes the choice reproducible. Returns the number of
// 64-byte lines that were reverted.
size_t TornWriteRevert(double keep_probability = 0.0, uint64_t seed = 0);

// Stops tracking and drops the shadows without reverting.
void TornWriteDisarm();

bool TornWriteArmed();

}  // namespace dash::pmem

#endif  // DASH_PM_PMEM_FLUSH_TRACKER_H_
