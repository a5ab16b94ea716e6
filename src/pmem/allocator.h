// Crash-safe PM allocator with allocate-activate (reserve/publish)
// semantics, modelled on PMDK's pmemobj_reserve/pmemobj_publish.
//
// The paper (§2.3, §4.7) requires that a segment allocated for a split is,
// at every crash point, owned either by the application (reachable through
// a persistent pointer such as the segment side-link) or by the allocator —
// never leaked. The protocol here guarantees that:
//
//   Reserve(size)            -> block; recorded in this thread's persistent
//                               reservation slot together with the intended
//                               destination address.
//   Activate(r)              -> atomically publishes the block pointer into
//                               the destination (8-byte store + flush), then
//                               clears the slot.
//   Cancel(r)                -> returns the block to the free list.
//
// On pool open, every non-empty reservation slot is examined: if the
// destination already holds the block pointer the activation had completed
// (slot is simply cleared); otherwise the block is returned to the free
// list. Either way, no leak. This is O(kMaxThreads) — constant — work.
//
// Direct Alloc()/Free() (without reserve) are provided for data whose
// reachability is established by other means (e.g., the retire buffer).

#ifndef DASH_PM_PMEM_ALLOCATOR_H_
#define DASH_PM_PMEM_ALLOCATOR_H_

#include <cstddef>
#include <cstdint>

#include "util/lock.h"

namespace dash::pmem {

class PmPool;

inline constexpr size_t kAllocAlignment = 64;
// Small allocations are rounded up to a multiple of 64 bytes and served
// from per-class free lists; classes are 64*1 .. 64*kNumSmallClasses.
inline constexpr size_t kNumSmallClasses = 64;  // up to 4 KB
// Larger blocks use exact-size free lists (bounded distinct sizes).
inline constexpr size_t kNumLargeClasses = 32;

// Per-block persistent header (one cacheline, precedes user data).
struct BlockHeader {
  uint64_t user_size;   // bytes requested (rounded)
  uint64_t next;        // free-list link (pool offset of next block header)
  uint64_t padding[6];
};
static_assert(sizeof(BlockHeader) == 64);

// Persistent per-thread reservation slot.
struct ReserveSlot {
  uint64_t block;  // pool offset of BlockHeader; 0 = empty
  uint64_t dest;   // pool offset of the publication target (may be 0)
};

// Persistent allocator metadata (lives inside the pool).
struct AllocatorMeta {
  uint64_t bump;       // next unallocated pool offset
  uint64_t heap_end;   // exclusive
  uint64_t small_free[kNumSmallClasses];        // heads (offsets)
  uint64_t large_size[kNumLargeClasses];        // size keys (0 = unused)
  uint64_t large_free[kNumLargeClasses];        // heads
  ReserveSlot slots[256];                       // kMaxThreads
};

// Volatile allocator front-end. One instance per open pool.
class PmAllocator {
 public:
  PmAllocator(PmPool* pool, AllocatorMeta* meta);
  PmAllocator(const PmAllocator&) = delete;
  PmAllocator& operator=(const PmAllocator&) = delete;

  // Handle for an in-flight reservation.
  struct Reservation {
    void* ptr = nullptr;       // user data pointer
    uint32_t slot = 0;         // owning thread slot
    bool valid() const { return ptr != nullptr; }
  };

  // Reserves a zeroed block of `size` bytes. The reservation is recorded
  // persistently. Returns an invalid reservation on out-of-memory.
  Reservation Reserve(size_t size);

  // Reserve without zeroing or persisting the block: it holds whatever
  // its last owner left there (a recycled block may hold a retired
  // segment's records). For callers that write, and persist before they
  // publish, every byte they will later read: split destinations, which
  // Segment::SplitInto clears and writes back before marking them FILLED,
  // and directory images, written in full before their commit. Saves the
  // block's memset and one flush per line.
  Reservation ReserveUninitialized(size_t size);

  // Publishes `r.ptr` into `*dest` (which must live in the pool) with an
  // atomic persistent store, then clears the reservation slot. After this,
  // the block is owned by the application.
  void Activate(const Reservation& r, uint64_t* dest);

  // Variant that clears the slot without a destination store; the caller
  // must have already made the block reachable persistently (e.g., stored
  // the pointer inside a mini-transaction).
  void ActivateNoDest(const Reservation& r);

  // Returns a reserved block to the allocator.
  void Cancel(const Reservation& r);

  // For transactional publication: pool offsets of the reservation slot's
  // block/dest words, so a MiniTx can clear the slot atomically with the
  // stores that make the block reachable.
  uint64_t ReservationSlotBlockOffset(const Reservation& r) const;
  uint64_t ReservationSlotDestOffset(const Reservation& r) const;

  // One-shot allocation: Reserve + ActivateNoDest. The caller takes
  // responsibility for reachability (leaks on crash unless the pointer is
  // persisted or routed through the retire buffer before the next crash
  // point). Returns nullptr on out-of-memory.
  void* Alloc(size_t size);

  // Returns a block obtained from Alloc()/Reserve() to the free lists.
  void Free(void* ptr);

  // Pool-open recovery: reclaims or confirms every in-flight reservation.
  // Constant work (scans the fixed slot array).
  void RecoverOnOpen();

  // Statistics.
  uint64_t bytes_in_use() const;   // bump-allocated bytes (upper bound)
  uint64_t heap_capacity() const;

  // Test hook: total blocks currently on free lists (walks lists; O(n)).
  uint64_t CountFreeBlocks() const;

 private:
  size_t SmallClass(size_t rounded) const { return rounded / 64 - 1; }
  uint64_t* FreeListHead(size_t rounded, bool create);
  void* PopOrBump(size_t rounded, uint32_t slot_idx);
  void PushFree(BlockHeader* header);

  PmPool* pool_;
  AllocatorMeta* meta_;
  util::SpinLock lock_;  // protects free lists + bump (volatile)
};

}  // namespace dash::pmem

#endif  // DASH_PM_PMEM_ALLOCATOR_H_
