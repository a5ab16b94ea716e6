#include "pmem/allocator.h"

#include <cassert>
#include <cstring>

#include "pmem/crash_point.h"
#include "pmem/persist.h"
#include "pmem/pool.h"
#include "util/thread_id.h"

namespace dash::pmem {

namespace {
size_t RoundUp64(size_t size) { return (size + 63) & ~size_t{63}; }
}  // namespace

PmAllocator::PmAllocator(PmPool* pool, AllocatorMeta* meta)
    : pool_(pool), meta_(meta) {}

uint64_t* PmAllocator::FreeListHead(size_t rounded, bool create) {
  if (rounded <= 64 * kNumSmallClasses) {
    return &meta_->small_free[SmallClass(rounded)];
  }
  for (size_t i = 0; i < kNumLargeClasses; ++i) {
    if (meta_->large_size[i] == rounded) return &meta_->large_free[i];
  }
  if (!create) return nullptr;
  for (size_t i = 0; i < kNumLargeClasses; ++i) {
    if (meta_->large_size[i] == 0) {
      meta_->large_size[i] = rounded;
      PersistObject(&meta_->large_size[i]);
      return &meta_->large_free[i];
    }
  }
  assert(false && "too many distinct large allocation sizes");
  return nullptr;
}

void* PmAllocator::PopOrBump(size_t rounded, uint32_t slot_idx) {
  // Caller holds lock_.
  ReserveSlot* slot = &meta_->slots[slot_idx];
  uint64_t* head = FreeListHead(rounded, /*create=*/true);
  uint64_t block_off;
  if (*head != 0) {
    // Record the reservation before unlinking: if we crash in between, the
    // recovery pass sees head == slot.block and simply clears the slot.
    block_off = *head;
    slot->block = block_off;
    slot->dest = 0;
    PersistObject(slot);
    CRASH_POINT("alloc_after_slot_record_pop");
    auto* header = pool_->FromOffset<BlockHeader>(block_off);
    *head = header->next;
    Persist(head, sizeof(*head));
    header->next = 0;
    PersistObject(&header->next);
  } else {
    const uint64_t total = sizeof(BlockHeader) + rounded;
    if (meta_->bump + total > meta_->heap_end) return nullptr;
    // Record the reservation, initialize the header, then advance the bump
    // pointer. A crash before the bump advance leaves slot.block >= bump,
    // which recovery recognizes as "allocation never committed".
    block_off = meta_->bump;
    slot->block = block_off;
    slot->dest = 0;
    PersistObject(slot);
    CRASH_POINT("alloc_after_slot_record_bump");
    auto* header = pool_->FromOffset<BlockHeader>(block_off);
    header->user_size = rounded;
    header->next = 0;
    PersistObject(header);
    meta_->bump = block_off + total;
    Persist(&meta_->bump, sizeof(meta_->bump));
    CRASH_POINT("alloc_after_bump_advance");
  }
  return pool_->FromOffset<void>(block_off + sizeof(BlockHeader));
}

PmAllocator::Reservation PmAllocator::Reserve(size_t size) {
  const Reservation r = ReserveUninitialized(size);
  if (r.valid()) {
    const size_t rounded = RoundUp64(size == 0 ? 1 : size);
    std::memset(r.ptr, 0, rounded);
    Persist(r.ptr, rounded);
  }
  return r;
}

PmAllocator::Reservation PmAllocator::ReserveUninitialized(size_t size) {
  const size_t rounded = RoundUp64(size == 0 ? 1 : size);
  const uint32_t slot_idx = util::ThreadId();
  assert(meta_->slots[slot_idx].block == 0 &&
         "nested reservations are not supported");

  void* user;
  {
    util::SpinLockGuard guard(lock_);
    user = PopOrBump(rounded, slot_idx);
  }
  if (user == nullptr) return Reservation{};
  return Reservation{user, slot_idx};
}

void PmAllocator::Activate(const Reservation& r, uint64_t* dest) {
  assert(r.valid());
  assert(pool_->Contains(dest));
  ReserveSlot* slot = &meta_->slots[r.slot];
  slot->dest = pool_->ToOffset(dest);
  PersistObject(slot);
  CRASH_POINT("alloc_activate_before_publish");
  // The publication store: after this persists, the block is owned by the
  // application even if the slot is never cleared.
  AtomicPersist64(dest, reinterpret_cast<uint64_t>(r.ptr));
  CRASH_POINT("alloc_activate_after_publish");
  slot->block = 0;
  slot->dest = 0;
  PersistObject(slot);
}

void PmAllocator::ActivateNoDest(const Reservation& r) {
  assert(r.valid());
  ReserveSlot* slot = &meta_->slots[r.slot];
  slot->block = 0;
  slot->dest = 0;
  PersistObject(slot);
}

void PmAllocator::Cancel(const Reservation& r) {
  assert(r.valid());
  auto* header = reinterpret_cast<BlockHeader*>(
      static_cast<char*>(r.ptr) - sizeof(BlockHeader));
  {
    util::SpinLockGuard guard(lock_);
    PushFree(header);
  }
  ReserveSlot* slot = &meta_->slots[r.slot];
  slot->block = 0;
  slot->dest = 0;
  PersistObject(slot);
}

uint64_t PmAllocator::ReservationSlotBlockOffset(const Reservation& r) const {
  return pool_->ToOffset(&meta_->slots[r.slot].block);
}

uint64_t PmAllocator::ReservationSlotDestOffset(const Reservation& r) const {
  return pool_->ToOffset(&meta_->slots[r.slot].dest);
}

void* PmAllocator::Alloc(size_t size) {
  Reservation r = Reserve(size);
  if (!r.valid()) return nullptr;
  ActivateNoDest(r);
  return r.ptr;
}

void PmAllocator::Free(void* ptr) {
  assert(pool_->Contains(ptr));
  auto* header = reinterpret_cast<BlockHeader*>(static_cast<char*>(ptr) -
                                                sizeof(BlockHeader));
  util::SpinLockGuard guard(lock_);
  PushFree(header);
}

void PmAllocator::PushFree(BlockHeader* header) {
  // Caller holds lock_.
  uint64_t* head = FreeListHead(header->user_size, /*create=*/true);
  header->next = *head;
  PersistObject(&header->next);
  *head = pool_->ToOffset(header);
  Persist(head, sizeof(*head));
}

void PmAllocator::RecoverOnOpen() {
  for (size_t i = 0; i < kMaxThreads; ++i) {
    ReserveSlot* slot = &meta_->slots[i];
    if (slot->block == 0) continue;

    const uint64_t user_off = slot->block + sizeof(BlockHeader);
    bool published = false;
    if (slot->dest != 0) {
      const uint64_t stored = *pool_->FromOffset<uint64_t>(slot->dest);
      published =
          stored == reinterpret_cast<uint64_t>(pool_->FromOffset<void>(user_off));
    }

    if (!published) {
      if (slot->block >= meta_->bump) {
        // Bump allocation never committed; the region is still virgin.
      } else {
        auto* header = pool_->FromOffset<BlockHeader>(slot->block);
        uint64_t* head = FreeListHead(header->user_size, /*create=*/true);
        if (*head != slot->block) {
          // Not already on its free list (the pop had completed): push back.
          PushFree(header);
        }
      }
    }
    slot->block = 0;
    slot->dest = 0;
    PersistObject(slot);
  }
}

uint64_t PmAllocator::bytes_in_use() const {
  return meta_->bump - (meta_->heap_end - heap_capacity());
}

uint64_t PmAllocator::heap_capacity() const {
  return meta_->heap_end - pool_->header()->heap_offset;
}

uint64_t PmAllocator::CountFreeBlocks() const {
  uint64_t count = 0;
  auto walk = [&](uint64_t head) {
    while (head != 0) {
      ++count;
      head = pool_->FromOffset<BlockHeader>(head)->next;
    }
  };
  for (size_t i = 0; i < kNumSmallClasses; ++i) walk(meta_->small_free[i]);
  for (size_t i = 0; i < kNumLargeClasses; ++i) walk(meta_->large_free[i]);
  return count;
}

}  // namespace dash::pmem
