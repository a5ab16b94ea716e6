#include "pmem/pool.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "pmem/allocator.h"
#include "pmem/crash_point.h"
#include "pmem/flush_tracker.h"
#include "pmem/mini_tx.h"
#include "pmem/persist.h"

namespace dash::pmem {

namespace {

constexpr size_t kPageSize = 4096;

#if defined(__SANITIZE_THREAD__)
#define DASH_PM_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DASH_PM_TSAN_BUILD 1
#endif
#endif

// Candidate fixed base addresses; chosen high in the VA space to avoid the
// heap and library mappings (same trick as the paper's MAP_FIXED_NOREPLACE
// scheme, §6.1). Spaced 2 TB apart so many multi-GB pools coexist.
#ifdef DASH_PM_TSAN_BUILD
// ThreadSanitizer owns the 0x1000'0000'0000+ ranges for its shadow and
// meta mappings and rejects fixed maps there; its low application region
// spans the first 512 GiB of the VA space, so TSan builds map pools
// there instead — 32 GiB apart, which bounds per-pool size under TSan.
constexpr uint64_t kBaseCandidates[] = {
    0x0040'0000'0000ULL, 0x0048'0000'0000ULL, 0x0050'0000'0000ULL,
    0x0058'0000'0000ULL, 0x0060'0000'0000ULL, 0x0068'0000'0000ULL,
    0x0070'0000'0000ULL, 0x0078'0000'0000ULL,
};
#else
constexpr uint64_t kBaseCandidates[] = {
    0x2000'0000'0000ULL, 0x2200'0000'0000ULL, 0x2400'0000'0000ULL,
    0x2600'0000'0000ULL, 0x2800'0000'0000ULL, 0x2A00'0000'0000ULL,
    0x2C00'0000'0000ULL, 0x2E00'0000'0000ULL, 0x3000'0000'0000ULL,
    0x3200'0000'0000ULL, 0x3400'0000'0000ULL, 0x3600'0000'0000ULL,
    0x3800'0000'0000ULL, 0x3A00'0000'0000ULL, 0x3C00'0000'0000ULL,
    0x3E00'0000'0000ULL,
};
#endif

constexpr size_t RoundPage(size_t n) {
  return (n + kPageSize - 1) & ~(kPageSize - 1);
}

#ifndef MAP_FIXED_NOREPLACE
#define MAP_FIXED_NOREPLACE 0x100000
#endif
#ifndef MAP_HUGETLB
#define MAP_HUGETLB 0x40000
#endif
#ifndef MADV_HUGEPAGE
#define MADV_HUGEPAGE 14
#endif

constexpr size_t kHugePageBytes = 2ull << 20;

void* TryMapAt(uint64_t base, size_t size, int fd, int extra_flags = 0) {
  void* p = ::mmap(reinterpret_cast<void*>(base), size, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_FIXED_NOREPLACE | extra_flags, fd, 0);
  if (p == MAP_FAILED) return nullptr;
  if (reinterpret_cast<uint64_t>(p) != base) {
    // Old kernels ignore MAP_FIXED_NOREPLACE and may map elsewhere.
    ::munmap(p, size);
    return nullptr;
  }
  return p;
}

// Maps the pool at `base` with the largest page size the environment
// grants: an explicit hugetlb mapping first (succeeds only for files on
// hugetlbfs), then a normal mapping advised MADV_HUGEPAGE (honored for
// tmpfs pools when shmem THP is enabled), then plain 4 KB pages. Every
// step degrades silently — CI containers without huge-page support land
// on k4K with no behavioural difference.
void* MapPoolAt(uint64_t base, size_t size, int fd, bool try_huge,
                PageMode* mode) {
  if (try_huge && size % kHugePageBytes == 0) {
    void* p = TryMapAt(base, size, fd, MAP_HUGETLB);
    if (p != nullptr) {
      *mode = PageMode::kHugeTlb;
      return p;
    }
  }
  void* p = TryMapAt(base, size, fd);
  if (p == nullptr) return nullptr;
  *mode = PageMode::k4K;
  if (try_huge && ::madvise(p, size, MADV_HUGEPAGE) == 0) {
    *mode = PageMode::kThpAdvised;
  }
  return p;
}

// Sums the PMD-mapped (2 MB page) bytes /proc/self/smaps reports for the
// VMAs covering [base, base + size). Field lines never parse as
// "%lx-%lx" (no field name is all hex digits), so the range headers are
// unambiguous.
size_t SmapsHugeBytes(uintptr_t base, size_t size) {
  std::FILE* f = std::fopen("/proc/self/smaps", "r");
  if (f == nullptr) return 0;
  char line[512];
  bool in_range = false;
  unsigned long long huge_kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long lo = 0, hi = 0;
    if (std::sscanf(line, "%llx-%llx ", &lo, &hi) == 2) {
      in_range = lo >= base && lo < base + size;
      continue;
    }
    if (!in_range) continue;
    unsigned long long kb = 0;
    if (std::sscanf(line, "AnonHugePages: %llu kB", &kb) == 1 ||
        std::sscanf(line, "ShmemPmdMapped: %llu kB", &kb) == 1 ||
        std::sscanf(line, "FilePmdMapped: %llu kB", &kb) == 1) {
      huge_kb += kb;
    }
  }
  std::fclose(f);
  return static_cast<size_t>(huge_kb) * 1024;
}

}  // namespace

const char* PageModeName(PageMode mode) {
  switch (mode) {
    case PageMode::k4K: return "4k";
    case PageMode::kThpAdvised: return "thp";
    case PageMode::kHugeTlb: return "hugetlb";
  }
  return "unknown";
}

size_t PmPool::MappedPageBytes() const {
  if (page_mode_ == PageMode::kHugeTlb) return kHugePageBytes;
  if (page_mode_ != PageMode::kThpAdvised) return kPageSize;
  if (thp_confirmed_.load(std::memory_order_relaxed)) return kHugePageBytes;
  if (SmapsHugeBytes(reinterpret_cast<uintptr_t>(base_),
                     header()->pool_size) > 0) {
    thp_confirmed_.store(true, std::memory_order_relaxed);
    return kHugePageBytes;
  }
  return kPageSize;
}

PmPool::~PmPool() {
  if (!closed_) CloseDirty();
}

std::unique_ptr<PmPool> PmPool::Create(const std::string& path,
                                       const Options& options) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd < 0) {
    std::perror("PmPool::Create open");
    return nullptr;
  }
  const size_t size = RoundPage(options.pool_size);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    std::perror("PmPool::Create ftruncate");
    ::close(fd);
    ::unlink(path.c_str());
    return nullptr;
  }

  void* base = nullptr;
  uint64_t base_addr = 0;
  PageMode page_mode = PageMode::k4K;
  for (uint64_t candidate : kBaseCandidates) {
    base = MapPoolAt(candidate, size, fd, options.try_huge_pages, &page_mode);
    if (base != nullptr) {
      base_addr = candidate;
      break;
    }
  }
  if (base == nullptr) {
    std::fprintf(stderr, "PmPool::Create: no fixed base address available\n");
    ::close(fd);
    ::unlink(path.c_str());
    return nullptr;
  }
  TornWriteRegisterPool(base, size);

  // Lay out the pool. A simulated power failure here must not leak the
  // fixed-address mapping (it would shadow every later reopen attempt in
  // this process), so unwind it before letting CrashInjected propagate.
  // The file itself stays on disk — that is the crash semantics.
  auto* header = static_cast<PoolHeader*>(base);
  AllocatorMeta* meta = nullptr;
  try {
    uint64_t off = RoundPage(sizeof(PoolHeader));
    header->tx_log_offset = off;
    off += RoundPage(sizeof(TxLog) * kMaxThreads);
    header->allocator_offset = off;
    off += RoundPage(sizeof(AllocatorMeta));
    header->retire_offset = off;
    off += RoundPage(sizeof(RetireBuffer));
    header->root_offset = off;
    header->root_size = RoundPage(options.root_size);
    off += header->root_size;
    header->heap_offset = off;
    header->app_tag = options.app_tag;

    header->layout_version = kLayoutVersion;
    header->pool_size = size;
    header->base_address = base_addr;
    header->clean_shutdown = 0;

    meta = reinterpret_cast<AllocatorMeta*>(static_cast<char*>(base) +
                                            header->allocator_offset);
    meta->bump = header->heap_offset;
    meta->heap_end = size;
    Persist(meta, sizeof(*meta));

    // Publish the header last; magic validates the whole layout. A crash
    // before the magic flush leaves a file Open() rejects (bad header) —
    // never a half-initialized pool it would accept.
    Persist(header, sizeof(*header));
    CRASH_POINT("pool_create_after_layout");
    header->magic = kPoolMagic;
    Persist(&header->magic, sizeof(header->magic));
    CRASH_POINT("pool_create_after_publish");
  } catch (...) {
    TornWriteUnregisterPool(base);
    ::munmap(base, size);
    ::close(fd);
    throw;
  }

  auto pool = std::unique_ptr<PmPool>(new PmPool());
  pool->base_ = base;
  pool->fd_ = fd;
  pool->page_mode_ = page_mode;
  pool->recovered_from_crash_ = false;
  pool->allocator_ = std::make_unique<PmAllocator>(pool.get(), meta);
  return pool;
}

std::unique_ptr<PmPool> PmPool::Open(const std::string& path,
                                     bool try_huge_pages) {
  int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return nullptr;

  PoolHeader header_copy;
  if (::pread(fd, &header_copy, sizeof(header_copy), 0) !=
          static_cast<ssize_t>(sizeof(header_copy)) ||
      header_copy.magic != kPoolMagic ||
      header_copy.layout_version != kLayoutVersion) {
    std::fprintf(stderr, "PmPool::Open: bad pool header in %s\n",
                 path.c_str());
    ::close(fd);
    return nullptr;
  }

  PageMode page_mode = PageMode::k4K;
  void* base = MapPoolAt(header_copy.base_address, header_copy.pool_size, fd,
                         try_huge_pages, &page_mode);
  if (base == nullptr) {
    std::fprintf(stderr,
                 "PmPool::Open: cannot map %s at its recorded base %#lx\n",
                 path.c_str(),
                 static_cast<unsigned long>(header_copy.base_address));
    ::close(fd);
    return nullptr;
  }

  TornWriteRegisterPool(base, header_copy.pool_size);
  auto pool = std::unique_ptr<PmPool>(new PmPool());
  pool->base_ = base;
  pool->fd_ = fd;
  pool->page_mode_ = page_mode;
  auto* header = pool->header();
  pool->recovered_from_crash_ = header->clean_shutdown == 0;

  // Mark the pool dirty while open.
  header->clean_shutdown = 0;
  Persist(&header->clean_shutdown, sizeof(header->clean_shutdown));

  auto* meta = pool->FromOffset<AllocatorMeta>(header->allocator_offset);
  pool->allocator_ = std::make_unique<PmAllocator>(pool.get(), meta);
  pool->RunOpenRecovery();
  return pool;
}

std::unique_ptr<PmPool> PmPool::OpenOrCreate(const std::string& path,
                                             const Options& options,
                                             bool* created) {
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) {
    if (created != nullptr) *created = false;
    return Open(path, options.try_huge_pages);
  }
  if (created != nullptr) *created = true;
  return Create(path, options);
}

void PmPool::RunOpenRecovery() {
  // All three passes are constant work: fixed-size logs, slots and buffer.
  RecoverTxLogs(this);
  allocator_->RecoverOnOpen();
  auto* retire = FromOffset<RetireBuffer>(header()->retire_offset);
  for (size_t i = 0; i < RetireBuffer::kSlots; ++i) {
    if (retire->blocks[i] != 0) {
      allocator_->Free(FromOffset<void>(retire->blocks[i]));
      retire->blocks[i] = 0;
      PersistObject(&retire->blocks[i]);
    }
  }
}

void PmPool::CloseClean() {
  assert(!closed_);
  header()->clean_shutdown = 1;
  Persist(&header()->clean_shutdown, sizeof(uint64_t));
  CloseDirty();
}

void PmPool::CloseDirty() {
  if (closed_) return;
  TornWriteUnregisterPool(base_);
  ::munmap(base_, header() != nullptr ? header()->pool_size : 0);
  ::close(fd_);
  closed_ = true;
  base_ = nullptr;
  fd_ = -1;
}

size_t PmPool::AddRetire(void* block) {
  auto* retire = FromOffset<RetireBuffer>(header()->retire_offset);
  util::SpinLockGuard guard(retire_lock_);
  for (size_t i = 0; i < RetireBuffer::kSlots; ++i) {
    // Claim bit first: CompleteRetire clears a claimed slot's word outside
    // the lock, so only an unclaimed slot's word may be read here.
    if (((retire_claimed_ >> i) & 1) == 0 && retire->blocks[i] == 0) {
      retire->blocks[i] = ToOffset(block);
      PersistObject(&retire->blocks[i]);
      retire_claimed_ |= 1ull << i;
      return i;
    }
  }
  assert(false && "retire buffer full");
  return RetireBuffer::kSlots;
}

size_t PmPool::StageRetire(MiniTx* tx, void* block) {
  auto* retire = FromOffset<RetireBuffer>(header()->retire_offset);
  util::SpinLockGuard guard(retire_lock_);
  for (size_t i = 0; i < RetireBuffer::kSlots; ++i) {
    // Claim bit first, as in AddRetire.
    if (((retire_claimed_ >> i) & 1) == 0 && retire->blocks[i] == 0) {
      retire_claimed_ |= 1ull << i;
      tx->Stage(&retire->blocks[i], ToOffset(block));
      return i;
    }
  }
  assert(false && "retire buffer full");
  return RetireBuffer::kSlots;
}

void PmPool::AbandonRetireClaim(size_t slot) {
  util::SpinLockGuard guard(retire_lock_);
  retire_claimed_ &= ~(1ull << slot);
}

void PmPool::CompleteRetire(size_t slot) {
  auto* retire = FromOffset<RetireBuffer>(header()->retire_offset);
  assert(slot < RetireBuffer::kSlots && retire->blocks[slot] != 0);
  void* block = FromOffset<void>(retire->blocks[slot]);
  allocator_->Free(block);
  retire->blocks[slot] = 0;
  PersistObject(&retire->blocks[slot]);
  util::SpinLockGuard guard(retire_lock_);
  retire_claimed_ &= ~(1ull << slot);
}

}  // namespace dash::pmem
