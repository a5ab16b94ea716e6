#include "pmem/flush_tracker.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "pmem/persist.h"

namespace dash::pmem {

namespace internal {
std::atomic<bool> g_torn_write_tracking{false};
}  // namespace internal

namespace {

struct PoolShadow {
  char* base = nullptr;
  size_t size = 0;
  std::unique_ptr<char[]> shadow;  // non-null only while armed
};

std::mutex g_mu;
std::vector<PoolShadow>& Pools() {
  static std::vector<PoolShadow> pools;
  return pools;
}

// Arm generation: bumped on every TornWriteArm so pending lines captured
// under an earlier arming (by any thread) are discarded instead of being
// committed into a fresh shadow.
std::atomic<uint64_t> g_generation{0};

struct PendingLine {
  char* line;
  unsigned char data[kCachelineSize];
};

thread_local std::vector<PendingLine> t_pending;
thread_local uint64_t t_generation = 0;

}  // namespace

namespace internal {

void TornTrackClwb(const void* addr) {
  const uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_generation != gen) {
    t_pending.clear();
    t_generation = gen;
  }
  char* line = reinterpret_cast<char*>(reinterpret_cast<uintptr_t>(addr) &
                                       ~(kCachelineSize - 1));
  for (PendingLine& p : t_pending) {
    if (p.line == line) {
      std::memcpy(p.data, line, kCachelineSize);
      return;
    }
  }
  PendingLine p;
  p.line = line;
  std::memcpy(p.data, line, kCachelineSize);
  t_pending.push_back(p);
}

void TornTrackFence() {
  if (t_pending.empty()) return;
  std::lock_guard<std::mutex> lock(g_mu);
  if (t_generation == g_generation.load(std::memory_order_relaxed)) {
    for (const PendingLine& p : t_pending) {
      for (PoolShadow& pool : Pools()) {
        if (pool.shadow == nullptr) continue;
        if (p.line >= pool.base && p.line < pool.base + pool.size) {
          std::memcpy(pool.shadow.get() + (p.line - pool.base), p.data,
                      kCachelineSize);
          break;
        }
      }
    }
  }
  t_pending.clear();
}

}  // namespace internal

void TornWriteRegisterPool(void* base, size_t size) {
  std::lock_guard<std::mutex> lock(g_mu);
  PoolShadow p;
  p.base = static_cast<char*>(base);
  p.size = size;
  if (internal::g_torn_write_tracking.load(std::memory_order_relaxed)) {
    // A pool mapped while armed (e.g., a shard created mid-test) starts
    // from its current — fully durable — image.
    p.shadow = std::make_unique<char[]>(size);
    std::memcpy(p.shadow.get(), base, size);
  }
  Pools().push_back(std::move(p));
}

void TornWriteUnregisterPool(void* base) {
  std::lock_guard<std::mutex> lock(g_mu);
  auto& pools = Pools();
  for (size_t i = 0; i < pools.size(); ++i) {
    if (pools[i].base == base) {
      pools.erase(pools.begin() + static_cast<ptrdiff_t>(i));
      return;
    }
  }
}

bool TornWriteArm() {
  std::lock_guard<std::mutex> lock(g_mu);
  auto& pools = Pools();
  if (pools.empty()) return false;
  for (PoolShadow& p : pools) {
    p.shadow = std::make_unique<char[]>(p.size);
    std::memcpy(p.shadow.get(), p.base, p.size);
  }
  g_generation.fetch_add(1, std::memory_order_acq_rel);
  internal::g_torn_write_tracking.store(true, std::memory_order_release);
  return true;
}

size_t TornWriteRevert(double keep_probability, uint64_t seed) {
  internal::g_torn_write_tracking.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_mu);
  // splitmix64: one draw per unflushed line, in address order.
  uint64_t state = seed;
  auto keep = [&] {
    if (keep_probability <= 0.0) return false;
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * 0x1.0p-53 < keep_probability;
  };
  size_t reverted = 0;
  for (PoolShadow& p : Pools()) {
    if (p.shadow == nullptr) continue;
    for (size_t off = 0; off < p.size; off += kCachelineSize) {
      if (std::memcmp(p.base + off, p.shadow.get() + off, kCachelineSize) !=
              0 &&
          !keep()) {
        std::memcpy(p.base + off, p.shadow.get() + off, kCachelineSize);
        ++reverted;
      }
    }
    p.shadow.reset();
  }
  t_pending.clear();
  return reverted;
}

void TornWriteDisarm() {
  internal::g_torn_write_tracking.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_mu);
  for (PoolShadow& p : Pools()) p.shadow.reset();
  t_pending.clear();
}

bool TornWriteArmed() {
  return internal::g_torn_write_tracking.load(std::memory_order_acquire);
}

}  // namespace dash::pmem
