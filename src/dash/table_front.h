// The front end every table shares: the single-op entry points, the Multi*
// batch entry points, PrefetchBatch and the fixed-schedule write engine,
// written once as a CRTP base over what each table owns — its per-op
// bodies, its resolve-and-prefetch passes and its search engine:
//
//   OpStatus InsertWithHash(KeyArg, uint64_t value, uint64_t h);
//   OpStatus UpdateWithHash(KeyArg, uint64_t value, uint64_t h);
//   OpStatus SearchWithHash(KeyArg, uint64_t h, uint64_t* out);
//   OpStatus DeleteWithHash(KeyArg, uint64_t h);
//   void PrefetchGroup(const KeyArg*, size_t n, uint64_t* hashes,
//                      bool for_write);
//   void AmacMultiSearch(const KeyArg*, size_t, uint64_t*, OpStatus*);
//   epoch::EpochManager* epochs_;
//
// The per-op bodies run under an epoch guard the front end holds: one per
// single op, one per kBatchGroupWidth group of a write batch or of
// PrefetchBatch (AmacMultiSearch takes its own per group). PrefetchGroup
// hashes a group's keys into `hashes` and issues the table's prefetch
// passes; kPrefetchPasses says how many (two for the directory tables:
// directory entry, then segment header and buckets; one for Level, whose
// candidate buckets are pure arithmetic off the hash).

#ifndef DASH_PM_DASH_TABLE_FRONT_H_
#define DASH_PM_DASH_TABLE_FRONT_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "dash/op_status.h"
#include "epoch/epoch_manager.h"
#include "util/amac.h"

namespace dash {

template <typename Derived, typename KP, size_t kPrefetchPasses = 2>
class TableFront {
 public:
  using KeyArg = typename KP::KeyArg;

  // Insert returns kOk, kExists or kOutOfMemory; Update, Search and Delete
  // return kOk or kNotFound. Search stores the value in *out.
  OpStatus Insert(KeyArg key, uint64_t value) {
    const uint64_t h = KP::Hash(key);
    epoch::EpochManager::Guard guard(*self().epochs_);
    return self().InsertWithHash(key, value, h);
  }

  OpStatus Update(KeyArg key, uint64_t value) {
    const uint64_t h = KP::Hash(key);
    epoch::EpochManager::Guard guard(*self().epochs_);
    return self().UpdateWithHash(key, value, h);
  }

  OpStatus Search(KeyArg key, uint64_t* out) {
    const uint64_t h = KP::Hash(key);
    epoch::EpochManager::Guard guard(*self().epochs_);
    return self().SearchWithHash(key, h, out);
  }

  OpStatus Delete(KeyArg key) {
    const uint64_t h = KP::Hash(key);
    epoch::EpochManager::Guard guard(*self().epochs_);
    return self().DeleteWithHash(key, h);
  }

  // ---- batched operations ----
  //
  // Semantically a loop of the single-op calls. Searches run the table's
  // own state machines (util/amac.h); writes run the write engine below.

  void MultiSearch(const KeyArg* keys, size_t count, uint64_t* values,
                   OpStatus* statuses) {
    self().AmacMultiSearch(keys, count, values, statuses);
  }

  void MultiInsert(const KeyArg* keys, const uint64_t* values, size_t count,
                   OpStatus* statuses) {
    RunWrites(keys, count, [&](size_t i, KeyArg key, uint64_t h) {
      statuses[i] = self().InsertWithHash(key, values[i], h);
    });
  }

  void MultiUpdate(const KeyArg* keys, const uint64_t* values, size_t count,
                   OpStatus* statuses) {
    RunWrites(keys, count, [&](size_t i, KeyArg key, uint64_t h) {
      statuses[i] = self().UpdateWithHash(key, values[i], h);
    });
  }

  void MultiDelete(const KeyArg* keys, size_t count, OpStatus* statuses) {
    RunWrites(keys, count, [&](size_t i, KeyArg key, uint64_t h) {
      statuses[i] = self().DeleteWithHash(key, h);
    });
  }

  // Runs only the resolve-and-prefetch passes of the batch engine, warming
  // the lines the given keys will touch. A pure hint with no semantic
  // effect: ShardedStore uses it to overlap one shard's memory stalls with
  // another shard's execution.
  void PrefetchBatch(const KeyArg* keys, size_t count, bool for_write) {
    uint64_t hashes[util::kBatchGroupWidth];
    for (size_t base = 0; base < count; base += util::kBatchGroupWidth) {
      const size_t n = std::min(util::kBatchGroupWidth, count - base);
      epoch::EpochManager::Guard guard(*self().epochs_);
      self().PrefetchGroup(keys + base, n, hashes, for_write);
    }
  }

 private:
  Derived& self() { return static_cast<Derived&>(*this); }

  // Write engine: a fixed schedule. Every op takes the same resolution
  // steps (PrefetchGroup's passes, each issue overlapping the previous
  // ops' in-flight lines), and the op body, which takes locks and may run
  // an SMO, executes in one pass visit over warm lines (see the
  // suspension constraint in util/amac.h). The execute pass runs in index
  // order, which keeps the batch API's same-type ordering, and the bodies
  // revalidate on their own, so a view gone stale since the prefetch costs
  // one warm retry. One epoch guard per group amortizes the pin without
  // stalling reclamation for the whole (unbounded) batch.
  template <typename ExecFn>
  void RunWrites(const KeyArg* keys, size_t count, ExecFn exec) {
    util::AmacTelemetry& tele = util::AmacTelemetry::Local();
    uint64_t hashes[util::kBatchGroupWidth];
    for (size_t base = 0; base < count; base += util::kBatchGroupWidth) {
      const size_t n = std::min(util::kBatchGroupWidth, count - base);
      epoch::EpochManager::Guard guard(*self().epochs_);
      self().PrefetchGroup(keys + base, n, hashes, /*for_write=*/true);
      for (size_t i = 0; i < n; ++i) {
        exec(base + i, keys[base + i], hashes[i]);
      }
      tele.CountWriteGroup(n, kPrefetchPasses);
    }
  }
};

}  // namespace dash

#endif  // DASH_PM_DASH_TABLE_FRONT_H_
