#include <algorithm>
#include <concepts>
#include <cstring>

#include "api/kv_index.h"
#include "cceh/cceh.h"
#include "dash/dash_eh.h"
#include "dash/dash_lh.h"
#include "hybrid/hybrid_table.h"
#include "level/level_hashing.h"
#include "pmem/allocator.h"

namespace dash::api {

namespace {

// Maps the shared structural options onto baseline parameters so all four
// tables start with comparable capacity.
cceh::CcehOptions ToCcehOptions(const DashOptions& o) {
  cceh::CcehOptions c;
  // Match total segment bytes: Dash 64 x 256 B buckets == CCEH 256 x 64 B.
  c.buckets_per_segment = o.buckets_per_segment * 4;
  c.initial_depth = o.initial_depth;
  return c;
}

level::LevelOptions ToLevelOptions(const DashOptions& o) {
  level::LevelOptions l;
  // Match initial slot capacity roughly: segments * buckets * 14 slots over
  // 7-slot 128-byte buckets.
  const uint64_t slots = (1ull << o.initial_depth) *
                         static_cast<uint64_t>(o.buckets_per_segment) * 14;
  uint64_t buckets = 16;
  while (buckets * level::kSlotsPerBucket * 3 / 2 < slots) buckets *= 2;
  l.initial_top_buckets = buckets;
  return l;
}

hybrid::HybridOptions ToHybridOptions(const DashOptions& o) {
  hybrid::HybridOptions h;
  // Match capacity with Dash-EH at the same option set: Dash's 64-bucket
  // segment holds 64 x 14 + stash slots; the hybrid 8-slot DRAM buckets
  // get the same bucket count plus a flat stash array.
  h.buckets_per_segment = o.buckets_per_segment;
  h.stash_slots = o.stash_buckets * 8;
  h.initial_depth = o.initial_depth;
  h.checkpoint_path = o.checkpoint_path;
  h.rebuild_threads = o.rebuild_threads;
  h.compaction_trigger = o.compaction_trigger;
  return h;
}

// Batch processing window of the adapter layer: bounds the stack arrays
// used for reserved-key compaction and mixed-op type partitioning, and is
// the reordering window MultiExecute documents. A multiple of the tables'
// prefetch group width so chunking never truncates a pipeline group.
constexpr size_t kAdapterChunk = 256;

// The one BasicKvIndex implementation: forwards every entry point to a
// table's native single-op and batch paths, adding the reserved-key
// checks and the OpStatus -> Status mapping.
template <typename Table, IndexKind Kind, typename Key>
class IndexAdapter : public BasicKvIndex<Key> {
 public:
  using OpDesc = BasicOp<Key>;

  template <typename Options>
  IndexAdapter(pmem::PmPool* pool, epoch::EpochManager* epochs,
               const Options& options)
      : pool_(pool), table_(pool, epochs, options) {}

  Status Insert(Key key, uint64_t value) override {
    if (IsReservedKey(key)) return Status::kInvalidArgument;
    return FromOpStatus(table_.Insert(key, value));
  }
  Status Search(Key key, uint64_t* value) override {
    if (IsReservedKey(key)) return Status::kInvalidArgument;
    return FromOpStatus(table_.Search(key, value));
  }
  Status Update(Key key, uint64_t value) override {
    if (IsReservedKey(key)) return Status::kInvalidArgument;
    return FromOpStatus(table_.Update(key, value));
  }
  Status Delete(Key key) override {
    if (IsReservedKey(key)) return Status::kInvalidArgument;
    return FromOpStatus(table_.Delete(key));
  }

  // Batch entry points: forward to the table's batch engine. Reserved
  // keys are compacted out per chunk (they get kInvalidArgument and never
  // reach the table); the common no-reserved-key chunk dispatches on the
  // caller's arrays with zero copying. ForEachValidChunk owns that
  // protocol; each entry point only supplies the table call and how to
  // scatter value outputs.

  void MultiSearch(const Key* keys, size_t count, uint64_t* values,
                   Status* statuses) override {
    ForEachValidChunk(
        keys, count, statuses,
        [&](const Key* k, const uint32_t* idx, size_t n, size_t base) {
          OpStatus raw[kAdapterChunk];
          if (idx == nullptr) {
            table_.MultiSearch(k, n, values + base, raw);
            ConvertStatuses(raw, n, statuses + base);
          } else {
            uint64_t cvals[kAdapterChunk];
            table_.MultiSearch(k, n, cvals, raw);
            for (size_t j = 0; j < n; ++j) {
              statuses[base + idx[j]] = FromOpStatus(raw[j]);
              if (raw[j] == OpStatus::kOk) values[base + idx[j]] = cvals[j];
            }
          }
        });
  }

  void MultiInsert(const Key* keys, const uint64_t* values, size_t count,
                   Status* statuses) override {
    MultiWrite(keys, values, count, statuses, [this](const Key* k,
                                                     const uint64_t* v,
                                                     size_t n, OpStatus* out) {
      table_.MultiInsert(k, v, n, out);
    });
  }

  void MultiUpdate(const Key* keys, const uint64_t* values, size_t count,
                   Status* statuses) override {
    MultiWrite(keys, values, count, statuses, [this](const Key* k,
                                                     const uint64_t* v,
                                                     size_t n, OpStatus* out) {
      table_.MultiUpdate(k, v, n, out);
    });
  }

  void MultiDelete(const Key* keys, size_t count,
                   Status* statuses) override {
    ForEachValidChunk(
        keys, count, statuses,
        [&](const Key* k, const uint32_t* idx, size_t n, size_t base) {
          OpStatus raw[kAdapterChunk];
          table_.MultiDelete(k, n, raw);
          if (idx == nullptr) {
            ConvertStatuses(raw, n, statuses + base);
          } else {
            for (size_t j = 0; j < n; ++j) {
              statuses[base + idx[j]] = FromOpStatus(raw[j]);
            }
          }
        });
  }

  // Mixed-operation batch (API v2 tentpole): each chunk is stably
  // partitioned by op type and every type group runs through the table's
  // batch engine, so a heterogeneous batch gets the same
  // prefetch overlap as four homogeneous ones. Results are scattered back
  // to the caller's descriptor order.
  void MultiExecute(OpDesc* ops, size_t count, Status* statuses) override {
    for (size_t base = 0; base < count; base += kAdapterChunk) {
      const size_t n = std::min(kAdapterChunk, count - base);
      ExecuteChunk(ops + base, n, statuses + base);
    }
  }

  void PrefetchBatch(const Key* keys, size_t count,
                     bool for_write) override {
    table_.PrefetchBatch(keys, count, for_write);
  }

  bool Verify() override { return table_.VerifyStructure(); }

  bool WriteCheckpoint() override {
    if constexpr (requires(Table& t) {
                    { t.WriteCheckpoint() } -> std::same_as<bool>;
                  }) {
      return table_.WriteCheckpoint();
    } else {
      return false;  // PM-native index: restart is already a load
    }
  }

  bool Compact() override {
    if constexpr (requires(Table& t) {
                    { t.Compact() } -> std::same_as<bool>;
                  }) {
      return table_.Compact();
    } else {
      return false;  // PM-native index: no value log to compact
    }
  }

  void CloseClean() override { table_.CloseClean(); }
  IndexStats Stats() override {
    const auto s = table_.Stats();
    IndexStats out;
    out.records = s.records;
    out.capacity_slots = s.capacity_slots;
    out.load_factor = s.load_factor;
    out.bytes_used = pool_->allocator().bytes_in_use();
    out.pool_page_bytes = pool_->MappedPageBytes();
    // Optimistic read-path telemetry, where the table reports it (CCEH
    // and Level; the Dash tables predate the counters).
    if constexpr (requires { s.opt_retries; }) {
      out.opt_retries = s.opt_retries;
      out.version_conflicts = s.version_conflicts;
      out.write_locks = s.write_locks;
    }
    // Bucket-lock write-path telemetry (Dash tables only).
    if constexpr (requires { s.bucket_lock_acquisitions; }) {
      out.bucket_lock_acquisitions = s.bucket_lock_acquisitions;
      out.bucket_lock_contended_spins = s.bucket_lock_contended_spins;
    }
    // Recovery provenance (hybrid; PM-native tables keep the kNative
    // default — their structure never left PM).
    if constexpr (requires { s.recovery_source; }) {
      out.recovery_source = s.recovery_source;
      out.recovery_replayed = s.recovery_replayed;
      out.recovery_staleness = s.recovery_staleness;
    }
    // Log-compaction telemetry (hybrid only).
    if constexpr (requires { s.compactions; }) {
      out.log_dead_slots = s.log_dead_slots;
      out.compaction_dead_ratio = s.compaction_dead_ratio;
      out.compactions = s.compactions;
      out.compaction_chunks_reclaimed = s.compaction_chunks_reclaimed;
      out.compaction_bytes_rewritten = s.compaction_bytes_rewritten;
      out.log_chunks = s.log_chunks;
      out.log_chunk_bytes = s.log_chunk_bytes;
    }
    return out;
  }
  IndexKind kind() const override { return Kind; }

  Table& table() { return table_; }

 private:
  // Writes kInvalidArgument for reserved slots and records the original
  // position of every valid slot in `idx`; returns the valid count.
  static size_t CompactReserved(const Key* keys, size_t n, Status* statuses,
                                uint32_t* idx) {
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      if (IsReservedKey(keys[i])) {
        statuses[i] = Status::kInvalidArgument;
      } else {
        idx[m++] = static_cast<uint32_t>(i);
      }
    }
    return m;
  }

  static void ConvertStatuses(const OpStatus* raw, size_t n,
                              Status* statuses) {
    for (size_t i = 0; i < n; ++i) statuses[i] = FromOpStatus(raw[i]);
  }

  // Chunking + reserved-key compaction protocol shared by every Multi*
  // entry point. `run(keys, idx, n, base)` executes n valid ops: when
  // `idx` is null they are the caller's slots [base, base + n) in order
  // (zero-copy fast path); otherwise op j corresponds to caller slot
  // base + idx[j] and `keys` is the compacted key array. `run` writes the
  // converted statuses (and any values) for those slots itself.
  template <typename Run>
  void ForEachValidChunk(const Key* keys, size_t count, Status* statuses,
                         Run run) {
    uint32_t idx[kAdapterChunk];
    for (size_t base = 0; base < count; base += kAdapterChunk) {
      const size_t n = std::min(kAdapterChunk, count - base);
      const size_t m = CompactReserved(keys + base, n, statuses + base, idx);
      if (m == n) {
        run(keys + base, nullptr, n, base);
      } else if (m > 0) {
        Key ckeys[kAdapterChunk];
        for (size_t j = 0; j < m; ++j) ckeys[j] = keys[base + idx[j]];
        run(ckeys, idx, m, base);
      }
    }
  }

  // Key+value write batches on top of ForEachValidChunk (the values are
  // gathered alongside the compacted keys).
  template <typename Dispatch>
  void MultiWrite(const Key* keys, const uint64_t* values, size_t count,
                  Status* statuses, Dispatch dispatch) {
    ForEachValidChunk(
        keys, count, statuses,
        [&](const Key* k, const uint32_t* idx, size_t n, size_t base) {
          OpStatus raw[kAdapterChunk];
          if (idx == nullptr) {
            dispatch(k, values + base, n, raw);
            ConvertStatuses(raw, n, statuses + base);
          } else {
            uint64_t cvals[kAdapterChunk];
            for (size_t j = 0; j < n; ++j) cvals[j] = values[base + idx[j]];
            dispatch(k, cvals, n, raw);
            for (size_t j = 0; j < n; ++j) {
              statuses[base + idx[j]] = FromOpStatus(raw[j]);
            }
          }
        });
  }

  // One bounded chunk of a mixed batch: stable type partition, one table
  // batch call per type group, scatter in caller order.
  void ExecuteChunk(OpDesc* ops, size_t n, Status* statuses) {
    uint32_t groups[4][kAdapterChunk];
    size_t sizes[4] = {0, 0, 0, 0};
    for (size_t i = 0; i < n; ++i) {
      const auto t = static_cast<size_t>(ops[i].type);
      if (t > static_cast<size_t>(OpType::kDelete) ||
          IsReservedKey(ops[i].key)) {
        statuses[i] = Status::kInvalidArgument;
        continue;
      }
      groups[t][sizes[t]++] = static_cast<uint32_t>(i);
    }

    Key keys[kAdapterChunk];
    uint64_t vals[kAdapterChunk];
    OpStatus raw[kAdapterChunk];

    // Type groups run in OpType declaration order.
    for (size_t t = 0; t < 4; ++t) {
      const uint32_t* idx = groups[t];
      const size_t m = sizes[t];
      if (m == 0) continue;
      for (size_t j = 0; j < m; ++j) keys[j] = ops[idx[j]].key;
      switch (static_cast<OpType>(t)) {
        case OpType::kSearch:
          table_.MultiSearch(keys, m, vals, raw);
          for (size_t j = 0; j < m; ++j) {
            statuses[idx[j]] = FromOpStatus(raw[j]);
            if (raw[j] == OpStatus::kOk) ops[idx[j]].value = vals[j];
          }
          break;
        case OpType::kInsert:
          for (size_t j = 0; j < m; ++j) vals[j] = ops[idx[j]].value;
          table_.MultiInsert(keys, vals, m, raw);
          for (size_t j = 0; j < m; ++j) {
            statuses[idx[j]] = FromOpStatus(raw[j]);
          }
          break;
        case OpType::kUpdate:
          for (size_t j = 0; j < m; ++j) vals[j] = ops[idx[j]].value;
          table_.MultiUpdate(keys, vals, m, raw);
          for (size_t j = 0; j < m; ++j) {
            statuses[idx[j]] = FromOpStatus(raw[j]);
          }
          break;
        case OpType::kDelete:
          table_.MultiDelete(keys, m, raw);
          for (size_t j = 0; j < m; ++j) {
            statuses[idx[j]] = FromOpStatus(raw[j]);
          }
          break;
      }
    }
  }

  pmem::PmPool* pool_;
  Table table_;
};

template <typename KP, typename Key = typename KP::KeyArg>
std::unique_ptr<BasicKvIndex<Key>> Make(IndexKind kind, pmem::PmPool* pool,
                                        epoch::EpochManager* epochs,
                                        const DashOptions& options) {
  switch (kind) {
    case IndexKind::kDashEH:
      return std::make_unique<
          IndexAdapter<DashEH<KP>, IndexKind::kDashEH, Key>>(pool, epochs,
                                                             options);
    case IndexKind::kDashLH:
      return std::make_unique<
          IndexAdapter<DashLH<KP>, IndexKind::kDashLH, Key>>(pool, epochs,
                                                             options);
    case IndexKind::kCCEH:
      return std::make_unique<
          IndexAdapter<cceh::CCEH<KP>, IndexKind::kCCEH, Key>>(
          pool, epochs, ToCcehOptions(options));
    case IndexKind::kLevel:
      return std::make_unique<
          IndexAdapter<level::LevelHashing<KP>, IndexKind::kLevel, Key>>(
          pool, epochs, ToLevelOptions(options));
    case IndexKind::kHybrid:
      return std::make_unique<
          IndexAdapter<hybrid::HybridTable<KP>, IndexKind::kHybrid, Key>>(
          pool, epochs, ToHybridOptions(options));
  }
  return nullptr;
}

}  // namespace

const char* IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kDashEH: return "dash-eh";
    case IndexKind::kDashLH: return "dash-lh";
    case IndexKind::kCCEH: return "cceh";
    case IndexKind::kLevel: return "level";
    case IndexKind::kHybrid: return "hybrid";
  }
  return "unknown";
}

bool ParseIndexKind(std::string_view name, IndexKind* kind) {
  if (name == "dash-eh") {
    *kind = IndexKind::kDashEH;
  } else if (name == "dash-lh") {
    *kind = IndexKind::kDashLH;
  } else if (name == "cceh") {
    *kind = IndexKind::kCCEH;
  } else if (name == "level") {
    *kind = IndexKind::kLevel;
  } else if (name == "hybrid") {
    *kind = IndexKind::kHybrid;
  } else {
    return false;
  }
  return true;
}

std::unique_ptr<KvIndex> CreateKvIndex(IndexKind kind, pmem::PmPool* pool,
                                       epoch::EpochManager* epochs,
                                       const DashOptions& options) {
  return Make<IntKeyPolicy>(kind, pool, epochs, options);
}

std::unique_ptr<VarKvIndex> CreateVarKvIndex(IndexKind kind,
                                             pmem::PmPool* pool,
                                             epoch::EpochManager* epochs,
                                             const DashOptions& options) {
  return Make<VarKeyPolicy>(kind, pool, epochs, options);
}

}  // namespace dash::api
