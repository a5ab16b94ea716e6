#include "api/sharded_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "pmem/crash_point.h"
#include "util/hash.h"
#include "util/thread_id.h"

namespace dash::api {

namespace {

// Bounded submit backoff (AsyncOptions::submit_retries): the first retry
// waits kBackoffInitialUs, each later one twice as long, up to
// kBackoffCapUs.
constexpr uint64_t kBackoffInitialUs = 1;
constexpr uint64_t kBackoffCapUs = 1024;

// The shard count and table kind decide key routing, so they are written
// to a tiny manifest next to the pools *before* any pool is created and
// checked on every open — a mismatched configuration fails loudly
// instead of silently routing keys to the wrong shard, and a crash or
// partial failure mid-creation still leaves the manifest pinning the
// configuration the existing pool files were laid out with.
//
// Format (v2): "v2 <shards> <kind> <epoch> <checksum-hex>". The checksum
// covers every other field, so a torn write (crash mid-write on a
// filesystem that does not make small writes atomic) is detected and the
// open fails instead of trusting a half-written configuration. The file
// is replaced via write-to-temp + rename — after any crash the path holds
// either the complete old manifest or the complete new one. The epoch
// counts manifest rewrites (diagnostics). Legacy v1 manifests
// ("<shards> <kind>") are accepted and upgraded in place.

uint64_t ManifestChecksum(size_t shards, const std::string& kind_name,
                          uint64_t epoch) {
  uint64_t h = util::Mix64(0x9e3779b97f4a7c15ull ^ shards);
  h = util::Mix64(h ^ epoch);
  for (char c : kind_name) {
    h = util::Mix64(h ^ static_cast<unsigned char>(c));
  }
  return h;
}

bool WriteManifestV2(const std::string& path, size_t shards, IndexKind kind,
                     uint64_t epoch) {
  const std::string kind_name = IndexKindName(kind);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    out << "v2 " << shards << ' ' << kind_name << ' ' << epoch << ' '
        << std::hex << ManifestChecksum(shards, kind_name, epoch) << '\n';
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  CRASH_POINT("manifest_before_rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  CRASH_POINT("manifest_after_rename");
  return true;
}

// `wrote` reports whether this call created the manifest (vs found a
// matching one); a v1->v2 upgrade of an existing manifest does not count.
bool CheckOrWriteManifest(const ShardedStoreOptions& options, bool* wrote) {
  const std::string path = options.path_prefix + ".manifest";
  *wrote = false;
  // A crash between writing the temp file and the rename leaves a stray
  // .tmp; it was never authoritative — discard it.
  std::remove((path + ".tmp").c_str());
  std::ifstream in(path);
  if (in) {
    std::string first;
    in >> first;
    size_t shards = 0;
    std::string kind_name;
    bool upgrade_v1 = false;
    if (first == "v2") {
      uint64_t epoch = 0;
      std::string sum_hex;
      in >> shards >> kind_name >> epoch >> sum_hex;
      const uint64_t sum = std::strtoull(sum_hex.c_str(), nullptr, 16);
      if (!in || sum != ManifestChecksum(shards, kind_name, epoch)) {
        std::fprintf(stderr,
                     "ShardedStore::Open: manifest %s is torn or corrupt "
                     "(checksum mismatch); refusing to guess the shard "
                     "layout\n",
                     path.c_str());
        return false;
      }
    } else {
      // Legacy v1: "<shards> <kind>".
      char* end = nullptr;
      shards = std::strtoull(first.c_str(), &end, 10);
      in >> kind_name;
      if (first.empty() || end == nullptr || *end != '\0' || !in) {
        std::fprintf(stderr,
                     "ShardedStore::Open: manifest %s is unreadable\n",
                     path.c_str());
        return false;
      }
      upgrade_v1 = true;
    }
    IndexKind kind;
    if (shards != options.shards || !ParseIndexKind(kind_name, &kind) ||
        kind != options.kind) {
      std::fprintf(
          stderr,
          "ShardedStore::Open: %s was created with shards=%zu kind=%s; "
          "reopening with shards=%zu kind=%s would misroute keys\n",
          path.c_str(), shards, kind_name.c_str(), options.shards,
          IndexKindName(options.kind));
      return false;
    }
    if (upgrade_v1) {
      // Best-effort upgrade; a failure leaves the valid v1 file in place.
      WriteManifestV2(path, options.shards, options.kind, /*epoch=*/1);
    }
    return true;
  }
  if (!WriteManifestV2(path, options.shards, options.kind, /*epoch=*/1)) {
    return false;
  }
  *wrote = true;
  return true;
}

// Deterministic per-shard identity tag recorded in the pool header at
// creation: detects a `.shard<i>` file that was swapped, renamed, or
// restored from another store's backup — the keys inside would be ones
// that route to a *different* shard index, silently corrupting lookups.
// Never 0 (0 means "untagged" in the pool header).
uint64_t ShardTag(IndexKind kind, size_t shard) {
  const uint64_t h =
      util::Mix64(0x53686172644b5653ull ^
                  (static_cast<uint64_t>(kind) << 48) ^ shard);
  return h != 0 ? h : 1;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

}  // namespace

std::unique_ptr<ShardedStore> ShardedStore::Open(
    const ShardedStoreOptions& options) {
  if (options.shards == 0 || options.path_prefix.empty()) return nullptr;
  bool wrote_manifest = false;
  if (!CheckOrWriteManifest(options, &wrote_manifest)) return nullptr;
  std::unique_ptr<ShardedStore> store(new ShardedStore());
  store->options_ = options;
  store->shards_.resize(options.shards);
  store->gates_ = std::make_unique<ShardGate[]>(options.shards);
  store->quarantined_ =
      std::make_unique<std::atomic<bool>[]>(options.shards);
  for (size_t i = 0; i < options.shards; ++i) {
    store->quarantined_[i].store(false, std::memory_order_relaxed);
  }
  RecoveryReport& report = store->recovery_;
  report.shard_ms.assign(options.shards, 0.0);
  report.shard_source.assign(options.shards, "quarantined");
  report.shard_replayed.assign(options.shards, 0);
  report.shard_staleness.assign(options.shards, 0);

  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  const size_t threads =
      options.recovery_threads == 0
          ? std::min(options.shards, hw)
          : std::min(options.recovery_threads, options.shards);
  report.threads = threads;

  // Shared open-phase state; `mu` guards everything the workers mutate
  // except their own shard slot (each index is claimed exactly once via
  // the atomic cursor, so distinct workers write distinct slots).
  std::mutex mu;
  std::vector<std::string> created_paths;
  bool any_preexisting = false;
  std::atomic<size_t> next{0};
  std::atomic<bool> hard_fail{false};
  std::exception_ptr first_exception = nullptr;
  // One byte per shard: report.shard_recovered is a vector<bool>, whose
  // neighbouring elements share a word, so it is filled after the join.
  std::vector<uint8_t> recovered(options.shards, 0);

  // Opens shard i: pool (tagged), epochs, index, then — when the pool was
  // dirty — the structural verify. A pre-existing shard that fails any
  // step is quarantined (policy permitting); a shard that fails creation
  // hard-fails the whole open (there is no data to degrade around).
  auto open_one = [&](size_t i) {
    const auto t0 = std::chrono::steady_clock::now();
    Shard& shard = store->shards_[i];
    const std::string path =
        options.path_prefix + ".shard" + std::to_string(i);
    pmem::PmPool::Options pool_options;
    pool_options.pool_size = options.shard_pool_size;
    pool_options.app_tag = ShardTag(options.kind, i);
    bool created = false;
    shard.pool = pmem::PmPool::OpenOrCreate(path, pool_options, &created);
    const bool preexisting = shard.pool != nullptr ? !created
                                                   : FileExists(path);
    {
      std::lock_guard<std::mutex> lock(mu);
      if (created) created_paths.push_back(path);
      if (preexisting) any_preexisting = true;
    }
    // Quarantined shards still get an epoch manager: their executor
    // worker idles on it, and RecoverShard reuses it when re-admitting.
    shard.epochs = std::make_unique<epoch::EpochManager>();
    bool ok = shard.pool != nullptr;
    const char* reason = ok ? nullptr : "pool open failed";
    if (ok && preexisting &&
        shard.pool->app_tag() != pool_options.app_tag) {
      ok = false;
      reason = "identity tag mismatch (swapped or foreign pool file)";
    }
    if (ok) {
      recovered[i] = shard.pool->recovered_from_crash();
      shard.index = CreateKvIndex(options.kind, shard.pool.get(),
                                  shard.epochs.get(),
                                  store->ShardTableOptions(i));
      if (shard.index == nullptr) {
        ok = false;
        reason = "index attach failed";
      } else if (options.verify_on_open && recovered[i] != 0 &&
                 !shard.index->Verify()) {
        ok = false;
        reason = "post-recovery structural verify failed";
      } else {
        // Recovery provenance: did this shard's index come back from a
        // checkpoint, a full log scan, or was it already resident in PM?
        const IndexStats stats = shard.index->Stats();
        report.shard_source[i] = RecoverySourceName(stats.recovery_source);
        report.shard_replayed[i] = stats.recovery_replayed;
        report.shard_staleness[i] = stats.recovery_staleness;
      }
    }
    if (!ok) {
      if (preexisting && options.quarantine_failed_shards) {
        std::fprintf(stderr,
                     "ShardedStore::Open: quarantining shard %zu (%s): "
                     "%s\n",
                     i, path.c_str(), reason);
        shard.index.reset();
        shard.pool.reset();  // dirty close: keeps the recovery marker
        store->quarantined_[i].store(true, std::memory_order_release);
      } else {
        hard_fail.store(true, std::memory_order_release);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();
    report.shard_ms[i] =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
  };

  const auto open_t0 = std::chrono::steady_clock::now();
  auto worker = [&](bool spawned) {
    std::vector<size_t> opened;
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= options.shards) break;
      try {
        open_one(i);
        opened.push_back(i);
      } catch (...) {
        // Crash injection (or any other throw) mid-open: capture and
        // rethrow on the caller thread after the join — an exception
        // escaping a std::thread would terminate the process.
        std::lock_guard<std::mutex> lock(mu);
        if (first_exception == nullptr) {
          first_exception = std::current_exception();
        }
        hard_fail.store(true, std::memory_order_release);
      }
    }
    if (spawned) {
      // Table recovery may have pinned epochs under this thread's dense
      // id; hand the slots and the id back before the thread dies so
      // repeated opens cannot exhaust the id space.
      for (size_t i : opened) {
        if (store->shards_[i].epochs != nullptr) {
          store->shards_[i].epochs->ReleaseCurrentThreadSlot();
        }
      }
      util::ReleaseThreadId();
    }
  };
  if (threads <= 1) {
    worker(/*spawned=*/false);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      pool.emplace_back(worker, /*spawned=*/true);
    }
    for (auto& t : pool) t.join();
  }
  const auto open_t1 = std::chrono::steady_clock::now();
  report.total_ms =
      std::chrono::duration<double, std::milli>(open_t1 - open_t0).count();
  report.shard_recovered.assign(recovered.begin(), recovered.end());
  for (size_t i = 0; i < options.shards; ++i) {
    if (store->quarantined_[i].load(std::memory_order_acquire)) {
      report.quarantined.push_back(i);
    }
  }

  if (first_exception != nullptr) {
    // Injected crash: release the mappings but leave every file exactly
    // as the "power failure" left it — that on-disk state is what the
    // recovery tests reopen.
    store.reset();
    std::rethrow_exception(first_exception);
  }
  if (hard_fail.load(std::memory_order_acquire)) {
    // A failed *creation* (nothing pre-existed) must not leave a stray
    // manifest pinning an unusable configuration, nor half-laid-out pool
    // files that a later Open with a different kind would misinterpret.
    // With pre-existing pools, everything stays — the manifest correctly
    // keeps protecting whatever data they hold.
    store.reset();  // unmap before unlinking
    if (wrote_manifest && !any_preexisting) {
      for (const std::string& path : created_paths) {
        std::remove(path.c_str());
      }
      std::remove((options.path_prefix + ".manifest").c_str());
    }
    return nullptr;
  }
  if (options.async.workers &&
      !(options.shards == 1 && options.async.inline_single_shard)) {
    std::vector<ShardExecutor::ShardCtx> ctx;
    ctx.reserve(store->shards_.size());
    for (Shard& shard : store->shards_) {
      // Quarantined shards contribute a null index: nothing is ever
      // enqueued to them until RecoverShard swaps a live index in.
      ctx.push_back({shard.index.get(), shard.epochs.get()});
    }
    ExecutorOptions executor_options;
    executor_options.queue_depth = options.async.queue_depth;
    executor_options.pin_workers = options.async.pin_workers;
    executor_options.checkpoint_interval_ms = options.checkpoint_interval_ms;
    executor_options.compaction_interval_ms = options.compaction_interval_ms;
    store->executor_ =
        std::make_unique<ShardExecutor>(std::move(ctx), executor_options);
  }
  return store;
}

// Workers are joined first (executor_ is the last member), so by the time
// the shards are torn down no thread is executing on them.
ShardedStore::~ShardedStore() = default;

size_t ShardedStore::ShardOf(uint64_t key) const {
  // Second mix decorrelates shard routing from every hash-bit range the
  // tables themselves consume (see header).
  return util::Mix64(util::HashInt64(key)) % shards_.size();
}

Status ShardedStore::RecoverShard(size_t i) {
  if (i >= shards_.size()) return Status::kInvalidArgument;
  // close_mu_ serializes against CloseClean and other RecoverShard calls;
  // ops on other shards never touch it and keep serving.
  std::lock_guard<std::mutex> close_lock(close_mu_);
  if (!accepting_.load(std::memory_order_acquire)) {
    return Status::kInvalidArgument;
  }
  if (!quarantined_[i].load(std::memory_order_acquire)) return Status::kOk;
  // Exclusive gate: defensive — routing rejects quarantined shards, so no
  // op should be inside, but the gate makes the swap airtight.
  std::lock_guard<std::shared_mutex> gate(gates_[i].mu);
  Shard& shard = shards_[i];
  shard.index.reset();
  shard.pool.reset();
  const std::string path =
      options_.path_prefix + ".shard" + std::to_string(i);
  pmem::PmPool::Options pool_options;
  pool_options.pool_size = options_.shard_pool_size;
  pool_options.app_tag = ShardTag(options_.kind, i);
  bool created = false;
  auto pool = pmem::PmPool::OpenOrCreate(path, pool_options, &created);
  if (pool == nullptr) return Status::kUnavailable;
  if (!created && pool->app_tag() != pool_options.app_tag) {
    return Status::kUnavailable;  // dtor closes dirty
  }
  auto index = CreateKvIndex(options_.kind, pool.get(), shard.epochs.get(),
                             ShardTableOptions(i));
  // Always verify on re-admission — this shard already failed once.
  if (index == nullptr || !index->Verify()) return Status::kUnavailable;
  shard.pool = std::move(pool);
  shard.index = std::move(index);
  // Refresh this shard's provenance in the report (re-admission is a
  // recovery of its own).
  const IndexStats stats = shard.index->Stats();
  recovery_.shard_source[i] = RecoverySourceName(stats.recovery_source);
  recovery_.shard_replayed[i] = stats.recovery_replayed;
  recovery_.shard_staleness[i] = stats.recovery_staleness;
  if (executor_ != nullptr) executor_->SetIndex(i, shard.index.get());
  quarantined_[i].store(false, std::memory_order_release);
  return Status::kOk;
}

// Single ops hold their own shard's close gate shared for the duration of
// the probe: a CloseClean racing the call waits until the probe is off the
// shard instead of unmapping under it, and the op never touches another
// shard's gate cacheline (the PR-3 store-wide gate made every op on every
// core contend on one shared line).
template <typename Fn>
Status ShardedStore::RunSingle(uint64_t key, Fn fn) {
  if (IsReservedKey(key)) return Status::kInvalidArgument;
  const size_t s = ShardOf(key);
  std::shared_lock<std::shared_mutex> gate(gates_[s].mu);
  if (!accepting_.load(std::memory_order_acquire)) {
    return Status::kInvalidArgument;
  }
  if (quarantined_[s].load(std::memory_order_acquire)) {
    return Status::kUnavailable;
  }
  return fn(*shards_[s].index);
}

Status ShardedStore::Insert(uint64_t key, uint64_t value) {
  return RunSingle(key,
                   [&](KvIndex& index) { return index.Insert(key, value); });
}

Status ShardedStore::Search(uint64_t key, uint64_t* value) {
  return RunSingle(key,
                   [&](KvIndex& index) { return index.Search(key, value); });
}

Status ShardedStore::Update(uint64_t key, uint64_t value) {
  return RunSingle(key,
                   [&](KvIndex& index) { return index.Update(key, value); });
}

Status ShardedStore::Delete(uint64_t key) {
  return RunSingle(key, [&](KvIndex& index) { return index.Delete(key); });
}

namespace {
// Serving batches are typically small; below this size the scatter uses
// stack scratch instead of heap vectors (the allocations would otherwise
// rival the cost of a 16-op batch).
constexpr size_t kStackBatch = 256;
constexpr size_t kMaxShardsOnStack = 64;
}  // namespace

// ---- asynchronous submission ----

template <typename KeyAt, typename MakeOp, typename RunDirect>
BatchFuture ShardedStore::SubmitScattered(
    std::shared_ptr<internal::BatchState> state, size_t count, KeyAt key_at,
    MakeOp make_op, RunDirect run_direct) {
  const size_t num_shards = shards_.size();
  const auto reject = [&state, count] {
    state->submit_status = Status::kInvalidArgument;
    // The scatter may have primed the shard-completion count already;
    // nothing will ever be enqueued, so the future must be born ready.
    state->pending.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < count; ++i) {
      state->statuses[i] = Status::kInvalidArgument;
    }
    return BatchFuture(std::move(state));
  };
  // Fast-path check; the authoritative re-check happens under the gates.
  if (!accepting_.load(std::memory_order_acquire)) return reject();
  if (count == 0) return BatchFuture(std::move(state));

  if (executor_ == nullptr && num_shards == 1) {
    // Inline single-shard fast path: no scatter state, no copies — run
    // the shard's native batch entry point straight off the caller's
    // arrays; the future is born ready.
    std::shared_lock<std::shared_mutex> gate(gates_[0].mu);
    if (!accepting_.load(std::memory_order_acquire)) return reject();
    if (quarantined_[0].load(std::memory_order_acquire)) {
      for (size_t i = 0; i < count; ++i) {
        state->statuses[i] = Status::kUnavailable;
      }
      return BatchFuture(std::move(state));
    }
    run_direct(shards_[0].index.get());
    return BatchFuture(std::move(state));
  }

  uint32_t stack_shard_of[kStackBatch];
  size_t stack_cursor[kMaxShardsOnStack];
  std::vector<uint32_t> heap_shard_of;
  std::vector<size_t> heap_cursor;
  uint32_t* shard_of = stack_shard_of;
  size_t* cursor = stack_cursor;
  if (count > kStackBatch || num_shards > kMaxShardsOnStack) {
    heap_shard_of.resize(count);
    heap_cursor.resize(num_shards);
    shard_of = heap_shard_of.data();
    cursor = heap_cursor.data();
  }
  PlanScatter(count, key_at, shard_of, state->start, cursor,
              state->origin);
  for (size_t j = 0; j < count; ++j) {
    state->sub[j] = make_op(state->origin[j]);
  }

  // Hold the touched shards' gates across the whole enqueue so the batch
  // is never half-enqueued across a shutdown: a CloseClean that flipped
  // `accepting_` blocks on the first touched gate until every sub-batch
  // is in its queue (the executor drain then completes them all).
  GateSpan gates;
  gates.LockTouched(gates_.get(), state->start, num_shards);
  if (!accepting_.load(std::memory_order_acquire)) return reject();

  // Only after the gated accept: a rejected batch must stay at pending
  // == 0 so its future is born ready. Slots routed to a quarantined
  // shard complete right here with kUnavailable (the future has not been
  // handed out yet) and the shard is excluded from the pending count.
  // `cursor` is dead after PlanScatter; reuse it as the skip marker so
  // the decision is stable across the enqueue loop even if the shard is
  // re-admitted concurrently.
  uint32_t touched = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    cursor[s] = 0;
    if (state->start[s + 1] == state->start[s]) continue;
    if (quarantined_[s].load(std::memory_order_acquire)) {
      for (size_t j = state->start[s]; j < state->start[s + 1]; ++j) {
        state->statuses[state->origin[j]] = Status::kUnavailable;
      }
      cursor[s] = 1;
      continue;
    }
    ++touched;
  }
  state->pending.store(touched, std::memory_order_relaxed);

  BatchFuture future(state);
  const size_t retries = options_.async.submit_retries;
  for (size_t s = 0; s < num_shards; ++s) {
    if (state->start[s + 1] == state->start[s]) continue;
    if (cursor[s] != 0) continue;  // quarantined, completed above
    if (executor_ != nullptr) {
      if (retries == 0) {
        ShardExecutor::WorkItem item;
        item.kind = ShardExecutor::WorkItem::Kind::kBatch;
        item.shard = static_cast<uint32_t>(s);
        item.batch = state;
        if (executor_->Submit(std::move(item))) continue;
        // The executor only refuses after Stop(), which the gates rule
        // out here; complete inline defensively all the same.
      } else {
        // Bounded backoff-and-retry instead of blocking on a full queue:
        // the submitter sleeps (exponential, capped) between attempts
        // and, once the retries are exhausted, fails the shard's slots
        // with kUnavailable so an overloaded shard sheds load instead of
        // stalling every client. Sleeping holds the touched gates shared
        // — CloseClean waits at most the bounded backoff total.
        auto result = ShardExecutor::SubmitResult::kFull;
        uint64_t delay_us = kBackoffInitialUs;
        for (size_t attempt = 0; attempt <= retries; ++attempt) {
          ShardExecutor::WorkItem item;  // rebuilt: moved-from on failure
          item.kind = ShardExecutor::WorkItem::Kind::kBatch;
          item.shard = static_cast<uint32_t>(s);
          item.batch = state;
          result = executor_->TrySubmit(std::move(item));
          if (result != ShardExecutor::SubmitResult::kFull) break;
          if (attempt == retries) break;
          std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
          delay_us = std::min(delay_us * 2, kBackoffCapUs);
        }
        if (result == ShardExecutor::SubmitResult::kQueued) continue;
        if (result == ShardExecutor::SubmitResult::kFull) {
          state->FailShard(s, Status::kUnavailable);
          continue;
        }
        // kStopped: defensive inline fallback below.
      }
    }
    state->RunShard(s, shards_[s].index.get());
  }
  return future;
}

namespace {
// Stamps the optional per-submit deadline before the batch reaches any
// queue; workers check it at dequeue time (see executor.cc).
void StampDeadline(internal::BatchState* state,
                   const SubmitOptions& submit) {
  if (submit.deadline.count() > 0) {
    state->has_deadline = true;
    state->deadline = std::chrono::steady_clock::now() + submit.deadline;
  }
}
}  // namespace

BatchFuture ShardedStore::SubmitExecute(Op* ops, size_t count,
                                        Status* statuses,
                                        const SubmitOptions& submit) {
  auto state = internal::BatchState::Make(count, shards_.size());
  state->statuses = statuses;
  state->caller_ops = ops;
  StampDeadline(state.get(), submit);
  return SubmitScattered(
      std::move(state), count, [ops](size_t i) { return ops[i].key; },
      [ops](size_t i) { return ops[i]; },
      [=](KvIndex* index) { index->MultiExecute(ops, count, statuses); });
}

BatchFuture ShardedStore::SubmitSearch(const uint64_t* keys, size_t count,
                                       uint64_t* values, Status* statuses,
                                       const SubmitOptions& submit) {
  auto state = internal::BatchState::Make(count, shards_.size());
  state->statuses = statuses;
  state->values_out = values;
  StampDeadline(state.get(), submit);
  return SubmitScattered(
      std::move(state), count, [keys](size_t i) { return keys[i]; },
      [keys](size_t i) { return Op::Search(keys[i]); },
      [=](KvIndex* index) {
        index->MultiSearch(keys, count, values, statuses);
      });
}

BatchFuture ShardedStore::SubmitInsert(const uint64_t* keys,
                                       const uint64_t* values, size_t count,
                                       Status* statuses,
                                       const SubmitOptions& submit) {
  auto state = internal::BatchState::Make(count, shards_.size());
  state->statuses = statuses;
  StampDeadline(state.get(), submit);
  return SubmitScattered(
      std::move(state), count, [keys](size_t i) { return keys[i]; },
      [keys, values](size_t i) { return Op::Insert(keys[i], values[i]); },
      [=](KvIndex* index) {
        index->MultiInsert(keys, values, count, statuses);
      });
}

BatchFuture ShardedStore::SubmitUpdate(const uint64_t* keys,
                                       const uint64_t* values, size_t count,
                                       Status* statuses,
                                       const SubmitOptions& submit) {
  auto state = internal::BatchState::Make(count, shards_.size());
  state->statuses = statuses;
  StampDeadline(state.get(), submit);
  return SubmitScattered(
      std::move(state), count, [keys](size_t i) { return keys[i]; },
      [keys, values](size_t i) { return Op::Update(keys[i], values[i]); },
      [=](KvIndex* index) {
        index->MultiUpdate(keys, values, count, statuses);
      });
}

BatchFuture ShardedStore::SubmitDelete(const uint64_t* keys, size_t count,
                                       Status* statuses,
                                       const SubmitOptions& submit) {
  auto state = internal::BatchState::Make(count, shards_.size());
  state->statuses = statuses;
  StampDeadline(state.get(), submit);
  return SubmitScattered(
      std::move(state), count, [keys](size_t i) { return keys[i]; },
      [keys](size_t i) { return Op::Delete(keys[i]); },
      [=](KvIndex* index) { index->MultiDelete(keys, count, statuses); });
}

// ---- synchronous wrappers ----

void ShardedStore::MultiSearch(const uint64_t* keys, size_t count,
                               uint64_t* values, Status* statuses) {
  if (executor_ != nullptr) {
    SubmitSearch(keys, count, values, statuses).Wait();
    return;
  }
  if (RejectClosed(statuses, count)) return;
  MultiUniform(BatchKind::kSearch, keys, nullptr, values, count, statuses);
}

void ShardedStore::MultiInsert(const uint64_t* keys, const uint64_t* values,
                               size_t count, Status* statuses) {
  if (executor_ != nullptr) {
    SubmitInsert(keys, values, count, statuses).Wait();
    return;
  }
  if (RejectClosed(statuses, count)) return;
  MultiUniform(BatchKind::kInsert, keys, values, nullptr, count, statuses);
}

void ShardedStore::MultiUpdate(const uint64_t* keys, const uint64_t* values,
                               size_t count, Status* statuses) {
  if (executor_ != nullptr) {
    SubmitUpdate(keys, values, count, statuses).Wait();
    return;
  }
  if (RejectClosed(statuses, count)) return;
  MultiUniform(BatchKind::kUpdate, keys, values, nullptr, count, statuses);
}

void ShardedStore::MultiDelete(const uint64_t* keys, size_t count,
                               Status* statuses) {
  if (executor_ != nullptr) {
    SubmitDelete(keys, count, statuses).Wait();
    return;
  }
  if (RejectClosed(statuses, count)) return;
  MultiUniform(BatchKind::kDelete, keys, nullptr, nullptr, count, statuses);
}

void ShardedStore::MultiExecute(Op* ops, size_t count, Status* statuses) {
  if (executor_ != nullptr) {
    SubmitExecute(ops, count, statuses).Wait();
    return;
  }
  if (RejectClosed(statuses, count)) return;
  const size_t num_shards = shards_.size();
  if (num_shards == 1) {
    std::shared_lock<std::shared_mutex> gate(gates_[0].mu);
    if (RejectClosed(statuses, count)) return;
    if (quarantined_[0].load(std::memory_order_acquire)) {
      for (size_t i = 0; i < count; ++i) {
        statuses[i] = Status::kUnavailable;
      }
      return;
    }
    shards_[0].index->MultiExecute(ops, count, statuses);
    return;
  }
  if (count <= kStackBatch && num_shards <= kMaxShardsOnStack) {
    uint32_t shard_of[kStackBatch];
    size_t start[kMaxShardsOnStack + 1];
    uint32_t origin[kStackBatch];
    Op sub[kStackBatch];
    Status sub_status[kStackBatch];
    size_t cursor[kMaxShardsOnStack];
    ExecuteScattered(ops, count, statuses, shard_of, start, origin, sub,
                     sub_status, cursor);
    return;
  }
  std::vector<uint32_t> shard_of(count);
  std::vector<size_t> start(num_shards + 1);
  std::vector<uint32_t> origin(count);
  std::vector<Op> sub(count);
  std::vector<Status> sub_status(count);
  std::vector<size_t> cursor(num_shards);
  ExecuteScattered(ops, count, statuses, shard_of.data(), start.data(),
                   origin.data(), sub.data(), sub_status.data(),
                   cursor.data());
}

// ---- sequential (inline) execution paths ----

void ShardedStore::MultiUniform(BatchKind kind, const uint64_t* keys,
                                const uint64_t* values_in,
                                uint64_t* values_out, size_t count,
                                Status* statuses) {
  const size_t num_shards = shards_.size();
  if (num_shards == 1) {
    std::shared_lock<std::shared_mutex> gate(gates_[0].mu);
    if (RejectClosed(statuses, count)) return;
    if (quarantined_[0].load(std::memory_order_acquire)) {
      for (size_t i = 0; i < count; ++i) {
        statuses[i] = Status::kUnavailable;
      }
      return;
    }
    KvIndex* first = shards_[0].index.get();
    switch (kind) {
      case BatchKind::kSearch:
        first->MultiSearch(keys, count, values_out, statuses);
        return;
      case BatchKind::kInsert:
        first->MultiInsert(keys, values_in, count, statuses);
        return;
      case BatchKind::kUpdate:
        first->MultiUpdate(keys, values_in, count, statuses);
        return;
      case BatchKind::kDelete:
        first->MultiDelete(keys, count, statuses);
        return;
    }
  }

  // Scratch: stack for serving-sized batches, heap beyond.
  uint32_t stack_shard_of[kStackBatch];
  size_t stack_start[kMaxShardsOnStack + 1];
  uint32_t stack_origin[kStackBatch];
  uint64_t stack_keys[kStackBatch];
  uint64_t stack_vals[kStackBatch];
  Status stack_status[kStackBatch];
  size_t stack_cursor[kMaxShardsOnStack];
  std::vector<uint32_t> heap_shard_of, heap_origin;
  std::vector<size_t> heap_start, heap_cursor;
  std::vector<uint64_t> heap_keys, heap_vals;
  std::vector<Status> heap_status;
  const bool on_stack =
      count <= kStackBatch && num_shards <= kMaxShardsOnStack;
  uint32_t* shard_of = stack_shard_of;
  size_t* start = stack_start;
  uint32_t* origin = stack_origin;
  uint64_t* sub_keys = stack_keys;
  uint64_t* sub_vals = stack_vals;
  Status* sub_status = stack_status;
  size_t* cursor = stack_cursor;
  if (!on_stack) {
    heap_shard_of.resize(count);
    heap_start.resize(num_shards + 1);
    heap_origin.resize(count);
    heap_keys.resize(count);
    heap_vals.resize(count);
    heap_status.resize(count);
    heap_cursor.resize(num_shards);
    shard_of = heap_shard_of.data();
    start = heap_start.data();
    origin = heap_origin.data();
    sub_keys = heap_keys.data();
    sub_vals = heap_vals.data();
    sub_status = heap_status.data();
    cursor = heap_cursor.data();
  }

  PlanScatter(count, [&](size_t i) { return keys[i]; }, shard_of, start,
              cursor, origin);
  const bool copy_values =
      kind == BatchKind::kInsert || kind == BatchKind::kUpdate;
  for (size_t j = 0; j < count; ++j) {
    sub_keys[j] = keys[origin[j]];
    if (copy_values) sub_vals[j] = values_in[origin[j]];
  }

  // Gates of the touched shards, held across prime + dispatch.
  GateSpan gates;
  gates.LockTouched(gates_.get(), start, num_shards);
  if (RejectClosed(statuses, count)) return;

  // Cross-shard prefetch priming (see ExecuteScattered). Quarantined
  // shards have no index to prime — their ranges fail below.
  if (count <= kStackBatch) {
    const bool for_write = kind != BatchKind::kSearch;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t len = start[s + 1] - start[s];
      if (len == 0) continue;
      if (quarantined_[s].load(std::memory_order_acquire)) continue;
      shards_[s].index->PrefetchBatch(sub_keys + start[s], len, for_write);
    }
  }

  // Dispatch every shard's contiguous sub-batch through its pipeline.
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t len = start[s + 1] - start[s];
    if (len == 0) continue;
    if (quarantined_[s].load(std::memory_order_acquire)) {
      for (size_t j = start[s]; j < start[s + 1]; ++j) {
        sub_status[j] = Status::kUnavailable;
      }
      continue;
    }
    KvIndex* index = shards_[s].index.get();
    switch (kind) {
      case BatchKind::kSearch:
        index->MultiSearch(sub_keys + start[s], len, sub_vals + start[s],
                           sub_status + start[s]);
        break;
      case BatchKind::kInsert:
        index->MultiInsert(sub_keys + start[s], sub_vals + start[s], len,
                           sub_status + start[s]);
        break;
      case BatchKind::kUpdate:
        index->MultiUpdate(sub_keys + start[s], sub_vals + start[s], len,
                           sub_status + start[s]);
        break;
      case BatchKind::kDelete:
        index->MultiDelete(sub_keys + start[s], len, sub_status + start[s]);
        break;
    }
  }
  gates.Release();

  // Gather in caller order.
  for (size_t j = 0; j < count; ++j) {
    statuses[origin[j]] = sub_status[j];
    if (kind == BatchKind::kSearch && IsOk(sub_status[j])) {
      values_out[origin[j]] = sub_vals[j];
    }
  }
}

// Scatter: bucket-sort descriptor indices by shard (two passes, stable,
// O(count + shards)), regrouping each shard's ops into one contiguous
// sub-batch so the shard's adapter can type-partition and pipeline it;
// then gather results back in caller order. All scratch spans hold
// `count` entries except `start` (shards + 1) and `cursor` (shards).
void ShardedStore::ExecuteScattered(Op* ops, size_t count, Status* statuses,
                                    uint32_t* shard_of, size_t* start,
                                    uint32_t* origin, Op* sub,
                                    Status* sub_status, size_t* cursor) {
  const size_t num_shards = shards_.size();
  PlanScatter(count, [&](size_t i) { return ops[i].key; }, shard_of, start,
              cursor, origin);
  for (size_t j = 0; j < count; ++j) sub[j] = ops[origin[j]];

  // Gates of the touched shards, held across prime + dispatch.
  GateSpan gates;
  gates.LockTouched(gates_.get(), start, num_shards);
  if (RejectClosed(statuses, count)) return;

  // Cross-shard prefetch priming: run every shard's prefetch stages
  // before any shard executes, so shard B's cache lines are already in
  // flight while shard A runs its ops. Splitting a batch across shards
  // narrows each shard's pipeline group (a 16-op batch on 2 shards gives
  // 8-wide groups, which no longer cover a DRAM miss chain); priming
  // restores the full batch-wide overlap. Bounded to small batches —
  // lines primed thousands of ops ahead would be evicted before use.
  if (count <= kStackBatch) {
    uint64_t keys[kStackBatch];
    for (size_t j = 0; j < count; ++j) keys[j] = sub[j].key;
    for (size_t s = 0; s < num_shards; ++s) {
      const size_t len = start[s + 1] - start[s];
      if (len == 0) continue;
      if (quarantined_[s].load(std::memory_order_acquire)) continue;
      bool for_write = false;
      for (size_t j = start[s]; j < start[s + 1] && !for_write; ++j) {
        for_write = sub[j].type != OpType::kSearch;
      }
      shards_[s].index->PrefetchBatch(keys + start[s], len, for_write);
    }
  }

  // Run every shard's sub-batch through its native pipeline; quarantined
  // shards fail their range with kUnavailable.
  for (size_t s = 0; s < num_shards; ++s) {
    const size_t len = start[s + 1] - start[s];
    if (len == 0) continue;
    if (quarantined_[s].load(std::memory_order_acquire)) {
      for (size_t j = start[s]; j < start[s + 1]; ++j) {
        sub_status[j] = Status::kUnavailable;
      }
      continue;
    }
    shards_[s].index->MultiExecute(sub + start[s], len,
                                   sub_status + start[s]);
  }
  gates.Release();

  // Gather: write statuses (and search results) back in caller order.
  for (size_t j = 0; j < count; ++j) {
    statuses[origin[j]] = sub_status[j];
    if (sub[j].type == OpType::kSearch && IsOk(sub_status[j])) {
      ops[origin[j]].value = sub[j].value;
    }
  }
}

// ---- stats & shutdown ----

ShardedStats ShardedStore::Aggregate(const IndexStats* per_shard,
                                     size_t count) {
  ShardedStats out;
  out.shard_count = count;
  for (size_t i = 0; i < count; ++i) {
    const IndexStats& s = per_shard[i];
    out.totals.records += s.records;
    out.totals.capacity_slots += s.capacity_slots;
    out.totals.bytes_used += s.bytes_used;
    out.totals.opt_retries += s.opt_retries;
    out.totals.version_conflicts += s.version_conflicts;
    out.totals.write_locks += s.write_locks;
    out.totals.bucket_lock_acquisitions += s.bucket_lock_acquisitions;
    out.totals.bucket_lock_contended_spins += s.bucket_lock_contended_spins;
    out.totals.recovery_replayed += s.recovery_replayed;
    out.totals.recovery_staleness += s.recovery_staleness;
    out.totals.log_dead_slots += s.log_dead_slots;
    out.totals.compactions += s.compactions;
    out.totals.compaction_chunks_reclaimed += s.compaction_chunks_reclaimed;
    out.totals.compaction_bytes_rewritten += s.compaction_bytes_rewritten;
    out.totals.log_chunks += s.log_chunks;
    out.totals.log_chunk_bytes += s.log_chunk_bytes;
    // Worst lane across shards, as within one table.
    out.totals.compaction_dead_ratio =
        std::max(out.totals.compaction_dead_ratio, s.compaction_dead_ratio);
    // Conservative: report the smallest page size any shard got (one
    // 4K-backed shard is enough to reintroduce its DTLB misses).
    out.totals.pool_page_bytes =
        i == 0 ? s.pool_page_bytes
               : std::min(out.totals.pool_page_bytes, s.pool_page_bytes);
    out.min_shard_load_factor =
        i == 0 ? s.load_factor
               : std::min(out.min_shard_load_factor, s.load_factor);
    out.max_shard_load_factor =
        std::max(out.max_shard_load_factor, s.load_factor);
  }
  out.totals.load_factor =
      out.totals.capacity_slots == 0
          ? 0.0
          : static_cast<double>(out.totals.records) /
                static_cast<double>(out.totals.capacity_slots);
  return out;
}

ShardedStats ShardedStore::Stats() {
  const size_t num_shards = shards_.size();
  // Degradation snapshot first: totals cover the healthy shards only, so
  // the quarantined list is taken alongside the same pass.
  std::vector<size_t> quarantined;
  for (size_t s = 0; s < num_shards; ++s) {
    if (quarantined_[s].load(std::memory_order_acquire)) {
      quarantined.push_back(s);
    }
  }
  const auto is_quarantined = [&](size_t s) {
    return std::find(quarantined.begin(), quarantined.end(), s) !=
           quarantined.end();
  };
  const auto finish = [&](const std::vector<IndexStats>& healthy) {
    ShardedStats out = Aggregate(healthy.data(), healthy.size());
    out.shard_count = num_shards;
    out.quarantined_count = quarantined.size();
    out.quarantined_shards = quarantined;
    return out;
  };
  if (executor_ != nullptr) {
    // Route the snapshot through the shard queues: each shard's numbers
    // are taken by its worker at the snapshot's queue position — after
    // every batch enqueued before this call, never mid-batch.
    auto state = std::make_shared<internal::StatsState>();
    state->per_shard.resize(num_shards);
    {
      GateSpan gates;
      gates.LockAll(gates_.get(), num_shards);
      if (!accepting_.load(std::memory_order_acquire)) {
        return ShardedStats{};
      }
      state->pending.store(
          static_cast<uint32_t>(num_shards - quarantined.size()),
          std::memory_order_relaxed);
      for (size_t s = 0; s < num_shards; ++s) {
        if (is_quarantined(s)) continue;
        ShardExecutor::WorkItem item;
        item.kind = ShardExecutor::WorkItem::Kind::kStats;
        item.shard = static_cast<uint32_t>(s);
        item.stats = state;
        if (!executor_->Submit(std::move(item))) {
          state->per_shard[s] = shards_[s].index->Stats();
          state->CompleteOne();
        }
      }
    }
    state->Wait();
    std::vector<IndexStats> healthy;
    healthy.reserve(num_shards - quarantined.size());
    for (size_t s = 0; s < num_shards; ++s) {
      if (!is_quarantined(s)) healthy.push_back(state->per_shard[s]);
    }
    return finish(healthy);
  }
  GateSpan gates;
  gates.LockAll(gates_.get(), num_shards);
  if (!accepting_.load(std::memory_order_acquire)) return ShardedStats{};
  std::vector<IndexStats> healthy;
  healthy.reserve(num_shards - quarantined.size());
  for (size_t s = 0; s < num_shards; ++s) {
    if (!is_quarantined(s)) healthy.push_back(shards_[s].index->Stats());
  }
  return finish(healthy);
}

void ShardedStore::CloseClean() {
  // Serializes concurrent CloseClean calls: the loser blocks until the
  // winner's drain + teardown completes, then early-returns, so "after
  // CloseClean returned" always means "fully closed".
  std::lock_guard<std::mutex> close_lock(close_mu_);
  if (!accepting_.exchange(false, std::memory_order_acq_rel)) {
    return;  // already closed
  }
  // Sweep every gate exclusively once, in the same ascending order every
  // holder acquires in: this waits out each in-flight op/batch that read
  // accepting_ == true, and the release/acquire through each gate makes
  // every later holder observe the flip and back off.
  for (size_t s = 0; s < shards_.size(); ++s) {
    gates_[s].mu.lock();
    gates_[s].mu.unlock();
  }
  // Drain every queued batch and join the workers before touching the
  // shards: every future handed out before the close becomes ready.
  if (executor_ != nullptr) executor_->Stop();
  // Quarantined shards hold no index/pool — nothing to close; their pool
  // files keep their dirty marker for the next recovery attempt.
  for (auto& shard : shards_) {
    if (shard.index != nullptr) shard.index->CloseClean();
    if (shard.pool != nullptr) shard.pool->CloseClean();
  }
}

}  // namespace dash::api
