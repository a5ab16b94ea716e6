// Runtime-tunable knobs for Dash tables.
//
// Every design decision the paper ablates (fingerprinting — Fig. 9,
// overflow metadata — Fig. 10, the bucket load-balancing stack — Fig. 11,
// optimistic vs. pessimistic locking — Fig. 13, stash bucket count —
// Figs. 10-12) is a runtime option so the benchmark harness can sweep them
// without recompiling.

#ifndef DASH_PM_DASH_CONFIG_H_
#define DASH_PM_DASH_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace dash::util {
struct ShardedBucketLockStats;
}  // namespace dash::util

namespace dash {

// How a table's index came to exist at open (recovery provenance,
// surfaced through IndexStats and the sharded RecoveryReport).
enum class RecoverySource : uint32_t {
  kFresh = 0,       // created new — nothing to recover
  kNative = 1,      // PM-resident index: restart is already a load
  kScan = 2,        // full log scan rebuild (hybrid fallback path)
  kCheckpoint = 3,  // checkpoint load + bounded tail replay
};

inline const char* RecoverySourceName(RecoverySource s) {
  switch (s) {
    case RecoverySource::kFresh: return "fresh";
    case RecoverySource::kNative: return "native";
    case RecoverySource::kScan: return "scan";
    case RecoverySource::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

// Concurrency-control flavour (paper §4.4 and Fig. 13).
enum class ConcurrencyMode : uint8_t {
  kOptimistic = 0,  // version locks; readers never write
  kRwLock = 1,      // reader-writer spinlocks; readers write the lock word
};

struct DashOptions {
  // --- structural (fixed at table creation, persisted) ---
  // Normal buckets per segment; power of two. 64 x 256-byte buckets = the
  // paper's 16 KB segment.
  uint32_t buckets_per_segment = 64;
  // Stash buckets per segment (paper default 2; Fig. 10-12 also use 4).
  uint32_t stash_buckets = 2;
  // Initial directory global depth (Dash-EH) — the table starts with
  // 2^initial_depth segments.
  uint32_t initial_depth = 1;
  // Dash-LH: initial segments in the first segment array ("the first
  // segment array will include 64 segments", §5.2).
  uint32_t lh_base_segments = 64;
  // Dash-LH hybrid-expansion stride (§5.2; paper uses 8).
  uint32_t lh_stride = 8;

  // --- recovery (volatile; per-open) ---
  // Checkpoint file path for tables with a DRAM-resident index (hybrid).
  // Empty disables checkpointing; the sharded store derives a per-shard
  // path from its prefix. Written crash-consistently (temp + checksum +
  // generation + rename); a bad file is rejected loudly at open and
  // recovery falls back to the full log scan.
  std::string checkpoint_path;
  // Worker threads for the hybrid tier's log-scan rebuild (the fallback
  // recovery path), parallelized by lane. 1 = serial.
  uint32_t rebuild_threads = 1;
  // Hybrid tier: dead-slot ratio (dead / lane capacity) above which a
  // Compact() pass rewrites a lane's oldest chunk — live records are
  // copied to the tail with fresh seqs and the drained chunk returns to
  // the pool, so chains shrink physically under update churn. 0 disables
  // compaction. The ShardExecutor drives the trigger from its idle path
  // (ExecutorOptions::compaction_interval_ms), never mid-batch.
  double compaction_trigger = 0.0;

  // --- behavioural (volatile; ablation knobs) ---
  bool use_fingerprints = true;      // Fig. 9
  bool use_overflow_metadata = true; // Fig. 10
  bool use_probing_bucket = true;    // Fig. 11 "+Probing"
  bool use_balanced_insert = true;   // Fig. 11 "+Balanced insert"
  bool use_displacement = true;      // Fig. 11 "+Displacement"
  ConcurrencyMode concurrency = ConcurrencyMode::kOptimistic;  // Fig. 13
  // Dash-EH: when a delete leaves a buddy segment pair with a combined
  // fullness below this threshold, the pair is merged (§4.6 "a segment
  // merge operation will be triggered if the load factor drops below a
  // threshold"). 0 disables merging (the paper's evaluation does not
  // exercise merges; this is the optional space-reclamation feature).
  double merge_threshold = 0.0;

  // --- telemetry (volatile) ---
  // Bucket-lock telemetry sink (acquisitions / contended spins). The
  // tables point this at their own DRAM counters at construction; every
  // BucketLock acquisition call site passes it through. Never persisted.
  util::ShardedBucketLockStats* lock_stats = nullptr;
};

}  // namespace dash

#endif  // DASH_PM_DASH_CONFIG_H_
