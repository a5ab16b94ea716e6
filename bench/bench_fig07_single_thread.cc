// Figure 7: single-thread performance of all four tables under fixed-
// length keys (left panel) and variable-length keys (right panel), for
// insert / positive search / negative search / delete.
//
// Expected shape (paper): Dash-EH ≈ Dash-LH > CCEH > Level for searches
// (fingerprints avoid PM reads); Dash ≈ CCEH > Level for inserts; the gaps
// widen dramatically under variable-length keys (pointer dereferences).
//
// --check exits non-zero unless this run's fixed-key PM read counters
// show the search claims (CheckReads). The counters move by at most a
// few hundredths from run to run (the preload runs on four threads), far
// less than the margins the check leaves.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench_common.h"

using namespace dash;
using namespace dash::bench;

namespace {

// Variable-length key workload over the VarKvIndex interface.
struct VarTableHandle {
  std::unique_ptr<pmem::PmPool> pool;
  std::unique_ptr<epoch::EpochManager> epochs;
  std::unique_ptr<api::VarKvIndex> table;
  std::string path;

  VarTableHandle() = default;
  VarTableHandle(VarTableHandle&&) = default;
  VarTableHandle& operator=(VarTableHandle&&) = default;
  ~VarTableHandle() {
    if (table != nullptr) table->CloseClean();
    table.reset();
    if (pool != nullptr) pool->CloseClean();
    pool.reset();
    if (!path.empty()) std::remove(path.c_str());
  }
};

VarTableHandle MakeVarTable(api::IndexKind kind, const BenchConfig& config) {
  VarTableHandle handle;
  static int counter = 0;
  handle.path = config.pool_dir + "/dash_bench_var_" +
                std::to_string(getpid()) + "_" + std::to_string(counter++);
  std::remove(handle.path.c_str());
  pmem::PmPool::Options pool_options;
  pool_options.pool_size = config.pool_gb << 30;
  handle.pool = pmem::PmPool::Create(handle.path, pool_options);
  if (handle.pool == nullptr) std::exit(1);
  handle.epochs = std::make_unique<epoch::EpochManager>();
  DashOptions opts;
  handle.table = api::CreateVarKvIndex(kind, handle.pool.get(),
                                       handle.epochs.get(), opts);
  return handle;
}

// 16-byte keys (paper §6.2 variable-length configuration).
void VarKeyOf(uint64_t i, char out[17]) {
  std::snprintf(out, 17, "k%015llu",
                static_cast<unsigned long long>(i % 1'000'000'000'000'000ull));
}

// A Dash positive search reads the target bucket's metadata line and the
// record (2 lines) when the record is in its target bucket, and the
// probing bucket's metadata line as well when it is not.
constexpr double kMaxDashPositiveReads = 2.3;

// The Fig. 7 search claims on fixed-key PM reads per op: negative
// searches read Dash-EH and Dash-LH < CCEH < Level, and Dash positive
// searches mostly find their record in the target bucket.
bool CheckReads(const std::map<api::IndexKind, double>& pos_reads,
                const std::map<api::IndexKind, double>& neg_reads) {
  const double eh = neg_reads.at(api::IndexKind::kDashEH);
  const double lh = neg_reads.at(api::IndexKind::kDashLH);
  const double cceh = neg_reads.at(api::IndexKind::kCCEH);
  const double level = neg_reads.at(api::IndexKind::kLevel);
  bool ok = eh < cceh && lh < cceh && cceh < level;
  std::printf("# check %-6s neg_search reads: dash-eh %.2f, dash-lh %.2f < "
              "cceh %.2f < level %.2f\n",
              ok ? "ok" : "FAILED", eh, lh, cceh, level);
  for (api::IndexKind kind : {api::IndexKind::kDashEH, api::IndexKind::kDashLH}) {
    const double reads = pos_reads.at(kind);
    const bool holds = reads <= kMaxDashPositiveReads;
    std::printf("# check %-6s pos_search reads: %s %.2f <= %.2f\n",
                holds ? "ok" : "FAILED", api::IndexKindName(kind), reads,
                kMaxDashPositiveReads);
    ok = ok && holds;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchConfig config = ParseArgs(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) check = true;
  }
  PrintHeader("fig07_single_thread");
  const uint64_t preload = config.Preload();
  const uint64_t ops = config.Scaled(190'000'000) / 4;  // per-op budget

  const api::IndexKind kinds[] = {api::IndexKind::kLevel,
                                  api::IndexKind::kCCEH,
                                  api::IndexKind::kDashEH,
                                  api::IndexKind::kDashLH};

  // --- fixed-length keys ---
  std::map<api::IndexKind, double> pos_reads;
  std::map<api::IndexKind, double> neg_reads;
  for (api::IndexKind kind : kinds) {
    DashOptions opts;
    TableHandle h = MakeTable(kind, config, opts);
    Preload(h.table.get(), preload);
    PrintRow("fig07_fixed", api::IndexKindName(kind), "insert", 1,
             InsertPhase(h.table.get(), preload, ops, 1));
    const PhaseResult pos = PositiveSearchPhase(h.table.get(), preload, ops, 1);
    PrintRow("fig07_fixed", api::IndexKindName(kind), "pos_search", 1, pos);
    const PhaseResult neg = NegativeSearchPhase(h.table.get(), preload, ops, 1);
    PrintRow("fig07_fixed", api::IndexKindName(kind), "neg_search", 1, neg);
    PrintRow("fig07_fixed", api::IndexKindName(kind), "delete", 1,
             DeletePhase(h.table.get(), std::min(preload, ops), 1));
    pos_reads[kind] = pos.reads_per_op;
    neg_reads[kind] = neg.reads_per_op;
  }

  // --- variable-length (16-byte) keys ---
  for (api::IndexKind kind : kinds) {
    VarTableHandle h = MakeVarTable(kind, config);
    api::VarKvIndex* table = h.table.get();
    char key[17];
    for (uint64_t i = 1; i <= preload; ++i) {
      VarKeyOf(i, key);
      table->Insert(std::string_view(key, 16), i);
    }
    {
      const PhaseResult r = RunParallel(
          1, ops, [&](int, uint64_t begin, uint64_t end) {
            char k[17];
            for (uint64_t i = begin; i < end; ++i) {
              VarKeyOf(preload + i + 1, k);
              table->Insert(std::string_view(k, 16), i);
            }
          });
      PrintRow("fig07_var", api::IndexKindName(kind), "insert", 1, r);
    }
    {
      const PhaseResult r = RunParallel(
          1, ops, [&](int, uint64_t begin, uint64_t end) {
            char k[17];
            uint64_t value;
            for (uint64_t i = begin; i < end; ++i) {
              VarKeyOf((i * 2654435761u) % preload + 1, k);
              table->Search(std::string_view(k, 16), &value);
            }
          });
      PrintRow("fig07_var", api::IndexKindName(kind), "pos_search", 1, r);
    }
    {
      const PhaseResult r = RunParallel(
          1, ops, [&](int, uint64_t begin, uint64_t end) {
            char k[17];
            uint64_t value;
            for (uint64_t i = begin; i < end; ++i) {
              VarKeyOf(100'000'000'000ull + i, k);
              table->Search(std::string_view(k, 16), &value);
            }
          });
      PrintRow("fig07_var", api::IndexKindName(kind), "neg_search", 1, r);
    }
    {
      const uint64_t deletes = std::min(preload, ops);
      const PhaseResult r = RunParallel(
          1, deletes, [&](int, uint64_t begin, uint64_t end) {
            char k[17];
            for (uint64_t i = begin; i < end; ++i) {
              VarKeyOf(i + 1, k);
              table->Delete(std::string_view(k, 16));
            }
          });
      PrintRow("fig07_var", api::IndexKindName(kind), "delete", 1, r);
    }
  }
  if (check && !CheckReads(pos_reads, neg_reads)) {
    std::fprintf(stderr, "fig07 --check: a search read claim failed\n");
    return 1;
  }
  return 0;
}
