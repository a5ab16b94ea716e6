// MultiExecute tests: a mixed Search/Insert/Update/Delete descriptor
// batch must be semantically equivalent to executing the same ops
// serially through the single-op API, for every IndexKind. Batches use
// distinct keys per batch, where the documented type-group reordering is
// unobservable, so the equivalence is exact.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/kv_index.h"
#include "test_util.h"
#include "util/rand.h"

namespace dash::api {
namespace {

class MultiExecuteTest : public ::testing::TestWithParam<IndexKind> {};

DashOptions SmallTableOptions() {
  DashOptions opts;
  opts.buckets_per_segment = 16;
  opts.lh_base_segments = 4;
  opts.lh_stride = 2;
  return opts;
}

// Expected status of one op against the model, applying the op's effect.
Status ApplyToModel(std::map<uint64_t, uint64_t>* model, Op* op) {
  switch (op->type) {
    case OpType::kSearch: {
      const auto it = model->find(op->key);
      if (it == model->end()) return Status::kNotFound;
      op->value = it->second;
      return Status::kOk;
    }
    case OpType::kInsert:
      if (!model->emplace(op->key, op->value).second) return Status::kExists;
      return Status::kOk;
    case OpType::kUpdate: {
      const auto it = model->find(op->key);
      if (it == model->end()) return Status::kNotFound;
      it->second = op->value;
      return Status::kOk;
    }
    case OpType::kDelete:
      return model->erase(op->key) == 1 ? Status::kOk : Status::kNotFound;
  }
  return Status::kInternal;
}

TEST_P(MultiExecuteTest, MixedBatchesMatchSerialExecution) {
  test::TempPoolFile file(std::string("mexec_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  std::map<uint64_t, uint64_t> model;
  util::Xoshiro256 rng(2026);
  constexpr uint64_t kKeySpace = 20000;
  constexpr int kRounds = 60;
  // Batch sizes straddle the adapter's internal chunking (256) and the
  // tables' prefetch group width (16), including awkward remainders.
  const size_t batch_sizes[] = {1, 7, 16, 100, 257, 1000};

  for (int round = 0; round < kRounds; ++round) {
    const size_t n = batch_sizes[round % std::size(batch_sizes)];
    // Distinct keys within one batch (shuffle-free rejection sampling).
    std::vector<Op> ops;
    std::map<uint64_t, bool> used;
    while (ops.size() < n) {
      const uint64_t key = rng.NextBounded(kKeySpace) + 1;
      if (used.count(key)) continue;
      used[key] = true;
      Op op;
      switch (rng.NextBounded(4)) {
        case 0: op = Op::Search(key); break;
        case 1: op = Op::Insert(key, rng.Next()); break;
        case 2: op = Op::Update(key, rng.Next()); break;
        default: op = Op::Delete(key); break;
      }
      ops.push_back(op);
    }

    std::vector<Op> expected_ops = ops;
    std::vector<Status> expected(n);
    for (size_t i = 0; i < n; ++i) {
      expected[i] = ApplyToModel(&model, &expected_ops[i]);
    }

    std::vector<Status> statuses(n);
    index->MultiExecute(ops.data(), n, statuses.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(statuses[i], expected[i])
          << "round " << round << " slot " << i << " op "
          << OpTypeName(ops[i].type) << " key " << ops[i].key;
      if (ops[i].type == OpType::kSearch && IsOk(statuses[i])) {
        ASSERT_EQ(ops[i].value, expected_ops[i].value)
            << "round " << round << " key " << ops[i].key;
      }
    }
  }

  EXPECT_EQ(index->Stats().records, model.size());
  // Full sweep: the table must agree with the model record-for-record.
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_EQ(index->Search(key, &got), Status::kOk) << "key " << key;
    ASSERT_EQ(got, value);
  }

  index->CloseClean();
  pool->CloseClean();
}

// Mid-batch SMO coverage: one MultiExecute batch whose inserts force the
// table's structural modification (Dash-EH segment splits + directory
// doubling, Dash-LH linear-hash expansions, CCEH directory doubling,
// Level hashing's full-table resize) partway through the batch.
// Statuses and final contents must match the serial model, including the
// searches/updates/deletes of preloaded keys whose records physically
// move while the batch is in flight.
TEST_P(MultiExecuteTest, MidBatchSmoMatchesSerialModel) {
  test::TempPoolFile file(std::string("mexec_smo_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  std::map<uint64_t, uint64_t> model;
  constexpr uint64_t kPreload = 300;
  for (uint64_t k = 1; k <= kPreload; ++k) {
    ASSERT_EQ(index->Insert(k, k * 7), Status::kOk);
    model[k] = k * 7;
  }
  const uint64_t capacity_before = index->Stats().capacity_slots;

  // ~2400 ops, two thirds fresh-key inserts (enough to overflow the
  // small table several times over), interleaved with ops on preloaded
  // keys. Every key appears at most once in the batch, so the
  // documented type-group reordering is unobservable and the serial
  // model is exact.
  constexpr size_t kOps = 2400;
  std::vector<Op> ops;
  uint64_t fresh = 1000;
  uint64_t preloaded = 0;
  for (size_t i = 0; i < kOps; ++i) {
    if (i % 3 != 2 || preloaded >= kPreload) {
      ops.push_back(Op::Insert(++fresh, i));
    } else {
      const uint64_t key = ++preloaded;
      switch (preloaded % 3) {
        case 0: ops.push_back(Op::Search(key)); break;
        case 1: ops.push_back(Op::Update(key, key + 100000)); break;
        default: ops.push_back(Op::Delete(key)); break;
      }
    }
  }

  std::vector<Op> expected_ops = ops;
  std::vector<Status> expected(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    expected[i] = ApplyToModel(&model, &expected_ops[i]);
  }

  std::vector<Status> statuses(ops.size());
  index->MultiExecute(ops.data(), ops.size(), statuses.data());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(statuses[i], expected[i])
        << "slot " << i << " op " << OpTypeName(ops[i].type)
        << " key " << ops[i].key;
    if (ops[i].type == OpType::kSearch && IsOk(statuses[i])) {
      ASSERT_EQ(ops[i].value, expected_ops[i].value) << "key " << ops[i].key;
    }
  }

  // The batch must actually have straddled at least one SMO, and the
  // table must agree with the model record-for-record afterwards.
  const IndexStats stats = index->Stats();
  EXPECT_GT(stats.capacity_slots, capacity_before)
      << "batch did not trigger a structural modification";
  EXPECT_EQ(stats.records, model.size());
  EXPECT_TRUE(stats.pool_page_bytes == 4096 ||
              stats.pool_page_bytes == (2ull << 20))
      << stats.pool_page_bytes;
  for (const auto& [key, value] : model) {
    uint64_t got = 0;
    ASSERT_EQ(index->Search(key, &got), Status::kOk) << "key " << key;
    ASSERT_EQ(got, value) << "key " << key;
  }

  index->CloseClean();
  pool->CloseClean();
}

// Same-type ops keep their relative order even when the batch mixes
// types: two inserts then an update of one key in a later batch.
TEST_P(MultiExecuteTest, SameTypeOrderPreserved) {
  test::TempPoolFile file(std::string("mexec_order_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  // Duplicate inserts of one key inside a mixed batch: first wins.
  Op ops[4] = {Op::Insert(42, 1), Op::Search(7), Op::Insert(42, 2),
               Op::Insert(7, 70)};
  Status statuses[4];
  index->MultiExecute(ops, 4, statuses);
  EXPECT_EQ(statuses[0], Status::kOk);
  EXPECT_EQ(statuses[2], Status::kExists);
  EXPECT_EQ(statuses[3], Status::kOk);
  uint64_t value = 0;
  ASSERT_EQ(index->Search(42, &value), Status::kOk);
  EXPECT_EQ(value, 1u);

  index->CloseClean();
  pool->CloseClean();
}

// A descriptor whose type byte is out of range must come back as
// kInvalidArgument, not corrupt the partition scratch (regression).
TEST_P(MultiExecuteTest, MalformedOpTypeRejected) {
  test::TempPoolFile file(std::string("mexec_badop_") +
                          IndexKindName(GetParam()));
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  auto index =
      CreateKvIndex(GetParam(), pool.get(), &epochs, SmallTableOptions());
  ASSERT_NE(index, nullptr);

  ASSERT_EQ(index->Insert(5, 50), Status::kOk);
  Op ops[3] = {Op::Search(5), Op{}, Op::Insert(7, 70)};
  ops[1].type = static_cast<OpType>(200);
  ops[1].key = 6;
  Status statuses[3];
  index->MultiExecute(ops, 3, statuses);
  EXPECT_EQ(statuses[0], Status::kOk);
  EXPECT_EQ(ops[0].value, 50u);
  EXPECT_EQ(statuses[1], Status::kInvalidArgument);
  EXPECT_EQ(statuses[2], Status::kOk);
  uint64_t value = 0;
  EXPECT_EQ(index->Search(6, &value), Status::kNotFound);

  index->CloseClean();
  pool->CloseClean();
}

INSTANTIATE_TEST_SUITE_P(
    AllTables, MultiExecuteTest,
    ::testing::Values(IndexKind::kDashEH, IndexKind::kDashLH,
                      IndexKind::kCCEH, IndexKind::kLevel,
                      IndexKind::kHybrid),
    [](const ::testing::TestParamInfo<IndexKind>& info) {
      std::string name = IndexKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The var-key MultiExecute shares the adapter template; one smoke test
// over Dash-EH covers the VarOp entry point.
TEST(VarMultiExecuteTest, DashEhMixedBatch) {
  test::TempPoolFile file("mexec_var");
  auto pool = test::CreatePool(file);
  ASSERT_NE(pool, nullptr);
  epoch::EpochManager epochs;
  DashOptions opts;
  auto index =
      CreateVarKvIndex(IndexKind::kDashEH, pool.get(), &epochs, opts);
  ASSERT_NE(index, nullptr);

  constexpr size_t kN = 600;
  std::vector<std::string> storage(kN);
  for (size_t i = 0; i < kN; ++i) {
    storage[i] = "vkey-" + std::to_string(i);
  }

  std::vector<VarOp> ops;
  for (size_t i = 0; i < kN; ++i) {
    ops.push_back(VarOp::Insert(storage[i], i + 1));
  }
  std::vector<Status> statuses(ops.size());
  index->MultiExecute(ops.data(), ops.size(), statuses.data());
  for (size_t i = 0; i < ops.size(); ++i) {
    ASSERT_EQ(statuses[i], Status::kOk) << storage[i];
  }

  // Mixed follow-up: search half, update a quarter, delete a quarter.
  ops.clear();
  for (size_t i = 0; i < kN; ++i) {
    if (i % 2 == 0) {
      ops.push_back(VarOp::Search(storage[i]));
    } else if (i % 4 == 1) {
      ops.push_back(VarOp::Update(storage[i], 9000 + i));
    } else {
      ops.push_back(VarOp::Delete(storage[i]));
    }
  }
  statuses.assign(ops.size(), Status::kInternal);
  index->MultiExecute(ops.data(), ops.size(), statuses.data());
  for (size_t i = 0, j = 0; i < kN; ++i, ++j) {
    ASSERT_EQ(statuses[j], Status::kOk) << storage[i];
    if (i % 2 == 0) {
      ASSERT_EQ(ops[j].value, i + 1) << storage[i];
    }
  }

  uint64_t value = 0;
  EXPECT_EQ(index->Search(storage[1], &value), Status::kOk);
  EXPECT_EQ(value, 9001u);
  EXPECT_EQ(index->Search(storage[3], &value), Status::kNotFound);

  index->CloseClean();
  pool->CloseClean();
}

}  // namespace
}  // namespace dash::api
