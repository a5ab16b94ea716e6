// API v2 status codes and operation descriptors.
//
// Every public entry point of KvIndex / VarKvIndex / ShardedStore returns
// a Status instead of a bool, so callers can distinguish "key already
// exists" from "pool out of space" from "you passed the reserved key".
// The Op / VarOp descriptor is the unit of the mixed-operation batch API
// (MultiExecute): a serving frontend can gather heterogeneous requests
// into one array and push them through the tables' AMAC prefetch
// pipelines in a single call.

#ifndef DASH_PM_API_STATUS_H_
#define DASH_PM_API_STATUS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "dash/op_status.h"

namespace dash::api {

enum class Status : uint8_t {
  kOk = 0,
  kNotFound,         // search/update/delete: key absent
  kExists,           // insert: key already present
  kInvalidArgument,  // reserved key (0 / empty var-key) or malformed op
  kOutOfSpace,       // the pool (or table growth) cannot make room
  kInternal,         // a table leaked a private state (bug if ever seen)
  kUnavailable,      // shard quarantined (failed recovery) or queue full
  kTimeout,          // per-submit deadline expired before the op ran
};

constexpr bool IsOk(Status s) { return s == Status::kOk; }

constexpr const char* StatusName(Status s) {
  switch (s) {
    case Status::kOk: return "OK";
    case Status::kNotFound: return "NOT_FOUND";
    case Status::kExists: return "EXISTS";
    case Status::kInvalidArgument: return "INVALID_ARGUMENT";
    case Status::kOutOfSpace: return "OUT_OF_SPACE";
    case Status::kInternal: return "INTERNAL";
    case Status::kUnavailable: return "UNAVAILABLE";
    case Status::kTimeout: return "TIMEOUT";
  }
  return "UNKNOWN";
}

// Maps a table-internal OpStatus onto the public Status. kNeedSplit and
// kRetry are consumed by the tables' retry loops and must never reach the
// API boundary; they map to kInternal so a leak is visible, not silent.
constexpr Status FromOpStatus(OpStatus s) {
  switch (s) {
    case OpStatus::kOk: return Status::kOk;
    case OpStatus::kExists: return Status::kExists;
    case OpStatus::kNotFound: return Status::kNotFound;
    case OpStatus::kOutOfMemory: return Status::kOutOfSpace;
    case OpStatus::kNeedSplit:
    case OpStatus::kRetry: return Status::kInternal;
  }
  return Status::kInternal;
}

// Operation type of a batch descriptor. MultiExecute runs the type groups
// of a batch in this declaration order (searches, then inserts, updates,
// deletes); within one type, ops keep their relative order.
enum class OpType : uint8_t {
  kSearch = 0,
  kInsert,
  kUpdate,
  kDelete,
};

constexpr const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kSearch: return "search";
    case OpType::kInsert: return "insert";
    case OpType::kUpdate: return "update";
    case OpType::kDelete: return "delete";
  }
  return "unknown";
}

// One batch operation over keys of type K (uint64_t or std::string_view).
// `value` is an input for kInsert/kUpdate and an output for kSearch
// (written only when the search status is kOk); it is ignored by kDelete.
// A string_view key must stay valid for the duration of the MultiExecute
// call; the store copies the bytes on insert.
template <typename K>
struct BasicOp {
  OpType type = OpType::kSearch;
  K key{};
  uint64_t value = 0;

  static BasicOp Search(K key) { return {OpType::kSearch, key, 0}; }
  static BasicOp Insert(K key, uint64_t value) {
    return {OpType::kInsert, key, value};
  }
  static BasicOp Update(K key, uint64_t value) {
    return {OpType::kUpdate, key, value};
  }
  static BasicOp Delete(K key) { return {OpType::kDelete, key, 0}; }
};

using Op = BasicOp<uint64_t>;
using VarOp = BasicOp<std::string_view>;

// Reserved keys, rejected with kInvalidArgument at the API boundary: key 0
// is the CCEH empty-slot marker (§6.3) and the empty var-key maps to a
// zero-length blob whose stored pointer is indistinguishable from "slot
// free" in pointer mode. Enforced uniformly across all four tables so a
// workload never depends on which table it happens to run against.
constexpr bool IsReservedKey(uint64_t key) { return key == 0; }
inline bool IsReservedKey(std::string_view key) { return key.empty(); }

}  // namespace dash::api

#endif  // DASH_PM_API_STATUS_H_
