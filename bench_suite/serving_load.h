// Load generation for bench_suite: the seeded key space, the op streams
// of the workload mixes, a log-linear latency histogram, in-memory spans,
// and the closed-loop KvClient caller.
//
// Everything a run sends is derived from its --seed: the preloaded key
// set, each client's op stream and each update's value. Values carry a
// check of their key, so every search result is verified against the key
// it was asked for, whichever update wrote it last.

#ifndef DASH_PM_BENCH_SUITE_SERVING_LOAD_H_
#define DASH_PM_BENCH_SUITE_SERVING_LOAD_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "api/status.h"
#include "net/kv_client.h"
#include "util/hash.h"
#include "util/rand.h"
#include "util/zipf.h"

namespace dash::bench_suite {

using Clock = std::chrono::steady_clock;

inline constexpr size_t kMaxBatch = 256;  // the adapter's chunk size

// ---- seeded key space ----

// Key of record `index` under `seed`. Mix64 is a bijection, so distinct
// indices give distinct keys; its only zero preimage lies far outside any
// (24-bit seed, index) pair used here, so the reserved key 0 never occurs.
inline uint64_t KeyOf(uint64_t seed, uint64_t index) {
  return util::Mix64(((seed & 0xFFFFFFull) << 40) + index + 1);
}

// A value that names its key: the high 48 bits are a hash of the key, the
// low 16 bits a tag that updates vary.
inline uint64_t ValueFor(uint64_t key, uint16_t tag) {
  return (util::Mix64(key ^ 0x5bd1e9955bd1e995ull) & ~0xFFFFull) | tag;
}
inline bool ValueMatches(uint64_t key, uint64_t value) {
  return ((value ^ ValueFor(key, 0)) >> 16) == 0;
}

// ---- workload mixes ----

struct Mix {
  uint32_t read_pct = 100;  // searches; the rest update (or insert)
  bool inserts = false;     // the non-read share inserts fresh keys
  double zipf_theta = 0.0;  // 0 = uniform over the preloaded records
};

// Fresh-key allocator shared by every stream of a run: inserts claim
// indices from `next` up to `limit` (exclusive), so no key repeats.
struct FreshKeys {
  std::atomic<uint64_t> next{0};
  uint64_t limit = std::numeric_limits<uint64_t>::max();
};

// One caller's op stream. Streams built from the same (seed, stream id)
// produce the same ops, which is how the traced legs replay the wire
// leg's load.
class OpStream {
 public:
  OpStream(const Mix& mix, uint64_t seed, uint64_t stream, uint64_t records,
           const util::ZipfGenerator* zipf_proto, FreshKeys* fresh)
      : mix_(mix),
        seed_(seed),
        records_(records),
        rng_(util::Mix64(seed * 1000003 + stream)),
        fresh_(fresh) {
    if (zipf_proto != nullptr) {
      zipf_ = std::make_unique<util::ZipfGenerator>(
          *zipf_proto, util::Mix64(seed * 7919 + stream));
    }
  }

  // Writes up to `batch` ops; fewer (possibly 0) once `fresh` runs out.
  size_t Fill(size_t batch, api::Op* ops) {
    size_t inserts = 0;
    for (size_t i = 0; i < batch; ++i) {
      const bool read = rng_.NextBounded(100) < mix_.read_pct;
      if (!read && mix_.inserts) {
        ops[i].type = api::OpType::kInsert;
        ++inserts;
        continue;
      }
      const uint64_t key = KeyOf(seed_, NextRecord());
      ops[i] = read ? api::Op::Search(key)
                    : api::Op::Update(key, ValueFor(key, NextTag()));
    }
    if (inserts == 0) return batch;
    // One claim per batch keeps the shared counter off the per-op path.
    const uint64_t first =
        fresh_->next.fetch_add(inserts, std::memory_order_relaxed);
    const uint64_t granted =
        first >= fresh_->limit ? 0 : std::min(inserts, fresh_->limit - first);
    size_t n = 0;
    uint64_t claimed = 0;
    for (size_t i = 0; i < batch; ++i) {
      if (ops[i].type == api::OpType::kInsert) {
        if (claimed == granted) continue;
        const uint64_t key = KeyOf(seed_, first + claimed++);
        ops[n++] = api::Op::Insert(key, ValueFor(key, NextTag()));
      } else {
        ops[n++] = ops[i];
      }
    }
    return n;
  }

 private:
  uint64_t NextRecord() {
    return zipf_ != nullptr ? zipf_->Next() : rng_.NextBounded(records_);
  }
  uint16_t NextTag() { return static_cast<uint16_t>(rng_.Next()); }

  Mix mix_;
  uint64_t seed_;
  uint64_t records_;
  util::Xoshiro256 rng_;
  std::unique_ptr<util::ZipfGenerator> zipf_;
  FreshKeys* fresh_;
};

// ---- result checking ----

struct OpTally {
  uint64_t ok = 0;
  uint64_t failed = 0;  // not served (kUnavailable/kTimeout) or wrong
  uint64_t wrong = 0;   // an unexpected status or value

  void Merge(const OpTally& o) {
    ok += o.ok;
    failed += o.failed;
    wrong += o.wrong;
  }
};

// Every op of the workloads targets a present key (search, update) or a
// fresh one (insert), so each must return kOk; a search must return a
// value written for its key.
inline void CheckOp(const api::Op& sent, api::Status status, uint64_t value,
                    OpTally* tally) {
  if (status == api::Status::kUnavailable || status == api::Status::kTimeout) {
    ++tally->failed;
  } else if (status != api::Status::kOk ||
             (sent.type == api::OpType::kSearch &&
              !ValueMatches(sent.key, value))) {
    ++tally->failed;
    ++tally->wrong;
  } else {
    ++tally->ok;
  }
}

// ---- latency histogram ----

// Log-linear histogram of nanosecond values: exact below 128, then 128
// linear sub-buckets per power of two, so a reported quantile is within
// 0.4% of the recorded value. Fixed size, so memory does not grow with
// the number of requests.
class LatencyHistogram {
 public:
  void Record(uint64_t ns) {
    ++counts_[Index(ns)];
    ++total_;
  }
  void Merge(const LatencyHistogram& o) {
    for (size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }
  uint64_t count() const { return total_; }

  // Value at quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total_))));
    uint64_t seen = 0;
    for (size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return Mid(i);
    }
    return Mid(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 7;
  static constexpr size_t kSub = size_t{1} << kSubBits;
  static constexpr size_t kBuckets = (64 - kSubBits + 1) * kSub;

  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int e = 63 - __builtin_clzll(v);
    return static_cast<size_t>(e - kSubBits + 1) * kSub +
           static_cast<size_t>((v >> (e - kSubBits)) & (kSub - 1));
  }
  static double Mid(size_t idx) {
    if (idx < kSub) return static_cast<double>(idx);
    const int shift = static_cast<int>(idx / kSub) - 1;
    const double width = std::ldexp(1.0, shift);
    const double low =
        static_cast<double>(kSub + idx % kSub) * width;
    return low + (width - 1.0) / 2.0;
  }

  std::array<uint64_t, kBuckets> counts_{};
  uint64_t total_ = 0;
};

// ---- spans ----

// One timed interval at a layer boundary. Spans of one request share `id`;
// `parent` names the enclosing span (nullptr for a root).
struct Span {
  const char* name = nullptr;
  const char* parent = nullptr;
  uint64_t id = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

// Per-thread span buffer, bounded so a long run's file stays small; the
// per-layer numbers come from histograms over every request, not from it.
class SpanLog {
 public:
  explicit SpanLog(size_t cap = 0) : cap_(cap) { spans_.reserve(cap); }
  void Add(const char* name, const char* parent, uint64_t id,
           Clock::time_point start, Clock::time_point end,
           Clock::time_point origin) {
    if (spans_.size() >= cap_) return;
    spans_.push_back({name, parent, id, Nanos(start - origin),
                      Nanos(end - origin)});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  static int64_t Nanos(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
  }
  size_t cap_;
  std::vector<Span> spans_;
};

inline uint64_t ElapsedNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// ---- closed-loop client ----

inline constexpr int kMaxPhases = 4;
inline constexpr int kStopPhase = -1;

// Phases a controller steps the callers through: completions are billed
// to the phase current when they arrive; phase 0 is the untimed warm-up.
// Requests sent during a phase in `traced_mask` also record the
// net.client.send / net.client.wait spans. `step` numbers the controller's
// schedule entries, so completed ops can also be counted per entry.
struct PhaseControl {
  std::atomic<int> phase{0};
  std::atomic<size_t> step{0};
  uint32_t traced_mask = 0;
};

struct LegStats {
  uint64_t requests = 0;
  uint64_t retry_responses = 0;
  OpTally ops;
  LatencyHistogram request_ns;
  LatencyHistogram send_ns;
  LatencyHistogram wait_ns;

  void Merge(const LegStats& o) {
    requests += o.requests;
    retry_responses += o.retry_responses;
    ops.Merge(o.ops);
    request_ns.Merge(o.request_ns);
    send_ns.Merge(o.send_ns);
    wait_ns.Merge(o.wait_ns);
  }
};

struct ClientLog {
  ClientLog(size_t steps, size_t span_cap) : step_ops(steps), spans(span_cap) {}
  std::array<LegStats, kMaxPhases> phases;
  std::vector<uint64_t> step_ops;  // ops completed kOk per schedule step
  SpanLog spans;
  Clock::time_point last_completion{};
  bool protocol_error = false;
};

// Keeps `window` request frames of up to `batch` ops in flight on
// `client` until the controller raises kStopPhase or the stream runs dry,
// then drains. Latency runs from just before Send() to the Receive() of
// the matching id. A failed Send/Receive, an unknown id or a short
// response is a protocol error: the connection is abandoned and every op
// still in flight counts as failed.
inline void RunClient(net::KvClient* client, OpStream* stream, size_t batch,
                      int window, const PhaseControl& control,
                      uint64_t client_id, Clock::time_point origin,
                      ClientLog* log) {
  struct InFlight {
    uint64_t id = 0;
    size_t n = 0;
    bool traced = false;
    Clock::time_point start{};
    Clock::time_point sent{};
    std::array<api::Op, kMaxBatch> ops;
  };
  std::vector<InFlight> slots(static_cast<size_t>(window));
  std::vector<bool> busy(slots.size(), false);
  size_t in_flight = 0;
  bool exhausted = false;
  net::ClientResponse response;

  const auto fail_in_flight = [&] {
    log->protocol_error = true;
    const int phase = control.phase.load(std::memory_order_acquire);
    for (size_t s = 0; s < slots.size(); ++s) {
      if (busy[s] && phase >= 0) {
        log->phases[static_cast<size_t>(phase)].ops.failed += slots[s].n;
        log->phases[static_cast<size_t>(phase)].ops.wrong += slots[s].n;
      }
    }
  };

  for (;;) {
    const int send_phase = control.phase.load(std::memory_order_acquire);
    while (send_phase != kStopPhase && !exhausted &&
           in_flight < slots.size()) {
      const size_t s = static_cast<size_t>(
          std::find(busy.begin(), busy.end(), false) - busy.begin());
      InFlight& req = slots[s];
      req.n = stream->Fill(batch, req.ops.data());
      if (req.n == 0) {
        exhausted = true;
        break;
      }
      req.traced = ((control.traced_mask >> send_phase) & 1u) != 0;
      req.start = Clock::now();
      if (!client->Send(req.ops.data(), req.n, /*deadline_us=*/0, &req.id)) {
        fail_in_flight();
        return;
      }
      if (req.traced) req.sent = Clock::now();
      busy[s] = true;
      ++in_flight;
    }
    if (in_flight == 0) return;
    if (!client->Receive(&response)) {
      fail_in_flight();
      return;
    }
    const Clock::time_point done = Clock::now();
    size_t s = 0;
    while (s < slots.size() && !(busy[s] && slots[s].id == response.request_id))
      ++s;
    if (s == slots.size() || response.statuses.size() != slots[s].n ||
        response.values.size() != slots[s].n) {
      fail_in_flight();
      return;
    }
    InFlight& req = slots[s];
    busy[s] = false;
    --in_flight;
    log->last_completion = done;
    const int phase = control.phase.load(std::memory_order_acquire);
    if (phase < 0) continue;  // draining after the stop: not billed
    LegStats& leg = log->phases[static_cast<size_t>(phase)];
    ++leg.requests;
    if (response.retry_after_us != 0) ++leg.retry_responses;
    const uint64_t ok_before = leg.ops.ok;
    for (size_t i = 0; i < req.n; ++i) {
      CheckOp(req.ops[i], response.statuses[i], response.values[i], &leg.ops);
    }
    const size_t step = control.step.load(std::memory_order_acquire);
    if (step < log->step_ops.size()) {
      log->step_ops[step] += leg.ops.ok - ok_before;
    }
    leg.request_ns.Record(ElapsedNs(req.start, done));
    if (req.traced) {
      leg.send_ns.Record(ElapsedNs(req.start, req.sent));
      leg.wait_ns.Record(ElapsedNs(req.sent, done));
      const uint64_t span_id = (client_id << 48) | req.id;
      log->spans.Add("request", nullptr, span_id, req.start, done, origin);
      log->spans.Add("net.client.send", "request", span_id, req.start,
                     req.sent, origin);
      log->spans.Add("net.client.wait", "request", span_id, req.sent, done,
                     origin);
    }
  }
}

}  // namespace dash::bench_suite

#endif  // DASH_PM_BENCH_SUITE_SERVING_LOAD_H_
