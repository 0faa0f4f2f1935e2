#ifndef NATIX_OBS_METRICS_H_
#define NATIX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

// Process-wide metrics: lock-free counters and log-bucketed latency
// histograms, fed automatically by every Prepare and Execution run,
// plus a bounded slow-query log. Snapshots render as JSON
// (MetricsRegistry::SnapshotJson) or a p50/p90/p99 table (RenderText);
// natixq surfaces them via --metrics and --slow-log.
//
// Zero-cost discipline (src/obs/stats.h): under NATIX_OBS_DISABLED the
// registry collapses to inline no-ops and every feeding site compiles
// to nothing.

namespace natix::obs {

#if !defined(NATIX_OBS_DISABLED)

/// Monotonic clock in nanoseconds (0 under NATIX_OBS_DISABLED, letting
/// timing call sites compile away without #ifdefs).
uint64_t MonotonicNowNs();

/// A lock-free latency histogram with power-of-two buckets: bucket 0
/// counts the value 0, bucket b >= 1 counts values in
/// [2^(b-1), 2^b - 1]. 64 buckets cover the full uint64 range, so a
/// Record is one bit_width plus one relaxed fetch_add.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(uint64_t value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t max() const { return max_.load(std::memory_order_relaxed); }

  /// Percentile (q in (0, 1]), linearly interpolated inside the
  /// containing log2 bucket at the continuous rank q * count — the same
  /// estimator Prometheus's histogram_quantile() applies to the
  /// exposition-format buckets, so the two renderings agree (verified by
  /// metrics_prometheus_test). 0 when empty; clamped to the observed max.
  uint64_t Percentile(double q) const;

  /// Non-empty buckets as {bucket index, count} pairs (snapshot order).
  std::vector<std::pair<int, uint64_t>> NonZeroBuckets() const;

  /// Value bounds of bucket b: 0 for bucket 0, [2^(b-1), 2^b - 1] for
  /// b >= 1. The upper bound is the Prometheus `le` boundary of the
  /// exposition rendering (obs/prometheus.h).
  static uint64_t BucketLowerBound(int b);
  static uint64_t BucketUpperBound(int b);

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// A named process-wide counter cell (relaxed atomics).
class CounterCell {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A process-wide gauge: a value that goes up and down (queue depth,
/// in-flight requests). Signed so a transient Sub past a concurrent Add
/// never wraps; value() clamps at zero for rendering.
class GaugeCell {
 public:
  void Add(int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n = 1) { value_.fetch_sub(n, std::memory_order_relaxed); }
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const {
    int64_t v = value_.load(std::memory_order_relaxed);
    return v < 0 ? 0 : v;
  }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// One slow-query log entry: everything needed to diagnose the query
/// after the fact without re-running it.
struct SlowQueryEntry {
  uint64_t sequence = 0;  ///< monotonically increasing admission id
  std::string xpath;      ///< the query text
  uint64_t exec_ns = 0;
  uint64_t page_faults = 0;
  uint64_t tuples = 0;
  /// EXPLAIN ANALYZE tree when the query was compiled with stats
  /// collection ("" otherwise).
  std::string analyze;
};

/// A bounded ring buffer of the slowest-threshold-exceeding queries.
/// Disabled until a threshold is set; admission is O(1) under a mutex
/// (the slow path by definition — never taken by fast queries).
class SlowQueryLog {
 public:
  static constexpr uint64_t kDisabled = ~uint64_t{0};
  static constexpr size_t kDefaultCapacity = 64;

  /// Queries with exec time >= ns are logged; kDisabled turns the log
  /// off, 0 logs every query.
  void set_threshold_ns(uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }
  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }
  bool ShouldLog(uint64_t exec_ns) const {
    return exec_ns >= threshold_ns();
  }

  void Record(SlowQueryEntry entry);

  /// Retained entries in stable monotonic admission order (ascending
  /// sequence), oldest first — stable under concurrent Record calls.
  std::vector<SlowQueryEntry> Dump() const;

  /// Human-readable dump (natixq --slow-log).
  std::string RenderText() const;

  /// Total admissions, including entries the ring has since evicted.
  uint64_t total_logged() const {
    return total_.load(std::memory_order_relaxed);
  }

  void Clear();

 private:
  std::atomic<uint64_t> threshold_ns_{kDisabled};
  std::atomic<uint64_t> total_{0};
  mutable std::mutex mu_;
  std::deque<SlowQueryEntry> entries_;
};

/// The process-wide registry. Instrument names are a stable contract
/// (tests and dashboards read them): histograms compile_ns, exec_ns,
/// pages_per_query, tuples_per_query, queue_wait_ns; counters
/// queries_compiled, queries_executed, compile_errors, exec_errors,
/// slow_queries, plan_cache_hits, plan_cache_misses, nvm_insns_retired,
/// early_exits, deadline_exceeded, queries_cancelled, requests_rejected,
/// http_requests; gauges queue_depth, requests_in_flight.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  LatencyHistogram compile_ns;
  LatencyHistogram exec_ns;
  LatencyHistogram pages_per_query;
  LatencyHistogram tuples_per_query;
  /// Admission-queue wait per served request (server::Server).
  LatencyHistogram queue_wait_ns;

  CounterCell queries_compiled;
  CounterCell queries_executed;
  CounterCell compile_errors;
  CounterCell exec_errors;
  CounterCell slow_queries;
  /// Prepared-plan cache (api::PlanCache): compilations avoided / paid.
  CounterCell plan_cache_hits;
  CounterCell plan_cache_misses;
  /// NVM bytecode instructions retired by subscript programs.
  CounterCell nvm_insns_retired;
  /// Pipelines closed before exhaustion by the Limit operator
  /// (docs/LIMIT-PUSHDOWN.md) — pages and next() calls saved.
  CounterCell early_exits;
  /// Executions aborted because their deadline expired mid-drain.
  CounterCell deadline_exceeded;
  /// Executions aborted through a cooperative cancel flag.
  CounterCell queries_cancelled;
  /// Requests refused at admission (queue full / shutting down).
  CounterCell requests_rejected;
  /// HTTP requests parsed by the serving plane (all endpoints).
  CounterCell http_requests;

  /// Requests waiting for an execution slot right now.
  GaugeCell queue_depth;
  /// Requests currently executing.
  GaugeCell requests_in_flight;

  SlowQueryLog& slow_log() { return slow_log_; }
  const SlowQueryLog& slow_log() const { return slow_log_; }

  /// JSON snapshot: per-histogram count/sum/max/p50/p90/p99 plus the
  /// non-empty buckets, and the counter values.
  std::string SnapshotJson() const;

  /// Table rendering with p50/p90/p99 per histogram (natixq --metrics).
  std::string RenderText() const;

  /// Zeroes every instrument and clears the slow-query log (threshold
  /// kept). Tests and per-figure bench snapshots.
  void Reset();

 private:
  SlowQueryLog slow_log_;
};

#else  // NATIX_OBS_DISABLED: inline no-op stubs, same surface.

inline uint64_t MonotonicNowNs() { return 0; }

class LatencyHistogram {
 public:
  static constexpr int kBuckets = 64;
  void Record(uint64_t) {}
  uint64_t count() const { return 0; }
  uint64_t sum() const { return 0; }
  uint64_t max() const { return 0; }
  uint64_t Percentile(double) const { return 0; }
  std::vector<std::pair<int, uint64_t>> NonZeroBuckets() const { return {}; }
  static uint64_t BucketLowerBound(int) { return 0; }
  static uint64_t BucketUpperBound(int) { return 0; }
  void Reset() {}
};

class CounterCell {
 public:
  void Add(uint64_t = 1) {}
  uint64_t value() const { return 0; }
  void Reset() {}
};

class GaugeCell {
 public:
  void Add(int64_t = 1) {}
  void Sub(int64_t = 1) {}
  void Set(int64_t) {}
  int64_t value() const { return 0; }
  void Reset() {}
};

struct SlowQueryEntry {
  uint64_t sequence = 0;
  std::string xpath;
  uint64_t exec_ns = 0;
  uint64_t page_faults = 0;
  uint64_t tuples = 0;
  std::string analyze;
};

class SlowQueryLog {
 public:
  static constexpr uint64_t kDisabled = ~uint64_t{0};
  static constexpr size_t kDefaultCapacity = 64;
  void set_threshold_ns(uint64_t) {}
  uint64_t threshold_ns() const { return kDisabled; }
  bool ShouldLog(uint64_t) const { return false; }
  void Record(SlowQueryEntry) {}
  std::vector<SlowQueryEntry> Dump() const { return {}; }
  std::string RenderText() const {
    return "slow-query log disabled (NATIX_OBS=OFF)\n";
  }
  uint64_t total_logged() const { return 0; }
  void Clear() {}
};

class MetricsRegistry {
 public:
  static MetricsRegistry& Global() {
    static MetricsRegistry registry;
    return registry;
  }

  LatencyHistogram compile_ns;
  LatencyHistogram exec_ns;
  LatencyHistogram pages_per_query;
  LatencyHistogram tuples_per_query;
  LatencyHistogram queue_wait_ns;

  CounterCell queries_compiled;
  CounterCell queries_executed;
  CounterCell compile_errors;
  CounterCell exec_errors;
  CounterCell slow_queries;
  CounterCell plan_cache_hits;
  CounterCell plan_cache_misses;
  CounterCell nvm_insns_retired;
  CounterCell early_exits;
  CounterCell deadline_exceeded;
  CounterCell queries_cancelled;
  CounterCell requests_rejected;
  CounterCell http_requests;

  GaugeCell queue_depth;
  GaugeCell requests_in_flight;

  SlowQueryLog& slow_log() { return slow_log_; }
  const SlowQueryLog& slow_log() const { return slow_log_; }
  std::string SnapshotJson() const { return "{\"disabled\":true}"; }
  std::string RenderText() const {
    return "metrics disabled (NATIX_OBS=OFF)\n";
  }
  void Reset() {}

 private:
  SlowQueryLog slow_log_;
};

#endif  // NATIX_OBS_DISABLED

}  // namespace natix::obs

#endif  // NATIX_OBS_METRICS_H_
