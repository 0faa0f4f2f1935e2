#ifndef NATIX_OBS_STATS_H_
#define NATIX_OBS_STATS_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

// Compile-time kill switch for the whole observability layer: with
// NATIX_OBS_DISABLED defined (cmake -DNATIX_OBS=OFF) every
// instrumentation site compiles to nothing and the per-call null check
// in qe::Iterator disappears. The default build keeps the layer compiled
// in but dormant: collection only happens for queries compiled with
// collect_stats, so an uninstrumented query pays one predicted-null
// branch per iterator call.

namespace natix::storage {
class BufferManager;
}  // namespace natix::storage

namespace natix::obs {

/// Snapshot of the buffer manager's global counters. Used both for
/// point-in-time captures (per-operator attribution) and for deltas
/// (per-query totals).
struct BufferCounters {
  uint64_t page_reads = 0;   ///< pages faulted in from the file
  uint64_t page_hits = 0;    ///< fixes served from the pool
  uint64_t page_writes = 0;  ///< dirty pages written back
  uint64_t evictions = 0;    ///< resident pages replaced by the clock

  BufferCounters& operator+=(const BufferCounters& o) {
    page_reads += o.page_reads;
    page_hits += o.page_hits;
    page_writes += o.page_writes;
    evictions += o.evictions;
    return *this;
  }
};

/// Reads the current counters of `buffer` (all zero for null) with four
/// independent relaxed loads: cheap enough for the per-operator timer's
/// hot path, but the four values can tear across pool stripes while
/// other queries run. Use SnapshotBufferCounters for per-query deltas.
BufferCounters CaptureBufferCounters(const storage::BufferManager* buffer);

/// Reads the counters as one coherent snapshot (every pool-stripe lock
/// held across the four reads — BufferManager::Snapshot), so deltas of
/// two snapshots never tear across shards.
BufferCounters SnapshotBufferCounters(const storage::BufferManager* buffer);

/// Per-operator counters of one compiled plan, arranged as a tree
/// mirroring the physical iterator tree (nested subscript plans hang off
/// their host operator, marked `nested`). Generic counters are maintained
/// by the Iterator NVI wrapper; family-specific counters by the operators
/// themselves through NATIX_OBS_COUNT.
struct OpStats {
  std::string label;
  /// True for the aggregate node of a subscript-evaluated nested plan
  /// (Sec. 5.2.3/5.2.5) hanging off its host operator.
  bool nested = false;

  // -- generic iterator counters (maintained by qe::Iterator) --
  uint64_t open_calls = 0;
  uint64_t next_calls = 0;
  uint64_t close_calls = 0;
  /// Next() calls that produced a tuple.
  uint64_t tuples = 0;
  /// Wall time spent inside this operator's Open/Next/Close including
  /// its children (exclusive time is derived, see exclusive_ns()).
  uint64_t inclusive_ns = 0;
  uint64_t inclusive_page_reads = 0;
  uint64_t inclusive_page_hits = 0;

  // -- operator-family counters (zero when not applicable) --
  uint64_t memo_hits = 0;       ///< MemoX: evaluations replayed
  uint64_t memo_misses = 0;     ///< MemoX: evaluations computed
  uint64_t spooled_rows = 0;    ///< Tmp^cs / MemoX: rows materialized
  uint64_t replayed_rows = 0;   ///< rows served from a materialization
  uint64_t groups = 0;          ///< Tmp^cs_c: contexts materialized
  uint64_t cache_hits = 0;      ///< chi^mat: per-key cache hits
  uint64_t cache_misses = 0;    ///< chi^mat: per-key cache misses
  uint64_t agg_evals = 0;       ///< nested aggregate: evaluations
  uint64_t agg_input = 0;       ///< nested aggregate: tuples consumed
  uint64_t early_exits = 0;     ///< smart aggregation / existential
                                ///< probes stopped before exhaustion

  /// Source for per-call page I/O attribution (null: skip capture).
  const storage::BufferManager* buffer = nullptr;

  std::vector<OpStats*> children;

  /// Time in this operator minus time in its children.
  uint64_t exclusive_ns() const;
  /// Page I/O issued by this operator itself (children subtracted).
  uint64_t exclusive_page_reads() const;
  uint64_t exclusive_page_hits() const;
};

/// Plan-wide sums used by benchmarks and quick assertions.
struct StatsTotals {
  uint64_t open_calls = 0;
  uint64_t next_calls = 0;
  uint64_t tuples = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t spooled_rows = 0;
  uint64_t replayed_rows = 0;
  uint64_t cache_hits = 0;
  uint64_t agg_evals = 0;
  uint64_t agg_input = 0;
  uint64_t early_exits = 0;
};

/// The query-scoped stats collector: owns the OpStats tree of one
/// compiled plan and the query-level buffer totals. Created by codegen
/// when a query is compiled with stats collection; counters accumulate
/// across evaluations until Reset().
class QueryStats {
 public:
  QueryStats() = default;
  QueryStats(const QueryStats&) = delete;
  QueryStats& operator=(const QueryStats&) = delete;

  /// Allocates a stats node; pointers stay valid for the collector's
  /// lifetime (deque storage).
  OpStats* NewOp(std::string label);

  void set_root(OpStats* root) { root_ = root; }
  const OpStats* root() const { return root_; }

  /// Buffer-manager deltas summed over all evaluations (maintained by
  /// the API layer around each Evaluate* call).
  BufferCounters& buffer() { return buffer_; }
  const BufferCounters& buffer() const { return buffer_; }

  uint64_t executions() const { return executions_; }
  void RecordExecution() { ++executions_; }

  /// Sums the per-operator counters over the whole tree.
  StatsTotals ComputeTotals() const;

  /// The EXPLAIN ANALYZE rendering: the operator tree, one node per
  /// line with its counters, followed by the query-level buffer line.
  /// Counter *names* are part of the stable output contract (golden
  /// tests normalize the values only).
  std::string RenderAnalyze() const;

  /// Structured JSON rendering of the same data (benchmark emission).
  std::string ToJson() const;

  /// Zeroes every counter, keeping the tree structure.
  void Reset();

  /// Finds the first node whose label starts with `prefix` (allocation
  /// order, i.e. bottom-up build order); null when absent. Test/debug
  /// convenience.
  const OpStats* FindOp(const std::string& prefix) const;

 private:
  std::deque<OpStats> ops_;
  OpStats* root_ = nullptr;
  BufferCounters buffer_;
  uint64_t executions_ = 0;
};

/// RAII span accumulating wall time and page I/O into an OpStats node.
/// Constructed only on the instrumented path (stats != nullptr).
class ScopedOpTimer {
 public:
  explicit ScopedOpTimer(OpStats* stats);
  ~ScopedOpTimer();

  ScopedOpTimer(const ScopedOpTimer&) = delete;
  ScopedOpTimer& operator=(const ScopedOpTimer&) = delete;

 private:
  OpStats* stats_;
  std::chrono::steady_clock::time_point begin_;
  BufferCounters buffer_begin_;
};

}  // namespace natix::obs

/// Increments an operator-family counter on the instrumented path.
/// Compiles to nothing under NATIX_OBS_DISABLED.
#if defined(NATIX_OBS_DISABLED)
#define NATIX_OBS_COUNT(stats, field, n) \
  do {                                   \
  } while (0)
#else
#define NATIX_OBS_COUNT(stats, field, n)           \
  do {                                             \
    if ((stats) != nullptr) (stats)->field += (n); \
  } while (0)
#endif

#endif  // NATIX_OBS_STATS_H_
