// Shared machinery of the natix performance benchmark: argument parsing,
// result signatures, the benchmark's own span recorder, the out-of-process
// correctness oracle, fresh set-ups, the timed request window and the
// metric report. The three workloads (paper_hot.cc, adhoc_compile.cc,
// serve_mix.cc) are written against this file only; everything they call
// in the program goes through its public headers.
#ifndef NATIX_PERFBENCH_HARNESS_H_
#define NATIX_PERFBENCH_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/database.h"
#include "obs/trace.h"
#include "server/server.h"
#include "storage/buffer_manager.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for scratch store files and the trace dump.
  std::string scratch = ".";
};

/// Parses --workload/--seed/--seconds/--trace/--scratch; false on error.
bool ParseArgs(int argc, char** argv, Args* args);

uint64_t NowNs();

/// Order-sensitive signature of a result: element count plus a 64-bit
/// FNV-1a style hash over the elements in the order they arrived.
struct Sig {
  uint64_t count = 0;
  uint64_t hash = 1469598103934665603ull;

  void AddInt(uint64_t v);
  void AddString(std::string_view s);
  friend bool operator==(const Sig& a, const Sig& b) {
    return a.count == b.count && a.hash == b.hash;
  }
};

// ---------------------------------------------------------------------------
// Spans recorded by the benchmark around its calls into the program.

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;  ///< index into the same log, -1 for a root
  uint64_t request = 0;
};

/// One thread's span log. Recording is off unless `on` is set, in which
/// case Begin/End cost two clock reads and a vector append.
class SpanLog {
 public:
  explicit SpanLog(std::string label) : label_(std::move(label)) {}
  bool on = false;
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }
  const std::string& label() const { return label_; }

 private:
  std::string label_;
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, const char* name, uint64_t request = 0)
      : log_(log != nullptr && log->on ? log : nullptr),
        index_(log_ != nullptr ? log_->Begin(name, request) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

// ---------------------------------------------------------------------------
// Correctness oracle: interp::Evaluator over the DOM, in a child process
// so its memory never shows in the benchmark's peak RSS.

enum class OracleMode : uint8_t {
  kNodeRanks,  ///< in-process: ranks of the result nodes in document
               ///< order (node-sets) or string() of the value (scalars)
  kValues,     ///< served: count + string-values of the first `limit` nodes
  kXml,        ///< served: count + outer XML of the first `limit` nodes
  kCount,      ///< served: count only
};

struct OracleQuery {
  size_t doc = 0;  ///< index into the documents handed to RunOracle
  std::string xpath;
  OracleMode mode = OracleMode::kNodeRanks;
  uint64_t limit = 0;  ///< 0 = unlimited
};

struct OracleAnswer {
  bool ok = false;
  bool node_set = false;
  Sig sig;
  std::vector<uint64_t> ranks;  ///< kNodeRanks only
};

struct OracleDocInfo {
  uint64_t nodes = 0;      ///< DOM node count incl. the document node
  uint64_t shape_hash = 0; ///< hash of (kind, name) in document order
};

/// Evaluates every query against its document. `docs_info` receives one
/// entry per document (for validating the store walk). Returns false if
/// the child could not run.
bool RunOracle(const std::vector<const std::string*>& docs,
               const std::vector<OracleQuery>& queries,
               std::vector<OracleAnswer>* answers,
               std::vector<OracleDocInfo>* docs_info);

/// Maps document-order ranks of a stored document to packed NodeIds by
/// walking the store in the DOM's rank order (element, its attributes,
/// then its children). Fails if the walk disagrees with `expected`.
bool RankTable(const natix::Database& db, std::string_view doc,
               const OracleDocInfo& expected, std::vector<uint64_t>* table);

/// Signature of an in-process node-set result from oracle ranks.
Sig NodeIdSig(const std::vector<uint64_t>& ranks,
              const std::vector<uint64_t>& table);

/// Placeholder status for a StatusOr declared before its call runs.
extern const natix::Status kNotRun;

/// Evaluates `execution` once from `context` the way the benchmark's
/// in-process requests do: node-set plans through EvaluateNodes (their
/// packed ids hashed in document order), scalar plans through
/// EvaluateString. Spans "api.EvaluateNodes" / "api.EvaluateString" and
/// "bench.check" on `log`.
bool EvaluateSig(natix::PreparedQuery::Execution* execution,
                 bool node_set, natix::storage::NodeId context, Sig* sig,
                 SpanLog* log, uint64_t request);

/// Parses a /query JSON body into the signature the oracle computes for
/// the served modes. Also extracts "page_faults". False if malformed.
bool ParseQueryBody(std::string_view body, Sig* sig, uint64_t* page_faults);

// ---------------------------------------------------------------------------
// Fresh set-ups, host probe, process facts.

struct Corpus {
  std::string name;
  std::string xml;
};

/// The state one set-up creates: a scratch store, the workload's fixed
/// plans and, for the serving workload, a running server.
struct Instance {
  std::string path;
  std::unique_ptr<natix::Database> db;
  std::vector<std::shared_ptr<const natix::PreparedQuery>> plans;
  std::unique_ptr<natix::server::Server> server;
  ~Instance();  ///< stops the server, then removes the store
};

/// Completes a set-up after every document is loaded (prepare the fixed
/// plans, start a server); false on failure.
using AfterLoad = std::function<bool(Instance*, SpanLog*)>;

struct SetupReport {
  double parse_ns_per_byte = 0;
  double load_ns_per_byte = 0;
  double store_bytes_per_xml_byte = 0;
  double prepare_ns = 0;       ///< mean Prepare span of the last set-up
  /// Seconds of every set-up: the ones before the window and the ones of
  /// its interludes, so that they spread over the run. setup_s is their
  /// median.
  std::vector<double> samples;
  /// Resident set when the first set-up began, after the benchmark's
  /// inputs and sample buffers were built; the resident high-water mark
  /// was reset at the same moment.
  uint64_t rss_baseline_bytes = 0;
};

/// Runs `repeats` fresh set-ups into new scratch stores and keeps the
/// last, which the window then uses. First resets the resident
/// high-water mark (peak_rss_mb counts from there). `after_load` runs
/// inside the timed set-up after every document is loaded. Span-logs the
/// final set-up into `log` when it is on.
std::unique_ptr<Instance> FreshSetups(
    const Args& args, const std::vector<Corpus>& corpora,
    const natix::Database::Options& options, int repeats,
    const AfterLoad& after_load, SpanLog* log, SetupReport* report);

/// One more fresh set-up beside the live instance, for an interlude of
/// the window: timed into report->samples, then torn down.
bool SideSetup(const Args& args, const std::vector<Corpus>& corpora,
               const natix::Database::Options& options,
               const AfterLoad& after_load, SetupReport* report);

/// A seeded request order of `length` entries: item i appears weights[i]
/// times in every block of sum(weights) entries, in a fresh shuffle per
/// block. Each class keeps its exact share of every block, while the
/// positions of rare requests, and so their overlaps across concurrent
/// clients, change from block to block.
std::vector<uint16_t> DeckSequence(const std::vector<uint32_t>& weights,
                                   uint64_t seed, size_t length);

/// Resets the process's resident high-water mark (VmHWM) to its current
/// resident set and returns that in bytes; 0 if the kernel refused.
uint64_t ResetPeakRss();

/// The process's resident high-water mark (VmHWM) in bytes; 0 if unknown.
uint64_t PeakRssBytes();

// ---------------------------------------------------------------------------
// The timed window.

/// One completed request of the timed window.
struct Sample {
  uint32_t client = 0;
  uint32_t period = 0;  ///< request period of the window it started in
  uint32_t cls = 0;   ///< request class (workload-defined)
  uint32_t item = 0;  ///< request item within the workload's list
  uint64_t start_ns = 0;
  uint64_t latency_ns = 0;
  bool traced = false;  ///< ran inside a traced slice
  bool ok = false;      ///< the call succeeded (graded later)
  Sig sig;              ///< signature of the response
  uint64_t work = 0;    ///< step tuples (in-process) / page faults (served)
};

/// Switches the program's tracer on and off (at set-up, at slice
/// boundaries of a window) and keeps every event it collected.
class ProgramTrace {
 public:
  /// Starts the tracer if `traced` and it is off; stops and collects if
  /// not `traced` and it is on.
  void Poll(bool traced);
  const std::vector<natix::obs::TraceEvent>& events() const {
    return events_;
  }

 private:
  void Collect();

  bool active_ = false;
  std::vector<natix::obs::TraceEvent> events_;
};

/// The timed window of a closed loop: `clients` threads each send their
/// next request as soon as the previous one completed, for args.seconds
/// of request time. The request time is cut into periods of
/// kPeriodSeconds; between two periods the clients pause for an
/// interlude (a side set-up), which the request time does not count.
struct Window {
  struct Period {
    uint64_t begin_ns = 0;
    uint64_t end_ns = 0;
  };
  std::vector<Sample> samples;
  std::vector<Period> periods;
  /// Resident high-water mark over the request periods, taken when the
  /// clients had stopped, before the samples were merged. Interludes do
  /// not count.
  uint64_t peak_rss_bytes = 0;
  bool interludes_ok = true;  ///< every interlude succeeded
  std::vector<std::unique_ptr<SpanLog>> logs;  ///< one per client
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  int clients = 1;
  double spin_rate_before = 0;  ///< host-speed probe around the window
  double spin_rate_after = 0;
};

/// Issues request `seq` from `client` and fills cls/item/ok/sig/work.
using RequestFn =
    std::function<void(int client, uint64_t seq, SpanLog* log, Sample*)>;

/// One sample buffer per client, sized for args.seconds at up to
/// `max_qps_per_client` requests per second and written through once, so
/// that its pages are resident before FreshSetups takes the peak_rss_mb
/// baseline and do not count as program memory. A faster client grows
/// its buffer, and that growth does count.
using SampleBuffers = std::vector<std::vector<Sample>>;
SampleBuffers MakeSampleBuffers(const Args& args, int clients,
                                double max_qps_per_client);

/// Runs the window with one client per buffer, probing host speed just
/// before and after it. A timed run calls `interlude` between request
/// periods, with every client paused; a false return clears
/// Window::interludes_ok. A traced run has no interludes; it alternates
/// traced and untraced slices and toggles the program's tracer at the
/// slice boundaries.
constexpr double kPeriodSeconds = 2.5;
Window RunWindow(const Args& args, SampleBuffers buffers,
                 const RequestFn& request, ProgramTrace* program_trace,
                 const std::function<bool()>& interlude);

/// peak_rss_mb: the resident high-water mark over the set-ups and the
/// window, above the resident set before the first set-up. The
/// benchmark's inputs (corpora, query texts, request order) and its
/// sample buffers are resident before that baseline, so the figure is the
/// program's memory.
double ProgramPeakRssMb(const SetupReport& setup, const Window& window);

/// Marks each sample correct iff its call succeeded and its signature
/// equals expected[item]; returns the number of correct samples.
uint64_t Grade(std::vector<Sample>* samples, const std::vector<Sig>& expected);

/// In a traced run, writes the set-up/extra logs and the window's client
/// logs as Chrome trace_event JSON (one tid per log) to
/// <scratch>/trace-<workload>-<seed>.json.
void WriteTrace(const Args& args, std::vector<const SpanLog*> logs,
                const Window& window);

// ---------------------------------------------------------------------------
// Metric report.

class Report {
 public:
  explicit Report(const Args& args) : args_(args) {}

  void Set(const std::string& name, double value);
  /// Records one self-check; a failed one makes the process exit non-zero.
  void Check(bool ok, const std::string& what);
  void Diagnostic(const std::string& name, double value,
                  const std::string& unit);

  /// Metrics of the window: the end-to-end latency/throughput figures
  /// (untraced samples), tracing overhead and span coverage, the api.*
  /// span means and the "percentile inside a class" self-checks.
  void WindowMetrics(const Window& window,
                     const std::vector<std::string>& class_names);

  /// Median latency per request class of the last WindowMetrics call.
  double ClassP50Ms(const std::string& name) const {
    auto it = class_p50_ms_.find(name);
    return it == class_p50_ms_.end() ? 0 : it->second;
  }

  /// Mean duration per compile of each compile/<phase> program span.
  void CompilePhases(const std::vector<natix::obs::TraceEvent>& events);

  /// setup_s, store_bytes_per_xml_byte and the set-up's per-layer figures.
  void SetupMetrics(const SetupReport& setup);

  /// Buffer-pool figures of the window from two snapshots around it;
  /// returns the hit ratio.
  double PoolMetrics(const natix::storage::BufferManager::CounterSnapshot& before,
                     const natix::storage::BufferManager::CounterSnapshot& after,
                     size_t requests);

  /// Prints the human-readable lines and the final JSON line; returns
  /// the process exit code.
  int Finish(uint64_t attempted, uint64_t failed);

 private:
  double Get(const std::string& name) const;

  const Args& args_;
  std::map<std::string, double> values_;
  std::map<std::string, double> class_p50_ms_;
  std::vector<std::pair<std::string, std::string>> diagnostics_;
  std::vector<std::string> checks_;
  bool checks_ok_ = true;
};

using ExecutionOr =
    natix::StatusOr<std::unique_ptr<natix::PreparedQuery::Execution>>;

/// Runs requests 0..count-1 in process, untimed, twice: once counting
/// page fixes (BufferManager::Snapshot deltas), step tuples and NVM
/// instructions, which repeat exactly; once with per-operator stats.
/// `run(i, collect_stats)` executes request i and returns its evaluated
/// execution. Sets nvm.insns_per_request, storage.fixes_per_step_tuple
/// and qe.self_ns.<kind> (per request).
void CountingPass(size_t count, const natix::storage::BufferManager* pool,
                  const std::function<ExecutionOr(size_t, bool)>& run,
                  Report* report);

// Workload entry points.
int RunPaperHot(const Args& args);
int RunAdhocCompile(const Args& args);
int RunServeMix(const Args& args);

}  // namespace perfbench

#endif  // NATIX_PERFBENCH_HARNESS_H_
