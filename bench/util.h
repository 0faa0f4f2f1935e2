#ifndef NATIX_BENCH_UTIL_H_
#define NATIX_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix::benchutil {

/// Wall-clock seconds of one invocation of `fn` (which must not fail).
double TimeSeconds(const std::function<void()>& fn);

/// Best-of-`runs` timing.
double BestOf(int runs, const std::function<void()>& fn);

/// Order statistics over repeated timings of one measurement point.
/// Single numbers hide run-to-run variance; the drivers report the
/// median (the plotted value), the min (the noise floor) and the p95
/// (the tail) of `runs` repetitions.
struct RepTimings {
  int runs = 0;
  double min_s = 0;
  double median_s = 0;
  double p95_s = 0;
};

/// Repetitions per measurement point: NATIX_BENCH_REPS when set (min 1),
/// otherwise 7.
int BenchReps();

/// Times `runs` invocations of `fn` and returns their order statistics.
RepTimings TimeRepeated(int runs, const std::function<void()>& fn);

/// A document loaded into all three systems under comparison: the Natix
/// store (algebraic engine) and the DOM (interpreters). Load/parse time
/// is excluded from query timings, matching the paper's methodology
/// (Sec. 6.2: "the times do not include the time to parse/load the
/// document").
struct LoadedDocument {
  std::unique_ptr<Database> db;
  storage::NodeId root;
  std::unique_ptr<dom::Document> dom;
};

/// Loads `xml` into a scratch store and a DOM. Aborts on error (bench
/// inputs are generated, so failures are bugs).
LoadedDocument LoadAll(const std::string& xml);

/// Seconds to run `query` through the algebraic engine (improved
/// translation unless `canonical`).
double TimeNatix(LoadedDocument& doc, const std::string& query,
                 bool canonical = false);

/// BenchReps() repetitions of the algebraic engine on `query` compiled
/// with `options` (one compile, repeated evaluations). The figure
/// drivers pass the ablation's options: simplify_plan = false for the
/// "natix_no_rewrite" column, limit_pushdown = false for
/// "natix_no_limit" (docs/LIMIT-PUSHDOWN.md).
RepTimings TimeNatixRepsWith(LoadedDocument& doc, const std::string& query,
                             const translate::TranslatorOptions& options);

/// NVM subscript instructions retired by one evaluation of `query`.
uint64_t CountNvmRetired(LoadedDocument& doc, const std::string& query);

/// One instrumented run of `query`: compiles with stats collection,
/// evaluates once, and returns the wall time plus the plan-wide counter
/// totals and query-level buffer deltas (src/obs).
struct StatsRun {
  double seconds = 0;
  obs::StatsTotals totals;
  obs::BufferCounters buffer;
};
StatsRun TimeNatixWithStats(LoadedDocument& doc, const std::string& query);

/// Seconds to run `query` through the main-memory interpreter.
double TimeInterp(LoadedDocument& doc, const std::string& query,
                  bool memoize);

/// BenchReps() repetitions of the main-memory interpreter on `query`.
RepTimings TimeInterpReps(LoadedDocument& doc, const std::string& query,
                          bool memoize);

/// Result-set size via the algebraic engine (sanity column).
size_t CountNatix(LoadedDocument& doc, const std::string& query);

/// The generated-document sweep of Sec. 6.2.1: 2000-8000 elements
/// (fanout 6) and 10000-80000 (fanout 10).
struct DocPoint {
  uint64_t elements;
  uint32_t fanout;
  uint32_t depth;
};
std::vector<DocPoint> PaperDocSweep();

/// Runs one figure: `query` over the sweep, comparing the algebraic
/// engine against both interpreter flavors, printing one row per
/// document size. A system whose previous point exceeded `budget_s`
/// seconds is skipped for larger documents (mirroring the interpreter
/// curves in the paper that stop before the end of the x-axis).
void RunGeneratedFigure(const char* figure, const std::string& query,
                        double budget_s = 20.0);

}  // namespace natix::benchutil

#endif  // NATIX_BENCH_UTIL_H_
