#include "util.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "base/logging.h"
#include "gen/xdoc_generator.h"
#include "obs/metrics.h"

namespace natix::benchutil {

double TimeSeconds(const std::function<void()>& fn) {
  auto begin = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  return elapsed.count();
}

double BestOf(int runs, const std::function<void()>& fn) {
  double best = 1e100;
  for (int i = 0; i < runs; ++i) {
    double t = TimeSeconds(fn);
    if (t < best) best = t;
  }
  return best;
}

int BenchReps() {
  if (const char* env = std::getenv("NATIX_BENCH_REPS")) {
    int reps = std::atoi(env);
    if (reps >= 1) return reps;
  }
  return 7;
}

RepTimings TimeRepeated(int runs, const std::function<void()>& fn) {
  if (runs < 1) runs = 1;
  std::vector<double> samples;
  samples.reserve(runs);
  for (int i = 0; i < runs; ++i) samples.push_back(TimeSeconds(fn));
  std::sort(samples.begin(), samples.end());
  RepTimings out;
  out.runs = runs;
  out.min_s = samples.front();
  out.median_s = samples[samples.size() / 2];
  // Nearest-rank p95 (for the default 7 reps this is the max).
  size_t rank = static_cast<size_t>(0.95 * (samples.size() - 1) + 0.5);
  out.p95_s = samples[rank];
  return out;
}

LoadedDocument LoadAll(const std::string& xml) {
  LoadedDocument out;
  auto db = Database::CreateTemp();
  NATIX_CHECK(db.ok());
  out.db = std::move(db.value());
  auto info = out.db->LoadDocument("doc", xml);
  NATIX_CHECK(info.ok());
  out.root = info->root;
  auto dom = dom::ParseDocument(xml);
  NATIX_CHECK(dom.ok());
  out.dom = std::move(dom.value());
  return out;
}

namespace {

/// One evaluation from the document root; returns the NVM instructions
/// it retired.
uint64_t RunOnce(PreparedQuery::Execution* exec, storage::NodeId root) {
  if (exec->prepared().result_type() == xpath::ExprType::kNodeSet) {
    auto nodes = exec->EvaluateNodes(root, /*document_order=*/false);
    NATIX_CHECK(nodes.ok());
  } else {
    auto value = exec->EvaluateValue(root);
    NATIX_CHECK(value.ok());
  }
  return exec->last_stats().nvm_insns;
}

std::unique_ptr<PreparedQuery::Execution> CompileOrDie(
    LoadedDocument& doc, const std::string& query,
    const translate::TranslatorOptions& options,
    bool collect_stats = false) {
  auto exec = doc.db->Compile(query, options, collect_stats);
  NATIX_CHECK(exec.ok());
  return std::move(exec).value();
}

}  // namespace

double TimeNatix(LoadedDocument& doc, const std::string& query,
                 bool canonical) {
  auto exec = CompileOrDie(doc, query,
                           canonical
                               ? translate::TranslatorOptions::Canonical()
                               : translate::TranslatorOptions::Improved());
  return TimeSeconds([&] { RunOnce(exec.get(), doc.root); });
}

RepTimings TimeNatixRepsWith(LoadedDocument& doc, const std::string& query,
                             const translate::TranslatorOptions& options) {
  auto exec = CompileOrDie(doc, query, options);
  return TimeRepeated(BenchReps(), [&] { RunOnce(exec.get(), doc.root); });
}

uint64_t CountNvmRetired(LoadedDocument& doc, const std::string& query) {
  return RunOnce(
      CompileOrDie(doc, query, translate::TranslatorOptions::Improved())
          .get(),
      doc.root);
}

StatsRun TimeNatixWithStats(LoadedDocument& doc, const std::string& query) {
  auto exec =
      CompileOrDie(doc, query, translate::TranslatorOptions::Improved(),
                   /*collect_stats=*/true);
  StatsRun run;
  run.seconds = TimeSeconds([&] { RunOnce(exec.get(), doc.root); });
  const obs::QueryStats* stats = exec->Stats();
  NATIX_CHECK(stats != nullptr);
  run.totals = stats->ComputeTotals();
  run.buffer = stats->buffer();
  return run;
}

double TimeInterp(LoadedDocument& doc, const std::string& query,
                  bool memoize) {
  interp::EvaluatorOptions options;
  options.memoize = memoize;
  return TimeSeconds([&] {
    auto result =
        interp::Evaluator::Run(doc.dom.get(), query, doc.dom->root(),
                               options);
    NATIX_CHECK(result.ok());
  });
}

RepTimings TimeInterpReps(LoadedDocument& doc, const std::string& query,
                          bool memoize) {
  interp::EvaluatorOptions options;
  options.memoize = memoize;
  return TimeRepeated(BenchReps(), [&] {
    auto result =
        interp::Evaluator::Run(doc.dom.get(), query, doc.dom->root(),
                               options);
    NATIX_CHECK(result.ok());
  });
}

size_t CountNatix(LoadedDocument& doc, const std::string& query) {
  auto nodes = doc.db->QueryNodes("doc", query);
  NATIX_CHECK(nodes.ok());
  return nodes->size();
}

std::vector<DocPoint> PaperDocSweep() {
  // Paper x-axes: 2000..8000 elements (fanout 6) and 10000..80000
  // (fanout 10). Depth 5 lets the element budget bind exactly (see
  // EXPERIMENTS.md on the paper's depth-4 figure).
  std::vector<DocPoint> sweep = {
      {2000, 6, 5},  {4000, 6, 5},   {6000, 6, 5},   {8000, 6, 5},
      {10000, 10, 5}, {20000, 10, 5}, {40000, 10, 5}, {80000, 10, 5},
  };
  // NATIX_BENCH_SMALL=1 trims the sweep for quick runs / CI.
  if (std::getenv("NATIX_BENCH_SMALL") != nullptr) {
    sweep = {{2000, 6, 5}, {8000, 6, 5}, {20000, 10, 5}};
  }
  return sweep;
}

namespace {

/// One sweep point of the JSON emission (runs == 0 / negative timing =
/// skipped system).
struct JsonRow {
  uint64_t elements = 0;
  size_t results = 0;
  RepTimings natix;
  /// Rewrite ablation: same translation with the property-justified
  /// simplifier off (the "before" of the Sort/DupElim elimination).
  RepTimings natix_no_rewrite;
  uint64_t nvm_retired = 0;
  RepTimings interp_memo;
  RepTimings interp_naive;
  StatsRun stats{-1, {}, {}};
};

void AppendTiming(std::string* out, const char* key, double value) {
  char buf[64];
  if (value < 0) {
    std::snprintf(buf, sizeof(buf), "\"%s\": null", key);
  } else {
    std::snprintf(buf, sizeof(buf), "\"%s\": %.6f", key, value);
  }
  *out += buf;
}

/// Emits <prefix>_min_s / _median_s / _p95_s (null when skipped).
void AppendReps(std::string* out, const char* prefix,
                const RepTimings& reps) {
  const bool ran = reps.runs > 0;
  AppendTiming(out, (std::string(prefix) + "_min_s").c_str(),
               ran ? reps.min_s : -1);
  *out += ", ";
  AppendTiming(out, (std::string(prefix) + "_median_s").c_str(),
               ran ? reps.median_s : -1);
  *out += ", ";
  AppendTiming(out, (std::string(prefix) + "_p95_s").c_str(),
               ran ? reps.p95_s : -1);
}

void AppendCounter(std::string* out, const char* key, uint64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %llu", key,
                static_cast<unsigned long long>(value));
  *out += buf;
}

/// Writes BENCH_<fig>.json (fig = the figure name up to the first
/// space) into the working directory: per-point timings plus the
/// counter totals of one instrumented run, for dashboards and the
/// counter-based figure analyses in EXPERIMENTS.md.
void WriteBenchJson(const char* figure, const std::string& query,
                    const std::vector<JsonRow>& rows) {
  std::string name(figure);
  auto space = name.find(' ');
  if (space != std::string::npos) name = name.substr(0, space);
  std::string path = "BENCH_" + name + ".json";

  char reps_buf[48];
  std::snprintf(reps_buf, sizeof(reps_buf), "%d", BenchReps());
  std::string out = "{\n  \"figure\": \"" + std::string(figure) +
                    "\",\n  \"query\": \"" + query +
                    "\",\n  \"reps\": " + reps_buf + ",\n  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    out += "    {";
    AppendCounter(&out, "elements", row.elements);
    out += ", ";
    AppendCounter(&out, "results", row.results);
    out += ",\n     ";
    AppendReps(&out, "natix", row.natix);
    out += ",\n     ";
    AppendReps(&out, "natix_no_rewrite", row.natix_no_rewrite);
    out += ", ";
    AppendTiming(&out, "natix_stats_s", row.stats.seconds);
    out += ",\n     ";
    AppendReps(&out, "interp_memo", row.interp_memo);
    out += ",\n     ";
    AppendReps(&out, "interp_naive", row.interp_naive);
    out += ",\n     \"counters\": {";
    const obs::StatsTotals& t = row.stats.totals;
    AppendCounter(&out, "open_calls", t.open_calls);
    out += ", ";
    AppendCounter(&out, "next_calls", t.next_calls);
    out += ", ";
    AppendCounter(&out, "tuples", t.tuples);
    out += ", ";
    AppendCounter(&out, "memo_hits", t.memo_hits);
    out += ", ";
    AppendCounter(&out, "memo_misses", t.memo_misses);
    out += ", ";
    AppendCounter(&out, "spooled_rows", t.spooled_rows);
    out += ", ";
    AppendCounter(&out, "replayed_rows", t.replayed_rows);
    out += ", ";
    AppendCounter(&out, "cache_hits", t.cache_hits);
    out += ", ";
    AppendCounter(&out, "agg_evals", t.agg_evals);
    out += ", ";
    AppendCounter(&out, "agg_input", t.agg_input);
    out += ", ";
    AppendCounter(&out, "early_exits", t.early_exits);
    out += ", ";
    AppendCounter(&out, "page_reads", row.stats.buffer.page_reads);
    out += ", ";
    AppendCounter(&out, "page_hits", row.stats.buffer.page_hits);
    out += ", ";
    AppendCounter(&out, "nvm_insns_retired", row.nvm_retired);
    out += "}}";
    out += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  // The process-wide histogram snapshot of the figure's run (the
  // registry is reset when the figure starts).
  out += "  ],\n  \"metrics\": " +
         obs::MetricsRegistry::Global().SnapshotJson() + "\n}\n";

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;  // read-only working dir: skip emission
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

}  // namespace

void RunGeneratedFigure(const char* figure, const std::string& query,
                        double budget_s) {
  // A fresh registry scopes the embedded metrics snapshot to this figure.
  obs::MetricsRegistry::Global().Reset();
  std::printf("# %s: %s (%d reps/point, median plotted)\n", figure,
              query.c_str(), BenchReps());
  std::printf("%-9s %9s %12s %12s %14s %14s\n", "elements", "results",
              "natix[s]", "no-rewrite[s]", "interp-memo[s]",
              "interp-naive[s]");
  // The rewrite ablation column: the improved translation with the
  // property-justified simplifier off.
  const translate::TranslatorOptions improved =
      translate::TranslatorOptions::Improved();
  translate::TranslatorOptions no_rewrite = improved;
  no_rewrite.simplify_plan = false;
  double last_natix = 0;
  double last_memo = 0;
  double last_naive = 0;
  std::vector<JsonRow> rows;
  for (const DocPoint& point : PaperDocSweep()) {
    gen::XDocOptions options;
    options.max_elements = point.elements;
    options.fanout = point.fanout;
    options.depth = point.depth;
    LoadedDocument doc = LoadAll(gen::GenerateXDoc(options));

    JsonRow row;
    row.elements = point.elements;
    std::printf("%-9llu", static_cast<unsigned long long>(point.elements));
    if (last_natix <= budget_s) {
      size_t results = CountNatix(doc, query);
      row.natix = TimeNatixRepsWith(doc, query, improved);
      last_natix = row.natix.median_s;
      row.results = results;
      row.natix_no_rewrite = TimeNatixRepsWith(doc, query, no_rewrite);
      row.nvm_retired = CountNvmRetired(doc, query);
      // A second, instrumented run gathers the per-operator counters
      // without polluting the uninstrumented timings above.
      row.stats = TimeNatixWithStats(doc, query);
      std::printf(" %9zu %12.4f %12.4f", results, row.natix.median_s,
                  row.natix_no_rewrite.median_s);
    } else {
      std::printf(" %9s %12s %12s", "-", "-", "-");
    }
    if (last_memo <= budget_s) {
      row.interp_memo = TimeInterpReps(doc, query, /*memoize=*/true);
      last_memo = row.interp_memo.median_s;
      std::printf(" %14.4f", row.interp_memo.median_s);
    } else {
      std::printf(" %14s", "-");  // skipped: previous size over budget
    }
    if (last_naive <= budget_s) {
      row.interp_naive = TimeInterpReps(doc, query, /*memoize=*/false);
      last_naive = row.interp_naive.median_s;
      std::printf(" %14.4f\n", row.interp_naive.median_s);
    } else {
      std::printf(" %14s\n", "-");
    }
    std::fflush(stdout);
    rows.push_back(row);
  }
  WriteBenchJson(figure, query, rows);
  std::printf("\n");
}

}  // namespace natix::benchutil
