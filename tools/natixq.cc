// natixq — command-line XPath for XML files (xmllint --xpath flavored),
// running the full algebraic pipeline.
//
// Usage:
//   natixq [options] <file.xml> <xpath>
//   natixq [options] --queries-file=F <file.xml> [<xpath>]
//   options:
//     --explain       print logical + physical plans, inferred stream
//                     properties, and property-justified rewrites
//                     instead of evaluating
//     --explain-json  print the operator tree with its inferred
//                     properties as JSON instead of evaluating
//     --canonical     use the canonical (Sec. 3) translation
//     --values        print string-values instead of XML serialization
//     --count         print only the number of result nodes
//     --stats         print execution statistics to stderr after running
//     --analyze       run the query with per-operator instrumentation and
//                     print the EXPLAIN ANALYZE tree (counters, timings,
//                     page I/O) to stdout after the result summary
//     --verify-plans  statically verify the compiled plan (logical,
//                     register dataflow, NVM subscripts); on by default
//                     in debug builds
//     --dump-nvm      print the symbolic NVM disassembly of every
//                     compiled subscript program (basic-block labels,
//                     operand roles) with the static instruction count,
//                     instead of evaluating
//     --var k=v       bind $k to the string v (repeatable)
//     --trace=FILE    trace the compile/execution pipeline and write
//                     Chrome trace_event JSON (Perfetto-loadable) to FILE
//     --metrics       print the process-wide metrics registry (latency
//                     histograms with p50/p90/p99, counters) after running
//     --metrics-json=FILE
//                     write the metrics snapshot as JSON to FILE
//     --slow-log[=MS] log queries running >= MS milliseconds (default 0:
//                     log everything) and dump the slow-query log at exit;
//                     implies per-operator instrumentation
//     --queries-file=F
//                     batch mode: additionally run every non-empty,
//                     non-'#' line of F as a query against <file.xml>
//     --jobs=N        batch mode: execute the queries on N worker
//                     threads (shared plan cache, striped buffer pool);
//                     prints the batch wall time and queries/sec
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/plan_verifier.h"
#include "api/database.h"
#include "obs/metrics.h"
#include "xml/writer.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: natixq [--explain] [--explain-json] [--analyze] "
               "[--canonical] [--dump-nvm] "
               "[--values] [--count] [--verify-plans] [--var k=v]... "
               "[--trace=FILE] [--metrics] [--metrics-json=FILE] "
               "[--slow-log[=MS]] [--queries-file=F] [--jobs=N] "
               "<file.xml> [<xpath>]\n");
  return 2;
}

bool WriteFileOrWarn(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  if (!out || !(out << text)) {
    std::fprintf(stderr, "natixq: cannot write '%s'\n", path.c_str());
    return false;
  }
  return true;
}

/// Compiles and evaluates one query of the batch, discarding results.
/// Returns false (after a diagnostic) on compile or execution failure.
bool RunBatchQuery(natix::Database* db, natix::storage::NodeId root,
                   const std::string& xpath,
                   const natix::translate::TranslatorOptions& options,
                   bool collect_stats) {
  auto query = db->Compile(xpath, options, collect_stats);
  if (!query.ok()) {
    std::fprintf(stderr, "natixq: %s: %s\n", xpath.c_str(),
                 query.status().ToString().c_str());
    return false;
  }
  if ((*query)->prepared().result_type() == natix::xpath::ExprType::kNodeSet) {
    auto nodes = (*query)->EvaluateNodes(root);
    if (!nodes.ok()) {
      std::fprintf(stderr, "natixq: %s: %s\n", xpath.c_str(),
                   nodes.status().ToString().c_str());
      return false;
    }
  } else {
    auto value = (*query)->EvaluateString(root);
    if (!value.ok()) {
      std::fprintf(stderr, "natixq: %s: %s\n", xpath.c_str(),
                   value.status().ToString().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool explain = false;
  bool explain_json = false;
  bool analyze = false;
  bool canonical = false;
  bool dump_nvm = false;
  bool values = false;
  bool count_only = false;
  bool stats = false;
  bool metrics = false;
  bool slow_log = false;
  double slow_log_ms = 0.0;
  long jobs = 1;
  std::string trace_path;
  std::string metrics_json_path;
  std::string queries_file;
  std::vector<std::pair<std::string, std::string>> variables;
  std::vector<std::string> positional;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--explain") {
      explain = true;
    } else if (arg == "--explain-json") {
      explain_json = true;
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--canonical") {
      canonical = true;
    } else if (arg == "--dump-nvm") {
      dump_nvm = true;
    } else if (arg == "--values") {
      values = true;
    } else if (arg == "--count") {
      count_only = true;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json_path = arg.substr(std::strlen("--metrics-json="));
      if (metrics_json_path.empty()) return Usage();
    } else if (arg == "--slow-log") {
      slow_log = true;
    } else if (arg.rfind("--slow-log=", 0) == 0) {
      slow_log = true;
      slow_log_ms = std::strtod(arg.c_str() + std::strlen("--slow-log="),
                                nullptr);
      if (slow_log_ms < 0) return Usage();
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(std::strlen("--trace="));
      if (trace_path.empty()) return Usage();
    } else if (arg.rfind("--queries-file=", 0) == 0) {
      queries_file = arg.substr(std::strlen("--queries-file="));
      if (queries_file.empty()) return Usage();
    } else if (arg.rfind("--jobs=", 0) == 0) {
      char* end = nullptr;
      jobs = std::strtol(arg.c_str() + std::strlen("--jobs="), &end, 10);
      if (jobs < 1 || (end != nullptr && *end != '\0')) return Usage();
    } else if (arg == "--verify-plans") {
      natix::analysis::SetVerificationEnabled(true);
    } else if (arg == "--var") {
      if (++i >= argc) return Usage();
      std::string binding = argv[i];
      auto eq = binding.find('=');
      if (eq == std::string::npos) return Usage();
      variables.emplace_back(binding.substr(0, eq), binding.substr(eq + 1));
    } else if (arg.rfind("--", 0) == 0) {
      return Usage();
    } else {
      positional.push_back(arg);
    }
  }
  // Batch mode needs only the document; the inline query is optional then.
  if (queries_file.empty() ? positional.size() != 2
                           : (positional.empty() || positional.size() > 2)) {
    return Usage();
  }

  auto db = natix::Database::CreateTemp();
  if (!db.ok()) {
    std::fprintf(stderr, "natixq: %s\n", db.status().ToString().c_str());
    return 1;
  }
  auto info = (*db)->LoadDocumentFile("doc", positional[0]);
  if (!info.ok()) {
    std::fprintf(stderr, "natixq: %s\n", info.status().ToString().c_str());
    return 1;
  }

  if (slow_log) {
    natix::Database::SetSlowQueryThresholdNs(
        static_cast<uint64_t>(slow_log_ms * 1e6));
  }
  if (!trace_path.empty()) natix::Database::StartTrace();

  auto options = canonical ? natix::translate::TranslatorOptions::Canonical()
                           : natix::translate::TranslatorOptions::Improved();
  // Slow-log entries carry the EXPLAIN ANALYZE tree, so the log implies
  // per-operator instrumentation.
  const bool collect_stats = analyze || slow_log;

  // Runs at every exit path below once querying has started.
  auto finish = [&]() -> int {
    if (!trace_path.empty()) {
      if (!WriteFileOrWarn(trace_path, natix::Database::StopTrace())) {
        return 1;
      }
    }
    if (!metrics_json_path.empty()) {
      if (!WriteFileOrWarn(metrics_json_path,
                           natix::Database::MetricsSnapshot())) {
        return 1;
      }
    }
    if (metrics) {
      std::printf("=== metrics ===\n%s",
                  natix::obs::MetricsRegistry::Global().RenderText().c_str());
    }
    if (slow_log) {
      std::printf("=== slow-query log ===\n%s",
                  natix::Database::SlowQueryLogText().c_str());
    }
    return 0;
  };

  int batch_failures = 0;
  if (!queries_file.empty()) {
    std::ifstream in(queries_file);
    if (!in) {
      std::fprintf(stderr, "natixq: cannot open '%s'\n",
                   queries_file.c_str());
      return 1;
    }
    std::vector<std::string> batch;
    std::string line;
    while (std::getline(in, line)) {
      // Trim trailing CR (queries files may be CRLF) and skip comments.
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      batch.push_back(line);
    }

    const auto batch_begin = std::chrono::steady_clock::now();
    if (jobs <= 1) {
      for (const std::string& xpath : batch) {
        if (!RunBatchQuery(db->get(), info->root, xpath, options,
                           collect_stats)) {
          ++batch_failures;
        }
      }
    } else {
      // Worker pool over the batch: each worker claims queries off one
      // shared cursor. Compiles are served by the database's plan cache,
      // so repeated queries are prepared once and executed everywhere.
      std::atomic<size_t> cursor{0};
      std::atomic<int> failures{0};
      std::vector<std::thread> workers;
      workers.reserve(static_cast<size_t>(jobs));
      for (long t = 0; t < jobs; ++t) {
        workers.emplace_back([&] {
          for (size_t i = cursor.fetch_add(1); i < batch.size();
               i = cursor.fetch_add(1)) {
            if (!RunBatchQuery(db->get(), info->root, batch[i], options,
                               collect_stats)) {
              failures.fetch_add(1);
            }
          }
        });
      }
      for (std::thread& worker : workers) worker.join();
      batch_failures = failures.load();
    }
    const double batch_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      batch_begin)
            .count();
    std::printf("batch: %zu queries, %d failed, %ld jobs, %.3f s, "
                "%.1f queries/sec\n",
                batch.size(), batch_failures, jobs, batch_seconds,
                batch_seconds > 0 ? batch.size() / batch_seconds : 0.0);
    if (positional.size() < 2) {
      int rc = finish();
      return rc != 0 ? rc : (batch_failures != 0 ? 1 : 0);
    }
  }

  auto query = (*db)->Compile(positional[1], options, collect_stats);
  if (!query.ok()) {
    // Verifier violations (any layer) are kInternal: surface them as a
    // verification failure with a distinct exit code so release-build
    // --verify-plans runs fail loudly instead of hiding behind debug
    // asserts.
    if (natix::analysis::VerificationEnabled() &&
        query.status().code() == natix::StatusCode::kInternal) {
      std::fprintf(stderr,
                   "natixq: plan verification FAILED\n%s\n",
                   query.status().ToString().c_str());
      finish();
      return 4;
    }
    std::fprintf(stderr, "natixq: %s\n", query.status().ToString().c_str());
    finish();
    return 1;
  }
  for (const auto& [name, value] : variables) {
    (*query)->SetVariable(name, natix::runtime::Value::String(value));
  }
  const natix::PreparedQuery& prepared = (*query)->prepared();

  if (explain_json) {
    std::printf("%s", prepared.ExplainJson().c_str());
    return finish();
  }

  if (dump_nvm) {
    const natix::qe::PlanTemplate& plan = prepared.plan();
    std::printf("=== nvm (%zu instructions) ===\n%s", plan.nvm_insns(),
                plan.nvm_listing().c_str());
    return finish();
  }

  if (explain) {
    std::string rewrites;
    for (const natix::algebra::RewriteEvent& event : prepared.rewrites()) {
      rewrites += event.rule + ": " + event.target + " (" +
                  event.justification + ")\n";
    }
    if (rewrites.empty()) rewrites = "(none)\n";
    std::printf("=== logical plan ===\n%s\n=== physical plan ===\n%s"
                "=== stream properties ===\n%s"
                "=== rewrites ===\n%s"
                "=== verification ===\n%s\n",
                prepared.ExplainLogical().c_str(),
                prepared.ExplainPhysical().c_str(),
                prepared.ExplainProperties().c_str(),
                rewrites.c_str(),
                prepared.VerificationReport().c_str());
    return finish();
  }

  auto print_stats = [&] {
    if (!stats) return;
    const natix::ExecutionStats& s = (*query)->last_stats();
    std::fprintf(stderr,
                 "stats: %llu step tuples, %llu page faults, "
                 "%llu nvm insns\n",
                 static_cast<unsigned long long>(s.step_tuples),
                 static_cast<unsigned long long>(s.page_faults),
                 static_cast<unsigned long long>(s.nvm_insns));
  };

  int rc = 0;
  if (prepared.result_type() == natix::xpath::ExprType::kNodeSet) {
    auto nodes = (*query)->EvaluateNodes(info->root);
    if (!nodes.ok()) {
      std::fprintf(stderr, "natixq: %s\n",
                   nodes.status().ToString().c_str());
      finish();
      return 1;
    }
    print_stats();
    if (analyze) {
      // EXPLAIN ANALYZE mode: the result summary and the instrumented
      // operator tree replace the serialized result (Postgres style).
      std::printf("result: %zu nodes\n=== explain analyze ===\n%s",
                  nodes->size(), (*query)->ExplainAnalyze().c_str());
    } else if (count_only) {
      std::printf("%zu\n", nodes->size());
    } else {
      for (const auto& node : *nodes) {
        if (values) {
          auto text = node.string_value();
          if (text.ok()) std::printf("%s\n", text->c_str());
        } else {
          auto xml = natix::xml::OuterXml(node);
          if (xml.ok()) std::printf("%s\n", xml->c_str());
        }
      }
      if (nodes->empty()) rc = 3;  // xmllint-style: 3 = empty node set
    }
  } else {
    auto result = (*query)->EvaluateString(info->root);
    if (!result.ok()) {
      std::fprintf(stderr, "natixq: %s\n",
                   result.status().ToString().c_str());
      finish();
      return 1;
    }
    print_stats();
    if (analyze) {
      std::printf("result: %s\n=== explain analyze ===\n%s",
                  result->c_str(), (*query)->ExplainAnalyze().c_str());
    } else {
      std::printf("%s\n", result->c_str());
    }
  }

  int finish_rc = finish();
  if (finish_rc != 0) return finish_rc;
  if (batch_failures != 0) return 1;
  return rc;
}
