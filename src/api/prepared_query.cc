#include "api/prepared_query.h"

#include "base/xpath_number.h"

#include "analysis/plan_verifier.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qe/codegen.h"
#include "runtime/conversions.h"
#include "xpath/fold.h"
#include "xpath/normalizer.h"
#include "xpath/parser.h"
#include "xpath/sema.h"

namespace natix {

namespace {

/// The compiler pipeline of Sec. 5.1. Each phase emits its own trace
/// span; this helper exists so the caller can time and account for the
/// whole pipeline once, success or failure.
StatusOr<std::unique_ptr<qe::PlanTemplate>> RunCompilePipeline(
    std::string_view xpath, const storage::NodeStore* store,
    const translate::TranslatorOptions& options) {
  NATIX_ASSIGN_OR_RETURN(xpath::ExprPtr ast, xpath::ParseXPath(xpath));
  NATIX_RETURN_IF_ERROR(xpath::Analyze(ast.get()));
  xpath::FoldConstants(ast.get());
  xpath::Normalize(ast.get());
  // The one read of the verification switch per Prepare: translation,
  // every rewrite and codegen follow the same verdict.
  const bool verify = analysis::VerificationEnabled();
  NATIX_ASSIGN_OR_RETURN(translate::TranslationResult translation,
                         translate::Translate(*ast, options, verify));
  return qe::Codegen::Prepare(std::move(translation), store, verify);
}

/// Feeds the registry for a failed evaluation: deadline expiry and
/// cooperative cancellation are operational outcomes with their own
/// counters (serving telemetry), everything else is an exec error.
void CountExecutionFailure(const Status& status) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  switch (status.code()) {
    case StatusCode::kDeadlineExceeded:
      metrics.deadline_exceeded.Add();
      break;
    case StatusCode::kCancelled:
      metrics.queries_cancelled.Add();
      break;
    default:
      metrics.exec_errors.Add();
      break;
  }
}

}  // namespace

StatusOr<std::shared_ptr<const PreparedQuery>> PreparedQuery::Prepare(
    std::string_view xpath, const storage::NodeStore* store,
    const translate::TranslatorOptions& options) {
  obs::ScopedSpan span("compile", xpath);
  const uint64_t begin_ns = obs::MonotonicNowNs();
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  auto plan = RunCompilePipeline(xpath, store, options);
  if (!plan.ok()) {
    metrics.compile_errors.Add();
    return plan.status();
  }
  metrics.compile_ns.Record(obs::MonotonicNowNs() - begin_ns);
  metrics.queries_compiled.Add();
  return std::shared_ptr<const PreparedQuery>(new PreparedQuery(
      store, std::move(plan).value(), std::string(xpath)));
}

StatusOr<std::unique_ptr<PreparedQuery::Execution>>
PreparedQuery::NewExecution(bool collect_stats) const {
  return std::unique_ptr<Execution>(
      new Execution(shared_from_this(), plan_->NewContext(collect_stats)));
}

void PreparedQuery::Execution::SetVariable(const std::string& name,
                                           runtime::Value value) {
  context_->SetVariable(name, std::move(value));
}

Status PreparedQuery::Execution::BindContext(storage::NodeId context) {
  // Stats begin first: the context node's page enters the execution's
  // page set here, and its fix belongs to the query.
  BeginStats();
  storage::NodeHeader header;
  NATIX_RETURN_IF_ERROR(context_->eval_ctx.nodes->ReadHeader(context, &header));
  context_->SetContextNode(runtime::NodeRef::Make(context, header.order));
  return Status::OK();
}

void PreparedQuery::Execution::BeginStats() {
  tuples_baseline_ = context_->tuples_produced;
  nvm_baseline_ = context_->nvm_insns_retired;
  // Coherent per-query baseline: with concurrent executions over a
  // striped pool, relaxed multi-counter reads could tear.
  buffer_baseline_ = obs::SnapshotBufferCounters(store_->buffer_manager());
  exec_begin_ns_ = obs::MonotonicNowNs();
}

void PreparedQuery::Execution::EndStats() {
  last_stats_.step_tuples = context_->tuples_produced - tuples_baseline_;
  last_stats_.nvm_insns = context_->nvm_insns_retired - nvm_baseline_;
  obs::BufferCounters now =
      obs::SnapshotBufferCounters(store_->buffer_manager());
  last_stats_.page_faults = now.page_reads - buffer_baseline_.page_reads;
  if (obs::QueryStats* stats = context_->stats()) {
    // Query-level buffer deltas accumulate across evaluations alongside
    // the per-operator counters.
    stats->buffer() += obs::BufferCounters{
        now.page_reads - buffer_baseline_.page_reads,
        now.page_hits - buffer_baseline_.page_hits,
        now.page_writes - buffer_baseline_.page_writes,
        now.evictions - buffer_baseline_.evictions};
    stats->RecordExecution();
  }

  // Feed the process-wide registry (compiles away under NATIX_OBS=OFF).
  const uint64_t exec_ns = obs::MonotonicNowNs() - exec_begin_ns_;
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.exec_ns.Record(exec_ns);
  metrics.pages_per_query.Record(last_stats_.page_faults);
  metrics.tuples_per_query.Record(last_stats_.step_tuples);
  metrics.nvm_insns_retired.Add(last_stats_.nvm_insns);
  metrics.queries_executed.Add();
  obs::SlowQueryLog& slow_log = metrics.slow_log();
  if (slow_log.ShouldLog(exec_ns)) {
    metrics.slow_queries.Add();
    obs::SlowQueryEntry entry;
    entry.xpath = prepared_->text();
    entry.exec_ns = exec_ns;
    entry.page_faults = last_stats_.page_faults;
    entry.tuples = last_stats_.step_tuples;
    entry.analyze = ExplainAnalyze();
    slow_log.Record(std::move(entry));
  }
}

StatusOr<std::vector<runtime::NodeRef>> PreparedQuery::Execution::RunNodes(
    storage::NodeId context) {
  NATIX_RETURN_IF_ERROR(BindContext(context));
  StatusOr<std::vector<runtime::NodeRef>> refs = context_->ExecuteNodes();
  if (!refs.ok()) {
    CountExecutionFailure(refs.status());
    return refs.status();
  }
  EndStats();
  return refs;
}

StatusOr<std::vector<storage::StoredNode>>
PreparedQuery::Execution::EvaluateNodes(storage::NodeId context,
                                        bool document_order) {
  storage::PageSetRelease release(context_->eval_ctx.nodes);
  NATIX_ASSIGN_OR_RETURN(std::vector<runtime::NodeRef> refs,
                         RunNodes(context));
  // The sort is skipped when property inference proved the plan's result
  // stream arrives document-ordered already (the oracle asserts the claim
  // under NATIX_VERIFY_PLANS).
  if (document_order && (context_->force_result_sort() ||
                         !prepared_->ResultDocumentOrdered())) {
    obs::ScopedSpan span("exec/sort");
    qe::SortResultNodes(&refs);
  }
  std::vector<storage::StoredNode> nodes;
  nodes.reserve(refs.size());
  for (const runtime::NodeRef& ref : refs) {
    nodes.emplace_back(store_, ref.node_id());
  }
  return nodes;
}

StatusOr<runtime::Value> PreparedQuery::Execution::EvaluateValue(
    storage::NodeId context) {
  storage::PageSetRelease release(context_->eval_ctx.nodes);
  NATIX_RETURN_IF_ERROR(BindContext(context));
  StatusOr<runtime::Value> value = context_->ExecuteValue();
  if (!value.ok()) {
    CountExecutionFailure(value.status());
    return value.status();
  }
  EndStats();
  return value;
}

StatusOr<double> PreparedQuery::Execution::EvaluateNumber(
    storage::NodeId context) {
  storage::PageSetRelease release(context_->eval_ctx.nodes);
  xpath::ExprType type = prepared_->result_type();
  if (type == xpath::ExprType::kNodeSet ||
      type == xpath::ExprType::kString) {
    NATIX_ASSIGN_OR_RETURN(std::string s, EvaluateString(context));
    return StringToXPathNumber(s);
  }
  NATIX_ASSIGN_OR_RETURN(runtime::Value value, EvaluateValue(context));
  return runtime::ToNumber(value, context_->eval_ctx);
}

StatusOr<bool> PreparedQuery::Execution::EvaluateBoolean(
    storage::NodeId context) {
  storage::PageSetRelease release(context_->eval_ctx.nodes);
  if (prepared_->result_type() == xpath::ExprType::kNodeSet) {
    NATIX_ASSIGN_OR_RETURN(std::vector<runtime::NodeRef> refs,
                           RunNodes(context));
    return !refs.empty();
  }
  NATIX_ASSIGN_OR_RETURN(runtime::Value value, EvaluateValue(context));
  return runtime::ToBoolean(value, context_->eval_ctx);
}

StatusOr<std::string> PreparedQuery::Execution::EvaluateString(
    storage::NodeId context) {
  storage::PageSetRelease release(context_->eval_ctx.nodes);
  if (prepared_->result_type() == xpath::ExprType::kNodeSet) {
    NATIX_ASSIGN_OR_RETURN(std::vector<runtime::NodeRef> refs,
                           RunNodes(context));
    if (refs.empty()) return std::string();
    if (!prepared_->ResultDocumentOrdered()) qe::SortResultNodes(&refs);
    return context_->eval_ctx.nodes->StringValue(refs.front().node_id());
  }
  NATIX_ASSIGN_OR_RETURN(runtime::Value value, EvaluateValue(context));
  return runtime::ToStringValue(value, context_->eval_ctx);
}

}  // namespace natix
