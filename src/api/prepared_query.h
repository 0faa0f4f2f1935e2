#ifndef NATIX_API_PREPARED_QUERY_H_
#define NATIX_API_PREPARED_QUERY_H_

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "obs/stats.h"
#include "qe/plan.h"
#include "storage/node_store.h"
#include "storage/stored_node.h"
#include "translate/translator.h"

namespace natix {

/// Counters from the most recent evaluation of one execution.
struct ExecutionStats {
  /// Tuples produced by location-step (unnest-map) iterators, plus the
  /// nodes NVM step loops find passing their node test.
  uint64_t step_tuples = 0;
  /// Pages faulted into the buffer pool during the evaluation.
  uint64_t page_faults = 0;
  /// NVM bytecode instructions retired by subscript programs.
  uint64_t nvm_insns = 0;
};

/// A prepared XPath query: the immutable product of the full compiler
/// pipeline of Sec. 5.1 (parse, normalize, semantic analysis, rewrite,
/// translation into algebra, property inference, code generation,
/// static verification), bound to a store.
///
/// A PreparedQuery is deeply const and therefore freely shareable:
/// any number of threads may hold the same shared_ptr, read the explain
/// surfaces, and instantiate executions concurrently. All mutable
/// evaluation state lives in the Execution objects it vends; each
/// Execution is single-threaded and pins its query alive.
///
/// This is the compile-once / execute-many API: prepare a query once
/// (or let Database::Prepare serve it from the plan cache) and create
/// one Execution per thread or call site.
///
/// Names are bound at Prepare: element, attribute and processing-
/// instruction names in node tests resolve against the store's name
/// dictionary as it stands then, and every Execution reuses that
/// binding. A name first introduced by a later LoadDocument is unknown
/// to a query prepared before it, which keeps matching nothing for that
/// name. Database::LoadDocument therefore empties the plan cache; a
/// handle held across a load keeps its compile-time binding, and a fresh
/// Prepare after the load sees the new names.
class PreparedQuery : public std::enable_shared_from_this<PreparedQuery> {
 public:
  /// Compiles `xpath` for `store` with the given translation strategy.
  static StatusOr<std::shared_ptr<const PreparedQuery>> Prepare(
      std::string_view xpath, const storage::NodeStore* store,
      const translate::TranslatorOptions& options =
          translate::TranslatorOptions::Improved());

  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  class Execution;

  /// Instantiates an independent execution of this query: a private
  /// iterator tree, register file and variable bindings. With
  /// `collect_stats` the execution carries per-operator counters
  /// (Execution::Stats / ExplainAnalyze); without it the execution runs
  /// uninstrumented. Thread-safe; the Execution keeps the query alive.
  StatusOr<std::unique_ptr<Execution>> NewExecution(
      bool collect_stats = false) const;

  /// The query's static result type.
  xpath::ExprType result_type() const { return plan_->result_type(); }

  /// The XPath text this query was compiled from.
  const std::string& text() const { return text_; }

  /// Multi-line rendering of the translated logical plan.
  const std::string& ExplainLogical() const { return plan_->logical_plan(); }

  /// The physical execution plan: the iterator tree with the attribute
  /// manager's register assignments (aliases marked).
  const std::string& ExplainPhysical() const {
    return plan_->physical_plan();
  }

  /// One-line verdict of the static plan verifier.
  const std::string& VerificationReport() const {
    return plan_->verification();
  }

  /// The logical plan annotated per operator with its inferred stream
  /// properties (cardinality, ordering, duplicate-freedom, node class).
  const std::string& ExplainProperties() const {
    return plan_->properties_plan();
  }

  /// JSON rendering of the annotated operator tree: {"plan": ...}.
  const std::string& ExplainJson() const { return plan_->properties_json(); }

  /// The property-justified rewrites applied during translation.
  const algebra::RewriteLog& rewrites() const { return plan_->rewrites(); }

  /// Whether the plan's result stream is statically guaranteed to arrive
  /// in document order, letting Evaluate* skip the final sort.
  bool ResultDocumentOrdered() const {
    return plan_->result_document_ordered();
  }

  const qe::PlanTemplate& plan() const { return *plan_; }
  const storage::NodeStore* store() const { return store_; }

 private:
  PreparedQuery(const storage::NodeStore* store,
                std::unique_ptr<qe::PlanTemplate> plan, std::string text)
      : store_(store), plan_(std::move(plan)), text_(std::move(text)) {}

  const storage::NodeStore* store_;
  std::unique_ptr<const qe::PlanTemplate> plan_;
  std::string text_;
};

/// One execution of a prepared query: the per-call state (context node,
/// $variables, register file, caches, optional per-operator stats).
/// Reusable across any number of Evaluate* calls, but single-threaded;
/// concurrency comes from one Execution per thread over the shared
/// PreparedQuery.
class PreparedQuery::Execution {
 public:
  Execution(const Execution&) = delete;
  Execution& operator=(const Execution&) = delete;

  /// Binds an XPath $variable (atomic values only).
  void SetVariable(const std::string& name, runtime::Value value);

  /// Evaluates a node-set query from `context`. Results carry set
  /// semantics; with `document_order` they are sorted, otherwise they
  /// arrive in plan order.
  StatusOr<std::vector<storage::StoredNode>> EvaluateNodes(
      storage::NodeId context, bool document_order = true);

  /// Evaluates a scalar (boolean/number/string) query from `context`.
  StatusOr<runtime::Value> EvaluateValue(storage::NodeId context);

  /// Evaluates any query and converts the result to a string: scalar
  /// results via string(), node-set results via the string-value of the
  /// node first in document order ("" for an empty result).
  StatusOr<std::string> EvaluateString(storage::NodeId context);

  /// Evaluates any query and converts the result with number() / the
  /// node-set conversion rules.
  StatusOr<double> EvaluateNumber(storage::NodeId context);

  /// Evaluates any query and converts with boolean() (node sets:
  /// non-emptiness — evaluated without sorting, and scalar plans convert
  /// their single value).
  StatusOr<bool> EvaluateBoolean(storage::NodeId context);

  /// Ablation knob (benchmarks, differential tests): force the final
  /// result sort even when inference proved it redundant.
  void SetForceResultSort(bool force) {
    context_->set_force_result_sort(force);
  }

  /// Absolute steady-clock deadline (base/clock.h MonotonicNanos) for
  /// subsequent Evaluate* calls: the drain loop aborts past it with
  /// kDeadlineExceeded and closes the pipeline early. 0 clears. Serving
  /// binds one per request so queue wait counts against the budget.
  void SetDeadlineNs(uint64_t abs_ns) {
    context_->set_deadline_ns(abs_ns);
  }

  /// External cancel flag checked alongside the deadline (cooperative
  /// cancellation: server shutdown, client disconnect). Must outlive
  /// this execution; null clears.
  void SetCancelFlag(const std::atomic<bool>* flag) {
    context_->set_cancel_flag(flag);
  }

  /// Counters from the most recent Evaluate* call.
  const ExecutionStats& last_stats() const { return last_stats_; }

  /// The per-operator stats collector, or null when the execution was
  /// instantiated without `collect_stats`. Counters accumulate across
  /// Evaluate* calls until QueryStats::Reset().
  const obs::QueryStats* Stats() const { return context_->stats(); }
  obs::QueryStats* MutableStats() { return context_->stats(); }

  /// The EXPLAIN ANALYZE rendering of the accumulated per-operator
  /// counters ("" when instantiated without stats collection).
  std::string ExplainAnalyze() const {
    return context_->stats() == nullptr ? std::string()
                                        : context_->stats()->RenderAnalyze();
  }

  const PreparedQuery& prepared() const { return *prepared_; }

 private:
  friend class PreparedQuery;

  Execution(std::shared_ptr<const PreparedQuery> prepared,
            std::unique_ptr<qe::ExecutionContext> context)
      : prepared_(std::move(prepared)),
        store_(prepared_->store()),
        context_(std::move(context)) {}

  Status BindContext(storage::NodeId context);
  void BeginStats();
  void EndStats();
  /// Bind + execute + stats/registry accounting for node-set plans.
  StatusOr<std::vector<runtime::NodeRef>> RunNodes(storage::NodeId context);

  /// Pins the template (and its operator tree / property map) for as
  /// long as any execution is alive.
  std::shared_ptr<const PreparedQuery> prepared_;
  const storage::NodeStore* store_;
  std::unique_ptr<qe::ExecutionContext> context_;
  ExecutionStats last_stats_;
  uint64_t tuples_baseline_ = 0;
  uint64_t nvm_baseline_ = 0;
  uint64_t exec_begin_ns_ = 0;
  obs::BufferCounters buffer_baseline_;
};

}  // namespace natix

#endif  // NATIX_API_PREPARED_QUERY_H_
