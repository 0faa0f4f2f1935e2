#ifndef NATIX_QE_EXEC_CONTEXT_H_
#define NATIX_QE_EXEC_CONTEXT_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "obs/stats.h"
#include "qe/iterator.h"
#include "qe/subscripts.h"
#include "runtime/conversions.h"
#include "runtime/register_file.h"
#include "runtime/value.h"
#include "xpath/ast.h"

namespace natix::qe {

namespace internal {
class Instantiator;
}  // namespace internal

/// The per-execution half of a compiled query: one iterator tree
/// instantiated from a PlanTemplate together with everything the tree
/// mutates while running — the plan-wide register file (the attribute
/// manager's memory, Sec. 5.1), the execution-context bindings (context
/// node, $variables), per-context caches, and the optional per-operator
/// stats collector.
///
/// Contexts are cheap relative to compilation: no parse, rewrite,
/// inference, lowering or verification, only the allocation of the
/// iterators of the template's lowered plan. They are reusable: Execute*
/// may be called any number of times, rebinding the context node between
/// calls. A context is single-threaded; concurrency comes from
/// instantiating one context per thread off a shared template.
/// Non-movable: iterators and NVM subscripts hold stable pointers into it.
class ExecutionContext {
 public:
  ExecutionContext() = default;
  ExecutionContext(const ExecutionContext&) = delete;
  ExecutionContext& operator=(const ExecutionContext&) = delete;

  /// Binds the execution context's context node (the free cn of the
  /// paper's top-level map). Must be called before Execute for queries
  /// that reference the context.
  void SetContextNode(runtime::NodeRef node);

  /// Binds an XPath $variable.
  void SetVariable(const std::string& name, runtime::Value value);

  /// Runs a node-set query, returning the result nodes in plan order
  /// (set semantics: no duplicates). Call SortResultNodes for document
  /// order.
  StatusOr<std::vector<runtime::NodeRef>> ExecuteNodes();

  /// Runs a scalar query (boolean/number/string), returning the value of
  /// its single result tuple.
  StatusOr<runtime::Value> ExecuteValue();

  xpath::ExprType result_type() const { return result_type_; }

  /// Ablation knob (benchmarks, differential tests): when set, ordered
  /// evaluations sort the result even if inference proved the stream
  /// document-ordered — the pre-inference behavior.
  void set_force_result_sort(bool force) { force_result_sort_ = force; }
  bool force_result_sort() const { return force_result_sort_; }

  /// The per-operator stats collector (EXPLAIN ANALYZE), or null when
  /// the context was instantiated without stats collection. Counters
  /// accumulate across executions until QueryStats::Reset().
  obs::QueryStats* stats() { return stats_.get(); }
  const obs::QueryStats* stats() const { return stats_.get(); }

  // -- Cooperative cancellation (per-request serving deadlines) -----------

  /// Tuples drained between cancellation checks: cheap enough that a
  /// deadline can only overrun by one batch, coarse enough that the
  /// steady-clock read stays off the per-tuple path.
  static constexpr uint64_t kCancelCheckInterval = 32;

  /// Absolute steady-clock deadline (base/clock.h MonotonicNanos) after
  /// which ExecuteNodes aborts mid-drain with kDeadlineExceeded, closing
  /// the iterator pipeline (and its page scans) instead of finishing the
  /// drain. 0 disables the deadline. Sticky across executions until
  /// rebound — serving binds one per request.
  void set_deadline_ns(uint64_t abs_ns) { deadline_ns_ = abs_ns; }
  uint64_t deadline_ns() const { return deadline_ns_; }

  /// External cancel flag checked alongside the deadline (server
  /// shutdown, client disconnect); fires kCancelled. The flag must
  /// outlive the execution. Null disables.
  void set_cancel_flag(const std::atomic<bool>* flag) {
    cancel_flag_ = flag;
  }

  /// OK, or the kDeadlineExceeded / kCancelled status the current
  /// execution should abort with. Called by the drain loop every
  /// kCancelCheckInterval tuples and by scalar execution before Open.
  Status CheckCancellation() const;

  // -- Layer-4 runtime resource ledger ------------------------------------

  /// Runtime cross-check of the static Layer-4 resource claims
  /// (docs/STATIC-ANALYSIS.md): counts active storage cursors (position
  /// state held between Next calls) and live non-memo spool rows, and
  /// checks the page set empty after release. Armed for every execution of
  /// a plan prepared under verification (PlanTemplate::verified), which
  /// also runs the property oracle; the Ledger* helpers are single-branch
  /// no-ops otherwise.
  struct ResourceLedger {
    /// Cursors currently positioned between Next calls.
    int64_t cursors_active = 0;
    /// Rows currently materialized in group/full spools.
    int64_t spool_rows = 0;
    /// Lifetime activation count (diagnostics).
    uint64_t cursors_activated = 0;
  };

  void ArmResourceLedger() { ledger_armed_ = true; }
  const ResourceLedger& ledger() const { return ledger_; }

  void LedgerCursorActivated() {
    if (!ledger_armed_) return;
    ++ledger_.cursors_active;
    ++ledger_.cursors_activated;
  }
  void LedgerCursorReleased() {
    if (ledger_armed_) --ledger_.cursors_active;
  }
  void LedgerSpoolGrew(size_t rows) {
    if (ledger_armed_) ledger_.spool_rows += static_cast<int64_t>(rows);
  }
  void LedgerSpoolDropped(size_t rows) {
    if (ledger_armed_) ledger_.spool_rows -= static_cast<int64_t>(rows);
  }

  /// After the root has been Closed and the page set released, every
  /// cursor must be inactive, every non-memo spool empty and the page set
  /// empty — the runtime form of the pin-balance / spool-containment
  /// proof. kInternal naming the imbalance otherwise.
  Status VerifyLedgerQuiescent() const;

  // -- Mutable execution state, written by the iterators ------------------

  runtime::RegisterFile registers{0};
  /// `eval_ctx.nodes` points at this context's page set.
  runtime::EvalContext eval_ctx;
  std::unordered_map<std::string, runtime::Value> variables;
  /// Lazily built id() indexes: document root (packed) -> id token ->
  /// element node.
  std::unordered_map<uint64_t,
                     std::unordered_map<std::string, runtime::NodeRef>>
      id_indexes;
  /// Step tuples, for tests/benchmarks: the tuples unnest-map iterators
  /// produce plus the nodes NVM step loops find passing their node test.
  uint64_t tuples_produced = 0;
  /// NVM instructions retired by subscript programs (successful runs
  /// only); accumulates across executions like tuples_produced.
  uint64_t nvm_insns_retired = 0;

 private:
  friend class internal::Instantiator;

  /// Closes the root, releases the page set, then audits the ledger.
  Status CloseAndRelease();
  /// The same on an abort path: returns the ledger's complaint if there
  /// is one, else `st`.
  Status AbortClose(Status st);

  /// The execution's page set: every node read of every operator,
  /// subscript and nested plan goes through it. Execute* releases it on
  /// return, on every path.
  storage::NodeAccessor nodes_;
  IteratorPtr root_;
  NestedTable nested_;
  std::unique_ptr<obs::QueryStats> stats_;
  runtime::RegisterId result_reg_ = 0;
  runtime::RegisterId cn_reg_ = 0;
  runtime::RegisterId cp0_reg_ = 0;
  runtime::RegisterId cs0_reg_ = 0;
  xpath::ExprType result_type_ = xpath::ExprType::kUnknown;
  bool force_result_sort_ = false;
  uint64_t deadline_ns_ = 0;
  const std::atomic<bool>* cancel_flag_ = nullptr;
  bool ledger_armed_ = false;
  ResourceLedger ledger_;
};

}  // namespace natix::qe

#endif  // NATIX_QE_EXEC_CONTEXT_H_
