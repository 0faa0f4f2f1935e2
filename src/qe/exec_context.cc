#include "qe/exec_context.h"

#include "base/clock.h"
#include "obs/trace.h"

namespace natix::qe {

Status ExecutionContext::CheckCancellation() const {
  if (cancel_flag_ != nullptr &&
      cancel_flag_->load(std::memory_order_relaxed)) {
    return Status::Cancelled("execution cancelled");
  }
  if (deadline_ns_ != 0 && MonotonicNanos() >= deadline_ns_) {
    return Status::DeadlineExceeded("execution deadline exceeded");
  }
  return Status::OK();
}

Status ExecutionContext::VerifyLedgerQuiescent() const {
  if (!ledger_armed_) return Status::OK();
  if (ledger_.cursors_active != 0) {
    return Status::Internal(
        "resource ledger: " + std::to_string(ledger_.cursors_active) +
        " storage cursor(s) still active after Close (pin-balance "
        "violation)");
  }
  if (ledger_.spool_rows != 0) {
    return Status::Internal(
        "resource ledger: " + std::to_string(ledger_.spool_rows) +
        " spool row(s) survive Close (spool-containment violation)");
  }
  if (size_t pinned = nodes_.pinned_pages(); pinned != 0) {
    return Status::Internal(
        "resource ledger: " + std::to_string(pinned) +
        " page(s) still pinned by the page set after release — page pins "
        "leaked (pin-balance violation)");
  }
  return Status::OK();
}

Status ExecutionContext::CloseAndRelease() {
  Status st = root_->Close();
  nodes_.ReleaseAll();
  if (!st.ok()) return st;
  return VerifyLedgerQuiescent();
}

Status ExecutionContext::AbortClose(Status st) {
  // The whole point of close-on-all-paths is that an early exit leaves
  // no pins or spools behind, so a ledger imbalance here is a bug worth
  // more than the original abort status.
  (void)root_->Close();
  nodes_.ReleaseAll();
  Status ledger = VerifyLedgerQuiescent();
  if (!ledger.ok()) return ledger;
  return st;
}

void ExecutionContext::SetContextNode(runtime::NodeRef node) {
  registers[cn_reg_] = runtime::Value::Node(node);
  // Default context position/size: a singleton context.
  registers[cp0_reg_] = runtime::Value::Number(1);
  registers[cs0_reg_] = runtime::Value::Number(1);
}

void ExecutionContext::SetVariable(const std::string& name,
                                   runtime::Value value) {
  variables[name] = std::move(value);
}

StatusOr<std::vector<runtime::NodeRef>> ExecutionContext::ExecuteNodes() {
  if (result_type_ != xpath::ExprType::kNodeSet) {
    return Status::InvalidArgument(
        "ExecuteNodes called on a non-node-set query");
  }
  obs::ScopedSpan exec_span("exec/nodes");
  storage::PageSetRelease release(&nodes_);
  std::vector<runtime::NodeRef> result;
  {
    obs::ScopedSpan span("exec/open");
    NATIX_RETURN_IF_ERROR(root_->Open());
  }
  bool has = false;
  {
    // The first Next is where pipeline-breaking operators do their
    // work (spooling, sorting); it gets its own span so startup cost
    // separates from the per-tuple drain.
    obs::ScopedSpan span("exec/first-next");
    Status st = root_->Next(&has);
    if (!st.ok()) {
      return AbortClose(std::move(st));
    }
  }
  {
    obs::ScopedSpan span("exec/drain");
    uint64_t drained = 0;
    while (has) {
      // Cooperative cancellation: a request whose deadline expired (or
      // whose client went away) closes the whole pipeline — cascading
      // Close() down to the page scans — instead of finishing the drain.
      if (drained++ % kCancelCheckInterval == 0) {
        Status st = CheckCancellation();
        if (!st.ok()) {
          return AbortClose(std::move(st));
        }
      }
      const runtime::Value& v = registers[result_reg_];
      if (v.kind() != runtime::ValueKind::kNode) {
        return AbortClose(
            Status::Internal("node-set plan produced a non-node value"));
      }
      result.push_back(v.AsNode());
      Status st = root_->Next(&has);
      if (!st.ok()) {
        return AbortClose(std::move(st));
      }
    }
  }
  {
    obs::ScopedSpan span("exec/close");
    NATIX_RETURN_IF_ERROR(CloseAndRelease());
  }
  return result;
}

StatusOr<runtime::Value> ExecutionContext::ExecuteValue() {
  if (result_type_ == xpath::ExprType::kNodeSet) {
    return Status::InvalidArgument(
        "ExecuteValue called on a node-set query");
  }
  obs::ScopedSpan exec_span("exec/value");
  // Scalar plans drain inside aggregate subscripts, so the per-tuple
  // check above never sees them; at least refuse to start work for a
  // request that is already over deadline or cancelled.
  NATIX_RETURN_IF_ERROR(CheckCancellation());
  storage::PageSetRelease release(&nodes_);
  {
    obs::ScopedSpan span("exec/open");
    NATIX_RETURN_IF_ERROR(root_->Open());
  }
  bool has = false;
  {
    obs::ScopedSpan span("exec/first-next");
    Status st = root_->Next(&has);
    if (!st.ok()) {
      return AbortClose(std::move(st));
    }
  }
  if (!has) {
    return AbortClose(Status::Internal("scalar plan produced no tuple"));
  }
  runtime::Value result = registers[result_reg_];
  {
    obs::ScopedSpan span("exec/close");
    NATIX_RETURN_IF_ERROR(CloseAndRelease());
  }
  return result;
}

}  // namespace natix::qe
