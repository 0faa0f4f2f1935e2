#include "obs/metrics.h"
#include "qe/exec_context.h"
#include "qe/operators.h"

namespace natix::qe {

using runtime::Value;
using runtime::ValueKind;

Status SelectIterator::NextImpl(bool* has) {
  while (true) {
    NATIX_RETURN_IF_ERROR(child_->Next(has));
    if (!*has) return Status::OK();
    NATIX_ASSIGN_OR_RETURN(bool pass, predicate_->EvaluateBool());
    if (pass) return Status::OK();
  }
}

Status MapIterator::NextImpl(bool* has) {
  NATIX_RETURN_IF_ERROR(child_->Next(has));
  if (!*has) return Status::OK();
  if (materialize_) {
    std::string key = EncodeRowKey(*state_, key_regs_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      NATIX_OBS_COUNT(stats_, cache_hits, 1);
      state_->registers[out_] = it->second;
      return Status::OK();
    }
    NATIX_OBS_COUNT(stats_, cache_misses, 1);
    NATIX_ASSIGN_OR_RETURN(Value v, subscript_->Evaluate());
    cache_.emplace(std::move(key), v);
    state_->registers[out_] = std::move(v);
    return Status::OK();
  }
  NATIX_ASSIGN_OR_RETURN(Value v, subscript_->Evaluate());
  state_->registers[out_] = std::move(v);
  return Status::OK();
}

Status LimitIterator::NextImpl(bool* has) {
  if (count_ >= limit_) {
    *has = false;
    if (child_open_) {
      // The bound is reached: close the input pipeline now, cascading
      // Close() down to the page scans, instead of holding it open
      // until the consumer tears the plan down.
      child_open_ = false;
      NATIX_OBS_COUNT(stats_, early_exits, 1);
      // Also feeds the process-wide registry so /metrics sees early
      // exits from uninstrumented (serving) executions.
      obs::MetricsRegistry::Global().early_exits.Add();
      return child_->Close();
    }
    return Status::OK();
  }
  NATIX_RETURN_IF_ERROR(child_->Next(has));
  if (*has) ++count_;
  return Status::OK();
}

Status CounterIterator::OpenImpl() {
  counter_ = 0;
  have_key_ = false;
  last_key_.clear();
  return child_->Open();
}

Status CounterIterator::NextImpl(bool* has) {
  NATIX_RETURN_IF_ERROR(child_->Next(has));
  if (!*has) return Status::OK();
  if (reset_reg_.has_value()) {
    std::string key = EncodeValueKey(state_->registers[*reset_reg_]);
    if (!have_key_ || key != last_key_) {
      counter_ = 0;
      last_key_ = std::move(key);
      have_key_ = true;
    }
  }
  ++counter_;
  state_->registers[out_] = Value::Number(static_cast<double>(counter_));
  return Status::OK();
}

UnnestMapIterator::UnnestMapIterator(ExecutionContext* state,
                                     IteratorPtr child,
                                     runtime::RegisterId ctx,
                                     runtime::RegisterId out,
                                     runtime::Axis axis,
                                     runtime::NodeTest test, bool reverse,
                                     bool dedup)
    : state_(state),
      child_(std::move(child)),
      ctx_(ctx),
      out_(out),
      axis_(axis),
      test_(test),
      reverse_(reverse),
      dedup_(dedup),
      skip_subtrees_(axis == runtime::Axis::kDescendant ||
                     axis == runtime::Axis::kDescendantOrSelf),
      cursor_(state->eval_ctx.nodes) {}

void UnnestMapIterator::ReleaseCursor() {
  if (cursor_active_) {
    cursor_active_ = false;
    state_->LedgerCursorReleased();
  }
}

void UnnestMapIterator::DropSeen() {
  state_->LedgerSpoolDropped(seen_.size());
  seen_.clear();
}

Status UnnestMapIterator::OpenImpl() {
  ReleaseCursor();
  DropSeen();
  return child_->Open();
}

Status UnnestMapIterator::CloseImpl() {
  ReleaseCursor();
  DropSeen();
  return child_->Close();
}

Status UnnestMapIterator::NextImpl(bool* has) {
  *has = false;
  while (true) {
    if (!cursor_active_) {
      bool child_has = false;
      NATIX_RETURN_IF_ERROR(child_->Next(&child_has));
      if (!child_has) return Status::OK();
      const Value& ctx = state_->registers[ctx_];
      if (ctx.kind() != ValueKind::kNode) {
        // A null / non-node context contributes no step results.
        continue;
      }
      // Upsilon^D: a descendant walk from a node already emitted would
      // find nothing new.
      if (skip_subtrees_ && dedup_ && seen_.Contains(ctx.AsNode().id)) {
        continue;
      }
      NATIX_RETURN_IF_ERROR(
          cursor_.Open(axis_, test_, ctx.AsNode().node_id(), reverse_));
      cursor_active_ = true;
      state_->LedgerCursorActivated();
    }
    bool cursor_has = false;
    runtime::NodeRef node;
    NATIX_RETURN_IF_ERROR(cursor_.Next(&cursor_has, &node));
    if (!cursor_has) {
      ReleaseCursor();
      continue;
    }
    if (dedup_) {
      if (!seen_.Insert(node.id)) {
        // Emitted before, by a walk that went on over all this walk
        // would visit below or after `node`.
        if (skip_subtrees_) {
          cursor_.SkipChildren();
        } else {
          ReleaseCursor();
        }
        continue;
      }
      state_->LedgerSpoolGrew(1);
    }
    state_->registers[out_] = Value::Node(node);
    ++state_->tuples_produced;
    *has = true;
    return Status::OK();
  }
}

}  // namespace natix::qe
