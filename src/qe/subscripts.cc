#include "qe/exec_context.h"
#include "qe/subscripts.h"

#include <cmath>
#include <limits>
#include <optional>

namespace natix::qe {

namespace {

using algebra::AggKind;
using runtime::NodeRef;
using runtime::Value;
using runtime::ValueKind;

}  // namespace

StatusOr<Value> RunNestedAggregate(NestedPlan* nested, ExecutionContext* state) {
  // Time the whole evaluation onto the NestedAgg node so the host
  // operator's exclusive time excludes subscript-driven subplans. A
  // top-level Aggregate routes its embedded plan onto its own node,
  // which the iterator NVI wrapper already times — no second timer.
  std::optional<obs::ScopedOpTimer> timer;
#if !defined(NATIX_OBS_DISABLED)
  if (nested->stats != nullptr && nested->stats->nested) {
    timer.emplace(nested->stats);
  }
#endif
  NATIX_OBS_COUNT(nested->stats, agg_evals, 1);
  NATIX_RETURN_IF_ERROR(nested->iter->Open());

  uint64_t count = 0;
  double sum = 0;
  double max = std::numeric_limits<double>::quiet_NaN();
  double min = std::numeric_limits<double>::quiet_NaN();
  bool exists = false;
  NodeRef first;
  bool have_first = false;

  while (true) {
    bool has = false;
    Status st = nested->iter->Next(&has);
    if (!st.ok()) {
      (void)nested->iter->Close();
      return st;
    }
    if (!has) break;
    NATIX_OBS_COUNT(nested->stats, agg_input, 1);
    const Value& value = state->registers[nested->input_reg];
    switch (nested->agg) {
      case AggKind::kCount:
        ++count;
        break;
      case AggKind::kSum: {
        auto n = runtime::ToNumber(value, state->eval_ctx);
        if (!n.ok()) {
          (void)nested->iter->Close();
          return n.status();
        }
        sum += *n;
        break;
      }
      case AggKind::kExists:
        // Smart aggregation (Sec. 5.2.5): one tuple decides the result;
        // the remaining input is not evaluated.
        exists = true;
        break;
      case AggKind::kMax:
      case AggKind::kMin: {
        auto n = runtime::ToNumber(value, state->eval_ctx);
        if (!n.ok()) {
          (void)nested->iter->Close();
          return n.status();
        }
        if (nested->agg == AggKind::kMax) {
          if (std::isnan(max) || *n > max) max = *n;
        } else {
          if (std::isnan(min) || *n < min) min = *n;
        }
        break;
      }
      case AggKind::kFirstString:
      case AggKind::kFirstName:
      case AggKind::kFirstLocalName: {
        if (value.kind() == ValueKind::kNode) {
          NodeRef node = value.AsNode();
          if (!have_first || node.order < first.order) {
            first = node;
            have_first = true;
          }
        }
        break;
      }
    }
    if (nested->agg == AggKind::kExists && exists) {
      // Smart aggregation: the remaining input is never produced.
      NATIX_OBS_COUNT(nested->stats, early_exits, 1);
      break;
    }
  }
  NATIX_RETURN_IF_ERROR(nested->iter->Close());

  switch (nested->agg) {
    case AggKind::kCount:
      return Value::Number(static_cast<double>(count));
    case AggKind::kSum:
      return Value::Number(sum);
    case AggKind::kExists:
      return Value::Boolean(exists);
    case AggKind::kMax:
      return Value::Number(max);
    case AggKind::kMin:
      return Value::Number(min);
    case AggKind::kFirstString: {
      if (!have_first) return Value::String(std::string());
      NATIX_ASSIGN_OR_RETURN(std::string s,
                             runtime::NodeStringValue(first,
                                                      state->eval_ctx));
      return Value::String(std::move(s));
    }
    case AggKind::kFirstName:
    case AggKind::kFirstLocalName: {
      if (!have_first) return Value::String(std::string());
      storage::NodeHeader record;
      NATIX_RETURN_IF_ERROR(
          state->eval_ctx.nodes->ReadHeader(first.node_id(), &record));
      std::string name;
      if (record.name_id != storage::kInvalidNameId) {
        name = state->eval_ctx.store->names()->NameOf(record.name_id);
      }
      if (nested->agg == AggKind::kFirstLocalName) {
        auto colon = name.rfind(':');
        if (colon != std::string::npos) name = name.substr(colon + 1);
      }
      return Value::String(std::move(name));
    }
  }
  return Status::Internal("unknown aggregate");
}

StatusOr<Value> Subscript::Evaluate() {
  return vm_.Run(state_->registers, state_->eval_ctx, state_->variables,
                 nested_eval_, &state_->nvm_insns_retired,
                 &state_->tuples_produced);
}

StatusOr<bool> Subscript::EvaluateBool() {
  NATIX_ASSIGN_OR_RETURN(Value v, Evaluate());
  return runtime::ToBoolean(v, state_->eval_ctx);
}

}  // namespace natix::qe
