#ifndef NATIX_QE_SUBSCRIPTS_H_
#define NATIX_QE_SUBSCRIPTS_H_

#include <memory>
#include <vector>

#include "algebra/operator.h"
#include "nvm/program.h"
#include "nvm/vm.h"
#include "qe/iterator.h"

namespace natix::qe {

/// One nested sequence-valued subplan referenced by an NVM kEvalNested
/// instruction (Sec. 5.2.3), together with the aggregate that reduces it
/// to an atomic value (Sec. 5.2.5).
struct NestedPlan {
  IteratorPtr iter;
  algebra::AggKind agg = algebra::AggKind::kExists;
  runtime::RegisterId input_reg = 0;
  /// Stats node of the aggregate wrapping this subplan (null: stats
  /// collection off). Tracks evaluations, consumed tuples, and smart
  /// aggregation early exits (Sec. 5.2.5).
  obs::OpStats* stats = nullptr;
};

/// The execution context's nested-plan table, indexed by the operand of
/// kEvalNested: sized once per context from the lowered plan, never
/// resized afterwards (subscripts hold a pointer to it).
using NestedTable = std::vector<NestedPlan>;

/// Runs a nested plan to completion (with smart-aggregation early exit
/// where the aggregate allows it) and returns the aggregated value.
StatusOr<runtime::Value> RunNestedAggregate(NestedPlan* nested,
                                            ExecutionContext* state);

/// A compiled NVM subscript bound to its plan: evaluating it reads the
/// current tuple from the plan registers. The program is borrowed from
/// the immutable plan template, which outlives every context built from
/// it; only the VM's scratch frame is per subscript. Non-movable (the
/// nested evaluator captures `this`).
class Subscript {
 public:
  Subscript(const nvm::Program& program, ExecutionContext* state,
            NestedTable* nested)
      : vm_(&program),
        state_(state),
        nested_(nested),
        nested_eval_([this](size_t index) -> StatusOr<runtime::Value> {
          if (index >= nested_->size()) {
            return Status::Internal("nested plan index out of range");
          }
          return RunNestedAggregate(&(*nested_)[index], state_);
        }) {}
  /// A temporary program would dangle.
  Subscript(nvm::Program&& program, ExecutionContext* state,
            NestedTable* nested) = delete;

  Subscript(const Subscript&) = delete;
  Subscript& operator=(const Subscript&) = delete;

  StatusOr<runtime::Value> Evaluate();
  StatusOr<bool> EvaluateBool();

 private:
  nvm::Vm vm_;
  ExecutionContext* state_;
  NestedTable* nested_;
  nvm::NestedEvaluator nested_eval_;
};

using SubscriptPtr = std::unique_ptr<Subscript>;

}  // namespace natix::qe

#endif  // NATIX_QE_SUBSCRIPTS_H_
