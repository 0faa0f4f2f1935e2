#include "nvm/assembler.h"

#include <utility>

namespace natix::nvm {

namespace {

using algebra::Operator;
using algebra::OpKind;
using algebra::Scalar;
using algebra::ScalarKind;
using runtime::Value;
using xpath::BinaryOp;
using xpath::FunctionId;

/// The comparison with the operands swapped: `lit θ x` is `x θ' lit`.
runtime::CompareOp Mirror(runtime::CompareOp cmp) {
  switch (cmp) {
    case runtime::CompareOp::kLt:
      return runtime::CompareOp::kGt;
    case runtime::CompareOp::kLe:
      return runtime::CompareOp::kGe;
    case runtime::CompareOp::kGt:
      return runtime::CompareOp::kLt;
    case runtime::CompareOp::kGe:
      return runtime::CompareOp::kLe;
    default:
      return cmp;
  }
}

bool IsLiteral(const Scalar& s) {
  return s.kind == ScalarKind::kStringConst ||
         s.kind == ScalarKind::kNumberConst;
}

class AssemblerImpl {
 public:
  AssemblerImpl(const AttrResolver& resolve_attr,
                const NodeTestResolver& resolve_test,
                const NestedRegistrar& register_nested)
      : resolve_attr_(resolve_attr),
        resolve_test_(resolve_test),
        register_nested_(register_nested) {}

  StatusOr<Program> Compile(const Scalar& scalar) {
    NATIX_ASSIGN_OR_RETURN(uint16_t result, Emit(scalar));
    Instruction halt;
    halt.op = OpCode::kHalt;
    halt.a = result;
    program_.code.push_back(halt);
    program_.register_count = next_register_;
    return std::move(program_);
  }

 private:
  uint16_t NewRegister() { return next_register_++; }

  size_t EmitIns(OpCode op, uint16_t a, uint16_t b = 0, uint16_t c = 0,
                 uint16_t d = 0) {
    Instruction ins;
    ins.op = op;
    ins.a = a;
    ins.b = b;
    ins.c = c;
    ins.d = d;
    program_.code.push_back(ins);
    return program_.code.size() - 1;
  }

  uint16_t EmitConst(Value v) {
    uint16_t reg = NewRegister();
    program_.constants.push_back(std::move(v));
    EmitIns(OpCode::kLoadConst, reg,
            static_cast<uint16_t>(program_.constants.size() - 1));
    return reg;
  }

  StatusOr<uint16_t> Emit(const Scalar& s) {
    switch (s.kind) {
      case ScalarKind::kNumberConst:
        return EmitConst(Value::Number(s.number));
      case ScalarKind::kStringConst:
        return EmitConst(Value::String(s.string_value));
      case ScalarKind::kBoolConst:
        return EmitConst(Value::Boolean(s.boolean));
      case ScalarKind::kAttrRef: {
        NATIX_ASSIGN_OR_RETURN(runtime::RegisterId attr,
                               resolve_attr_(s.name));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kLoadAttr, reg, static_cast<uint16_t>(attr));
        return reg;
      }
      case ScalarKind::kVarRef: {
        program_.variable_names.push_back(s.name);
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kLoadVar, reg,
                static_cast<uint16_t>(program_.variable_names.size() - 1));
        return reg;
      }
      case ScalarKind::kNegate: {
        NATIX_ASSIGN_OR_RETURN(uint16_t operand, Emit(*s.children[0]));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kNeg, reg, operand);
        return reg;
      }
      case ScalarKind::kArith: {
        NATIX_ASSIGN_OR_RETURN(uint16_t lhs, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t rhs, Emit(*s.children[1]));
        OpCode op;
        switch (s.op) {
          case BinaryOp::kAdd:
            op = OpCode::kAdd;
            break;
          case BinaryOp::kSub:
            op = OpCode::kSub;
            break;
          case BinaryOp::kMul:
            op = OpCode::kMul;
            break;
          case BinaryOp::kDiv:
            op = OpCode::kDiv;
            break;
          case BinaryOp::kMod:
            op = OpCode::kMod;
            break;
          default:
            return Status::Internal("non-arithmetic op in kArith");
        }
        uint16_t reg = NewRegister();
        EmitIns(op, reg, lhs, rhs);
        return reg;
      }
      case ScalarKind::kLogical: {
        // Short-circuit: evaluate lhs into `out`; skip rhs when decided.
        uint16_t out = NewRegister();
        NATIX_ASSIGN_OR_RETURN(uint16_t lhs, Emit(*s.children[0]));
        EmitIns(OpCode::kToBool, out, lhs);
        size_t jump = EmitIns(s.op == BinaryOp::kAnd
                                  ? OpCode::kJumpIfFalse
                                  : OpCode::kJumpIfTrue,
                              out, /*target patched below*/ 0);
        NATIX_ASSIGN_OR_RETURN(uint16_t rhs, Emit(*s.children[1]));
        EmitIns(OpCode::kToBool, out, rhs);
        program_.code[jump].b =
            static_cast<uint16_t>(program_.code.size());
        return out;
      }
      case ScalarKind::kCompare: {
        NATIX_ASSIGN_OR_RETURN(uint16_t lhs, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t rhs, Emit(*s.children[1]));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kCompare, reg, lhs, rhs,
                static_cast<uint16_t>(s.cmp));
        return reg;
      }
      case ScalarKind::kNested: {
        SingleStep shape;
        if (MatchSingleStep(s, &shape)) return EmitStepLoop(s, shape);
        NATIX_ASSIGN_OR_RETURN(size_t index, register_nested_(s));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kEvalNested, reg, static_cast<uint16_t>(index));
        return reg;
      }
      case ScalarKind::kFunc:
        return EmitCall(s);
    }
    return Status::Internal("unknown scalar kind");
  }

  /// One kStepExists / kStepCount over a new entry of the step table.
  StatusOr<uint16_t> EmitStepLoop(const Scalar& s, const SingleStep& shape) {
    const Operator& step = *shape.step;
    NATIX_ASSIGN_OR_RETURN(runtime::RegisterId context,
                           resolve_attr_(step.ctx_attr));
    StepLoop loop;
    loop.axis = step.axis;
    loop.test = resolve_test_(step.test);
    loop.text = std::string(runtime::AxisName(step.axis)) +
                "::" + step.test.ToString();
    if (shape.compare != nullptr) {
      const Scalar& lhs = *shape.compare->children[0];
      const Scalar& literal =
          IsLiteral(lhs) ? lhs : *shape.compare->children[1];
      loop.compare = true;
      loop.cmp = IsLiteral(lhs) ? Mirror(shape.compare->cmp)
                                : shape.compare->cmp;
      loop.constant = literal.kind == ScalarKind::kStringConst
                          ? Value::String(literal.string_value)
                          : Value::Number(literal.number);
    }
    program_.steps.push_back(std::move(loop));
    uint16_t reg = NewRegister();
    EmitIns(s.agg == algebra::AggKind::kExists ? OpCode::kStepExists
                                                : OpCode::kStepCount,
            reg, static_cast<uint16_t>(context),
            static_cast<uint16_t>(program_.steps.size() - 1));
    return reg;
  }

  StatusOr<uint16_t> EmitCall(const Scalar& s) {
    auto unary = [&](OpCode op) -> StatusOr<uint16_t> {
      NATIX_ASSIGN_OR_RETURN(uint16_t arg, Emit(*s.children[0]));
      uint16_t reg = NewRegister();
      EmitIns(op, reg, arg);
      return reg;
    };
    auto binary = [&](OpCode op) -> StatusOr<uint16_t> {
      NATIX_ASSIGN_OR_RETURN(uint16_t a, Emit(*s.children[0]));
      NATIX_ASSIGN_OR_RETURN(uint16_t b, Emit(*s.children[1]));
      uint16_t reg = NewRegister();
      EmitIns(op, reg, a, b);
      return reg;
    };
    switch (s.function) {
      case FunctionId::kString:
        return unary(OpCode::kToStr);
      case FunctionId::kNumber:
        return unary(OpCode::kToNum);
      case FunctionId::kBoolean:
        return unary(OpCode::kToBool);
      case FunctionId::kNot:
        return unary(OpCode::kNot);
      case FunctionId::kTrue:
        return EmitConst(Value::Boolean(true));
      case FunctionId::kFalse:
        return EmitConst(Value::Boolean(false));
      case FunctionId::kConcat: {
        NATIX_ASSIGN_OR_RETURN(uint16_t acc, Emit(*s.children[0]));
        for (size_t i = 1; i < s.children.size(); ++i) {
          NATIX_ASSIGN_OR_RETURN(uint16_t next, Emit(*s.children[i]));
          uint16_t reg = NewRegister();
          EmitIns(OpCode::kConcat2, reg, acc, next);
          acc = reg;
        }
        return acc;
      }
      case FunctionId::kStartsWith:
        return binary(OpCode::kStartsWith);
      case FunctionId::kContains:
        return binary(OpCode::kContains);
      case FunctionId::kSubstringBefore:
        return binary(OpCode::kSubstringBefore);
      case FunctionId::kSubstringAfter:
        return binary(OpCode::kSubstringAfter);
      case FunctionId::kSubstring: {
        NATIX_ASSIGN_OR_RETURN(uint16_t str, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t pos, Emit(*s.children[1]));
        uint16_t reg = NewRegister();
        if (s.children.size() == 2) {
          EmitIns(OpCode::kSubstring2, reg, str, pos);
        } else {
          NATIX_ASSIGN_OR_RETURN(uint16_t len, Emit(*s.children[2]));
          EmitIns(OpCode::kSubstring3, reg, str, pos, len);
        }
        return reg;
      }
      case FunctionId::kStringLength:
        return unary(OpCode::kStringLength);
      case FunctionId::kNormalizeSpace:
        return unary(OpCode::kNormalizeSpace);
      case FunctionId::kTranslate: {
        NATIX_ASSIGN_OR_RETURN(uint16_t str, Emit(*s.children[0]));
        NATIX_ASSIGN_OR_RETURN(uint16_t from, Emit(*s.children[1]));
        NATIX_ASSIGN_OR_RETURN(uint16_t to, Emit(*s.children[2]));
        uint16_t reg = NewRegister();
        EmitIns(OpCode::kTranslate, reg, str, from, to);
        return reg;
      }
      case FunctionId::kFloor:
        return unary(OpCode::kFloor);
      case FunctionId::kCeiling:
        return unary(OpCode::kCeiling);
      case FunctionId::kRound:
        return unary(OpCode::kRound);
      case FunctionId::kLang:
        return binary(OpCode::kLang);
      case FunctionId::kRootInternal:
        return unary(OpCode::kRoot);
      default:
        return Status::Internal(
            std::string("function has no NVM lowering: ") +
            xpath::FunctionInfoFor(s.function).name);
    }
  }

  const AttrResolver& resolve_attr_;
  const NodeTestResolver& resolve_test_;
  const NestedRegistrar& register_nested_;
  Program program_;
  uint16_t next_register_ = 0;
};

}  // namespace

bool MatchSingleStep(const Scalar& nested, SingleStep* out) {
  if (nested.kind != ScalarKind::kNested || nested.plan == nullptr ||
      (nested.agg != algebra::AggKind::kExists &&
       nested.agg != algebra::AggKind::kCount)) {
    return false;
  }
  const Operator* op = nested.plan.get();
  const Scalar* compare = nullptr;
  if (op->kind == OpKind::kSelect) {
    const Scalar& pred = *op->scalar;
    if (pred.kind != ScalarKind::kCompare || pred.children.size() != 2) {
      return false;
    }
    const Scalar& lhs = *pred.children[0];
    const Scalar& rhs = *pred.children[1];
    const Scalar& attr = IsLiteral(lhs) ? rhs : lhs;
    const Scalar& literal = IsLiteral(lhs) ? lhs : rhs;
    if (attr.kind != ScalarKind::kAttrRef || !IsLiteral(literal) ||
        attr.name != nested.input_attr) {
      return false;
    }
    compare = &pred;
    op = op->children[0].get();
  }
  // DJoin(□, e) is e: the translation's dependent form of a relative
  // path in a predicate.
  if (op->kind == OpKind::kDJoin &&
      op->children[0]->kind == OpKind::kSingletonScan) {
    op = op->children[1].get();
  }
  if (op->kind != OpKind::kUnnestMap || op->reverse ||
      op->children[0]->kind != OpKind::kSingletonScan ||
      (op->axis != runtime::Axis::kChild &&
       op->axis != runtime::Axis::kAttribute) ||
      op->test.kind != xpath::AstNodeTest::Kind::kName ||
      op->attr != nested.input_attr) {
    return false;
  }
  out->step = op;
  out->compare = compare;
  return true;
}

StatusOr<Program> CompileScalar(const Scalar& scalar,
                                const AttrResolver& resolve_attr,
                                const NodeTestResolver& resolve_test,
                                const NestedRegistrar& register_nested) {
  AssemblerImpl impl(resolve_attr, resolve_test, register_nested);
  return impl.Compile(scalar);
}

}  // namespace natix::nvm
