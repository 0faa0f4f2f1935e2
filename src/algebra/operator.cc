#include "algebra/operator.h"

#include "base/xpath_number.h"

namespace natix::algebra {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kSingletonScan:
      return "SingletonScan";
    case OpKind::kSelect:
      return "Select";
    case OpKind::kMap:
      return "Map";
    case OpKind::kCounter:
      return "Counter";
    case OpKind::kUnnestMap:
      return "UnnestMap";
    case OpKind::kDJoin:
      return "DJoin";
    case OpKind::kCross:
      return "Cross";
    case OpKind::kSemiJoin:
      return "SemiJoin";
    case OpKind::kAntiJoin:
      return "AntiJoin";
    case OpKind::kUnnest:
      return "Unnest";
    case OpKind::kConcat:
      return "Concat";
    case OpKind::kDupElim:
      return "DupElim";
    case OpKind::kProject:
      return "Project";
    case OpKind::kSort:
      return "Sort";
    case OpKind::kAggregate:
      return "Aggregate";
    case OpKind::kBinaryGroup:
      return "BinaryGroup";
    case OpKind::kTmpCs:
      return "TmpCs";
    case OpKind::kMemoX:
      return "MemoX";
    case OpKind::kIdDeref:
      return "IdDeref";
    case OpKind::kLimit:
      return "Limit";
  }
  return "?";
}

const char* AggKindName(AggKind kind) {
  switch (kind) {
    case AggKind::kCount:
      return "count";
    case AggKind::kSum:
      return "sum";
    case AggKind::kExists:
      return "exists";
    case AggKind::kMax:
      return "max";
    case AggKind::kMin:
      return "min";
    case AggKind::kFirstString:
      return "first-string";
    case AggKind::kFirstName:
      return "first-name";
    case AggKind::kFirstLocalName:
      return "first-local-name";
  }
  return "?";
}

std::string Scalar::ToString() const {
  switch (kind) {
    case ScalarKind::kNumberConst:
      return XPathNumberToString(number);
    case ScalarKind::kStringConst:
      return "'" + string_value + "'";
    case ScalarKind::kBoolConst:
      return boolean ? "true" : "false";
    case ScalarKind::kAttrRef:
      return name;
    case ScalarKind::kVarRef:
      return "$" + name;
    case ScalarKind::kArith:
      return "(" + children[0]->ToString() + " " + xpath::BinaryOpName(op) +
             " " + children[1]->ToString() + ")";
    case ScalarKind::kNegate:
      return "-(" + children[0]->ToString() + ")";
    case ScalarKind::kLogical:
      return "(" + children[0]->ToString() + " " + xpath::BinaryOpName(op) +
             " " + children[1]->ToString() + ")";
    case ScalarKind::kCompare:
      return "(" + children[0]->ToString() + " " +
             runtime::CompareOpName(cmp) + " " + children[1]->ToString() +
             ")";
    case ScalarKind::kFunc: {
      std::string out =
          std::string(xpath::FunctionInfoFor(function).name) + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ScalarKind::kNested:
      return std::string(AggKindName(agg)) + "{" + input_attr + ": <plan>}";
  }
  return "?";
}

namespace {

void Indent(std::string* out, int depth) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
}

void PrintScalarPlans(const Scalar& scalar, int depth, std::string* out);

void PrintOp(const Operator& op, int depth, std::string* out) {
  Indent(out, depth);
  *out += OpKindName(op.kind);
  switch (op.kind) {
    case OpKind::kSelect:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
      *out += "[" + op.scalar->ToString() + "]";
      break;
    case OpKind::kMap:
      *out += std::string(op.materialize ? "^mat" : "") + "[" + op.attr +
              " := " + op.scalar->ToString() + "]";
      break;
    case OpKind::kCounter:
      *out += "[" + op.attr + " := counter++" +
              (op.ctx_attr.empty() ? "" : ", reset on " + op.ctx_attr) + "]";
      break;
    case OpKind::kUnnestMap:
      *out += std::string(op.reverse ? "^rev" : "") + "[" + op.attr +
              " := " + op.ctx_attr + "/" +
              runtime::AxisName(op.axis) + "::" + op.test.ToString() + "]";
      break;
    case OpKind::kDupElim:
    case OpKind::kSort:
      *out += "[" + op.attr + "]";
      break;
    case OpKind::kProject: {
      *out += "[";
      for (size_t i = 0; i < op.attrs.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += op.attrs[i];
      }
      *out += "]";
      break;
    }
    case OpKind::kAggregate:
      *out += "[" + op.attr + " := " + AggKindName(op.agg) + "(" +
              op.ctx_attr + ")]";
      break;
    case OpKind::kBinaryGroup:
      *out += "[" + op.attr + " := " + AggKindName(op.agg) + "; " +
              op.left_attr + " = " + op.right_attr + "]";
      break;
    case OpKind::kTmpCs:
      *out += "[" + op.attr +
              (op.ctx_attr.empty() ? "" : "; context " + op.ctx_attr) + "]";
      break;
    case OpKind::kMemoX: {
      *out += "[";
      for (size_t i = 0; i < op.key_attrs.size(); ++i) {
        if (i > 0) *out += ", ";
        *out += op.key_attrs[i];
      }
      *out += "]";
      break;
    }
    case OpKind::kUnnest:
      *out += "[" + op.attr + " := unnest " + op.ctx_attr + "]";
      break;
    case OpKind::kIdDeref:
      *out += "[" + op.attr + " := deref " +
              (op.scalar != nullptr ? op.scalar->ToString() : op.ctx_attr) +
              "]";
      break;
    case OpKind::kLimit:
      *out += "[" + std::to_string(op.limit) + "]";
      break;
    default:
      break;
  }
  *out += "\n";
  if (op.scalar != nullptr) PrintScalarPlans(*op.scalar, depth + 1, out);
  for (const OpPtr& child : op.children) PrintOp(*child, depth + 1, out);
}

void PrintScalarPlans(const Scalar& scalar, int depth, std::string* out) {
  if (scalar.kind == ScalarKind::kNested) {
    Indent(out, depth);
    *out += "nested " + std::string(AggKindName(scalar.agg)) + "(" +
            scalar.input_attr + "):\n";
    PrintOp(*scalar.plan, depth + 1, out);
  }
  for (const ScalarPtr& child : scalar.children) {
    PrintScalarPlans(*child, depth, out);
  }
}

}  // namespace

std::string Operator::ToString() const {
  std::string out;
  PrintOp(*this, 0, &out);
  return out;
}

OpPtr MakeOp(OpKind kind) { return std::make_unique<Operator>(kind); }
ScalarPtr MakeScalar(ScalarKind kind) {
  return std::make_unique<Scalar>(kind);
}

}  // namespace natix::algebra
