#include "runtime/conversions.h"

#include <cmath>
#include <limits>

#include "base/xpath_number.h"

namespace natix::runtime {

StatusOr<std::string> NodeStringValue(NodeRef node, const EvalContext& ctx) {
  NATIX_DCHECK(ctx.nodes != nullptr);
  return ctx.nodes->StringValue(node.node_id());
}

StatusOr<bool> ToBoolean(const Value& v, const EvalContext& ctx) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return false;
    case ValueKind::kBoolean:
      return v.AsBoolean();
    case ValueKind::kNumber: {
      double n = v.AsNumber();
      return n != 0 && !std::isnan(n);
    }
    case ValueKind::kString:
      return !v.AsString().empty();
    case ValueKind::kNode:
      (void)ctx;
      return true;  // a one-node node-set is non-empty
    case ValueKind::kSequence:
      return !v.AsSequence()->empty();
  }
  return Status::Internal("unknown value kind");
}

StatusOr<double> ToNumber(const Value& v, const EvalContext& ctx) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return std::numeric_limits<double>::quiet_NaN();
    case ValueKind::kBoolean:
      return v.AsBoolean() ? 1.0 : 0.0;
    case ValueKind::kNumber:
      return v.AsNumber();
    case ValueKind::kString:
      return StringToXPathNumber(v.AsString());
    case ValueKind::kNode: {
      NATIX_ASSIGN_OR_RETURN(std::string s, NodeStringValue(v.AsNode(), ctx));
      return StringToXPathNumber(s);
    }
    case ValueKind::kSequence: {
      NATIX_ASSIGN_OR_RETURN(std::string s, ToStringValue(v, ctx));
      return StringToXPathNumber(s);
    }
  }
  return Status::Internal("unknown value kind");
}

StatusOr<std::string> ToStringValue(const Value& v, const EvalContext& ctx) {
  switch (v.kind()) {
    case ValueKind::kNull:
      return std::string();
    case ValueKind::kBoolean:
      return std::string(v.AsBoolean() ? "true" : "false");
    case ValueKind::kNumber:
      return XPathNumberToString(v.AsNumber());
    case ValueKind::kString:
      return v.AsString();
    case ValueKind::kNode:
      return NodeStringValue(v.AsNode(), ctx);
    case ValueKind::kSequence: {
      // string(node-set) is the string-value of the node first in
      // document order.
      const auto& seq = *v.AsSequence();
      const Value* first = nullptr;
      for (const Value& item : seq) {
        if (item.kind() != ValueKind::kNode) continue;
        if (first == nullptr ||
            item.AsNode().order < first->AsNode().order) {
          first = &item;
        }
      }
      if (first == nullptr) return std::string();
      return NodeStringValue(first->AsNode(), ctx);
    }
  }
  return Status::Internal("unknown value kind");
}

bool CompareNumbers(CompareOp op, double a, double b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

StatusOr<bool> CompareAtomic(CompareOp op, const Value& a, const Value& b,
                             const EvalContext& ctx) {
  // Relational operators always compare numbers (XPath 1.0 Sec. 3.4).
  if (op != CompareOp::kEq && op != CompareOp::kNe) {
    NATIX_ASSIGN_OR_RETURN(double na, ToNumber(a, ctx));
    NATIX_ASSIGN_OR_RETURN(double nb, ToNumber(b, ctx));
    return CompareNumbers(op, na, nb);
  }
  // (In)equality: booleans dominate, then numbers, then strings.
  if (a.kind() == ValueKind::kBoolean || b.kind() == ValueKind::kBoolean) {
    NATIX_ASSIGN_OR_RETURN(bool ba, ToBoolean(a, ctx));
    NATIX_ASSIGN_OR_RETURN(bool bb, ToBoolean(b, ctx));
    bool eq = ba == bb;
    return op == CompareOp::kEq ? eq : !eq;
  }
  if (a.kind() == ValueKind::kNumber || b.kind() == ValueKind::kNumber) {
    NATIX_ASSIGN_OR_RETURN(double na, ToNumber(a, ctx));
    NATIX_ASSIGN_OR_RETURN(double nb, ToNumber(b, ctx));
    return CompareNumbers(op, na, nb);
  }
  NATIX_ASSIGN_OR_RETURN(std::string sa, ToStringValue(a, ctx));
  NATIX_ASSIGN_OR_RETURN(std::string sb, ToStringValue(b, ctx));
  bool eq = sa == sb;
  return op == CompareOp::kEq ? eq : !eq;
}

}  // namespace natix::runtime
