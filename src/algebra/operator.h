#ifndef NATIX_ALGEBRA_OPERATOR_H_
#define NATIX_ALGEBRA_OPERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "runtime/conversions.h"
#include "runtime/node_ops.h"
#include "xpath/ast.h"
#include "xpath/functions.h"

namespace natix::algebra {

struct Operator;
using OpPtr = std::unique_ptr<Operator>;
struct Scalar;
using ScalarPtr = std::unique_ptr<Scalar>;

/// Logical operators: the sequence-valued operators of Fig. 1 plus the
/// paper's extensions — Tmp^cs / Tmp^cs_c (Sec. 3.3.4 / 4.3.1), the MemoX
/// operator (Sec. 4.2.2), the position counter map (Sec. 3.3.3), and an
/// id() dereference (Sec. 3.6.3).
enum class OpKind : uint8_t {
  kSingletonScan,  // □ — the singleton sequence of the empty tuple
  kSelect,         // σ_scalar(child)
  kMap,            // χ_attr:scalar(child); `materialize` = the χ^mat of 4.3.2
  kCounter,        // χ_cp:counter++ — reset when reset_attr changes
  kUnnestMap,      // Υ_attr:ctx/axis::test(child) — the location step
  kDJoin,          // children[0] < children[1] > (right side dependent)
  kCross,          // children[0] × children[1]
  kSemiJoin,       // children[0] ⋉_scalar children[1]
  kAntiJoin,       // children[0] ▷_scalar children[1]
  kUnnest,         // μ_attr: explode sequence-valued attr into out_attr
  kConcat,         // ⊕ over children
  kDupElim,        // Π^D on `attr` (node identity), keeping other attrs
  kProject,        // Π_A on `attrs` (restricts live attributes)
  kSort,           // Sort_attr by document order
  kAggregate,      // 𝔄_attr;agg(child) — singleton output tuple
  kBinaryGroup,    // children[0] Γ_{attr; left_attr θ right_attr; agg} children[1]
  kTmpCs,          // Tmp^cs (ctx_attr empty) or Tmp^cs_c — adds attr = cs
  kMemoX,          // 𝔐_{key_attrs}(child) — memoizes child's tuples
  kIdDeref,        // id(): dereference id tokens to element nodes -> attr
  kLimit           // first `limit` tuples of the child, then early Close()
};

const char* OpKindName(OpKind kind);

/// Aggregation functions of 𝔄 and of nested scalar evaluation: XPath
/// count()/sum() plus the internal exists()/max()/min() of Sec. 3.6.2 and
/// the "value of the node first in document order" family used for the
/// implicit node-set conversions.
enum class AggKind : uint8_t {
  kCount,
  kSum,         // sum of number(string-value) over nodes
  kExists,      // boolean; supports early exit (Sec. 5.2.5)
  kMax,         // max of number(node), NaN when empty
  kMin,
  kFirstString,     // string-value of first node in document order ("" empty)
  kFirstName,       // name() of first node in document order
  kFirstLocalName,  // local-name() of first node
};

const char* AggKindName(AggKind kind);

/// Scalar subscript expressions: evaluated per tuple by the NVM. They
/// reference tuple attributes by name (resolved to registers by the code
/// generator / attribute manager) and may embed nested sequence-valued
/// plans, accessed through the NVM's nested-iterator commands
/// (Sec. 5.2.3).
enum class ScalarKind : uint8_t {
  kNumberConst,
  kStringConst,
  kBoolConst,
  kAttrRef,   // tuple attribute (free variables of dependent expressions)
  kVarRef,    // XPath $variable from the execution context
  kArith,     // +,-,*,div,mod on children[0,1] (number semantics)
  kNegate,    // unary minus
  kLogical,   // and/or on children[0,1] (short-circuit)
  kCompare,   // atomic comparison with runtime type promotion
  kFunc,      // XPath core function on scalar children
  kNested     // aggregate over a nested sequence-valued plan
};

struct Scalar {
  explicit Scalar(ScalarKind k) : kind(k) {}

  ScalarKind kind;
  double number = 0;                       // kNumberConst
  bool boolean = false;                    // kBoolConst
  std::string string_value;                // kStringConst
  std::string name;                        // kAttrRef / kVarRef
  xpath::BinaryOp op = xpath::BinaryOp::kAdd;       // kArith / kLogical
  runtime::CompareOp cmp = runtime::CompareOp::kEq;  // kCompare
  xpath::FunctionId function = xpath::FunctionId::kUnknown;  // kFunc
  std::vector<ScalarPtr> children;

  // kNested:
  OpPtr plan;             // sequence-valued subplan
  AggKind agg = AggKind::kExists;
  std::string input_attr;  // attribute of `plan` fed to the aggregate

  std::string ToString() const;
};

/// A logical operator node.
struct Operator {
  explicit Operator(OpKind k) : kind(k) {}

  OpKind kind;
  std::vector<OpPtr> children;

  /// Primary produced / operated-on attribute: χ and Υ output, μ output,
  /// dedup/sort attribute, 𝔄 output, Tmp^cs output (the cs attribute),
  /// counter output (the cp attribute), id() output.
  std::string attr;
  /// Context input: Υ's context attribute, Tmp^cs_c's context attribute,
  /// the counter's reset attribute, μ's sequence-valued input attribute,
  /// Γ's and 𝔄's aggregated attribute, id()'s input attribute.
  std::string ctx_attr;

  // kUnnestMap:
  runtime::Axis axis = runtime::Axis::kChild;
  xpath::AstNodeTest test;  // names resolved at code generation
  /// Υ^rev: a child step enumerated from the last child backwards
  /// (reverse document order), set only by the reverse-scan rewrite of
  /// `position() = last() - k` (docs/LIMIT-PUSHDOWN.md).
  bool reverse = false;

  // kSelect / kMap / kSemiJoin / kAntiJoin subscripts:
  ScalarPtr scalar;
  /// kMap: χ^mat — memoize the subscript per distinct input (Sec. 4.3.2).
  bool materialize = false;

  // kAggregate / kBinaryGroup:
  AggKind agg = AggKind::kCount;
  /// kBinaryGroup: join condition left_attr == right_attr (θ fixed to
  /// equality, the only form the translation needs).
  std::string left_attr;
  std::string right_attr;

  // kProject:
  std::vector<std::string> attrs;

  // kMemoX:
  std::vector<std::string> key_attrs;

  /// kLimit: number of tuples to pass through before reporting
  /// exhaustion and closing the input pipeline (always >= 1; a limit of
  /// 0 would be a statically-empty plan, which the simplifier expresses
  /// differently).
  uint64_t limit = 0;

  // kIdDeref: when `scalar` is set, tokens come from its string value;
  // otherwise from the string-values of nodes in ctx_attr.

  /// Multi-line indented tree rendering (plan explain output).
  std::string ToString() const;
};

OpPtr MakeOp(OpKind kind);
ScalarPtr MakeScalar(ScalarKind kind);

}  // namespace natix::algebra

#endif  // NATIX_ALGEBRA_OPERATOR_H_
