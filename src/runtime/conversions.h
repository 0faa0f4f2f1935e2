#ifndef NATIX_RUNTIME_CONVERSIONS_H_
#define NATIX_RUNTIME_CONVERSIONS_H_

#include <string>

#include "base/statusor.h"
#include "runtime/value.h"
#include "storage/node_store.h"

namespace natix::runtime {

/// Execution-time context shared by conversions, the NVM and iterators:
/// the store whose pages node references point into (its catalog and name
/// dictionary), and the execution's page set, through which every node
/// record is read.
struct EvalContext {
  const storage::NodeStore* store = nullptr;
  storage::NodeAccessor* nodes = nullptr;
};

/// XPath string-value of a node.
StatusOr<std::string> NodeStringValue(NodeRef node, const EvalContext& ctx);

/// XPath boolean() applied to an atomic value or a single node/sequence.
/// Nodes convert to true (a one-node node-set); sequences to non-emptiness.
StatusOr<bool> ToBoolean(const Value& v, const EvalContext& ctx);

/// XPath number(): booleans to 0/1, strings via the Number production,
/// nodes via their string-value. Null converts to NaN.
StatusOr<double> ToNumber(const Value& v, const EvalContext& ctx);

/// XPath string(): numbers per the XPath formatting rules, nodes via their
/// string-value, sequences via the first node in document order ("" when
/// empty). Null converts to "".
StatusOr<std::string> ToStringValue(const Value& v, const EvalContext& ctx);

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Comparison of two non-node-set operands with the XPath 1.0 type
/// promotion rules: for = and != booleans dominate, then numbers, then
/// strings; the relational operators always compare numbers. A kNode
/// operand behaves like its string-value.
StatusOr<bool> CompareAtomic(CompareOp op, const Value& a, const Value& b,
                             const EvalContext& ctx);

/// Whether `op` holds under the IEEE semantics XPath requires (NaN makes
/// every comparison but != false).
bool CompareNumbers(CompareOp op, double a, double b);

const char* CompareOpName(CompareOp op);

}  // namespace natix::runtime

#endif  // NATIX_RUNTIME_CONVERSIONS_H_
