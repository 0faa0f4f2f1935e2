#ifndef NATIX_ANALYSIS_PROPERTY_INFERENCE_H_
#define NATIX_ANALYSIS_PROPERTY_INFERENCE_H_

#include <map>
#include <string>

#include "algebra/operator.h"
#include "base/statusor.h"

namespace natix::analysis {

/// Static property inference over the logical algebra: a bottom-up
/// abstract interpretation that annotates every operator with the
/// ordering state of each attribute, duplicate-freedom, a cardinality
/// bound, and the static node class used to decide emptiness of axis
/// compositions (e.g. attribute::x/child::y yields nothing).
///
/// The claims justify the rewriter's Sort / duplicate-elimination
/// removals (Hidders/Michiels-style order and duplicate analysis, which
/// the paper lists as future work in Sec. 4.1), are re-checked across
/// every rewrite by the Layer-1.5 verifier pass, and are asserted
/// against actual tuples by the debug-mode runtime property oracle
/// (src/qe/property_oracle.h).

/// Ordering state of one attribute over a tuple stream. kDocOrdered
/// means NON-strictly ascending by document order (runs of equal nodes
/// allowed — pipeline fan-out repeats input values); kGrouped means
/// equal values are consecutive (what Tmp^cs_c and reset counters need).
/// doc-ordered implies grouped.
enum class OrderState : uint8_t { kDocOrdered, kGrouped, kUnknown };

/// Cardinality bound of a stream per Open(). Dependent subplans are
/// re-opened per outer tuple, so their bound holds per evaluation.
enum class Cardinality : uint8_t {
  kEmpty,       // provably no tuples
  kExactlyOne,  // provably exactly one tuple
  kAtMostOne,   // zero or one tuple
  kMany         // unknown / unbounded
};

/// Static class of the values an attribute holds; drives the emptiness
/// analysis of axis/node-test compositions. Only classes whose axis
/// behavior the runtime cursor fixes (src/runtime/node_ops.cc) make
/// emptiness claims; kAnyNode / kNonNode never do.
enum class NodeClass : uint8_t {
  kRoot,       // the document root node (root*(·))
  kElement,    // element nodes only (name tests on non-attribute axes)
  kAttribute,  // attribute nodes only
  kLeafText,   // text / comment / PI nodes: no children, no attributes
  kAnyNode,    // some node, kind unknown
  kNonNode     // atomic value
};

const char* OrderStateName(OrderState order);
const char* CardinalityName(Cardinality card);
const char* NodeClassName(NodeClass node_class);

/// True for kEmpty / kExactlyOne / kAtMostOne.
bool CardinalityAtMostOne(Cardinality card);
/// `a` is at least as precise a bound as `b`.
bool CardinalityRefines(Cardinality a, Cardinality b);
/// `a` is at least as strong an ordering claim as `b`.
bool OrderRefines(OrderState a, OrderState b);

/// Per-attribute claims about one operator's output stream.
struct AttrProperties {
  OrderState order = OrderState::kUnknown;
  /// No two tuples carry the same value (nodes: same identity).
  bool duplicate_free = false;
  /// No value is a proper ancestor of another value — the side condition
  /// under which child/descendant steps preserve order and descendant
  /// steps preserve duplicate-freedom (disjoint subtrees).
  bool non_nested = false;
  NodeClass node_class = NodeClass::kAnyNode;
};

/// Inferred properties of one operator's output.
struct PlanProperties {
  Cardinality cardinality = Cardinality::kMany;
  /// One entry per attribute BOUND in the subtree (claims may be all
  /// conservative). Free attributes are per-evaluation constants and are
  /// folded in by Lookup().
  std::map<std::string, AttrProperties> attrs;

  bool AtMostOne() const { return CardinalityAtMostOne(cardinality); }

  /// Effective claims for `name`: the materialized entry plus the trivial
  /// claims of a <=1-tuple stream, plus the constancy of free attributes
  /// (constant values are trivially non-decreasing and never properly
  /// nest, but are full of duplicates).
  AttrProperties Lookup(const std::string& name) const;
};

/// True when `axis::test` from a context node of class `cls` provably
/// yields no nodes. Mirrors runtime::AxisCursor (attributes and leaf
/// nodes have no children; name tests match only the axis' principal
/// node kind; the root has no parent, siblings or attributes).
bool StaticallyEmptyStep(NodeClass cls, runtime::Axis axis,
                         const xpath::AstNodeTest& test);

/// Bottom-up inference for one subtree (conservative: every claim holds
/// in every evaluation).
PlanProperties InferPlanProperties(const algebra::Operator& op);

/// Properties for every operator of the plan, including operators inside
/// nested scalar subplans, keyed by node address.
using PropertyMap = std::map<const algebra::Operator*, PlanProperties>;
PropertyMap AnnotatePlan(const algebra::Operator& root);

/// A one-line operator descriptor without register assignments, e.g.
/// "UnnestMap[c3 := c2/child::b]" (rewrite-log targets, JSON).
std::string OperatorSummary(const algebra::Operator& op);

/// "{card:n, ord:doc(c3), dup-free(c3), non-nested(c3)}" — the claims
/// about `focus_attr` plus the cardinality bound. Empty focus: bound
/// only. (Colon-separated tags; no '=' so EXPLAIN goldens can normalize
/// numbers.)
std::string RenderProperties(const PlanProperties& props,
                             const std::string& focus_attr);

/// The logical plan tree with a property tag per operator, read from
/// `map` (AnnotatePlan of `root`).
std::string RenderAnnotatedPlan(const algebra::Operator& root,
                                const PropertyMap& map);

/// JSON rendering of the operator tree with full inferred properties
/// from `map` (AnnotatePlan of `root`; natixq --explain-json).
std::string PlanToJson(const algebra::Operator& root, const PropertyMap& map);

/// Layer-1.5 of the plan verifier: checks that a rewrite did not weaken
/// the inferred properties of the rewritten subtree — cardinality bound,
/// per-attribute order, duplicate-freedom, non-nesting and node class
/// must all be at least as precise after the rule as before. Returns a
/// violation naming `rule`.
Status CheckPropertyPreservation(const PlanProperties& before,
                                 const PlanProperties& after,
                                 const char* rule);

}  // namespace natix::analysis

#endif  // NATIX_ANALYSIS_PROPERTY_INFERENCE_H_
