#include "analysis/property_inference.h"

#include <cstdio>
#include <vector>

namespace natix::analysis {

using algebra::AggKind;
using algebra::Operator;
using algebra::OpKind;
using algebra::Scalar;
using algebra::ScalarKind;
using runtime::Axis;
using xpath::AstNodeTest;

const char* OrderStateName(OrderState order) {
  switch (order) {
    case OrderState::kDocOrdered:
      return "doc";
    case OrderState::kGrouped:
      return "grouped";
    case OrderState::kUnknown:
      return "unknown";
  }
  return "?";
}

const char* CardinalityName(Cardinality card) {
  switch (card) {
    case Cardinality::kEmpty:
      return "0";
    case Cardinality::kExactlyOne:
      return "1";
    case Cardinality::kAtMostOne:
      return "<=1";
    case Cardinality::kMany:
      return "n";
  }
  return "?";
}

const char* NodeClassName(NodeClass node_class) {
  switch (node_class) {
    case NodeClass::kRoot:
      return "root";
    case NodeClass::kElement:
      return "element";
    case NodeClass::kAttribute:
      return "attribute";
    case NodeClass::kLeafText:
      return "leaf";
    case NodeClass::kAnyNode:
      return "node";
    case NodeClass::kNonNode:
      return "value";
  }
  return "?";
}

bool CardinalityAtMostOne(Cardinality card) {
  return card != Cardinality::kMany;
}

bool CardinalityRefines(Cardinality a, Cardinality b) {
  if (a == b || b == Cardinality::kMany) return true;
  // kAtMostOne covers both kEmpty and kExactlyOne; nothing else nests.
  return b == Cardinality::kAtMostOne && CardinalityAtMostOne(a);
}

bool OrderRefines(OrderState a, OrderState b) {
  if (a == b || b == OrderState::kUnknown) return true;
  // doc-ordered (non-strict) implies grouped: equal values repeat only
  // in consecutive runs of a non-decreasing sequence.
  return b == OrderState::kGrouped && a == OrderState::kDocOrdered;
}

namespace {

/// `a` is the same class as `b`, or `b` admits any node.
bool NodeClassRefines(NodeClass a, NodeClass b) {
  return a == b || b == NodeClass::kAnyNode;
}

NodeClass MeetNodeClass(NodeClass a, NodeClass b) {
  return a == b ? a : NodeClass::kAnyNode;
}

/// True when `test` matches only the axis' principal node kind
/// (elements, or attributes on the attribute axis) — never text-like
/// nodes or the root.
bool TestRequiresPrincipal(const AstNodeTest& test) {
  return test.kind == AstNodeTest::Kind::kName ||
         test.kind == AstNodeTest::Kind::kAnyName;
}

bool TestRequiresTextLike(const AstNodeTest& test) {
  switch (test.kind) {
    case AstNodeTest::Kind::kText:
    case AstNodeTest::Kind::kComment:
    case AstNodeTest::Kind::kPi:
    case AstNodeTest::Kind::kPiTarget:
      return true;
    default:
      return false;
  }
}

}  // namespace

AttrProperties PlanProperties::Lookup(const std::string& name) const {
  AttrProperties props;
  auto it = attrs.find(name);
  if (it != attrs.end()) props = it->second;
  if (CardinalityAtMostOne(cardinality)) {
    // A <=1-tuple stream is trivially ordered, duplicate-free and
    // non-nested on every attribute.
    props.order = OrderState::kDocOrdered;
    props.duplicate_free = true;
    props.non_nested = true;
  } else if (it == attrs.end()) {
    // Free attribute: one fixed value per evaluation (the dependent-join
    // contract). Constant values are non-decreasing and never properly
    // nest, but repeat on every tuple.
    props.order = OrderState::kDocOrdered;
    props.non_nested = true;
  }
  return props;
}

bool StaticallyEmptyStep(NodeClass cls, Axis axis,
                         const AstNodeTest& test) {
  // The attribute axis yields only attribute nodes: text()/comment()/
  // pi() tests can never match, whatever the context.
  if (axis == Axis::kAttribute && TestRequiresTextLike(test)) return true;
  switch (cls) {
    case NodeClass::kAttribute:
      switch (axis) {
        // Attribute nodes have no children, attributes or siblings
        // (AxisCursor emits nothing for these contexts).
        case Axis::kChild:
        case Axis::kDescendant:
        case Axis::kAttribute:
        case Axis::kFollowingSibling:
        case Axis::kPrecedingSibling:
          return true;
        // self / descendant-or-self reach only the attribute itself,
        // which never matches an element name test.
        case Axis::kSelf:
        case Axis::kDescendantOrSelf:
          return TestRequiresPrincipal(test);
        default:
          return false;
      }
    case NodeClass::kLeafText:
      switch (axis) {
        case Axis::kChild:
        case Axis::kDescendant:
        case Axis::kAttribute:
          return true;
        case Axis::kSelf:
        case Axis::kDescendantOrSelf:
          // Both reach only the leaf itself, which is not an element.
          return TestRequiresPrincipal(test);
        default:
          return false;
      }
    case NodeClass::kRoot:
      switch (axis) {
        // The root has no parent, siblings, attributes — and nothing
        // precedes or follows it.
        case Axis::kParent:
        case Axis::kAncestor:
        case Axis::kFollowing:
        case Axis::kFollowingSibling:
        case Axis::kPreceding:
        case Axis::kPrecedingSibling:
        case Axis::kAttribute:
          return true;
        case Axis::kSelf:
        case Axis::kAncestorOrSelf:
          // The root node itself is not an element.
          return TestRequiresPrincipal(test);
        default:
          return false;
      }
    case NodeClass::kElement:
    case NodeClass::kAnyNode:
    case NodeClass::kNonNode:
      return false;
  }
  return false;
}

namespace {

/// Output node class of an axis step.
NodeClass StepNodeClass(Axis axis, const AstNodeTest& test) {
  if (axis == Axis::kAttribute) return NodeClass::kAttribute;
  if (TestRequiresPrincipal(test)) return NodeClass::kElement;
  if (TestRequiresTextLike(test)) return NodeClass::kLeafText;
  return NodeClass::kAnyNode;  // node()
}

/// Cardinality of a stream that appends the fan-outs of `input` tuples.
Cardinality ExpandCardinality(Cardinality input) {
  return input == Cardinality::kEmpty ? Cardinality::kEmpty
                                      : Cardinality::kMany;
}

/// Weakens an exact bound to its upper bound (selection may drop the
/// tuple).
Cardinality FilterCardinality(Cardinality input) {
  return input == Cardinality::kExactlyOne ? Cardinality::kAtMostOne
                                           : input;
}

/// Fan-out over the input stream: every input attribute keeps its order
/// (runs stay contiguous and non-decreasing), nesting state and class,
/// but values repeat whenever one tuple expands to several.
void DropDistinctness(PlanProperties* props) {
  for (auto& [name, attr] : props->attrs) attr.duplicate_free = false;
}

PlanProperties Infer(const Operator& op, PropertyMap* map);

void AnnotateScalar(const Scalar& scalar, PropertyMap* map) {
  if (scalar.kind == ScalarKind::kNested && scalar.plan != nullptr) {
    Infer(*scalar.plan, map);
  }
  for (const algebra::ScalarPtr& child : scalar.children) {
    AnnotateScalar(*child, map);
  }
}

/// Class (and constancy) of a mapped scalar value. Only attribute
/// references and root*() produce nodes; everything else is atomic.
AttrProperties MapOutputProperties(const Scalar& scalar,
                                   const PlanProperties& input) {
  AttrProperties out;
  switch (scalar.kind) {
    case ScalarKind::kAttrRef:
      // Alias: the same value per tuple as the source attribute.
      return input.Lookup(scalar.name);
    case ScalarKind::kNumberConst:
    case ScalarKind::kStringConst:
    case ScalarKind::kBoolConst:
    case ScalarKind::kVarRef:
      // Constant over the stream (variables are fixed per execution).
      out.node_class = NodeClass::kNonNode;
      out.order = OrderState::kGrouped;
      out.non_nested = true;
      return out;
    case ScalarKind::kFunc:
      if (scalar.function == xpath::FunctionId::kRootInternal) {
        // root*(x): the document root — one fixed node per evaluation.
        out.node_class = NodeClass::kRoot;
        out.order = OrderState::kDocOrdered;
        out.non_nested = true;
        return out;
      }
      out.node_class = NodeClass::kNonNode;
      return out;
    case ScalarKind::kArith:
    case ScalarKind::kNegate:
    case ScalarKind::kLogical:
    case ScalarKind::kCompare:
    case ScalarKind::kNested:
      out.node_class = NodeClass::kNonNode;
      return out;
  }
  return out;
}

PlanProperties Infer(const Operator& op, PropertyMap* map) {
  PlanProperties props;
  if (op.scalar != nullptr && map != nullptr) {
    AnnotateScalar(*op.scalar, map);
  }
  switch (op.kind) {
    case OpKind::kSingletonScan:
      props.cardinality = Cardinality::kExactlyOne;
      break;

    case OpKind::kSelect: {
      props = Infer(*op.children[0], map);
      if (op.scalar->kind == ScalarKind::kBoolConst) {
        // Constant predicates fix the outcome: true keeps the exact
        // bound, false empties the stream.
        if (!op.scalar->boolean) props.cardinality = Cardinality::kEmpty;
      } else {
        props.cardinality = FilterCardinality(props.cardinality);
      }
      break;
    }

    case OpKind::kMap: {
      props = Infer(*op.children[0], map);
      AttrProperties out = MapOutputProperties(*op.scalar, props);
      props.attrs[op.attr] = out;
      break;
    }

    case OpKind::kCounter: {
      props = Infer(*op.children[0], map);
      AttrProperties out;
      out.node_class = NodeClass::kNonNode;
      // Without a reset attribute the counter numbers the whole stream
      // 1..n; with one it restarts per group and values repeat.
      out.duplicate_free = op.ctx_attr.empty();
      props.attrs[op.attr] = out;
      break;
    }

    case OpKind::kTmpCs: {
      props = Infer(*op.children[0], map);
      AttrProperties out;
      out.node_class = NodeClass::kNonNode;
      // cs is constant per context group, and groups are consecutive.
      out.order = OrderState::kGrouped;
      out.non_nested = true;
      props.attrs[op.attr] = out;
      break;
    }

    case OpKind::kUnnestMap: {
      PlanProperties input = Infer(*op.children[0], map);
      AttrProperties ctx = input.Lookup(op.ctx_attr);
      props = input;
      DropDistinctness(&props);
      if (input.cardinality == Cardinality::kEmpty ||
          StaticallyEmptyStep(ctx.node_class, op.axis, op.test)) {
        props.cardinality = Cardinality::kEmpty;
      } else {
        switch (op.axis) {
          case Axis::kSelf:
            // At most one output per context.
            props.cardinality = FilterCardinality(input.cardinality);
            break;
          case Axis::kChild:
            // A document node has exactly one element child (the
            // document element), so a child step with an element test
            // from a root context yields at most one node per context.
            props.cardinality =
                ctx.node_class == NodeClass::kRoot &&
                        TestRequiresPrincipal(op.test) && input.AtMostOne()
                    ? Cardinality::kAtMostOne
                    : ExpandCardinality(input.cardinality);
            break;
          case Axis::kParent:
            // At most one parent per context.
            props.cardinality = input.AtMostOne() ? Cardinality::kAtMostOne
                                                  : Cardinality::kMany;
            break;
          case Axis::kAttribute:
            // Attribute names are unique per element.
            props.cardinality =
                op.test.kind == AstNodeTest::Kind::kName &&
                        input.AtMostOne()
                    ? Cardinality::kAtMostOne
                    : ExpandCardinality(input.cardinality);
            break;
          default:
            props.cardinality = ExpandCardinality(input.cardinality);
            break;
        }
      }

      AttrProperties out;
      out.node_class = StepNodeClass(op.axis, op.test);
      // Duplicate-freedom (Hidders/Michiels): child/attribute/self map
      // distinct contexts to disjoint results; descendant steps need the
      // contexts pairwise non-nested on top (disjoint subtrees).
      switch (op.axis) {
        case Axis::kChild:
        case Axis::kAttribute:
        case Axis::kSelf:
          out.duplicate_free = ctx.duplicate_free;
          break;
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          out.duplicate_free = ctx.duplicate_free && ctx.non_nested;
          break;
        default:
          break;
      }
      // Document order. The cursor emits each context's results in
      // document order (forward axes); the concatenation over contexts
      // stays non-decreasing only when context groups cannot interleave:
      // duplicate-free ordered contexts, plus disjoint subtrees for
      // child/descendant.
      switch (op.axis) {
        case Axis::kSelf:
          out.order = ctx.order;
          out.non_nested = ctx.non_nested;
          break;
        case Axis::kAttribute:
          // Attributes sit directly after their element, before its
          // children — and are never ancestors of anything.
          if (ctx.order == OrderState::kDocOrdered && ctx.duplicate_free) {
            out.order = OrderState::kDocOrdered;
          }
          out.non_nested = true;
          break;
        case Axis::kChild:
          // Υ^rev emits each context's children last to first.
          if (ctx.order == OrderState::kDocOrdered && !op.reverse &&
              ctx.duplicate_free && ctx.non_nested) {
            out.order = OrderState::kDocOrdered;
          }
          out.non_nested = ctx.non_nested;
          break;
        case Axis::kDescendant:
        case Axis::kDescendantOrSelf:
          if (ctx.order == OrderState::kDocOrdered &&
              ctx.duplicate_free && ctx.non_nested) {
            out.order = OrderState::kDocOrdered;
          }
          // Descendant values nest by construction.
          break;
        case Axis::kFollowingSibling:
          // A single context's siblings are ordered and non-nested; for
          // several contexts the sibling runs interleave.
          if (input.AtMostOne()) {
            out.order = OrderState::kDocOrdered;
            out.non_nested = true;
          }
          break;
        case Axis::kFollowing:
          if (input.AtMostOne()) out.order = OrderState::kDocOrdered;
          break;
        default:
          // Reverse axes emit in reverse document order: no claims.
          break;
      }
      props.attrs[op.attr] = out;
      break;
    }

    case OpKind::kDJoin:
    case OpKind::kCross: {
      PlanProperties left = Infer(*op.children[0], map);
      PlanProperties right = Infer(*op.children[1], map);
      // Cardinality of the product of per-left-tuple evaluations.
      if (left.cardinality == Cardinality::kEmpty ||
          right.cardinality == Cardinality::kEmpty) {
        props.cardinality = Cardinality::kEmpty;
      } else if (left.cardinality == Cardinality::kExactlyOne &&
                 right.cardinality == Cardinality::kExactlyOne) {
        props.cardinality = Cardinality::kExactlyOne;
      } else if (left.AtMostOne() && right.AtMostOne()) {
        props.cardinality = Cardinality::kAtMostOne;
      } else {
        props.cardinality = Cardinality::kMany;
      }
      // Left attributes: each left tuple's fan-out is consecutive, so
      // order/grouping/nesting survive; distinctness survives only when
      // the right side yields at most one tuple per left tuple.
      props.attrs = left.attrs;
      if (!right.AtMostOne()) DropDistinctness(&props);
      // Right attributes: claims hold per re-evaluation; across left
      // tuples only when there is at most one left tuple.
      for (const auto& [name, attr] : right.attrs) {
        if (left.AtMostOne()) {
          props.attrs[name] = attr;
        } else {
          AttrProperties weakened;
          weakened.node_class = attr.node_class;
          props.attrs[name] = weakened;
        }
      }
      break;
    }

    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin: {
      PlanProperties left = Infer(*op.children[0], map);
      PlanProperties right = Infer(*op.children[1], map);
      props = left;
      props.cardinality = FilterCardinality(left.cardinality);
      if (right.cardinality == Cardinality::kEmpty) {
        // An empty right side makes a semi join empty and an anti join
        // the identity.
        props.cardinality = op.kind == OpKind::kSemiJoin
                                ? Cardinality::kEmpty
                                : left.cardinality;
      }
      break;
    }

    case OpKind::kUnnest: {
      props = Infer(*op.children[0], map);
      DropDistinctness(&props);
      props.cardinality = ExpandCardinality(props.cardinality);
      props.attrs[op.attr] = AttrProperties{};
      break;
    }

    case OpKind::kConcat: {
      std::vector<PlanProperties> branches;
      branches.reserve(op.children.size());
      for (const algebra::OpPtr& child : op.children) {
        branches.push_back(Infer(*child, map));
      }
      // Statically empty branches contribute nothing.
      std::vector<const PlanProperties*> live;
      for (const PlanProperties& branch : branches) {
        if (branch.cardinality != Cardinality::kEmpty) {
          live.push_back(&branch);
        }
      }
      if (live.empty()) {
        props.cardinality = Cardinality::kEmpty;
      } else if (live.size() == 1) {
        props.cardinality = live.front()->cardinality;
      } else {
        props.cardinality = Cardinality::kMany;
      }
      // The concatenation defines the intersection of the branches'
      // attributes. With one live branch its claims carry over; with
      // several, branch streams follow each other with unknown overlap.
      if (!branches.empty()) {
        for (const auto& [name, attr] : branches.front().attrs) {
          bool everywhere = true;
          NodeClass cls = attr.node_class;
          for (size_t i = 1; i < branches.size(); ++i) {
            auto it = branches[i].attrs.find(name);
            if (it == branches[i].attrs.end()) {
              everywhere = false;
              break;
            }
            cls = MeetNodeClass(cls, it->second.node_class);
          }
          if (!everywhere) continue;
          AttrProperties merged;
          merged.node_class = cls;
          if (live.size() == 1) {
            auto it = live.front()->attrs.find(name);
            if (it != live.front()->attrs.end()) {
              merged = it->second;
              merged.node_class = cls;
            }
          }
          props.attrs[name] = merged;
        }
      }
      break;
    }

    case OpKind::kDupElim: {
      props = Infer(*op.children[0], map);
      props.attrs[op.attr].duplicate_free = true;
      // A subset in input order: every other claim survives.
      break;
    }

    case OpKind::kProject: {
      props = Infer(*op.children[0], map);
      std::map<std::string, AttrProperties> kept;
      for (const std::string& name : op.attrs) {
        auto it = props.attrs.find(name);
        if (it != props.attrs.end()) kept.emplace(name, it->second);
      }
      props.attrs = std::move(kept);
      break;
    }

    case OpKind::kSort: {
      props = Infer(*op.children[0], map);
      // Reordering by op.attr destroys every other attribute's order
      // and grouping (value sets survive: distinctness and nesting keep).
      for (auto& [name, attr] : props.attrs) {
        if (name != op.attr) attr.order = OrderState::kUnknown;
      }
      props.attrs[op.attr].order = OrderState::kDocOrdered;
      break;
    }

    case OpKind::kAggregate: {
      Infer(*op.children[0], map);
      props.cardinality = Cardinality::kExactlyOne;
      AttrProperties out;
      out.node_class = NodeClass::kNonNode;
      props.attrs[op.attr] = out;
      break;
    }

    case OpKind::kBinaryGroup: {
      props = Infer(*op.children[0], map);
      Infer(*op.children[1], map);
      AttrProperties out;
      out.node_class = NodeClass::kNonNode;
      props.attrs[op.attr] = out;
      break;
    }

    case OpKind::kMemoX:
      // Replays the child stream unchanged.
      props = Infer(*op.children[0], map);
      break;

    case OpKind::kIdDeref: {
      props = Infer(*op.children[0], map);
      DropDistinctness(&props);
      props.cardinality = ExpandCardinality(props.cardinality);
      AttrProperties out;
      out.node_class = NodeClass::kElement;
      props.attrs[op.attr] = out;
      break;
    }

    case OpKind::kLimit:
      props = Infer(*op.children[0], map);
      // A prefix of the input stream: every per-attribute claim
      // survives, and no tuple below the bound is dropped, so exact
      // cardinalities keep. Limit 1 caps an unbounded input at a
      // single tuple.
      if (op.limit == 1 && props.cardinality == Cardinality::kMany) {
        props.cardinality = Cardinality::kAtMostOne;
      }
      break;
  }
  if (map != nullptr) map->emplace(&op, props);
  return props;
}

}  // namespace

PlanProperties InferPlanProperties(const Operator& op) {
  return Infer(op, nullptr);
}

PropertyMap AnnotatePlan(const Operator& root) {
  PropertyMap map;
  Infer(root, &map);
  return map;
}

std::string OperatorSummary(const Operator& op) {
  std::string out = algebra::OpKindName(op.kind);
  switch (op.kind) {
    case OpKind::kMap:
      out += std::string(op.materialize ? "^mat" : "") + "[" + op.attr +
             " := " + op.scalar->ToString() + "]";
      break;
    case OpKind::kSelect:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
      out += "[" + op.scalar->ToString() + "]";
      break;
    case OpKind::kUnnestMap:
      out += std::string(op.reverse ? "^rev" : "") + "[" + op.attr +
             " := " + op.ctx_attr + "/" + runtime::AxisName(op.axis) +
             "::" + op.test.ToString() + "]";
      break;
    case OpKind::kCounter:
      out += "[" + op.attr +
             (op.ctx_attr.empty() ? "" : ", reset on " + op.ctx_attr) + "]";
      break;
    case OpKind::kTmpCs:
      out += "[" + op.attr +
             (op.ctx_attr.empty() ? "" : "; context " + op.ctx_attr) + "]";
      break;
    case OpKind::kDupElim:
    case OpKind::kSort:
    case OpKind::kUnnest:
    case OpKind::kIdDeref:
      out += "[" + op.attr + "]";
      break;
    case OpKind::kAggregate:
      out += "[" + op.attr + " := " +
             std::string(algebra::AggKindName(op.agg)) + "(" + op.ctx_attr +
             ")]";
      break;
    case OpKind::kMemoX: {
      out += "[";
      for (size_t i = 0; i < op.key_attrs.size(); ++i) {
        if (i > 0) out += ", ";
        out += op.key_attrs[i];
      }
      out += "]";
      break;
    }
    case OpKind::kLimit:
      out += "[" + std::to_string(op.limit) + "]";
      break;
    default:
      break;
  }
  return out;
}

std::string RenderProperties(const PlanProperties& props,
                             const std::string& focus_attr) {
  std::string out = "{card:";
  out += CardinalityName(props.cardinality);
  if (!focus_attr.empty()) {
    AttrProperties attr = props.Lookup(focus_attr);
    if (attr.order != OrderState::kUnknown) {
      out += std::string(", ord:") + OrderStateName(attr.order) + "(" +
             focus_attr + ")";
    }
    if (attr.duplicate_free) out += ", dup-free(" + focus_attr + ")";
    if (attr.non_nested) out += ", non-nested(" + focus_attr + ")";
    if (attr.node_class != NodeClass::kAnyNode) {
      out += std::string(", class:") + NodeClassName(attr.node_class);
    }
  }
  out += "}";
  return out;
}

namespace {

/// The attribute whose claims matter at this operator (its output, or
/// for pass-through operators the attribute it operates on).
std::string FocusAttr(const Operator& op) {
  switch (op.kind) {
    case OpKind::kSingletonScan:
    case OpKind::kProject:
    case OpKind::kSelect:
    case OpKind::kDJoin:
    case OpKind::kCross:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
    case OpKind::kConcat:
    case OpKind::kMemoX:
      return std::string();
    default:
      return op.attr;
  }
}

void RenderAnnotated(const Operator& op, const PropertyMap& map, int depth,
                     std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += OperatorSummary(op);
  auto it = map.find(&op);
  if (it != map.end()) {
    *out += "  " + RenderProperties(it->second, FocusAttr(op));
  }
  *out += "\n";
  if (op.scalar != nullptr) {
    // Nested scalar subplans carry their own annotations.
    struct ScalarWalker {
      const PropertyMap& map;
      int depth;
      std::string* out;
      void Walk(const Scalar& scalar) {
        if (scalar.kind == ScalarKind::kNested && scalar.plan != nullptr) {
          out->append(static_cast<size_t>(depth) * 2, ' ');
          *out += "nested " + std::string(algebra::AggKindName(scalar.agg)) +
                  "(" + scalar.input_attr + "):\n";
          RenderAnnotated(*scalar.plan, map, depth + 1, out);
        }
        for (const algebra::ScalarPtr& child : scalar.children) {
          Walk(*child);
        }
      }
    };
    ScalarWalker{map, depth + 1, out}.Walk(*op.scalar);
  }
  for (const algebra::OpPtr& child : op.children) {
    RenderAnnotated(*child, map, depth + 1, out);
  }
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonForOp(const Operator& op, const PropertyMap& map, std::string* out) {
  *out += "{\"op\":\"" + std::string(algebra::OpKindName(op.kind)) + "\"";
  *out += ",\"summary\":\"" + JsonEscape(OperatorSummary(op)) + "\"";
  auto it = map.find(&op);
  if (it != map.end()) {
    const PlanProperties& props = it->second;
    *out += ",\"cardinality\":\"" +
            std::string(CardinalityName(props.cardinality)) + "\"";
    *out += ",\"attrs\":{";
    bool first = true;
    for (const auto& [name, attr] : props.attrs) {
      if (!first) *out += ",";
      first = false;
      *out += "\"" + JsonEscape(name) + "\":{\"order\":\"" +
              std::string(OrderStateName(attr.order)) +
              "\",\"duplicate_free\":" +
              (attr.duplicate_free ? "true" : "false") +
              ",\"non_nested\":" + (attr.non_nested ? "true" : "false") +
              ",\"class\":\"" + NodeClassName(attr.node_class) + "\"}";
    }
    *out += "}";
  }
  // Nested scalar subplans.
  std::vector<const Scalar*> nested;
  struct Collector {
    std::vector<const Scalar*>* nested;
    void Walk(const Scalar& scalar) {
      if (scalar.kind == ScalarKind::kNested && scalar.plan != nullptr) {
        nested->push_back(&scalar);
      }
      for (const algebra::ScalarPtr& child : scalar.children) Walk(*child);
    }
  };
  if (op.scalar != nullptr) Collector{&nested}.Walk(*op.scalar);
  if (!nested.empty()) {
    *out += ",\"nested\":[";
    for (size_t i = 0; i < nested.size(); ++i) {
      if (i > 0) *out += ",";
      *out += "{\"agg\":\"" +
              std::string(algebra::AggKindName(nested[i]->agg)) +
              "\",\"input\":\"" + JsonEscape(nested[i]->input_attr) +
              "\",\"plan\":";
      JsonForOp(*nested[i]->plan, map, out);
      *out += "}";
    }
    *out += "]";
  }
  if (!op.children.empty()) {
    *out += ",\"children\":[";
    for (size_t i = 0; i < op.children.size(); ++i) {
      if (i > 0) *out += ",";
      JsonForOp(*op.children[i], map, out);
    }
    *out += "]";
  }
  *out += "}";
}

}  // namespace

std::string RenderAnnotatedPlan(const Operator& root, const PropertyMap& map) {
  std::string out;
  RenderAnnotated(root, map, 0, &out);
  return out;
}

std::string PlanToJson(const Operator& root, const PropertyMap& map) {
  std::string out;
  JsonForOp(root, map, &out);
  out += "\n";
  return out;
}

Status CheckPropertyPreservation(const PlanProperties& before,
                                 const PlanProperties& after,
                                 const char* rule) {
  auto violation = [rule](const std::string& detail) {
    return Status::Internal(std::string("rewrite rule '") + rule +
                            "' weakened inferred properties: " + detail);
  };
  if (!CardinalityRefines(after.cardinality, before.cardinality)) {
    return violation(std::string("cardinality bound ") +
                     CardinalityName(before.cardinality) + " became " +
                     CardinalityName(after.cardinality));
  }
  // A provably empty stream satisfies every per-attribute claim
  // vacuously — there is no tuple a claim could fail on.
  if (after.cardinality == Cardinality::kEmpty) return Status::OK();
  for (const auto& [name, attr] : before.attrs) {
    AttrProperties b = before.Lookup(name);
    AttrProperties a = after.Lookup(name);
    if (!OrderRefines(a.order, b.order)) {
      return violation("order " + std::string(OrderStateName(b.order)) +
                       "(" + name + ") became " + OrderStateName(a.order));
    }
    if (b.duplicate_free && !a.duplicate_free) {
      return violation("duplicate-freedom of '" + name + "' was lost");
    }
    if (b.non_nested && !a.non_nested) {
      return violation("non-nesting of '" + name + "' was lost");
    }
    if (!NodeClassRefines(a.node_class, b.node_class)) {
      return violation("node class " +
                       std::string(NodeClassName(b.node_class)) + "(" +
                       name + ") became " + NodeClassName(a.node_class));
    }
  }
  return Status::OK();
}

}  // namespace natix::analysis
