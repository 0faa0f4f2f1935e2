#include "algebra/rewriter.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "algebra/properties.h"
#include "analysis/plan_verifier.h"
#include "analysis/property_inference.h"
#include "obs/trace.h"
#include "runtime/node_ops.h"

namespace natix::algebra {

using analysis::Cardinality;
using analysis::OrderState;
using analysis::PlanProperties;

SequenceProperties InferProperties(const Operator& op) {
  PlanProperties inferred = analysis::InferPlanProperties(op);
  SequenceProperties props;
  props.singleton = inferred.AtMostOne();
  for (const auto& [name, attr] : inferred.attrs) {
    if (attr.duplicate_free) props.duplicate_free.insert(name);
    if (attr.order == OrderState::kDocOrdered) props.ordered_by.insert(name);
    if (attr.non_nested) props.non_nested.insert(name);
  }
  return props;
}

namespace {

/// Rewrite session state: the plan root (for whole-plan re-verification
/// after each rule), the attributes the plan may legitimately read from
/// its context, the rewrite log, and the first verification failure
/// (which stops further rewriting and names the rule that caused it).
struct SimplifyCtx {
  const OpPtr* root = nullptr;
  bool verify = false;
  bool limit_pushdown = true;
  std::set<std::string> outer;
  RewriteLog* log = nullptr;
  Status status;
};

/// Records one rule application with its proving property.
void LogRewrite(SimplifyCtx* ctx, const char* rule, std::string target,
                std::string justification) {
  if (ctx->log == nullptr) return;
  ctx->log->push_back(RewriteEvent{std::string(rule), std::move(target),
                                   std::move(justification)});
}

/// Re-verifies the plan after `rule` fired: Layer 1 (well-formedness of
/// the whole plan) and, when `before`/`after` are given, Layer 1.5
/// (the rewritten subtree's inferred properties must not weaken).
void CheckAfterRule(SimplifyCtx* ctx, const char* rule,
                    const PlanProperties* before, const Operator* after) {
  if (!ctx->verify || !ctx->status.ok()) return;
  Status st = analysis::VerifyLogicalPlan(**ctx->root, ctx->outer);
  if (!st.ok()) {
    ctx->status = Status::Internal(
        std::string("rewrite rule '") + rule +
        "' produced a malformed plan: " + st.message());
    return;
  }
  if (before != nullptr && after != nullptr) {
    ctx->status = analysis::CheckPropertyPreservation(
        *before, analysis::InferPlanProperties(*after), rule);
  }
}

size_t SimplifyScalar(Scalar* scalar, SimplifyCtx* ctx);

/// Replaces the operator in `slot` by its child at `child_index`,
/// running the Layer-1/1.5 checks. Returns the number of operators that
/// disappeared (the node itself plus any sibling subtrees).
size_t ReplaceByChild(OpPtr* slot, size_t child_index, SimplifyCtx* ctx,
                      const char* rule, std::string justification) {
  Operator* op = slot->get();
  PlanProperties before = analysis::InferPlanProperties(*op);
  size_t dropped = PlanSize(*op) - PlanSize(*op->children[child_index]);
  LogRewrite(ctx, rule, analysis::OperatorSummary(*op),
             std::move(justification));
  *slot = std::move(op->children[child_index]);
  CheckAfterRule(ctx, rule, &before, slot->get());
  return dropped;
}

/// Whether `op` binds `attr` as a stream attribute.
bool BindsAttr(const Operator& op, const std::string& attr) {
  switch (op.kind) {
    case OpKind::kMap:
    case OpKind::kCounter:
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
    case OpKind::kAggregate:
    case OpKind::kBinaryGroup:
    case OpKind::kTmpCs:
    case OpKind::kIdDeref:
      return op.attr == attr;
    default:
      return false;
  }
}

/// The operator in `op`'s subtree binding `attr`, or null when the
/// attribute is free there (bound outside, e.g. by a dependent join's
/// left branch or the execution context).
const Operator* FindBinder(const Operator& op, const std::string& attr) {
  if (BindsAttr(op, attr)) return &op;
  for (const OpPtr& child : op.children) {
    if (const Operator* found = FindBinder(*child, attr)) return found;
  }
  return nullptr;
}

/// Descends through operators that merely decorate or replay their
/// input stream to the operator that produced the node sequence a
/// positional predicate counts over.
const Operator* FocusProducer(const Operator* op) {
  while (op->kind == OpKind::kSelect || op->kind == OpKind::kCounter ||
         op->kind == OpKind::kTmpCs || op->kind == OpKind::kLimit ||
         op->kind == OpKind::kMap || op->kind == OpKind::kProject ||
         op->kind == OpKind::kMemoX) {
    op = op->children[0].get();
  }
  return op;
}

/// The node-stream attribute `op` produces, when it is a producer the
/// positional rewrite can reason about.
std::string ProducerAttr(const Operator& op) {
  switch (op.kind) {
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
    case OpKind::kIdDeref:
    case OpKind::kDupElim:
    case OpKind::kSort:
      return op.attr;
    default:
      return std::string();
  }
}

/// Positional early exit (the whole-query analogue of the smart
/// aggregation exit): `Select[cp θ k]` directly above the `Counter`
/// binding cp cannot qualify any tuple past the k-th, so the stream may
/// be capped with `Limit` — closing the pipeline, including the page
/// scan feeding it, as soon as the bound is reached. Fires only when
///  * θ is =, < or <= against a positive integer literal (sema turned
///    numeric predicates like [3] into `position() = 3` already; a
///    Tmp^cs between the selection and the counter means the predicate
///    depends on last() and needs the whole stream),
///  * the counter provably numbers the whole stream: it has no reset
///    boundary, or the boundary attribute is constant per evaluation
///    (free), or its binder is a provably <=1-tuple stream — otherwise
///    position() restarts per context group and a global cap is wrong,
///  * property inference proves the positioned stream doc-ordered and
///    duplicate-free (so "the k-th tuple" is a well-defined prefix of
///    the one true document-order enumeration; reverse axes, which
///    enumerate in reverse order, fail this and must not fire).
/// The inserted Limit is then pushed below non-blocking 1:1 operators
/// (counter, χ, Π) so it sits directly on the producing scan.
void TryLimitPushdown(OpPtr* slot, SimplifyCtx* ctx) {
  Operator* select = slot->get();
  const Scalar& pred = *select->scalar;
  if (pred.kind != ScalarKind::kCompare || pred.children.size() != 2) return;
  const Scalar* attr_side = pred.children[0].get();
  const Scalar* const_side = pred.children[1].get();
  runtime::CompareOp cmp = pred.cmp;
  if (attr_side->kind == ScalarKind::kNumberConst &&
      const_side->kind == ScalarKind::kAttrRef) {
    // Mirrored orientation (`3 >= position()`): flip the comparison.
    std::swap(attr_side, const_side);
    switch (cmp) {
      case runtime::CompareOp::kLt:
        cmp = runtime::CompareOp::kGt;
        break;
      case runtime::CompareOp::kLe:
        cmp = runtime::CompareOp::kGe;
        break;
      case runtime::CompareOp::kGt:
        cmp = runtime::CompareOp::kLt;
        break;
      case runtime::CompareOp::kGe:
        cmp = runtime::CompareOp::kLe;
        break;
      default:
        break;
    }
  }
  if (attr_side->kind != ScalarKind::kAttrRef ||
      const_side->kind != ScalarKind::kNumberConst) {
    return;
  }
  double k = const_side->number;
  // The bound must be a positive integer: fractional or out-of-range
  // positions make the predicate statically false (or effectively
  // unbounded) and are left to other machinery.
  if (!(k >= 1) || k != std::floor(k) || k > 1e15) return;
  uint64_t bound = 0;
  switch (cmp) {
    case runtime::CompareOp::kEq:
    case runtime::CompareOp::kLe:
      bound = static_cast<uint64_t>(k);
      break;
    case runtime::CompareOp::kLt:
      if (k < 2) return;  // position() < 1: statically false, leave it
      bound = static_cast<uint64_t>(k) - 1;
      break;
    default:
      return;  // >, >=, != qualify tuples arbitrarily late
  }

  Operator* counter = select->children[0].get();
  if (counter->kind != OpKind::kCounter || counter->attr != attr_side->name) {
    return;
  }
  // Idempotence: a matching (or tighter) cap is already in place.
  if (counter->children[0]->kind == OpKind::kLimit &&
      counter->children[0]->limit <= bound) {
    return;
  }

  // Whole-stream counting.
  const Operator& input = *counter->children[0];
  std::string boundary_fact;
  if (counter->ctx_attr.empty()) {
    boundary_fact = "counter numbers the whole stream";
  } else if (const Operator* binder = FindBinder(input, counter->ctx_attr)) {
    PlanProperties binder_props = analysis::InferPlanProperties(*binder);
    if (!binder_props.AtMostOne()) return;
    boundary_fact = "reset boundary '" + counter->ctx_attr +
                    "' bound by a card:" +
                    analysis::CardinalityName(binder_props.cardinality) +
                    " stream";
  } else {
    // Free attribute: one fixed value per evaluation of this plan (the
    // dependent-join contract), so the counter never actually resets.
    boundary_fact =
        "reset attribute '" + counter->ctx_attr + "' is constant per evaluation";
  }

  // Doc order and duplicate-freedom of the positioned stream.
  const Operator* producer = FocusProducer(counter->children[0].get());
  std::string stream_attr = ProducerAttr(*producer);
  if (stream_attr.empty()) return;
  PlanProperties in = analysis::InferPlanProperties(*counter->children[0]);
  analysis::AttrProperties stream = in.Lookup(stream_attr);
  if (stream.order != OrderState::kDocOrdered || !stream.duplicate_free) {
    return;
  }

  PlanProperties before = analysis::InferPlanProperties(*select);
  const char* rule = "limit:positional-pushdown";
  LogRewrite(ctx, rule, analysis::OperatorSummary(*select),
             analysis::RenderProperties(in, stream_attr) + "; " +
                 boundary_fact);
  OpPtr lim = MakeOp(OpKind::kLimit);
  lim->limit = bound;
  lim->children.push_back(std::move(select->children[0]));
  select->children[0] = std::move(lim);
  CheckAfterRule(ctx, rule, &before, slot->get());
  if (!ctx->status.ok()) return;

  // Push the cap below non-blocking 1:1 operators: a prefix of a
  // tuple-preserving operator's output is that operator applied to the
  // same prefix of its input. Stops at expanding (Υ, μ), filtering
  // (σ, Π^D) or blocking (Sort, Tmp^cs) operators.
  OpPtr* lim_slot = &select->children[0];
  while (ctx->status.ok()) {
    Operator* l = lim_slot->get();
    OpKind below = l->children[0]->kind;
    const char* push_rule = nullptr;
    if (below == OpKind::kCounter) {
      push_rule = "limit:push-below-counter";
    } else if (below == OpKind::kMap) {
      push_rule = "limit:push-below-map";
    } else if (below == OpKind::kProject) {
      push_rule = "limit:push-below-project";
    } else {
      break;
    }
    PlanProperties rot_before = analysis::InferPlanProperties(*l);
    LogRewrite(ctx, push_rule, analysis::OperatorSummary(*l->children[0]),
               "prefix commutes with a 1:1 operator");
    OpPtr limit_node = std::move(*lim_slot);
    OpPtr carrier = std::move(limit_node->children[0]);
    limit_node->children[0] = std::move(carrier->children[0]);
    carrier->children[0] = std::move(limit_node);
    *lim_slot = std::move(carrier);
    CheckAfterRule(ctx, push_rule, &rot_before, lim_slot->get());
    lim_slot = &(*lim_slot)->children[0];
  }
}

bool ReadsAttr(const Operator& op, const std::string& attr,
               const Scalar* skip);

/// Whether `scalar` (other than `skip`) reads `attr`.
bool ScalarReadsAttr(const Scalar& scalar, const std::string& attr,
                     const Scalar* skip) {
  if (&scalar == skip) return false;
  if (scalar.kind == ScalarKind::kAttrRef && scalar.name == attr) return true;
  if (scalar.kind == ScalarKind::kNested &&
      (scalar.input_attr == attr || ReadsAttr(*scalar.plan, attr, skip))) {
    return true;
  }
  for (const ScalarPtr& child : scalar.children) {
    if (ScalarReadsAttr(*child, attr, skip)) return true;
  }
  return false;
}

/// Whether any operator or subscript of the plan `op`, other than the
/// scalar `skip`, reads `attr`.
bool ReadsAttr(const Operator& op, const std::string& attr,
               const Scalar* skip) {
  auto listed = [&attr](const std::vector<std::string>& names) {
    return std::find(names.begin(), names.end(), attr) != names.end();
  };
  if (op.ctx_attr == attr || op.left_attr == attr || op.right_attr == attr ||
      listed(op.attrs) || listed(op.key_attrs) ||
      ((op.kind == OpKind::kDupElim || op.kind == OpKind::kSort) &&
       op.attr == attr) ||
      (op.scalar != nullptr && ScalarReadsAttr(*op.scalar, attr, skip))) {
    return true;
  }
  for (const OpPtr& child : op.children) {
    if (ReadsAttr(*child, attr, skip)) return true;
  }
  return false;
}

/// Matches `cp = cs - k` (either side, k = 0 when the subtraction is
/// absent) and sets *k. False unless k is a non-negative integer.
bool MatchLastMinusK(const Scalar& pred, const std::string& cp,
                     const std::string& cs, uint64_t* k) {
  if (pred.kind != ScalarKind::kCompare ||
      pred.cmp != runtime::CompareOp::kEq || pred.children.size() != 2) {
    return false;
  }
  auto is_attr = [](const Scalar& s, const std::string& name) {
    return s.kind == ScalarKind::kAttrRef && s.name == name;
  };
  const Scalar* last = pred.children[1].get();
  if (!is_attr(*pred.children[0], cp)) {
    if (!is_attr(*pred.children[1], cp)) return false;
    last = pred.children[0].get();
  }
  if (is_attr(*last, cs)) {
    *k = 0;
    return true;
  }
  if (last->kind != ScalarKind::kArith || last->op != xpath::BinaryOp::kSub ||
      !is_attr(*last->children[0], cs) ||
      last->children[1]->kind != ScalarKind::kNumberConst) {
    return false;
  }
  double value = last->children[1]->number;
  if (!(value >= 0) || value != std::floor(value) || value > 1e15) {
    return false;
  }
  *k = static_cast<uint64_t>(value);
  return true;
}

/// `position() = last() - k` by reverse scan: a selection of the
/// (k+1)-th tuple from the end of a child step needs the group size only
/// to count from the front. Over one context node the step can count
/// from the back instead:
///
///   Select[cp = cs - k]                 Limit[1]
///     Tmp^cs[cs; context c]               Select[cp = k+1]
///       Counter[cp, reset on c]    =>       Counter[cp, reset on c]
///         Select*  (position-free)            Select*
///           Υ[x := c/child::name]               Υ^rev[x := c/child::name]
///
/// Υ^rev walks back from the context's last child. The Limit closes the
/// pipeline at the (k+1)-th match from the end, so no tuple is spooled.
/// Fires only when
///  * the step is a child step with a name test whose input — its
///    context — is proved card:<=1: one context, so the counter (and
///    Tmp^cs, which groups on the same attribute) sees one stream — its
///    reset attribute is bound below the step or free, hence constant,
///  * only Selects that read no counter or Tmp^cs attribute sit between
///    the counter and the step (a positional predicate needs its own
///    counter, so none can hide there),
///  * k is a non-negative integer constant,
///  * nothing but this selection reads cp or cs (cs disappears, cp now
///    counts from the end).
/// Returns whether the rule fired.
bool TryReverseScan(OpPtr* slot, SimplifyCtx* ctx) {
  Operator* select = slot->get();
  Operator* tmpcs = select->children[0].get();
  if (tmpcs->kind != OpKind::kTmpCs) return false;
  Operator* counter = tmpcs->children[0].get();
  if (counter->kind != OpKind::kCounter ||
      counter->ctx_attr != tmpcs->ctx_attr) {
    return false;
  }
  uint64_t k = 0;
  if (!MatchLastMinusK(*select->scalar, counter->attr, tmpcs->attr, &k)) {
    return false;
  }
  Operator* step = counter->children[0].get();
  while (step->kind == OpKind::kSelect) {
    for (const std::string& attr : ScalarFreeAttributes(*step->scalar)) {
      const Operator* binder = FindBinder(*counter->children[0], attr);
      if (binder != nullptr && (binder->kind == OpKind::kCounter ||
                                binder->kind == OpKind::kTmpCs)) {
        return false;
      }
    }
    step = step->children[0].get();
  }
  if (step->kind != OpKind::kUnnestMap || step->reverse ||
      step->axis != runtime::Axis::kChild ||
      step->test.kind != xpath::AstNodeTest::Kind::kName) {
    return false;
  }
  PlanProperties context = analysis::InferPlanProperties(*step->children[0]);
  if (!context.AtMostOne()) return false;
  // Over one context tuple, every attribute bound below the step (or
  // free) is constant on the step's output: the counter never resets.
  if (counter->ctx_attr == step->attr) return false;
  if (ReadsAttr(**ctx->root, counter->attr, select->scalar.get()) ||
      ReadsAttr(**ctx->root, tmpcs->attr, select->scalar.get())) {
    return false;
  }

  const char* rule = "limit:reverse-scan";
  PlanProperties before = analysis::InferPlanProperties(*select);
  // The rule drops the dead cs; the surviving attributes keep their
  // claims.
  before.attrs.erase(tmpcs->attr);
  LogRewrite(ctx, rule, analysis::OperatorSummary(*select),
             "step context " + analysis::RenderProperties(context, "") +
                 (counter->ctx_attr.empty()
                      ? std::string("; counter numbers the whole stream")
                      : "; reset attribute '" + counter->ctx_attr +
                            "' constant over the one context") +
                 "; k = " + std::to_string(k));
  step->reverse = true;
  select->children[0] = std::move(tmpcs->children[0]);
  ScalarPtr position = MakeScalar(ScalarKind::kAttrRef);
  position->name = counter->attr;
  ScalarPtr bound = MakeScalar(ScalarKind::kNumberConst);
  bound->number = static_cast<double>(k + 1);
  ScalarPtr pred = MakeScalar(ScalarKind::kCompare);
  pred->cmp = runtime::CompareOp::kEq;
  pred->children.push_back(std::move(position));
  pred->children.push_back(std::move(bound));
  select->scalar = std::move(pred);
  OpPtr lim = MakeOp(OpKind::kLimit);
  lim->limit = 1;
  lim->children.push_back(std::move(*slot));
  *slot = std::move(lim);
  CheckAfterRule(ctx, rule, &before, slot->get());
  return true;
}

size_t SimplifyNode(OpPtr* slot, SimplifyCtx* ctx) {
  if (!ctx->status.ok()) return 0;
  size_t removed = 0;
  Operator* op = slot->get();

  // Bottom-up.
  for (OpPtr& child : op->children) removed += SimplifyNode(&child, ctx);
  if (op->scalar != nullptr) {
    removed += SimplifyScalar(op->scalar.get(), ctx);
  }
  if (!ctx->status.ok()) return removed;

  switch (op->kind) {
    case OpKind::kSelect: {
      if (op->scalar->kind == ScalarKind::kBoolConst) {
        if (op->scalar->boolean) {
          return removed + ReplaceByChild(
                               slot, 0, ctx, "drop-constant-true-selection",
                               "constant-true predicate");
        }
        // A constant-false selection IS the plan's statically-empty
        // marker; parents prune against it.
        return removed;
      }
      PlanProperties child = analysis::InferPlanProperties(*op->children[0]);
      if (child.cardinality == Cardinality::kEmpty) {
        return removed + ReplaceByChild(
                             slot, 0, ctx, "drop-selection-on-empty-input",
                             analysis::RenderProperties(child, ""));
      }
      if (!ctx->limit_pushdown) return removed;
      if (TryReverseScan(slot, ctx)) return removed + 1;
      TryLimitPushdown(slot, ctx);
      return removed;
    }

    case OpKind::kUnnestMap: {
      PlanProperties child = analysis::InferPlanProperties(*op->children[0]);
      analysis::NodeClass cls = child.Lookup(op->ctx_attr).node_class;
      if (child.cardinality != Cardinality::kEmpty &&
          !analysis::StaticallyEmptyStep(cls, op->axis, op->test)) {
        return removed;
      }
      // No tuple can ever emerge (empty input, or an axis/node-test
      // combination that is empty for the context's static node class,
      // e.g. children of an attribute). Replace the navigation by the
      // canonical statically-empty marker: the child stays — dependent
      // consumers may still reference its bindings — gated by a
      // constant-false selection, and the output attribute becomes a
      // never-evaluated constant.
      PlanProperties before = analysis::InferPlanProperties(*op);
      LogRewrite(ctx, "replace-statically-empty-step",
                 analysis::OperatorSummary(*op),
                 analysis::RenderProperties(child, op->ctx_attr));
      OpPtr select = MakeOp(OpKind::kSelect);
      select->scalar = MakeScalar(ScalarKind::kBoolConst);
      select->scalar->boolean = false;
      select->children.push_back(std::move(op->children[0]));
      OpPtr marker = MakeOp(OpKind::kMap);
      marker->attr = op->attr;
      marker->scalar = MakeScalar(ScalarKind::kNumberConst);
      marker->scalar->number = 0;
      marker->children.push_back(std::move(select));
      *slot = std::move(marker);
      CheckAfterRule(ctx, "replace-statically-empty-step", &before,
                     slot->get());
      return removed + 1;
    }

    case OpKind::kDupElim: {
      PlanProperties child = analysis::InferPlanProperties(*op->children[0]);
      if (child.Lookup(op->attr).duplicate_free) {
        return removed +
               ReplaceByChild(
                   slot, 0, ctx, "drop-redundant-duplicate-elimination",
                   analysis::RenderProperties(child, op->attr));
      }
      return removed;
    }

    case OpKind::kSort: {
      PlanProperties child = analysis::InferPlanProperties(*op->children[0]);
      analysis::AttrProperties attr = child.Lookup(op->attr);
      // Document order must be established and unambiguous: with
      // duplicate sort keys the (unstable) sort may permute payload
      // tuples that share a key.
      if (attr.order == OrderState::kDocOrdered && attr.duplicate_free) {
        return removed + ReplaceByChild(
                             slot, 0, ctx, "drop-redundant-sort",
                             analysis::RenderProperties(child, op->attr));
      }
      return removed;
    }

    case OpKind::kConcat: {
      // Prune statically-empty branches; they contribute no tuples.
      for (size_t i = 0; i < op->children.size() && op->children.size() > 1;) {
        PlanProperties branch =
            analysis::InferPlanProperties(*op->children[i]);
        if (branch.cardinality == Cardinality::kEmpty) {
          removed += PlanSize(*op->children[i]);
          LogRewrite(ctx, "prune-empty-concat-branch",
                     analysis::OperatorSummary(*op->children[i]),
                     analysis::RenderProperties(branch, ""));
          op->children.erase(op->children.begin() +
                             static_cast<ptrdiff_t>(i));
          CheckAfterRule(ctx, "prune-empty-concat-branch", nullptr, nullptr);
          if (!ctx->status.ok()) return removed;
        } else {
          ++i;
        }
      }
      if (op->children.size() == 1) {
        return removed + ReplaceByChild(slot, 0, ctx,
                                        "collapse-single-branch-concat",
                                        "single remaining branch");
      }
      return removed;
    }

    case OpKind::kAntiJoin: {
      PlanProperties right = analysis::InferPlanProperties(*op->children[1]);
      if (right.cardinality == Cardinality::kEmpty) {
        // No right tuple can ever match: the anti join is the identity.
        return removed + ReplaceByChild(
                             slot, 0, ctx, "drop-antijoin-with-empty-right",
                             analysis::RenderProperties(right, ""));
      }
      return removed;
    }

    case OpKind::kSemiJoin: {
      PlanProperties right = analysis::InferPlanProperties(*op->children[1]);
      if (right.cardinality == Cardinality::kEmpty) {
        // No right tuple can ever match: nothing qualifies. Keep the
        // left subtree (its attributes stay bound) under a constant-
        // false selection — the statically-empty marker.
        PlanProperties before = analysis::InferPlanProperties(*op);
        size_t dropped = PlanSize(*op->children[1]);
        LogRewrite(ctx, "empty-semijoin-to-false-selection",
                   analysis::OperatorSummary(*op),
                   analysis::RenderProperties(right, ""));
        OpPtr select = MakeOp(OpKind::kSelect);
        select->scalar = MakeScalar(ScalarKind::kBoolConst);
        select->scalar->boolean = false;
        select->children.push_back(std::move(op->children[0]));
        *slot = std::move(select);
        CheckAfterRule(ctx, "empty-semijoin-to-false-selection", &before,
                       slot->get());
        return removed + dropped;
      }
      return removed;
    }

    case OpKind::kTmpCs: {
      if (!op->ctx_attr.empty()) return removed;
      PlanProperties child = analysis::InferPlanProperties(*op->children[0]);
      if (!child.AtMostOne()) return removed;
      // At most one input tuple means one group of size one (or no
      // output at all): cs is the constant 1, no materialization needed.
      PlanProperties before = analysis::InferPlanProperties(*op);
      LogRewrite(ctx, "replace-singleton-tmpcs",
                 analysis::OperatorSummary(*op),
                 analysis::RenderProperties(child, ""));
      OpPtr map = MakeOp(OpKind::kMap);
      map->attr = op->attr;
      map->scalar = MakeScalar(ScalarKind::kNumberConst);
      map->scalar->number = 1;
      map->children.push_back(std::move(op->children[0]));
      *slot = std::move(map);
      CheckAfterRule(ctx, "replace-singleton-tmpcs", &before, slot->get());
      return removed + 1;
    }

    default:
      return removed;
  }
}

size_t SimplifyScalar(Scalar* scalar, SimplifyCtx* ctx) {
  size_t removed = 0;
  if (scalar->kind == ScalarKind::kNested) {
    removed += SimplifyNode(&scalar->plan, ctx);
    if (!ctx->status.ok()) return removed;
    PlanProperties plan_props =
        analysis::InferPlanProperties(*scalar->plan);
    if (plan_props.cardinality == Cardinality::kEmpty) {
      // The nested sequence is provably empty: fold the aggregate.
      const char* rule = "fold-empty-nested-aggregate";
      LogRewrite(ctx, rule,
                 std::string("nested ") + AggKindName(scalar->agg) + "(" +
                     scalar->input_attr + ")",
                 analysis::RenderProperties(plan_props, ""));
      removed += PlanSize(*scalar->plan);
      AggKind agg = scalar->agg;
      scalar->plan.reset();
      scalar->children.clear();
      scalar->input_attr.clear();
      switch (agg) {
        case AggKind::kExists:
          scalar->kind = ScalarKind::kBoolConst;
          scalar->boolean = false;
          break;
        case AggKind::kCount:
        case AggKind::kSum:
          scalar->kind = ScalarKind::kNumberConst;
          scalar->number = 0;
          break;
        case AggKind::kMax:
        case AggKind::kMin:
          scalar->kind = ScalarKind::kNumberConst;
          scalar->number = std::numeric_limits<double>::quiet_NaN();
          break;
        case AggKind::kFirstString:
        case AggKind::kFirstName:
        case AggKind::kFirstLocalName:
          scalar->kind = ScalarKind::kStringConst;
          scalar->string_value.clear();
          break;
      }
      CheckAfterRule(ctx, rule, nullptr, nullptr);
      return removed;
    }
  }
  for (ScalarPtr& child : scalar->children) {
    removed += SimplifyScalar(child.get(), ctx);
    if (!ctx->status.ok()) return removed;
  }
  return removed;
}

}  // namespace

StatusOr<size_t> SimplifyPlan(OpPtr* plan, bool verify, RewriteLog* log,
                              bool limit_pushdown) {
  obs::ScopedSpan span("compile/rewrite");
  SimplifyCtx ctx;
  ctx.root = plan;
  ctx.log = log;
  ctx.limit_pushdown = limit_pushdown;
  ctx.verify = verify;
  if (ctx.verify) {
    // Whatever the plan legitimately read from its context before
    // rewriting stays legitimate afterwards; rewrites must not introduce
    // new free attributes.
    ctx.outer = analysis::ExecutionContextAttributes();
    std::set<std::string> free = FreeAttributes(**plan);
    ctx.outer.insert(free.begin(), free.end());
  }
  size_t removed = SimplifyNode(plan, &ctx);
  NATIX_RETURN_IF_ERROR(ctx.status);
  return removed;
}

}  // namespace natix::algebra
