#include "translate/translator.h"

#include <utility>

#include "algebra/rewriter.h"
#include "analysis/plan_verifier.h"
#include "analysis/property_inference.h"
#include "base/logging.h"
#include "obs/trace.h"
#include "xpath/normalizer.h"

namespace natix::translate {

namespace {

using algebra::AggKind;
using algebra::MakeOp;
using algebra::MakeScalar;
using algebra::Operator;
using algebra::OpKind;
using algebra::OpPtr;
using algebra::Scalar;
using algebra::ScalarKind;
using algebra::ScalarPtr;
using runtime::CompareOp;
using xpath::BinaryOp;
using xpath::Expr;
using xpath::ExprKind;
using xpath::ExprType;
using xpath::FunctionId;
using xpath::PredicateInfo;
using xpath::Step;

/// Context position/size attribute names usable by a scalar being built.
struct PosCtx {
  std::string cp = kContextPositionAttr;
  std::string cs = kContextSizeAttr;
};

CompareOp ToCompareOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return CompareOp::kEq;
    case BinaryOp::kNe:
      return CompareOp::kNe;
    case BinaryOp::kLt:
      return CompareOp::kLt;
    case BinaryOp::kLe:
      return CompareOp::kLe;
    case BinaryOp::kGt:
      return CompareOp::kGt;
    default:
      return CompareOp::kGe;
  }
}

/// Mirror for "atomic θ node-set" rewritten as "node-set θ' atomic".
CompareOp Mirror(CompareOp op) {
  switch (op) {
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
    default:
      return op;  // = and != are symmetric
  }
}

bool IsComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

ScalarPtr AttrRef(const std::string& name) {
  ScalarPtr s = MakeScalar(ScalarKind::kAttrRef);
  s->name = name;
  return s;
}

/// A plan fragment producing a tuple sequence whose current context node
/// lives in `attr`.
struct NodeSetPlan {
  OpPtr plan;
  std::string attr;
};

class TranslatorImpl {
 public:
  explicit TranslatorImpl(const TranslatorOptions& options)
      : options_(options) {}

  StatusOr<TranslationResult> Run(const Expr& root) {
    TranslationResult result;
    result.type = root.type;
    if (root.type == ExprType::kNodeSet) {
      NATIX_ASSIGN_OR_RETURN(
          NodeSetPlan ns,
          TranslateNodeSet(root, kContextNodeAttr, /*inner=*/false));
      result.plan = std::move(ns.plan);
      result.result_attr = std::move(ns.attr);
      return result;
    }
    // Scalar query: a single map over the singleton scan.
    PosCtx pos;
    NATIX_ASSIGN_OR_RETURN(ScalarPtr scalar,
                           TranslateScalar(root, kContextNodeAttr, pos));
    OpPtr map = MakeOp(OpKind::kMap);
    map->attr = NewAttr("v");
    map->scalar = std::move(scalar);
    map->children.push_back(MakeOp(OpKind::kSingletonScan));
    result.plan = std::move(map);
    result.result_attr = result.plan->attr;
    return result;
  }

 private:
  std::string NewAttr(const char* prefix) {
    return std::string(prefix) + std::to_string(counter_++);
  }

  // -- Node-set expressions -------------------------------------------------

  StatusOr<NodeSetPlan> TranslateNodeSet(const Expr& e,
                                         const std::string& ctx_attr,
                                         bool inner) {
    switch (e.kind) {
      case ExprKind::kLocationPath:
        return TranslateLocationPath(e, ctx_attr, inner);
      case ExprKind::kPathExpr:
        return TranslatePathExpr(e, ctx_attr, inner);
      case ExprKind::kFilterExpr:
        return TranslateFilterExpr(e, ctx_attr, inner);
      case ExprKind::kUnion:
        return TranslateUnion(e, ctx_attr, inner);
      case ExprKind::kFunctionCall:
        if (static_cast<FunctionId>(e.function_id) == FunctionId::kId) {
          return TranslateId(e, ctx_attr, inner);
        }
        break;
      default:
        break;
    }
    return Status::Internal("expression is not node-set-valued: " +
                            e.ToString());
  }

  /// Sec. 3.1 / 4.1 / 4.2: a location path starting at `ctx_attr`.
  StatusOr<NodeSetPlan> TranslateLocationPath(const Expr& e,
                                              const std::string& ctx_attr,
                                              bool inner) {
    OpPtr plan;
    std::string current = ctx_attr;
    if (e.absolute) {
      // chi_{c0 := root(cn)}(singleton scan)  (Sec. 3.1.2)
      OpPtr map = MakeOp(OpKind::kMap);
      map->attr = NewAttr("c");
      ScalarPtr root_call = MakeScalar(ScalarKind::kFunc);
      root_call->function = FunctionId::kRootInternal;
      root_call->children.push_back(AttrRef(ctx_attr));
      map->scalar = std::move(root_call);
      map->children.push_back(MakeOp(OpKind::kSingletonScan));
      current = map->attr;
      plan = std::move(map);
    } else {
      plan = MakeOp(OpKind::kSingletonScan);
      // The first step's unnest-map reads ctx_attr as a free variable; in
      // stacked mode the steps chain onto the producer directly.
    }
    return TranslateSteps(std::move(plan), current, e.steps, inner,
                          /*had_root_map=*/e.absolute);
  }

  /// Shared step-chain builder. `plan` produces tuples whose context node
  /// is in `current` (or is a bare singleton scan whose context comes in
  /// as the free attribute `current`).
  StatusOr<NodeSetPlan> TranslateSteps(OpPtr plan, std::string current,
                                       const std::vector<Step>& steps,
                                       bool inner, bool had_root_map) {
    if (steps.empty()) {
      // "/" alone: the root map already produced the result.
      if (!had_root_map) {
        return Status::Internal("empty relative location path");
      }
      return NodeSetPlan{std::move(plan), std::move(current)};
    }

    bool any_ppd = false;
    bool use_stack = options_.stacked_outer_paths && !inner;
    bool use_memo = options_.memoize_inner_paths && inner;

    for (size_t i = 0; i < steps.size(); ++i) {
      const Step& step = steps[i];
      std::string out = NewAttr("c");
      bool step_ppd = runtime::AxisIsPpd(step.axis);
      any_ppd = any_ppd || step_ppd;

      if (use_stack) {
        // Sec. 4.2.1: stacked translation — the unnest-map consumes the
        // previous pipeline directly.
        OpPtr unnest = MakeOp(OpKind::kUnnestMap);
        unnest->attr = out;
        unnest->ctx_attr = current;
        unnest->axis = step.axis;
        unnest->test = step.test;
        unnest->children.push_back(std::move(plan));
        plan = std::move(unnest);
        NATIX_ASSIGN_OR_RETURN(
            plan, ApplyPredicates(std::move(plan), step, out,
                                  /*boundary=*/current));
      } else {
        // Sec. 3.1.1: canonical d-join — dependent side evaluates the
        // step for one context node per outer tuple.
        OpPtr unnest = MakeOp(OpKind::kUnnestMap);
        unnest->attr = out;
        unnest->ctx_attr = current;
        unnest->axis = step.axis;
        unnest->test = step.test;
        unnest->children.push_back(MakeOp(OpKind::kSingletonScan));
        OpPtr dep = std::move(unnest);
        NATIX_ASSIGN_OR_RETURN(dep, ApplyPredicates(std::move(dep), step, out,
                                                    /*boundary=*/""));
        // Sec. 4.2.2: memoize the dependent side of inner-path steps
        // whose input context can repeat (the previous step is ppd).
        if (use_memo && i > 0 && runtime::AxisIsPpd(steps[i - 1].axis)) {
          OpPtr memo = MakeOp(OpKind::kMemoX);
          memo->key_attrs = {current};
          memo->children.push_back(std::move(dep));
          dep = std::move(memo);
        }
        OpPtr djoin = MakeOp(OpKind::kDJoin);
        djoin->children.push_back(std::move(plan));
        djoin->children.push_back(std::move(dep));
        plan = std::move(djoin);
      }

      // Sec. 4.1: push duplicate elimination below later steps.
      if (options_.push_duplicate_elimination && step_ppd &&
          i + 1 < steps.size()) {
        OpPtr dedup = MakeOp(OpKind::kDupElim);
        dedup->attr = out;
        dedup->children.push_back(std::move(plan));
        plan = std::move(dedup);
      }
      current = out;
    }

    // Final duplicate elimination preserves the node-set semantics. When
    // no step can produce duplicates the output is already a set.
    if (any_ppd) {
      OpPtr dedup = MakeOp(OpKind::kDupElim);
      dedup->attr = current;
      dedup->children.push_back(std::move(plan));
      plan = std::move(dedup);
    }
    return NodeSetPlan{std::move(plan), std::move(current)};
  }

  /// Sec. 3.5: path expressions e/pi.
  StatusOr<NodeSetPlan> TranslatePathExpr(const Expr& e,
                                          const std::string& ctx_attr,
                                          bool inner) {
    NATIX_ASSIGN_OR_RETURN(NodeSetPlan base,
                           TranslateNodeSet(*e.children[0], ctx_attr, inner));
    return TranslateSteps(std::move(base.plan), std::move(base.attr), e.steps,
                          inner, /*had_root_map=*/true);
  }

  /// Sec. 3.4: filter expressions e[p1]...[ph].
  StatusOr<NodeSetPlan> TranslateFilterExpr(const Expr& e,
                                            const std::string& ctx_attr,
                                            bool inner) {
    NATIX_ASSIGN_OR_RETURN(NodeSetPlan base,
                           TranslateNodeSet(*e.children[0], ctx_attr, inner));
    bool positional = false;
    for (const PredicateInfo& info : e.predicate_info) {
      positional = positional || info.uses_position || info.uses_last;
    }
    OpPtr plan = std::move(base.plan);
    if (positional) {
      // Sec. 3.4.2: establish document order before counting.
      OpPtr sort = MakeOp(OpKind::kSort);
      sort->attr = base.attr;
      sort->children.push_back(std::move(plan));
      plan = std::move(sort);
    }
    // The whole input sequence is a single context: no reset boundary.
    NATIX_ASSIGN_OR_RETURN(
        plan, ApplyPredicateList(std::move(plan), e.predicates,
                                 e.predicate_info, base.attr,
                                 /*boundary=*/""));
    return NodeSetPlan{std::move(plan), std::move(base.attr)};
  }

  /// Sec. 3.1.3: unions.
  StatusOr<NodeSetPlan> TranslateUnion(const Expr& e,
                                       const std::string& ctx_attr,
                                       bool inner) {
    std::string out = NewAttr("c");
    OpPtr concat = MakeOp(OpKind::kConcat);
    for (const xpath::ExprPtr& branch : e.children) {
      NATIX_ASSIGN_OR_RETURN(NodeSetPlan sub,
                             TranslateNodeSet(*branch, ctx_attr, inner));
      // Align every branch's result attribute onto the common one.
      OpPtr map = MakeOp(OpKind::kMap);
      map->attr = out;
      map->scalar = AttrRef(sub.attr);
      map->children.push_back(std::move(sub.plan));
      concat->children.push_back(std::move(map));
    }
    OpPtr dedup = MakeOp(OpKind::kDupElim);
    dedup->attr = out;
    dedup->children.push_back(std::move(concat));
    return NodeSetPlan{std::move(dedup), std::move(out)};
  }

  /// Sec. 3.6.3: id().
  StatusOr<NodeSetPlan> TranslateId(const Expr& e,
                                    const std::string& ctx_attr,
                                    bool inner) {
    const Expr& arg = *e.children[0];
    std::string out = NewAttr("c");
    OpPtr deref = MakeOp(OpKind::kIdDeref);
    deref->attr = out;
    if (arg.type == ExprType::kNodeSet) {
      NATIX_ASSIGN_OR_RETURN(NodeSetPlan input,
                             TranslateNodeSet(arg, ctx_attr, inner));
      deref->ctx_attr = input.attr;
      deref->children.push_back(std::move(input.plan));
    } else {
      PosCtx pos;
      NATIX_ASSIGN_OR_RETURN(ScalarPtr scalar,
                             TranslateScalar(arg, ctx_attr, pos));
      deref->scalar = std::move(scalar);
      // The context attribute locates the document whose id index to use.
      deref->ctx_attr = ctx_attr;
      deref->children.push_back(MakeOp(OpKind::kSingletonScan));
    }
    // Two input nodes may carry the same id token: keep set semantics.
    OpPtr dedup = MakeOp(OpKind::kDupElim);
    dedup->attr = out;
    dedup->children.push_back(std::move(deref));
    return NodeSetPlan{std::move(dedup), std::move(out)};
  }

  // -- Predicates -----------------------------------------------------------

  StatusOr<OpPtr> ApplyPredicates(OpPtr plan, const Step& step,
                                  const std::string& out_attr,
                                  const std::string& boundary) {
    return ApplyPredicateList(std::move(plan), step.predicates,
                              step.predicate_info, out_attr, boundary);
  }

  /// Applies the predicate pipeline of Sec. 3.3 / 4.3 on top of `plan`.
  /// `out_attr` is the candidate node attribute (the predicates' context
  /// node); `boundary` is the input-context attribute whose change ends a
  /// context in the stacked translation ("" = each Open is one context).
  StatusOr<OpPtr> ApplyPredicateList(
      OpPtr plan, const std::vector<xpath::ExprPtr>& predicates,
      const std::vector<PredicateInfo>& info_list,
      const std::string& out_attr, const std::string& boundary) {
    NATIX_CHECK(predicates.size() == info_list.size());
    for (size_t k = 0; k < predicates.size(); ++k) {
      const Expr& predicate = *predicates[k];
      const PredicateInfo& info = info_list[k];

      PosCtx pos;
      if (info.uses_position || info.uses_last) {
        // chi_{cp := counter++}  (Sec. 3.3.3)
        pos.cp = NewAttr("cp");
        OpPtr counter = MakeOp(OpKind::kCounter);
        counter->attr = pos.cp;
        counter->ctx_attr = boundary;  // reset on context change (4.3.1)
        counter->children.push_back(std::move(plan));
        plan = std::move(counter);
      }
      if (info.uses_last) {
        // Tmp^cs / Tmp^cs_c  (Sec. 3.3.4 / 4.3.1)
        pos.cs = NewAttr("cs");
        OpPtr tmp = MakeOp(OpKind::kTmpCs);
        tmp->attr = pos.cs;
        tmp->ctx_attr = boundary;
        tmp->children.push_back(std::move(plan));
        plan = std::move(tmp);
      }

      // Split the predicate into conjuncts and order them cheap-first
      // (Sec. 4.3.2) when enabled.
      std::vector<const Expr*> conjuncts;
      FlattenConjuncts(predicate, &conjuncts);
      std::vector<const Expr*> ordered;
      if (options_.split_expensive_predicates && conjuncts.size() > 1) {
        for (const Expr* c : conjuncts) {
          if (!xpath::AnalyzePredicate(*c).expensive) ordered.push_back(c);
        }
        for (const Expr* c : conjuncts) {
          if (xpath::AnalyzePredicate(*c).expensive) ordered.push_back(c);
        }
      } else {
        ordered = conjuncts;
      }

      for (const Expr* conjunct : ordered) {
        NATIX_ASSIGN_OR_RETURN(ScalarPtr scalar,
                               TranslateScalar(*conjunct, out_attr, pos));
        bool expensive = options_.split_expensive_predicates &&
                         conjuncts.size() > 1 &&
                         xpath::AnalyzePredicate(*conjunct).expensive;
        if (expensive) {
          // sigma^mat: materialize the expensive value into an attribute
          // (chi^mat), then select on it (Sec. 4.3.2).
          std::string v = NewAttr("v");
          OpPtr map = MakeOp(OpKind::kMap);
          map->attr = v;
          map->materialize = true;
          map->scalar = std::move(scalar);
          map->children.push_back(std::move(plan));
          plan = std::move(map);
          OpPtr select = MakeOp(OpKind::kSelect);
          select->scalar = AttrRef(v);
          select->children.push_back(std::move(plan));
          plan = std::move(select);
        } else {
          OpPtr select = MakeOp(OpKind::kSelect);
          select->scalar = std::move(scalar);
          select->children.push_back(std::move(plan));
          plan = std::move(select);
        }
      }
    }
    return plan;
  }

  static void FlattenConjuncts(const Expr& e,
                               std::vector<const Expr*>* out) {
    if (e.kind == ExprKind::kBinary && e.op == BinaryOp::kAnd) {
      FlattenConjuncts(*e.children[0], out);
      FlattenConjuncts(*e.children[1], out);
      return;
    }
    out->push_back(&e);
  }

  // -- Scalar expressions ----------------------------------------------------

  /// Wraps a node-set expression into a nested aggregate scalar.
  StatusOr<ScalarPtr> NestedAgg(const Expr& node_set, AggKind agg,
                                const std::string& ctx_attr) {
    NATIX_ASSIGN_OR_RETURN(NodeSetPlan plan,
                           TranslateNodeSet(node_set, ctx_attr,
                                            /*inner=*/true));
    ScalarPtr s = MakeScalar(ScalarKind::kNested);
    s->agg = agg;
    s->input_attr = plan.attr;
    s->plan = std::move(plan.plan);
    return s;
  }

  StatusOr<ScalarPtr> TranslateScalar(const Expr& e,
                                      const std::string& ctx_attr,
                                      const PosCtx& pos) {
    switch (e.kind) {
      case ExprKind::kNumberLiteral: {
        ScalarPtr s = MakeScalar(ScalarKind::kNumberConst);
        s->number = e.number;
        return s;
      }
      case ExprKind::kStringLiteral: {
        ScalarPtr s = MakeScalar(ScalarKind::kStringConst);
        s->string_value = e.string_value;
        return s;
      }
      case ExprKind::kBooleanLiteral: {
        ScalarPtr s = MakeScalar(ScalarKind::kBoolConst);
        s->boolean = e.boolean;
        return s;
      }
      case ExprKind::kVariable: {
        ScalarPtr s = MakeScalar(ScalarKind::kVarRef);
        s->name = e.name;
        return s;
      }
      case ExprKind::kNegate: {
        NATIX_ASSIGN_OR_RETURN(ScalarPtr operand,
                               TranslateScalar(*e.children[0], ctx_attr, pos));
        ScalarPtr s = MakeScalar(ScalarKind::kNegate);
        s->children.push_back(std::move(operand));
        return s;
      }
      case ExprKind::kBinary:
        return TranslateBinary(e, ctx_attr, pos);
      case ExprKind::kFunctionCall:
        return TranslateCall(e, ctx_attr, pos);
      default:
        return Status::Internal("node-set expression in scalar context: " +
                                e.ToString());
    }
  }

  StatusOr<ScalarPtr> TranslateBinary(const Expr& e,
                                      const std::string& ctx_attr,
                                      const PosCtx& pos) {
    if (IsComparison(e.op)) {
      return TranslateComparison(e, ctx_attr, pos);
    }
    NATIX_ASSIGN_OR_RETURN(ScalarPtr lhs,
                           TranslateScalar(*e.children[0], ctx_attr, pos));
    NATIX_ASSIGN_OR_RETURN(ScalarPtr rhs,
                           TranslateScalar(*e.children[1], ctx_attr, pos));
    ScalarPtr s = MakeScalar(e.op == BinaryOp::kAnd || e.op == BinaryOp::kOr
                                 ? ScalarKind::kLogical
                                 : ScalarKind::kArith);
    s->op = e.op;
    s->children.push_back(std::move(lhs));
    s->children.push_back(std::move(rhs));
    return s;
  }

  /// Sec. 3.6.2: comparisons, including the existential node-set cases.
  StatusOr<ScalarPtr> TranslateComparison(const Expr& e,
                                          const std::string& ctx_attr,
                                          const PosCtx& pos) {
    const Expr& lhs = *e.children[0];
    const Expr& rhs = *e.children[1];
    bool lhs_ns = lhs.type == ExprType::kNodeSet;
    bool rhs_ns = rhs.type == ExprType::kNodeSet;
    CompareOp op = ToCompareOp(e.op);

    if (!lhs_ns && !rhs_ns) {
      NATIX_ASSIGN_OR_RETURN(ScalarPtr a,
                             TranslateScalar(lhs, ctx_attr, pos));
      NATIX_ASSIGN_OR_RETURN(ScalarPtr b,
                             TranslateScalar(rhs, ctx_attr, pos));
      ScalarPtr s = MakeScalar(ScalarKind::kCompare);
      s->cmp = op;
      s->children.push_back(std::move(a));
      s->children.push_back(std::move(b));
      return s;
    }

    if (lhs_ns && rhs_ns) {
      if (op == CompareOp::kEq || op == CompareOp::kNe) {
        // exists(T[e1] semijoin_theta T[e2]).
        //
        // Note: for != the paper (Sec. 3.6.2) uses the anti-join; a
        // semi-join with a != condition implements the recommendation's
        // "exists a pair of unequal nodes" semantics, which differs on
        // inputs like {a} != {a,b}. We keep the spec semantics; see
        // DESIGN.md.
        NATIX_ASSIGN_OR_RETURN(NodeSetPlan left,
                               TranslateNodeSet(lhs, ctx_attr, true));
        NATIX_ASSIGN_OR_RETURN(NodeSetPlan right,
                               TranslateNodeSet(rhs, ctx_attr, true));
        OpPtr semi = MakeOp(OpKind::kSemiJoin);
        ScalarPtr pred = MakeScalar(ScalarKind::kCompare);
        pred->cmp = op;
        pred->children.push_back(AttrRef(left.attr));
        pred->children.push_back(AttrRef(right.attr));
        semi->scalar = std::move(pred);
        std::string left_attr = left.attr;
        semi->children.push_back(std::move(left.plan));
        semi->children.push_back(std::move(right.plan));
        ScalarPtr s = MakeScalar(ScalarKind::kNested);
        s->agg = AggKind::kExists;
        s->input_attr = left_attr;
        s->plan = std::move(semi);
        return s;
      }
      // Relational: exists x in e1 with x theta max(e2) (or min for >,>=;
      // Sec. 3.6.2).
      NATIX_ASSIGN_OR_RETURN(NodeSetPlan left,
                             TranslateNodeSet(lhs, ctx_attr, true));
      AggKind extremum = (op == CompareOp::kLt || op == CompareOp::kLe)
                             ? AggKind::kMax
                             : AggKind::kMin;
      NATIX_ASSIGN_OR_RETURN(NodeSetPlan right,
                             TranslateNodeSet(rhs, ctx_attr, true));
      ScalarPtr bound = MakeScalar(ScalarKind::kNested);
      bound->agg = extremum;
      bound->input_attr = right.attr;
      bound->plan = std::move(right.plan);
      // Evaluate the extremum once (map over the singleton scan) and feed
      // the left side through a d-join so the comparison runs per node.
      std::string m = NewAttr("v");
      OpPtr bound_map = MakeOp(OpKind::kMap);
      bound_map->attr = m;
      bound_map->scalar = std::move(bound);
      bound_map->children.push_back(MakeOp(OpKind::kSingletonScan));
      OpPtr djoin = MakeOp(OpKind::kDJoin);
      djoin->children.push_back(std::move(bound_map));
      std::string left_attr = left.attr;
      djoin->children.push_back(std::move(left.plan));
      OpPtr select = MakeOp(OpKind::kSelect);
      ScalarPtr cmp = MakeScalar(ScalarKind::kCompare);
      cmp->cmp = op;
      cmp->children.push_back(AttrRef(left_attr));
      cmp->children.push_back(AttrRef(m));
      select->scalar = std::move(cmp);
      select->children.push_back(std::move(djoin));
      ScalarPtr s = MakeScalar(ScalarKind::kNested);
      s->agg = AggKind::kExists;
      s->input_attr = left_attr;
      s->plan = std::move(select);
      return s;
    }

    // Mixed: node-set theta atomic (or mirrored).
    const Expr& ns = lhs_ns ? lhs : rhs;
    const Expr& atomic = lhs_ns ? rhs : lhs;
    CompareOp oriented = lhs_ns ? op : Mirror(op);

    if ((oriented == CompareOp::kEq || oriented == CompareOp::kNe) &&
        atomic.type == ExprType::kBoolean) {
      // ns = bool  <=>  boolean(ns) = bool.
      NATIX_ASSIGN_OR_RETURN(ScalarPtr exists,
                             NestedAgg(ns, AggKind::kExists, ctx_attr));
      NATIX_ASSIGN_OR_RETURN(ScalarPtr b,
                             TranslateScalar(atomic, ctx_attr, pos));
      ScalarPtr s = MakeScalar(ScalarKind::kCompare);
      s->cmp = oriented;
      s->children.push_back(std::move(exists));
      s->children.push_back(std::move(b));
      return s;
    }

    // exists(sigma_{node theta atomic}(T[ns])).
    NATIX_ASSIGN_OR_RETURN(NodeSetPlan plan,
                           TranslateNodeSet(ns, ctx_attr, true));
    NATIX_ASSIGN_OR_RETURN(ScalarPtr atom,
                           TranslateScalar(atomic, ctx_attr, pos));
    OpPtr select = MakeOp(OpKind::kSelect);
    ScalarPtr cmp = MakeScalar(ScalarKind::kCompare);
    cmp->cmp = oriented;
    cmp->children.push_back(AttrRef(plan.attr));
    cmp->children.push_back(std::move(atom));
    select->scalar = std::move(cmp);
    std::string attr = plan.attr;
    select->children.push_back(std::move(plan.plan));
    ScalarPtr s = MakeScalar(ScalarKind::kNested);
    s->agg = AggKind::kExists;
    s->input_attr = attr;
    s->plan = std::move(select);
    return s;
  }

  StatusOr<ScalarPtr> TranslateCall(const Expr& e,
                                    const std::string& ctx_attr,
                                    const PosCtx& pos) {
    auto fid = static_cast<FunctionId>(e.function_id);
    switch (fid) {
      case FunctionId::kPosition:
        return AttrRef(pos.cp);
      case FunctionId::kLast:
        return AttrRef(pos.cs);
      case FunctionId::kCount:
        return NestedAgg(*e.children[0], AggKind::kCount, ctx_attr);
      case FunctionId::kSum:
        return NestedAgg(*e.children[0], AggKind::kSum, ctx_attr);
      case FunctionId::kBoolean:
        if (e.children[0]->type == ExprType::kNodeSet) {
          // Sec. 3.3.2: conversion to boolean via the internal exists().
          return NestedAgg(*e.children[0], AggKind::kExists, ctx_attr);
        }
        break;
      case FunctionId::kString:
        if (e.children[0]->type == ExprType::kNodeSet) {
          return NestedAgg(*e.children[0], AggKind::kFirstString, ctx_attr);
        }
        break;
      case FunctionId::kNumber:
        if (e.children[0]->type == ExprType::kNodeSet) {
          NATIX_ASSIGN_OR_RETURN(
              ScalarPtr first,
              NestedAgg(*e.children[0], AggKind::kFirstString, ctx_attr));
          ScalarPtr s = MakeScalar(ScalarKind::kFunc);
          s->function = FunctionId::kNumber;
          s->children.push_back(std::move(first));
          return s;
        }
        break;
      case FunctionId::kName:
        return NestedAgg(*e.children[0], AggKind::kFirstName, ctx_attr);
      case FunctionId::kLocalName:
        return NestedAgg(*e.children[0], AggKind::kFirstLocalName, ctx_attr);
      case FunctionId::kNamespaceUri: {
        // No namespace processing: always the empty string.
        ScalarPtr s = MakeScalar(ScalarKind::kStringConst);
        return s;
      }
      case FunctionId::kLang: {
        // lang(s) tests the context node's xml:lang; pass the context
        // node as a hidden second operand.
        NATIX_ASSIGN_OR_RETURN(ScalarPtr arg,
                               TranslateScalar(*e.children[0], ctx_attr, pos));
        ScalarPtr s = MakeScalar(ScalarKind::kFunc);
        s->function = FunctionId::kLang;
        s->children.push_back(std::move(arg));
        s->children.push_back(AttrRef(ctx_attr));
        return s;
      }
      case FunctionId::kId:
        return Status::Internal(
            "id() in scalar context should have been wrapped by a "
            "conversion");
      default:
        break;
    }
    // Simple functions: translate arguments and keep the call (Sec. 3.6.1).
    ScalarPtr s = MakeScalar(ScalarKind::kFunc);
    s->function = fid;
    for (const xpath::ExprPtr& arg : e.children) {
      NATIX_ASSIGN_OR_RETURN(ScalarPtr a,
                             TranslateScalar(*arg, ctx_attr, pos));
      s->children.push_back(std::move(a));
    }
    return s;
  }

  TranslatorOptions options_;
  int counter_ = 1;
};

}  // namespace

StatusOr<TranslationResult> Translate(const xpath::Expr& root,
                                      const TranslatorOptions& options,
                                      bool verify) {
  obs::ScopedSpan span("compile/translate");
  TranslatorImpl impl(options);
  NATIX_ASSIGN_OR_RETURN(TranslationResult result, impl.Run(root));
  // Layer-1 verification directly after translation, so a translator bug
  // is reported before rewrites can obscure it.
  if (verify) {
    NATIX_RETURN_IF_ERROR(analysis::VerifyTranslation(result));
  }
  if (options.simplify_plan) {
    // The simplifier re-verifies after every rule application (when
    // verification is enabled) and names the offending rule.
    NATIX_RETURN_IF_ERROR(
        algebra::SimplifyPlan(&result.plan, verify, &result.rewrites,
                              options.limit_pushdown)
            .status());
  }
  if (options.result_limit > 0 && result.type == ExprType::kNodeSet) {
    // Paginated serving: cap the result at the first result_limit nodes
    // in document order. A provably doc-ordered result stream is capped
    // in place (the pipeline closes after the k-th binding); otherwise
    // an in-plan sort establishes the order below the cap, so the bound
    // is exact either way.
    analysis::PlanProperties props =
        analysis::InferPlanProperties(*result.plan);
    analysis::AttrProperties out = props.Lookup(result.result_attr);
    if (out.order != analysis::OrderState::kDocOrdered) {
      OpPtr sort = MakeOp(OpKind::kSort);
      sort->attr = result.result_attr;
      sort->children.push_back(std::move(result.plan));
      result.plan = std::move(sort);
    }
    OpPtr lim = MakeOp(OpKind::kLimit);
    lim->limit = options.result_limit;
    lim->children.push_back(std::move(result.plan));
    result.plan = std::move(lim);
    result.rewrites.push_back(algebra::RewriteEvent{
        "limit:api-result-limit", "Limit[" +
            std::to_string(options.result_limit) + "]",
        out.order == analysis::OrderState::kDocOrdered
            ? std::string("result stream provably doc-ordered")
            : std::string("in-plan sort inserted below the cap")});
    if (verify) {
      NATIX_RETURN_IF_ERROR(analysis::VerifyTranslation(result));
    }
  }
  return result;
}

}  // namespace natix::translate
