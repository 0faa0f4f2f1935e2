#include "qe/codegen.h"

#include <set>
#include <utility>

#include "algebra/properties.h"
#include "analysis/plan_verifier.h"
#include "analysis/property_inference.h"
#include "nvm/assembler.h"
#include "obs/trace.h"

namespace natix::qe {

namespace internal {

using algebra::Operator;
using algebra::OpKind;
using algebra::Scalar;
using runtime::RegisterId;

using analysis::PhysNode;
using analysis::PhysNodeKind;
using analysis::PhysNodePtr;

/// A lowered subtree: its root node and the registers the subtree
/// writes (materializing parents snapshot exactly these).
struct Lowered {
  PhysNodePtr node;
  std::set<RegisterId> written;
};

PhysNodePtr MakeNode(PhysNodeKind kind, OpKind op, std::string label) {
  auto node = std::make_unique<PhysNode>();
  node->kind = kind;
  node->op = op;
  node->label = std::move(label);
  return node;
}

/// Hangs `child` under `node`: the shape of every unary operator.
Lowered Pipe(PhysNodePtr node, Lowered child) {
  node->children.push_back(std::move(child.node));
  child.node = std::move(node);
  return child;
}

/// Hangs both inputs under `node`; the output carries both sides' writes.
Lowered Join(PhysNodePtr node, Lowered left, Lowered right) {
  node->children.push_back(std::move(left.node));
  node->children.push_back(std::move(right.node));
  left.written.insert(right.written.begin(), right.written.end());
  left.node = std::move(node);
  return left;
}

using analysis::ChildClose;
using analysis::SpoolKind;

/// Declares the Layer-4 resource behaviour of the iterator a node
/// stands for. The declarations must mirror the implementations in src/qe/
/// (operators.h and the *_ops.cc files); the resource verifier proves
/// the plan-wide consequences, and the execution context's resource
/// ledger cross-checks them at runtime.
PhysNode* Effects(PhysNode* node, std::vector<ChildClose> child_close,
                  SpoolKind spool = SpoolKind::kNone,
                  bool spool_released_on_close = false,
                  bool holds_cursor = false,
                  bool cursor_released_on_close = false) {
  node->effects.child_close = std::move(child_close);
  node->effects.spool = spool;
  node->effects.spool_released_on_close = spool_released_on_close;
  node->effects.holds_cursor = holds_cursor;
  node->effects.cursor_released_on_close = cursor_released_on_close;
  return node;
}

/// The step that lowers fused with the duplicate elimination `op` into
/// one UnnestMap^D node (Upsilon^D): `op` is a DupElim[a] directly over
/// UnnestMap[a := c/axis::test] on an axis whose walk the seen-set may
/// prune (runtime::AxisPrunesByDedup). Null when `op` lowers on its own.
const Operator* FusedStep(const Operator& op) {
  if (op.kind != OpKind::kDupElim) return nullptr;
  const Operator& step = *op.children[0];
  if (step.kind != OpKind::kUnnestMap || step.attr != op.attr ||
      step.reverse || !runtime::AxisPrunesByDedup(step.axis)) {
    return nullptr;
  }
  return &step;
}

/// Renders the physical shape of the compiled plan: the logical operator
/// tree annotated with the attribute manager's register assignments.
/// Pure-rename maps that compiled to register aliases are marked.
class PhysicalPrinter {
 public:
  explicit PhysicalPrinter(
      const std::unordered_map<std::string, RegisterId>& attribute_map)
      : attribute_map_(attribute_map) {}

  std::string Render(const Operator& op) {
    out_.clear();
    Print(op, 0);
    return out_;
  }

 private:
  std::string Reg(const std::string& attr) const {
    auto it = attribute_map_.find(attr);
    if (it == attribute_map_.end()) return attr + "@?";
    return attr + "@r" + std::to_string(it->second);
  }

  void PrintScalar(const algebra::Scalar& scalar, int depth) {
    nvm::SingleStep step;
    if (nvm::MatchSingleStep(scalar, &step)) {
      // Compiled into the subscript as one NVM step loop, no plan.
      out_.append(static_cast<size_t>(depth) * 2, ' ');
      out_ += "step loop " + std::string(algebra::AggKindName(scalar.agg)) +
              "(" + Reg(step.step->ctx_attr) + "/" +
              runtime::AxisName(step.step->axis) +
              "::" + step.step->test.ToString() +
              (step.compare != nullptr ? ", " + step.compare->ToString()
                                       : "") +
              ")\n";
      return;
    }
    if (scalar.kind == algebra::ScalarKind::kNested) {
      out_.append(static_cast<size_t>(depth) * 2, ' ');
      out_ += "nested " + std::string(algebra::AggKindName(scalar.agg)) +
              "(" + Reg(scalar.input_attr) + "):\n";
      Print(*scalar.plan, depth + 1);
    }
    for (const auto& child : scalar.children) PrintScalar(*child, depth);
  }

  void Print(const Operator& dedup_or_op, int depth) {
    // A fused pair renders as its step.
    const Operator* fused = FusedStep(dedup_or_op);
    const Operator& op = fused != nullptr ? *fused : dedup_or_op;
    out_.append(static_cast<size_t>(depth) * 2, ' ');
    out_ += algebra::OpKindName(op.kind);
    switch (op.kind) {
      case OpKind::kMap: {
        bool alias = op.scalar->kind == algebra::ScalarKind::kAttrRef &&
                     !op.materialize;
        out_ += std::string(op.materialize ? "^mat" : "") + "[" +
                Reg(op.attr) + " := " + op.scalar->ToString() +
                (alias ? " (register alias, no code)" : "") + "]";
        break;
      }
      case OpKind::kSelect:
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        out_ += "[" + op.scalar->ToString() + "]";
        break;
      case OpKind::kUnnestMap:
        out_ += std::string(fused != nullptr ? "^D"
                            : op.reverse     ? "^rev"
                                             : "") +
                "[" + Reg(op.attr) +
                " := " + Reg(op.ctx_attr) + "/" +
                runtime::AxisName(op.axis) + "::" + op.test.ToString() +
                "]";
        break;
      case OpKind::kCounter:
        out_ += "[" + Reg(op.attr) + " := counter++" +
                (op.ctx_attr.empty() ? "" : ", reset on " + Reg(op.ctx_attr)) +
                "]";
        break;
      case OpKind::kTmpCs:
        out_ += "[" + Reg(op.attr) +
                (op.ctx_attr.empty() ? "" : "; context " + Reg(op.ctx_attr)) +
                "]";
        break;
      case OpKind::kDupElim:
      case OpKind::kSort:
        out_ += "[" + Reg(op.attr) + "]";
        break;
      case OpKind::kAggregate:
        out_ += "[" + Reg(op.attr) + " := " +
                algebra::AggKindName(op.agg) + "(" + Reg(op.ctx_attr) + ")]";
        break;
      case OpKind::kMemoX: {
        out_ += "[";
        for (size_t i = 0; i < op.key_attrs.size(); ++i) {
          if (i > 0) out_ += ", ";
          out_ += Reg(op.key_attrs[i]);
        }
        out_ += "]";
        break;
      }
      case OpKind::kIdDeref:
        out_ += "[" + Reg(op.attr) + "]";
        break;
      case OpKind::kLimit:
        out_ += "[" + std::to_string(op.limit) + "]";
        break;
      default:
        break;
    }
    out_ += "\n";
    if (op.scalar != nullptr) PrintScalar(*op.scalar, depth + 1);
    for (const auto& child : op.children) Print(*child, depth + 1);
  }

  const std::unordered_map<std::string, RegisterId>& attribute_map_;
  std::string out_;
};

/// Declared a friend of PlanTemplate. Lowers the template's logical
/// plan into its physical plan (analysis::PhysicalModel), once, at
/// Prepare: the attribute manager assigns registers, node-test names are
/// resolved against the store's dictionary, every subscript is compiled
/// to NVM code and verified (Layer 3), and the result is
/// rendered and, if the template is verified, verified (Layers 2 and 4).
/// Every execution context is later built from the lowered plan alone.
class CodegenImpl {
 public:
  CodegenImpl(PlanTemplate* tmpl, const analysis::PropertyMap& props)
      : tmpl_(*tmpl),
        model_(tmpl->lowered_),
        store_(tmpl->store_),
        props_(props) {}

  /// Lowers the plan into the template, renders the physical plan and,
  /// with verification on, runs the one verification pass over the
  /// lowered plan. Violations fail compilation: a malformed plan must
  /// never reach execution.
  Status Run() {
    const translate::TranslationResult& translation = tmpl_.translation_;
    // Reserved execution-context attributes (the paper's top-level map).
    model_.context_regs = {Bind(translate::kContextNodeAttr),
                           Bind(translate::kContextPositionAttr),
                           Bind(translate::kContextSizeAttr)};
    NATIX_ASSIGN_OR_RETURN(Lowered root, Lower(*translation.plan));
    NATIX_ASSIGN_OR_RETURN(model_.result_reg,
                           Resolve(translation.result_attr));

    analysis::AttrProperties result_props;
    if (auto it = props_.find(translation.plan.get()); it != props_.end()) {
      result_props = it->second.Lookup(translation.result_attr);
    }
    const bool node_set = translation.type == xpath::ExprType::kNodeSet;
    const bool ordered =
        result_props.order == analysis::OrderState::kDocOrdered;
    // Result-order guarantee: when the root stream is provably in
    // (non-strict) document order on the result attribute, the API skips
    // its final result sort.
    tmpl_.result_document_ordered_ = node_set && ordered;
    // Under verification, the oracle also guards the root stream's
    // statically inferred claims across the whole execution (operators
    // inside dependent branches only assert per re-evaluation).
    if (tmpl_.verified_ && node_set &&
        (ordered || result_props.duplicate_free)) {
      root.node->oracles.push_back({model_.result_reg, ordered,
                                    result_props.duplicate_free, 0,
                                    "result " + translation.result_attr});
    }
    model_.root = std::move(root.node);
    model_.register_count = next_register_;
    model_.nested_count = nested_count_;

    tmpl_.physical_plan_ =
        "registers: " + std::to_string(next_register_) + ", nested plans: " +
        std::to_string(nested_count_) + "\n" +
        PhysicalPrinter(attribute_map_).Render(*translation.plan);

    obs::ScopedSpan verify_span("compile/verify",
                                tmpl_.verified_ ? "lowered plan" : "skipped");
    if (!tmpl_.verified_) {
      tmpl_.verification_ =
          "not verified (release build; enable with --verify-plans)";
      return Status::OK();
    }
    NATIX_ASSIGN_OR_RETURN(
        tmpl_.verification_,
        analysis::VerifyPrepared(translation, model_, props_.size()));
    return Status::OK();
  }

 private:
  /// Binds a fresh attribute name to a new register (or returns the
  /// existing register when re-bound, e.g. the shared output attribute of
  /// union branches).
  RegisterId Bind(const std::string& name) {
    auto it = attribute_map_.find(name);
    if (it != attribute_map_.end()) return it->second;
    RegisterId reg = next_register_++;
    attribute_map_.emplace(name, reg);
    return reg;
  }

  /// Aliases `name` onto an existing register (the attribute-manager
  /// no-copy rename). Fails if `name` is already bound elsewhere.
  bool Alias(const std::string& name, RegisterId reg) {
    auto it = attribute_map_.find(name);
    if (it != attribute_map_.end()) return it->second == reg;
    attribute_map_.emplace(name, reg);
    return true;
  }

  StatusOr<RegisterId> Resolve(const std::string& name) {
    auto it = attribute_map_.find(name);
    if (it == attribute_map_.end()) {
      return Status::Internal("unbound attribute '" + name + "'");
    }
    return it->second;
  }

  template <typename Names>
  StatusOr<std::vector<RegisterId>> ResolveAll(const Names& names) {
    std::vector<RegisterId> regs;
    regs.reserve(names.size());
    for (const std::string& name : names) {
      NATIX_ASSIGN_OR_RETURN(RegisterId reg, Resolve(name));
      regs.push_back(reg);
    }
    return regs;
  }

  /// Compiles a scalar subscript of `host` into the program table,
  /// lowering its nested subplans into host->nested. The program's
  /// tuple-register reads join host->reads.
  Status CompileSubscript(const Scalar& scalar, PhysNode* host) {
    nvm::AttrResolver resolver =
        [this](const std::string& name) -> StatusOr<RegisterId> {
      return Resolve(name);
    };
    nvm::NestedRegistrar registrar =
        [this, host](const Scalar& nested) -> StatusOr<size_t> {
      NATIX_ASSIGN_OR_RETURN(Lowered sub, Lower(*nested.plan));
      analysis::NestedSite site;
      NATIX_ASSIGN_OR_RETURN(site.input, Resolve(nested.input_attr));
      site.plan = std::move(sub.node);
      site.agg = nested.agg;
      // Claimed after the subplan is lowered, so slots of plans nested
      // inside it come first.
      site.slot = nested_count_++;
      host->nested.push_back(std::move(site));
      return host->nested.back().slot;
    };
    nvm::NodeTestResolver resolve_test =
        [this](const xpath::AstNodeTest& test) {
          return ResolveNodeTest(test);
        };
    NATIX_ASSIGN_OR_RETURN(
        nvm::Program program,
        nvm::CompileScalar(scalar, resolver, resolve_test, registrar));
    // Layer 3, once, under the bounds in force here: the registers and
    // nested plans bound so far.
    if (Status st = analysis::VerifyProgram(program, next_register_,
                                            nested_count_);
        !st.ok()) {
      return Status::Internal(st.message() + " (subscript of " +
                              host->label + ")");
    }
    tmpl_.nvm_insns_ += program.code.size();
    // The program's tuple-register operands are exactly the plan
    // registers the subscript reads per tuple (kLoadAttr, and the step
    // loops read theirs directly).
    for (const nvm::Instruction& ins : program.code) {
      if (nvm::RolesOf(ins).attr_b) host->reads.push_back(ins.b);
    }
    host->program = model_.programs.size();
    model_.programs.emplace_back(host->label, std::move(program));
    return Status::OK();
  }

  runtime::NodeTest ResolveNodeTest(const xpath::AstNodeTest& t) const {
    using Ast = xpath::AstNodeTest::Kind;
    using Kind = runtime::NodeTest::Kind;
    runtime::NodeTest test;
    switch (t.kind) {
      case Ast::kName: test.kind = Kind::kName; break;
      case Ast::kAnyName: test.kind = Kind::kAnyName; break;
      case Ast::kText: test.kind = Kind::kText; break;
      case Ast::kComment: test.kind = Kind::kComment; break;
      case Ast::kPi: test.kind = Kind::kPi; break;
      case Ast::kPiTarget: test.kind = Kind::kPiTarget; break;
      case Ast::kAnyKind: test.kind = Kind::kAnyKind; break;
    }
    // A name absent from the dictionary occurs nowhere in the store: the
    // invalid id matches no node, which is exactly right.
    if (t.kind == Ast::kName || t.kind == Ast::kPiTarget) {
      test.name_id = store_->names()->Lookup(t.name);
    }
    return test;
  }

  /// The inferred-property tag appended to EXPLAIN ANALYZE labels, e.g.
  /// " {card:n, ord:doc(c3), dup-free(c3)}". Colon-separated so golden
  /// normalizations of numeric counters ("=N") leave it alone.
  std::string PropTag(const Operator& op) const {
    auto it = props_.find(&op);
    if (it == props_.end()) return std::string();
    return " " + analysis::RenderProperties(it->second, op.attr);
  }

  /// Under verification, records a runtime property-oracle wrapper over
  /// stream-producing operators: it asserts the static order /
  /// duplicate-freedom claims of op.attr against the actual tuples.
  /// Transparent: no stats node, no register writes.
  void AddOracle(const Operator& op, PhysNode* node) {
    if (!tmpl_.verified_) return;
    if (op.kind == OpKind::kLimit) {
      AddLimitOracle(op, node);
      return;
    }
    switch (op.kind) {
      case OpKind::kUnnestMap:
      case OpKind::kDupElim:
      case OpKind::kSort:
      case OpKind::kCounter:
      case OpKind::kUnnest:
      case OpKind::kIdDeref:
        break;
      default:
        return;
    }
    auto it = props_.find(&op);
    if (it == props_.end()) return;
    analysis::AttrProperties attr = it->second.Lookup(op.attr);
    bool check_order = attr.order == analysis::OrderState::kDocOrdered;
    bool check_dup = attr.duplicate_free;
    if (!check_order && !check_dup) return;
    StatusOr<RegisterId> reg = Resolve(op.attr);
    if (!reg.ok()) return;
    node->oracles.push_back({*reg, check_order, check_dup, 0,
                             analysis::OperatorSummary(op) + PropTag(op)});
  }

  /// The Limit contract: at most op.limit tuples per Open, and the
  /// surviving prefix keeps the input's document-order claim. A Limit
  /// writes no attribute of its own, so the order check keys on the
  /// stream attribute produced below it (descending through the
  /// attribute-transparent operators); the tuple bound needs no
  /// register at all.
  void AddLimitOracle(const Operator& op, PhysNode* node) {
    const Operator* p = op.children[0].get();
    while (p->kind == OpKind::kSelect || p->kind == OpKind::kCounter ||
           p->kind == OpKind::kTmpCs || p->kind == OpKind::kLimit ||
           p->kind == OpKind::kMap || p->kind == OpKind::kProject ||
           p->kind == OpKind::kMemoX) {
      p = p->children[0].get();
    }
    std::string stream_attr;
    if (p->kind == OpKind::kUnnestMap || p->kind == OpKind::kUnnest ||
        p->kind == OpKind::kIdDeref || p->kind == OpKind::kDupElim ||
        p->kind == OpKind::kSort) {
      stream_attr = p->attr;
    }
    bool check_order = false;
    RegisterId reg = 0;
    auto it = props_.find(&op);
    if (!stream_attr.empty() && it != props_.end()) {
      analysis::AttrProperties attr = it->second.Lookup(stream_attr);
      StatusOr<RegisterId> resolved = Resolve(stream_attr);
      if (resolved.ok() &&
          attr.order == analysis::OrderState::kDocOrdered) {
        check_order = true;
        reg = *resolved;
      }
    }
    node->oracles.push_back({reg, check_order,
                             /*check_duplicate_free=*/false, op.limit,
                             analysis::OperatorSummary(op) + PropTag(op)});
  }

  /// Lowers `op` with its inputs. Inputs lower first, in child order;
  /// then the operator's own function binds its registers and builds its
  /// node. Only this small frame sits on the stack once per plan level.
  StatusOr<Lowered> Lower(const Operator& op) {
    // Logical only: registers are not reclaimed, so projection needs no
    // runtime work (and no node).
    if (op.kind == OpKind::kProject) return Lower(*op.children[0]);
    if (const Operator* step = FusedStep(op)) {
      NATIX_ASSIGN_OR_RETURN(Lowered in, Lower(*step->children[0]));
      NATIX_ASSIGN_OR_RETURN(Lowered out,
                             LowerUnnestMap(*step, std::move(in), &op));
      // The stream satisfies the claims of both operators.
      AddOracle(*step, out.node.get());
      AddOracle(op, out.node.get());
      return out;
    }
    std::vector<Lowered> in;
    in.reserve(op.children.size());
    for (const algebra::OpPtr& child : op.children) {
      NATIX_ASSIGN_OR_RETURN(Lowered lowered, Lower(*child));
      in.push_back(std::move(lowered));
    }
    NATIX_ASSIGN_OR_RETURN(Lowered out, LowerOp(op, std::move(in)));
    AddOracle(op, out.node.get());
    return out;
  }

  StatusOr<Lowered> LowerOp(const Operator& op, std::vector<Lowered> in) {
    switch (op.kind) {
      case OpKind::kSingletonScan: return LowerScan();
      case OpKind::kSelect: return LowerSelect(op, std::move(in[0]));
      case OpKind::kMap: return LowerMap(op, std::move(in[0]));
      case OpKind::kCounter: return LowerCounter(op, std::move(in[0]));
      case OpKind::kUnnestMap: return LowerUnnestMap(op, std::move(in[0]));
      case OpKind::kDJoin:
      case OpKind::kCross:
        return LowerDJoin(op, std::move(in[0]), std::move(in[1]));
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        return LowerSemiJoin(op, std::move(in[0]), std::move(in[1]));
      case OpKind::kConcat: return LowerConcat(std::move(in));
      case OpKind::kDupElim: return LowerDupElim(op, std::move(in[0]));
      case OpKind::kSort: return LowerSort(op, std::move(in[0]));
      case OpKind::kAggregate: return LowerAggregate(op, std::move(in[0]));
      case OpKind::kBinaryGroup:
        return LowerBinaryGroup(op, std::move(in[0]), std::move(in[1]));
      case OpKind::kTmpCs: return LowerTmpCs(op, std::move(in[0]));
      case OpKind::kMemoX: return LowerMemoX(op, std::move(in[0]));
      case OpKind::kUnnest: return LowerUnnest(op, std::move(in[0]));
      case OpKind::kIdDeref: return LowerIdDeref(op, std::move(in[0]));
      case OpKind::kLimit: return LowerLimit(op, std::move(in[0]));
      case OpKind::kProject: break;  // lowered by Lower itself
    }
    return Status::Internal("unknown operator kind");
  }

  Lowered LowerScan() {
    Lowered out;
    out.node = MakeNode(PhysNodeKind::kLeaf, OpKind::kSingletonScan,
                        "SingletonScan");
    out.node->stats_label = "SingletonScan";
    return out;
  }

  StatusOr<Lowered> LowerSelect(const Operator& op, Lowered child) {
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "Select");
    Effects(node.get(), {ChildClose::kOnClose});
    node->stats_label = "Select[" + op.scalar->ToString() + "]";
    NATIX_RETURN_IF_ERROR(CompileSubscript(*op.scalar, node.get()));
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerMap(const Operator& op, Lowered child) {
    // Attribute-manager fast path: a pure rename emits no code.
    if (op.scalar->kind == algebra::ScalarKind::kAttrRef &&
        !op.materialize) {
      NATIX_ASSIGN_OR_RETURN(RegisterId source, Resolve(op.scalar->name));
      if (Alias(op.attr, source)) {
        child.written.insert(source);
        return child;
      }
      // Already bound elsewhere (e.g. union branches sharing one output
      // attribute): fall through to a real copy.
    }
    RegisterId out = Bind(op.attr);
    PhysNodePtr node =
        MakeNode(PhysNodeKind::kPipeline, op.kind,
                 "Map[" + op.attr + "@r" + std::to_string(out) + "]");
    // chi^mat keeps a keyed result cache that intentionally outlives
    // Open/Close cycles within one execution context.
    Effects(node.get(), {ChildClose::kOnClose},
            op.materialize ? SpoolKind::kMemo : SpoolKind::kNone);
    node->stats_label = std::string("Map") + (op.materialize ? "^mat" : "") +
                        "[" + op.attr + " := " + op.scalar->ToString() + "]" +
                        PropTag(op);
    node->materialize = op.materialize;
    if (op.materialize) {
      NATIX_ASSIGN_OR_RETURN(
          node->key_regs,
          ResolveAll(algebra::ScalarFreeAttributes(*op.scalar)));
      node->reads = node->key_regs;
    }
    NATIX_RETURN_IF_ERROR(CompileSubscript(*op.scalar, node.get()));
    node->writes.push_back(out);
    child.written.insert(out);
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerCounter(const Operator& op, Lowered child) {
    RegisterId out = Bind(op.attr);
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "Counter");
    Effects(node.get(), {ChildClose::kOnClose});
    if (!op.ctx_attr.empty()) {
      NATIX_ASSIGN_OR_RETURN(RegisterId reset, Resolve(op.ctx_attr));
      node->reads.push_back(reset);
    }
    node->writes.push_back(out);
    node->stats_label =
        "Counter[" + op.attr +
        (op.ctx_attr.empty() ? "" : ", reset on " + op.ctx_attr) + "]";
    child.written.insert(out);
    return Pipe(std::move(node), std::move(child));
  }

  /// Lowers the step `op`; with `dedup`, the DupElim over it, fused into
  /// one UnnestMap^D node that owns the seen-set.
  StatusOr<Lowered> LowerUnnestMap(const Operator& op, Lowered child,
                                   const Operator* dedup = nullptr) {
    NATIX_ASSIGN_OR_RETURN(RegisterId ctx, Resolve(op.ctx_attr));
    RegisterId out = Bind(op.attr);
    const std::string suffix = dedup != nullptr ? "^D"
                               : op.reverse     ? "^rev"
                                                : "";
    PhysNodePtr node =
        MakeNode(PhysNodeKind::kPipeline, op.kind,
                 dedup != nullptr ? "UnnestMap^D" : "UnnestMap");
    // The axis cursor pins pages between Next calls while active; Close
    // drops it (pin balance on early exit), and the seen-set with it.
    Effects(node.get(), {ChildClose::kOnClose},
            dedup != nullptr ? SpoolKind::kFull : SpoolKind::kNone,
            /*spool_released_on_close=*/dedup != nullptr,
            /*holds_cursor=*/true, /*cursor_released_on_close=*/true);
    node->axis = op.axis;
    node->test = ResolveNodeTest(op.test);
    node->reverse = op.reverse;
    node->dedup = dedup != nullptr;
    node->reads.push_back(ctx);
    node->writes.push_back(out);
    node->stats_label = "UnnestMap" + suffix + "[" + op.attr + " := " +
                        op.ctx_attr + "/" +
                        runtime::AxisName(op.axis) +
                        "::" + op.test.ToString() + "]" +
                        PropTag(dedup != nullptr ? *dedup : op);
    child.written.insert(out);
    return Pipe(std::move(node), std::move(child));
  }

  Lowered LowerDJoin(const Operator& op, Lowered left, Lowered right) {
    const char* name = op.kind == OpKind::kDJoin ? "DJoin" : "Cross";
    PhysNodePtr node = MakeNode(PhysNodeKind::kDependent, op.kind, name);
    Effects(node.get(), {ChildClose::kOnClose, ChildClose::kOnClose});
    node->stats_label = name;
    return Join(std::move(node), std::move(left), std::move(right));
  }

  StatusOr<Lowered> LowerSemiJoin(const Operator& op, Lowered left,
                                  Lowered right) {
    const char* name = op.kind == OpKind::kSemiJoin ? "SemiJoin" : "AntiJoin";
    PhysNodePtr node = MakeNode(PhysNodeKind::kDependentLeft, op.kind, name);
    // The probe side is opened and closed inside every Next call,
    // including error paths — never open across calls.
    Effects(node.get(), {ChildClose::kOnClose, ChildClose::kProbeContained});
    node->stats_label =
        std::string(name) + "[" + op.scalar->ToString() + "]";
    NATIX_RETURN_IF_ERROR(CompileSubscript(*op.scalar, node.get()));
    return Join(std::move(node), std::move(left), std::move(right));
  }

  Lowered LowerConcat(std::vector<Lowered> in) {
    Lowered out;
    out.node = MakeNode(PhysNodeKind::kConcat, OpKind::kConcat, "Concat");
    for (Lowered& child : in) {
      out.written.insert(child.written.begin(), child.written.end());
      out.node->children.push_back(std::move(child.node));
    }
    // Branches are opened lazily and each is closed before the next
    // opens; Close finds at most the current branch open.
    Effects(out.node.get(),
            std::vector<ChildClose>(in.size(), ChildClose::kOnClose));
    out.node->stats_label = "Concat";
    return out;
  }

  StatusOr<Lowered> LowerDupElim(const Operator& op, Lowered child) {
    NATIX_ASSIGN_OR_RETURN(RegisterId attr, Resolve(op.attr));
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "DupElim");
    Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kFull,
            /*spool_released_on_close=*/true);
    node->reads.push_back(attr);
    node->stats_label = "DupElim[" + op.attr + "]" + PropTag(op);
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerSort(const Operator& op, Lowered child) {
    NATIX_ASSIGN_OR_RETURN(RegisterId attr, Resolve(op.attr));
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "Sort");
    Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kFull,
            /*spool_released_on_close=*/true);
    node->reads.push_back(attr);
    node->row_regs.assign(child.written.begin(), child.written.end());
    node->stats_label = "Sort[" + op.attr + "]" + PropTag(op);
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerAggregate(const Operator& op, Lowered child) {
    NATIX_ASSIGN_OR_RETURN(RegisterId input, Resolve(op.ctx_attr));
    RegisterId out = Bind(op.attr);
    PhysNodePtr node = MakeNode(PhysNodeKind::kBarrier, op.kind, "Aggregate");
    // The input is drained and closed inside a single Next via the
    // nested-aggregate machinery (subscripts.cc), error paths included.
    Effects(node.get(), {ChildClose::kProbeContained});
    node->agg = op.agg;
    node->reads.push_back(input);
    node->writes.push_back(out);
    node->stats_label = "Aggregate[" + op.attr + " := " +
                        std::string(algebra::AggKindName(op.agg)) + "(" +
                        op.ctx_attr + ")]" + PropTag(op);
    child.written = {out};
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerBinaryGroup(const Operator& op, Lowered left,
                                     Lowered right) {
    PhysNodePtr node =
        MakeNode(PhysNodeKind::kDependentLeft, op.kind, "BinaryGroup");
    Effects(node.get(), {ChildClose::kOnClose, ChildClose::kProbeContained});
    NATIX_ASSIGN_OR_RETURN(
        node->reads,
        ResolveAll(std::vector<std::string>{op.left_attr, op.right_attr,
                                            op.ctx_attr}));
    RegisterId out = Bind(op.attr);
    node->agg = op.agg;
    node->writes.push_back(out);
    node->stats_label = "BinaryGroup[" + op.attr + " := " +
                        std::string(algebra::AggKindName(op.agg)) + "; " +
                        op.left_attr + " = " + op.right_attr + "]";
    // Only the left tuple survives, extended by the aggregate.
    node->children.push_back(std::move(left.node));
    node->children.push_back(std::move(right.node));
    left.node = std::move(node);
    left.written.insert(out);
    return left;
  }

  StatusOr<Lowered> LowerTmpCs(const Operator& op, Lowered child) {
    RegisterId out = Bind(op.attr);
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "TmpCs");
    Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kGroup,
            /*spool_released_on_close=*/true);
    if (!op.ctx_attr.empty()) {
      NATIX_ASSIGN_OR_RETURN(RegisterId ctx, Resolve(op.ctx_attr));
      node->reads.push_back(ctx);
    }
    node->row_regs.assign(child.written.begin(), child.written.end());
    node->writes.push_back(out);
    node->stats_label =
        "TmpCs[" + op.attr +
        (op.ctx_attr.empty() ? "" : "; context " + op.ctx_attr) + "]" +
        PropTag(op);
    child.written.insert(out);
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerMemoX(const Operator& op, Lowered child) {
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "MemoX");
    // The memo table is keyed on the free variables and intentionally
    // survives Open/Close cycles; in-flight recordings are discarded on
    // Close.
    Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kMemo);
    NATIX_ASSIGN_OR_RETURN(node->key_regs, ResolveAll(op.key_attrs));
    node->reads = node->key_regs;
    node->row_regs.assign(child.written.begin(), child.written.end());
    std::string key_list;
    for (size_t i = 0; i < op.key_attrs.size(); ++i) {
      if (i > 0) key_list += ", ";
      key_list += op.key_attrs[i];
    }
    node->stats_label = "MemoX[" + key_list + "]";
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerUnnest(const Operator& op, Lowered child) {
    NATIX_ASSIGN_OR_RETURN(RegisterId seq, Resolve(op.ctx_attr));
    RegisterId out = Bind(op.attr);
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "Unnest");
    Effects(node.get(), {ChildClose::kOnClose});
    node->reads.push_back(seq);
    node->writes.push_back(out);
    node->stats_label = "Unnest[" + op.attr + "]";
    child.written.insert(out);
    return Pipe(std::move(node), std::move(child));
  }

  StatusOr<Lowered> LowerIdDeref(const Operator& op, Lowered child) {
    NATIX_ASSIGN_OR_RETURN(RegisterId ctx, Resolve(op.ctx_attr));
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "IdDeref");
    // The lazily built id indexes live in the execution context and are
    // shared across Opens — keyed memo state by design.
    Effects(node.get(), {ChildClose::kOnClose}, SpoolKind::kMemo);
    node->reads.push_back(ctx);
    node->stats_label = "IdDeref[" + op.attr + "]";
    if (op.scalar != nullptr) {
      NATIX_RETURN_IF_ERROR(CompileSubscript(*op.scalar, node.get()));
    }
    RegisterId out = Bind(op.attr);
    node->writes.push_back(out);
    child.written.insert(out);
    return Pipe(std::move(node), std::move(child));
  }

  Lowered LowerLimit(const Operator& op, Lowered child) {
    PhysNodePtr node = MakeNode(PhysNodeKind::kPipeline, op.kind, "Limit");
    // Early exit closes the child inside Next; Close re-checks the open
    // flag, so the child ends closed on every path.
    Effects(node.get(), {ChildClose::kOnClose});
    node->limit = op.limit;
    node->stats_label =
        "Limit[" + std::to_string(op.limit) + "]" + PropTag(op);
    return Pipe(std::move(node), std::move(child));
  }

  PlanTemplate& tmpl_;
  analysis::PhysicalModel& model_;
  const storage::NodeStore* store_;
  /// Inferred stream properties per logical operator.
  const analysis::PropertyMap& props_;
  std::unordered_map<std::string, RegisterId> attribute_map_;
  RegisterId next_register_ = 0;
  size_t nested_count_ = 0;
};

}  // namespace internal

StatusOr<std::unique_ptr<PlanTemplate>> Codegen::Prepare(
    translate::TranslationResult translation,
    const storage::NodeStore* store, bool verify) {
  obs::ScopedSpan span("compile/codegen");
  std::unique_ptr<PlanTemplate> tmpl(new PlanTemplate());
  tmpl->store_ = store;
  // The plan's verification, its oracle wrappers and every execution's
  // resource ledger follow the verdict.
  tmpl->verified_ = verify;

  // Static property inference over the logical plan (ordering,
  // duplicate-freedom, cardinality, node classes). The annotations drive
  // the EXPLAIN property tags, the result-order guarantee, and — under
  // verification — the runtime property-oracle wrappers recorded in the
  // lowered plan. They key on the operators, which stay put when the
  // template takes the translation over below.
  const analysis::PropertyMap props =
      analysis::AnnotatePlan(*translation.plan);
  tmpl->logical_plan_ = translation.plan->ToString();
  tmpl->properties_plan_ =
      analysis::RenderAnnotatedPlan(*translation.plan, props);
  std::string plan_json = analysis::PlanToJson(*translation.plan, props);
  while (!plan_json.empty() && plan_json.back() == '\n') plan_json.pop_back();
  tmpl->properties_json_ = "{\"plan\":" + plan_json + "}\n";

  tmpl->translation_ = std::move(translation);
  internal::CodegenImpl impl(tmpl.get(), props);
  NATIX_RETURN_IF_ERROR(impl.Run());
  return tmpl;
}

}  // namespace natix::qe
