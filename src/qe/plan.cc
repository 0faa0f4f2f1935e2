#include "qe/plan.h"

#include <algorithm>
#include <optional>

#include "base/logging.h"
#include "obs/trace.h"
#include "qe/operators.h"
#include "qe/property_oracle.h"

namespace natix::qe {

namespace internal {

using algebra::OpKind;
using analysis::PhysNode;

/// Declared a friend of ExecutionContext. Builds one context from a
/// template's lowered plan (Codegen::Prepare): one iterator per node,
/// subscripts borrowing the template's programs, nested plans filled into
/// their slots and, with stats, one stats entry per node. Nothing here
/// resolves a name, compiles code or builds a plan node.
class Instantiator {
 public:
  Instantiator(const PlanTemplate& tmpl, ExecutionContext* ctx)
      : tmpl_(tmpl), model_(tmpl.lowered_plan()), ctx_(ctx) {}

  void Run(bool collect_stats) {
    ctx_->nodes_ = storage::NodeAccessor(tmpl_.store());
    ctx_->eval_ctx.store = tmpl_.store();
    ctx_->eval_ctx.nodes = &ctx_->nodes_;
    // The runtime half of Layer 4: the resource ledger cross-checks the
    // static pin-balance / spool-containment proof on every execution of
    // a verified plan, abort paths included.
    if (tmpl_.verified()) ctx_->ArmResourceLedger();
    if (collect_stats) {
      ctx_->stats_ = std::make_unique<obs::QueryStats>();
      qstats_ = ctx_->stats_.get();
    }
    ctx_->cn_reg_ = model_.context_regs[0];
    ctx_->cp0_reg_ = model_.context_regs[1];
    ctx_->cs0_reg_ = model_.context_regs[2];
    ctx_->result_reg_ = model_.result_reg;
    ctx_->result_type_ = tmpl_.result_type();
    ctx_->registers.Resize(model_.register_count);
    ctx_->nested_.resize(model_.nested_count);
    Built root = Build(*model_.root);
    if (qstats_ != nullptr) qstats_->set_root(root.stats);
    ctx_->root_ = std::move(root.iter);
  }

 private:
  struct Built {
    IteratorPtr iter;
    obs::OpStats* stats = nullptr;
  };

  /// Allocates a stats entry; null when stats collection is off.
  obs::OpStats* NewStats(std::string label) {
    if (qstats_ == nullptr) return nullptr;
    obs::OpStats* stats = qstats_->NewOp(std::move(label));
    stats->buffer = tmpl_.store()->buffer_manager();
    return stats;
  }

  /// Builds the iterator of `node`. Stats entries are allocated children
  /// first, then the node's own, then its nested plans; the node's stats
  /// children are its inputs' entries followed by one NestedAgg entry per
  /// nested plan.
  Built Build(const PhysNode& node) {
    std::vector<IteratorPtr> in;
    in.reserve(node.children.size());
    std::vector<obs::OpStats*> child_stats;
    for (const analysis::PhysNodePtr& child : node.children) {
      Built built = Build(*child);
      in.push_back(std::move(built.iter));
      if (built.stats != nullptr) child_stats.push_back(built.stats);
    }
    obs::OpStats* stats = NewStats(node.stats_label);
    if (stats != nullptr) stats->children = std::move(child_stats);
    for (const analysis::NestedSite& site : node.nested) {
      BuildNested(site, stats);
    }
    IteratorPtr iter = MakeIterator(node, &in, stats);
    if (stats != nullptr) iter->BindStats(stats);
    // Property-oracle wrappers, recorded if the plan was prepared under
    // verification; they carry no stats of their own.
    for (const analysis::OracleSpec& spec : node.oracles) {
      auto oracle = std::make_unique<PropertyOracleIterator>(
          ctx_, std::move(iter), spec.reg, spec.check_order,
          spec.check_duplicate_free, spec.label);
      oracle->set_max_tuples(spec.max_tuples);
      iter = std::move(oracle);
    }
    return {std::move(iter), stats};
  }

  void BuildNested(const analysis::NestedSite& site, obs::OpStats* host) {
    Built plan = Build(*site.plan);
    NestedPlan& entry = ctx_->nested_[site.slot];
    entry.iter = std::move(plan.iter);
    entry.agg = site.agg;
    entry.input_reg = site.input;
    if (host == nullptr) return;
    entry.stats = NewStats(std::string("NestedAgg[") +
                           algebra::AggKindName(site.agg) + "]");
    entry.stats->nested = true;
    if (plan.stats != nullptr) entry.stats->children.push_back(plan.stats);
    host->children.push_back(entry.stats);
  }

  SubscriptPtr MakeSubscript(const PhysNode& node) {
    if (node.program == analysis::kNoProgram) return nullptr;
    return std::make_unique<Subscript>(model_.programs[node.program].second,
                                       ctx_, &ctx_->nested_);
  }

  IteratorPtr MakeIterator(const PhysNode& n, std::vector<IteratorPtr>* in,
                           obs::OpStats* stats) {
    ExecutionContext* s = ctx_;
    auto input = [in](size_t i) { return std::move((*in)[i]); };
    // A Counter's reset and a Tmp^cs context attribute are optional.
    std::optional<runtime::RegisterId> optional_read;
    if (!n.reads.empty()) optional_read = n.reads[0];
    switch (n.op) {
      case OpKind::kSingletonScan:
        return std::make_unique<SingletonScanIterator>();
      case OpKind::kSelect:
        return std::make_unique<SelectIterator>(input(0), MakeSubscript(n));
      case OpKind::kMap:
        return std::make_unique<MapIterator>(s, input(0), MakeSubscript(n),
                                             n.writes[0], n.materialize,
                                             n.key_regs);
      case OpKind::kCounter:
        return std::make_unique<CounterIterator>(s, input(0), n.writes[0],
                                                 optional_read);
      case OpKind::kUnnestMap:
        return std::make_unique<UnnestMapIterator>(
            s, input(0), n.reads[0], n.writes[0], n.axis, n.test, n.reverse,
            n.dedup);
      case OpKind::kDJoin:
      case OpKind::kCross:
        return std::make_unique<DJoinIterator>(input(0), input(1));
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        return std::make_unique<SemiJoinIterator>(
            n.op == OpKind::kSemiJoin ? SemiJoinIterator::Mode::kSemi
                                      : SemiJoinIterator::Mode::kAnti,
            input(0), input(1), MakeSubscript(n));
      case OpKind::kConcat:
        return std::make_unique<ConcatIterator>(std::move(*in));
      case OpKind::kDupElim:
        return std::make_unique<DupElimIterator>(s, input(0), n.reads[0]);
      case OpKind::kSort:
        return std::make_unique<SortIterator>(s, input(0), n.reads[0],
                                              n.row_regs);
      case OpKind::kAggregate: {
        auto agg = std::make_unique<AggregateIterator>(
            s, input(0), n.agg, n.reads[0], n.writes[0]);
        // The embedded nested plan's smart-aggregation counters land on
        // the Aggregate's own node.
        if (stats != nullptr) agg->BindNestedStats(stats);
        return agg;
      }
      case OpKind::kBinaryGroup:
        return std::make_unique<BinaryGroupIterator>(
            s, input(0), input(1), n.agg, n.reads[0], n.reads[1], n.reads[2],
            n.writes[0]);
      case OpKind::kTmpCs:
        return std::make_unique<TmpCsIterator>(s, input(0), n.writes[0],
                                               optional_read, n.row_regs);
      case OpKind::kMemoX:
        return std::make_unique<MemoXIterator>(s, input(0), n.key_regs,
                                               n.row_regs);
      case OpKind::kUnnest:
        return std::make_unique<UnnestIterator>(s, input(0), n.reads[0],
                                                n.writes[0]);
      case OpKind::kIdDeref:
        return std::make_unique<IdDerefIterator>(
            s, input(0), n.reads[0], MakeSubscript(n), n.writes[0]);
      case OpKind::kLimit:
        return std::make_unique<LimitIterator>(input(0), n.limit);
      case OpKind::kProject:
        break;  // lowers to no node
    }
    NATIX_CHECK(false);
    return nullptr;
  }

  const PlanTemplate& tmpl_;
  const analysis::PhysicalModel& model_;
  ExecutionContext* ctx_;
  /// The context's stats collector; null unless instantiated with stats.
  obs::QueryStats* qstats_ = nullptr;
};

}  // namespace internal

std::unique_ptr<ExecutionContext> PlanTemplate::NewContext(
    bool collect_stats) const {
  obs::ScopedSpan span("exec/instantiate");
  auto ctx = std::make_unique<ExecutionContext>();
  internal::Instantiator(*this, ctx.get()).Run(collect_stats);
  return ctx;
}

std::string PlanTemplate::nvm_listing() const {
  std::string out;
  for (const auto& [label, program] : lowered_.programs) {
    out += "== " + label + " ==\n" + program.Disassemble();
  }
  return out;
}

void SortResultNodes(std::vector<runtime::NodeRef>* nodes) {
  std::sort(nodes->begin(), nodes->end(),
            [](const runtime::NodeRef& a, const runtime::NodeRef& b) {
              return a.order < b.order;
            });
}

}  // namespace natix::qe
