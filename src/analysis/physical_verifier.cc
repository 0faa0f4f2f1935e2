// Layers 2 and 4 of the static plan verifier, in one walk over the
// lowered plan (model in physical_model.h, effect declarations recorded by
// the code generator). Each node is visited once; the walk carries the
// Layer-2 register definitions and the Layer-4 close guarantee together.
//
// Layer 2 proves register dataflow under the open/next protocol. Layer 4
// proves three resource properties on every control path — including
// early Close injected by the Limit operator and the deadline/cancel abort
// paths of the drain loop, both of which reduce to "the root is Closed
// early":
//
//   1. Close-reachability: every node whose subtree holds resources is
//      guaranteed to end closed whenever the plan root is Closed.
//   2. Page-pin balance: storage cursors (which hold page pins between
//      Next calls) are released by Close.
//   3. Spool lifetime containment: group/full spools die with Close;
//      only keyed memo state (MemoX, chi^mat, id-deref indexes) may
//      persist, bounded by the execution context.
//
// The runtime cross-check of Layer 4 lives in the execution context's
// resource ledger (src/qe/exec_context.h), armed together with the
// property oracle for every execution of a verified plan.

#include <string>
#include <vector>

#include "algebra/properties.h"
#include "analysis/plan_verifier.h"

namespace natix::analysis {

namespace {

using runtime::RegisterId;

/// Definite register definitions as a dense bitset over the plan
/// register file.
class DefSet {
 public:
  explicit DefSet(size_t size) : bits_(size, false) {}

  bool Has(RegisterId reg) const { return bits_[reg]; }
  void Add(RegisterId reg) { bits_[reg] = true; }

  void IntersectWith(const DefSet& other) {
    for (size_t i = 0; i < bits_.size(); ++i) {
      bits_[i] = bits_[i] && other.bits_[i];
    }
  }

 private:
  std::vector<bool> bits_;
};

Status Malformed(const PhysNode& node, const std::string& detail) {
  return Status::Internal("plan verifier (physical): " + node.label + ": " +
                          detail);
}

Status Violation(const PhysNode& node, const std::string& detail) {
  return Status::Internal("plan verifier (resources): " + node.label + ": " +
                          detail);
}

/// Whether the subtree rooted at `node` holds any resource that an
/// unreached Close would leak (cursor pins or a non-memo spool). Memo
/// spools are excluded: they survive Close by design and are reclaimed
/// with the execution context.
bool SubtreeHoldsResources(const PhysNode& node) {
  if (node.effects.holds_cursor) return true;
  if (node.effects.spool == SpoolKind::kGroup ||
      node.effects.spool == SpoolKind::kFull) {
    return true;
  }
  for (const auto& child : node.children) {
    if (SubtreeHoldsResources(*child)) return true;
  }
  for (const NestedSite& site : node.nested) {
    if (SubtreeHoldsResources(*site.plan)) return true;
  }
  return false;
}

class LoweredVerifier {
 public:
  explicit LoweredVerifier(const PhysicalModel& model) : model_(model) {}

  Status Run() {
    if (model_.root == nullptr) {
      return Status::Internal("plan verifier (physical): model has no root");
    }
    DefSet defs(model_.register_count);
    for (RegisterId reg : model_.context_regs) {
      NATIX_RETURN_IF_ERROR(CheckBounds(*model_.root, reg, "context"));
      defs.Add(reg);
    }
    // The drain loop Closes the root on every path (success, limit
    // early-exit, cancellation, error) — the root is close-reachable by
    // construction.
    NATIX_RETURN_IF_ERROR(
        Visit(*model_.root, /*close_guaranteed=*/true, &defs));
    if (model_.result_reg >= model_.register_count ||
        !defs.Has(model_.result_reg)) {
      return Status::Internal(
          "plan verifier (physical): result register r" +
          std::to_string(model_.result_reg) +
          " is not defined at the plan root");
    }
    return Status::OK();
  }

 private:
  Status CheckBounds(const PhysNode& node, RegisterId reg,
                     const char* role) {
    if (reg >= model_.register_count) {
      return Malformed(node, std::string(role) + " register r" +
                                 std::to_string(reg) +
                                 " is out of bounds (register file holds " +
                                 std::to_string(model_.register_count) +
                                 ")");
    }
    return Status::OK();
  }

  /// Layer 2: the child count each kind's open/next protocol expects.
  static Status CheckShape(const PhysNode& node) {
    const size_t n = node.children.size();
    switch (node.kind) {
      case PhysNodeKind::kLeaf:
        if (n != 0) return Malformed(node, "leaf node has children");
        break;
      case PhysNodeKind::kPipeline:
      case PhysNodeKind::kBarrier:
        if (n != 1) return Malformed(node, "expects exactly one child");
        break;
      case PhysNodeKind::kDependent:
      case PhysNodeKind::kDependentLeft:
        if (n != 2) return Malformed(node, "expects exactly two children");
        break;
      case PhysNodeKind::kConcat:
        if (n == 0) return Malformed(node, "expects at least one child");
        break;
    }
    return Status::OK();
  }

  /// Layer 4: the node's own obligations, and that a Close reaches it
  /// if its subtree holds resources. The local obligations apply even
  /// to nodes that are not close-guaranteed: a probe-contained subtree
  /// still goes through its own Close, which must balance.
  static Status CheckEffects(const PhysNode& node, bool close_guaranteed) {
    const ResourceEffects& fx = node.effects;
    if (fx.child_close.size() != node.children.size()) {
      return Violation(node,
                       "declares " + std::to_string(fx.child_close.size()) +
                           " child-close modes for " +
                           std::to_string(node.children.size()) + " children");
    }
    if (fx.holds_cursor && !fx.cursor_released_on_close) {
      return Violation(node,
                       "holds a storage cursor but does not release it on "
                       "Close — page pins survive early exit "
                       "(pin-balance violation)");
    }
    if ((fx.spool == SpoolKind::kGroup || fx.spool == SpoolKind::kFull) &&
        !fx.spool_released_on_close) {
      return Violation(node,
                       std::string("keeps a ") + SpoolKindName(fx.spool) +
                           " spool that Close does not drop "
                           "(spool-containment violation)");
    }
    if (fx.spool == SpoolKind::kNone && fx.spool_released_on_close) {
      return Violation(node, "declares a spool release but no spool");
    }
    // A resource-holding subtree behind a kNone edge is never Closed when
    // the plan aborts between Next calls.
    if (!close_guaranteed && SubtreeHoldsResources(node)) {
      return Violation(node,
                       "subtree holds resources but no Close reaches it on "
                       "the abort path (close-on-all-paths violation)");
    }
    return Status::OK();
  }

  /// Visits `node` and its subtree once for both layers. On entry `defs`
  /// holds the registers definitely written when the node is opened; on
  /// return, those definitely written whenever it has produced a tuple.
  /// `close_guaranteed`: the node ends closed whenever the root is Closed.
  Status Visit(const PhysNode& node, bool close_guaranteed, DefSet* defs) {
    NATIX_RETURN_IF_ERROR(CheckShape(node));
    NATIX_RETURN_IF_ERROR(CheckEffects(node, close_guaranteed));

    // Children in evaluation order under the open/next protocol. A
    // kOnClose child inherits this node's guarantee (or, where CheckEffects
    // just proved the subtree resource-free, needs none); a
    // probe-contained child is balanced inside each Next call, so an
    // external Close never finds it open; a kNone child inherits nothing.
    auto visit_child = [&](size_t i, DefSet* child_defs) {
      return Visit(*node.children[i],
                   node.effects.child_close[i] != ChildClose::kNone,
                   child_defs);
    };
    const DefSet defs_in = *defs;
    DefSet left(0);
    switch (node.kind) {
      case PhysNodeKind::kLeaf:
        break;
      case PhysNodeKind::kPipeline:
      case PhysNodeKind::kBarrier:
        NATIX_RETURN_IF_ERROR(visit_child(0, defs));
        break;
      case PhysNodeKind::kDependent:
      case PhysNodeKind::kDependentLeft:
        // The dependent right side opens after the left produced a
        // tuple, so it sees the left side's definitions.
        NATIX_RETURN_IF_ERROR(visit_child(0, defs));
        left = *defs;
        NATIX_RETURN_IF_ERROR(visit_child(1, defs));
        break;
      case PhysNodeKind::kConcat:
        for (size_t i = 0; i < node.children.size(); ++i) {
          DefSet branch = defs_in;
          NATIX_RETURN_IF_ERROR(visit_child(i, &branch));
          if (i == 0) {
            *defs = branch;
          } else {
            defs->IntersectWith(branch);
          }
        }
        break;
    }

    // Reads resolve against the definitions available once the last
    // child has produced a tuple.
    for (RegisterId reg : node.reads) {
      NATIX_RETURN_IF_ERROR(CheckBounds(node, reg, "read"));
      if (!defs->Has(reg)) {
        return Malformed(node, "reads register r" + std::to_string(reg) +
                                   " before any write dominates it");
      }
    }
    // Row snapshot lists only need to be in-bounds: a register in the
    // list may legitimately never be written on some paths (e.g. the
    // probe side of an anti-join that produced no tuple), and snapshot
    // and restore are symmetric, so an unwritten register round-trips
    // its initial null.
    for (RegisterId reg : node.row_regs) {
      NATIX_RETURN_IF_ERROR(CheckBounds(node, reg, "row"));
    }

    // Nested subscript plans run per tuple at this site and see the same
    // definitions the subscript sees. They are opened, drained and closed
    // inside one subscript evaluation on every path (subscripts.cc), i.e.
    // probe-contained by construction.
    for (const NestedSite& site : node.nested) {
      DefSet nested_defs = *defs;
      NATIX_RETURN_IF_ERROR(
          Visit(*site.plan, /*close_guaranteed=*/true, &nested_defs));
      NATIX_RETURN_IF_ERROR(CheckBounds(node, site.input, "nested input"));
      if (!nested_defs.Has(site.input)) {
        return Malformed(node,
                         "nested aggregate reads register r" +
                             std::to_string(site.input) +
                             " that its plan never writes");
      }
    }

    // Output definitions.
    switch (node.kind) {
      case PhysNodeKind::kDependentLeft:
        // Only the left tuple survives.
        *defs = std::move(left);
        break;
      case PhysNodeKind::kBarrier:
        *defs = defs_in;
        break;
      default:
        break;
    }
    for (RegisterId reg : node.writes) {
      NATIX_RETURN_IF_ERROR(CheckBounds(node, reg, "write"));
      defs->Add(reg);
    }
    return Status::OK();
  }

  const PhysicalModel& model_;
};

}  // namespace

const char* PhysNodeKindName(PhysNodeKind kind) {
  switch (kind) {
    case PhysNodeKind::kLeaf:
      return "leaf";
    case PhysNodeKind::kPipeline:
      return "pipeline";
    case PhysNodeKind::kDependent:
      return "dependent";
    case PhysNodeKind::kDependentLeft:
      return "dependent-left";
    case PhysNodeKind::kBarrier:
      return "barrier";
    case PhysNodeKind::kConcat:
      return "concat";
  }
  return "?";
}

const char* SpoolKindName(SpoolKind kind) {
  switch (kind) {
    case SpoolKind::kNone:
      return "none";
    case SpoolKind::kGroup:
      return "group";
    case SpoolKind::kFull:
      return "full";
    case SpoolKind::kMemo:
      return "memo";
  }
  return "?";
}

const char* ChildCloseName(ChildClose mode) {
  switch (mode) {
    case ChildClose::kNone:
      return "none";
    case ChildClose::kOnClose:
      return "on-close";
    case ChildClose::kProbeContained:
      return "probe-contained";
  }
  return "?";
}

Status VerifyLowered(const PhysicalModel& model) {
  return LoweredVerifier(model).Run();
}

StatusOr<std::string> VerifyPrepared(
    const translate::TranslationResult& translation,
    const PhysicalModel& lowered, size_t annotated_operators) {
  NATIX_RETURN_IF_ERROR(VerifyLowered(lowered));
  return "VERIFIED (logical: " +
         std::to_string(algebra::PlanSize(*translation.plan)) +
         " operators; physical: " + std::to_string(lowered.register_count) +
         " registers; nvm: " + std::to_string(lowered.programs.size()) +
         " subscript programs; properties: " +
         std::to_string(annotated_operators) + " operators annotated, " +
         std::to_string(translation.rewrites.size()) +
         " property-justified rewrites; resources: pin-balanced, "
         "close-on-all-paths)";
}

}  // namespace natix::analysis
