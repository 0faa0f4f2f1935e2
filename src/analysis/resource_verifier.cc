// Layer 4 of the static plan verifier: resource-effect abstract
// interpretation over the compiled iterator tree (model in
// physical_model.h, effect declarations recorded by the code generator).
//
// The analysis proves three properties for every plan, on every control
// path — including early Close injected by the Limit operator and the
// deadline/cancel abort paths of the drain loop, both of which reduce to
// "the root is Closed early":
//
//   1. Close-reachability: every node whose subtree holds resources is
//      guaranteed to end closed whenever the plan root is Closed.
//   2. Page-pin balance: storage cursors (which hold page pins between
//      Next calls) are released by Close.
//   3. Spool lifetime containment: group/full spools die with Close;
//      only keyed memo state (MemoX, chi^mat, id-deref indexes) may
//      persist, bounded by the execution context.
//
// The runtime cross-check lives in the execution context's resource
// ledger (src/qe/exec_context.h), armed together with the property
// oracle whenever verification is enabled.

#include <string>

#include "analysis/plan_verifier.h"
#include "obs/trace.h"

namespace natix::analysis {

namespace {

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

class ResourceVerifier {
 public:
  explicit ResourceVerifier(const PhysicalModel& model) : model_(model) {}

  Status Run() {
    if (model_.root == nullptr) {
      return Status::Internal("plan verifier (resources): model has no root");
    }
    // The drain loop Closes the root on every path (success, limit
    // early-exit, cancellation, error) — the root is close-reachable by
    // construction.
    return Visit(*model_.root, /*close_guaranteed=*/true);
  }

 private:
  Status Visit(const PhysNode& node, bool close_guaranteed) {
    const ResourceEffects& fx = node.effects;

    if (fx.child_close.size() != node.children.size()) {
      return Violation(node,
                       "declares " + std::to_string(fx.child_close.size()) +
                           " child-close modes for " +
                           std::to_string(node.children.size()) + " children");
    }

    // Local obligations. They apply even to nodes that are not
    // close-guaranteed: a probe-contained subtree still goes through its
    // own Close, which must balance.
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

    // Close-reachability: a resource-holding subtree behind a kNone edge
    // is never Closed when the plan aborts between Next calls.
    if (!close_guaranteed && SubtreeHoldsResources(node)) {
      return Violation(node,
                       "subtree holds resources but no Close reaches it on "
                       "the abort path (close-on-all-paths violation)");
    }

    for (size_t i = 0; i < node.children.size(); ++i) {
      const ChildClose mode = fx.child_close[i];
      // A probe-contained child is balanced inside each Next call, so it
      // is never open when an external Close arrives; it counts as
      // close-guaranteed regardless of this node's own reachability. A
      // kOnClose child inherits this node's guarantee; a kNone child
      // inherits nothing.
      bool child_guaranteed;
      switch (mode) {
        case ChildClose::kOnClose:
          child_guaranteed = close_guaranteed;
          break;
        case ChildClose::kProbeContained:
          child_guaranteed = true;
          break;
        case ChildClose::kNone:
        default:
          child_guaranteed = false;
          break;
      }
      NATIX_RETURN_IF_ERROR(Visit(*node.children[i], child_guaranteed));
    }

    // Nested subscript plans are opened, drained, and closed inside one
    // subscript evaluation on every path (subscripts.cc), i.e.
    // probe-contained by construction.
    for (const NestedSite& site : node.nested) {
      NATIX_RETURN_IF_ERROR(Visit(*site.plan, /*close_guaranteed=*/true));
    }
    return Status::OK();
  }

  const PhysicalModel& model_;
};

}  // namespace

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

Status VerifyResources(const PhysicalModel& model) {
  obs::ScopedSpan span("compile/verify", "resources");
  return ResourceVerifier(model).Run();
}

}  // namespace natix::analysis
