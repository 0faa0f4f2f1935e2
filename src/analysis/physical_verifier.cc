#include <vector>

#include "analysis/plan_verifier.h"
#include "obs/trace.h"

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

class PhysicalVerifier {
 public:
  explicit PhysicalVerifier(const PhysicalModel& model) : model_(model) {}

  Status Run() {
    if (model_.root == nullptr) {
      return Status::Internal("plan verifier (physical): model has no root");
    }
    DefSet defs(model_.register_count);
    for (RegisterId reg : model_.context_regs) {
      NATIX_RETURN_IF_ERROR(CheckBounds(*model_.root, reg, "context"));
      defs.Add(reg);
    }
    NATIX_RETURN_IF_ERROR(Visit(*model_.root, &defs));
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

  /// Walks the iterator model; on return `defs` holds the registers
  /// definitely written whenever this node has produced a tuple.
  Status Visit(const PhysNode& node, DefSet* defs) {
    const DefSet defs_in = *defs;

    // Child evaluation order under the open/next protocol.
    switch (node.kind) {
      case PhysNodeKind::kLeaf:
        if (!node.children.empty()) {
          return Malformed(node, "leaf node has children");
        }
        break;
      case PhysNodeKind::kPipeline:
      case PhysNodeKind::kBarrier:
        if (node.children.size() != 1) {
          return Malformed(node, "expects exactly one child");
        }
        NATIX_RETURN_IF_ERROR(Visit(*node.children[0], defs));
        break;
      case PhysNodeKind::kDependent:
      case PhysNodeKind::kDependentLeft: {
        if (node.children.size() != 2) {
          return Malformed(node, "expects exactly two children");
        }
        // The dependent right side opens after the left produced a
        // tuple, so it sees the left side's definitions.
        NATIX_RETURN_IF_ERROR(Visit(*node.children[0], defs));
        NATIX_RETURN_IF_ERROR(Visit(*node.children[1], defs));
        break;
      }
      case PhysNodeKind::kConcat: {
        if (node.children.empty()) {
          return Malformed(node, "expects at least one child");
        }
        DefSet meet(model_.register_count);
        for (size_t i = 0; i < node.children.size(); ++i) {
          DefSet branch = defs_in;
          NATIX_RETURN_IF_ERROR(Visit(*node.children[i], &branch));
          if (i == 0) {
            meet = branch;
          } else {
            meet.IntersectWith(branch);
          }
        }
        *defs = meet;
        break;
      }
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
    // definitions the subscript sees.
    for (const NestedSite& site : node.nested) {
      DefSet nested_defs = *defs;
      NATIX_RETURN_IF_ERROR(Visit(*site.plan, &nested_defs));
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
      case PhysNodeKind::kDependentLeft: {
        // Only the left tuple survives: recompute from the left branch.
        DefSet left = defs_in;
        NATIX_RETURN_IF_ERROR(VisitDefsOnly(*node.children[0], &left));
        *defs = left;
        break;
      }
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

  /// Definition-propagation-only re-walk (no re-checking) used to
  /// recover the left branch's definition set.
  Status VisitDefsOnly(const PhysNode& node, DefSet* defs) {
    return Visit(node, defs);
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

Status VerifyPhysical(const PhysicalModel& model) {
  obs::ScopedSpan span("compile/verify", "physical");
  NATIX_RETURN_IF_ERROR(PhysicalVerifier(model).Run());
  // Layer 3 sweep over every subscript program the plan embeds.
  for (const auto& [site, program] : model.programs) {
    Status st = VerifyProgram(program, model.register_count,
                              model.nested_count);
    if (!st.ok()) {
      return Status::Internal(st.message() + " (subscript of " + site + ")");
    }
  }
  return Status::OK();
}

}  // namespace natix::analysis
