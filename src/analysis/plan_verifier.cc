#include "analysis/plan_verifier.h"

#include <atomic>
#include <cstdlib>
#include <string_view>

#include "algebra/properties.h"
#include "obs/trace.h"

namespace natix::analysis {

namespace {

using algebra::Operator;
using algebra::OpKind;
using algebra::OpKindName;
using algebra::Scalar;
using algebra::ScalarKind;

/// Release builds verify only on request; debug builds always verify.
#ifdef NDEBUG
constexpr bool kVerifyByDefault = false;
#else
constexpr bool kVerifyByDefault = true;
#endif

/// The NATIX_VERIFY_PLANS environment variable overrides the build-type
/// default ("0"/"" keep it off, anything else forces verification — and
/// with it the runtime property oracle — on, e.g. for the verify-oracle
/// CI job running release binaries under sanitizers).
bool VerifyInitiallyEnabled() {
  const char* env = std::getenv("NATIX_VERIFY_PLANS");
  if (env == nullptr) return kVerifyByDefault;
  return env[0] != '\0' && std::string_view(env) != "0";
}

std::atomic<bool> g_verification_enabled{VerifyInitiallyEnabled()};

Status Malformed(const Operator& op, const std::string& detail) {
  return Status::Internal(std::string("plan verifier (logical): ") +
                          OpKindName(op.kind) + ": " + detail);
}

/// Expected child count per operator; -1 = one or more (concat).
int ExpectedArity(OpKind kind) {
  switch (kind) {
    case OpKind::kSingletonScan:
      return 0;
    case OpKind::kDJoin:
    case OpKind::kCross:
    case OpKind::kSemiJoin:
    case OpKind::kAntiJoin:
    case OpKind::kBinaryGroup:
      return 2;
    case OpKind::kConcat:
      return -1;
    default:
      return 1;
  }
}

bool WritesAttr(OpKind kind) {
  switch (kind) {
    case OpKind::kMap:
    case OpKind::kCounter:
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
    case OpKind::kAggregate:
    case OpKind::kBinaryGroup:
    case OpKind::kTmpCs:
    case OpKind::kIdDeref:
      return true;
    default:
      return false;
  }
}

class LogicalVerifier {
 public:
  Status Verify(const Operator& root, const std::set<std::string>& outer,
                std::set<std::string>* defs_out) {
    return VerifyOp(root, outer, defs_out);
  }

 private:
  Status RequireBound(const Operator& op, const std::string& attr,
                      const std::set<std::string>& avail,
                      const char* role) {
    if (attr.empty()) {
      return Malformed(op, std::string("missing ") + role + " attribute");
    }
    if (avail.count(attr) == 0) {
      return Malformed(op, std::string("reads unbound ") + role +
                               " attribute '" + attr + "'");
    }
    return Status::OK();
  }

  /// Verifies a scalar subscript against the attributes available at its
  /// site: attribute references must be bound, and nested plans are
  /// verified as dependent branches whose outer binding set is `avail`.
  Status VerifyScalar(const Operator& host, const Scalar& scalar,
                      const std::set<std::string>& avail) {
    if (scalar.kind == ScalarKind::kAttrRef) {
      if (avail.count(scalar.name) == 0) {
        return Malformed(host, "subscript reads unbound attribute '" +
                                   scalar.name + "'");
      }
    }
    if (scalar.kind == ScalarKind::kNested) {
      if (scalar.plan == nullptr) {
        return Malformed(host, "nested subscript without a plan");
      }
      std::set<std::string> nested_defs;
      NATIX_RETURN_IF_ERROR(VerifyOp(*scalar.plan, avail, &nested_defs));
      if (!scalar.input_attr.empty() &&
          nested_defs.count(scalar.input_attr) == 0) {
        return Malformed(host,
                         "nested aggregate reads unbound attribute '" +
                             scalar.input_attr + "'");
      }
    }
    for (const algebra::ScalarPtr& child : scalar.children) {
      NATIX_RETURN_IF_ERROR(VerifyScalar(host, *child, avail));
    }
    return Status::OK();
  }

  /// Whether runs of equal `attr` values survive from the operator that
  /// establishes them up to the consumer sitting on top of `op`. Grouping
  /// is established by the attribute's binder (pipeline expansion keeps
  /// each input tuple's fan-out consecutive), by a duplicate elimination
  /// or document-order sort on the attribute itself (equal values become
  /// adjacent or unique), or by the attribute being free (one fixed value
  /// per evaluation of a dependent branch). Sorts on other attributes and
  /// concatenations destroy the guarantee.
  Status CheckGrouping(const Operator& consumer, const Operator& op,
                       const std::string& attr) {
    if (WritesAttr(op.kind) && op.attr == attr) return Status::OK();
    if ((op.kind == OpKind::kDupElim || op.kind == OpKind::kSort) &&
        op.attr == attr) {
      return Status::OK();
    }
    switch (op.kind) {
      case OpKind::kSingletonScan:
        // `attr` is free here: constant per evaluation.
        return Status::OK();
      case OpKind::kConcat:
        return Malformed(consumer,
                         "grouping on '" + attr +
                             "' is not established: input concatenates "
                             "several branches");
      case OpKind::kSort:
        return Malformed(consumer,
                         "grouping on '" + attr +
                             "' is not established: input is re-sorted on '" +
                             op.attr + "'");
      case OpKind::kDJoin:
      case OpKind::kCross:
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
      case OpKind::kBinaryGroup: {
        // Left attributes repeat consecutively per left tuple; dependent
        // right-side values may recur across left tuples.
        if (algebra::WrittenAttributes(*op.children[1]).count(attr) > 0) {
          return Malformed(consumer,
                           "grouping on '" + attr +
                               "' is not established: bound by a dependent "
                               "join branch");
        }
        return CheckGrouping(consumer, *op.children[0], attr);
      }
      case OpKind::kAggregate:
        // Singleton output: trivially grouped.
        return Status::OK();
      default:
        return CheckGrouping(consumer, *op.children[0], attr);
    }
  }

  Status VerifyOp(const Operator& op, const std::set<std::string>& outer,
                  std::set<std::string>* defs_out) {
    // Arity.
    int expected = ExpectedArity(op.kind);
    if (expected >= 0 &&
        op.children.size() != static_cast<size_t>(expected)) {
      return Malformed(op, "expects " + std::to_string(expected) +
                               " child(ren), has " +
                               std::to_string(op.children.size()));
    }
    if (expected < 0 && op.children.empty()) {
      return Malformed(op, "expects at least one child");
    }

    // Required subscripts.
    bool needs_scalar = op.kind == OpKind::kSelect ||
                        op.kind == OpKind::kMap ||
                        op.kind == OpKind::kSemiJoin ||
                        op.kind == OpKind::kAntiJoin;
    if (needs_scalar && op.scalar == nullptr) {
      return Malformed(op, "missing scalar subscript");
    }

    // Children, honoring dependent evaluation: the right branch of the
    // join family sees the left branch's bindings as its outer set.
    std::vector<std::set<std::string>> child_defs(op.children.size());
    bool dependent = op.kind == OpKind::kDJoin || op.kind == OpKind::kCross ||
                     op.kind == OpKind::kSemiJoin ||
                     op.kind == OpKind::kAntiJoin ||
                     op.kind == OpKind::kBinaryGroup;
    for (size_t i = 0; i < op.children.size(); ++i) {
      const std::set<std::string>& child_outer =
          (dependent && i == 1) ? child_defs[0] : outer;
      NATIX_RETURN_IF_ERROR(
          VerifyOp(*op.children[i], child_outer, &child_defs[i]));
    }

    // The attribute set reads of this operator are resolved against.
    std::set<std::string> avail;
    switch (op.kind) {
      case OpKind::kSingletonScan:
        avail = outer;
        break;
      case OpKind::kConcat: {
        // Downstream may rely only on what every branch binds.
        avail = child_defs[0];
        for (size_t i = 1; i < child_defs.size(); ++i) {
          std::set<std::string> meet;
          for (const std::string& a : avail) {
            if (child_defs[i].count(a) > 0) meet.insert(a);
          }
          avail = std::move(meet);
        }
        break;
      }
      case OpKind::kDJoin:
      case OpKind::kCross:
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
      case OpKind::kBinaryGroup:
        avail = child_defs[1];  // includes child_defs[0] transitively
        break;
      default:
        avail = child_defs[0];
        break;
    }

    // Per-operator read obligations.
    switch (op.kind) {
      case OpKind::kUnnestMap:
        // The cursor walks backwards only along children.
        if (op.reverse && op.axis != runtime::Axis::kChild) {
          return Malformed(op, "reverse enumeration of a non-child axis");
        }
        NATIX_RETURN_IF_ERROR(RequireBound(op, op.ctx_attr, avail, "context"));
        break;
      case OpKind::kUnnest:
        NATIX_RETURN_IF_ERROR(RequireBound(op, op.ctx_attr, avail, "context"));
        break;
      case OpKind::kAggregate:
        NATIX_RETURN_IF_ERROR(RequireBound(op, op.ctx_attr, avail, "input"));
        break;
      case OpKind::kIdDeref:
        NATIX_RETURN_IF_ERROR(RequireBound(op, op.ctx_attr, avail, "context"));
        break;
      case OpKind::kCounter:
      case OpKind::kTmpCs:
        if (!op.ctx_attr.empty()) {
          NATIX_RETURN_IF_ERROR(
              RequireBound(op, op.ctx_attr, avail, "context"));
          NATIX_RETURN_IF_ERROR(
              CheckGrouping(op, *op.children[0], op.ctx_attr));
        }
        break;
      case OpKind::kDupElim:
      case OpKind::kSort:
        NATIX_RETURN_IF_ERROR(RequireBound(op, op.attr, avail, "operand"));
        break;
      case OpKind::kBinaryGroup:
        NATIX_RETURN_IF_ERROR(
            RequireBound(op, op.left_attr, child_defs[0], "left join"));
        NATIX_RETURN_IF_ERROR(
            RequireBound(op, op.right_attr, child_defs[1], "right join"));
        NATIX_RETURN_IF_ERROR(
            RequireBound(op, op.ctx_attr, child_defs[1], "aggregate input"));
        break;
      case OpKind::kProject: {
        std::set<std::string> seen;
        for (const std::string& attr : op.attrs) {
          NATIX_RETURN_IF_ERROR(RequireBound(op, attr, avail, "projection"));
          if (!seen.insert(attr).second) {
            return Malformed(op, "projection list repeats attribute '" +
                                     attr + "'");
          }
        }
        break;
      }
      case OpKind::kMemoX:
        if (op.key_attrs.empty()) {
          return Malformed(op, "memoization requires at least one key");
        }
        for (const std::string& key : op.key_attrs) {
          NATIX_RETURN_IF_ERROR(RequireBound(op, key, avail, "memo key"));
        }
        break;
      case OpKind::kLimit:
        // A limit of 0 is a statically-empty plan, which rewrites spell
        // differently; a Limit node always carries a positive bound.
        if (op.limit == 0) {
          return Malformed(op, "limit bound must be at least 1");
        }
        break;
      default:
        break;
    }

    // Subscript reads.
    if (op.scalar != nullptr) {
      NATIX_RETURN_IF_ERROR(VerifyScalar(op, *op.scalar, avail));
    }

    // Binding: writers must name an output attribute and must not shadow
    // a live binding (the attribute manager would silently alias two
    // distinct values onto one register).
    if (WritesAttr(op.kind)) {
      if (op.attr.empty()) {
        return Malformed(op, "missing output attribute");
      }
      const std::set<std::string>& live =
          op.kind == OpKind::kAggregate ? outer : avail;
      if (live.count(op.attr) > 0) {
        return Malformed(op, "rebinds live attribute '" + op.attr + "'");
      }
    }

    // Output definitions.
    switch (op.kind) {
      case OpKind::kSingletonScan:
        *defs_out = outer;
        break;
      case OpKind::kSemiJoin:
      case OpKind::kAntiJoin:
        // Only the left tuple survives.
        *defs_out = std::move(child_defs[0]);
        break;
      case OpKind::kBinaryGroup:
        *defs_out = std::move(child_defs[0]);
        defs_out->insert(op.attr);
        break;
      case OpKind::kAggregate:
        // Singleton output tuple: input attributes are consumed.
        *defs_out = outer;
        defs_out->insert(op.attr);
        break;
      case OpKind::kProject:
        *defs_out = outer;
        for (const std::string& attr : op.attrs) defs_out->insert(attr);
        break;
      default:
        *defs_out = std::move(avail);
        if (WritesAttr(op.kind)) defs_out->insert(op.attr);
        break;
    }
    return Status::OK();
  }
};

}  // namespace

bool VerificationEnabled() {
  return g_verification_enabled.load(std::memory_order_relaxed);
}

void SetVerificationEnabled(bool enabled) {
  g_verification_enabled.store(enabled, std::memory_order_relaxed);
}

std::set<std::string> ExecutionContextAttributes() {
  return {translate::kContextNodeAttr, translate::kContextPositionAttr,
          translate::kContextSizeAttr};
}

Status VerifyLogicalPlan(const algebra::Operator& root,
                         const std::set<std::string>& outer) {
  std::set<std::string> defs;
  return LogicalVerifier().Verify(root, outer, &defs);
}

Status VerifyTranslation(const translate::TranslationResult& translation) {
  obs::ScopedSpan span("compile/verify", "logical");
  if (translation.plan == nullptr) {
    return Status::Internal("plan verifier (logical): translation has no plan");
  }
  std::set<std::string> defs;
  NATIX_RETURN_IF_ERROR(LogicalVerifier().Verify(
      *translation.plan, ExecutionContextAttributes(), &defs));
  if (defs.count(translation.result_attr) == 0) {
    return Status::Internal(
        "plan verifier (logical): result attribute '" +
        translation.result_attr + "' is not bound by the plan");
  }
  return Status::OK();
}

}  // namespace natix::analysis
