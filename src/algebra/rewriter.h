#ifndef NATIX_ALGEBRA_REWRITER_H_
#define NATIX_ALGEBRA_REWRITER_H_

#include <set>
#include <string>
#include <vector>

#include "algebra/operator.h"
#include "base/statusor.h"

namespace natix::algebra {

/// Properties inferred for the tuple sequence an operator produces.
/// Compatibility view over the full property-inference engine
/// (src/analysis/property_inference.h), which additionally tracks
/// grouping, cardinality bounds and static node classes.
struct SequenceProperties {
  /// The sequence provably holds at most one tuple.
  bool singleton = false;
  /// Attributes whose values provably contain no duplicates.
  std::set<std::string> duplicate_free;
  /// Attributes by whose document order the sequence is provably
  /// ascending ("interesting orders", Hidders/Michiels [13]).
  std::set<std::string> ordered_by;
  /// Attributes whose values are provably pairwise non-nested (no value
  /// is a proper ancestor of another) — the side condition that lets
  /// child steps preserve document order and descendant steps preserve
  /// duplicate-freedom.
  std::set<std::string> non_nested;
};

/// Infers sequence properties bottom-up (conservatively) by projecting
/// the property-inference lattice onto the attribute sets above.
SequenceProperties InferProperties(const Operator& op);

/// One property-justified plan rewrite: which rule fired, on which
/// operator, and the inferred property that proves it sound.
struct RewriteEvent {
  std::string rule;           // e.g. "drop-redundant-sort"
  std::string target;         // e.g. "Sort[c4]"
  std::string justification;  // e.g. "{card:n, ord:doc(c4), dup-free(c4)}"
};
using RewriteLog = std::vector<RewriteEvent>;

/// Logical plan simplification. Property-justified rules:
///  * removes duplicate eliminations whose input is provably
///    duplicate-free on the eliminated attribute,
///  * removes sorts whose input is provably in document order (and
///    duplicate-free, so any stable order is THE order) already,
///  * removes selections with a constant-true predicate or a provably
///    empty input,
///  * replaces navigation steps that are statically empty for the
///    context's node class (children of an attribute, ancestors of the
///    root, text() on the attribute axis, ...) by the constant-false
///    selection marker, keeping the input's bindings,
///  * prunes statically-empty concat branches (and collapses
///    single-branch concats), drops anti joins against provably empty
///    right sides, turns semi joins against empty right sides into
///    constant-false selections,
///  * replaces a context-free Tmp^cs over a <=1-tuple input by a
///    constant map (cs = 1),
///  * folds aggregates over statically-empty nested subplans into
///    constants (exists -> false, count/sum -> 0, ...),
///  * caps positional predicates (`position() = k` / `< k` / `<= k`,
///    including the numeric-literal form `[3]`) with a Limit operator
///    and pushes it below non-blocking 1:1 operators, so the pipeline —
///    including the page scan feeding it — closes after the k-th
///    binding, and answers `position() = last() - k` over a single
///    context by a reverse child scan capped with Limit[1] instead of a
///    Tmp^cs spool ("limit:*" rules; `limit_pushdown` disables just
///    these, the ablation/differential-fuzz switch).
/// Returns the number of operators removed or replaced; each rule
/// application is appended to `log` (when non-null) with the proving
/// property. Also rewrites nested subplans inside scalar subscripts.
///
/// With `verify` (the caller's one reading of
/// analysis::VerificationEnabled — on by default in debug builds) every
/// rule application is re-checked:
/// Layer 1 re-verifies well-formedness of the whole plan, and the
/// Layer-1.5 property-preservation pass re-infers the rewritten
/// subtree's properties and fails if the rule weakened them (order,
/// duplicate-freedom, nesting, cardinality, node class). A violation
/// aborts rewriting and names the offending rule, instead of letting a
/// malformed or semantics-changing plan flow on to code generation.
StatusOr<size_t> SimplifyPlan(OpPtr* plan, bool verify,
                              RewriteLog* log = nullptr,
                              bool limit_pushdown = true);

}  // namespace natix::algebra

#endif  // NATIX_ALGEBRA_REWRITER_H_
