#ifndef NATIX_ANALYSIS_PLAN_VERIFIER_H_
#define NATIX_ANALYSIS_PLAN_VERIFIER_H_

#include <set>
#include <string>

#include "algebra/operator.h"
#include "analysis/physical_model.h"
#include "base/status.h"
#include "nvm/program.h"
#include "translate/translator.h"

namespace natix::analysis {

/// The three-layer static plan verifier. Every layer is a pure analysis:
/// it never mutates its input and reports the first violation through
/// Status (code kInternal — a malformed plan is a compiler bug, never a
/// user error). The layers mirror the compiler pipeline of Sec. 5.1:
///
///   Layer 1 (logical)    — well-formedness of the algebra Operator tree
///                          produced by translation and rewriting,
///   Layer 1.5 (property) — every rewrite rule must preserve the
///                          statically inferred stream properties
///                          (property_inference.h); run by
///                          algebra::SimplifyPlanChecked after each rule,
///   Layer 2 (physical)   — register dataflow of the compiled iterator
///                          tree under the open/next protocol,
///   Layer 3 (NVM)        — bytecode well-formedness of every compiled
///                          subscript program,
///   Layer 4 (resources)  — resource-effect abstract interpretation over
///                          the iterator tree: page-pin balance,
///                          Tmp^cs/MemoX spool lifetime containment, and
///                          Close-reachability on all control paths
///                          (docs/STATIC-ANALYSIS.md).
///
/// Verification is on by default in debug builds and opt-in in release
/// builds (natixq --verify-plans, SetVerificationEnabled(true), or the
/// NATIX_VERIFY_PLANS environment variable). When enabled it also arms
/// the runtime property oracle (src/qe/property_oracle.h), which
/// cross-checks the static claims against actual tuples.

/// Whether the Translator / Rewriter / Codegen hooks run the verifier.
bool VerificationEnabled();
void SetVerificationEnabled(bool enabled);

// ---------------------------------------------------------------------------
// Layer 1: logical plans
// ---------------------------------------------------------------------------

/// Verifies the plan rooted at `root`, treating the attributes in
/// `outer` as bound by the enclosing context (the execution context's
/// cn/cp0/cs0, or — for the dependent branch of a d-join — the outer
/// binding set). Checked invariants:
///   * operator arity and required subscripts/attributes per OpKind,
///   * def-before-use: every attribute an operator or subscript reads is
///     produced upstream or covered by `outer`,
///   * dependent branches (d-join right sides, nested subscript plans)
///     have their free attributes covered by the outer binding set,
///   * projection lists and renames are injective (no duplicate
///     projection attributes, no rebinding of a live attribute),
///   * grouping-sensitive operators (Tmp^cs_c, the resetting position
///     counter) receive inputs whose grouping on the context attribute
///     is actually established.
Status VerifyLogicalPlan(const algebra::Operator& root,
                         const std::set<std::string>& outer);

/// Verifies a translation result: the plan under the execution-context
/// attributes, plus that the result attribute is bound by the plan.
Status VerifyTranslation(const translate::TranslationResult& translation);

/// The execution-context attributes every top-level plan may read.
std::set<std::string> ExecutionContextAttributes();

// ---------------------------------------------------------------------------
// Layer 2: physical register dataflow (model in physical_model.h)
// ---------------------------------------------------------------------------

/// Verifies the register dataflow of the lowered plan the code generator
/// keeps in the template, the plan every execution instantiates. Checked
/// invariants:
///   * every register index (reads, writes, row lists) is within the
///     register file,
///   * every register read is dominated by a write under the open/next
///     protocol (dependent branches see the outer side's definitions,
///     concat consumers see only the intersection of branch definitions),
///   * SaveRow/RestoreRow register lists are within the register file
///     (definedness is not required: snapshot and restore are symmetric,
///     so a never-written register round-trips its initial null),
///   * the result register is defined at the plan root.
Status VerifyPhysical(const PhysicalModel& model);

// ---------------------------------------------------------------------------
// Layer 4: resource effects (declarations in physical_model.h)
// ---------------------------------------------------------------------------

/// Verifies the declared resource effects of the compiled iterator tree.
/// Abstract interpretation over the open/next/close protocol; checked
/// invariants, each failure naming the offending operator:
///   * effect arity: every child has a declared ChildClose mode,
///   * Close-reachability: every node whose subtree holds resources
///     (cursors or spools) is guaranteed to be Closed on all control
///     paths — the chain of kOnClose edges from the root must reach it,
///     or it must be probe-contained (opened and closed entirely inside
///     a single Next of its parent). This covers early Close via Limit
///     and deadline/cancel abort, which Close the root: the same chain
///     applies.
///   * page-pin balance: a cursor-holding node must release the cursor
///     (and hence its page pins) in Close,
///   * spool lifetime containment: kGroup/kFull spools must be dropped
///     on Close; only keyed kMemo state may outlive a Close, and it is
///     bounded by the execution context.
Status VerifyResources(const PhysicalModel& model);

// ---------------------------------------------------------------------------
// Layer 3: NVM subscript programs
// ---------------------------------------------------------------------------

/// Verifies a compiled NVM program. `tuple_register_count` bounds the
/// plan registers kLoadAttr may touch and `nested_count` the nested-plan
/// indices kEvalNested may reference (pass SIZE_MAX to skip either
/// check). Checked invariants:
///   * the program is non-empty and cannot fall off the end,
///   * operand arity/roles per opcode: frame registers < register_count,
///     constant/variable/nested indices in range, comparison codes valid,
///   * jump targets are in range,
///   * no instruction reads a frame register that is not definitely
///     written on every path reaching it.
Status VerifyProgram(const nvm::Program& program,
                     size_t tuple_register_count, size_t nested_count);

}  // namespace natix::analysis

#endif  // NATIX_ANALYSIS_PLAN_VERIFIER_H_
