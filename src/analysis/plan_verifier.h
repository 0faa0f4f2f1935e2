#ifndef NATIX_ANALYSIS_PLAN_VERIFIER_H_
#define NATIX_ANALYSIS_PLAN_VERIFIER_H_

#include <set>
#include <string>

#include "algebra/operator.h"
#include "analysis/physical_model.h"
#include "base/status.h"
#include "base/statusor.h"
#include "nvm/program.h"
#include "translate/translator.h"

namespace natix::analysis {

/// The static plan verifier. Every layer is a pure analysis: it never
/// mutates its input and reports the first violation through Status (code
/// kInternal — a malformed plan is a compiler bug, never a user error).
/// Each check runs once, where the object it checks last changes
/// (docs/PLAN-VERIFIER.md lists the hooks):
///
///   Layer 1 (logical)    — well-formedness of the algebra Operator tree;
///                          after translation and after every rewrite
///                          rule (algebra::SimplifyPlan),
///   Layer 1.5 (property) — every rewrite rule must preserve the
///                          statically inferred stream properties
///                          (property_inference.h); after every rule,
///   Layer 3 (NVM)        — bytecode well-formedness of each compiled
///                          subscript program; once after code
///                          generation emits it, in every build,
///   Layers 2 and 4       — register dataflow under the open/next
///                          protocol, and resource effects (page-pin
///                          balance, Tmp^cs/MemoX spool containment,
///                          Close-reachability; docs/STATIC-ANALYSIS.md),
///                          in one walk over the lowered plan at Prepare
///                          (VerifyPrepared).
///
/// Verification is on by default in debug builds and opt-in in release
/// builds (natixq --verify-plans, SetVerificationEnabled(true), or the
/// NATIX_VERIFY_PLANS environment variable). Codegen::Prepare reads the
/// switch once per plan; every execution of a verified plan also runs
/// the runtime property oracle (src/qe/property_oracle.h) and the
/// resource ledger, which cross-check the static claims against actual
/// tuples and resources.

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
// Layers 2 and 4: the lowered plan (model in physical_model.h)
// ---------------------------------------------------------------------------

/// Verifies the lowered plan the code generator keeps in the template,
/// the plan every execution instantiates, in one walk that visits each
/// node once. Layer 2 (register dataflow, "plan verifier (physical)"):
///   * every register index (reads, writes, row lists) is within the
///     register file,
///   * every register read is dominated by a write under the open/next
///     protocol (dependent branches see the outer side's definitions,
///     concat consumers see only the intersection of branch definitions,
///     only the left side's definitions survive a dependent-left node),
///   * SaveRow/RestoreRow register lists are within the register file
///     (definedness is not required: snapshot and restore are symmetric,
///     so a never-written register round-trips its initial null),
///   * the result register is defined at the plan root.
/// Layer 4 (declared resource effects, "plan verifier (resources)"),
/// each failure naming the offending operator:
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
Status VerifyLowered(const PhysicalModel& model);

/// The verification pass Codegen::Prepare runs once per plan when
/// verification is on: VerifyLowered over `lowered`. Returns the one-line
/// verdict the template reports; `annotated_operators` is quoted in it.
StatusOr<std::string> VerifyPrepared(
    const translate::TranslationResult& translation,
    const PhysicalModel& lowered, size_t annotated_operators);

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
