#ifndef NATIX_ANALYSIS_NVM_OPTIMIZER_H_
#define NATIX_ANALYSIS_NVM_OPTIMIZER_H_

#include <cstddef>
#include <string>

#include "algebra/rewriter.h"
#include "base/status.h"
#include "nvm/program.h"

// Analysis-justified optimization of NVM subscript programs, built on
// the dataflow framework of nvm_dataflow.h. The pipeline runs
//
//   const-fold        constant propagation + folding (the fold executes
//                     the real Vm over a one-instruction program)
//   copy-prop         reaching-defs-justified copy propagation
//   conversion-elim   kind-justified to_bool/to_num/to_str -> move
//   jump-thread       jump chains, constant branch conditions,
//                     jumps to the fall-through successor
//   peephole          superinstruction formation: kCmpAttrConst
//                     (load_attr + load_const + compare) and kCmpBranch
//                     (compare + conditional jump)
//   dce               unreachable blocks + dead pure stores
//
// to a fixpoint (bounded rounds). Every applied transformation records
// the analysis fact that proves it sound in the rewrite log (the same
// surface the property-justified plan rewrites use), and the Layer-3
// verifier re-runs after every pass that changed the program: a pass
// that emits a malformed program aborts compilation instead of reaching
// execution — analysis claims are checked, not trusted. The final frame
// shrink and constant-pool compaction are checked by the caller, which
// verifies every program once after its last change (qe/codegen.cc).

namespace natix::analysis {

/// Optimizes `program` in place. `site` labels the subscript's host
/// operator in log events and error messages; `tuple_register_count` /
/// `nested_count` bound the tuple-register and nested-plan operands for
/// the per-pass Layer-3 re-verification. `log` may be null (events
/// dropped); rule names are "nvm:<pass>".
Status OptimizeNvmProgram(nvm::Program* program, const std::string& site,
                          size_t tuple_register_count, size_t nested_count,
                          algebra::RewriteLog* log);

/// Test-only: installs an extra pass appended to every pipeline round
/// (nullptr to remove). Broken-pass negative tests use this to prove
/// that a Layer-3 violation aborts compilation rather than executing.
/// Returns whether the pass changed the program. Not thread-safe.
using NvmOptimizerTestPass = bool (*)(nvm::Program*);
void SetNvmOptimizerTestPass(NvmOptimizerTestPass pass);

}  // namespace natix::analysis

#endif  // NATIX_ANALYSIS_NVM_OPTIMIZER_H_
