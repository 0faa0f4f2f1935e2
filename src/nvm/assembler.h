#ifndef NATIX_NVM_ASSEMBLER_H_
#define NATIX_NVM_ASSEMBLER_H_

#include <functional>
#include <string>

#include "algebra/operator.h"
#include "base/statusor.h"
#include "nvm/program.h"
#include "runtime/register_file.h"

namespace natix::nvm {

/// Resolves an attribute name to its plan register (the code generator's
/// attribute manager, Sec. 5.1).
using AttrResolver =
    std::function<StatusOr<runtime::RegisterId>(const std::string&)>;

/// Registers a nested sequence-valued scalar (its plan and aggregate)
/// with the surrounding physical plan, returning the nested-iterator
/// index referenced by kEvalNested (Sec. 5.2.3).
using NestedRegistrar =
    std::function<StatusOr<size_t>(const algebra::Scalar&)>;

/// Resolves a node test's names against the store's dictionary (the
/// code generator's node-test resolution).
using NodeTestResolver =
    std::function<runtime::NodeTest(const xpath::AstNodeTest&)>;

/// A nested scalar of the single-step shape: an exists or count
/// aggregate over one child or attribute step with a name test from an
/// attribute free in the nested plan, directly or through one Select
/// comparing the step node with a string or number literal. Such a
/// scalar compiles to one kStepExists / kStepCount loop instead of a
/// nested plan.
struct SingleStep {
  /// The UnnestMap of the step.
  const algebra::Operator* step = nullptr;
  /// The Select's comparison, or null.
  const algebra::Scalar* compare = nullptr;
};

/// Matches `nested` (a kNested scalar) against the single-step shape.
bool MatchSingleStep(const algebra::Scalar& nested, SingleStep* out);

/// Compiles a scalar subscript expression into an NVM program
/// (step 6 of the compiler pipeline for non-sequence-valued parts).
/// Nested scalars of the single-step shape become step loops; every
/// other nested scalar is registered as a nested plan.
StatusOr<Program> CompileScalar(const algebra::Scalar& scalar,
                                const AttrResolver& resolve_attr,
                                const NodeTestResolver& resolve_test,
                                const NestedRegistrar& register_nested);

}  // namespace natix::nvm

#endif  // NATIX_NVM_ASSEMBLER_H_
