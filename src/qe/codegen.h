#ifndef NATIX_QE_CODEGEN_H_
#define NATIX_QE_CODEGEN_H_

#include <memory>

#include "base/statusor.h"
#include "qe/plan.h"
#include "storage/node_store.h"
#include "translate/translator.h"

namespace natix::qe {

/// Code generation (step 6 of the compiler pipeline, Sec. 5.1): lowers a
/// logical algebra plan to a physical plan over a plan-wide register
/// file. The attribute manager maps attribute names onto registers;
/// renaming maps (chi_{a := b}) emit no copies — both names alias one
/// register — exactly as the paper describes.
///
/// Lowering happens once per query, in Prepare(): property inference,
/// register assignment, node-test name resolution, NVM subscript
/// compilation, optimization and verification (Layer 3), the one
/// verification pass over the lowered plan (Layers 2 and 4) and explain
/// rendering. The result is an immutable PlanTemplate holding the
/// lowered plan; PlanTemplate::NewContext() instantiates it per
/// execution by walking that plan and allocating iterators.
class Codegen {
 public:
  /// Prepares `translation` into an immutable plan template bound to
  /// `store`. The template takes ownership of the translation (the
  /// inferred property map points into its operator tree). With `verify`
  /// the lowered plan is verified, and the template records it: oracle
  /// wrappers and every execution's resource ledger follow it.
  static StatusOr<std::unique_ptr<PlanTemplate>> Prepare(
      translate::TranslationResult translation,
      const storage::NodeStore* store, bool verify);
};

}  // namespace natix::qe

#endif  // NATIX_QE_CODEGEN_H_
