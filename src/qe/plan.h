#ifndef NATIX_QE_PLAN_H_
#define NATIX_QE_PLAN_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "algebra/rewriter.h"
#include "analysis/physical_model.h"
#include "base/statusor.h"
#include "qe/exec_context.h"
#include "translate/translator.h"
#include "xpath/ast.h"

namespace natix::storage {
class NodeStore;
}  // namespace natix::storage

namespace natix::qe {

namespace internal {
class CodegenImpl;
}  // namespace internal

class Codegen;

/// The immutable, shareable half of a compiled query: the translated
/// algebra plan, the lowered physical plan with its NVM subscript
/// programs, the explain renderings and the verification verdict.
/// Everything here is a function of the XPath text and the store's name
/// dictionary at Prepare; nothing here is mutated by execution.
///
/// Codegen::Prepare lowers the plan exactly once: it fixes the register
/// assignment, resolves attribute and node-test names, compiles and
/// verifies every subscript (Layer 3), and, under
/// verification, verifies the lowered plan (Layers 2 and 4). Each
/// execution then instantiates a fresh ExecutionContext by walking the
/// lowered plan and allocating one iterator per node over a private
/// register file; subscripts borrow their programs from the template.
///
/// Thread safety: a template is deeply const after Codegen::Prepare
/// returns it. Any number of threads may call NewContext and the
/// accessors concurrently; the contexts themselves are single-threaded.
class PlanTemplate {
 public:
  PlanTemplate(const PlanTemplate&) = delete;
  PlanTemplate& operator=(const PlanTemplate&) = delete;

  /// Instantiates the lowered plan into a fresh, independent execution
  /// context. With `collect_stats` the context carries a per-operator
  /// stats tree (src/obs) and every iterator is instrumented; without it
  /// the context runs uninstrumented (one dormant branch per iterator
  /// call).
  std::unique_ptr<ExecutionContext> NewContext(
      bool collect_stats = false) const;

  xpath::ExprType result_type() const { return translation_.type; }

  /// The logical plan this was compiled from (explain output).
  const std::string& logical_plan() const { return logical_plan_; }

  /// The physical iterator tree with its register assignments, aliases
  /// marked (the NQE execution plan). The NVM subscript listings are
  /// nvm_listing().
  const std::string& physical_plan() const { return physical_plan_; }

  /// One-line verdict of the static plan verifier: "VERIFIED (...)" when
  /// all layers passed, or a note that verification was skipped
  /// (violations never reach a PlanTemplate — compilation fails instead).
  const std::string& verification() const { return verification_; }

  /// Whether the plan was prepared under verification. Its executions
  /// then run the property-oracle wrappers recorded in the lowered plan
  /// and an armed resource ledger.
  bool verified() const { return verified_; }

  /// The logical plan annotated with the inferred stream properties
  /// (ordering, duplicate-freedom, cardinality, node class) per operator.
  const std::string& properties_plan() const { return properties_plan_; }

  /// JSON object {"plan": ...} with the operator tree and the full
  /// inferred properties per operator — natixq --explain-json.
  const std::string& properties_json() const { return properties_json_; }

  /// The property-justified rewrites applied during translation, each
  /// with the inferred property that proved it sound.
  const algebra::RewriteLog& rewrites() const {
    return translation_.rewrites;
  }

  /// Symbolic disassembly of every compiled NVM subscript program, as
  /// code generation emitted and the VM runs it, rendered on each call.
  /// Shown by natixq --dump-nvm.
  std::string nvm_listing() const;

  /// Static instruction total across all subscript programs.
  size_t nvm_insns() const { return nvm_insns_; }

  /// Whether the result stream is statically guaranteed to arrive in
  /// (non-strict) document order, making the final result sort
  /// redundant.
  bool result_document_ordered() const { return result_document_ordered_; }

  /// The lowered physical plan NewContext instantiates and the verifier
  /// checked: operator tree, register layout, subscript programs.
  const analysis::PhysicalModel& lowered_plan() const { return lowered_; }

  const storage::NodeStore* store() const { return store_; }

 private:
  friend class internal::CodegenImpl;
  friend class Codegen;

  PlanTemplate() = default;

  translate::TranslationResult translation_;
  const storage::NodeStore* store_ = nullptr;
  analysis::PhysicalModel lowered_;
  std::string logical_plan_;
  std::string physical_plan_;
  std::string verification_;
  bool verified_ = false;
  std::string properties_plan_;
  std::string properties_json_;
  bool result_document_ordered_ = false;
  size_t nvm_insns_ = 0;
};

/// Sorts node references into document order (ascending order keys).
void SortResultNodes(std::vector<runtime::NodeRef>* nodes);

}  // namespace natix::qe

#endif  // NATIX_QE_PLAN_H_
