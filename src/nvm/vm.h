#ifndef NATIX_NVM_VM_H_
#define NATIX_NVM_VM_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/statusor.h"
#include "nvm/program.h"
#include "runtime/conversions.h"
#include "runtime/register_file.h"

namespace natix::nvm {

/// Callback giving kEvalNested access to the physical plan's nested
/// iterators (Sec. 5.2.3). Index identifies the nested plan; the result
/// is the aggregated atomic value.
using NestedEvaluator =
    std::function<StatusOr<runtime::Value>(size_t nested_index)>;

/// The interpreter for NVM programs. One Vm per compiled program; the
/// scratch register frame is reused across invocations.
class Vm {
 public:
  explicit Vm(const Program* program) : program_(program) {
    frame_.resize(program->register_count);
  }

  /// Runs the program against the current tuple (the plan register file),
  /// the execution context (store access + $variables) and the nested
  /// iterator table. Returns the value of the halt register. When
  /// `retired` is non-null, the number of instructions executed by a
  /// successful run is added to it (the nvm_insns_retired metric;
  /// failing runs abort the query, so their partial counts are not
  /// accounted). When `step_tuples` is non-null, every node a step loop
  /// (kStepExists / kStepCount) finds passing its node test is added to
  /// it, as the nested plan's unnest-map would have counted it.
  StatusOr<runtime::Value> Run(const runtime::RegisterFile& tuple,
                               const runtime::EvalContext& ctx,
                               const std::unordered_map<std::string,
                                                        runtime::Value>&
                                   variables,
                               const NestedEvaluator& nested,
                               uint64_t* retired = nullptr,
                               uint64_t* step_tuples = nullptr);

 private:
  const Program* program_;
  std::vector<runtime::Value> frame_;
};

}  // namespace natix::nvm

#endif  // NATIX_NVM_VM_H_
