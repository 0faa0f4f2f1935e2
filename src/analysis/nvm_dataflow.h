#ifndef NATIX_ANALYSIS_NVM_DATAFLOW_H_
#define NATIX_ANALYSIS_NVM_DATAFLOW_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "nvm/program.h"
#include "runtime/value.h"

// Static analysis over NVM bytecode: the operand-role model shared with
// the Layer-3 verifier, a basic-block CFG built from the jump targets,
// and the classic instruction-level dataflow analyses (liveness,
// reaching definitions, constant propagation, value-kind propagation)
// the optimization passes in nvm_optimizer.h justify themselves with.
//
// NVM programs are tiny (a subscript compiles to tens of instructions),
// so every analysis keeps per-pc states and iterates a worklist to the
// fixpoint; the CFG exists for reachability, for pattern-safety checks
// (no jump into the middle of a fused sequence) and for the labeled
// disassembly natixq --dump-nvm and the verifier diagnostics share.

namespace natix::analysis {

/// Operand roles of one NVM instruction, derived from the VM's dispatch
/// loop: which fields name frame registers (read/written), table
/// indices, or jump targets. `read_fields` points at the Instruction
/// members holding the read registers so that transformation passes can
/// rewrite operands without re-encoding the per-opcode field layout.
struct NvmOperandRoles {
  using Field = uint16_t nvm::Instruction::*;
  Field read_fields[3] = {nullptr, nullptr, nullptr};
  int read_count = 0;
  bool writes_a = false;
  bool const_b = false;    // b indexes program.constants
  bool var_b = false;      // b indexes program.variable_names
  bool attr_b = false;     // b indexes the plan (tuple) register file
  bool nested_b = false;   // b indexes the nested-iterator table
  bool jump_b = false;     // b is a jump target
  bool const_c = false;    // c indexes program.constants (kCmpAttrConst)
  bool step_c = false;     // c indexes program.steps (step loops)
  bool jump_a = false;     // a is a jump target (kCmpBranch)
  bool cmp_d = false;      // d encodes a runtime::CompareOp
  /// d additionally carries the swap/sense flag in bit 8
  /// (kCmpAttrConst / kCmpBranch).
  bool cmp_flag_d = false;

  uint16_t read(const nvm::Instruction& ins, int i) const {
    return ins.*read_fields[i];
  }
};

NvmOperandRoles NvmRolesOf(const nvm::Instruction& ins);

/// Fall-through/branch successors of the instruction at `pc` (indices
/// into program.code; kHalt has none).
void NvmSuccessors(const nvm::Program& program, size_t pc,
                   std::vector<size_t>* out);

/// Basic-block CFG: block leaders are the entry, every jump target, and
/// every instruction after a (conditional) branch.
struct NvmCfg {
  struct Block {
    size_t begin = 0;  ///< first pc of the block
    size_t end = 0;    ///< one past the last pc
    std::vector<size_t> succs;  ///< successor block indices
    std::vector<size_t> preds;  ///< predecessor block indices
    bool reachable = false;     ///< reachable from the entry block
  };
  std::vector<Block> blocks;
  /// pc -> index of the containing block.
  std::vector<size_t> block_of;

  static NvmCfg Build(const nvm::Program& program);

  /// "L<i>" when `pc` starts a block, "" otherwise.
  std::string LabelAt(size_t pc) const;
  bool Reachable(size_t pc) const { return blocks[block_of[pc]].reachable; }
};

/// Backward may-analysis: which registers hold a value some future
/// instruction reads.
class NvmLiveness {
 public:
  static NvmLiveness Compute(const nvm::Program& program);
  bool LiveIn(size_t pc, uint16_t reg) const { return in_[pc][reg]; }
  bool LiveOut(size_t pc, uint16_t reg) const { return out_[pc][reg]; }

 private:
  std::vector<std::vector<bool>> in_, out_;
};

/// Forward may-analysis: the set of definition sites (pcs) whose written
/// value can reach each instruction.
class NvmReachingDefs {
 public:
  static NvmReachingDefs Compute(const nvm::Program& program);
  /// Definition pcs of `reg` reaching the entry of `pc`, ascending.
  std::vector<size_t> DefsReaching(size_t pc, uint16_t reg) const;

 private:
  /// in_[pc][reg] is a bitset over definition pcs.
  std::vector<std::vector<std::vector<bool>>> in_;
};

/// The three-point constant lattice per register.
struct NvmConst {
  enum class State : uint8_t { kUndef, kConst, kVarying };
  State state = State::kUndef;
  runtime::Value value;  ///< meaningful only in state kConst
};

/// Forward must-analysis tracking kLoadConst/kMove-propagated constants.
class NvmConstants {
 public:
  static NvmConstants Compute(const nvm::Program& program);
  /// State of `reg` at the entry of `pc` (kUndef for unreachable pcs).
  const NvmConst& In(size_t pc, uint16_t reg) const { return in_[pc][reg]; }

 private:
  std::vector<std::vector<NvmConst>> in_;
};

/// Static value-kind lattice: kAtomic covers {boolean, number, string}
/// (the kinds whose conversions are total and store-free), kAny admits
/// nodes and sequences as well.
enum class NvmKind : uint8_t {
  kUndef,
  kBoolean,
  kNumber,
  kString,
  kNode,
  kAtomic,
  kAny
};

const char* NvmKindName(NvmKind kind);
bool NvmKindIsAtomic(NvmKind kind);
NvmKind NvmKindOfValue(const runtime::Value& value);

/// Forward kind propagation over the operand-role model: justifies
/// conversion elimination and the purity side of dead-store elimination.
class NvmKinds {
 public:
  static NvmKinds Compute(const nvm::Program& program);
  NvmKind In(size_t pc, uint16_t reg) const { return in_[pc][reg]; }

 private:
  std::vector<std::vector<NvmKind>> in_;
};

/// True when evaluating the instruction at `pc` can neither fail nor
/// touch anything outside the frame (store, $variables, nested
/// iterators), given the statically inferred operand kinds. Such an
/// instruction may be removed when its destination is dead and folded
/// when its operands are constant.
bool NvmInstructionIsPure(const nvm::Program& program, size_t pc,
                          const NvmKinds& kinds);

/// Evaluates one register-pure instruction over concrete operand values
/// by running it on a scratch Vm (constant folding executes the real
/// interpreter, never a reimplementation of its semantics). `operands`
/// are the values of the instruction's register reads, in role order.
StatusOr<runtime::Value> NvmEvaluateConstInstruction(
    const nvm::Program& program, size_t pc,
    const std::vector<runtime::Value>& operands);

/// Symbolic rendering of one instruction: opcode name, register
/// operands, resolved constants/variables, comparison mnemonics. Shared
/// by the Layer-3 verifier diagnostics and --dump-nvm.
std::string RenderNvmInstruction(const nvm::Program& program, size_t pc);

/// Full symbolic listing with basic-block labels ("L<i>:") and labeled
/// jump targets.
std::string RenderNvmProgram(const nvm::Program& program);

}  // namespace natix::analysis

#endif  // NATIX_ANALYSIS_NVM_DATAFLOW_H_
