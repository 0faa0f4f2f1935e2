#ifndef NATIX_NVM_PROGRAM_H_
#define NATIX_NVM_PROGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/conversions.h"
#include "runtime/node_ops.h"
#include "runtime/value.h"

namespace natix::nvm {

/// Opcodes of the Natix Virtual Machine: an assembler-like register
/// program evaluating the non-sequence-valued subscripts of the physical
/// algebra (Sec. 5.2.2). Registers hold runtime::Value. `a` is always the
/// destination.
enum class OpCode : uint8_t {
  kLoadConst,   // r[a] = consts[b]
  kLoadAttr,    // r[a] = tuple registers[b] (attribute access)
  kLoadVar,     // r[a] = execution-context variable names[b]
  // Arithmetic (operands converted with number()):
  kAdd,         // r[a] = r[b] + r[c]
  kSub,
  kMul,
  kDiv,
  kMod,
  kNeg,         // r[a] = -r[b]
  // Boolean:
  kNot,         // r[a] = not boolean(r[b])
  kToBool,      // r[a] = boolean(r[b])
  kToNum,       // r[a] = number(r[b])
  kToStr,       // r[a] = string(r[b])
  kCompare,     // r[a] = r[b] <cmp d> r[c]  (atomic promotion rules)
  // Control flow (short-circuit and/or):
  kJump,        // pc = b
  kJumpIfTrue,  // if boolean(r[a]) pc = b
  kJumpIfFalse, // if not boolean(r[a]) pc = b
  // String functions:
  kConcat2,        // r[a] = string(r[b]) + string(r[c])
  kStartsWith,     // r[a] = starts-with(r[b], r[c])
  kContains,
  kSubstringBefore,
  kSubstringAfter,
  kSubstring2,     // r[a] = substring(r[b], r[c])         (XPath rounding)
  kSubstring3,     // r[a] = substring(r[b], r[c], r[d])
  kStringLength,   // r[a] = string-length(r[b])
  kNormalizeSpace,
  kTranslate,      // r[a] = translate(r[b], r[c], r[d])
  // Number functions:
  kFloor,
  kCeiling,
  kRound,
  // Node navigation against the page buffer (Sec. 5.2.2):
  kRoot,           // r[a] = document node of node r[b]
  kNodeName,       // r[a] = name of node r[b] ("" for unnamed kinds)
  kNodeLocalName,  // r[a] = local part of the name of node r[b]
  kLang,           // r[a] = lang-test(string r[b], context node r[c])
  // Nested iterator access (Sec. 5.2.3):
  kEvalNested,     // r[a] = aggregated result of nested plan #b
  kHalt,           // return r[a]
  // Single-step predicates navigated in place (Sec. 5.2.2) instead of a
  // nested plan: loop over the nodes of step steps[c] from the context
  // node tuple[b] (a non-node context has none).
  kStepExists,     // r[a] = some node of steps[c] passes (stops there)
  kStepCount       // r[a] = number of nodes of steps[c] that pass
};

const char* OpCodeName(OpCode op);

struct Instruction {
  OpCode op = OpCode::kHalt;
  uint16_t a = 0;
  uint16_t b = 0;
  uint16_t c = 0;
  uint16_t d = 0;  // third operand / comparison op / jump slack
};

/// One single-step loop of kStepExists / kStepCount: the nodes of `axis`
/// (child or attribute) whose header passes `test` and, with `compare`,
/// that satisfy `node <cmp> constant` (a string or number; the node side
/// converts like any kNode operand of runtime::CompareAtomic). Node-test
/// names are resolved against the store's dictionary; 16-bit operands
/// cannot hold them, so the instruction indexes this table.
struct StepLoop {
  runtime::Axis axis = runtime::Axis::kChild;
  runtime::NodeTest test;
  bool compare = false;
  runtime::CompareOp cmp = runtime::CompareOp::kEq;
  runtime::Value constant;
  /// "child::year": the step as written, for listings.
  std::string text;
};

/// A compiled NVM program.
struct Program {
  std::vector<Instruction> code;
  std::vector<runtime::Value> constants;
  /// Execution-context variable names referenced by kLoadVar.
  std::vector<std::string> variable_names;
  /// Single-step loops referenced by kStepExists / kStepCount.
  std::vector<StepLoop> steps;
  /// Number of NVM registers the program uses.
  uint16_t register_count = 0;

  /// Symbolic listing with basic-block labels ("L<i>:"), labeled jump
  /// targets, resolved constants/variables and comparison mnemonics
  /// (natixq --dump-nvm).
  std::string Disassemble() const;
};

/// Operand roles of one instruction, derived from the VM's dispatch
/// loop: which fields name frame registers (read/written), table
/// indices, or jump targets. The Layer-3 verifier, code generation and
/// the listing share this one model of the per-opcode field layout.
struct OperandRoles {
  using Field = uint16_t Instruction::*;
  Field read_fields[3] = {nullptr, nullptr, nullptr};
  int read_count = 0;
  bool writes_a = false;
  bool const_b = false;    // b indexes program.constants
  bool var_b = false;      // b indexes program.variable_names
  bool attr_b = false;     // b indexes the plan (tuple) register file
  bool nested_b = false;   // b indexes the nested-iterator table
  bool jump_b = false;     // b is a jump target
  bool step_c = false;     // c indexes program.steps (step loops)
  bool cmp_d = false;      // d encodes a runtime::CompareOp

  uint16_t read(const Instruction& ins, int i) const {
    return ins.*read_fields[i];
  }
};

OperandRoles RolesOf(const Instruction& ins);

/// Fall-through/branch successors of the instruction at `pc` (indices
/// into program.code; kHalt has none).
void Successors(const Program& program, size_t pc, std::vector<size_t>* out);

/// Basic-block CFG: block leaders are the entry, every jump target, and
/// every instruction after a (conditional) branch. The listing's labels
/// and unreachable-block marks come from it.
struct Cfg {
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

  static Cfg Build(const Program& program);

  /// "L<i>" when `pc` starts a block, "" otherwise.
  std::string LabelAt(size_t pc) const;
  bool Reachable(size_t pc) const { return blocks[block_of[pc]].reachable; }
};

/// Symbolic rendering of one instruction, as in the listing but with
/// numeric jump targets ("-> @<pc>"): the Layer-3 verifier diagnostics.
std::string RenderInstruction(const Program& program, size_t pc);

}  // namespace natix::nvm

#endif  // NATIX_NVM_PROGRAM_H_
