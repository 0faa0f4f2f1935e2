#include "analysis/nvm_dataflow.h"

#include <algorithm>
#include <deque>

#include "nvm/vm.h"
#include "runtime/conversions.h"
#include "runtime/register_file.h"

namespace natix::analysis {

namespace {

using nvm::Instruction;
using nvm::OpCode;
using nvm::Program;
using runtime::Value;
using runtime::ValueKind;

}  // namespace

NvmOperandRoles NvmRolesOf(const Instruction& ins) {
  NvmOperandRoles roles;
  auto read = [&roles](NvmOperandRoles::Field field) {
    roles.read_fields[roles.read_count++] = field;
  };
  switch (ins.op) {
    case OpCode::kLoadConst:
      roles.writes_a = true;
      roles.const_b = true;
      break;
    case OpCode::kLoadAttr:
      roles.writes_a = true;
      roles.attr_b = true;
      break;
    case OpCode::kLoadVar:
      roles.writes_a = true;
      roles.var_b = true;
      break;
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kMod:
    case OpCode::kConcat2:
    case OpCode::kStartsWith:
    case OpCode::kContains:
    case OpCode::kSubstringBefore:
    case OpCode::kSubstringAfter:
    case OpCode::kSubstring2:
    case OpCode::kLang:
      roles.writes_a = true;
      read(&Instruction::b);
      read(&Instruction::c);
      break;
    case OpCode::kCompare:
      roles.writes_a = true;
      read(&Instruction::b);
      read(&Instruction::c);
      roles.cmp_d = true;
      break;
    case OpCode::kSubstring3:
    case OpCode::kTranslate:
      roles.writes_a = true;
      read(&Instruction::b);
      read(&Instruction::c);
      read(&Instruction::d);
      break;
    case OpCode::kNeg:
    case OpCode::kNot:
    case OpCode::kToBool:
    case OpCode::kToNum:
    case OpCode::kToStr:
    case OpCode::kStringLength:
    case OpCode::kNormalizeSpace:
    case OpCode::kFloor:
    case OpCode::kCeiling:
    case OpCode::kRound:
    case OpCode::kRoot:
    case OpCode::kNodeName:
    case OpCode::kNodeLocalName:
    case OpCode::kMove:
      roles.writes_a = true;
      read(&Instruction::b);
      break;
    case OpCode::kJump:
      roles.jump_b = true;
      break;
    case OpCode::kJumpIfTrue:
    case OpCode::kJumpIfFalse:
      read(&Instruction::a);
      roles.jump_b = true;
      break;
    case OpCode::kEvalNested:
      roles.writes_a = true;
      roles.nested_b = true;
      break;
    case OpCode::kHalt:
      read(&Instruction::a);
      break;
    case OpCode::kCmpAttrConst:
      roles.writes_a = true;
      roles.attr_b = true;
      roles.const_c = true;
      roles.cmp_d = true;
      roles.cmp_flag_d = true;
      break;
    case OpCode::kCmpBranch:
      read(&Instruction::b);
      read(&Instruction::c);
      roles.jump_a = true;
      roles.cmp_d = true;
      roles.cmp_flag_d = true;
      break;
    case OpCode::kStepExists:
    case OpCode::kStepCount:
      roles.writes_a = true;
      roles.attr_b = true;
      roles.step_c = true;
      break;
  }
  return roles;
}

void NvmSuccessors(const Program& program, size_t pc,
                   std::vector<size_t>* out) {
  out->clear();
  const Instruction& ins = program.code[pc];
  switch (ins.op) {
    case OpCode::kHalt:
      break;
    case OpCode::kJump:
      out->push_back(ins.b);
      break;
    case OpCode::kJumpIfTrue:
    case OpCode::kJumpIfFalse:
      out->push_back(ins.b);
      if (pc + 1 < program.code.size()) out->push_back(pc + 1);
      break;
    case OpCode::kCmpBranch:
      out->push_back(ins.a);
      if (pc + 1 < program.code.size()) out->push_back(pc + 1);
      break;
    default:
      if (pc + 1 < program.code.size()) out->push_back(pc + 1);
      break;
  }
}

NvmCfg NvmCfg::Build(const Program& program) {
  NvmCfg cfg;
  const size_t n = program.code.size();
  if (n == 0) return cfg;

  // Leaders: the entry, every jump target, and every fall-through
  // successor of an instruction that also branches elsewhere (or ends
  // the block).
  std::vector<bool> leader(n, false);
  leader[0] = true;
  std::vector<size_t> succs;
  for (size_t pc = 0; pc < n; ++pc) {
    const Instruction& ins = program.code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    if (roles.jump_b && ins.b < n) leader[ins.b] = true;
    if (roles.jump_a && ins.a < n) leader[ins.a] = true;
    const bool ends_block = ins.op == OpCode::kJump ||
                            ins.op == OpCode::kJumpIfTrue ||
                            ins.op == OpCode::kJumpIfFalse ||
                            ins.op == OpCode::kCmpBranch ||
                            ins.op == OpCode::kHalt;
    if (ends_block && pc + 1 < n) leader[pc + 1] = true;
  }

  cfg.block_of.assign(n, 0);
  for (size_t pc = 0; pc < n; ++pc) {
    if (leader[pc]) {
      Block block;
      block.begin = pc;
      cfg.blocks.push_back(block);
    }
    cfg.block_of[pc] = cfg.blocks.size() - 1;
    cfg.blocks.back().end = pc + 1;
  }

  for (size_t b = 0; b < cfg.blocks.size(); ++b) {
    const size_t last = cfg.blocks[b].end - 1;
    NvmSuccessors(program, last, &succs);
    for (size_t succ_pc : succs) {
      size_t succ = cfg.block_of[succ_pc];
      if (std::find(cfg.blocks[b].succs.begin(), cfg.blocks[b].succs.end(),
                    succ) == cfg.blocks[b].succs.end()) {
        cfg.blocks[b].succs.push_back(succ);
        cfg.blocks[succ].preds.push_back(b);
      }
    }
  }

  std::deque<size_t> worklist;
  cfg.blocks[0].reachable = true;
  worklist.push_back(0);
  while (!worklist.empty()) {
    size_t b = worklist.front();
    worklist.pop_front();
    for (size_t succ : cfg.blocks[b].succs) {
      if (!cfg.blocks[succ].reachable) {
        cfg.blocks[succ].reachable = true;
        worklist.push_back(succ);
      }
    }
  }
  return cfg;
}

std::string NvmCfg::LabelAt(size_t pc) const {
  size_t b = block_of[pc];
  if (blocks[b].begin != pc) return std::string();
  return "L" + std::to_string(b);
}

NvmLiveness NvmLiveness::Compute(const Program& program) {
  NvmLiveness live;
  const size_t n = program.code.size();
  live.in_.assign(n, std::vector<bool>(program.register_count, false));
  live.out_.assign(n, std::vector<bool>(program.register_count, false));

  std::vector<size_t> succs;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = n; i-- > 0;) {
      const Instruction& ins = program.code[i];
      NvmOperandRoles roles = NvmRolesOf(ins);
      std::vector<bool> out(program.register_count, false);
      NvmSuccessors(program, i, &succs);
      for (size_t succ : succs) {
        for (size_t r = 0; r < out.size(); ++r) {
          if (live.in_[succ][r]) out[r] = true;
        }
      }
      std::vector<bool> in = out;
      if (roles.writes_a) in[ins.a] = false;
      for (int k = 0; k < roles.read_count; ++k) in[roles.read(ins, k)] = true;
      if (out != live.out_[i] || in != live.in_[i]) {
        live.out_[i] = std::move(out);
        live.in_[i] = std::move(in);
        changed = true;
      }
    }
  }
  return live;
}

NvmReachingDefs NvmReachingDefs::Compute(const Program& program) {
  NvmReachingDefs rd;
  const size_t n = program.code.size();
  rd.in_.assign(n, std::vector<std::vector<bool>>(
                       program.register_count, std::vector<bool>(n, false)));

  std::vector<size_t> succs;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < n; ++i) {
      const Instruction& ins = program.code[i];
      NvmOperandRoles roles = NvmRolesOf(ins);
      // out = in, except the written register's defs collapse to {i}.
      std::vector<std::vector<bool>> out = rd.in_[i];
      if (roles.writes_a) {
        std::fill(out[ins.a].begin(), out[ins.a].end(), false);
        out[ins.a][i] = true;
      }
      NvmSuccessors(program, i, &succs);
      for (size_t succ : succs) {
        for (size_t r = 0; r < out.size(); ++r) {
          for (size_t d = 0; d < n; ++d) {
            if (out[r][d] && !rd.in_[succ][r][d]) {
              rd.in_[succ][r][d] = true;
              changed = true;
            }
          }
        }
      }
    }
  }
  return rd;
}

std::vector<size_t> NvmReachingDefs::DefsReaching(size_t pc,
                                                  uint16_t reg) const {
  std::vector<size_t> defs;
  for (size_t d = 0; d < in_[pc][reg].size(); ++d) {
    if (in_[pc][reg][d]) defs.push_back(d);
  }
  return defs;
}

namespace {

/// Bitwise value identity for the constant lattice: NaN meets NaN as
/// equal so a join of two NaN-producing paths stays constant.
bool SameConstant(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case ValueKind::kNull:
      return true;
    case ValueKind::kBoolean:
      return a.AsBoolean() == b.AsBoolean();
    case ValueKind::kNumber: {
      double x = a.AsNumber();
      double y = b.AsNumber();
      uint64_t xb, yb;
      static_assert(sizeof(double) == sizeof(uint64_t), "");
      __builtin_memcpy(&xb, &x, sizeof(xb));
      __builtin_memcpy(&yb, &y, sizeof(yb));
      return xb == yb;
    }
    case ValueKind::kString:
      return a.AsString() == b.AsString();
    default:
      return false;  // nodes/sequences are never tracked as constants
  }
}

/// Meet of the constant lattice: kUndef is top, kVarying bottom.
void MeetConst(NvmConst* into, const NvmConst& other) {
  if (other.state == NvmConst::State::kUndef) return;
  if (into->state == NvmConst::State::kUndef) {
    *into = other;
    return;
  }
  if (into->state == NvmConst::State::kVarying) return;
  if (other.state == NvmConst::State::kVarying ||
      !SameConstant(into->value, other.value)) {
    into->state = NvmConst::State::kVarying;
    into->value = Value();
  }
}

}  // namespace

NvmConstants NvmConstants::Compute(const Program& program) {
  NvmConstants consts;
  const size_t n = program.code.size();
  consts.in_.assign(n, std::vector<NvmConst>(program.register_count));

  std::vector<bool> seen(n, false);
  std::deque<size_t> worklist;
  seen[0] = true;
  worklist.push_back(0);
  std::vector<size_t> succs;
  while (!worklist.empty()) {
    size_t pc = worklist.front();
    worklist.pop_front();
    const Instruction& ins = program.code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    std::vector<NvmConst> out = consts.in_[pc];
    if (roles.writes_a) {
      NvmConst result;
      result.state = NvmConst::State::kVarying;
      if (ins.op == OpCode::kLoadConst) {
        result.state = NvmConst::State::kConst;
        result.value = program.constants[ins.b];
      } else if (ins.op == OpCode::kMove) {
        result = out[ins.b];
        // An unwritten (kUndef) source stays kUndef: the verifier has
        // already rejected reads of never-written registers.
      }
      out[ins.a] = std::move(result);
    }
    NvmSuccessors(program, pc, &succs);
    for (size_t succ : succs) {
      if (!seen[succ]) {
        consts.in_[succ] = out;
        seen[succ] = true;
        worklist.push_back(succ);
        continue;
      }
      bool changed = false;
      for (size_t r = 0; r < out.size(); ++r) {
        NvmConst merged = consts.in_[succ][r];
        MeetConst(&merged, out[r]);
        if (merged.state != consts.in_[succ][r].state ||
            (merged.state == NvmConst::State::kConst &&
             !SameConstant(merged.value, consts.in_[succ][r].value))) {
          consts.in_[succ][r] = std::move(merged);
          changed = true;
        }
      }
      if (changed) worklist.push_back(succ);
    }
  }
  return consts;
}

const char* NvmKindName(NvmKind kind) {
  switch (kind) {
    case NvmKind::kUndef:
      return "undef";
    case NvmKind::kBoolean:
      return "boolean";
    case NvmKind::kNumber:
      return "number";
    case NvmKind::kString:
      return "string";
    case NvmKind::kNode:
      return "node";
    case NvmKind::kAtomic:
      return "atomic";
    case NvmKind::kAny:
      return "any";
  }
  return "?";
}

bool NvmKindIsAtomic(NvmKind kind) {
  return kind == NvmKind::kBoolean || kind == NvmKind::kNumber ||
         kind == NvmKind::kString || kind == NvmKind::kAtomic;
}

NvmKind NvmKindOfValue(const Value& value) {
  switch (value.kind()) {
    case ValueKind::kBoolean:
      return NvmKind::kBoolean;
    case ValueKind::kNumber:
      return NvmKind::kNumber;
    case ValueKind::kString:
      return NvmKind::kString;
    case ValueKind::kNode:
      return NvmKind::kNode;
    default:
      return NvmKind::kAny;
  }
}

namespace {

NvmKind JoinKind(NvmKind a, NvmKind b) {
  if (a == NvmKind::kUndef) return b;
  if (b == NvmKind::kUndef) return a;
  if (a == b) return a;
  if (NvmKindIsAtomic(a) && NvmKindIsAtomic(b)) return NvmKind::kAtomic;
  return NvmKind::kAny;
}

NvmKind ResultKind(const Program& program, const Instruction& ins,
                   const std::vector<NvmKind>& in) {
  switch (ins.op) {
    case OpCode::kLoadConst:
      return NvmKindOfValue(program.constants[ins.b]);
    case OpCode::kMove:
      return in[ins.b];
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kMod:
    case OpCode::kNeg:
    case OpCode::kToNum:
    case OpCode::kStepCount:
    case OpCode::kStringLength:
    case OpCode::kFloor:
    case OpCode::kCeiling:
    case OpCode::kRound:
      return NvmKind::kNumber;
    case OpCode::kNot:
    case OpCode::kToBool:
    case OpCode::kCompare:
    case OpCode::kCmpAttrConst:
    case OpCode::kStepExists:
    case OpCode::kStartsWith:
    case OpCode::kContains:
    case OpCode::kLang:
      return NvmKind::kBoolean;
    case OpCode::kToStr:
    case OpCode::kConcat2:
    case OpCode::kSubstringBefore:
    case OpCode::kSubstringAfter:
    case OpCode::kSubstring2:
    case OpCode::kSubstring3:
    case OpCode::kNormalizeSpace:
    case OpCode::kTranslate:
    case OpCode::kNodeName:
    case OpCode::kNodeLocalName:
      return NvmKind::kString;
    case OpCode::kRoot:
      return NvmKind::kNode;
    case OpCode::kEvalNested:
      // Nested aggregates reduce to number/boolean/string (Sec. 5.2.5).
      return NvmKind::kAtomic;
    default:
      return NvmKind::kAny;  // kLoadAttr, kLoadVar
  }
}

}  // namespace

NvmKinds NvmKinds::Compute(const Program& program) {
  NvmKinds kinds;
  const size_t n = program.code.size();
  kinds.in_.assign(n, std::vector<NvmKind>(program.register_count,
                                           NvmKind::kUndef));

  std::deque<size_t> worklist;
  std::vector<bool> seen(n, false);
  seen[0] = true;
  worklist.push_back(0);
  std::vector<size_t> succs;
  while (!worklist.empty()) {
    size_t pc = worklist.front();
    worklist.pop_front();
    const Instruction& ins = program.code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    std::vector<NvmKind> out = kinds.in_[pc];
    if (roles.writes_a) out[ins.a] = ResultKind(program, ins, kinds.in_[pc]);
    NvmSuccessors(program, pc, &succs);
    for (size_t succ : succs) {
      if (!seen[succ]) {
        kinds.in_[succ] = out;
        seen[succ] = true;
        worklist.push_back(succ);
        continue;
      }
      bool changed = false;
      for (size_t r = 0; r < out.size(); ++r) {
        NvmKind joined = JoinKind(kinds.in_[succ][r], out[r]);
        if (joined != kinds.in_[succ][r]) {
          kinds.in_[succ][r] = joined;
          changed = true;
        }
      }
      if (changed) worklist.push_back(succ);
    }
  }
  return kinds;
}

bool NvmInstructionIsPure(const Program& program, size_t pc,
                          const NvmKinds& kinds) {
  const Instruction& ins = program.code[pc];
  switch (ins.op) {
    case OpCode::kLoadConst:
    case OpCode::kLoadAttr:
    case OpCode::kMove:
      // Plain copies: no conversion, no failure mode.
      return true;
    case OpCode::kNot:
    case OpCode::kToBool:
      // boolean() is total for every value kind and never touches the
      // store (runtime/conversions.cc), so these are pure even over
      // nodes.
      return true;
    case OpCode::kAdd:
    case OpCode::kSub:
    case OpCode::kMul:
    case OpCode::kDiv:
    case OpCode::kMod:
    case OpCode::kNeg:
    case OpCode::kToNum:
    case OpCode::kToStr:
    case OpCode::kCompare:
    case OpCode::kConcat2:
    case OpCode::kStartsWith:
    case OpCode::kContains:
    case OpCode::kSubstringBefore:
    case OpCode::kSubstringAfter:
    case OpCode::kSubstring2:
    case OpCode::kSubstring3:
    case OpCode::kStringLength:
    case OpCode::kNormalizeSpace:
    case OpCode::kTranslate:
    case OpCode::kFloor:
    case OpCode::kCeiling:
    case OpCode::kRound: {
      // number()/string() of a node reads its string-value from the
      // page buffer; of an atomic they are total and store-free.
      NvmOperandRoles roles = NvmRolesOf(ins);
      for (int i = 0; i < roles.read_count; ++i) {
        if (!NvmKindIsAtomic(kinds.In(pc, roles.read(ins, i)))) return false;
      }
      return true;
    }
    default:
      // kLoadVar can fail on an unbound variable, kEvalNested runs a
      // subplan, node navigation and the step loops read the store,
      // control flow is not a store. All stay untouched.
      return false;
  }
}

StatusOr<Value> NvmEvaluateConstInstruction(
    const Program& program, size_t pc, const std::vector<Value>& operands) {
  const Instruction& ins = program.code[pc];
  NvmOperandRoles roles = NvmRolesOf(ins);
  if (!roles.writes_a ||
      roles.read_count != static_cast<int>(operands.size())) {
    return Status::Internal("const fold: operand arity mismatch");
  }
  Program mini;
  mini.constants = operands;
  for (size_t i = 0; i < operands.size(); ++i) {
    Instruction load;
    load.op = OpCode::kLoadConst;
    load.a = static_cast<uint16_t>(i);
    load.b = static_cast<uint16_t>(i);
    mini.code.push_back(load);
  }
  Instruction clone = ins;
  for (int i = 0; i < roles.read_count; ++i) {
    clone.*(roles.read_fields[i]) = static_cast<uint16_t>(i);
  }
  clone.a = static_cast<uint16_t>(operands.size());
  mini.code.push_back(clone);
  Instruction halt;
  halt.op = OpCode::kHalt;
  halt.a = clone.a;
  mini.code.push_back(halt);
  mini.register_count = static_cast<uint16_t>(operands.size() + 1);

  // The real interpreter evaluates the fold; purity guarantees it never
  // dereferences the (null) store or the nested table.
  nvm::Vm vm(&mini);
  runtime::RegisterFile tuple(0);
  runtime::EvalContext ctx;
  nvm::NestedEvaluator nested = [](size_t) -> StatusOr<Value> {
    return Status::Internal("const fold: nested plan access");
  };
  return vm.Run(tuple, ctx, {}, nested);
}

namespace {

std::string RenderTarget(const NvmCfg* cfg, size_t target) {
  if (cfg != nullptr && target < cfg->block_of.size()) {
    std::string label = cfg->LabelAt(target);
    if (!label.empty()) return "-> " + label;
  }
  return "-> @" + std::to_string(target);
}

std::string RenderInstruction(const Program& program, size_t pc,
                              const NvmCfg* cfg) {
  const Instruction& ins = program.code[pc];
  std::string out = OpCodeName(ins.op);
  auto reg = [](uint16_t r) { return " r" + std::to_string(r); };
  auto cmp_name = [](uint16_t d) {
    return std::string(
        runtime::CompareOpName(static_cast<runtime::CompareOp>(d & 0xFF)));
  };
  switch (ins.op) {
    case OpCode::kLoadConst:
      out += reg(ins.a) + ", " +
             (ins.b < program.constants.size()
                  ? program.constants[ins.b].DebugString()
                  : "c?" + std::to_string(ins.b));
      break;
    case OpCode::kLoadAttr:
      out += reg(ins.a) + ", t" + std::to_string(ins.b);
      break;
    case OpCode::kLoadVar:
      out += reg(ins.a) + ", $" +
             (ins.b < program.variable_names.size()
                  ? program.variable_names[ins.b]
                  : "?" + std::to_string(ins.b));
      break;
    case OpCode::kCompare:
      out += reg(ins.a) + "," + reg(ins.b) + " " + cmp_name(ins.d) +
             reg(ins.c);
      break;
    case OpCode::kJump:
      out += " " + RenderTarget(cfg, ins.b);
      break;
    case OpCode::kJumpIfTrue:
    case OpCode::kJumpIfFalse:
      out += reg(ins.a) + " " + RenderTarget(cfg, ins.b);
      break;
    case OpCode::kEvalNested:
      out += reg(ins.a) + ", nested#" + std::to_string(ins.b);
      break;
    case OpCode::kHalt:
      out += reg(ins.a);
      break;
    case OpCode::kCmpAttrConst: {
      std::string attr = "t" + std::to_string(ins.b);
      std::string constant = ins.c < program.constants.size()
                                 ? program.constants[ins.c].DebugString()
                                 : "c?" + std::to_string(ins.c);
      bool swapped = (ins.d & nvm::kCmpFlagBit) != 0;
      out += reg(ins.a) + ", " + (swapped ? constant : attr) + " " +
             cmp_name(ins.d) + " " + (swapped ? attr : constant);
      break;
    }
    case OpCode::kStepExists:
    case OpCode::kStepCount: {
      out += reg(ins.a) + ", t" + std::to_string(ins.b) + "/";
      if (ins.c >= program.steps.size()) {
        out += "step?" + std::to_string(ins.c);
        break;
      }
      const nvm::StepLoop& step = program.steps[ins.c];
      out += step.text;
      if (step.compare) {
        out += std::string(" ") + runtime::CompareOpName(step.cmp) + " " +
               step.constant.DebugString();
      }
      break;
    }
    case OpCode::kCmpBranch:
      out += reg(ins.b) + " " + cmp_name(ins.d) + reg(ins.c) + ", on " +
             ((ins.d & nvm::kCmpFlagBit) != 0 ? "true " : "false ") +
             RenderTarget(cfg, ins.a);
      break;
    default: {
      NvmOperandRoles roles = NvmRolesOf(ins);
      out += reg(ins.a);
      for (int i = 0; i < roles.read_count; ++i) {
        out += "," + reg(roles.read(ins, i));
      }
      break;
    }
  }
  return out;
}

}  // namespace

std::string RenderNvmInstruction(const Program& program, size_t pc) {
  return RenderInstruction(program, pc, nullptr);
}

std::string RenderNvmProgram(const Program& program) {
  if (program.code.empty()) return "(empty program)\n";
  NvmCfg cfg = NvmCfg::Build(program);
  std::string out;
  for (size_t pc = 0; pc < program.code.size(); ++pc) {
    std::string label = cfg.LabelAt(pc);
    if (!label.empty()) {
      out += label + ":";
      if (!cfg.Reachable(pc)) out += "  ; unreachable";
      out += "\n";
    }
    out += "  " + std::to_string(pc) + ": " +
           RenderInstruction(program, pc, &cfg) + "\n";
  }
  return out;
}

}  // namespace natix::analysis
