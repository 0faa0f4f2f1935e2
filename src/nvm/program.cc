#include "nvm/program.h"

#include <algorithm>
#include <deque>

namespace natix::nvm {

const char* OpCodeName(OpCode op) {
  switch (op) {
    case OpCode::kLoadConst:
      return "load_const";
    case OpCode::kLoadAttr:
      return "load_attr";
    case OpCode::kLoadVar:
      return "load_var";
    case OpCode::kAdd:
      return "add";
    case OpCode::kSub:
      return "sub";
    case OpCode::kMul:
      return "mul";
    case OpCode::kDiv:
      return "div";
    case OpCode::kMod:
      return "mod";
    case OpCode::kNeg:
      return "neg";
    case OpCode::kNot:
      return "not";
    case OpCode::kToBool:
      return "to_bool";
    case OpCode::kToNum:
      return "to_num";
    case OpCode::kToStr:
      return "to_str";
    case OpCode::kCompare:
      return "compare";
    case OpCode::kJump:
      return "jump";
    case OpCode::kJumpIfTrue:
      return "jump_if_true";
    case OpCode::kJumpIfFalse:
      return "jump_if_false";
    case OpCode::kConcat2:
      return "concat2";
    case OpCode::kStartsWith:
      return "starts_with";
    case OpCode::kContains:
      return "contains";
    case OpCode::kSubstringBefore:
      return "substring_before";
    case OpCode::kSubstringAfter:
      return "substring_after";
    case OpCode::kSubstring2:
      return "substring2";
    case OpCode::kSubstring3:
      return "substring3";
    case OpCode::kStringLength:
      return "string_length";
    case OpCode::kNormalizeSpace:
      return "normalize_space";
    case OpCode::kTranslate:
      return "translate";
    case OpCode::kFloor:
      return "floor";
    case OpCode::kCeiling:
      return "ceiling";
    case OpCode::kRound:
      return "round";
    case OpCode::kRoot:
      return "root";
    case OpCode::kNodeName:
      return "node_name";
    case OpCode::kNodeLocalName:
      return "node_local_name";
    case OpCode::kLang:
      return "lang";
    case OpCode::kEvalNested:
      return "eval_nested";
    case OpCode::kHalt:
      return "halt";
    case OpCode::kStepExists:
      return "step_exists";
    case OpCode::kStepCount:
      return "step_count";
  }
  return "?";
}

OperandRoles RolesOf(const Instruction& ins) {
  OperandRoles roles;
  auto read = [&roles](OperandRoles::Field field) {
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
    case OpCode::kStepExists:
    case OpCode::kStepCount:
      roles.writes_a = true;
      roles.attr_b = true;
      roles.step_c = true;
      break;
  }
  return roles;
}

void Successors(const Program& program, size_t pc, std::vector<size_t>* out) {
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
    default:
      if (pc + 1 < program.code.size()) out->push_back(pc + 1);
      break;
  }
}

Cfg Cfg::Build(const Program& program) {
  Cfg cfg;
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
    if (RolesOf(ins).jump_b && ins.b < n) leader[ins.b] = true;
    const bool ends_block = ins.op == OpCode::kJump ||
                            ins.op == OpCode::kJumpIfTrue ||
                            ins.op == OpCode::kJumpIfFalse ||
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
    Successors(program, last, &succs);
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

std::string Cfg::LabelAt(size_t pc) const {
  size_t b = block_of[pc];
  if (blocks[b].begin != pc) return std::string();
  return "L" + std::to_string(b);
}

namespace {

std::string RenderTarget(const Cfg* cfg, size_t target) {
  if (cfg != nullptr && target < cfg->block_of.size()) {
    std::string label = cfg->LabelAt(target);
    if (!label.empty()) return "-> " + label;
  }
  return "-> @" + std::to_string(target);
}

std::string Render(const Program& program, size_t pc, const Cfg* cfg) {
  const Instruction& ins = program.code[pc];
  std::string out = OpCodeName(ins.op);
  auto reg = [](uint16_t r) { return " r" + std::to_string(r); };
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
      out += reg(ins.a) + "," + reg(ins.b) + " " +
             runtime::CompareOpName(static_cast<runtime::CompareOp>(ins.d)) +
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
    case OpCode::kStepExists:
    case OpCode::kStepCount: {
      out += reg(ins.a) + ", t" + std::to_string(ins.b) + "/";
      if (ins.c >= program.steps.size()) {
        out += "step?" + std::to_string(ins.c);
        break;
      }
      const StepLoop& step = program.steps[ins.c];
      out += step.text;
      if (step.compare) {
        out += std::string(" ") + runtime::CompareOpName(step.cmp) + " " +
               step.constant.DebugString();
      }
      break;
    }
    default: {
      OperandRoles roles = RolesOf(ins);
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

std::string RenderInstruction(const Program& program, size_t pc) {
  return Render(program, pc, nullptr);
}

std::string Program::Disassemble() const {
  if (code.empty()) return "(empty program)\n";
  Cfg cfg = Cfg::Build(*this);
  std::string out;
  for (size_t pc = 0; pc < code.size(); ++pc) {
    std::string label = cfg.LabelAt(pc);
    if (!label.empty()) {
      out += label + ":";
      if (!cfg.Reachable(pc)) out += "  ; unreachable";
      out += "\n";
    }
    out += "  " + std::to_string(pc) + ": " + Render(*this, pc, &cfg) + "\n";
  }
  return out;
}

}  // namespace natix::nvm
