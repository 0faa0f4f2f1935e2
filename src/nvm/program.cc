#include "nvm/program.h"

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
    case OpCode::kMove:
      return "move";
    case OpCode::kCmpAttrConst:
      return "cmp_attr_const";
    case OpCode::kCmpBranch:
      return "cmp_branch";
    case OpCode::kStepExists:
      return "step_exists";
    case OpCode::kStepCount:
      return "step_count";
  }
  return "?";
}

std::string Program::Disassemble() const {
  std::string out;
  for (size_t pc = 0; pc < code.size(); ++pc) {
    const Instruction& ins = code[pc];
    out += std::to_string(pc) + ": " + OpCodeName(ins.op) + " r" +
           std::to_string(ins.a);
    switch (ins.op) {
      case OpCode::kLoadConst:
        out += ", " + constants[ins.b].DebugString();
        break;
      case OpCode::kLoadAttr:
        out += ", attr#" + std::to_string(ins.b);
        break;
      case OpCode::kLoadVar:
        out += ", $" + variable_names[ins.b];
        break;
      case OpCode::kJump:
      case OpCode::kJumpIfTrue:
      case OpCode::kJumpIfFalse:
        out += " -> " + std::to_string(ins.b);
        break;
      case OpCode::kEvalNested:
        out += ", nested#" + std::to_string(ins.b);
        break;
      case OpCode::kCompare:
        out += ", r" + std::to_string(ins.b) + ", r" + std::to_string(ins.c) +
               ", op#" + std::to_string(ins.d);
        break;
      case OpCode::kCmpAttrConst:
        out += ", attr#" + std::to_string(ins.b) + ", " +
               constants[ins.c].DebugString() + ", op#" +
               std::to_string(ins.d);
        break;
      case OpCode::kCmpBranch:
        // The `a` printed above is the jump target, not a register.
        out += ", r" + std::to_string(ins.b) + ", r" + std::to_string(ins.c) +
               ", op#" + std::to_string(ins.d) + " -> " +
               std::to_string(ins.a);
        break;
      case OpCode::kStepExists:
      case OpCode::kStepCount:
        out += ", attr#" + std::to_string(ins.b) + ", step#" +
               std::to_string(ins.c);
        break;
      case OpCode::kHalt:
        break;
      default:
        out += ", r" + std::to_string(ins.b);
        if (ins.c != 0 || ins.op == OpCode::kConcat2) {
          out += ", r" + std::to_string(ins.c);
        }
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace natix::nvm
