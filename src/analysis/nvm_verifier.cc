#include <cstdint>
#include <deque>
#include <vector>

#include "analysis/plan_verifier.h"
#include "runtime/conversions.h"

namespace natix::analysis {

namespace {

using nvm::Instruction;
using nvm::OpCode;
using nvm::OpCodeName;
using nvm::Program;

Status Malformed(const Program& program, size_t pc, const std::string& detail) {
  const Instruction& ins = program.code[pc];
  return Status::Internal("plan verifier (nvm): pc " + std::to_string(pc) +
                          " " + OpCodeName(ins.op) + ": " + detail + " [" +
                          nvm::RenderInstruction(program, pc) + "]");
}

/// Definitely-written frame registers, merged by intersection at control
/// flow joins.
using Defs = std::vector<bool>;

void Intersect(Defs* into, const Defs& other) {
  for (size_t i = 0; i < into->size(); ++i) {
    (*into)[i] = (*into)[i] && other[i];
  }
}

}  // namespace

Status VerifyProgram(const Program& program, size_t tuple_register_count,
                     size_t nested_count) {
  const std::vector<Instruction>& code = program.code;
  if (code.empty()) {
    return Status::Internal("plan verifier (nvm): empty program");
  }

  // Structural pass: operand bounds for every instruction, reachable or
  // not, and no instruction whose fall-through leaves the program. The
  // operand-role model is the one the listing and code generation read
  // (nvm/program.h).
  for (size_t pc = 0; pc < code.size(); ++pc) {
    const Instruction& ins = code[pc];
    nvm::OperandRoles roles = nvm::RolesOf(ins);
    if (roles.writes_a && ins.a >= program.register_count) {
      return Malformed(program, pc,
                       "writes register r" + std::to_string(ins.a) +
                           " outside the frame of " +
                           std::to_string(program.register_count));
    }
    for (int i = 0; i < roles.read_count; ++i) {
      if (roles.read(ins, i) >= program.register_count) {
        return Malformed(program, pc,
                         "reads register r" +
                             std::to_string(roles.read(ins, i)) +
                             " outside the frame of " +
                             std::to_string(program.register_count));
      }
    }
    if (roles.const_b && ins.b >= program.constants.size()) {
      return Malformed(program, pc,
                       "constant index " + std::to_string(ins.b) +
                           " out of range");
    }
    if (roles.step_c) {
      if (ins.c >= program.steps.size()) {
        return Malformed(program, pc,
                         "step index " + std::to_string(ins.c) +
                             " out of range");
      }
      const nvm::StepLoop& step = program.steps[ins.c];
      if (step.axis != runtime::Axis::kChild &&
          step.axis != runtime::Axis::kAttribute) {
        return Malformed(program, pc,
                         std::string("step loop on the ") +
                             runtime::AxisName(step.axis) +
                             " axis (child or attribute only)");
      }
      if (step.compare &&
          (step.cmp > runtime::CompareOp::kGe ||
           (step.constant.kind() != runtime::ValueKind::kString &&
            step.constant.kind() != runtime::ValueKind::kNumber))) {
        return Malformed(program, pc,
                         "step loop compares with a non-literal operand");
      }
    }
    if (roles.var_b && ins.b >= program.variable_names.size()) {
      return Malformed(program, pc,
                       "variable index " + std::to_string(ins.b) +
                           " out of range");
    }
    if (roles.attr_b && ins.b >= tuple_register_count) {
      return Malformed(program, pc,
                       "tuple register r" + std::to_string(ins.b) +
                           " outside the plan register file of " +
                           std::to_string(tuple_register_count));
    }
    if (roles.nested_b && ins.b >= nested_count) {
      return Malformed(program, pc,
                       "nested plan index " + std::to_string(ins.b) +
                           " out of range");
    }
    if (roles.jump_b && ins.b >= code.size()) {
      return Malformed(program, pc,
                       "jump target " + std::to_string(ins.b) +
                           " out of range");
    }
    if (roles.cmp_d &&
        ins.d > static_cast<uint16_t>(runtime::CompareOp::kGe)) {
      return Malformed(program, pc,
                       "invalid comparison code " + std::to_string(ins.d));
    }
    bool falls_through = ins.op != OpCode::kHalt && ins.op != OpCode::kJump;
    if (falls_through && pc + 1 == code.size()) {
      return Malformed(program, pc, "program can fall off the end");
    }
  }

  // Dataflow pass: no read of a never-written register on any path.
  // Forward must-analysis with intersection at merges.
  std::vector<Defs> in(code.size());
  std::vector<bool> seen(code.size(), false);
  std::deque<size_t> worklist;
  in[0] = Defs(program.register_count, false);
  seen[0] = true;
  worklist.push_back(0);

  std::vector<size_t> succs;
  while (!worklist.empty()) {
    size_t pc = worklist.front();
    worklist.pop_front();
    const Instruction& ins = code[pc];
    nvm::OperandRoles roles = nvm::RolesOf(ins);
    for (int i = 0; i < roles.read_count; ++i) {
      if (!in[pc][roles.read(ins, i)]) {
        return Malformed(program, pc,
                         "reads register r" +
                             std::to_string(roles.read(ins, i)) +
                             " before it is written on every path");
      }
    }
    Defs out = in[pc];
    if (roles.writes_a) out[ins.a] = true;

    nvm::Successors(program, pc, &succs);
    for (size_t succ : succs) {
      if (!seen[succ]) {
        in[succ] = out;
        seen[succ] = true;
        worklist.push_back(succ);
        continue;
      }
      // Re-queue only when the merge actually removes definitions.
      Defs merged = in[succ];
      Intersect(&merged, out);
      if (merged != in[succ]) {
        in[succ] = std::move(merged);
        worklist.push_back(succ);
      }
    }
  }
  return Status::OK();
}

}  // namespace natix::analysis
