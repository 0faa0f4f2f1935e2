#include "analysis/nvm_optimizer.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/nvm_dataflow.h"
#include "analysis/plan_verifier.h"
#include "runtime/conversions.h"

namespace natix::analysis {

namespace {

using nvm::Instruction;
using nvm::OpCode;
using nvm::Program;
using runtime::Value;

NvmOptimizerTestPass g_test_pass = nullptr;

struct PassState {
  Program* program;
  const std::string& site;
  algebra::RewriteLog* log;
};

void LogEvent(PassState& state, const char* pass, size_t pc,
              std::string justification) {
  if (state.log == nullptr) return;
  algebra::RewriteEvent event;
  event.rule = std::string("nvm:") + pass;
  event.target = state.site + " pc " + std::to_string(pc) + " " +
                 OpCodeName(state.program->code[pc].op);
  event.justification = std::move(justification);
  state.log->push_back(std::move(event));
}

/// Removes the instructions marked dead and remaps every jump target to
/// the first surviving instruction at or after it. Returns whether
/// anything was removed.
bool Compact(Program* program, const std::vector<bool>& dead) {
  const size_t n = program->code.size();
  std::vector<uint16_t> new_index(n + 1, 0);
  uint16_t kept = 0;
  for (size_t pc = 0; pc < n; ++pc) {
    new_index[pc] = kept;
    if (!dead[pc]) ++kept;
  }
  new_index[n] = kept;
  if (kept == n) return false;

  std::vector<Instruction> code;
  code.reserve(kept);
  for (size_t pc = 0; pc < n; ++pc) {
    if (dead[pc]) continue;
    Instruction ins = program->code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    // A target whose instruction died remaps to the next survivor (the
    // removed instruction fell through); a target past every survivor
    // becomes out of range and the re-verification rejects it.
    if (roles.jump_b) ins.b = new_index[ins.b];
    if (roles.jump_a) ins.a = new_index[ins.a];
    code.push_back(ins);
  }
  program->code = std::move(code);
  return true;
}

uint16_t AddConstant(Program* program, Value value) {
  // Identical constants are shared; the pool stays small and the final
  // pool compaction drops orphaned entries.
  program->constants.push_back(std::move(value));
  return static_cast<uint16_t>(program->constants.size() - 1);
}

std::string DescribeValue(const Value& v) { return v.DebugString(); }

// ---------------------------------------------------------------------------
// const-fold: replace pure instructions whose operands are all constant
// with a kLoadConst of the value the real Vm computes for them.

bool ConstFoldPass(PassState& state) {
  Program& p = *state.program;
  NvmConstants consts = NvmConstants::Compute(p);
  NvmKinds kinds = NvmKinds::Compute(p);
  NvmCfg cfg = NvmCfg::Build(p);
  bool changed = false;
  for (size_t pc = 0; pc < p.code.size(); ++pc) {
    if (!cfg.Reachable(pc)) continue;
    Instruction& ins = p.code[pc];
    if (ins.op == OpCode::kLoadConst) continue;
    NvmOperandRoles roles = NvmRolesOf(ins);
    if (!roles.writes_a || roles.read_count == 0) continue;

    if (ins.op == OpCode::kMove) {
      const NvmConst& src = consts.In(pc, ins.b);
      if (src.state != NvmConst::State::kConst) continue;
      std::string fact = "constants: source r" + std::to_string(ins.b) +
                         " is always " + DescribeValue(src.value);
      Value value = src.value;
      ins.op = OpCode::kLoadConst;
      ins.b = AddConstant(&p, std::move(value));
      ins.c = ins.d = 0;
      LogEvent(state, "const-fold", pc, std::move(fact));
      changed = true;
      continue;
    }

    if (!NvmInstructionIsPure(p, pc, kinds)) continue;
    std::vector<Value> operands;
    std::string fact = "constants:";
    bool all_const = true;
    for (int i = 0; i < roles.read_count; ++i) {
      uint16_t r = roles.read(ins, i);
      const NvmConst& c = consts.In(pc, r);
      // Purity already proved the operand kinds atomic; a constant of a
      // non-atomic kind cannot occur, but stay defensive.
      if (c.state != NvmConst::State::kConst ||
          !NvmKindIsAtomic(NvmKindOfValue(c.value))) {
        all_const = false;
        break;
      }
      fact += std::string(i == 0 ? " " : ", ") + "r" + std::to_string(r) +
              " = " + DescribeValue(c.value);
      operands.push_back(c.value);
    }
    if (!all_const) continue;
    StatusOr<Value> folded = NvmEvaluateConstInstruction(p, pc, operands);
    if (!folded.ok()) continue;  // never for pure ops; keep the program
    fact += "; folds to " + DescribeValue(*folded);
    ins.op = OpCode::kLoadConst;
    ins.b = AddConstant(&p, std::move(folded).value());
    ins.c = ins.d = 0;
    LogEvent(state, "const-fold", pc, std::move(fact));
    changed = true;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// copy-prop: a read whose sole reaching definition is a register move
// reads the move's source instead, provided the source is unmodified on
// every path from the move.

bool CopyPropPass(PassState& state) {
  Program& p = *state.program;
  NvmReachingDefs rd = NvmReachingDefs::Compute(p);
  NvmCfg cfg = NvmCfg::Build(p);
  bool changed = false;
  for (size_t pc = 0; pc < p.code.size(); ++pc) {
    if (!cfg.Reachable(pc)) continue;
    Instruction& ins = p.code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    for (int i = 0; i < roles.read_count; ++i) {
      uint16_t r = roles.read(ins, i);
      std::vector<size_t> defs = rd.DefsReaching(pc, r);
      if (defs.size() != 1) continue;
      size_t def = defs[0];
      const Instruction& move = p.code[def];
      if (move.op != OpCode::kMove || move.a != r || move.b == r) continue;
      // The source must reach this read untouched: the definitions of
      // the source seen here must be exactly those seen at the move.
      if (rd.DefsReaching(pc, move.b) != rd.DefsReaching(def, move.b)) {
        continue;
      }
      ins.*(roles.read_fields[i]) = move.b;
      LogEvent(state, "copy-prop", pc,
               "reaching-defs: r" + std::to_string(r) +
                   " is solely defined by the move at pc " +
                   std::to_string(def) + "; source r" +
                   std::to_string(move.b) + " is unmodified in between");
      changed = true;
    }
  }
  return changed;
}

// ---------------------------------------------------------------------------
// conversion-elim: a conversion applied to a value statically of the
// target kind is the identity and becomes a register move.

bool ConversionElimPass(PassState& state) {
  Program& p = *state.program;
  NvmKinds kinds = NvmKinds::Compute(p);
  NvmCfg cfg = NvmCfg::Build(p);
  bool changed = false;
  for (size_t pc = 0; pc < p.code.size(); ++pc) {
    if (!cfg.Reachable(pc)) continue;
    Instruction& ins = p.code[pc];
    NvmKind wanted;
    switch (ins.op) {
      case OpCode::kToBool:
        wanted = NvmKind::kBoolean;
        break;
      case OpCode::kToNum:
        wanted = NvmKind::kNumber;
        break;
      case OpCode::kToStr:
        wanted = NvmKind::kString;
        break;
      default:
        continue;
    }
    if (kinds.In(pc, ins.b) != wanted) continue;
    std::string fact = std::string("kinds: r") + std::to_string(ins.b) +
                       " is statically " + NvmKindName(wanted) + "; " +
                       OpCodeName(ins.op) + " is the identity";
    ins.op = OpCode::kMove;
    LogEvent(state, "conversion-elim", pc, std::move(fact));
    changed = true;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// jump-thread: resolve constant branch conditions, chase chains of
// unconditional jumps, and drop jumps to the fall-through successor.

bool JumpThreadPass(PassState& state) {
  Program& p = *state.program;
  const size_t n = p.code.size();
  NvmConstants consts = NvmConstants::Compute(p);
  NvmCfg cfg = NvmCfg::Build(p);
  std::vector<bool> dead(n, false);
  bool changed = false;

  // Constant branch conditions. boolean() is total for every value
  // kind, so resolving the branch direction statically is always sound.
  runtime::EvalContext null_ctx;
  for (size_t pc = 0; pc < n; ++pc) {
    if (!cfg.Reachable(pc)) continue;
    Instruction& ins = p.code[pc];
    if (ins.op != OpCode::kJumpIfTrue && ins.op != OpCode::kJumpIfFalse) {
      continue;
    }
    const NvmConst& cond = consts.In(pc, ins.a);
    if (cond.state != NvmConst::State::kConst ||
        !NvmKindIsAtomic(NvmKindOfValue(cond.value))) {
      continue;
    }
    StatusOr<bool> truth = runtime::ToBoolean(cond.value, null_ctx);
    if (!truth.ok()) continue;
    const bool taken = (ins.op == OpCode::kJumpIfTrue) == *truth;
    std::string fact = "constants: condition r" + std::to_string(ins.a) +
                       " is always " + (*truth ? "true" : "false") +
                       (taken ? "; branch always taken"
                              : "; branch never taken");
    LogEvent(state, "jump-thread", pc, std::move(fact));
    if (taken) {
      ins.op = OpCode::kJump;
      ins.a = 0;
    } else {
      dead[pc] = true;
    }
    changed = true;
  }

  // Chase chains of unconditional jumps (with a visited set: an
  // empty-body self-loop must not spin the optimizer).
  auto final_target = [&](size_t target) {
    std::vector<bool> visited(n, false);
    while (target < n && !dead[target] &&
           p.code[target].op == OpCode::kJump && !visited[target]) {
      visited[target] = true;
      target = p.code[target].b;
    }
    return target;
  };
  for (size_t pc = 0; pc < n; ++pc) {
    if (dead[pc] || !cfg.Reachable(pc)) continue;
    Instruction& ins = p.code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    uint16_t* target = roles.jump_b ? &ins.b : roles.jump_a ? &ins.a : nullptr;
    if (target == nullptr) continue;
    size_t threaded = final_target(*target);
    if (threaded == *target || threaded >= n) continue;
    LogEvent(state, "jump-thread", pc,
             "cfg: target @" + std::to_string(*target) +
                 " is an unconditional jump chain ending at @" +
                 std::to_string(threaded));
    *target = static_cast<uint16_t>(threaded);
    changed = true;
  }

  // Jumps (conditional or not) to the fall-through successor do
  // nothing. Conditional ones are removable because boolean() of the
  // condition cannot fail.
  for (size_t pc = 0; pc + 1 < n; ++pc) {
    if (dead[pc]) continue;
    const Instruction& ins = p.code[pc];
    const bool is_jump = ins.op == OpCode::kJump ||
                         ins.op == OpCode::kJumpIfTrue ||
                         ins.op == OpCode::kJumpIfFalse;
    if (!is_jump || ins.b != pc + 1) continue;
    LogEvent(state, "jump-thread", pc,
             "cfg: both successors are the fall-through instruction");
    dead[pc] = true;
    changed = true;
  }

  if (Compact(&p, dead)) changed = true;
  return changed;
}

// ---------------------------------------------------------------------------
// peephole: superinstruction formation. Both fusions require that no
// jump lands inside the fused range and that the intermediate registers
// are dead afterwards (liveness is the proving fact).

bool PeepholePass(PassState& state) {
  Program& p = *state.program;
  const size_t n = p.code.size();
  NvmLiveness live = NvmLiveness::Compute(p);
  NvmCfg cfg = NvmCfg::Build(p);
  std::vector<bool> is_target(n, false);
  for (size_t pc = 0; pc < n; ++pc) {
    NvmOperandRoles roles = NvmRolesOf(p.code[pc]);
    if (roles.jump_b && p.code[pc].b < n) is_target[p.code[pc].b] = true;
    if (roles.jump_a && p.code[pc].a < n) is_target[p.code[pc].a] = true;
  }
  std::vector<bool> dead(n, false);
  bool changed = false;

  // load_attr + load_const + compare (either load order) -> kCmpAttrConst.
  for (size_t pc = 0; pc + 2 < n; ++pc) {
    if (dead[pc] || dead[pc + 1] || dead[pc + 2]) continue;
    if (!cfg.Reachable(pc)) continue;
    if (is_target[pc + 1] || is_target[pc + 2]) continue;
    const Instruction& first = p.code[pc];
    const Instruction& second = p.code[pc + 1];
    const Instruction& cmp = p.code[pc + 2];
    if (cmp.op != OpCode::kCompare) continue;
    const Instruction* attr_load = nullptr;
    const Instruction* const_load = nullptr;
    if (first.op == OpCode::kLoadAttr && second.op == OpCode::kLoadConst) {
      attr_load = &first;
      const_load = &second;
    } else if (first.op == OpCode::kLoadConst &&
               second.op == OpCode::kLoadAttr) {
      attr_load = &second;
      const_load = &first;
    } else {
      continue;
    }
    const uint16_t attr_reg = attr_load->a;
    const uint16_t const_reg = const_load->a;
    if (attr_reg == const_reg) continue;
    bool swapped;  // constant on the left of the comparison
    if (cmp.b == attr_reg && cmp.c == const_reg) {
      swapped = false;
    } else if (cmp.b == const_reg && cmp.c == attr_reg) {
      swapped = true;
    } else {
      continue;
    }
    // The loads' destinations must die with the compare (the compare's
    // own destination may reuse one of them — the fused instruction
    // still writes it).
    if (attr_reg != cmp.a && live.LiveOut(pc + 2, attr_reg)) continue;
    if (const_reg != cmp.a && live.LiveOut(pc + 2, const_reg)) continue;

    Instruction fused;
    fused.op = OpCode::kCmpAttrConst;
    fused.a = cmp.a;
    fused.b = attr_load->b;
    fused.c = const_load->b;
    fused.d =
        static_cast<uint16_t>(cmp.d | (swapped ? nvm::kCmpFlagBit : 0));
    p.code[pc] = fused;
    dead[pc + 1] = true;
    dead[pc + 2] = true;
    LogEvent(state, "peephole", pc,
             "liveness: r" + std::to_string(attr_reg) + ", r" +
                 std::to_string(const_reg) + " are dead after pc " +
                 std::to_string(pc + 2) +
                 "; cfg: no jump enters the fused range");
    changed = true;
  }

  // compare + conditional jump -> kCmpBranch when the boolean result is
  // used only to branch.
  for (size_t pc = 0; pc + 1 < n; ++pc) {
    if (dead[pc] || dead[pc + 1]) continue;
    if (!cfg.Reachable(pc)) continue;
    if (is_target[pc + 1]) continue;
    const Instruction& cmp = p.code[pc];
    const Instruction& branch = p.code[pc + 1];
    if (cmp.op != OpCode::kCompare) continue;
    if (branch.op != OpCode::kJumpIfTrue &&
        branch.op != OpCode::kJumpIfFalse) {
      continue;
    }
    if (branch.a != cmp.a) continue;
    if (live.LiveOut(pc + 1, cmp.a)) continue;

    Instruction fused;
    fused.op = OpCode::kCmpBranch;
    fused.a = branch.b;  // jump target
    fused.b = cmp.b;
    fused.c = cmp.c;
    fused.d = static_cast<uint16_t>(
        cmp.d |
        (branch.op == OpCode::kJumpIfTrue ? nvm::kCmpFlagBit : 0));
    p.code[pc] = fused;
    dead[pc + 1] = true;
    LogEvent(state, "peephole", pc,
             "liveness: r" + std::to_string(cmp.a) +
                 " is dead after the branch at pc " + std::to_string(pc + 1) +
                 " on both paths; cfg: no jump enters the fused range");
    changed = true;
  }

  if (Compact(&p, dead)) changed = true;
  return changed;
}

// ---------------------------------------------------------------------------
// dce: unreachable blocks, then stores that are provably pure and dead.

bool DcePass(PassState& state) {
  Program& p = *state.program;
  const size_t n = p.code.size();
  NvmCfg cfg = NvmCfg::Build(p);
  NvmLiveness live = NvmLiveness::Compute(p);
  NvmKinds kinds = NvmKinds::Compute(p);
  std::vector<bool> dead(n, false);
  bool changed = false;

  for (const NvmCfg::Block& block : cfg.blocks) {
    if (block.reachable) continue;
    LogEvent(state, "dce", block.begin,
             "cfg: block at pc " + std::to_string(block.begin) + "-" +
                 std::to_string(block.end - 1) +
                 " is unreachable from the entry");
    for (size_t pc = block.begin; pc < block.end; ++pc) dead[pc] = true;
    changed = true;
  }

  for (size_t pc = 0; pc < n; ++pc) {
    if (dead[pc] || !cfg.Reachable(pc)) continue;
    const Instruction& ins = p.code[pc];
    NvmOperandRoles roles = NvmRolesOf(ins);
    if (!roles.writes_a || live.LiveOut(pc, ins.a)) continue;
    if (!NvmInstructionIsPure(p, pc, kinds)) continue;
    LogEvent(state, "dce", pc,
             "liveness: r" + std::to_string(ins.a) + " is dead after pc " +
                 std::to_string(pc) +
                 "; kinds: evaluation is pure (total, store-free)");
    dead[pc] = true;
    changed = true;
  }

  if (Compact(&p, dead)) changed = true;
  return changed;
}

// ---------------------------------------------------------------------------
// Epilogue cleanups (no instruction-count effect, not logged): shrink
// the frame to the registers actually referenced and drop orphaned
// constant-pool entries.

void ShrinkFrame(Program* program) {
  uint16_t max_reg = 0;
  bool any = false;
  for (const Instruction& ins : program->code) {
    NvmOperandRoles roles = NvmRolesOf(ins);
    if (roles.writes_a) {
      max_reg = std::max(max_reg, ins.a);
      any = true;
    }
    for (int i = 0; i < roles.read_count; ++i) {
      max_reg = std::max(max_reg, roles.read(ins, i));
      any = true;
    }
  }
  uint16_t needed = any ? static_cast<uint16_t>(max_reg + 1) : 0;
  if (needed < program->register_count) program->register_count = needed;
}

void CompactConstantPool(Program* program) {
  std::vector<bool> used(program->constants.size(), false);
  for (const Instruction& ins : program->code) {
    NvmOperandRoles roles = NvmRolesOf(ins);
    if (roles.const_b && ins.b < used.size()) used[ins.b] = true;
    if (roles.const_c && ins.c < used.size()) used[ins.c] = true;
  }
  std::vector<uint16_t> remap(program->constants.size(), 0);
  std::vector<Value> pool;
  for (size_t i = 0; i < used.size(); ++i) {
    if (!used[i]) continue;
    remap[i] = static_cast<uint16_t>(pool.size());
    pool.push_back(program->constants[i]);
  }
  if (pool.size() == program->constants.size()) return;
  for (Instruction& ins : program->code) {
    NvmOperandRoles roles = NvmRolesOf(ins);
    if (roles.const_b) ins.b = remap[ins.b];
    if (roles.const_c) ins.c = remap[ins.c];
  }
  program->constants = std::move(pool);
}

}  // namespace

void SetNvmOptimizerTestPass(NvmOptimizerTestPass pass) {
  g_test_pass = pass;
}

Status OptimizeNvmProgram(Program* program, const std::string& site,
                          size_t tuple_register_count, size_t nested_count,
                          algebra::RewriteLog* log) {
  struct PassEntry {
    const char* name;
    bool (*fn)(PassState&);
  };
  static constexpr PassEntry kPasses[] = {
      {"const-fold", ConstFoldPass},   {"copy-prop", CopyPropPass},
      {"conversion-elim", ConversionElimPass},
      {"jump-thread", JumpThreadPass}, {"peephole", PeepholePass},
      {"dce", DcePass},
  };

  PassState state{program, site, log};
  auto verify_after = [&](const char* pass) {
    Status st = VerifyProgram(*program, tuple_register_count, nested_count);
    if (st.ok()) return st;
    return Status::Internal(std::string("nvm optimizer: pass '") + pass +
                            "' left a malformed program for " + site + ": " +
                            st.message());
  };

  // Passes enable each other (a fold exposes a dead store, a fused
  // compare exposes a jump thread); a few rounds reach the fixpoint on
  // the small programs subscripts compile to.
  constexpr int kMaxRounds = 4;
  for (int round = 0; round < kMaxRounds; ++round) {
    bool changed = false;
    for (const PassEntry& pass : kPasses) {
      if (pass.fn(state)) {
        NATIX_RETURN_IF_ERROR(verify_after(pass.name));
        changed = true;
      }
    }
    if (g_test_pass != nullptr && g_test_pass(program)) {
      NATIX_RETURN_IF_ERROR(verify_after("test-hook"));
      changed = true;
    }
    if (!changed) break;
  }

  ShrinkFrame(program);
  CompactConstantPool(program);
  return Status::OK();
}

}  // namespace natix::analysis
