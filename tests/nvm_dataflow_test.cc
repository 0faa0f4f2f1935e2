// Tests for the NVM dataflow framework and the analysis-justified
// bytecode optimizer: hand-built CFGs pin the liveness / reaching-defs /
// constant-propagation fixpoints, each optimization pass is exercised on
// a program shaped for it (with the transformed program re-executed on
// the real Vm), and a deliberately broken pass must abort optimization —
// and compilation — through the per-pass Layer-3 re-verification.

#include "analysis/nvm_dataflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "analysis/nvm_optimizer.h"
#include "analysis/plan_verifier.h"
#include "api/database.h"
#include "nvm/vm.h"
#include "runtime/register_file.h"

namespace natix::analysis {
namespace {

using nvm::Instruction;
using nvm::OpCode;
using nvm::Program;
using runtime::Value;

Instruction Ins(OpCode op, uint16_t a = 0, uint16_t b = 0, uint16_t c = 0,
                uint16_t d = 0) {
  return Instruction{op, a, b, c, d};
}

Program MakeProgram(std::vector<Instruction> code, uint16_t register_count,
                    std::vector<Value> constants = {}) {
  Program program;
  program.code = std::move(code);
  program.register_count = register_count;
  program.constants = std::move(constants);
  return program;
}

StatusOr<Value> RunProgram(
    const Program& program, std::vector<Value> tuple = {},
    std::unordered_map<std::string, Value> variables = {}) {
  nvm::Vm vm(&program);
  runtime::RegisterFile registers(tuple.size());
  for (size_t i = 0; i < tuple.size(); ++i) registers[i] = tuple[i];
  runtime::EvalContext ctx;
  return vm.Run(registers, ctx, variables,
                [](size_t) -> StatusOr<Value> {
                  return Status::Internal("no nested plans in this test");
                });
}

/// Optimizes in place, asserting success and that the final program
/// verifies (as code generation checks it), and returns the rewrite log.
algebra::RewriteLog Optimize(Program* program,
                             size_t tuple_register_count = 0) {
  algebra::RewriteLog log;
  Status st = OptimizeNvmProgram(program, "test", tuple_register_count,
                                 /*nested_count=*/0, &log);
  EXPECT_TRUE(st.ok()) << st.ToString();
  st = VerifyProgram(*program, tuple_register_count, /*nested_count=*/0);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return log;
}

bool LogHasRule(const algebra::RewriteLog& log, const std::string& rule) {
  return std::any_of(log.begin(), log.end(),
                     [&](const algebra::RewriteEvent& e) {
                       return e.rule == rule;
                     });
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

TEST(NvmCfgTest, BlocksLabelsAndReachability) {
  // if (c0) r1 = c1 else r1 = c0 — a diamond of four blocks.
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kHalt, 1)},
      2, {Value::Boolean(true), Value::Number(7)});
  NvmCfg cfg = NvmCfg::Build(p);
  ASSERT_EQ(cfg.blocks.size(), 4u);
  EXPECT_EQ(cfg.block_of[0], cfg.block_of[1]);  // 0-1 share a block
  EXPECT_NE(cfg.block_of[1], cfg.block_of[2]);
  EXPECT_EQ(cfg.LabelAt(0), "L0");
  EXPECT_EQ(cfg.LabelAt(1), "");  // not a leader
  EXPECT_EQ(cfg.LabelAt(4), "L2");
  for (size_t pc = 0; pc < p.code.size(); ++pc) {
    EXPECT_TRUE(cfg.Reachable(pc)) << "pc " << pc;
  }
  // The entry block branches to both arms; both arms flow into the exit.
  const NvmCfg::Block& entry = cfg.blocks[cfg.block_of[0]];
  ASSERT_EQ(entry.succs.size(), 2u);
  const NvmCfg::Block& exit = cfg.blocks[cfg.block_of[5]];
  EXPECT_EQ(exit.preds.size(), 2u);
}

TEST(NvmCfgTest, MarksUnreachableBlocks) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJump, 0, 3),
       Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kHalt, 0)},
      1, {Value::Number(1)});
  NvmCfg cfg = NvmCfg::Build(p);
  EXPECT_TRUE(cfg.Reachable(0));
  EXPECT_FALSE(cfg.Reachable(2));
  EXPECT_TRUE(cfg.Reachable(3));
}

// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

TEST(NvmLivenessTest, StraightLineFixpoint) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kLoadConst, 1, 1),
       Ins(OpCode::kAdd, 2, 0, 1), Ins(OpCode::kHalt, 2)},
      3, {Value::Number(2), Value::Number(3)});
  NvmLiveness live = NvmLiveness::Compute(p);
  EXPECT_TRUE(live.LiveOut(0, 0));   // r0 flows into the add
  EXPECT_TRUE(live.LiveIn(2, 0));
  EXPECT_FALSE(live.LiveOut(2, 0));  // dead after its last read
  EXPECT_TRUE(live.LiveOut(2, 2));   // the result flows into halt
  EXPECT_FALSE(live.LiveIn(0, 0));   // nothing is live at entry
}

TEST(NvmLivenessTest, BackwardBranchConverges) {
  // r0 is read by the branch and by the halt; the backward edge must
  // carry liveness around the loop without oscillating.
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 0),
       Ins(OpCode::kHalt, 0)},
      1, {Value::Boolean(false)});
  NvmLiveness live = NvmLiveness::Compute(p);
  EXPECT_TRUE(live.LiveOut(0, 0));
  EXPECT_TRUE(live.LiveOut(1, 0));  // live on both branch successors
  EXPECT_FALSE(live.LiveIn(0, 0));  // pc 0 redefines it on the back edge
}

// ---------------------------------------------------------------------------
// Reaching definitions
// ---------------------------------------------------------------------------

TEST(NvmReachingDefsTest, DefsMergeAtJoin) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kHalt, 1)},
      2, {Value::Boolean(true), Value::Number(7)});
  NvmReachingDefs rd = NvmReachingDefs::Compute(p);
  EXPECT_EQ(rd.DefsReaching(5, 1), (std::vector<size_t>{2, 4}));
  EXPECT_EQ(rd.DefsReaching(5, 0), (std::vector<size_t>{0}));
  // Inside the then-arm only the fall-through def is visible.
  EXPECT_EQ(rd.DefsReaching(3, 1), (std::vector<size_t>{2}));
}

// ---------------------------------------------------------------------------
// Constant propagation
// ---------------------------------------------------------------------------

TEST(NvmConstantsTest, PropagatesThroughMoves) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kMove, 1, 0),
       Ins(OpCode::kHalt, 1)},
      2, {Value::Number(7)});
  NvmConstants consts = NvmConstants::Compute(p);
  const NvmConst& at_halt = consts.In(2, 1);
  ASSERT_EQ(at_halt.state, NvmConst::State::kConst);
  EXPECT_EQ(at_halt.value.AsNumber(), 7);
}

TEST(NvmConstantsTest, DivergentPathsMeetToVarying) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 2), Ins(OpCode::kHalt, 1)},
      2,
      {Value::Boolean(true), Value::Number(1), Value::Number(2)});
  NvmConstants consts = NvmConstants::Compute(p);
  EXPECT_EQ(consts.In(5, 1).state, NvmConst::State::kVarying);
  // The condition itself is the same constant on every path.
  EXPECT_EQ(consts.In(5, 0).state, NvmConst::State::kConst);
}

TEST(NvmConstantsTest, SameConstantOnBothPathsStaysConstant) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 2), Ins(OpCode::kHalt, 1)},
      2, {Value::Boolean(true), Value::Number(5), Value::Number(5)});
  NvmConstants consts = NvmConstants::Compute(p);
  ASSERT_EQ(consts.In(5, 1).state, NvmConst::State::kConst);
  EXPECT_EQ(consts.In(5, 1).value.AsNumber(), 5);
}

// ---------------------------------------------------------------------------
// Kind propagation and purity
// ---------------------------------------------------------------------------

TEST(NvmKindsTest, TracksConversionResults) {
  Program p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kToStr, 1, 0),
       Ins(OpCode::kHalt, 1)},
      2, {Value::Number(3)});
  NvmKinds kinds = NvmKinds::Compute(p);
  EXPECT_EQ(kinds.In(1, 0), NvmKind::kNumber);
  EXPECT_EQ(kinds.In(2, 1), NvmKind::kString);
}

TEST(NvmKindsTest, DistinctAtomicKindsJoinToAtomic) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 2), Ins(OpCode::kHalt, 1)},
      2, {Value::Boolean(true), Value::Number(1), Value::String("s")});
  NvmKinds kinds = NvmKinds::Compute(p);
  EXPECT_EQ(kinds.In(5, 1), NvmKind::kAtomic);
  EXPECT_TRUE(NvmKindIsAtomic(kinds.In(5, 1)));
}

TEST(NvmPurityTest, ConversionTotalityAndStoreAccess) {
  Program p;
  p.code = {Ins(OpCode::kLoadVar, 0, 0), Ins(OpCode::kToBool, 1, 0),
            Ins(OpCode::kToNum, 2, 0), Ins(OpCode::kHalt, 2)};
  p.register_count = 3;
  p.variable_names = {"v"};
  NvmKinds kinds = NvmKinds::Compute(p);
  // kLoadVar can fault (unbound variable) — never pure.
  EXPECT_FALSE(NvmInstructionIsPure(p, 0, kinds));
  // boolean() is total for every value kind, even the unknown kAny.
  EXPECT_TRUE(NvmInstructionIsPure(p, 1, kinds));
  // number() of a node reads the store: not pure on a kAny operand.
  EXPECT_FALSE(NvmInstructionIsPure(p, 2, kinds));
}

TEST(NvmConstEvalTest, RunsTheRealVm) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kLoadConst, 1, 1),
       Ins(OpCode::kAdd, 2, 0, 1), Ins(OpCode::kHalt, 2)},
      3, {Value::Number(2), Value::Number(3)});
  auto v = NvmEvaluateConstInstruction(p, 2,
                                       {Value::Number(2), Value::Number(3)});
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsNumber(), 5);
}

TEST(NvmRenderTest, ListingCarriesLabelsAndOperands) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 2),
       Ins(OpCode::kHalt, 0)},
      1, {Value::Boolean(true)});
  std::string listing = RenderNvmProgram(p);
  EXPECT_NE(listing.find("L0:"), std::string::npos);
  EXPECT_NE(listing.find("jump_if_true r0 -> L1"), std::string::npos);
  EXPECT_NE(listing.find("load_const r0, true"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Optimizer passes
// ---------------------------------------------------------------------------

TEST(NvmOptimizerTest, ConstantFoldsPureArithmetic) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kLoadConst, 1, 1),
       Ins(OpCode::kAdd, 2, 0, 1), Ins(OpCode::kHalt, 2)},
      3, {Value::Number(2), Value::Number(3)});
  algebra::RewriteLog log = Optimize(&p);
  // The add folds to load_const 5; the dead operand loads disappear.
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0].op, OpCode::kLoadConst);
  auto v = RunProgram(p);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsNumber(), 5);
  EXPECT_TRUE(LogHasRule(log, "nvm:const-fold"));
  EXPECT_TRUE(LogHasRule(log, "nvm:dce"));
  for (const algebra::RewriteEvent& event : log) {
    EXPECT_EQ(event.rule.rfind("nvm:", 0), 0u);
    EXPECT_FALSE(event.justification.empty()) << event.rule;
  }
}

TEST(NvmOptimizerTest, ConversionElimAndCopyPropagation) {
  Program p;
  p.code = {Ins(OpCode::kLoadVar, 0, 0), Ins(OpCode::kToNum, 1, 0),
            Ins(OpCode::kToNum, 2, 1), Ins(OpCode::kHalt, 2)};
  p.register_count = 3;
  p.variable_names = {"v"};
  algebra::RewriteLog log = Optimize(&p);
  // number(number($v)) is the identity on the inner result: the second
  // conversion becomes a move, the move copy-propagates, and dce drops
  // it.
  ASSERT_EQ(p.code.size(), 3u);
  EXPECT_EQ(p.code[2].op, OpCode::kHalt);
  EXPECT_TRUE(LogHasRule(log, "nvm:conversion-elim"));
  EXPECT_TRUE(LogHasRule(log, "nvm:copy-prop"));
  auto v = RunProgram(p, {}, {{"v", Value::String("42")}});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsNumber(), 42);
}

TEST(NvmOptimizerTest, JumpThreadResolvesConstantBranch) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kHalt, 1),
       Ins(OpCode::kHalt, 0)},
      2, {Value::Boolean(true), Value::Number(9)});
  algebra::RewriteLog log = Optimize(&p);
  // The branch condition is constant true: the never-taken arm and the
  // branch itself go away.
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_TRUE(LogHasRule(log, "nvm:jump-thread"));
  auto v = RunProgram(p);
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->AsBoolean());
}

TEST(NvmOptimizerTest, PeepholeFusesCmpAttrConst) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadAttr, 0, 0), Ins(OpCode::kLoadConst, 1, 0),
       Ins(OpCode::kCompare, 2, 0, 1,
           static_cast<uint16_t>(runtime::CompareOp::kEq)),
       Ins(OpCode::kHalt, 2)},
      3, {Value::String("x")});
  algebra::RewriteLog log = Optimize(&p, /*tuple_register_count=*/1);
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_EQ(p.code[0].op, OpCode::kCmpAttrConst);
  EXPECT_TRUE(LogHasRule(log, "nvm:peephole"));
  auto hit = RunProgram(p, {Value::String("x")});
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(hit->AsBoolean());
  auto miss = RunProgram(p, {Value::String("y")});
  ASSERT_TRUE(miss.ok());
  EXPECT_FALSE(miss->AsBoolean());
}

TEST(NvmOptimizerTest, PeepholeFusedCompareKeepsOperandOrder) {
  // The constant loads first and sits on the left of a < — the fused
  // instruction must preserve the asymmetric comparison via the swap
  // flag.
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kLoadAttr, 0, 0),
       Ins(OpCode::kCompare, 2, 1, 0,
           static_cast<uint16_t>(runtime::CompareOp::kLt)),
       Ins(OpCode::kHalt, 2)},
      3, {Value::Number(5)});
  Optimize(&p, /*tuple_register_count=*/1);
  ASSERT_EQ(p.code.size(), 2u);
  ASSERT_EQ(p.code[0].op, OpCode::kCmpAttrConst);
  EXPECT_NE(p.code[0].d & nvm::kCmpFlagBit, 0);  // constant on the left
  auto lt = RunProgram(p, {Value::Number(7)});   // 5 < 7
  ASSERT_TRUE(lt.ok());
  EXPECT_TRUE(lt->AsBoolean());
  auto ge = RunProgram(p, {Value::Number(3)});   // 5 < 3 is false
  ASSERT_TRUE(ge.ok());
  EXPECT_FALSE(ge->AsBoolean());
}

TEST(NvmOptimizerTest, PeepholeFusesCmpBranch) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadAttr, 0, 0), Ins(OpCode::kLoadAttr, 1, 1),
       Ins(OpCode::kCompare, 2, 0, 1,
           static_cast<uint16_t>(runtime::CompareOp::kLt)),
       Ins(OpCode::kJumpIfTrue, 2, 6), Ins(OpCode::kLoadConst, 3, 0),
       Ins(OpCode::kHalt, 3), Ins(OpCode::kLoadConst, 3, 1),
       Ins(OpCode::kHalt, 3)},
      4, {Value::Number(10), Value::Number(20)});
  algebra::RewriteLog log = Optimize(&p, /*tuple_register_count=*/2);
  ASSERT_EQ(p.code.size(), 7u);
  EXPECT_EQ(p.code[2].op, OpCode::kCmpBranch);
  EXPECT_TRUE(LogHasRule(log, "nvm:peephole"));
  EXPECT_TRUE(VerifyProgram(p, 2, 0).ok());
  auto taken = RunProgram(p, {Value::Number(1), Value::Number(2)});
  ASSERT_TRUE(taken.ok());
  EXPECT_EQ(taken->AsNumber(), 20);  // 1 < 2: branch taken
  auto fall = RunProgram(p, {Value::Number(3), Value::Number(2)});
  ASSERT_TRUE(fall.ok());
  EXPECT_EQ(fall->AsNumber(), 10);
}

TEST(NvmOptimizerTest, DceRemovesDeadPureStoresOnly) {
  Program p;
  // The unused to_bool is pure and dies; the unused load_var must stay
  // (an unbound variable is an observable fault).
  p.code = {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kToBool, 1, 0),
            Ins(OpCode::kLoadVar, 2, 0), Ins(OpCode::kHalt, 0)};
  p.register_count = 3;
  p.constants = {Value::Number(1)};
  p.variable_names = {"v"};
  Optimize(&p);
  ASSERT_EQ(p.code.size(), 3u);
  EXPECT_EQ(p.code[1].op, OpCode::kLoadVar);
  // The fault is preserved: running without $v bound still errors.
  EXPECT_FALSE(RunProgram(p).ok());
  auto v = RunProgram(p, {}, {{"v", Value::Number(0)}});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsNumber(), 1);
}

TEST(NvmOptimizerTest, ShrinksFrameAndConstantPool) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 5, 0), Ins(OpCode::kLoadConst, 6, 1),
       Ins(OpCode::kAdd, 7, 5, 6), Ins(OpCode::kHalt, 7)},
      32, {Value::Number(2), Value::Number(3), Value::String("orphan")});
  Optimize(&p);
  // Folded to load_const + halt; the frame shrinks to the registers
  // actually used and unused pool entries are dropped.
  ASSERT_EQ(p.code.size(), 2u);
  EXPECT_LE(p.register_count, 8);
  EXPECT_EQ(p.constants.size(), 1u);
  auto v = RunProgram(p);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsNumber(), 5);
}

// ---------------------------------------------------------------------------
// Broken passes must abort, not execute
// ---------------------------------------------------------------------------

/// A deliberately broken pass: writes a register far outside the frame.
bool BreakFrame(Program* program) {
  program->code.insert(
      program->code.begin(),
      Ins(OpCode::kLoadConst,
          static_cast<uint16_t>(program->register_count + 10), 0));
  return true;
}

TEST(NvmOptimizerNegativeTest, BrokenPassAbortsOptimization) {
  SetNvmOptimizerTestPass(&BreakFrame);
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kHalt, 0)},
      1, {Value::Number(1)});
  algebra::RewriteLog log;
  Status st = OptimizeNvmProgram(&p, "test", 0, 0, &log);
  SetNvmOptimizerTestPass(nullptr);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("test-hook"), std::string::npos)
      << st.message();
  EXPECT_NE(st.message().find("plan verifier (nvm)"), std::string::npos)
      << st.message();
}

TEST(NvmOptimizerNegativeTest, BrokenPassAbortsCompilation) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", "<r><a x='1'/></r>").ok());

  SetNvmOptimizerTestPass(&BreakFrame);
  auto broken = (*db)->Compile("//a[@x = '1' and 2 > 1]");
  SetNvmOptimizerTestPass(nullptr);
  ASSERT_FALSE(broken.ok()) << "a verifier-rejected program must never "
                               "reach execution";
  EXPECT_NE(broken.status().message().find("test-hook"), std::string::npos)
      << broken.status().message();

  // Distinct query text: the failed compile must not poison the cache,
  // and a clean pipeline must compile the same shape fine.
  auto clean = (*db)->Compile("//a[@x = '1' and 3 > 1]");
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

}  // namespace
}  // namespace natix::analysis
