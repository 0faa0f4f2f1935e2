// Tests for the static plan verifier: hand-built malformed
// plans/models/programs must be rejected with a diagnostic naming the
// offending operator, register, or opcode; everything the real compiler
// produces must verify cleanly (also enforced binary-wide by
// verify_env_test.cc, which turns verification on for all suites).

#include "analysis/plan_verifier.h"

#include <gtest/gtest.h>

#include "algebra/rewriter.h"
#include "api/database.h"
#include "translate/translator.h"
#include "xpath/fold.h"
#include "xpath/normalizer.h"
#include "xpath/parser.h"
#include "xpath/sema.h"

namespace natix::analysis {
namespace {

using algebra::MakeOp;
using algebra::MakeScalar;
using algebra::OpKind;
using algebra::OpPtr;
using algebra::ScalarKind;
using nvm::Instruction;
using nvm::OpCode;

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

OpPtr Singleton() { return MakeOp(OpKind::kSingletonScan); }

/// χ_attr:1 over `child` — binds `attr` with a constant subscript.
OpPtr BindConst(OpPtr child, const std::string& attr) {
  OpPtr map = MakeOp(OpKind::kMap);
  map->attr = attr;
  map->scalar = MakeScalar(ScalarKind::kNumberConst);
  map->scalar->number = 1;
  map->children.push_back(std::move(child));
  return map;
}

void ExpectRejected(const Status& status, const std::string& fragment) {
  ASSERT_FALSE(status.ok()) << "expected a verifier violation";
  EXPECT_NE(status.message().find(fragment), std::string::npos)
      << "diagnostic was: " << status.message();
}

translate::TranslationResult Translate(const std::string& query,
                                       bool canonical = false) {
  auto ast = xpath::ParseXPath(query);
  NATIX_CHECK(ast.ok());
  NATIX_CHECK(xpath::Analyze(ast->get()).ok());
  xpath::FoldConstants(ast->get());
  xpath::Normalize(ast->get());
  auto options = canonical ? translate::TranslatorOptions::Canonical()
                           : translate::TranslatorOptions::Improved();
  auto result =
      translate::Translate(**ast, options, VerificationEnabled());
  NATIX_CHECK(result.ok());
  return std::move(result.value());
}

// ---------------------------------------------------------------------------
// Layer 1: logical plans
// ---------------------------------------------------------------------------

TEST(LogicalVerifierTest, RejectsUnboundContextAttribute) {
  OpPtr step = MakeOp(OpKind::kUnnestMap);
  step->attr = "c1";
  step->ctx_attr = "nowhere";
  step->children.push_back(Singleton());
  ExpectRejected(VerifyLogicalPlan(*step, {}),
                 "unbound context attribute 'nowhere'");
}

TEST(LogicalVerifierTest, OuterBindingsCoverFreeAttributes) {
  OpPtr step = MakeOp(OpKind::kUnnestMap);
  step->attr = "c1";
  step->ctx_attr = "cn";
  step->children.push_back(Singleton());
  EXPECT_TRUE(VerifyLogicalPlan(*step, {"cn"}).ok());
}

TEST(LogicalVerifierTest, RejectsUncoveredDependentBranchFreeVariable) {
  // DJoin whose dependent right branch steps from an attribute neither
  // the left branch nor the outer context binds.
  OpPtr right = MakeOp(OpKind::kUnnestMap);
  right->attr = "c2";
  right->ctx_attr = "missing";
  right->children.push_back(Singleton());

  OpPtr join = MakeOp(OpKind::kDJoin);
  join->children.push_back(BindConst(Singleton(), "a"));
  join->children.push_back(std::move(right));
  ExpectRejected(VerifyLogicalPlan(*join, {}),
                 "unbound context attribute 'missing'");
}

TEST(LogicalVerifierTest, DependentBranchSeesLeftBindings) {
  OpPtr right = MakeOp(OpKind::kUnnestMap);
  right->attr = "c2";
  right->ctx_attr = "a";  // bound by the left branch
  right->children.push_back(Singleton());

  OpPtr join = MakeOp(OpKind::kDJoin);
  join->children.push_back(BindConst(Singleton(), "a"));
  join->children.push_back(std::move(right));
  EXPECT_TRUE(VerifyLogicalPlan(*join, {}).ok());
}

TEST(LogicalVerifierTest, RejectsUnboundSubscriptAttribute) {
  OpPtr select = MakeOp(OpKind::kSelect);
  select->scalar = MakeScalar(ScalarKind::kAttrRef);
  select->scalar->name = "ghost";
  select->children.push_back(Singleton());
  ExpectRejected(VerifyLogicalPlan(*select, {}),
                 "subscript reads unbound attribute 'ghost'");
}

TEST(LogicalVerifierTest, RejectsDuplicateProjectionAttribute) {
  OpPtr project = MakeOp(OpKind::kProject);
  project->attrs = {"a", "a"};
  project->children.push_back(BindConst(Singleton(), "a"));
  ExpectRejected(VerifyLogicalPlan(*project, {}),
                 "projection list repeats attribute 'a'");
}

TEST(LogicalVerifierTest, RejectsRebindingALiveAttribute) {
  ExpectRejected(
      VerifyLogicalPlan(*BindConst(BindConst(Singleton(), "a"), "a"), {}),
      "rebinds live attribute 'a'");
}

TEST(LogicalVerifierTest, RejectsArityViolation) {
  OpPtr select = MakeOp(OpKind::kSelect);
  select->scalar = MakeScalar(ScalarKind::kBoolConst);
  ExpectRejected(VerifyLogicalPlan(*select, {}), "expects 1 child(ren)");
}

TEST(LogicalVerifierTest, RejectsMissingSubscript) {
  OpPtr select = MakeOp(OpKind::kSelect);
  select->children.push_back(Singleton());
  ExpectRejected(VerifyLogicalPlan(*select, {}), "missing scalar subscript");
}

TEST(LogicalVerifierTest, RejectsUngroupedContextForTmpCs) {
  // Tmp^cs_c requires runs of equal context values; a concatenation of
  // two branches interleaves no more, but it destroys the guarantee.
  OpPtr concat = MakeOp(OpKind::kConcat);
  concat->children.push_back(BindConst(Singleton(), "a"));
  concat->children.push_back(BindConst(Singleton(), "a"));

  OpPtr tmpcs = MakeOp(OpKind::kTmpCs);
  tmpcs->attr = "cs";
  tmpcs->ctx_attr = "a";
  tmpcs->children.push_back(std::move(concat));
  ExpectRejected(VerifyLogicalPlan(*tmpcs, {}),
                 "grouping on 'a' is not established");
}

TEST(LogicalVerifierTest, BinderEstablishesGroupingForTmpCs) {
  OpPtr tmpcs = MakeOp(OpKind::kTmpCs);
  tmpcs->attr = "cs";
  tmpcs->ctx_attr = "a";
  tmpcs->children.push_back(BindConst(Singleton(), "a"));
  EXPECT_TRUE(VerifyLogicalPlan(*tmpcs, {}).ok());
}

TEST(LogicalVerifierTest, RealTranslationsVerify) {
  for (const char* query :
       {"/a/b", "//a[b/c]", "/a/b[position() = last()]/c",
        "count(//a) + 1", "//a[@id = 'x']", "id('k')/b",
        "/a/b[2]/preceding-sibling::c"}) {
    EXPECT_TRUE(VerifyTranslation(Translate(query)).ok()) << query;
    EXPECT_TRUE(VerifyTranslation(Translate(query, true)).ok())
        << query << " (canonical)";
  }
}

TEST(LogicalVerifierTest, RejectsReverseNonChildStep) {
  auto result = Translate("/a/@b");
  ASSERT_EQ(result.plan->kind, OpKind::kUnnestMap);
  result.plan->reverse = true;
  ExpectRejected(VerifyTranslation(result),
                 "reverse enumeration of a non-child axis");
}

TEST(LogicalVerifierTest, SimplifyPlanCheckedAcceptsRealPlans) {
  auto result = Translate("//a[b]/c[1]");
  auto removed = algebra::SimplifyPlan(&result.plan, VerificationEnabled());
  EXPECT_TRUE(removed.ok());
}

// ---------------------------------------------------------------------------
// Layer 2: physical register dataflow
// ---------------------------------------------------------------------------

PhysNodePtr Node(PhysNodeKind kind, const std::string& label) {
  auto node = std::make_unique<PhysNode>();
  node->kind = kind;
  node->label = label;
  return node;
}

PhysicalModel LeafModel(size_t register_count) {
  PhysicalModel model;
  model.root = Node(PhysNodeKind::kLeaf, "SingletonScan");
  model.register_count = register_count;
  model.context_regs = {0};
  model.result_reg = 0;
  return model;
}

TEST(PhysicalVerifierTest, RejectsOutOfBoundsRead) {
  PhysicalModel model = LeafModel(2);
  PhysNodePtr pipe = Node(PhysNodeKind::kPipeline, "UnnestMap");
  pipe->reads = {5};
  pipe->effects.child_close = {ChildClose::kOnClose};
  pipe->children.push_back(std::move(model.root));
  model.root = std::move(pipe);
  ExpectRejected(VerifyLowered(model),
                 "UnnestMap: read register r5 is out of bounds");
}

TEST(PhysicalVerifierTest, RejectsReadOfNeverWrittenRegister) {
  PhysicalModel model = LeafModel(2);
  PhysNodePtr pipe = Node(PhysNodeKind::kPipeline, "DupElim");
  pipe->reads = {1};  // nothing writes r1
  pipe->effects.child_close = {ChildClose::kOnClose};
  pipe->children.push_back(std::move(model.root));
  model.root = std::move(pipe);
  ExpectRejected(VerifyLowered(model),
                 "DupElim: reads register r1 before any write dominates it");
}

TEST(PhysicalVerifierTest, RejectsUndefinedResultRegister) {
  PhysicalModel model = LeafModel(2);
  model.result_reg = 1;
  ExpectRejected(VerifyLowered(model),
                 "result register r1 is not defined at the plan root");
}

TEST(PhysicalVerifierTest, ConcatConsumersSeeOnlyTheIntersection) {
  // Branch 0 writes r1, branch 1 does not: a consumer of r1 above the
  // concat reads garbage whenever branch 1 produced the tuple.
  PhysicalModel model = LeafModel(3);
  PhysNodePtr writer = Node(PhysNodeKind::kPipeline, "Map");
  writer->writes = {1};
  writer->effects.child_close = {ChildClose::kOnClose};
  writer->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));

  PhysNodePtr concat = Node(PhysNodeKind::kConcat, "Concat");
  concat->effects.child_close = {ChildClose::kOnClose, ChildClose::kOnClose};
  concat->children.push_back(std::move(writer));
  concat->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));

  PhysNodePtr consumer = Node(PhysNodeKind::kPipeline, "Sort");
  consumer->reads = {1};
  consumer->effects.child_close = {ChildClose::kOnClose};
  consumer->children.push_back(std::move(concat));
  model.root = std::move(consumer);
  ExpectRejected(VerifyLowered(model),
                 "Sort: reads register r1 before any write dominates it");
}

TEST(PhysicalVerifierTest, DependentRightSideSeesLeftDefinitions) {
  PhysicalModel model = LeafModel(3);
  PhysNodePtr left = Node(PhysNodeKind::kPipeline, "Map");
  left->writes = {1};
  left->effects.child_close = {ChildClose::kOnClose};
  left->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));

  PhysNodePtr right = Node(PhysNodeKind::kPipeline, "UnnestMap");
  right->reads = {1};  // the left side's binding
  right->writes = {2};
  right->effects.child_close = {ChildClose::kOnClose};
  right->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));

  PhysNodePtr join = Node(PhysNodeKind::kDependent, "DJoin");
  join->effects.child_close = {ChildClose::kOnClose, ChildClose::kOnClose};
  join->children.push_back(std::move(left));
  join->children.push_back(std::move(right));
  model.root = std::move(join);
  model.result_reg = 2;
  EXPECT_TRUE(VerifyLowered(model).ok());
}

TEST(PhysicalVerifierTest, ProbeSideDefinitionsDoNotSurviveSemiJoin) {
  // The probe (right) side of a semi-join writes r1; only the left tuple
  // survives, so a consumer above the join must not rely on r1.
  PhysicalModel model = LeafModel(3);
  PhysNodePtr probe = Node(PhysNodeKind::kPipeline, "UnnestMap");
  probe->writes = {1};
  probe->effects.child_close = {ChildClose::kOnClose};
  probe->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));

  PhysNodePtr join = Node(PhysNodeKind::kDependentLeft, "SemiJoin");
  join->effects.child_close = {ChildClose::kOnClose,
                               ChildClose::kProbeContained};
  join->children.push_back(Node(PhysNodeKind::kLeaf, "SingletonScan"));
  join->children.push_back(std::move(probe));

  PhysNodePtr consumer = Node(PhysNodeKind::kPipeline, "DupElim");
  consumer->reads = {1};
  consumer->effects.child_close = {ChildClose::kOnClose};
  consumer->children.push_back(std::move(join));
  model.root = std::move(consumer);
  ExpectRejected(VerifyLowered(model),
                 "DupElim: reads register r1 before any write dominates it");
}

TEST(PhysicalVerifierTest, RowSnapshotListsOnlyNeedBounds) {
  PhysicalModel model = LeafModel(2);
  PhysNodePtr sort = Node(PhysNodeKind::kPipeline, "Sort");
  sort->reads = {0};
  sort->row_regs = {0, 1};  // r1 never written: legal (null round-trips)
  sort->effects.child_close = {ChildClose::kOnClose};
  sort->children.push_back(std::move(model.root));
  model.root = std::move(sort);
  EXPECT_TRUE(VerifyLowered(model).ok());

  PhysNodePtr bad = Node(PhysNodeKind::kPipeline, "TmpCs");
  bad->row_regs = {9};
  bad->effects.child_close = {ChildClose::kOnClose};
  bad->children.push_back(std::move(model.root));
  model.root = std::move(bad);
  ExpectRejected(VerifyLowered(model),
                 "TmpCs: row register r9 is out of bounds");
}

// ---------------------------------------------------------------------------
// Layer 3: NVM subscript programs
// ---------------------------------------------------------------------------

nvm::Program MakeProgram(std::vector<Instruction> code,
                         uint16_t register_count,
                         size_t constant_count = 0) {
  nvm::Program program;
  program.code = std::move(code);
  program.register_count = register_count;
  for (size_t i = 0; i < constant_count; ++i) {
    program.constants.push_back(runtime::Value::Number(0));
  }
  return program;
}

Instruction Ins(OpCode op, uint16_t a = 0, uint16_t b = 0, uint16_t c = 0,
                uint16_t d = 0) {
  return Instruction{op, a, b, c, d};
}

TEST(NvmVerifierTest, RejectsEmptyProgram) {
  ExpectRejected(VerifyProgram(nvm::Program{}, 0, 0), "empty program");
}

TEST(NvmVerifierTest, RejectsOutOfRangeJumpTarget) {
  auto program = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJump, 0, 7),
       Ins(OpCode::kHalt, 0)},
      1, 1);
  ExpectRejected(VerifyProgram(program, 0, 0),
                 "pc 1 jump: jump target 7 out of range");
}

TEST(NvmVerifierTest, RejectsReadBeforeWrite) {
  auto program =
      MakeProgram({Ins(OpCode::kAdd, 0, 0, 0), Ins(OpCode::kHalt, 0)}, 1);
  ExpectRejected(VerifyProgram(program, 0, 0),
                 "pc 0 add: reads register r0 before it is written");
}

TEST(NvmVerifierTest, RejectsReadWrittenOnOnlyOnePath) {
  // r1 is written on the fall-through path only; the halt reads it.
  auto program = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 3),
       Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kHalt, 1)},
      2, 1);
  ExpectRejected(VerifyProgram(program, 0, 0),
                 "pc 3 halt: reads register r1 before it is written");
}

TEST(NvmVerifierTest, AcceptsWritesOnBothPaths) {
  auto program = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kHalt, 1)},
      2, 1);
  EXPECT_TRUE(VerifyProgram(program, 0, 0).ok());
}

TEST(NvmVerifierTest, RejectsOutOfRangeFrameRegister) {
  auto program =
      MakeProgram({Ins(OpCode::kLoadConst, 5, 0), Ins(OpCode::kHalt, 0)}, 1,
                  1);
  ExpectRejected(VerifyProgram(program, 0, 0),
                 "pc 0 load_const: writes register r5 outside the frame");
}

TEST(NvmVerifierTest, RejectsOutOfRangeConstantIndex) {
  auto program =
      MakeProgram({Ins(OpCode::kLoadConst, 0, 3), Ins(OpCode::kHalt, 0)}, 1);
  ExpectRejected(VerifyProgram(program, 0, 0),
                 "pc 0 load_const: constant index 3 out of range");
}

TEST(NvmVerifierTest, RejectsOutOfRangeTupleRegister) {
  auto program =
      MakeProgram({Ins(OpCode::kLoadAttr, 0, 99), Ins(OpCode::kHalt, 0)}, 1);
  ExpectRejected(VerifyProgram(program, 4, 0),
                 "pc 0 load_attr: tuple register r99 outside the plan "
                 "register file");
}

TEST(NvmVerifierTest, RejectsOutOfRangeNestedPlanIndex) {
  auto program = MakeProgram(
      {Ins(OpCode::kEvalNested, 0, 2), Ins(OpCode::kHalt, 0)}, 1);
  ExpectRejected(VerifyProgram(program, 0, 2),
                 "pc 0 eval_nested: nested plan index 2 out of range");
}

TEST(NvmVerifierTest, RejectsMalformedStepLoops) {
  auto program = MakeProgram(
      {Ins(OpCode::kStepExists, 0, 1, 0), Ins(OpCode::kHalt, 0)}, 1);
  ExpectRejected(VerifyProgram(program, 2, 0),
                 "pc 0 step_exists: step index 0 out of range");

  nvm::StepLoop step;
  step.axis = runtime::Axis::kDescendant;
  program.steps.push_back(step);
  ExpectRejected(VerifyProgram(program, 2, 0),
                 "step loop on the descendant axis");

  program.steps[0].axis = runtime::Axis::kAttribute;
  program.steps[0].compare = true;
  program.steps[0].constant = runtime::Value::Boolean(true);
  ExpectRejected(VerifyProgram(program, 2, 0),
                 "step loop compares with a non-literal operand");

  program.steps[0].constant = runtime::Value::String("x");
  EXPECT_TRUE(VerifyProgram(program, 2, 0).ok());
  program.code[0].op = OpCode::kStepCount;
  ExpectRejected(VerifyProgram(program, 1, 0),
                 "pc 0 step_count: tuple register r1 outside the plan "
                 "register file");
}

TEST(NvmVerifierTest, RejectsFallingOffTheEnd) {
  auto program = MakeProgram({Ins(OpCode::kLoadConst, 0, 0)}, 1, 1);
  ExpectRejected(VerifyProgram(program, 0, 0),
                 "program can fall off the end");
}

TEST(NvmVerifierTest, RejectsInvalidComparisonCode) {
  auto program = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kCompare, 1, 0, 0, 200),
       Ins(OpCode::kHalt, 1)},
      2, 1);
  ExpectRejected(VerifyProgram(program, 0, 0), "invalid comparison code 200");
}

// ---------------------------------------------------------------------------
// End to end: compiled queries report VERIFIED
// ---------------------------------------------------------------------------

TEST(PlanVerifierE2eTest, CompiledQueriesReportVerified) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(
      (*db)->LoadDocument("d", "<r><a id='x'><b/></a><a><b/><b/></a></r>")
          .ok());
  for (const char* query :
       {"//a/b", "/r/a[b][position() = last()]", "count(//b) > 1",
        "string(//a[@id = 'x'])"}) {
    auto compiled = (*db)->Compile(query);
    ASSERT_TRUE(compiled.ok()) << query;
    const std::string& report = (*compiled)->prepared().VerificationReport();
    EXPECT_EQ(report.rfind("VERIFIED", 0), 0u) << query << ": " << report;
  }
}

}  // namespace
}  // namespace natix::analysis
