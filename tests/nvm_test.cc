// NVM unit tests: scalar expressions are compiled through the assembler
// and executed by the VM directly, without the surrounding iterator
// machinery; hand-built programs pin the block CFG and the listing.

#include <gtest/gtest.h>

#include <cmath>

#include "algebra/operator.h"
#include "analysis/plan_verifier.h"
#include "nvm/assembler.h"
#include "nvm/vm.h"
#include "storage/document_loader.h"

namespace natix::nvm {
namespace {

using algebra::MakeScalar;
using algebra::Scalar;
using algebra::ScalarKind;
using algebra::ScalarPtr;
using runtime::Value;

ScalarPtr Num(double v) {
  ScalarPtr s = MakeScalar(ScalarKind::kNumberConst);
  s->number = v;
  return s;
}
ScalarPtr Str(std::string v) {
  ScalarPtr s = MakeScalar(ScalarKind::kStringConst);
  s->string_value = std::move(v);
  return s;
}
ScalarPtr Boolean(bool v) {
  ScalarPtr s = MakeScalar(ScalarKind::kBoolConst);
  s->boolean = v;
  return s;
}
ScalarPtr Arith(xpath::BinaryOp op, ScalarPtr a, ScalarPtr b) {
  ScalarPtr s = MakeScalar(ScalarKind::kArith);
  s->op = op;
  s->children.push_back(std::move(a));
  s->children.push_back(std::move(b));
  return s;
}
ScalarPtr Logical(xpath::BinaryOp op, ScalarPtr a, ScalarPtr b) {
  ScalarPtr s = MakeScalar(ScalarKind::kLogical);
  s->op = op;
  s->children.push_back(std::move(a));
  s->children.push_back(std::move(b));
  return s;
}
ScalarPtr Compare(runtime::CompareOp op, ScalarPtr a, ScalarPtr b) {
  ScalarPtr s = MakeScalar(ScalarKind::kCompare);
  s->cmp = op;
  s->children.push_back(std::move(a));
  s->children.push_back(std::move(b));
  return s;
}
ScalarPtr Call(xpath::FunctionId id, std::vector<ScalarPtr> args) {
  ScalarPtr s = MakeScalar(ScalarKind::kFunc);
  s->function = id;
  s->children = std::move(args);
  return s;
}
ScalarPtr AttrRef(const std::string& name) {
  ScalarPtr s = MakeScalar(ScalarKind::kAttrRef);
  s->name = name;
  return s;
}
ScalarPtr VarRef(const std::string& name) {
  ScalarPtr s = MakeScalar(ScalarKind::kVarRef);
  s->name = name;
  return s;
}

// Helper because brace-init of vector<unique_ptr> is painful.
std::vector<ScalarPtr> MakeVector(ScalarPtr a) {
  std::vector<ScalarPtr> v;
  v.push_back(std::move(a));
  return v;
}
std::vector<ScalarPtr> MakeVector(ScalarPtr a, ScalarPtr b) {
  std::vector<ScalarPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  return v;
}
std::vector<ScalarPtr> MakeVector(ScalarPtr a, ScalarPtr b, ScalarPtr c) {
  std::vector<ScalarPtr> v;
  v.push_back(std::move(a));
  v.push_back(std::move(b));
  v.push_back(std::move(c));
  return v;
}

/// These scalars embed no step: node tests never need resolving.
NodeTestResolver NoNodeTests() {
  return [](const xpath::AstNodeTest&) { return runtime::NodeTest(); };
}

/// Evaluates a scalar over a one-attribute tuple {"attr0": tuple_value}.
StatusOr<Value> Evaluate(const Scalar& scalar, const Value& tuple_value,
                         const storage::NodeStore* store = nullptr) {
  AttrResolver resolver =
      [](const std::string& name) -> StatusOr<runtime::RegisterId> {
    if (name == "attr0") return runtime::RegisterId{0};
    return Status::Internal("unknown attribute " + name);
  };
  NestedRegistrar registrar =
      [](const Scalar&) -> StatusOr<size_t> {
    return Status::Internal("no nested plans in this test");
  };
  NATIX_ASSIGN_OR_RETURN(Program program,
                         CompileScalar(scalar, resolver, NoNodeTests(), registrar));
  Vm vm(&program);
  runtime::RegisterFile registers(1);
  registers[0] = tuple_value;
  storage::NodeAccessor nodes;
  if (store != nullptr) nodes = storage::NodeAccessor(store);
  runtime::EvalContext ctx;
  ctx.store = store;
  ctx.nodes = &nodes;
  std::unordered_map<std::string, Value> variables;
  variables["v"] = Value::Number(42);
  return vm.Run(registers, ctx, variables,
                [](size_t) -> StatusOr<Value> {
                  return Status::Internal("no nested plans");
                });
}

double EvalNumber(ScalarPtr s) {
  auto v = Evaluate(*s, Value());
  NATIX_CHECK(v.ok());
  return v->AsNumber();
}
std::string EvalString(ScalarPtr s) {
  auto v = Evaluate(*s, Value());
  NATIX_CHECK(v.ok());
  return v->AsString();
}
bool EvalBool(ScalarPtr s) {
  auto v = Evaluate(*s, Value());
  NATIX_CHECK(v.ok());
  return v->AsBoolean();
}

TEST(NvmTest, Arithmetic) {
  using xpath::BinaryOp;
  EXPECT_EQ(EvalNumber(Arith(BinaryOp::kAdd, Num(2), Num(3))), 5);
  EXPECT_EQ(EvalNumber(Arith(BinaryOp::kSub, Num(2), Num(3))), -1);
  EXPECT_EQ(EvalNumber(Arith(BinaryOp::kMul, Num(2), Num(3))), 6);
  EXPECT_EQ(EvalNumber(Arith(BinaryOp::kDiv, Num(7), Num(2))), 3.5);
  EXPECT_EQ(EvalNumber(Arith(BinaryOp::kMod, Num(7), Num(3))), 1);
  // XPath mod keeps the dividend's sign; div by zero is IEEE.
  EXPECT_EQ(EvalNumber(Arith(BinaryOp::kMod, Num(-7), Num(3))), -1);
  EXPECT_TRUE(std::isinf(EvalNumber(Arith(BinaryOp::kDiv, Num(1), Num(0)))));
  EXPECT_TRUE(std::isnan(EvalNumber(Arith(BinaryOp::kDiv, Num(0), Num(0)))));
}

TEST(NvmTest, ArithmeticConvertsOperands) {
  using xpath::BinaryOp;
  EXPECT_EQ(EvalNumber(Arith(BinaryOp::kAdd, Str("4"), Boolean(true))), 5);
  EXPECT_TRUE(
      std::isnan(EvalNumber(Arith(BinaryOp::kAdd, Str("x"), Num(1)))));
}

TEST(NvmTest, ShortCircuitLogical) {
  using xpath::BinaryOp;
  EXPECT_TRUE(EvalBool(Logical(BinaryOp::kOr, Boolean(true),
                               Boolean(false))));
  EXPECT_FALSE(EvalBool(Logical(BinaryOp::kAnd, Boolean(false),
                                Boolean(true))));
  // The right operand of a decided and/or is skipped: an unbound
  // variable there must not fault.
  ScalarPtr skipped = Logical(BinaryOp::kOr, Boolean(true),
                              VarRef("unbound"));
  auto v = Evaluate(*skipped, Value());
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_TRUE(v->AsBoolean());
  // And when it is not skipped, the fault shows.
  ScalarPtr taken = Logical(BinaryOp::kOr, Boolean(false),
                            VarRef("unbound"));
  EXPECT_FALSE(Evaluate(*taken, Value()).ok());
}

TEST(NvmTest, Comparisons) {
  using runtime::CompareOp;
  EXPECT_TRUE(EvalBool(Compare(CompareOp::kLt, Num(1), Num(2))));
  EXPECT_FALSE(EvalBool(Compare(CompareOp::kGe, Num(1), Num(2))));
  // Type promotion: number vs string compares numerically.
  EXPECT_TRUE(EvalBool(Compare(CompareOp::kEq, Num(5), Str("5"))));
  // Boolean dominates equality.
  EXPECT_TRUE(EvalBool(Compare(CompareOp::kEq, Boolean(true), Str("x"))));
  // NaN compares false to everything with =.
  EXPECT_FALSE(EvalBool(Compare(CompareOp::kEq,
                                Call(xpath::FunctionId::kNumber,
                                     MakeVector(Str("x"))),
                                Num(1))));
  EXPECT_TRUE(EvalBool(Compare(CompareOp::kNe,
                               Call(xpath::FunctionId::kNumber,
                                    MakeVector(Str("x"))),
                               Num(1))));
}

TEST(NvmTest, StringFunctions) {
  using xpath::FunctionId;
  EXPECT_EQ(EvalString(Call(FunctionId::kConcat,
                            MakeVector(Str("a"), Str("b"), Str("c")))),
            "abc");
  EXPECT_TRUE(EvalBool(Call(FunctionId::kStartsWith,
                            MakeVector(Str("hello"), Str("he")))));
  EXPECT_TRUE(EvalBool(Call(FunctionId::kContains,
                            MakeVector(Str("hello"), Str("ell")))));
  EXPECT_EQ(EvalString(Call(FunctionId::kSubstringBefore,
                            MakeVector(Str("a/b"), Str("/")))),
            "a");
  EXPECT_EQ(EvalString(Call(FunctionId::kSubstringAfter,
                            MakeVector(Str("a/b"), Str("/")))),
            "b");
  EXPECT_EQ(EvalString(Call(FunctionId::kNormalizeSpace,
                            MakeVector(Str("  x  y ")))),
            "x y");
  EXPECT_EQ(EvalString(Call(FunctionId::kTranslate,
                            MakeVector(Str("bar"), Str("abc"), Str("ABC")))),
            "BAr");
  EXPECT_EQ(EvalNumber(Call(FunctionId::kStringLength,
                            MakeVector(Str("four")))),
            4);
}

TEST(NvmTest, SubstringEdgeCases) {
  using xpath::FunctionId;
  // The recommendation's examples (Sec. 4.2).
  EXPECT_EQ(EvalString(Call(FunctionId::kSubstring,
                            MakeVector(Str("12345"), Num(2), Num(3)))),
            "234");
  EXPECT_EQ(EvalString(Call(FunctionId::kSubstring,
                            MakeVector(Str("12345"), Num(1.5), Num(2.6)))),
            "234");
  EXPECT_EQ(EvalString(Call(FunctionId::kSubstring,
                            MakeVector(Str("12345"), Num(0), Num(3)))),
            "12");
  EXPECT_EQ(EvalString(Call(
                FunctionId::kSubstring,
                MakeVector(Str("12345"), Arith(xpath::BinaryOp::kDiv,
                                               Num(0), Num(0)),
                           Num(3)))),
            "");
  EXPECT_EQ(EvalString(Call(FunctionId::kSubstring,
                            MakeVector(Str("12345"), Num(2)))),
            "2345");
  EXPECT_EQ(EvalString(Call(
                FunctionId::kSubstring,
                MakeVector(Str("12345"), Num(-42),
                           Arith(xpath::BinaryOp::kDiv, Num(1), Num(0))))),
            "12345");
  // -Infinity start with +Infinity length: the bound sum is NaN, nothing
  // qualifies (the recommendation's last substring() example).
  EXPECT_EQ(EvalString(Call(
                FunctionId::kSubstring,
                MakeVector(Str("12345"),
                           Arith(xpath::BinaryOp::kDiv, Num(-1), Num(0)),
                           Arith(xpath::BinaryOp::kDiv, Num(1), Num(0))))),
            "");
}

TEST(NvmTest, NumberFunctions) {
  using xpath::FunctionId;
  EXPECT_EQ(EvalNumber(Call(FunctionId::kFloor, MakeVector(Num(2.6)))), 2);
  EXPECT_EQ(EvalNumber(Call(FunctionId::kCeiling, MakeVector(Num(2.2)))), 3);
  EXPECT_EQ(EvalNumber(Call(FunctionId::kRound, MakeVector(Num(2.5)))), 3);
  EXPECT_EQ(EvalNumber(Call(FunctionId::kRound, MakeVector(Num(-2.5)))), -2);
}

TEST(NvmTest, VariablesAndAttributes) {
  auto v = Evaluate(*VarRef("v"), Value());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsNumber(), 42);

  auto a = Evaluate(*Arith(xpath::BinaryOp::kAdd, AttrRef("attr0"), Num(1)),
                    Value::Number(9));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a->AsNumber(), 10);

  EXPECT_FALSE(Evaluate(*VarRef("missing"), Value()).ok());
}

TEST(NvmTest, NodeNavigation) {
  storage::NodeStore::Options options;
  options.buffer_pages = 16;
  auto store = storage::NodeStore::CreateTemp(options);
  ASSERT_TRUE(store.ok());
  auto info = storage::LoadDocument(
      store->get(), "doc",
      "<outer xml:lang='en'><ns:inner/>text</outer>");
  ASSERT_TRUE(info.ok());

  // Find the outer element.
  storage::NodeRecord root_record;
  ASSERT_TRUE((*store)->ReadNode(info->root, &root_record).ok());
  storage::NodeId outer = root_record.first_child;
  storage::NodeRecord outer_record;
  ASSERT_TRUE((*store)->ReadNode(outer, &outer_record).ok());
  storage::NodeId inner = outer_record.first_child;
  storage::NodeRecord inner_record;
  ASSERT_TRUE((*store)->ReadNode(inner, &inner_record).ok());

  Value inner_node = Value::Node(
      runtime::NodeRef::Make(inner, inner_record.order));

  // name / local-name.
  auto name = Evaluate(*Call(xpath::FunctionId::kRootInternal,
                             MakeVector(AttrRef("attr0"))),
                       inner_node, store->get());
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(name->AsNode().node_id(), info->root);

  // lang() climbs to the xml:lang on <outer>.
  auto lang = Evaluate(*Call(xpath::FunctionId::kLang,
                             MakeVector(Str("en"), AttrRef("attr0"))),
                       inner_node, store->get());
  ASSERT_TRUE(lang.ok());
  EXPECT_TRUE(lang->AsBoolean());
  auto lang_de = Evaluate(*Call(xpath::FunctionId::kLang,
                                MakeVector(Str("de"), AttrRef("attr0"))),
                          inner_node, store->get());
  ASSERT_TRUE(lang_de.ok());
  EXPECT_FALSE(lang_de->AsBoolean());
}

// --- assembler jump-target fixup regressions ------------------------------
//
// The assembler patches forward-jump placeholders after emission; these
// pin the edge cases of that fixup: a target that lands exactly on the
// last instruction, an empty-body self-loop, and a backward branch. All
// three must satisfy the Layer-3 verifier, whose dataflow worklist (like
// the listing's CFG) must not spin on a cycle.

TEST(NvmJumpFixupTest, ShortCircuitTargetsStayInRange) {
  // Short-circuit or: the taken edge jumps over the rhs evaluation,
  // close to the end of the program.
  ScalarPtr expr = Logical(xpath::BinaryOp::kOr, Boolean(true),
                           VarRef("unbound"));
  AttrResolver resolver =
      [](const std::string&) -> StatusOr<runtime::RegisterId> {
    return Status::Internal("no attributes");
  };
  NestedRegistrar registrar = [](const Scalar&) -> StatusOr<size_t> {
    return Status::Internal("no nested plans");
  };
  auto program = CompileScalar(*expr, resolver, NoNodeTests(), registrar);
  ASSERT_TRUE(program.ok());
  for (const Instruction& ins : program->code) {
    if (ins.op == OpCode::kJump || ins.op == OpCode::kJumpIfTrue ||
        ins.op == OpCode::kJumpIfFalse) {
      EXPECT_LT(ins.b, program->code.size());
    }
  }
  EXPECT_TRUE(analysis::VerifyProgram(*program, 0, 0).ok());
}

TEST(NvmJumpFixupTest, JumpToLastInstructionIsValid) {
  // The conditional jump targets the final halt — the largest legal
  // target. One past it must be rejected.
  Program program;
  program.code = {Instruction{OpCode::kLoadConst, 0, 0, 0, 0},
                  Instruction{OpCode::kJumpIfTrue, 0, 2, 0, 0},
                  Instruction{OpCode::kHalt, 0, 0, 0, 0}};
  program.register_count = 1;
  program.constants = {Value::Boolean(true)};
  EXPECT_TRUE(analysis::VerifyProgram(program, 0, 0).ok());

  auto result = Vm(&program).Run(
      runtime::RegisterFile(0), runtime::EvalContext{}, {},
      [](size_t) -> StatusOr<Value> {
        return Status::Internal("no nested plans");
      });
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->AsBoolean());

  program.code[1].b = 3;  // one past the end
  auto status = analysis::VerifyProgram(program, 0, 0);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("out of range"), std::string::npos);
}

TEST(NvmJumpFixupTest, EmptyBodySelfLoopVerifiesAndLists) {
  // `0: jump 0` — an empty-body loop. Structurally legal (it cannot
  // fall off the end); the verifier's dataflow worklist and the
  // listing's CFG must both terminate on the cycle.
  Program program;
  program.code = {Instruction{OpCode::kJump, 0, 0, 0, 0},
                  Instruction{OpCode::kHalt, 0, 0, 0, 0}};
  program.register_count = 1;
  EXPECT_TRUE(analysis::VerifyProgram(program, 0, 0).ok());
  EXPECT_NE(program.Disassemble().find("0: jump -> L0"), std::string::npos);
}

TEST(NvmJumpFixupTest, BackwardBranchVerifiesAndRuns) {
  Program program;
  program.code = {Instruction{OpCode::kLoadConst, 0, 0, 0, 0},
                  Instruction{OpCode::kJumpIfTrue, 0, 0, 0, 0},
                  Instruction{OpCode::kHalt, 0, 0, 0, 0}};
  program.register_count = 1;
  program.constants = {Value::Boolean(false)};
  EXPECT_TRUE(analysis::VerifyProgram(program, 0, 0).ok());

  auto result = Vm(&program).Run(
      runtime::RegisterFile(0), runtime::EvalContext{}, {},
      [](size_t) -> StatusOr<Value> {
        return Status::Internal("no nested plans");
      });
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->AsBoolean());
}

TEST(NvmTest, DisassemblerIsReadable) {
  ScalarPtr expr = Arith(xpath::BinaryOp::kAdd, Num(1), AttrRef("attr0"));
  AttrResolver resolver =
      [](const std::string&) -> StatusOr<runtime::RegisterId> {
    return runtime::RegisterId{0};
  };
  NestedRegistrar registrar = [](const Scalar&) -> StatusOr<size_t> {
    return 0;
  };
  auto program = CompileScalar(*expr, resolver, NoNodeTests(), registrar);
  ASSERT_TRUE(program.ok());
  std::string text = program->Disassemble();
  EXPECT_NE(text.find("load_const"), std::string::npos);
  EXPECT_NE(text.find("load_attr"), std::string::npos);
  EXPECT_NE(text.find("add"), std::string::npos);
  EXPECT_NE(text.find("halt"), std::string::npos);
}

// --- CFG and listing -------------------------------------------------------

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

TEST(NvmCfgTest, BlocksLabelsAndReachability) {
  // if (c0) r1 = c1 else r1 = c0 — a diamond of four blocks.
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 4),
       Ins(OpCode::kLoadConst, 1, 0), Ins(OpCode::kJump, 0, 5),
       Ins(OpCode::kLoadConst, 1, 1), Ins(OpCode::kHalt, 1)},
      2, {Value::Boolean(true), Value::Number(7)});
  Cfg cfg = Cfg::Build(p);
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
  const Cfg::Block& entry = cfg.blocks[cfg.block_of[0]];
  ASSERT_EQ(entry.succs.size(), 2u);
  const Cfg::Block& exit = cfg.blocks[cfg.block_of[5]];
  EXPECT_EQ(exit.preds.size(), 2u);
}

TEST(NvmCfgTest, MarksUnreachableBlocks) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJump, 0, 3),
       Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kHalt, 0)},
      1, {Value::Number(1)});
  Cfg cfg = Cfg::Build(p);
  EXPECT_TRUE(cfg.Reachable(0));
  EXPECT_FALSE(cfg.Reachable(2));
  EXPECT_TRUE(cfg.Reachable(3));
}

TEST(NvmRenderTest, ListingCarriesLabelsAndOperands) {
  auto p = MakeProgram(
      {Ins(OpCode::kLoadConst, 0, 0), Ins(OpCode::kJumpIfTrue, 0, 2),
       Ins(OpCode::kHalt, 0)},
      1, {Value::Boolean(true)});
  std::string listing = p.Disassemble();
  EXPECT_NE(listing.find("L0:"), std::string::npos);
  EXPECT_NE(listing.find("jump_if_true r0 -> L1"), std::string::npos);
  EXPECT_NE(listing.find("load_const r0, true"), std::string::npos);
}

}  // namespace
}  // namespace natix::nvm
