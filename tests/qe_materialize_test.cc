// Direct tests of the materializing operators' internal behaviour:
// MemoX hit/miss accounting and partial-drain safety, Tmp^cs grouping
// edges, and the semi-/anti-join probe semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "qe/exec_context.h"
#include "qe/operators.h"
#include "qe/subscripts.h"
#include "nvm/assembler.h"

namespace natix::qe {
namespace {

using runtime::RegisterId;
using runtime::Value;

/// An iterator producing a fixed list of numbers into one register, and
/// counting how often it is opened (to observe memoization).
class NumbersIterator : public Iterator {
 public:
  NumbersIterator(ExecutionContext* state, RegisterId out,
                  std::vector<double> values)
      : state_(state), out_(out), values_(std::move(values)) {}

  Status OpenImpl() override {
    ++open_count_;
    pos_ = 0;
    return Status::OK();
  }
  Status NextImpl(bool* has) override {
    if (pos_ >= values_.size()) {
      *has = false;
      return Status::OK();
    }
    state_->registers[out_] = Value::Number(values_[pos_++]);
    *has = true;
    return Status::OK();
  }
  Status CloseImpl() override { return Status::OK(); }

  int open_count() const { return open_count_; }

 private:
  ExecutionContext* state_;
  RegisterId out_;
  std::vector<double> values_;
  size_t pos_ = 0;
  int open_count_ = 0;
};

std::vector<double> Drain(Iterator* iter, ExecutionContext* state,
                          RegisterId reg) {
  NATIX_CHECK(iter->Open().ok());
  std::vector<double> out;
  while (true) {
    bool has = false;
    NATIX_CHECK(iter->Next(&has).ok());
    if (!has) break;
    out.push_back(state->registers[reg].AsNumber());
  }
  NATIX_CHECK(iter->Close().ok());
  return out;
}

TEST(MemoXIteratorTest, HitsReplayWithoutReopeningChild) {
  ExecutionContext state;
  state.registers.Resize(2);
  // Register 0 is the memo key; register 1 the child's output.
  auto numbers = std::make_unique<NumbersIterator>(
      &state, 1, std::vector<double>{7, 8, 9});
  NumbersIterator* child = numbers.get();
  MemoXIterator memo(&state, std::move(numbers), {0}, {1});

  state.registers[0] = Value::String("keyA");
  EXPECT_EQ(Drain(&memo, &state, 1), (std::vector<double>{7, 8, 9}));
  EXPECT_EQ(child->open_count(), 1);
  EXPECT_EQ(memo.miss_count(), 1u);

  // Same key again: replayed from the table, child untouched.
  state.registers[0] = Value::String("keyA");
  EXPECT_EQ(Drain(&memo, &state, 1), (std::vector<double>{7, 8, 9}));
  EXPECT_EQ(child->open_count(), 1);
  EXPECT_EQ(memo.hit_count(), 1u);

  // Different key: the child runs again.
  state.registers[0] = Value::String("keyB");
  EXPECT_EQ(Drain(&memo, &state, 1), (std::vector<double>{7, 8, 9}));
  EXPECT_EQ(child->open_count(), 2);
}

TEST(MemoXIteratorTest, PartialDrainIsNotCommitted) {
  ExecutionContext state;
  state.registers.Resize(2);
  auto numbers = std::make_unique<NumbersIterator>(
      &state, 1, std::vector<double>{1, 2, 3});
  NumbersIterator* child = numbers.get();
  MemoXIterator memo(&state, std::move(numbers), {0}, {1});

  state.registers[0] = Value::String("k");
  ASSERT_TRUE(memo.Open().ok());
  bool has = false;
  ASSERT_TRUE(memo.Next(&has).ok());
  ASSERT_TRUE(has);  // consumed only one tuple
  ASSERT_TRUE(memo.Close().ok());  // early close: entry must not commit

  // The next evaluation with the same key recomputes.
  state.registers[0] = Value::String("k");
  EXPECT_EQ(Drain(&memo, &state, 1), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(child->open_count(), 2);
  EXPECT_EQ(memo.hit_count(), 0u);
}

TEST(TmpCsIteratorTest, WholeInputIsOneContextWithoutBoundary) {
  ExecutionContext state;
  state.registers.Resize(2);
  auto numbers = std::make_unique<NumbersIterator>(
      &state, 0, std::vector<double>{4, 5, 6, 7});
  TmpCsIterator tmp(&state, std::move(numbers), 1, std::nullopt, {0});
  ASSERT_TRUE(tmp.Open().ok());
  int count = 0;
  while (true) {
    bool has = false;
    ASSERT_TRUE(tmp.Next(&has).ok());
    if (!has) break;
    ++count;
    EXPECT_EQ(state.registers[1].AsNumber(), 4);  // cs = 4 for every tuple
  }
  EXPECT_EQ(count, 4);
}

TEST(TmpCsIteratorTest, GroupsByBoundaryRuns) {
  ExecutionContext state;
  state.registers.Resize(3);
  // Register 0: boundary values 1,1,2,2,2,3 (runs of sizes 2,3,1).
  auto numbers = std::make_unique<NumbersIterator>(
      &state, 0, std::vector<double>{1, 1, 2, 2, 2, 3});
  TmpCsIterator tmp(&state, std::move(numbers), 1,
                    std::optional<RegisterId>{0}, {0});
  ASSERT_TRUE(tmp.Open().ok());
  std::vector<std::pair<double, double>> rows;  // (boundary, cs)
  while (true) {
    bool has = false;
    ASSERT_TRUE(tmp.Next(&has).ok());
    if (!has) break;
    rows.emplace_back(state.registers[0].AsNumber(),
                      state.registers[1].AsNumber());
  }
  std::vector<std::pair<double, double>> expected = {
      {1, 2}, {1, 2}, {2, 3}, {2, 3}, {2, 3}, {3, 1}};
  EXPECT_EQ(rows, expected);
}

TEST(TmpCsIteratorTest, EmptyInput) {
  ExecutionContext state;
  state.registers.Resize(2);
  auto numbers =
      std::make_unique<NumbersIterator>(&state, 0, std::vector<double>{});
  TmpCsIterator tmp(&state, std::move(numbers), 1, std::nullopt, {0});
  ASSERT_TRUE(tmp.Open().ok());
  bool has = true;
  ASSERT_TRUE(tmp.Next(&has).ok());
  EXPECT_FALSE(has);
}

/// Compiles "left < right" over two number registers into `program`,
/// which the returned subscript borrows.
SubscriptPtr LessThan(ExecutionContext* state, NestedTable* nested,
                      nvm::Program* program, RegisterId left,
                      RegisterId right) {
  auto lhs = algebra::MakeScalar(algebra::ScalarKind::kAttrRef);
  lhs->name = "l";
  auto rhs = algebra::MakeScalar(algebra::ScalarKind::kAttrRef);
  rhs->name = "r";
  auto cmp = algebra::MakeScalar(algebra::ScalarKind::kCompare);
  cmp->cmp = runtime::CompareOp::kLt;
  cmp->children.push_back(std::move(lhs));
  cmp->children.push_back(std::move(rhs));
  nvm::AttrResolver resolver =
      [&](const std::string& name) -> StatusOr<RegisterId> {
    return name == "l" ? left : right;
  };
  nvm::NestedRegistrar registrar =
      [](const algebra::Scalar&) -> StatusOr<size_t> {
    return Status::Internal("none");
  };
  nvm::NodeTestResolver no_tests = [](const xpath::AstNodeTest&) {
    return runtime::NodeTest();
  };
  auto compiled = nvm::CompileScalar(*cmp, resolver, no_tests, registrar);
  NATIX_CHECK(compiled.ok());
  *program = std::move(compiled).value();
  return std::make_unique<Subscript>(*program, state, nested);
}

TEST(SemiJoinIteratorTest, SemiAndAntiAreComplements) {
  for (auto mode :
       {SemiJoinIterator::Mode::kSemi, SemiJoinIterator::Mode::kAnti}) {
    ExecutionContext state;
    state.registers.Resize(2);
    NestedTable nested;
    nvm::Program program;
    auto left = std::make_unique<NumbersIterator>(
        &state, 0, std::vector<double>{1, 5, 9});
    auto right = std::make_unique<NumbersIterator>(
        &state, 1, std::vector<double>{4, 6});
    SemiJoinIterator join(mode, std::move(left), std::move(right),
                          LessThan(&state, &nested, &program, 0, 1));
    // Semi: left values with SOME right value greater: 1 (<4), 5 (<6).
    // Anti: left values with NO right value greater: 9.
    std::vector<double> got = Drain(&join, &state, 0);
    if (mode == SemiJoinIterator::Mode::kSemi) {
      EXPECT_EQ(got, (std::vector<double>{1, 5}));
    } else {
      EXPECT_EQ(got, (std::vector<double>{9}));
    }
  }
}

TEST(AggregateTest, MaxMinOverNumbers) {
  for (auto agg : {algebra::AggKind::kMax, algebra::AggKind::kMin}) {
    ExecutionContext state;
    state.registers.Resize(2);
    NestedPlan plan;
    plan.iter = std::make_unique<NumbersIterator>(
        &state, 0, std::vector<double>{3, -2, 8, 0});
    plan.agg = agg;
    plan.input_reg = 0;
    auto value = RunNestedAggregate(&plan, &state);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->AsNumber(), agg == algebra::AggKind::kMax ? 8 : -2);
  }
}

TEST(AggregateTest, EmptyExtremaAreNaN) {
  ExecutionContext state;
  state.registers.Resize(1);
  NestedPlan plan;
  plan.iter =
      std::make_unique<NumbersIterator>(&state, 0, std::vector<double>{});
  plan.agg = algebra::AggKind::kMax;
  plan.input_reg = 0;
  auto value = RunNestedAggregate(&plan, &state);
  ASSERT_TRUE(value.ok());
  EXPECT_TRUE(std::isnan(value->AsNumber()));
}

}  // namespace
}  // namespace natix::qe
