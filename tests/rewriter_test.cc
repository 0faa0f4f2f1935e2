// Tests for the logical plan simplifier: the duplicate-freeness analysis
// and the rewrites it licenses. Correctness under the rewrites is also
// covered end-to-end by conformance_test/fuzz_conformance_test (the
// improved translation runs with simplification on).

#include "algebra/rewriter.h"

#include <gtest/gtest.h>

#include "analysis/plan_verifier.h"
#include "translate/translator.h"
#include "xpath/fold.h"
#include "xpath/normalizer.h"
#include "xpath/parser.h"
#include "xpath/sema.h"

namespace natix::algebra {
namespace {

translate::TranslationResult TranslateNoSimplify(const std::string& query) {
  auto ast = xpath::ParseXPath(query);
  NATIX_CHECK(ast.ok());
  NATIX_CHECK(xpath::Analyze(ast->get()).ok());
  xpath::FoldConstants(ast->get());
  xpath::Normalize(ast->get());
  translate::TranslatorOptions options;  // improved
  options.simplify_plan = false;
  auto result = translate::Translate(**ast, options,
                                     analysis::VerificationEnabled());
  NATIX_CHECK(result.ok());
  return std::move(result.value());
}

/// Simplifies `plan`, expecting every rule application to verify.
size_t Simplify(OpPtr* plan, RewriteLog* log = nullptr) {
  auto removed = SimplifyPlan(plan, analysis::VerificationEnabled(), log);
  EXPECT_TRUE(removed.ok()) << removed.status().ToString();
  return removed.ok() ? *removed : 0;
}

size_t CountKind(const Operator& op, OpKind kind) {
  size_t n = op.kind == kind ? 1 : 0;
  for (const OpPtr& child : op.children) n += CountKind(*child, kind);
  return n;
}

TEST(RewriterTest, ChildStepAfterDedupIsDuplicateFree) {
  auto result = TranslateNoSimplify("//a/b");
  // Before: dedup after the ppd // step AND a final dedup.
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 2u);
  RewriteLog log;
  size_t removed = Simplify(&result.plan, &log);
  // Both are provably redundant: descendant-or-self expands the
  // non-nested document root (inherently duplicate-free), and the child
  // step runs over that deduplicated context.
  EXPECT_EQ(removed, 2u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 0u);
  ASSERT_EQ(log.size(), 2u);
  for (const RewriteEvent& event : log) {
    EXPECT_EQ(event.rule, "drop-redundant-duplicate-elimination");
    EXPECT_FALSE(event.target.empty());
    EXPECT_NE(event.justification.find("dup-free"), std::string::npos);
  }
}

TEST(RewriterTest, DescendantOverNonNestedContextDedupIsRemoved) {
  auto result = TranslateNoSimplify("/a/descendant::b");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 1u);
  size_t removed = Simplify(&result.plan);
  // /a elements are siblings (children of the root), hence non-nested:
  // their descendant sets are disjoint, so the dedup is redundant.
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 0u);
}

TEST(RewriterTest, DescendantOverNestedContextDedupIsKept) {
  auto result = TranslateNoSimplify("//a/descendant::b");
  size_t before = CountKind(*result.plan, OpKind::kDupElim);
  Simplify(&result.plan);
  // //a contexts can nest, so distinct contexts may share descendants:
  // the dedup after descendant::b must survive.
  EXPECT_GE(CountKind(*result.plan, OpKind::kDupElim), 1u);
  EXPECT_LT(CountKind(*result.plan, OpKind::kDupElim), before);
}

TEST(RewriterTest, UnionDedupIsKept) {
  auto result = TranslateNoSimplify("a | b");
  size_t before = CountKind(*result.plan, OpKind::kDupElim);
  Simplify(&result.plan);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), before);
  EXPECT_EQ(result.plan->kind, OpKind::kDupElim);
}

TEST(RewriterTest, PropertiesOfSingletonScan) {
  OpPtr scan = MakeOp(OpKind::kSingletonScan);
  SequenceProperties props = InferProperties(*scan);
  EXPECT_TRUE(props.singleton);
}

TEST(RewriterTest, ChildChainFromContextIsDuplicateFree) {
  auto result = TranslateNoSimplify("a/b/c");
  // Stacked pipeline over the free context attribute: everything stays
  // duplicate-free; there is no dedup to begin with.
  EXPECT_EQ(CountKind(*result.plan, OpKind::kDupElim), 0u);
  SequenceProperties props = InferProperties(*result.plan);
  EXPECT_FALSE(props.singleton);
  // Earlier steps' attributes repeat across the fan-out; only the last
  // step's output is duplicate-free.
  EXPECT_EQ(props.duplicate_free,
            std::set<std::string>{result.result_attr});
}

TEST(RewriterTest, ParentStepBreaksDistinctness) {
  auto result = TranslateNoSimplify("a/parent::*/b");
  SequenceProperties props = InferProperties(*result.plan);
  // The final child step runs over a deduplicated parent context, so its
  // output is duplicate-free again.
  auto canonical_ast = TranslateNoSimplify("a/parent::*");
  SequenceProperties parent_props =
      InferProperties(*canonical_ast.plan->children[0]);
  // parent::* output before the dedup may contain duplicates.
  EXPECT_EQ(parent_props.duplicate_free.count(canonical_ast.result_attr),
            0u);
  (void)props;
}

TEST(RewriterTest, ConstantTrueSelectionFoldsAway) {
  // true() folds to a boolean literal, the predicate becomes sigma_true.
  auto result = TranslateNoSimplify("a[true()]");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSelect), 1u);
  size_t removed = Simplify(&result.plan);
  EXPECT_EQ(removed, 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSelect), 0u);
}

TEST(RewriterTest, SortOnOrderedInputIsRemoved) {
  // A child chain from the (singleton) context is already in document
  // order: the positional filter expression needs no sort.
  auto result = TranslateNoSimplify("(/a/b/c)[2]");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
  size_t removed = Simplify(&result.plan);
  EXPECT_GE(removed, 1u);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 0u);
}

TEST(RewriterTest, SortOnDescendantsIsRemoved) {
  // /descendant::a from the root is emitted in document order.
  auto result = TranslateNoSimplify("(/descendant::a)[last()]");
  Simplify(&result.plan);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 0u);
}

TEST(RewriterTest, SortAfterChildOfNestedContextsIsKept) {
  // //a produces nested contexts; the following child step's output can
  // interleave, so the sort must stay.
  auto result = TranslateNoSimplify("(//a/b)[1]");
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
  Simplify(&result.plan);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
}

TEST(RewriterTest, SortAfterUnionIsKept) {
  auto result = TranslateNoSimplify("(/a/b | /a/c)[1]");
  Simplify(&result.plan);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
}

TEST(RewriterTest, SortAfterReverseAxisIsKept) {
  auto result = TranslateNoSimplify("(/a/b/ancestor::*)[1]");
  Simplify(&result.plan);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 1u);
}

TEST(RewriterTest, AttributeStepsKeepDocumentOrder) {
  auto result = TranslateNoSimplify("(/a/b/@x)[2]");
  Simplify(&result.plan);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), 0u);
}

TEST(RewriterTest, SortAfterDescendantUnderFollowingSiblingIsKept) {
  // following-sibling over a many-node context emits per-context runs
  // that interleave, and distinct contexts share siblings: neither
  // order nor duplicate-freedom can be claimed, so both the dedup and
  // the sort must survive (the unsound-removal regression case).
  auto result =
      TranslateNoSimplify("(/a/b/following-sibling::*/descendant::c)[1]");
  size_t sorts = CountKind(*result.plan, OpKind::kSort);
  ASSERT_GE(sorts, 1u);
  Simplify(&result.plan);
  EXPECT_EQ(CountKind(*result.plan, OpKind::kSort), sorts);
  EXPECT_GE(CountKind(*result.plan, OpKind::kDupElim), 1u);
}

TEST(RewriterTest, ImprovedDefaultsSimplify) {
  // Through the public options, //a/b needs no dedup at all: the
  // descendant-or-self step expands the non-nested document root.
  auto ast = xpath::ParseXPath("//a/b");
  ASSERT_TRUE(ast.ok());
  ASSERT_TRUE(xpath::Analyze(ast->get()).ok());
  xpath::Normalize(ast->get());
  auto result =
      translate::Translate(**ast, translate::TranslatorOptions::Improved(),
                           analysis::VerificationEnabled());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(CountKind(*result->plan, OpKind::kDupElim), 0u);
  // The applied rewrites are logged with their proving properties.
  EXPECT_EQ(result->rewrites.size(), 2u);
}

TEST(RewriterTest, CheckedSimplifyAcceptsItsOwnRewrites) {
  auto result = TranslateNoSimplify("(//a/b)[1]");
  RewriteLog log;
  auto removed =
      SimplifyPlan(&result.plan, analysis::VerificationEnabled(), &log);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GE(*removed, 1u);
}

}  // namespace
}  // namespace natix::algebra
