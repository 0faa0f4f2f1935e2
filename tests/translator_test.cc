// Structural tests of the translation itself: the shapes of the produced
// algebra plans must match the paper's translation schemes — d-join
// chains for the canonical translation (Sec. 3), stacked pipelines,
// pushed duplicate elimination, MemoX placement and the predicate
// pipeline for the improved translation (Sec. 4).

#include "translate/translator.h"

#include <gtest/gtest.h>

#include "algebra/properties.h"
#include "analysis/plan_verifier.h"
#include "xpath/fold.h"
#include "xpath/normalizer.h"
#include "xpath/parser.h"
#include "xpath/sema.h"

namespace natix::translate {
namespace {

using algebra::Operator;
using algebra::OpKind;

TranslationResult TranslateQuery(const std::string& query,
                                 const TranslatorOptions& options) {
  auto ast = xpath::ParseXPath(query);
  NATIX_CHECK(ast.ok());
  NATIX_CHECK(xpath::Analyze(ast->get()).ok());
  xpath::FoldConstants(ast->get());
  xpath::Normalize(ast->get());
  auto result = Translate(**ast, options, analysis::VerificationEnabled());
  NATIX_CHECK(result.ok());
  return std::move(result.value());
}

/// Counts operators of `kind` in the plan, including nested subplans.
size_t CountOps(const Operator& op, OpKind kind);

size_t CountOpsInScalar(const algebra::Scalar& s, OpKind kind) {
  size_t n = 0;
  if (s.kind == algebra::ScalarKind::kNested) n += CountOps(*s.plan, kind);
  for (const auto& child : s.children) n += CountOpsInScalar(*child, kind);
  return n;
}

size_t CountOps(const Operator& op, OpKind kind) {
  size_t n = op.kind == kind ? 1 : 0;
  if (op.scalar != nullptr) n += CountOpsInScalar(*op.scalar, kind);
  for (const auto& child : op.children) n += CountOps(*child, kind);
  return n;
}

TEST(TranslatorTest, CanonicalPathIsDJoinChain) {
  auto result = TranslateQuery("/a/b/c", TranslatorOptions::Canonical());
  // Three steps -> three d-joins; no dedup needed (child axes only).
  EXPECT_EQ(CountOps(*result.plan, OpKind::kDJoin), 3u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kUnnestMap), 3u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kDupElim), 0u);
  // Dependent sides are singleton scans (3) plus none at the top.
  EXPECT_EQ(CountOps(*result.plan, OpKind::kSingletonScan), 4u);
}

TEST(TranslatorTest, ImprovedPathIsStackedPipeline) {
  auto result = TranslateQuery("/a/b/c", TranslatorOptions::Improved());
  // Stacked: no d-joins, the unnest-maps chain directly.
  EXPECT_EQ(CountOps(*result.plan, OpKind::kDJoin), 0u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kUnnestMap), 3u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kSingletonScan), 1u);
}

TEST(TranslatorTest, CanonicalDedupOnlyAtTheEnd) {
  auto result =
      TranslateQuery("//a/ancestor::b/c", TranslatorOptions::Canonical());
  // One final duplicate elimination, at the root of the plan.
  EXPECT_EQ(CountOps(*result.plan, OpKind::kDupElim), 1u);
  EXPECT_EQ(result.plan->kind, OpKind::kDupElim);
}

TEST(TranslatorTest, ImprovedPushesDuplicateElimination) {
  auto result =
      TranslateQuery("//a/ancestor::b/c", TranslatorOptions::Improved());
  // descendant-or-self (//) and ancestor are both ppd, but property
  // inference proves two of the three dedups redundant: // expands the
  // non-nested root, and child::c over the deduplicated ancestor
  // context stays duplicate-free. Only the ancestor dedup survives.
  EXPECT_EQ(CountOps(*result.plan, OpKind::kDupElim), 1u);
}

TEST(TranslatorTest, NoDedupForNonPpdPaths) {
  auto result = TranslateQuery("/a/b/@x", TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*result.plan, OpKind::kDupElim), 0u);
}

TEST(TranslatorTest, PositionalPredicateAddsCounter) {
  auto result = TranslateQuery("/a/b[position() = 2]",
                               TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*result.plan, OpKind::kCounter), 1u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kTmpCs), 0u);
}

TEST(TranslatorTest, LastPredicateAddsTmpCs) {
  // The translation proper, before the simplifier's reverse scan.
  TranslatorOptions options = TranslatorOptions::Improved();
  options.simplify_plan = false;
  auto result = TranslateQuery("/a/b[position() = last()]", options);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kCounter), 1u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kTmpCs), 1u);
  // Over the one context /a the simplifier counts from the end instead
  // (limit:reverse-scan) and the spool goes.
  auto simplified = TranslateQuery("/a/b[position() = last()]",
                                   TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*simplified.plan, OpKind::kCounter), 1u);
  EXPECT_EQ(CountOps(*simplified.plan, OpKind::kTmpCs), 0u);
  EXPECT_EQ(CountOps(*simplified.plan, OpKind::kLimit), 1u);
}

TEST(TranslatorTest, EachPredicateGetsItsOwnCounter) {
  auto result = TranslateQuery("/a/b[position() = 1][position() = 1]",
                               TranslatorOptions::Improved());
  // The second predicate renumbers the survivors of the first.
  EXPECT_EQ(CountOps(*result.plan, OpKind::kCounter), 2u);
}

TEST(TranslatorTest, FilterExpressionSortsBeforeCounting) {
  auto positional = TranslateQuery("(//a | //b)[2]",
                                   TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*positional.plan, OpKind::kSort), 1u);
  auto plain = TranslateQuery("(//a | //b)[@x]",
                              TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*plain.plan, OpKind::kSort), 0u);
}

TEST(TranslatorTest, UnionIsConcatPlusDedup) {
  auto result = TranslateQuery("a | b | c", TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*result.plan, OpKind::kConcat), 1u);
  EXPECT_EQ(result.plan->kind, OpKind::kDupElim);
  EXPECT_EQ(result.plan->children[0]->kind, OpKind::kConcat);
  EXPECT_EQ(result.plan->children[0]->children.size(), 3u);
}

TEST(TranslatorTest, InnerPathsUseMemoXAfterPpdSteps) {
  auto improved = TranslateQuery("/a[count(descendant::c/following::d) = 1]",
                                 TranslatorOptions::Improved());
  // The following:: step's dependent side is memoized (its input context
  // — a descendant — can repeat across outer evaluations).
  EXPECT_EQ(CountOps(*improved.plan, OpKind::kMemoX), 1u);

  auto canonical = TranslateQuery(
      "/a[count(descendant::c/following::d) = 1]",
      TranslatorOptions::Canonical());
  EXPECT_EQ(CountOps(*canonical.plan, OpKind::kMemoX), 0u);
}

TEST(TranslatorTest, InnerChildChainsAreNotMemoized) {
  auto result = TranslateQuery("/a[count(b/c) = 1]",
                               TranslatorOptions::Improved());
  // child steps produce no duplicate contexts: no MemoX.
  EXPECT_EQ(CountOps(*result.plan, OpKind::kMemoX), 0u);
}

TEST(TranslatorTest, ExpensiveConjunctsMaterialize) {
  auto result = TranslateQuery("/a/b[count(.//c) > 1 and @x = '1']",
                               TranslatorOptions::Improved());
  // The expensive count() conjunct runs through chi^mat + select; the
  // cheap attribute test runs first as a plain select.
  size_t materializing_maps = 0;
  std::function<void(const Operator&)> scan = [&](const Operator& op) {
    if (op.kind == OpKind::kMap && op.materialize) ++materializing_maps;
    for (const auto& child : op.children) scan(*child);
    if (op.scalar && op.scalar->kind == algebra::ScalarKind::kNested) {
      scan(*op.scalar->plan);
    }
  };
  scan(*result.plan);
  EXPECT_EQ(materializing_maps, 1u);

  // Without the optimization, no materializing maps appear.
  auto canonical = TranslateQuery("/a/b[count(.//c) > 1 and @x = '1']",
                                  TranslatorOptions::Canonical());
  size_t canonical_mat = 0;
  std::function<void(const Operator&)> scan2 = [&](const Operator& op) {
    if (op.kind == OpKind::kMap && op.materialize) ++canonical_mat;
    for (const auto& child : op.children) scan2(*child);
  };
  scan2(*canonical.plan);
  EXPECT_EQ(canonical_mat, 0u);
}

TEST(TranslatorTest, NodeSetComparisonsBecomeExistentialPlans) {
  auto semi = TranslateQuery("a = b", TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*semi.plan, OpKind::kSemiJoin), 1u);
  auto rel = TranslateQuery("a < b", TranslatorOptions::Improved());
  // Relational: select over a d-join with the max/min bound.
  EXPECT_EQ(CountOps(*rel.plan, OpKind::kSemiJoin), 0u);
  EXPECT_GE(CountOps(*rel.plan, OpKind::kSelect), 1u);
}

TEST(TranslatorTest, ScalarQueryIsSingleMapOverSingleton) {
  auto result = TranslateQuery("1 + 2", TranslatorOptions::Improved());
  EXPECT_EQ(result.type, xpath::ExprType::kNumber);
  EXPECT_EQ(result.plan->kind, OpKind::kMap);
  EXPECT_EQ(result.plan->children[0]->kind, OpKind::kSingletonScan);
}

TEST(TranslatorTest, AbsolutePathBindsRoot) {
  auto result = TranslateQuery("/a", TranslatorOptions::Improved());
  // The deepest operator maps c := root(cn) over the singleton scan.
  const Operator* op = result.plan.get();
  while (!op->children.empty()) op = op->children[0].get();
  EXPECT_EQ(op->kind, OpKind::kSingletonScan);
  // And the plan's free attributes are exactly the reserved context.
  auto free = algebra::FreeAttributes(*result.plan);
  EXPECT_TRUE(free.count(kContextNodeAttr) == 1 || free.empty());
}

TEST(TranslatorTest, RelativePathsDependOnContextAttribute) {
  auto result = TranslateQuery("b/c", TranslatorOptions::Improved());
  auto free = algebra::FreeAttributes(*result.plan);
  EXPECT_EQ(free.count(kContextNodeAttr), 1u);
}

TEST(TranslatorTest, IdFunctionPlans) {
  auto from_string = TranslateQuery("id('x')",
                                    TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*from_string.plan, OpKind::kIdDeref), 1u);
  auto from_nodes = TranslateQuery("id(//ref)",
                                   TranslatorOptions::Improved());
  EXPECT_EQ(CountOps(*from_nodes.plan, OpKind::kIdDeref), 1u);
  EXPECT_GE(CountOps(*from_nodes.plan, OpKind::kUnnestMap), 1u);
}

TEST(TranslatorTest, PaperFigure4Expression) {
  // The showcase expression of Fig. 4:
  //   /a1::t1/a2::t2[a4::t4/a5::t5][position() = last()]/a3::t3
  // instantiated with concrete axes. Its improved plan must contain:
  // the nested-path predicate as an existential nested subplan, the
  // position counter, the Tmp^cs_c with context boundary, and three
  // outer unnest-maps stacked without d-joins.
  auto result = TranslateQuery(
      "/child::t1/descendant::t2[child::t4/child::t5]"
      "[position() = last()]/child::t3",
      TranslatorOptions::Improved());
  // The inner path is translated with d-joins (one per inner step).
  EXPECT_EQ(CountOps(*result.plan, OpKind::kDJoin), 2u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kCounter), 1u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kTmpCs), 1u);
  EXPECT_EQ(CountOps(*result.plan, OpKind::kUnnestMap), 5u);  // 3 + 2 inner

  // The canonical plan uses d-joins throughout (3 outer + 2 inner).
  auto canonical = TranslateQuery(
      "/child::t1/descendant::t2[child::t4/child::t5]"
      "[position() = last()]/child::t3",
      TranslatorOptions::Canonical());
  EXPECT_EQ(CountOps(*canonical.plan, OpKind::kDJoin), 5u);
  EXPECT_EQ(CountOps(*canonical.plan, OpKind::kTmpCs), 1u);
}

TEST(TranslatorTest, PlanSizesAreReasonable) {
  // The improved translation should not be larger than the canonical one
  // for plain paths (it drops the d-joins and their singleton scans).
  auto canonical = TranslateQuery("/a/b/c/d", TranslatorOptions::Canonical());
  auto improved = TranslateQuery("/a/b/c/d", TranslatorOptions::Improved());
  EXPECT_LT(algebra::PlanSize(*improved.plan),
            algebra::PlanSize(*canonical.plan));
}

}  // namespace
}  // namespace natix::translate
