// Tests for the static property-inference engine: the per-attribute
// ordering / duplicate-freedom / nesting lattice, cardinality bounds,
// the static-emptiness table for axis/node-test compositions, and the
// Layer-1.5 property-preservation check used by the checked rewriter.

#include "analysis/property_inference.h"

#include <gtest/gtest.h>

#include "algebra/properties.h"
#include "algebra/rewriter.h"
#include "analysis/plan_verifier.h"
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
using runtime::Axis;

translate::TranslationResult Translate(const std::string& query,
                                       bool simplify = false) {
  auto ast = xpath::ParseXPath(query);
  NATIX_CHECK(ast.ok());
  NATIX_CHECK(xpath::Analyze(ast->get()).ok());
  xpath::FoldConstants(ast->get());
  xpath::Normalize(ast->get());
  translate::TranslatorOptions options;  // improved
  options.simplify_plan = simplify;
  auto result = translate::Translate(**ast, options,
                                     analysis::VerificationEnabled());
  NATIX_CHECK(result.ok());
  return std::move(result.value());
}

/// Properties of the translated (unsimplified) plan's result attribute.
AttrProperties ResultProperties(const std::string& query) {
  auto result = Translate(query);
  return InferPlanProperties(*result.plan).Lookup(result.result_attr);
}

/// Properties of the raw UnnestMap step with the given axis, before any
/// downstream Sort/DupElim cleans the stream up.
AttrProperties StepProperties(const std::string& query, Axis axis) {
  auto result = Translate(query);
  PropertyMap map = AnnotatePlan(*result.plan);
  for (const auto& [op, props] : map) {
    if (op->kind == OpKind::kUnnestMap && op->axis == axis) {
      return props.Lookup(op->attr);
    }
  }
  ADD_FAILURE() << "no UnnestMap with the requested axis in " << query;
  return AttrProperties();
}

TEST(PropertyLatticeTest, CardinalityRefinement) {
  EXPECT_TRUE(CardinalityRefines(Cardinality::kEmpty, Cardinality::kMany));
  EXPECT_TRUE(
      CardinalityRefines(Cardinality::kExactlyOne, Cardinality::kAtMostOne));
  EXPECT_TRUE(
      CardinalityRefines(Cardinality::kAtMostOne, Cardinality::kMany));
  EXPECT_FALSE(
      CardinalityRefines(Cardinality::kMany, Cardinality::kAtMostOne));
  EXPECT_FALSE(
      CardinalityRefines(Cardinality::kAtMostOne, Cardinality::kExactlyOne));
  EXPECT_TRUE(CardinalityAtMostOne(Cardinality::kEmpty));
  EXPECT_TRUE(CardinalityAtMostOne(Cardinality::kExactlyOne));
  EXPECT_FALSE(CardinalityAtMostOne(Cardinality::kMany));
}

TEST(PropertyLatticeTest, OrderRefinement) {
  EXPECT_TRUE(OrderRefines(OrderState::kDocOrdered, OrderState::kGrouped));
  EXPECT_TRUE(OrderRefines(OrderState::kGrouped, OrderState::kUnknown));
  EXPECT_FALSE(OrderRefines(OrderState::kGrouped, OrderState::kDocOrdered));
  EXPECT_FALSE(OrderRefines(OrderState::kUnknown, OrderState::kGrouped));
}

TEST(PropertyInferenceTest, SingletonScanIsExactlyOne) {
  OpPtr scan = MakeOp(OpKind::kSingletonScan);
  PlanProperties props = InferPlanProperties(*scan);
  EXPECT_EQ(props.cardinality, Cardinality::kExactlyOne);
  // On a <=1-tuple stream every claim holds trivially, even for unbound
  // attributes.
  AttrProperties any = props.Lookup("whatever");
  EXPECT_EQ(any.order, OrderState::kDocOrdered);
  EXPECT_TRUE(any.duplicate_free);
  EXPECT_TRUE(any.non_nested);
}

TEST(PropertyInferenceTest, RootMapIsOrderedSingletonRoot) {
  // Map[c1 := root*(cn)] over the singleton scan.
  OpPtr scan = MakeOp(OpKind::kSingletonScan);
  OpPtr map = MakeOp(OpKind::kMap);
  map->attr = "c1";
  map->scalar = MakeScalar(ScalarKind::kFunc);
  map->scalar->function = xpath::FunctionId::kRootInternal;
  auto arg = MakeScalar(ScalarKind::kAttrRef);
  arg->name = "cn";
  map->scalar->children.push_back(std::move(arg));
  map->children.push_back(std::move(scan));

  PlanProperties props = InferPlanProperties(*map);
  EXPECT_EQ(props.cardinality, Cardinality::kExactlyOne);
  AttrProperties c1 = props.Lookup("c1");
  EXPECT_EQ(c1.order, OrderState::kDocOrdered);
  EXPECT_TRUE(c1.duplicate_free);
  EXPECT_TRUE(c1.non_nested);
  EXPECT_EQ(c1.node_class, NodeClass::kRoot);
}

TEST(PropertyInferenceTest, ChildChainStaysOrderedAndNonNested) {
  AttrProperties out = ResultProperties("/a/b/c");
  EXPECT_EQ(out.order, OrderState::kDocOrdered);
  EXPECT_TRUE(out.duplicate_free);
  EXPECT_TRUE(out.non_nested);
  EXPECT_EQ(out.node_class, NodeClass::kElement);
}

TEST(PropertyInferenceTest, DescendantOfRootIsOrderedButNested) {
  AttrProperties out = ResultProperties("/descendant::a");
  EXPECT_EQ(out.order, OrderState::kDocOrdered);
  EXPECT_TRUE(out.duplicate_free);
  // Descendants of one context can nest: a//a is possible.
  EXPECT_FALSE(out.non_nested);
}

TEST(PropertyInferenceTest, ChildOverNestedContextLosesOrder) {
  // //a can nest; child runs over nested contexts interleave in document
  // order, but each child still has a unique parent.
  auto result = Translate("//a/b", /*simplify=*/true);
  AttrProperties out =
      InferPlanProperties(*result.plan).Lookup(result.result_attr);
  EXPECT_EQ(out.order, OrderState::kUnknown);
  EXPECT_TRUE(out.duplicate_free);
}

TEST(PropertyInferenceTest, DescendantOverNestedContextLosesDistinctness) {
  auto result = Translate("//a/descendant::b", /*simplify=*/true);
  // The final dedup survives simplification exactly because descendant
  // over a nested context cannot claim duplicate-freedom; check the
  // stream feeding it.
  ASSERT_EQ(result.plan->kind, OpKind::kDupElim);
  AttrProperties in = InferPlanProperties(*result.plan->children[0])
                          .Lookup(result.result_attr);
  EXPECT_FALSE(in.duplicate_free);
}

TEST(PropertyInferenceTest, ReverseAxisClaimsNothing) {
  // The raw step claims nothing (the translator's Sort/DupElim above it
  // is what re-establishes order and distinctness — and is therefore
  // never removed here).
  AttrProperties out = StepProperties("/a/b/ancestor::*", Axis::kAncestor);
  EXPECT_EQ(out.order, OrderState::kUnknown);
  EXPECT_FALSE(out.duplicate_free);
}

TEST(PropertyInferenceTest, AttributeStepIsAlwaysNonNested) {
  AttrProperties out = ResultProperties("/a/b/@x");
  EXPECT_EQ(out.order, OrderState::kDocOrdered);
  EXPECT_TRUE(out.duplicate_free);
  EXPECT_TRUE(out.non_nested);
  EXPECT_EQ(out.node_class, NodeClass::kAttribute);
}

TEST(PropertyInferenceTest, FollowingSiblingOverManyContextsIsUnordered) {
  // Distinct contexts share their siblings: neither order nor
  // duplicate-freedom survives on the raw step (the unsound-removal
  // case — the cleanup above it must stay).
  AttrProperties out =
      StepProperties("/a/b/following-sibling::*", Axis::kFollowingSibling);
  EXPECT_EQ(out.order, OrderState::kUnknown);
  EXPECT_FALSE(out.duplicate_free);
}

TEST(PropertyInferenceTest, FreeAttributeIsConstantPerEvaluation) {
  auto result = Translate("a/b");
  PlanProperties props = InferPlanProperties(*result.plan);
  ASSERT_EQ(props.cardinality, Cardinality::kMany);
  // cn is never bound by the plan: constant per evaluation, so ordered
  // and non-nested, but full of repeats.
  AttrProperties cn = props.Lookup(translate::kContextNodeAttr);
  EXPECT_EQ(cn.order, OrderState::kDocOrdered);
  EXPECT_FALSE(cn.duplicate_free);
  EXPECT_TRUE(cn.non_nested);
}

TEST(PropertyInferenceTest, BoundAttributeWithoutClaimsStaysConservative) {
  // c1 of /a//b repeats across the descendant fan-out: bound attributes
  // must NOT inherit the free-attribute constancy claims.
  auto result = Translate("/a//b");
  PlanProperties props = InferPlanProperties(*result.plan);
  AttrProperties c1 = props.Lookup("c1");
  EXPECT_FALSE(c1.duplicate_free);
}

TEST(StaticallyEmptyStepTest, AttributesHaveNoChildrenOrSiblings) {
  xpath::AstNodeTest any;
  any.kind = xpath::AstNodeTest::Kind::kAnyName;
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kAttribute, Axis::kChild, any));
  EXPECT_TRUE(
      StaticallyEmptyStep(NodeClass::kAttribute, Axis::kDescendant, any));
  EXPECT_TRUE(
      StaticallyEmptyStep(NodeClass::kAttribute, Axis::kAttribute, any));
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kAttribute,
                                  Axis::kFollowingSibling, any));
  // self::* on an attribute: the name test matches the principal node
  // kind (element), never an attribute.
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kAttribute, Axis::kSelf, any));
  // ...but self::node() matches the attribute itself.
  xpath::AstNodeTest node;
  node.kind = xpath::AstNodeTest::Kind::kAnyKind;
  EXPECT_FALSE(StaticallyEmptyStep(NodeClass::kAttribute, Axis::kSelf, node));
  // parent:: is never empty for attributes.
  EXPECT_FALSE(
      StaticallyEmptyStep(NodeClass::kAttribute, Axis::kParent, any));
}

TEST(StaticallyEmptyStepTest, LeavesHaveNoChildren) {
  xpath::AstNodeTest any;
  any.kind = xpath::AstNodeTest::Kind::kAnyName;
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kLeafText, Axis::kChild, any));
  EXPECT_TRUE(
      StaticallyEmptyStep(NodeClass::kLeafText, Axis::kDescendant, any));
  EXPECT_TRUE(
      StaticallyEmptyStep(NodeClass::kLeafText, Axis::kAttribute, any));
  // descendant-or-self reaches only the leaf itself — never an element.
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kLeafText,
                                  Axis::kDescendantOrSelf, any));
  EXPECT_FALSE(
      StaticallyEmptyStep(NodeClass::kLeafText, Axis::kFollowingSibling, any));
}

TEST(StaticallyEmptyStepTest, RootHasNoParentSiblingsOrAttributes) {
  xpath::AstNodeTest any;
  any.kind = xpath::AstNodeTest::Kind::kAnyName;
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kRoot, Axis::kParent, any));
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kRoot, Axis::kAncestor, any));
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kRoot, Axis::kFollowing, any));
  EXPECT_TRUE(
      StaticallyEmptyStep(NodeClass::kRoot, Axis::kPrecedingSibling, any));
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kRoot, Axis::kAttribute, any));
  EXPECT_TRUE(StaticallyEmptyStep(NodeClass::kRoot, Axis::kSelf, any));
  EXPECT_FALSE(StaticallyEmptyStep(NodeClass::kRoot, Axis::kChild, any));
}

TEST(StaticallyEmptyStepTest, TextTestOnAttributeAxisIsEmpty) {
  xpath::AstNodeTest text;
  text.kind = xpath::AstNodeTest::Kind::kText;
  EXPECT_TRUE(
      StaticallyEmptyStep(NodeClass::kElement, Axis::kAttribute, text));
}

TEST(StaticallyEmptyStepTest, UnknownClassesNeverClaimEmptiness) {
  xpath::AstNodeTest any;
  any.kind = xpath::AstNodeTest::Kind::kAnyName;
  for (Axis axis : {Axis::kChild, Axis::kParent, Axis::kDescendant,
                    Axis::kAttribute, Axis::kSelf}) {
    EXPECT_FALSE(StaticallyEmptyStep(NodeClass::kAnyNode, axis, any));
    EXPECT_FALSE(StaticallyEmptyStep(NodeClass::kElement, axis, any));
  }
}

TEST(PropertyInferenceTest, StaticallyEmptyCompositionPropagates) {
  // Children of an attribute node: the whole plan is provably empty.
  auto result = Translate("/a/@x/b");
  PlanProperties props = InferPlanProperties(*result.plan);
  EXPECT_EQ(props.cardinality, Cardinality::kEmpty);
}

TEST(PropertyInferenceTest, EmptyPlanPrunesToSelectFalseMarker) {
  auto result = Translate("/a/@x/b");
  auto removed =
      algebra::SimplifyPlan(&result.plan, analysis::VerificationEnabled());
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_GE(*removed, 1u);
  // The canonical statically-empty marker survives as the plan.
  PlanProperties props = InferPlanProperties(*result.plan);
  EXPECT_EQ(props.cardinality, Cardinality::kEmpty);
}

TEST(PropertyInferenceTest, CounterWithoutResetIsDuplicateFree) {
  auto result = Translate("(/a/b)[2]");
  PropertyMap map = AnnotatePlan(*result.plan);
  bool found = false;
  for (const auto& [op, props] : map) {
    if (op->kind != OpKind::kCounter) continue;
    found = true;
    AttrProperties cp = props.Lookup(op->attr);
    if (op->ctx_attr.empty()) {
      EXPECT_TRUE(cp.duplicate_free);
      EXPECT_EQ(cp.node_class, NodeClass::kNonNode);
    }
  }
  EXPECT_TRUE(found);
}

TEST(PropertyInferenceTest, AnnotatePlanCoversNestedSubplans) {
  auto result = Translate("/a[count(b) = 1]/c");
  PropertyMap map = AnnotatePlan(*result.plan);
  // Every operator including those inside nested scalar subplans gets an
  // entry; the nested count(b) plan adds at least one UnnestMap beyond
  // the outer chain.
  size_t outer = algebra::PlanSize(*result.plan);
  EXPECT_GT(map.size(), outer);
}

TEST(PropertyRenderTest, SummaryAndTagFormats) {
  auto result = Translate("/a/b");
  PlanProperties props = InferPlanProperties(*result.plan);
  EXPECT_EQ(OperatorSummary(*result.plan),
            "UnnestMap[" + result.result_attr + " := " +
                result.plan->ctx_attr + "/child::b]");
  std::string tag = RenderProperties(props, result.result_attr);
  EXPECT_NE(tag.find("{card:n"), std::string::npos);
  EXPECT_NE(tag.find("ord:doc(" + result.result_attr + ")"),
            std::string::npos);
  EXPECT_NE(tag.find("dup-free(" + result.result_attr + ")"),
            std::string::npos);
  // No '=' anywhere: EXPLAIN goldens normalize "=<digits>" counters.
  EXPECT_EQ(tag.find('='), std::string::npos);
}

TEST(PropertyRenderTest, JsonContainsPerAttributeClaims) {
  auto result = Translate("/a/b");
  std::string json = PlanToJson(*result.plan, AnnotatePlan(*result.plan));
  EXPECT_NE(json.find("\"op\":\"UnnestMap\""), std::string::npos);
  EXPECT_NE(json.find("\"cardinality\":\"n\""), std::string::npos);
  EXPECT_NE(json.find("\"order\":\"doc\""), std::string::npos);
  EXPECT_NE(json.find("\"duplicate_free\":true"), std::string::npos);
  EXPECT_NE(json.find("\"children\":["), std::string::npos);
}

TEST(PropertyPreservationTest, RefinementIsAccepted) {
  PlanProperties before;
  before.cardinality = Cardinality::kMany;
  before.attrs["c"] = AttrProperties{};
  PlanProperties after;
  after.cardinality = Cardinality::kAtMostOne;
  EXPECT_TRUE(CheckPropertyPreservation(before, after, "test-rule").ok());
}

TEST(PropertyPreservationTest, WeakenedCardinalityIsRejected) {
  PlanProperties before;
  before.cardinality = Cardinality::kAtMostOne;
  PlanProperties after;
  after.cardinality = Cardinality::kMany;
  Status status = CheckPropertyPreservation(before, after, "bad-rule");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("bad-rule"), std::string::npos);
}

TEST(PropertyPreservationTest, WeakenedOrderIsRejected) {
  PlanProperties before;
  before.attrs["c"].order = OrderState::kDocOrdered;
  before.attrs["c"].duplicate_free = true;
  PlanProperties after;
  after.attrs["c"].order = OrderState::kUnknown;
  after.attrs["c"].duplicate_free = true;
  Status status = CheckPropertyPreservation(before, after, "order-loss");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("order-loss"), std::string::npos);
}

TEST(PropertyPreservationTest, WeakenedDistinctnessIsRejected) {
  PlanProperties before;
  before.attrs["c"].duplicate_free = true;
  PlanProperties after;
  after.attrs["c"] = AttrProperties{};
  EXPECT_FALSE(CheckPropertyPreservation(before, after, "dup-loss").ok());
}

}  // namespace
}  // namespace natix::analysis
