// Conformance cross-check: the paper's central claim is a complete,
// semantics-preserving translation of XPath 1.0 into the algebra. These
// property tests generate pseudo-random documents and run a broad query
// corpus through four evaluators — the algebraic engine with the
// canonical and the improved translation, and the main-memory interpreter
// with and without memoization — requiring identical results.

#include <gtest/gtest.h>

#include <memory>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "api/database.h"
#include "base/xpath_number.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix {
namespace {

/// Deterministic random XML generator.
std::string RandomDocument(uint32_t seed) {
  std::mt19937 rng(seed);
  const char* names[] = {"a", "b", "c", "d"};
  std::uniform_int_distribution<int> name_dist(0, 3);
  std::uniform_int_distribution<int> children_dist(0, 4);
  std::uniform_int_distribution<int> kind_dist(0, 9);
  int id = 0;

  std::string out;
  std::function<void(int)> emit = [&](int depth) {
    const char* name = names[name_dist(rng)];
    out += "<";
    out += name;
    if (kind_dist(rng) < 4) {
      out += " id='n" + std::to_string(id++) + "'";
    }
    if (kind_dist(rng) < 2) {
      out += " x='" + std::to_string(kind_dist(rng)) + "'";
    }
    out += ">";
    int children = depth >= 4 ? 0 : children_dist(rng);
    for (int i = 0; i < children; ++i) {
      int kind = kind_dist(rng);
      if (kind < 6) {
        emit(depth + 1);
      } else if (kind < 8) {
        out += "t" + std::to_string(kind_dist(rng));
      } else if (kind == 8) {
        out += "<!--c-->";
      } else {
        out += "<?pi d?>";
      }
    }
    out += "</";
    out += name;
    out += ">";
  };
  out += "<root>";
  for (int i = 0; i < 3; ++i) emit(1);
  out += "</root>";
  return out;
}

const char* kQueryCorpus[] = {
    "/root/a",
    "//a",
    "//a/b",
    "//*[@id]",
    "//*[@x='1']",
    "/root//c/d",
    "//a/ancestor::*",
    "//b/ancestor-or-self::*",
    "//c/parent::*",
    "//d/preceding-sibling::*",
    "//a/following-sibling::b",
    "//b/following::c",
    "//c/preceding::a",
    "//a/descendant-or-self::b",
    "//a[1]",
    "//a[last()]",
    "//a[position() = 2]",
    "//b[position() < 3]",
    "//a[position() = last()]",
    "//a[position() = last() - 1]",
    "//*[b][c]",
    "//*[b or c]",
    "//*[b and @id]",
    "//a[b[position()=1]]",
    "//a[count(b) > 1]",
    "//a[count(.//b) >= 2]",
    "//*[not(@id)]",
    "//a/text()",
    "//comment()",
    "//processing-instruction()",
    "//node()",
    "//a/@*",
    "//a[@id]/@id",
    "(//a)[2]",
    "(//b)[last()]",
    "(//a | //b)[3]",
    "//a | //b/c | //d",
    "//a[.//text()]",
    "//*[starts-with(@id, 'n1')]",
    "//*[contains(string(@x), '1')]",
    "//a[string-length(string(.)) > 2]",
    "//b[. = ../c]",
    "//a[@x = //b/@x]",
    "//a[@x < //b/@x]",
    "//*[sum(.//@x) > 2]",
    "count(//a)",
    "count(//a/b) + count(//b)",
    "sum(//@x)",
    "string(//a)",
    "string(//a/@id)",
    "boolean(//a[@x])",
    "not(//zzz)",
    "name(//*[@id][1])",
    "normalize-space(string(/root))",
    "count(//a[descendant::b]/following::c)",
    "//a[following::b[position()=2]]",
    "//*[self::a or self::b][@id]",
    "//a/..",
    "//a/../b",
    "id('n1')",
    "id('n0 n2')/b",
    "//a[../b]",
};

/// Renders an interpreter result for comparison.
std::string RenderInterp(const interp::Object& v) {
  switch (v.kind) {
    case interp::Object::Kind::kNodeSet: {
      std::string out = "nodes:";
      for (const dom::Node* n : v.nodes) {
        out += " " + std::to_string(n->order);
      }
      return out;
    }
    case interp::Object::Kind::kBoolean:
      return v.boolean ? "bool: true" : "bool: false";
    case interp::Object::Kind::kNumber:
      return "num: " + XPathNumberToString(v.number);
    case interp::Object::Kind::kString:
      return "str: " + v.string;
  }
  return "?";
}

/// Runs `query` through the algebraic engine and renders the result the
/// way RenderInterp renders the interpreter's.
StatusOr<std::string> RenderAlgebraic(
    Database* db, storage::NodeId root, const std::string& query,
    const translate::TranslatorOptions& options) {
  NATIX_ASSIGN_OR_RETURN(auto compiled, db->Compile(query, options));
  if (compiled->prepared().result_type() == xpath::ExprType::kNodeSet) {
    NATIX_ASSIGN_OR_RETURN(std::vector<storage::StoredNode> nodes,
                           compiled->EvaluateNodes(root));
    std::string out = "nodes:";
    for (const storage::StoredNode& n : nodes) {
      NATIX_ASSIGN_OR_RETURN(uint64_t order, n.order());
      out += " " + std::to_string(order);
    }
    return out;
  }
  NATIX_ASSIGN_OR_RETURN(runtime::Value value, compiled->EvaluateValue(root));
  switch (value.kind()) {
    case runtime::ValueKind::kBoolean:
      return std::string(value.AsBoolean() ? "bool: true" : "bool: false");
    case runtime::ValueKind::kNumber:
      return "num: " + XPathNumberToString(value.AsNumber());
    default:
      return "str: " + value.AsString();
  }
}

class ConformanceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ConformanceTest, FourEvaluatorsAgree) {
  std::string xml = RandomDocument(GetParam());

  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  for (const char* query : kQueryCorpus) {
    // Reference: memoized interpreter.
    interp::EvaluatorOptions memo;
    auto expected = interp::Evaluator::Run(dom_doc->get(), query,
                                           (*dom_doc)->root(), memo);
    ASSERT_TRUE(expected.ok())
        << query << ": " << expected.status().ToString();
    std::string expected_str = RenderInterp(*expected);

    // Naive interpreter must agree.
    interp::EvaluatorOptions naive;
    naive.memoize = false;
    auto naive_result = interp::Evaluator::Run(dom_doc->get(), query,
                                               (*dom_doc)->root(), naive);
    ASSERT_TRUE(naive_result.ok()) << query;
    EXPECT_EQ(RenderInterp(*naive_result), expected_str)
        << "naive interpreter diverges on " << query;

    // The straw-man (no step consolidation) is exponential on adversarial
    // inputs but must still be *correct* on this corpus.
    interp::EvaluatorOptions straw;
    straw.memoize = false;
    straw.consolidate_steps = false;
    auto straw_result = interp::Evaluator::Run(dom_doc->get(), query,
                                               (*dom_doc)->root(), straw);
    ASSERT_TRUE(straw_result.ok()) << query;
    EXPECT_EQ(RenderInterp(*straw_result), expected_str)
        << "straw-man interpreter diverges on " << query;

    // Algebraic engine, both translations.
    for (bool improved : {false, true}) {
      auto options = improved ? translate::TranslatorOptions::Improved()
                              : translate::TranslatorOptions::Canonical();
      auto actual = RenderAlgebraic(db->get(), info->root, query, options);
      ASSERT_TRUE(actual.ok())
          << query << ": " << actual.status().ToString();
      EXPECT_EQ(*actual, expected_str)
          << (improved ? "improved" : "canonical")
          << " translation diverges on " << query << "\ndocument: " << xml;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConformanceTest,
                         ::testing::Range(1u, 21u));

// Single-step value predicates compile to NVM step loops (kStepExists /
// kStepCount) instead of nested plans. Their comparison semantics must
// stay XPath's node-set semantics in every corner: childless contexts,
// string-values spanning nested elements, text long enough to overflow
// its record, attribute steps, string and number literals on either
// side, and a boolean operand.
TEST(StepLoopConformanceTest, ValuePredicatesMatchTheInterpreter) {
  const std::string long_text(5000, 'w');
  const std::string xml =
      "<r>"
      "<p id='1' k='x'><n>1991</n><n>2000</n><s>ab</s></p>"
      "<p id='2'/>"
      "<p id='3'><n><i>19</i>91</n><s>a<i>b</i></s><s/></p>"
      "<p id='4' k='y'><n>abc</n><n> 7 </n><n>7</n><m/></p>"
      "<p id='5' k='" + long_text + "'><s>" + long_text + "</s><n>3</n></p>"
      "<q k='x'>text<n>1991</n></q>"
      "</r>";
  const std::string long_literal = "'" + long_text + "'";
  const std::vector<std::string> queries = {
      "/r/p[n = '1991']",
      "/r/p[n = 1991]",
      "/r/p['1991' = n]",
      "/r/p[1991 = n]",
      "/r/p[n != '1991']",
      "/r/p[n != 1991]",
      "/r/p[n < 1991]",
      "/r/p[n >= 7]",
      "/r/p[1991 > n]",
      "/r/p['7' <= n]",
      "/r/p[s = 'ab']",
      "/r/p[s = '']",
      "/r/p[s != 'ab']",
      "/r/p[s = " + long_literal + "]",
      "/r/p[@k = " + long_literal + "]",
      "/r/p[count(n) = 0]",
      "/r/p[count(n) > 2]",
      "/r/p[count(n) = 2]",
      "/r/p[count(zzz) = 0]",
      "/r/p[n = true()]",
      "/r/p[n = false()]",
      "/r/p[n]",
      "/r/p[not(n)]",
      "/r/p[zzz = 'x']",
      "/r/p[n = 'abc' or s]",
      "/r/p[@k = 'x']",
      "/r/p[@k != 'x']",
      "/r/p[@k]",
      "/r/p[@id > 2]",
      "/r/p[@id = 3]",
      "/r/*[@k = 'x']",
      "/r/*[n = '1991']/@id",
      "count(/r/p[n >= 7])",
      "count(/r/*[count(n) > 1])",
      "boolean(/r/p[m])",
  };

  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  for (const std::string& query : queries) {
    interp::EvaluatorOptions memo;
    auto expected = interp::Evaluator::Run(dom_doc->get(), query,
                                           (*dom_doc)->root(), memo);
    ASSERT_TRUE(expected.ok())
        << query << ": " << expected.status().ToString();
    for (bool improved : {false, true}) {
      auto options = improved ? translate::TranslatorOptions::Improved()
                              : translate::TranslatorOptions::Canonical();
      auto actual = RenderAlgebraic(db->get(), info->root, query, options);
      ASSERT_TRUE(actual.ok())
          << query << ": " << actual.status().ToString();
      EXPECT_EQ(*actual, RenderInterp(*expected))
          << (improved ? "improved" : "canonical")
          << " translation diverges on " << query;
    }
  }

  // The shapes above do take the step loops.
  for (const char* query : {"/r/p[n = '1991']", "/r/p[@k != 'x']",
                            "/r/p[count(n) > 2]", "/r/p[n = true()]"}) {
    auto compiled = (*db)->Compile(query);
    ASSERT_TRUE(compiled.ok()) << query;
    const std::string listing =
        (*compiled)->prepared().plan().nvm_listing();
    EXPECT_NE(listing.find("step_"), std::string::npos) << query;
    EXPECT_EQ(listing.find("eval_nested"), std::string::npos) << query;
  }
}

}  // namespace
}  // namespace natix
