// Grammar-based query fuzzing: random (but valid) XPath queries over
// random documents, cross-checked between the algebraic engine (both
// translations) and the interpreter oracle. Complements the fixed corpus
// in conformance_test.cc with coverage of operator combinations nobody
// thought to write down.

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <random>
#include <string>

#include "api/database.h"
#include "base/xpath_number.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix {
namespace {

/// NATIX_FUZZ_SEED offsets every generated seed, so one environment
/// variable re-rolls the whole suite (default 0: the fixed CI corpus).
/// The trace below prints the effective seed of a failing run.
uint32_t BaseSeed() {
  const char* env = std::getenv("NATIX_FUZZ_SEED");
  return env == nullptr
             ? 0u
             : static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
}

class QueryGen {
 public:
  explicit QueryGen(uint32_t seed) : rng_(seed) {}

  std::string Path(int max_steps) {
    std::string out = Pick({"/", "", "//"});
    int steps = 1 + Int(max_steps);
    for (int i = 0; i < steps; ++i) {
      if (i > 0) out += Pick({"/", "//"});
      out += Step(/*depth=*/0);
    }
    return out;
  }

  std::string TopLevel() {
    switch (Int(8)) {
      case 0:
        return "count(" + Path(3) + ")";
      case 1:
        return "boolean(" + Path(3) + ")";
      case 2:
        return "string(" + Path(2) + ")";
      case 3:
        return "sum(" + Path(2) + "/@id)";
      case 4:
        // Filter expressions exercise Sort placement and its removal.
        return "(" + Path(2) + ")[" + std::to_string(1 + Int(4)) + "]";
      case 5:
        return "(" + Path(2) + ")[last()" + Pick({"", " - 1"}) + "]";
      default:
        return Path(4);
    }
  }

 private:
  int Int(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }
  std::string Pick(std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, Int(static_cast<int>(options.size())));
    return *it;
  }

  std::string Axis() {
    return Pick({"child::", "descendant::", "descendant-or-self::",
                 "parent::", "ancestor::", "ancestor-or-self::",
                 "following::", "following-sibling::", "preceding::",
                 "preceding-sibling::", "self::", "", ""});
  }

  std::string NodeTest() {
    return Pick({"a", "b", "c", "*", "node()", "text()"});
  }

  std::string Step(int depth) {
    std::string out;
    if (Int(10) == 0) {
      out = Pick({".", ".."});
    } else if (Int(12) == 0) {
      out = "@" + Pick({"id", "x", "*"});
    } else {
      out = Axis() + NodeTest();
    }
    // Predicates (not on abbreviated . / .. steps for readability).
    if (out != "." && out != ".." && depth < 2) {
      int predicates = Int(3) == 0 ? 1 + Int(2) : 0;
      for (int i = 0; i < predicates; ++i) {
        out += "[" + Predicate(depth + 1) + "]";
      }
    }
    return out;
  }

  std::string Predicate(int depth) {
    switch (Int(8)) {
      case 0:
        return std::to_string(1 + Int(3));
      case 1:
        return "position() " + Pick({"=", "<", ">", "<=", ">=", "!="}) +
               " " + std::to_string(1 + Int(3));
      case 2:
        return "last()" + Pick({"", " - 1"});
      case 3:
        return "@" + Pick({"id", "x"});
      case 4:
        return "@x " + Pick({"=", "!=", "<", ">"}) + " '" +
               std::to_string(Int(4)) + "'";
      case 5:
        return "count(" + RelativePath(depth) + ") " +
               Pick({">", "=", "<"}) + " " + std::to_string(Int(3));
      case 6:
        return RelativePath(depth);
      default:
        return Pick({"starts-with(@id, 'n1')", "contains(string(.), '1')",
                     "not(@id)", "string-length(string(@x)) = 1",
                     ". = ../*"});
    }
  }

  std::string RelativePath(int depth) {
    std::string out = Step(depth);
    if (Int(2) == 0) out += "/" + Step(depth);
    return out;
  }

  std::mt19937 rng_;
};

/// Same generator as conformance_test.cc, kept independent on purpose.
std::string RandomDocument(uint32_t seed) {
  std::mt19937 rng(seed);
  const char* names[] = {"a", "b", "c"};
  std::uniform_int_distribution<int> name_dist(0, 2);
  std::uniform_int_distribution<int> children_dist(0, 3);
  std::uniform_int_distribution<int> kind_dist(0, 9);
  int id = 0;
  std::string out;
  std::function<void(int)> emit = [&](int depth) {
    const char* name = names[name_dist(rng)];
    out += "<";
    out += name;
    if (kind_dist(rng) < 5) out += " id='n" + std::to_string(id++) + "'";
    if (kind_dist(rng) < 3) {
      out += " x='" + std::to_string(kind_dist(rng) % 4) + "'";
    }
    out += ">";
    int children = depth >= 4 ? 0 : children_dist(rng);
    for (int i = 0; i < children; ++i) {
      if (kind_dist(rng) < 7) {
        emit(depth + 1);
      } else {
        out += "t" + std::to_string(kind_dist(rng));
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

class FuzzConformanceTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzConformanceTest, RandomQueriesAgree) {
  uint32_t seed = GetParam() + BaseSeed();
  SCOPED_TRACE(::testing::Message()
               << "effective seed " << seed << " (NATIX_FUZZ_SEED base "
               << BaseSeed() << " + param " << GetParam()
               << "); rerun with NATIX_FUZZ_SEED=" << BaseSeed());
  std::string xml = RandomDocument(seed * 977 + 11);

  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok());
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  QueryGen gen(seed);
  int checked = 0;
  for (int i = 0; i < 120; ++i) {
    std::string query = gen.TopLevel();
    interp::EvaluatorOptions oracle_options;
    auto oracle = interp::Evaluator::Run(dom_doc->get(), query,
                                         (*dom_doc)->root(),
                                         oracle_options);
    ASSERT_TRUE(oracle.ok()) << query << ": "
                             << oracle.status().ToString();
    std::string expected = RenderInterp(*oracle);

    for (bool improved : {false, true}) {
      auto options = improved ? translate::TranslatorOptions::Improved()
                              : translate::TranslatorOptions::Canonical();
      auto compiled = (*db)->Compile(query, options);
      ASSERT_TRUE(compiled.ok())
          << query << ": " << compiled.status().ToString();
      std::string actual;
      if ((*compiled)->prepared().result_type() == xpath::ExprType::kNodeSet) {
        auto nodes = (*compiled)->EvaluateNodes(info->root);
        ASSERT_TRUE(nodes.ok()) << query;
        actual = "nodes:";
        for (const storage::StoredNode& n : *nodes) {
          actual += " " + std::to_string(*n.order());
        }
      } else {
        auto value = (*compiled)->EvaluateValue(info->root);
        ASSERT_TRUE(value.ok()) << query;
        switch (value->kind()) {
          case runtime::ValueKind::kBoolean:
            actual = value->AsBoolean() ? "bool: true" : "bool: false";
            break;
          case runtime::ValueKind::kNumber:
            actual = "num: " + XPathNumberToString(value->AsNumber());
            break;
          default:
            actual = "str: " + value->AsString();
        }
      }
      ASSERT_EQ(actual, expected)
          << (improved ? "improved" : "canonical") << " diverges on "
          << query << "\ndocument: " << xml;
    }
    ++checked;
  }
  EXPECT_EQ(checked, 120);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzConformanceTest,
                         ::testing::Range(1u, 9u));

}  // namespace
}  // namespace natix
