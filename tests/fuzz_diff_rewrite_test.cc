// Differential rewrite fuzzing (NATIX_FUZZ_DIFF_REWRITE): random XPath
// queries over random documents, each compiled twice — with the
// property-justified simplifying rewrites and with them disabled — and
// executed with plan verification on, which arms the runtime property
// oracle on every stream the inference engine makes claims about. The
// two plans must agree with each other and with the src/interp oracle;
// any unsound Sort/DupElim removal shows up either as a result
// divergence or as a property-oracle violation.
//
// NATIX_FUZZ_DIFF_REWRITE re-rolls the corpus: its value offsets every
// generated seed (unset or 0: the fixed CI corpus).

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <random>
#include <string>

#include "api/database.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix {
namespace {

uint32_t BaseSeed() {
  const char* env = std::getenv("NATIX_FUZZ_DIFF_REWRITE");
  return env == nullptr
             ? 0u
             : static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
}

/// Path generator biased toward the step combinations the rewriter acts
/// on: ordered child chains (Sort removal), ppd steps (DupElim removal),
/// sibling/reverse axes (claims must be withheld), attribute and text
/// steps (static-emptiness compositions), and positional filters (Sort
/// placement).
class RewritePathGen {
 public:
  explicit RewritePathGen(uint32_t seed) : rng_(seed) {}

  std::string TopLevel() {
    switch (Int(6)) {
      case 0:
        return "(" + Path() + ")[" + std::to_string(1 + Int(3)) + "]";
      case 1:
        return "(" + Path() + ")[last()]";
      case 2:
        return "count(" + Path() + ")";
      default:
        return Path();
    }
  }

 private:
  int Int(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  std::string Pick(std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, Int(static_cast<int>(options.size())));
    return *it;
  }

  std::string Step() {
    std::string axis =
        Pick({"", "", "", "descendant::", "descendant-or-self::",
              "ancestor::", "parent::", "self::", "following::",
              "following-sibling::", "preceding-sibling::"});
    std::string test = Pick({"a", "b", "c", "*", "node()", "text()"});
    if (Int(8) == 0) return "@" + Pick({"id", "x", "*"});
    return axis + test;
  }

  std::string Path() {
    std::string out = Pick({"/", "", "//"});
    int steps = 1 + Int(4);
    for (int i = 0; i < steps; ++i) {
      if (i > 0) out += Pick({"/", "/", "//"});
      out += Step();
    }
    return out;
  }

  std::mt19937 rng_;
};

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

/// Evaluates through the algebraic engine, rendering node results as an
/// ordered list of document-order keys and scalars via string().
StatusOr<std::string> RunAlgebraic(Database* db, storage::NodeId root,
                                   const std::string& query,
                                   bool simplify) {
  translate::TranslatorOptions options;  // improved
  options.simplify_plan = simplify;
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
  NATIX_ASSIGN_OR_RETURN(std::string value, compiled->EvaluateString(root));
  return "str: " + value;
}

class FuzzDiffRewriteTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzDiffRewriteTest, RewrittenPlansAgreeUnderOracle) {
  uint32_t seed = GetParam() + BaseSeed();
  SCOPED_TRACE(::testing::Message()
               << "effective seed " << seed
               << "; rerun with NATIX_FUZZ_DIFF_REWRITE=" << BaseSeed());
  std::string xml = RandomDocument(seed * 1877 + 7);

  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok());
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  RewritePathGen gen(seed);
  for (int i = 0; i < 80; ++i) {
    std::string query = gen.TopLevel();

    auto rewritten = RunAlgebraic(db->get(), info->root, query,
                                  /*simplify=*/true);
    ASSERT_TRUE(rewritten.ok())
        << query << ": " << rewritten.status().ToString()
        << "\ndocument: " << xml;
    auto baseline = RunAlgebraic(db->get(), info->root, query,
                                 /*simplify=*/false);
    ASSERT_TRUE(baseline.ok())
        << query << ": " << baseline.status().ToString();
    ASSERT_EQ(*rewritten, *baseline)
        << "rewrites diverge on " << query << "\ndocument: " << xml;

    // Cross-check node results against the interpreter oracle (string
    // results go through different conversion paths; the plan-vs-plan
    // check above already covers them).
    if (rewritten->rfind("nodes:", 0) == 0) {
      interp::EvaluatorOptions oracle_options;
      auto oracle = interp::Evaluator::Run(dom_doc->get(), query,
                                           (*dom_doc)->root(),
                                           oracle_options);
      ASSERT_TRUE(oracle.ok()) << query;
      if (oracle->kind == interp::Object::Kind::kNodeSet) {
        std::string expected = "nodes:";
        for (const dom::Node* n : oracle->nodes) {
          expected += " " + std::to_string(n->order);
        }
        ASSERT_EQ(*rewritten, expected)
            << "interp oracle diverges on " << query
            << "\ndocument: " << xml;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDiffRewriteTest,
                         ::testing::Range(1u, 7u));

}  // namespace
}  // namespace natix
