// Differential limit-pushdown fuzzing (NATIX_FUZZ_DIFF_LIMIT): random
// positional-heavy XPath queries over random documents, each compiled
// twice — with the Limit pushdown on (the default) and off — and
// executed with plan verification enabled, so every Limit the rewrite
// inserts also runs under the oracle's <= k / order contract. The two
// plans must agree with each other, and node results must agree with
// the src/interp oracle; an unsound pushdown (a cap that fires past a
// repeating reset boundary, a reverse axis, or a last()-dependent
// predicate) shows up as a truncated or reordered result.
//
// The query generator is biased toward what the rewrite acts on:
// numeric-literal subscripts, position() compared against small
// constants in both orientations and all six comparators, last()-
// relative forms that must block the rewrite, and positional
// predicates on nested paths and whole-nodeset parentheses.
//
// NATIX_FUZZ_DIFF_LIMIT re-rolls the corpus: its value offsets every
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
  const char* env = std::getenv("NATIX_FUZZ_DIFF_LIMIT");
  return env == nullptr
             ? 0u
             : static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
}

class PositionalQueryGen {
 public:
  explicit PositionalQueryGen(uint32_t seed) : rng_(seed) {}

  std::string TopLevel() {
    switch (Int(8)) {
      case 0:  // whole-nodeset positional
        return "(" + Path() + ")[" + Subscript() + "]";
      case 1:
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

  std::string K() { return std::to_string(1 + Int(4)); }

  /// A positional predicate body: the shapes the pushdown gate must
  /// classify — equality/range against constants (both orientations),
  /// bare subscripts, last()-relative forms, and mixtures that must
  /// block the rewrite.
  std::string Subscript() {
    switch (Int(12)) {
      case 0:
        return K();  // numeric-literal sugar
      case 1:
        return "position() = " + K();
      case 2:
        return "position() < " + K();
      case 3:
        return "position() <= " + K();
      case 4:
        return "position() > " + K();
      case 5:
        return "position() >= " + K();
      case 6:
        return "position() != " + K();
      case 7:  // mirrored orientation
        return K() + " " + Pick({"=", ">=", ">", "<", "<="}) +
               " position()";
      case 8:
        return "last()";
      case 9:
        return "position() = last()";
      case 10:
        return "position() = last() - " + std::to_string(Int(3));
      default:  // positional conjoined with a value test
        return "position() " + Pick({"=", "<", "<="}) + " " + K() +
               (Int(2) == 0 ? " and @id" : " or @x = '1'");
    }
  }

  std::string Step() {
    std::string axis = Pick({"", "", "", "", "descendant::", "self::",
                             "preceding-sibling::", "following-sibling::",
                             "ancestor::"});
    std::string step = axis + Pick({"a", "b", "c", "*"});
    switch (Int(4)) {
      case 0:
        step += "[" + Subscript() + "]";
        break;
      case 1:  // nested path predicate with its own positional
        step += "[" + Pick({"a", "b", "c"}) + "[" + Subscript() + "]]";
        break;
      default:
        break;
    }
    return step;
  }

  std::string Path() {
    std::string out = Pick({"/", "", "//"});
    int steps = 1 + Int(3);
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
  std::uniform_int_distribution<int> children_dist(0, 4);
  std::uniform_int_distribution<int> kind_dist(0, 9);
  int id = 0;
  std::string out;
  std::function<void(int)> emit = [&](int depth) {
    const char* name = names[name_dist(rng)];
    out += "<";
    out += name;
    if (kind_dist(rng) < 4) out += " id='n" + std::to_string(id++) + "'";
    if (kind_dist(rng) < 3) {
      out += " x='" + std::to_string(kind_dist(rng) % 3) + "'";
    }
    out += ">";
    int children = depth >= 4 ? 0 : children_dist(rng);
    for (int i = 0; i < children; ++i) {
      if (kind_dist(rng) < 8) {
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
  for (int i = 0; i < 4; ++i) emit(1);
  out += "</root>";
  return out;
}

/// Evaluates through the algebraic engine, rendering node results as an
/// ordered list of document-order keys and scalars via string().
StatusOr<std::string> RunAlgebraic(Database* db, storage::NodeId root,
                                   const std::string& query,
                                   bool limit_pushdown) {
  translate::TranslatorOptions options;
  options.limit_pushdown = limit_pushdown;
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

class FuzzDiffLimitTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzDiffLimitTest, CappedPlansAgreeWithBaseline) {
  uint32_t seed = GetParam() + BaseSeed();
  SCOPED_TRACE(::testing::Message()
               << "effective seed " << seed
               << "; rerun with NATIX_FUZZ_DIFF_LIMIT=" << BaseSeed());
  std::string xml = RandomDocument(seed * 1549 + 7);

  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok());
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  PositionalQueryGen gen(seed);
  for (int i = 0; i < 80; ++i) {
    std::string query = gen.TopLevel();

    auto with_limit = RunAlgebraic(db->get(), info->root, query,
                                   /*limit_pushdown=*/true);
    ASSERT_TRUE(with_limit.ok())
        << query << ": " << with_limit.status().ToString()
        << "\ndocument: " << xml;
    auto without_limit = RunAlgebraic(db->get(), info->root, query,
                                      /*limit_pushdown=*/false);
    ASSERT_TRUE(without_limit.ok())
        << query << ": " << without_limit.status().ToString();
    ASSERT_EQ(*with_limit, *without_limit)
        << "limit pushdown diverges on " << query << "\ndocument: " << xml;

    // Cross-check node results against the interpreter oracle (string
    // results go through different conversion paths; the plan-vs-plan
    // check above already covers them).
    if (with_limit->rfind("nodes:", 0) == 0) {
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
        ASSERT_EQ(*with_limit, expected)
            << "interp oracle diverges on " << query
            << "\ndocument: " << xml;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDiffLimitTest, ::testing::Range(1u, 7u));

}  // namespace
}  // namespace natix
