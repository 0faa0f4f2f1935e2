// Positional-semantics conformance for the Limit pushdown
// (docs/LIMIT-PUSHDOWN.md): a matrix of positional predicate shapes —
// position() = / < / <= / > / != k, the numeric-literal sugar [3],
// last()-relative forms, nested predicates, reverse axes — is run
// through the algebraic engine with the pushdown on, with it off, and
// with the canonical translation, and cross-checked against both
// main-memory interpreters (memoized and naive). On top of the value
// check, the matrix pins *when the rewrite may fire*: every query
// carries an expectation of whether limit:positional-pushdown appears
// in its rewrite log, so an unsound widening of the gate (reverse
// axes, last()-dependence, repeating reset boundaries) fails here even
// if the results happen to agree on the test documents.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix {
namespace {

constexpr char kDoc[] =
    "<r><a id='a1'><b>1</b><b>2</b><b>3</b></a>"
    "<a id='a2'><b>4</b></a>"
    "<a id='a3'><b>5</b><b>6</b></a>"
    "<c><a id='a4'><b>7</b><b>8</b></a></c></r>";

/// Whether the limit:positional-pushdown rewrite must fire for a query
/// under the improved translation. kEither marks shapes where the gate
/// decision is not part of the pinned contract (the value cross-check
/// still applies).
enum class Fires { kYes, kNo, kEither };

struct Case {
  const char* query;
  Fires fires;
};

const Case kMatrix[] = {
    // Literal subscripts and the equivalent explicit forms: the reset
    // boundary is the document element (provably at-most-one), the
    // producing child step is doc-ordered and duplicate-free.
    {"/r/a[2]", Fires::kYes},
    {"/r/a[1]", Fires::kYes},
    {"/r/a[position() = 3]", Fires::kYes},
    {"/r/a[position() < 3]", Fires::kYes},
    {"/r/a[position() <= 2]", Fires::kYes},
    {"/r/a[3 >= position()]", Fires::kYes},
    {"/r/a[2 = position()]", Fires::kYes},
    {"/r/a[position() = 2]/b[1]", Fires::kYes},
    // Out-of-range and boundary constants: statically empty or
    // full-stream shapes the rewrite leaves alone or caps trivially.
    {"/r/a[position() < 1]", Fires::kNo},
    {"/r/a[position() = 99]", Fires::kYes},
    // Upper/inequality comparisons need the tail: no early exit.
    {"/r/a[position() > 2]", Fires::kNo},
    {"/r/a[position() >= 2]", Fires::kNo},
    {"/r/a[position() != 2]", Fires::kNo},
    // last()-dependent predicates must keep the full stream (TmpCs sits
    // between the Select and the Counter).
    {"/r/a[last()]", Fires::kNo},
    {"/r/a[position() = last()]", Fires::kNo},
    {"/r/a[position() = last() - 1]", Fires::kNo},
    // The counter resets per parent on a repeating boundary: a global
    // cap would starve later groups.
    {"//a[2]", Fires::kNo},
    {"//a/b[1]", Fires::kNo},
    {"/r/*/a[1]", Fires::kNo},
    // Reverse axes: the step stream is not doc-ordered, the gate blocks.
    {"/r/a/preceding-sibling::*[1]", Fires::kNo},
    {"//b/ancestor::*[1]", Fires::kNo},
    // Whole-nodeset positionals and nested predicates: fire only when
    // the inference proves the stream; not pinned either way.
    {"(//a)[2]", Fires::kEither},
    {"(//a | //b)[3]", Fires::kEither},
    {"//a[b[1]]", Fires::kEither},
    {"//a[b[position() = 2]]/@id", Fires::kEither},
};

std::string RenderInterp(const interp::Object& v) {
  std::string out = "nodes:";
  if (v.kind != interp::Object::Kind::kNodeSet) return "non-nodeset";
  for (const dom::Node* n : v.nodes) {
    out += " " + std::to_string(n->order);
  }
  return out;
}

StatusOr<std::string> RunAlgebraic(Database* db, storage::NodeId root,
                                   const std::string& query,
                                   const translate::TranslatorOptions& options,
                                   bool* fired = nullptr) {
  NATIX_ASSIGN_OR_RETURN(auto compiled, db->Compile(query, options));
  if (fired != nullptr) {
    *fired = false;
    for (const algebra::RewriteEvent& event :
         compiled->prepared().rewrites()) {
      if (event.rule == "limit:positional-pushdown") *fired = true;
    }
  }
  NATIX_ASSIGN_OR_RETURN(std::vector<storage::StoredNode> nodes,
                         compiled->EvaluateNodes(root));
  std::string out = "nodes:";
  for (const storage::StoredNode& n : nodes) {
    NATIX_ASSIGN_OR_RETURN(uint64_t order, n.order());
    out += " " + std::to_string(order);
  }
  return out;
}

TEST(PositionalConformanceTest, MatrixAgreesAcrossEnginesAndPinsTheGate) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", kDoc);
  ASSERT_TRUE(info.ok());
  auto dom_doc = dom::ParseDocument(kDoc);
  ASSERT_TRUE(dom_doc.ok());

  for (const Case& c : kMatrix) {
    // Reference: memoized interpreter.
    interp::EvaluatorOptions memo;
    auto expected = interp::Evaluator::Run(dom_doc->get(), c.query,
                                           (*dom_doc)->root(), memo);
    ASSERT_TRUE(expected.ok()) << c.query;
    std::string expected_str = RenderInterp(*expected);

    // Second interpreter: naive (no memoization).
    interp::EvaluatorOptions naive;
    naive.memoize = false;
    auto naive_result = interp::Evaluator::Run(dom_doc->get(), c.query,
                                               (*dom_doc)->root(), naive);
    ASSERT_TRUE(naive_result.ok()) << c.query;
    EXPECT_EQ(RenderInterp(*naive_result), expected_str)
        << "naive interpreter diverges on " << c.query;

    // Algebraic engine with the pushdown on (the default)…
    bool fired = false;
    auto with_limit =
        RunAlgebraic(db->get(), info->root, c.query,
                     translate::TranslatorOptions::Improved(), &fired);
    ASSERT_TRUE(with_limit.ok())
        << c.query << ": " << with_limit.status().ToString();
    EXPECT_EQ(*with_limit, expected_str)
        << "pushdown-on plan diverges on " << c.query;
    switch (c.fires) {
      case Fires::kYes:
        EXPECT_TRUE(fired)
            << "limit:positional-pushdown must fire on " << c.query;
        break;
      case Fires::kNo:
        EXPECT_FALSE(fired)
            << "limit:positional-pushdown must NOT fire on " << c.query;
        break;
      case Fires::kEither:
        break;
    }

    // …with it off (the ablation)…
    translate::TranslatorOptions no_limit;
    no_limit.limit_pushdown = false;
    bool fired_off = true;
    auto without_limit =
        RunAlgebraic(db->get(), info->root, c.query, no_limit, &fired_off);
    ASSERT_TRUE(without_limit.ok()) << c.query;
    EXPECT_FALSE(fired_off) << c.query;
    EXPECT_EQ(*without_limit, expected_str)
        << "pushdown-off plan diverges on " << c.query;

    // …and the canonical textbook translation.
    auto canonical =
        RunAlgebraic(db->get(), info->root, c.query,
                     translate::TranslatorOptions::Canonical());
    ASSERT_TRUE(canonical.ok()) << c.query;
    EXPECT_EQ(*canonical, expected_str)
        << "canonical plan diverges on " << c.query;
  }
}

/// The reverse-scan matrix: `position() = last() - k` over one context
/// node counts from the end (limit:reverse-scan, docs/LIMIT-PUSHDOWN.md).
/// Each case pins how often the rule fires under the improved
/// translation; values are cross-checked against the interpreter with
/// the limit rules on and off.
struct ReverseCase {
  const char* query;
  int fires;
};

const ReverseCase kReverseMatrix[] = {
    // Fire: the context /r is the document element (card:<=1).
    {"/r/a[last()]", 1},
    {"/r/a[position() = last()]", 1},
    {"/r/a[position() = last() - 1]", 1},
    {"/r/a[last() - 2 = position()]", 1},
    // k at or past the group size: empty, still by reverse scan.
    {"/r/a[position() = last() - 3]", 1},
    {"/r/a[position() = last() - 10]", 1},
    // Position-free predicates between the counter and the step (the
    // shape of Fig. 10's author_last row).
    {"/r/a[b = '5'][position() = last()]", 1},
    {"/r/a[@id][last()]/b", 1},
    // The first reverse scan leaves one a: the b step's context is
    // proved card:<=1 in turn.
    {"/r/a[last()]/b[position() = last()]", 2},
    // No fire: several context nodes (one group per a).
    {"/r/*/b[last()]", 0},
    {"/r/a/b[last()]", 0},
    {"//a[last()]", 0},
    // No fire: a `*` test, a reverse axis.
    {"/r/*[last()]", 0},
    {"/r/a[last()]/preceding-sibling::a[last()]", 1},
    // No fire: k is not a non-negative integer, or the comparison is
    // not an equality.
    {"/r/a[position() = last() - 1.5]", 0},
    {"/r/a[position() = last() + 1]", 0},
    {"/r/a[position() < last()]", 0},
    // No fire: a positional predicate before last() renumbers the
    // stream through its own counter.
    {"/r/a[position() < 3][last()]", 0},
    {"/r/a[2][last()]", 0},
};

TEST(PositionalConformanceTest, ReverseScanMatrixPinsTheGate) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", kDoc);
  ASSERT_TRUE(info.ok());
  auto dom_doc = dom::ParseDocument(kDoc);
  ASSERT_TRUE(dom_doc.ok());

  auto count_fires = [&](const std::string& query,
                         const translate::TranslatorOptions& options) {
    auto compiled = (*db)->Compile(query, options);
    EXPECT_TRUE(compiled.ok()) << query;
    int fires = 0;
    if (!compiled.ok()) return fires;
    for (const algebra::RewriteEvent& event :
         (*compiled)->prepared().rewrites()) {
      if (event.rule == "limit:reverse-scan") ++fires;
    }
    return fires;
  };

  for (const ReverseCase& c : kReverseMatrix) {
    interp::EvaluatorOptions memo;
    auto expected = interp::Evaluator::Run(dom_doc->get(), c.query,
                                           (*dom_doc)->root(), memo);
    ASSERT_TRUE(expected.ok()) << c.query;
    std::string expected_str = RenderInterp(*expected);

    EXPECT_EQ(count_fires(c.query, translate::TranslatorOptions::Improved()),
              c.fires)
        << "limit:reverse-scan firings on " << c.query;
    auto with_rule = RunAlgebraic(db->get(), info->root, c.query,
                                  translate::TranslatorOptions::Improved());
    ASSERT_TRUE(with_rule.ok())
        << c.query << ": " << with_rule.status().ToString();
    EXPECT_EQ(*with_rule, expected_str)
        << "reverse-scan plan diverges on " << c.query;

    translate::TranslatorOptions no_limit;
    no_limit.limit_pushdown = false;
    EXPECT_EQ(count_fires(c.query, no_limit), 0) << c.query;
    auto without_rule = RunAlgebraic(db->get(), info->root, c.query, no_limit);
    ASSERT_TRUE(without_rule.ok()) << c.query;
    EXPECT_EQ(*without_rule, expected_str)
        << "limit-off plan diverges on " << c.query;
  }
}

TEST(PositionalConformanceTest, TmpCsReplayFreshCounterPerOuterBinding) {
  // Regression: the position() counter inside a last()-carrying
  // predicate is materialized through Tmp^cs (spool/replay in
  // materialize_ops); each outer binding replays its own group, so the
  // counter must restart at 1 per group. A leaked counter would pick
  // the wrong "last" sibling for every group after the first.
  constexpr char kGroups[] =
      "<r><a><b>1</b><b>2</b></a><a><b>3</b></a>"
      "<a><b>4</b><b>5</b><b>6</b></a></r>";
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", kGroups);
  ASSERT_TRUE(info.ok());

  const struct {
    const char* query;
    const char* expected;
  } cases[] = {
      // The last b of each group: 2, 3, 6 — three matches, one per
      // group, so each replayed group saw position() restart.
      {"//a/b[position() = last()]", "2|3|6"},
      {"//a/b[last()]", "2|3|6"},
      // Second-from-last: only the 2-element and 3-element groups have
      // one.
      {"//a/b[position() = last() - 1]", "1|5"},
      // Every a has a last b, so the filter keeps all three groups.
      {"string(count(//a[b[position() = last()]]))", "3"},
      // Plain per-group positional under replay: fresh counter per a.
      {"//a/b[2]", "2|5"},
  };
  for (const auto& c : cases) {
    auto compiled = (*db)->Compile(c.query);
    ASSERT_TRUE(compiled.ok()) << c.query;
    std::string actual;
    if ((*compiled)->prepared().result_type() == xpath::ExprType::kNodeSet) {
      auto nodes = (*compiled)->EvaluateNodes(info->root);
      ASSERT_TRUE(nodes.ok())
          << c.query << ": " << nodes.status().ToString();
      for (const storage::StoredNode& n : *nodes) {
        auto text = n.string_value();
        ASSERT_TRUE(text.ok());
        if (!actual.empty()) actual += "|";
        actual += *text;
      }
    } else {
      auto value = (*compiled)->EvaluateString(info->root);
      ASSERT_TRUE(value.ok()) << c.query;
      actual = *value;
    }
    EXPECT_EQ(actual, c.expected) << c.query;
  }
}

TEST(PositionalConformanceTest, ApiResultLimitCapsOrderedResults) {
  // Paginated serving: result_limit wraps the plan in a top-level Limit.
  // The result stream of /r/a/b is provably doc-ordered, so the cap is
  // a pure early exit — and must return exactly the first k of the full
  // result.
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", kDoc);
  ASSERT_TRUE(info.ok());

  auto full = (*db)->Compile("/r/a/b");
  ASSERT_TRUE(full.ok());
  auto full_nodes = (*full)->EvaluateNodes(info->root);
  ASSERT_TRUE(full_nodes.ok());
  ASSERT_EQ(full_nodes->size(), 6u);

  for (uint64_t k : {1u, 2u, 6u, 99u}) {
    translate::TranslatorOptions options;
    options.result_limit = k;
    auto capped = (*db)->Compile("/r/a/b", options);
    ASSERT_TRUE(capped.ok()) << "k=" << k;
    bool logged = false;
    for (const algebra::RewriteEvent& event :
         (*capped)->prepared().rewrites()) {
      if (event.rule == "limit:api-result-limit") logged = true;
    }
    EXPECT_TRUE(logged) << "k=" << k;
    auto nodes = (*capped)->EvaluateNodes(info->root);
    ASSERT_TRUE(nodes.ok()) << "k=" << k;
    size_t expect = std::min<size_t>(k, full_nodes->size());
    ASSERT_EQ(nodes->size(), expect) << "k=" << k;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(*(*nodes)[i].order(), *(*full_nodes)[i].order())
          << "k=" << k << " index " << i;
    }
  }
}

TEST(PositionalConformanceTest, ApiResultLimitSortsUnorderedResults) {
  // A plan whose result stream is NOT provably doc-ordered (ancestor
  // steps destroy the order claim) gains an in-plan sort below the cap:
  // the capped result must still be the first k of the *document-order*
  // full result, not the first k the plan happened to produce.
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", kDoc);
  ASSERT_TRUE(info.ok());

  const char* query = "//b/ancestor::*";
  auto full = (*db)->Compile(query);
  ASSERT_TRUE(full.ok());
  EXPECT_FALSE((*full)->prepared().ResultDocumentOrdered());
  auto full_nodes = (*full)->EvaluateNodes(info->root);  // API-sorted
  ASSERT_TRUE(full_nodes.ok());
  ASSERT_GE(full_nodes->size(), 3u);

  for (uint64_t k : {1u, 2u, 3u}) {
    translate::TranslatorOptions options;
    options.result_limit = k;
    auto capped = (*db)->Compile(query, options);
    ASSERT_TRUE(capped.ok()) << "k=" << k;
    auto nodes = (*capped)->EvaluateNodes(info->root);
    ASSERT_TRUE(nodes.ok()) << "k=" << k;
    ASSERT_EQ(nodes->size(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(*(*nodes)[i].order(), *(*full_nodes)[i].order())
          << "k=" << k << " index " << i;
    }
  }
}

}  // namespace
}  // namespace natix
