// Goldens for the property-annotated EXPLAIN surfaces on the five paper
// benchmark query shapes (Figs. 6-10): the per-operator property tags of
// ExplainProperties() pin which claims the inference engine derives (and
// hence which DupElim/Sort operators the rewriter may remove), and
// ExplainJson() is checked for structure and content. These five goldens
// are the contract of the paper-query win: Figs. 6-8 lose the dedup
// after the initial descendant step, Fig. 10's result stream is proven
// document-ordered so the API skips its final sort. The same five
// queries also pin the logical, physical and NVM listings byte-exactly;
// in the physical listing a DupElim over a prunable ppd step is fused
// into the step (UnnestMap^D).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/database.h"

namespace natix {
namespace {

constexpr char kXdoc[] =
    "<xdoc id=\"d0\"><a id=\"n1\"><b id=\"n2\"/><c id=\"n3\"/></a>"
    "<a id=\"n4\"><b id=\"n5\"><c id=\"n6\"/></b></a></xdoc>";

constexpr char kDblp[] =
    "<dblp><article key=\"a1\"><author>A</author><title>T1</title>"
    "</article><article key=\"a2\"><author>B</author><author>C</author>"
    "<title>T2</title></article><inproceedings key=\"p1\">"
    "<title>T3</title></inproceedings></dblp>";

/// Keeps the database alive alongside the prepared query (the query
/// holds a raw store pointer).
struct Compiled {
  std::unique_ptr<Database> db;
  std::shared_ptr<const PreparedQuery> query;
  const PreparedQuery* operator->() const { return query.get(); }
};

Compiled CompileQuery(const std::string& xml, const std::string& query) {
  auto db = Database::CreateTemp();
  NATIX_CHECK(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  NATIX_CHECK(info.ok());
  auto prepared = (*db)->Prepare(query);
  NATIX_CHECK(prepared.ok());
  return Compiled{std::move(db.value()), std::move(prepared.value())};
}

TEST(ExplainPropertiesGoldenTest, Fig6Query1) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, dup-free(c6), non-nested(c6), class:attribute}
  DupElim[c5]  {card:n, dup-free(c5), class:element}
    UnnestMap[c5 := c4/descendant::*]  {card:n, class:element}
      DupElim[c4]  {card:n, dup-free(c4), class:element}
        UnnestMap[c4 := c3/ancestor::*]  {card:n, class:element}
          UnnestMap[c3 := c2/descendant::*]  {card:n, ord:doc(c3), dup-free(c3), class:element}
            UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
              Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
                SingletonScan  {card:1}
)");
  EXPECT_FALSE(q->ResultDocumentOrdered());
}

TEST(ExplainPropertiesGoldenTest, Fig7Query2) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, dup-free(c6), non-nested(c6), class:attribute}
  DupElim[c5]  {card:n, dup-free(c5), class:element}
    UnnestMap[c5 := c4/following::*]  {card:n, class:element}
      DupElim[c4]  {card:n, dup-free(c4), class:element}
        UnnestMap[c4 := c3/preceding-sibling::*]  {card:n, class:element}
          UnnestMap[c3 := c2/descendant::*]  {card:n, ord:doc(c3), dup-free(c3), class:element}
            UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
              Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
                SingletonScan  {card:1}
)");
}

TEST(ExplainPropertiesGoldenTest, Fig8Query3) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, dup-free(c6), non-nested(c6), class:attribute}
  DupElim[c5]  {card:n, dup-free(c5), class:element}
    UnnestMap[c5 := c4/ancestor::*]  {card:n, class:element}
      DupElim[c4]  {card:n, dup-free(c4), class:element}
        UnnestMap[c4 := c3/ancestor::*]  {card:n, class:element}
          UnnestMap[c3 := c2/descendant::*]  {card:n, ord:doc(c3), dup-free(c3), class:element}
            UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
              Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
                SingletonScan  {card:1}
)");
  // The descendant-step dedup is proven redundant; its removal is logged
  // with the proving property.
  bool found = false;
  for (const algebra::RewriteEvent& event : q->rewrites()) {
    if (event.rule != "drop-redundant-duplicate-elimination") continue;
    if (event.target != "DupElim[c3]") continue;
    found = true;
    EXPECT_NE(event.justification.find("dup-free(c3)"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(ExplainPropertiesGoldenTest, Fig9Query4) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/child::*/par::*/desc::*/@id");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c5/attribute::id]  {card:n, dup-free(c6), non-nested(c6), class:attribute}
  DupElim[c5]  {card:n, dup-free(c5), class:element}
    UnnestMap[c5 := c4/descendant::*]  {card:n, class:element}
      DupElim[c4]  {card:n, dup-free(c4), class:element}
        UnnestMap[c4 := c3/parent::*]  {card:n, class:element}
          UnnestMap[c3 := c2/child::*]  {card:n, ord:doc(c3), dup-free(c3), non-nested(c3), class:element}
            UnnestMap[c2 := c1/child::xdoc]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
              Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
                SingletonScan  {card:1}
)");
}

TEST(ExplainPropertiesGoldenTest, Fig10DblpPositional) {
  auto q = CompileQuery(kDblp, "/dblp/article[position() = last()]/title");
  EXPECT_EQ(
      q->ExplainProperties(),
      R"(UnnestMap[c6 := c3/child::title]  {card:n, ord:doc(c6), dup-free(c6), non-nested(c6), class:element}
  Limit[1]  {card:<=1}
    Select[(cp4 = 1)]  {card:n}
      Counter[cp4, reset on c2]  {card:n, class:value}
        UnnestMap^rev[c3 := c2/child::article]  {card:n, dup-free(c3), non-nested(c3), class:element}
          UnnestMap[c2 := c1/child::dblp]  {card:<=1, ord:doc(c2), dup-free(c2), non-nested(c2), class:element}
            Map[c1 := root*(cn)]  {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root}
              SingletonScan  {card:1}
)");
  // The reverse scan leaves at most one article, so the result order is
  // still proven and the API skips its final sort.
  EXPECT_TRUE(q->ResultDocumentOrdered());
}

/// Minimal well-formedness scan: balanced braces/brackets outside
/// strings, and strings properly terminated.
bool JsonBalanced(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST(ExplainJsonGoldenTest, PaperQueriesEmitWellFormedJson) {
  const struct {
    const char* xml;
    const char* query;
  } cases[] = {
      {kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id"},
      {kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id"},
      {kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id"},
      {kXdoc, "/child::xdoc/child::*/par::*/desc::*/@id"},
      {kDblp, "/dblp/article[position() = last()]/title"},
  };
  for (const auto& c : cases) {
    auto q = CompileQuery(c.xml, c.query);
    const std::string& json = q->ExplainJson();
    EXPECT_TRUE(JsonBalanced(json)) << c.query;
    // Single line, trailing newline only.
    EXPECT_EQ(json.find('\n'), json.size() - 1) << c.query;
    // One top-level key: {"plan":{...}}.
    EXPECT_EQ(json.rfind("{\"plan\":{", 0), 0u) << c.query;
    EXPECT_EQ(json.substr(json.size() - 3), "}}\n") << c.query;
    EXPECT_EQ(json.find("\"segments\""), std::string::npos) << c.query;
    EXPECT_NE(json.find("\"op\":\"UnnestMap\""), std::string::npos)
        << c.query;
    EXPECT_NE(json.find("\"cardinality\":"), std::string::npos) << c.query;
    EXPECT_NE(json.find("\"attrs\":{"), std::string::npos) << c.query;
  }
}

TEST(ExplainJsonGoldenTest, Fig6JsonCarriesDescendantClaims) {
  auto q = CompileQuery(kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id");
  const std::string& json = q->ExplainJson();
  // The descendant step's output claims order and duplicate-freedom…
  EXPECT_NE(
      json.find("\"c3\":{\"order\":\"doc\",\"duplicate_free\":true"),
      std::string::npos);
  // …and the summaries match the rendered plan.
  EXPECT_NE(json.find("\"summary\":\"UnnestMap[c3 := c2/descendant::*]\""),
            std::string::npos);
}

// Byte-exact goldens for the plain plan renderings: ExplainLogical(),
// ExplainPhysical() and the NVM subscript listing natixq --dump-nvm
// prints. Any change to how or when these strings are rendered must
// keep them byte-identical.
struct PlanGoldens {
  std::string logical;
  std::string physical;
  /// The natixq --dump-nvm listing.
  std::string nvm;
};

void ExpectPlanGoldens(const std::string& xml, const std::string& query,
                       const PlanGoldens& golden) {
  auto q = CompileQuery(xml, query);
  const qe::PlanTemplate& plan = q->plan();
  EXPECT_EQ(q->ExplainLogical(), golden.logical);
  EXPECT_EQ(q->ExplainPhysical(), golden.physical);
  EXPECT_EQ("=== nvm (" + std::to_string(plan.nvm_insns()) +
                " instructions) ===\n" + plan.nvm_listing(),
            golden.nvm);
}

TEST(ExplainPlanGoldenTest, Fig6Query1) {
  ExpectPlanGoldens(kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id",
                    {R"golden(UnnestMap[c6 := c5/attribute::id]
  DupElim[c5]
    UnnestMap[c5 := c4/descendant::*]
      DupElim[c4]
        UnnestMap[c4 := c3/ancestor::*]
          UnnestMap[c3 := c2/descendant::*]
            UnnestMap[c2 := c1/child::xdoc]
              Map[c1 := root*(cn)]
                SingletonScan
)golden",
                     R"golden(registers: 9, nested plans: 0
UnnestMap[c6@r8 := c5@r7/attribute::id]
  UnnestMap^D[c5@r7 := c4@r6/descendant::*]
    UnnestMap^D[c4@r6 := c3@r5/ancestor::*]
      UnnestMap[c3@r5 := c2@r4/descendant::*]
        UnnestMap[c2@r4 := c1@r3/child::xdoc]
          Map[c1@r3 := root*(cn)]
            SingletonScan
)golden",
                     "=== nvm (3 instructions) ===\n"
                     R"golden(== Map[c1@r3] ==
L0:
  0: load_attr r0, t0
  1: root r1, r0
  2: halt r1
)golden"});
}

TEST(ExplainPlanGoldenTest, Fig7Query2) {
  ExpectPlanGoldens(kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id",
                    {R"golden(UnnestMap[c6 := c5/attribute::id]
  DupElim[c5]
    UnnestMap[c5 := c4/following::*]
      DupElim[c4]
        UnnestMap[c4 := c3/preceding-sibling::*]
          UnnestMap[c3 := c2/descendant::*]
            UnnestMap[c2 := c1/child::xdoc]
              Map[c1 := root*(cn)]
                SingletonScan
)golden",
                     R"golden(registers: 9, nested plans: 0
UnnestMap[c6@r8 := c5@r7/attribute::id]
  UnnestMap^D[c5@r7 := c4@r6/following::*]
    UnnestMap^D[c4@r6 := c3@r5/preceding-sibling::*]
      UnnestMap[c3@r5 := c2@r4/descendant::*]
        UnnestMap[c2@r4 := c1@r3/child::xdoc]
          Map[c1@r3 := root*(cn)]
            SingletonScan
)golden",
                     "=== nvm (3 instructions) ===\n"
                     R"golden(== Map[c1@r3] ==
L0:
  0: load_attr r0, t0
  1: root r1, r0
  2: halt r1
)golden"});
}

TEST(ExplainPlanGoldenTest, Fig8Query3) {
  ExpectPlanGoldens(kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id",
                    {R"golden(UnnestMap[c6 := c5/attribute::id]
  DupElim[c5]
    UnnestMap[c5 := c4/ancestor::*]
      DupElim[c4]
        UnnestMap[c4 := c3/ancestor::*]
          UnnestMap[c3 := c2/descendant::*]
            UnnestMap[c2 := c1/child::xdoc]
              Map[c1 := root*(cn)]
                SingletonScan
)golden",
                     R"golden(registers: 9, nested plans: 0
UnnestMap[c6@r8 := c5@r7/attribute::id]
  UnnestMap^D[c5@r7 := c4@r6/ancestor::*]
    UnnestMap^D[c4@r6 := c3@r5/ancestor::*]
      UnnestMap[c3@r5 := c2@r4/descendant::*]
        UnnestMap[c2@r4 := c1@r3/child::xdoc]
          Map[c1@r3 := root*(cn)]
            SingletonScan
)golden",
                     "=== nvm (3 instructions) ===\n"
                     R"golden(== Map[c1@r3] ==
L0:
  0: load_attr r0, t0
  1: root r1, r0
  2: halt r1
)golden"});
}

TEST(ExplainPlanGoldenTest, Fig9Query4) {
  ExpectPlanGoldens(kXdoc, "/child::xdoc/child::*/par::*/desc::*/@id",
                    {R"golden(UnnestMap[c6 := c5/attribute::id]
  DupElim[c5]
    UnnestMap[c5 := c4/descendant::*]
      DupElim[c4]
        UnnestMap[c4 := c3/parent::*]
          UnnestMap[c3 := c2/child::*]
            UnnestMap[c2 := c1/child::xdoc]
              Map[c1 := root*(cn)]
                SingletonScan
)golden",
                     R"golden(registers: 9, nested plans: 0
UnnestMap[c6@r8 := c5@r7/attribute::id]
  UnnestMap^D[c5@r7 := c4@r6/descendant::*]
    DupElim[c4@r6]
      UnnestMap[c4@r6 := c3@r5/parent::*]
        UnnestMap[c3@r5 := c2@r4/child::*]
          UnnestMap[c2@r4 := c1@r3/child::xdoc]
            Map[c1@r3 := root*(cn)]
              SingletonScan
)golden",
                     "=== nvm (3 instructions) ===\n"
                     R"golden(== Map[c1@r3] ==
L0:
  0: load_attr r0, t0
  1: root r1, r0
  2: halt r1
)golden"});
}

TEST(ExplainPlanGoldenTest, Fig10DblpPositional) {
  ExpectPlanGoldens(kDblp, "/dblp/article[position() = last()]/title",
                    {R"golden(UnnestMap[c6 := c3/child::title]
  Limit[1]
    Select[(cp4 = 1)]
      Counter[cp4 := counter++, reset on c2]
        UnnestMap^rev[c3 := c2/child::article]
          UnnestMap[c2 := c1/child::dblp]
            Map[c1 := root*(cn)]
              SingletonScan
)golden",
                     R"golden(registers: 8, nested plans: 0
UnnestMap[c6@r7 := c3@r5/child::title]
  Limit[1]
    Select[(cp4 = 1)]
      Counter[cp4@r6 := counter++, reset on c2@r4]
        UnnestMap^rev[c3@r5 := c2@r4/child::article]
          UnnestMap[c2@r4 := c1@r3/child::dblp]
            Map[c1@r3 := root*(cn)]
              SingletonScan
)golden",
                     "=== nvm (7 instructions) ===\n"
                     R"golden(== Map[c1@r3] ==
L0:
  0: load_attr r0, t0
  1: root r1, r0
  2: halt r1
== Select ==
L0:
  0: load_attr r0, t6
  1: load_const r1, 1
  2: compare r2, r0 = r1
  3: halt r2
)golden"});
}

}  // namespace
}  // namespace natix
