// Golden EXPLAIN ANALYZE snapshots for the five paper benchmark query
// shapes (Figs. 6-10). Counter values are normalized away ("=N" -> "=_")
// so the goldens pin the operator tree STRUCTURE, the counter NAMES and
// the inferred stream-property tags ("{card:..., ord:doc(...), ...}",
// which contain no '=') — the stable output contract of
// obs::QueryStats::RenderAnalyze — without depending on timings or
// document scale. Note Figs. 6-8: the DupElim above the first
// descendant step is gone, removed by the property-justified
// simplifier (the step runs over a duplicate-free non-nested context).
// Every other DupElim directly over a descendant, ancestor, following or
// sibling step is fused into it as UnnestMap^D, which prunes the walk by
// its seen-set; Fig. 9's DupElim over parent:: stays a node of its own.

#include <gtest/gtest.h>

#include <cctype>
#include <memory>
#include <string>

#include "api/database.h"

namespace natix {
namespace {

/// Replaces every "=<digits/dots>" with "=_", leaving everything else
/// (labels, register-qualified attribute names, counter names) intact.
std::string Normalize(const std::string& analyze) {
  std::string out;
  out.reserve(analyze.size());
  size_t i = 0;
  while (i < analyze.size()) {
    char c = analyze[i];
    out += c;
    ++i;
    if (c != '=') continue;
    size_t j = i;
    while (j < analyze.size() &&
           (std::isdigit(static_cast<unsigned char>(analyze[j])) ||
            analyze[j] == '.')) {
      ++j;
    }
    if (j > i) {
      out += '_';
      i = j;
    }
  }
  return out;
}

std::string AnalyzeQuery(const std::string& xml, const std::string& query) {
  auto db = Database::CreateTemp();
  EXPECT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  EXPECT_TRUE(info.ok());
  auto compiled = (*db)->Compile(
      query, translate::TranslatorOptions::Improved(),
      /*collect_stats=*/true);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto nodes = (*compiled)->EvaluateNodes(info->root);
  EXPECT_TRUE(nodes.ok());
  return Normalize((*compiled)->ExplainAnalyze());
}

constexpr char kXdoc[] =
    "<xdoc id=\"d0\"><a id=\"n1\"><b id=\"n2\"/><c id=\"n3\"/></a>"
    "<a id=\"n4\"><b id=\"n5\"><c id=\"n6\"/></b></a></xdoc>";

constexpr char kDblp[] =
    "<dblp><article key=\"a1\"><author>A</author><title>T1</title>"
    "</article><article key=\"a2\"><author>B</author><author>C</author>"
    "<title>T2</title></article><inproceedings key=\"p1\">"
    "<title>T3</title></inproceedings></dblp>";

TEST(ExplainAnalyzeGoldenTest, Fig6Query1) {
  EXPECT_EQ(
      AnalyzeQuery(kXdoc, "/child::xdoc/desc::*/anc::*/desc::*/@id"),
      R"(UnnestMap[c6 := c5/attribute::id] {card:n, dup-free(c6), non-nested(c6), class:attribute} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
  UnnestMap^D[c5 := c4/descendant::*] {card:n, dup-free(c5), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
    UnnestMap^D[c4 := c3/ancestor::*] {card:n, dup-free(c4), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
      UnnestMap[c3 := c2/descendant::*] {card:n, ord:doc(c3), dup-free(c3), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
        UnnestMap[c2 := c1/child::xdoc] {card:<=_, ord:doc(c2), dup-free(c2), non-nested(c2), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
          Map[c1 := root*(cn)] {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
            SingletonScan (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
buffer: page_reads=_ page_hits=_ page_writes=_ evictions=_
)");
}

TEST(ExplainAnalyzeGoldenTest, Fig7Query2) {
  EXPECT_EQ(
      AnalyzeQuery(kXdoc, "/child::xdoc/desc::*/pre-sib::*/fol::*/@id"),
      R"(UnnestMap[c6 := c5/attribute::id] {card:n, dup-free(c6), non-nested(c6), class:attribute} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
  UnnestMap^D[c5 := c4/following::*] {card:n, dup-free(c5), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
    UnnestMap^D[c4 := c3/preceding-sibling::*] {card:n, dup-free(c4), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
      UnnestMap[c3 := c2/descendant::*] {card:n, ord:doc(c3), dup-free(c3), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
        UnnestMap[c2 := c1/child::xdoc] {card:<=_, ord:doc(c2), dup-free(c2), non-nested(c2), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
          Map[c1 := root*(cn)] {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
            SingletonScan (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
buffer: page_reads=_ page_hits=_ page_writes=_ evictions=_
)");
}

TEST(ExplainAnalyzeGoldenTest, Fig8Query3) {
  EXPECT_EQ(
      AnalyzeQuery(kXdoc, "/child::xdoc/desc::*/anc::*/anc::*/@id"),
      R"(UnnestMap[c6 := c5/attribute::id] {card:n, dup-free(c6), non-nested(c6), class:attribute} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
  UnnestMap^D[c5 := c4/ancestor::*] {card:n, dup-free(c5), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
    UnnestMap^D[c4 := c3/ancestor::*] {card:n, dup-free(c4), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
      UnnestMap[c3 := c2/descendant::*] {card:n, ord:doc(c3), dup-free(c3), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
        UnnestMap[c2 := c1/child::xdoc] {card:<=_, ord:doc(c2), dup-free(c2), non-nested(c2), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
          Map[c1 := root*(cn)] {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
            SingletonScan (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
buffer: page_reads=_ page_hits=_ page_writes=_ evictions=_
)");
}

TEST(ExplainAnalyzeGoldenTest, Fig9Query4) {
  EXPECT_EQ(
      AnalyzeQuery(kXdoc, "/child::xdoc/child::*/par::*/desc::*/@id"),
      R"(UnnestMap[c6 := c5/attribute::id] {card:n, dup-free(c6), non-nested(c6), class:attribute} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
  UnnestMap^D[c5 := c4/descendant::*] {card:n, dup-free(c5), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
    DupElim[c4] {card:n, dup-free(c4), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
      UnnestMap[c4 := c3/parent::*] {card:n, class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
        UnnestMap[c3 := c2/child::*] {card:n, ord:doc(c3), dup-free(c3), non-nested(c3), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
          UnnestMap[c2 := c1/child::xdoc] {card:<=_, ord:doc(c2), dup-free(c2), non-nested(c2), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
            Map[c1 := root*(cn)] {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
              SingletonScan (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
buffer: page_reads=_ page_hits=_ page_writes=_ evictions=_
)");
}

// Fig. 10 representative (DBLP positional query): pins the reverse-scan
// pipeline — Limit over the counter over the backward child step, no
// Tmp^cs spool — and the Limit's early-exit counter name. The counter
// only renders when nonzero, so this golden needs the instrumentation
// compiled in.
TEST(ExplainAnalyzeGoldenTest, Fig10DblpPositional) {
#if defined(NATIX_OBS_DISABLED)
  GTEST_SKIP() << "observability compiled out (NATIX_OBS=OFF)";
#endif
  EXPECT_EQ(
      AnalyzeQuery(kDblp, "/dblp/article[position() = last()]/title"),
      R"(UnnestMap[c6 := c3/child::title] {card:n, ord:doc(c6), dup-free(c6), non-nested(c6), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
  Limit[1] {card:<=_} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_ early_exits=_)
    Select[(cp4 = 1)] (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
      Counter[cp4, reset on c2] (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
        UnnestMap^rev[c3 := c2/child::article] {card:n, dup-free(c3), non-nested(c3), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
          UnnestMap[c2 := c1/child::dblp] {card:<=_, ord:doc(c2), dup-free(c2), non-nested(c2), class:element} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
            Map[c1 := root*(cn)] {card:1, ord:doc(c1), dup-free(c1), non-nested(c1), class:root} (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
              SingletonScan (open=_ next=_ tuples=_ exclusive_ms=_ page_reads=_ page_hits=_)
buffer: page_reads=_ page_hits=_ page_writes=_ evictions=_
)");
}

}  // namespace
}  // namespace natix
