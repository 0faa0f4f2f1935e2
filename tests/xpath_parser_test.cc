#include "xpath/parser.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

namespace natix::xpath {
namespace {

/// Parses and renders back; the renderer prints fully explicit axes and
/// parenthesized operators, so expectations are canonicalized strings.
std::string Roundtrip(const std::string& query) {
  auto expr = ParseXPath(query);
  if (!expr.ok()) return "ERROR " + expr.status().ToString();
  return (*expr)->ToString();
}

TEST(XPathParserTest, SimplePaths) {
  EXPECT_EQ(Roundtrip("/a"), "/child::a");
  EXPECT_EQ(Roundtrip("a/b"), "child::a/child::b");
  EXPECT_EQ(Roundtrip("/"), "/");
  EXPECT_EQ(Roundtrip("child::a/child::b"), "child::a/child::b");
}

TEST(XPathParserTest, AbbreviatedSteps) {
  EXPECT_EQ(Roundtrip("."), "self::node()");
  EXPECT_EQ(Roundtrip(".."), "parent::node()");
  EXPECT_EQ(Roundtrip("@id"), "attribute::id");
  EXPECT_EQ(Roundtrip("a/@*"), "child::a/attribute::*");
}

TEST(XPathParserTest, DoubleSlashExpands) {
  EXPECT_EQ(Roundtrip("//a"), "/descendant-or-self::node()/child::a");
  EXPECT_EQ(Roundtrip("a//b"),
            "child::a/descendant-or-self::node()/child::b");
}

TEST(XPathParserTest, AllAxes) {
  EXPECT_EQ(Roundtrip("ancestor::a"), "ancestor::a");
  EXPECT_EQ(Roundtrip("ancestor-or-self::a"), "ancestor-or-self::a");
  EXPECT_EQ(Roundtrip("descendant::a"), "descendant::a");
  EXPECT_EQ(Roundtrip("descendant-or-self::a"), "descendant-or-self::a");
  EXPECT_EQ(Roundtrip("following::a"), "following::a");
  EXPECT_EQ(Roundtrip("following-sibling::a"), "following-sibling::a");
  EXPECT_EQ(Roundtrip("preceding::a"), "preceding::a");
  EXPECT_EQ(Roundtrip("preceding-sibling::a"), "preceding-sibling::a");
  EXPECT_EQ(Roundtrip("self::a"), "self::a");
  EXPECT_EQ(Roundtrip("parent::a"), "parent::a");
  EXPECT_EQ(Roundtrip("attribute::a"), "attribute::a");
}

TEST(XPathParserTest, PaperAxisAbbreviations) {
  // Fig. 5 of the paper writes desc::, anc::, pre-sib::, fol::, par::.
  EXPECT_EQ(Roundtrip("/child::xdoc/desc::*/anc::*/desc::*/@id"),
            "/child::xdoc/descendant::*/ancestor::*/descendant::*/"
            "attribute::id");
  EXPECT_EQ(Roundtrip("pre-sib::*/fol::*"),
            "preceding-sibling::*/following::*");
  EXPECT_EQ(Roundtrip("par::*"), "parent::*");
}

TEST(XPathParserTest, NamespaceAxisRejected) {
  EXPECT_TRUE(Roundtrip("namespace::*").starts_with("ERROR NotSupported"));
}

TEST(XPathParserTest, NodeTests) {
  EXPECT_EQ(Roundtrip("text()"), "child::text()");
  EXPECT_EQ(Roundtrip("comment()"), "child::comment()");
  EXPECT_EQ(Roundtrip("node()"), "child::node()");
  EXPECT_EQ(Roundtrip("processing-instruction()"),
            "child::processing-instruction()");
  EXPECT_EQ(Roundtrip("processing-instruction('php')"),
            "child::processing-instruction('php')");
  EXPECT_EQ(Roundtrip("*"), "child::*");
}

TEST(XPathParserTest, Predicates) {
  EXPECT_EQ(Roundtrip("a[1]"), "child::a[1]");
  EXPECT_EQ(Roundtrip("a[b][c]"), "child::a[child::b][child::c]");
  EXPECT_EQ(Roundtrip("a[@id='x']"),
            "child::a[(attribute::id = 'x')]");
}

TEST(XPathParserTest, Operators) {
  EXPECT_EQ(Roundtrip("1 + 2 * 3"), "(1 + (2 * 3))");
  EXPECT_EQ(Roundtrip("1 = 2 or 3 != 4 and 5 < 6"),
            "((1 = 2) or ((3 != 4) and (5 < 6)))");
  EXPECT_EQ(Roundtrip("8 div 2 mod 3"), "((8 div 2) mod 3)");
  EXPECT_EQ(Roundtrip("-5"), "-(5)");
  EXPECT_EQ(Roundtrip("--5"), "-(-(5))");
  EXPECT_EQ(Roundtrip("1 <= 2"), "(1 <= 2)");
  EXPECT_EQ(Roundtrip("1 >= 2"), "(1 >= 2)");
  EXPECT_EQ(Roundtrip("6 > 5"), "(6 > 5)");
}

TEST(XPathParserTest, OperatorNamesAsElementNames) {
  // "and", "or", "div", "mod" are legal element names at operand position.
  EXPECT_EQ(Roundtrip("and"), "child::and");
  EXPECT_EQ(Roundtrip("div or mod"), "(child::div or child::mod)");
  EXPECT_EQ(Roundtrip("or/and"), "child::or/child::and");
}

TEST(XPathParserTest, StarDisambiguation) {
  EXPECT_EQ(Roundtrip("* * *"), "(child::* * child::*)");
  EXPECT_EQ(Roundtrip("a * b"), "(child::a * child::b)");
  EXPECT_EQ(Roundtrip("a/*"), "child::a/child::*");
}

TEST(XPathParserTest, Unions) {
  EXPECT_EQ(Roundtrip("a | b | c"), "(child::a | child::b | child::c)");
}

TEST(XPathParserTest, FunctionCalls) {
  EXPECT_EQ(Roundtrip("count(a)"), "count(child::a)");
  EXPECT_EQ(Roundtrip("concat('x', 'y', 'z')"), "concat('x', 'y', 'z')");
  EXPECT_EQ(Roundtrip("position() = last()"), "(position() = last())");
  EXPECT_EQ(Roundtrip("string-length(normalize-space(.))"),
            "string-length(normalize-space(self::node()))");
}

TEST(XPathParserTest, Variables) {
  EXPECT_EQ(Roundtrip("$x + 1"), "($x + 1)");
  EXPECT_EQ(Roundtrip("$var/a"), "$var/child::a");
}

TEST(XPathParserTest, FilterExpressions) {
  EXPECT_EQ(Roundtrip("(a | b)[1]"), "(child::a | child::b)[1]");
  EXPECT_EQ(Roundtrip("$x[2]"), "$x[2]");
  EXPECT_EQ(Roundtrip("(//a)[position() = last()]"),
            "/descendant-or-self::node()/child::a[(position() = last())]");
}

TEST(XPathParserTest, PathExprAfterFilter) {
  EXPECT_EQ(Roundtrip("id('a')/b"), "id('a')/child::b");
  EXPECT_EQ(Roundtrip("$x//y"),
            "$x/descendant-or-self::node()/child::y");
}

TEST(XPathParserTest, NestedPredicatePaths) {
  EXPECT_EQ(
      Roundtrip("a[count(./descendant::c/following::*) = 1000]"),
      "child::a[(count(self::node()/descendant::c/following::*) = 1000)]");
}

TEST(XPathParserTest, NumberLiterals) {
  EXPECT_EQ(Roundtrip("3.25"), "3.25");
  EXPECT_EQ(Roundtrip(".5"), "0.5");
  EXPECT_EQ(Roundtrip("10."), "10");
}

TEST(XPathParserTest, StringLiterals) {
  EXPECT_EQ(Roundtrip("\"dq\""), "'dq'");
  EXPECT_EQ(Roundtrip("'sq'"), "'sq'");
  EXPECT_EQ(Roundtrip("''"), "''");
}

TEST(XPathParserTest, Errors) {
  EXPECT_TRUE(Roundtrip("").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("a[").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("a]").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("a/").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("foo(").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("1 +").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("!").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("$").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("'unterminated").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("bogus::a").starts_with("ERROR"));
  EXPECT_TRUE(Roundtrip("a b").starts_with("ERROR"));
}

TEST(XPathParserTest, DblpBenchmarkQueriesParse) {
  // The Fig. 10 workload must be accepted verbatim.
  const char* queries[] = {
      "/dblp/article/title",
      "/dblp/*/title",
      "/dblp/article[position() = 3]/title",
      "/dblp/article[position() < 100]/title",
      "/dblp/article[position() = last()]/title",
      "/dblp/article[position()=last()-10]/title",
      "/dblp/article/title | /dblp/inproceedings/title",
      "/dblp/article[count(author)=4]/@key",
      "/dblp/article[year='1991']/@key",
      "/dblp/inproceedings[year='1991']/@key",
      "/dblp/*[author='Guido Moerkotte']/@key",
      "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
      "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]"
      "/title",
  };
  for (const char* q : queries) {
    EXPECT_TRUE(ParseXPath(q).ok()) << q;
  }
}

/// Hostile shapes that would overflow the stack of the recursive
/// pipeline stages (or, for long paths, take seconds to compile) are
/// rejected up front, quickly.
void ExpectRejectedFast(const std::string& query) {
  const auto begin = std::chrono::steady_clock::now();
  auto expr = ParseXPath(query);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - begin;
  ASSERT_FALSE(expr.ok()) << query.substr(0, 40);
  EXPECT_EQ(expr.status().code(), StatusCode::kInvalidArgument)
      << expr.status().ToString();
  EXPECT_LT(elapsed.count(), 1.0);
}

std::string Repeat(const std::string& piece, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += piece;
  return out;
}

TEST(XPathParserTest, DeepNestingIsRejected) {
  ExpectRejectedFast(Repeat("(", 5000) + "1" + Repeat(")", 5000));
  ExpectRejectedFast("/r" + Repeat("[a", 2000) + Repeat("]", 2000));
  ExpectRejectedFast(Repeat("-", 5000) + "1");
  // Operator chains and predicate lists build equally deep trees.
  ExpectRejectedFast("$x" + Repeat(" or $x", 15000));
  ExpectRejectedFast("/r" + Repeat("[1]", 5000));
  // Within the bound, nesting still parses.
  EXPECT_TRUE(ParseXPath(Repeat("(", 100) + "1" + Repeat(")", 100)).ok());
  EXPECT_TRUE(ParseXPath("/r" + Repeat("[a", 60) + Repeat("]", 60)).ok());
}

TEST(XPathParserTest, SiblingOperandsDoNotAddUpToTheNestingBound) {
  // A generated IN-list: 100 disjuncts form a chain about 100 deep.
  std::string in_list = "//item[@k='v0'";
  for (int i = 1; i < 100; ++i) in_list += " or @k='v" + std::to_string(i) + "'";
  auto expr = ParseXPath(in_list + "]");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  // Two operands, each 60 levels deep, make a tree 61 levels deep.
  const std::string deep = Repeat("(", 60) + "1" + Repeat(")", 60);
  EXPECT_TRUE(ParseXPath(deep + " or " + deep).ok());
  EXPECT_TRUE(ParseXPath("concat(" + deep + ", " + deep + ")").ok());
  // One predicate on each of 127 steps.
  EXPECT_TRUE(ParseXPath("/r" + Repeat("/a[1]", 127)).ok());
}

TEST(XPathParserTest, LongPathsAreRejected) {
  ExpectRejectedFast("/r" + Repeat("/a", 20000));
  ExpectRejectedFast(Repeat("//a", 200));  // each // adds a step
  EXPECT_TRUE(ParseXPath("/r" + Repeat("/a", 255)).ok());  // 256 steps
  // Predicates count too: each one is a plan operator on the path.
  ExpectRejectedFast("/r" + Repeat("/a" + Repeat("[1]", 60), 200));
  ExpectRejectedFast("/r" + Repeat("/a[1]", 128));
}

}  // namespace
}  // namespace natix::xpath
