// Tests of the public facade (natix::Database / PreparedQuery::Execution):
// the API surface a downstream user programs against.

#include "api/database.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace natix {
namespace {

TEST(DatabaseTest, QueryHelpersCoverAllResultTypes) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", "<r><x>5</x><x>7</x></r>").ok());

  auto nodes = (*db)->QueryNodes("d", "//x");
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 2u);

  EXPECT_EQ(*(*db)->QueryString("d", "string(//x[2])"), "7");
  EXPECT_EQ(*(*db)->QueryNumber("d", "sum(//x)"), 12);
  EXPECT_TRUE(*(*db)->QueryBoolean("d", "//x = 5"));
  EXPECT_FALSE(*(*db)->QueryBoolean("d", "//x = 6"));

  // Node-set queries through scalar helpers convert per XPath rules.
  EXPECT_EQ(*(*db)->QueryString("d", "//x"), "5");  // first in doc order
  EXPECT_EQ(*(*db)->QueryNumber("d", "//x"), 5);
  EXPECT_TRUE(*(*db)->QueryBoolean("d", "//x"));
  EXPECT_FALSE(*(*db)->QueryBoolean("d", "//nope"));
}

TEST(DatabaseTest, ErrorsSurfaceAsStatuses) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", "<r/>").ok());

  EXPECT_FALSE((*db)->QueryNodes("nope", "//x").ok());
  EXPECT_FALSE((*db)->QueryNodes("d", "//x[").ok());
  EXPECT_FALSE((*db)->QueryNodes("d", "frob()").ok());
  EXPECT_FALSE((*db)->LoadDocument("d", "<r/>").ok());  // duplicate name
  EXPECT_FALSE((*db)->LoadDocument("bad", "<a><b></a>").ok());
  EXPECT_FALSE((*db)->LoadDocumentFile("f", "/no/such/file.xml").ok());
}

TEST(DatabaseTest, ExecutionIsReusableAcrossContexts) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(
      (*db)->LoadDocument("d", "<r><g><i/><i/></g><g><i/></g></r>").ok());
  auto query = (*db)->Compile("count(i)");
  ASSERT_TRUE(query.ok());
  auto groups = (*db)->QueryNodes("d", "//g");
  ASSERT_TRUE(groups.ok());
  auto v0 = (*query)->EvaluateValue((*groups)[0].id());
  auto v1 = (*query)->EvaluateValue((*groups)[1].id());
  ASSERT_TRUE(v0.ok() && v1.ok());
  EXPECT_EQ(v0->AsNumber(), 2);
  EXPECT_EQ(v1->AsNumber(), 1);
}

TEST(DatabaseTest, QueriesAtTheSizeBoundPrepareAndExecute) {
  // The largest shapes the parser admits (128 levels of nesting, 256
  // steps plus predicates): one step with 126 predicates, 127 steps
  // with one predicate each, and 42 comparisons nested in predicates
  // (each level a semi-join over the next). Lowering and instantiation
  // recurse once per plan operator, so all must also fit the main
  // thread's stack in a Debug sanitizer build, and verification must
  // visit each operator once (a re-walk per semi-join level doubles the
  // work per level).
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  std::string xml = "<r>";
  for (int i = 0; i < 127; ++i) xml += "<a>";
  for (int i = 0; i < 127; ++i) xml += "</a>";
  auto info = (*db)->LoadDocument("deep", xml + "</r>");
  ASSERT_TRUE(info.ok());

  std::string predicates = "/r";
  for (int i = 0; i < 126; ++i) predicates += "[1]";
  std::string steps = "/r";
  for (int i = 0; i < 127; ++i) steps += "/a[1]";
  std::string comparisons = "b";
  for (int i = 0; i < 42; ++i) comparisons = "a[" + comparisons + " = c]";
  comparisons = "/r/" + comparisons;
  const std::pair<std::string, size_t> cases[] = {
      {predicates, 1}, {steps, 1}, {comparisons, 0}};
  for (const auto& [query, expected] : cases) {
    auto prepared = (*db)->Prepare(query);
    ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
    auto exec = (*prepared)->NewExecution();
    ASSERT_TRUE(exec.ok());
    auto nodes = (*exec)->EvaluateNodes(info->root);
    ASSERT_TRUE(nodes.ok()) << nodes.status().ToString();
    EXPECT_EQ(nodes->size(), expected);
  }
}

TEST(DatabaseTest, ResultTypeIsExposed) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", "<r/>").ok());
  EXPECT_EQ((*(*db)->Compile("//a"))->prepared().result_type(),
            xpath::ExprType::kNodeSet);
  EXPECT_EQ((*(*db)->Compile("count(//a)"))->prepared().result_type(),
            xpath::ExprType::kNumber);
  EXPECT_EQ((*(*db)->Compile("'s'"))->prepared().result_type(),
            xpath::ExprType::kString);
  EXPECT_EQ((*(*db)->Compile("1 = 1"))->prepared().result_type(),
            xpath::ExprType::kBoolean);
}

TEST(DatabaseTest, WrongShapeExecutionIsRejected) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("d", "<r/>");
  ASSERT_TRUE(info.ok());
  auto nodes_query = (*db)->Compile("//a");
  ASSERT_TRUE(nodes_query.ok());
  EXPECT_FALSE((*nodes_query)->EvaluateValue(info->root).ok());
  auto scalar_query = (*db)->Compile("1 + 1");
  ASSERT_TRUE(scalar_query.ok());
  EXPECT_FALSE((*scalar_query)->EvaluateNodes(info->root).ok());
}

TEST(DatabaseTest, DocumentOrderToggle) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("d", "<r><a/><b/><c/></r>");
  ASSERT_TRUE(info.ok());
  auto query = (*db)->Compile("//c | //a | //b");
  ASSERT_TRUE(query.ok());
  auto sorted = (*query)->EvaluateNodes(info->root);
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(*(*sorted)[0].name(), "a");
  EXPECT_EQ(*(*sorted)[2].name(), "c");
}

TEST(DatabaseTest, PersistAndReopenThroughApi) {
  std::string path = std::string(::testing::TempDir()) + "/api_persist.db";
  {
    auto db = Database::Create(path);
    ASSERT_TRUE(db.ok());
    ASSERT_TRUE((*db)->LoadDocument("d", "<r><k>value</k></r>").ok());
    ASSERT_TRUE((*db)->Flush().ok());
  }
  {
    auto db = Database::Open(path);
    ASSERT_TRUE(db.ok());
    EXPECT_EQ(*(*db)->QueryString("d", "string(//k)"), "value");
  }
  std::remove(path.c_str());
}

TEST(DatabaseTest, PhysicalExplainShowsRegisters) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", "<r/>").ok());
  auto query = (*db)->Compile("//a[count(b) = 1]");
  ASSERT_TRUE(query.ok());
  const std::string& plan = (*query)->prepared().ExplainPhysical();
  EXPECT_NE(plan.find("registers:"), std::string::npos);
  EXPECT_NE(plan.find("@r"), std::string::npos);       // register mapping
  EXPECT_NE(plan.find("nested"), std::string::npos);   // nested subplan
}

TEST(DatabaseTest, PhysicalExplainMarksAliases) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", "<r/>").ok());
  // Union branches share one output attribute through rename maps; at
  // least the first compiles to a register alias.
  auto query = (*db)->Compile("//a | //b");
  ASSERT_TRUE(query.ok());
  EXPECT_NE((*query)->prepared().ExplainPhysical().find("register alias"),
            std::string::npos);
}

TEST(DatabaseTest, ExecutionStatsTrackWork) {
  Database::Options options;
  options.buffer_pages = 16;  // smallest valid pool: force faults
  options.buffer_shards = 1;
  auto db = Database::CreateTemp(options);
  ASSERT_TRUE(db.ok());
  std::string xml = "<r>";
  for (int i = 0; i < 2000; ++i) xml += "<a><b/></a>";
  xml += "</r>";
  auto info = (*db)->LoadDocument("d", xml);
  ASSERT_TRUE(info.ok());

  auto big = (*db)->Compile("//b");
  ASSERT_TRUE(big.ok());
  ASSERT_TRUE((*big)->EvaluateNodes(info->root).ok());
  ExecutionStats big_stats = (*big)->last_stats();
  // The descendant walk + child::b steps touch every node.
  EXPECT_GT(big_stats.step_tuples, 4000u);
  EXPECT_GT(big_stats.page_faults, 0u);

  auto small = (*db)->Compile("/r/a[1]/b");
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE((*small)->EvaluateNodes(info->root).ok());
  EXPECT_LT((*small)->last_stats().step_tuples, big_stats.step_tuples);
}

TEST(DatabaseTest, IdleExecutionsHoldNoPins) {
  // An execution pins the pages it reads in its page set and must drop
  // them when each Evaluate* call returns, on every path. Eight
  // executions on document "d" are left idle after a normal run, a Limit
  // early exit, a deadline abort and an error; then 16 distinct pages of
  // document "pad", which no query reads, must all pin at once in the
  // 16-page pool: a pin left on any page of "d" takes a frame.
  Database::Options options;
  options.buffer_pages = 16;
  options.buffer_shards = 1;
  auto db = Database::CreateTemp(options);
  ASSERT_TRUE(db.ok());
  std::string xml = "<r>";
  for (int i = 0; i < 2000; ++i) {
    xml += "<e i='" + std::to_string(i) + "'>" + std::string(100, 't') +
           "</e>";
  }
  xml += "</r>";
  auto info = (*db)->LoadDocument("d", xml);
  ASSERT_TRUE(info.ok());
  // Loaded second, so its pages follow all of "d"'s.
  auto pad = (*db)->LoadDocument("pad", xml);
  ASSERT_TRUE(pad.ok());

  std::vector<std::unique_ptr<PreparedQuery::Execution>> idle;
  auto compile = [&](const char* xpath) {
    auto exec = (*db)->Compile(xpath);
    EXPECT_TRUE(exec.ok()) << xpath;
    idle.push_back(std::move(exec).value());
    return idle.back().get();
  };
  for (int round = 0; round < 2; ++round) {
    auto all = compile("//e");
    auto nodes = all->EvaluateNodes(info->root);
    ASSERT_TRUE(nodes.ok());
    EXPECT_EQ(nodes->size(), 2000u);

    auto first = compile("/r/e[position() = 1]");
    auto one = first->EvaluateNodes(info->root);
    ASSERT_TRUE(one.ok());
    EXPECT_EQ(one->size(), 1u);

    auto late = compile("//e");
    late->SetDeadlineNs(1);  // long past
    EXPECT_EQ(late->EvaluateNodes(info->root).status().code(),
              StatusCode::kDeadlineExceeded);

    // A scalar plan run as a node set fails after the context node's
    // page entered the page set.
    auto wrong = compile("count(//e)");
    EXPECT_EQ(wrong->EvaluateNodes(info->root).status().code(),
              StatusCode::kInvalidArgument);
  }
  ASSERT_EQ(idle.size(), 8u);

  storage::BufferManager* pool = (*db)->store()->buffer_manager();
  std::vector<storage::PageHandle> pinned;
  for (storage::PageId i = 0; i < 16; ++i) {
    const storage::PageId id = pad->root.page + i;
    auto page = pool->FixPage(id);
    ASSERT_TRUE(page.ok()) << "page " << id << ": "
                           << page.status().ToString();
    pinned.push_back(std::move(page).value());
  }
}

TEST(DatabaseTest, MemoizedQueryReuseStaysCorrect) {
  // MemoX tables persist across evaluations of one compiled query (the
  // store is immutable, so cached inner-path results stay valid). The
  // second run must return identical results.
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument(
      "d", "<r><a><c/><c/></a><a><c/></a><a/></r>");
  ASSERT_TRUE(info.ok());
  auto query =
      (*db)->Compile("/r/a[count(descendant::c/following::c) > 0]");
  ASSERT_TRUE(query.ok());
  auto first = (*query)->EvaluateNodes(info->root);
  auto second = (*query)->EvaluateNodes(info->root);
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ(*(*first)[i].order(), *(*second)[i].order());
  }
  // Only the first a qualifies: its c's have later c's following them.
  EXPECT_EQ(first->size(), 1u);
}

TEST(DatabaseTest, EvaluateNumberAndBooleanHelpers) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("d", "<r><x>5</x><x>7</x></r>");
  ASSERT_TRUE(info.ok());
  auto nodes = (*db)->Compile("//x");
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(*(*nodes)->EvaluateNumber(info->root), 5);  // first node
  EXPECT_TRUE(*(*nodes)->EvaluateBoolean(info->root));
  auto scalar = (*db)->Compile("count(//x) * 2");
  ASSERT_TRUE(scalar.ok());
  EXPECT_EQ(*(*scalar)->EvaluateNumber(info->root), 4);
  EXPECT_TRUE(*(*scalar)->EvaluateBoolean(info->root));
  auto empty = (*db)->Compile("//zzz");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(*(*empty)->EvaluateBoolean(info->root));
  EXPECT_TRUE(std::isnan(*(*empty)->EvaluateNumber(info->root)));
}

TEST(DatabaseTest, ExplainShowsThePlan) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", "<r/>").ok());
  auto query = (*db)->Compile("//a[2]");
  ASSERT_TRUE(query.ok());
  const std::string& plan = (*query)->prepared().ExplainLogical();
  EXPECT_NE(plan.find("UnnestMap"), std::string::npos);
  EXPECT_NE(plan.find("Counter"), std::string::npos);
  EXPECT_NE(plan.find("Select"), std::string::npos);
}

}  // namespace
}  // namespace natix
