// Counter-asserted behavioral tests for the observability layer: the
// per-operator counters must prove the paper's evaluation techniques are
// actually firing — smart aggregation stops early (Sec. 5.2.5), Tmp^cs
// spools its input once (Sec. 5.2.4), and MemoX serves repeated d-join
// probes from its memo table (Sec. 4.2.2).

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "api/database.h"
#include "gen/xdoc_generator.h"
#include "obs/stats.h"

namespace natix {
namespace {

// Counter-asserted tests are meaningless when the instrumentation is
// compiled out; they skip instead of asserting on zeroes.
#if defined(NATIX_OBS_DISABLED)
#define NATIX_REQUIRE_OBS() \
  GTEST_SKIP() << "observability compiled out (NATIX_OBS=OFF)"
#else
#define NATIX_REQUIRE_OBS() (void)0
#endif

struct Fixture {
  std::unique_ptr<Database> db;
  storage::NodeId root;
};

Fixture Load(const std::string& xml) {
  Fixture f;
  auto db = Database::CreateTemp();
  EXPECT_TRUE(db.ok());
  f.db = std::move(db.value());
  auto info = f.db->LoadDocument("doc", xml);
  EXPECT_TRUE(info.ok());
  f.root = info->root;
  return f;
}

std::unique_ptr<PreparedQuery::Execution> CompileWithStats(
    Fixture& f, const std::string& query) {
  auto compiled = f.db->Compile(
      query, translate::TranslatorOptions::Improved(),
      /*collect_stats=*/true);
  EXPECT_TRUE(compiled.ok()) << compiled.status().ToString();
  return std::move(compiled.value());
}

TEST(ObsStatsTest, StatsAreOffByDefault) {
  Fixture f = Load("<xdoc><a/></xdoc>");
  auto compiled = f.db->Compile("/xdoc/a");
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ((*compiled)->Stats(), nullptr);
  EXPECT_EQ((*compiled)->ExplainAnalyze(), "");
  auto nodes = (*compiled)->EvaluateNodes(f.root);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 1u);
}

// Smart aggregation (Sec. 5.2.5): for a count(...[exists-predicate])
// query the existential probe must consume strictly fewer input tuples
// than the input cardinality — one b per a, not all nine. The predicate
// takes the descendant axis so it stays a nested plan; the single-step
// [b] is an NVM step loop (StepLoopStopsAtFirstMatch).
TEST(ObsStatsTest, SmartAggregationConsumesFewerTuplesThanInput) {
  NATIX_REQUIRE_OBS();
  Fixture f = Load(
      "<xdoc>"
      "<a><b/><b/><b/></a>"
      "<a><b/><b/><b/></a>"
      "<a><b/><b/><b/></a>"
      "</xdoc>");
  auto query = CompileWithStats(f, "count(/xdoc/a[descendant::b])");
  auto value = query->EvaluateNumber(f.root);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, 3.0);

  const obs::QueryStats* stats = query->Stats();
  ASSERT_NE(stats, nullptr);
  const obs::OpStats* exists = stats->FindOp("NestedAgg[exists]");
  ASSERT_NE(exists, nullptr) << stats->RenderAnalyze();
  EXPECT_TRUE(exists->nested);
  // One evaluation per a element; each stops after its first b.
  EXPECT_EQ(exists->agg_evals, 3u);
  EXPECT_EQ(exists->early_exits, 3u);
  EXPECT_EQ(exists->agg_input, 3u);
  const uint64_t input_cardinality = 9;  // b elements in the document
  EXPECT_LT(exists->agg_input, input_cardinality);
}

// The single-step predicate [b] runs as one NVM step loop per a, with no
// nested plan: it stops at the first b, and the b it reads counts as a
// step tuple exactly as the nested plan's unnest-map counted it.
TEST(ObsStatsTest, StepLoopStopsAtFirstMatch) {
  NATIX_REQUIRE_OBS();
  Fixture f = Load(
      "<xdoc>"
      "<a><b/><b/><b/></a>"
      "<a><b/><b/><b/></a>"
      "<a><b/><b/><b/></a>"
      "</xdoc>");
  for (const char* text : {"count(/xdoc/a[b])", "count(/xdoc/a[descendant::b])"}) {
    auto query = CompileWithStats(f, text);
    auto value = query->EvaluateNumber(f.root);
    ASSERT_TRUE(value.ok()) << text;
    EXPECT_EQ(*value, 3.0) << text;
    // xdoc, three a, and one b per a: 7, not the 13 a full scan reads.
    EXPECT_EQ(query->last_stats().step_tuples, 7u) << text;
  }
  auto loop = CompileWithStats(f, "count(/xdoc/a[b])");
  ASSERT_TRUE(loop->EvaluateNumber(f.root).ok());
  EXPECT_EQ(loop->Stats()->FindOp("NestedAgg[exists]"), nullptr)
      << loop->Stats()->RenderAnalyze();
  EXPECT_NE(loop->prepared().plan().nvm_listing().find("step_exists"),
            std::string::npos);
}

// Upsilon^D: the duplicate elimination after a ppd step (Sec. 4.1) is
// fused into the step, which prunes its walk by the seen-set and so
// makes one step tuple per result node instead of one per context. Exact
// step-tuple counts of Figs. 6-8 on the paper's generated documents; the
// comments give the counts of the step with a separate DupElim.
TEST(ObsStatsTest, FusedDedupStepPrunesItsWalk) {
  NATIX_REQUIRE_OBS();
  const struct {
    const char* query;
    gen::XDocOptions doc;
    uint64_t results;
    uint64_t step_tuples;
  } kPins[] = {
      // 97,531 step tuples unfused.
      {"/child::xdoc/descendant::*/ancestor::*/descendant::*/@id",
       {10000, 10, 5}, 9999, 30998},
      // 51,743 unfused.
      {"/child::xdoc/descendant::*/ancestor::*/ancestor::*/@id",
       {10000, 10, 5}, 100, 11200},
  };
  for (const auto& pin : kPins) {
    Fixture f = Load(gen::GenerateXDoc(pin.doc));
    auto query = CompileWithStats(f, pin.query);
    auto nodes = query->EvaluateNodes(f.root);
    ASSERT_TRUE(nodes.ok()) << pin.query;
    EXPECT_EQ(nodes->size(), pin.results) << pin.query;
    EXPECT_EQ(query->last_stats().step_tuples, pin.step_tuples)
        << pin.query << "\n" << query->Stats()->RenderAnalyze();
  }

  // Fig. 7 at 8,000 elements: the following::* step made 26,646,645
  // tuples for 7,994 distinct nodes; fused, it makes exactly those.
  Fixture f = Load(gen::GenerateXDoc({8000, 6, 5}));
  auto query = CompileWithStats(
      f, "/child::xdoc/descendant::*/preceding-sibling::*/following::*/@id");
  auto nodes = query->EvaluateNodes(f.root);
  ASSERT_TRUE(nodes.ok());
  const obs::OpStats* following =
      query->Stats()->FindOp("UnnestMap^D[c5 := c4/following::*]");
  ASSERT_NE(following, nullptr) << query->Stats()->RenderAnalyze();
  EXPECT_EQ(following->tuples, 7994u);
}

// Tmp^cs (Sec. 5.2.4): a last() predicate materializes the context
// sequence. The child pipeline must be consumed in a single pass —
// one Open — while every row is spooled once and replayed once.
TEST(ObsStatsTest, TmpCsSpoolsInputExactlyOnce) {
  NATIX_REQUIRE_OBS();
  Fixture f = Load(
      "<xdoc>"
      "<a><b/><b/><b/></a>"
      "<a><b/><b/></a>"
      "</xdoc>");
  auto query = CompileWithStats(f, "/xdoc/a/b[last()]");
  auto nodes = query->EvaluateNodes(f.root);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 2u);  // the last b of each a

  const obs::QueryStats* stats = query->Stats();
  ASSERT_NE(stats, nullptr);
  const obs::OpStats* tmp = stats->FindOp("TmpCs[");
  ASSERT_NE(tmp, nullptr) << stats->RenderAnalyze();
  EXPECT_EQ(tmp->open_calls, 1u);
  EXPECT_EQ(tmp->spooled_rows, 5u);   // every b spooled exactly once
  EXPECT_EQ(tmp->replayed_rows, 5u);  // and replayed with cs attached
  EXPECT_EQ(tmp->groups, 2u);         // one context per a (Tmp^cs_c)
  // Single-pass: the child pipeline under the materialization opened
  // exactly once even though two contexts were replayed.
  ASSERT_FALSE(tmp->children.empty());
  EXPECT_EQ(tmp->children[0]->open_calls, 1u);
}

// MemoX (Sec. 4.2.2): the Fig. 9 step shape — a child step whose input
// repeats through a parent step — as an inner path. Three b siblings
// share one a parent, so repeated d-join probes must hit the memo table
// instead of re-evaluating the dependent subplan.
TEST(ObsStatsTest, MemoXServesRepeatedProbesFromMemoTable) {
  NATIX_REQUIRE_OBS();
  Fixture f = Load(
      "<xdoc>"
      "<a><c/><b/><b/><b/></a>"
      "<a><b/><b/></a>"
      "</xdoc>");
  auto query = CompileWithStats(f, "/xdoc/a/b[count(parent::a/c) > 0]");
  auto nodes = query->EvaluateNodes(f.root);
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 3u);  // the three b's whose a has a c

  const obs::QueryStats* stats = query->Stats();
  ASSERT_NE(stats, nullptr);
  const obs::OpStats* memo = stats->FindOp("MemoX[");
  ASSERT_NE(memo, nullptr) << stats->RenderAnalyze();
  EXPECT_GT(memo->memo_hits, 0u);
  EXPECT_GT(memo->memo_misses, 0u);
  // Five probes (one per b), two distinct parent keys: three hits.
  EXPECT_EQ(memo->memo_hits + memo->memo_misses, memo->open_calls);
  EXPECT_EQ(memo->memo_misses, 2u);
  EXPECT_EQ(memo->memo_hits, 3u);
}

// Counters accumulate across evaluations; Reset() zeroes them while the
// tree (and rendering) survives.
TEST(ObsStatsTest, CountersAccumulateAcrossRunsAndReset) {
  Fixture f = Load("<xdoc><a/><a/></xdoc>");
  auto query = CompileWithStats(f, "/xdoc/a");

  ASSERT_TRUE(query->EvaluateNodes(f.root).ok());
  obs::StatsTotals once = query->Stats()->ComputeTotals();
  ASSERT_TRUE(query->EvaluateNodes(f.root).ok());
  obs::StatsTotals twice = query->Stats()->ComputeTotals();
  EXPECT_EQ(query->Stats()->executions(), 2u);
  EXPECT_EQ(twice.next_calls, 2 * once.next_calls);
  EXPECT_EQ(twice.tuples, 2 * once.tuples);

  query->MutableStats()->Reset();
  obs::StatsTotals zero = query->Stats()->ComputeTotals();
  EXPECT_EQ(zero.next_calls, 0u);
  EXPECT_EQ(zero.tuples, 0u);
  EXPECT_EQ(query->Stats()->executions(), 0u);
  EXPECT_NE(query->ExplainAnalyze(), "");  // structure survives

  ASSERT_TRUE(query->EvaluateNodes(f.root).ok());
  obs::StatsTotals again = query->Stats()->ComputeTotals();
  EXPECT_EQ(again.next_calls, once.next_calls);
}

// The query-level buffer section aggregates per-evaluation deltas; a
// query over a resident document sees pool hits, not faults.
TEST(ObsStatsTest, BufferDeltasFeedQueryTotals) {
  Fixture f = Load("<xdoc><a/><a/><a/></xdoc>");
  auto query = CompileWithStats(f, "/xdoc/a");
  ASSERT_TRUE(query->EvaluateNodes(f.root).ok());
  const obs::QueryStats* stats = query->Stats();
  EXPECT_GT(stats->buffer().page_hits, 0u);
  EXPECT_EQ(stats->buffer().page_reads, 0u);  // document is resident
}

// Exclusive time is derived as inclusive minus children, and timer
// granularity can make a child's inclusive time exceed its parent's.
// The subtraction must saturate at zero — never wrap to a huge unsigned
// value — both in the accessor and in the EXPLAIN ANALYZE rendering.
TEST(ObsStatsTest, ExclusiveTimeClampsAtZeroWhenChildExceedsParent) {
  obs::QueryStats stats;
  obs::OpStats* child = stats.NewOp("Child");
  child->inclusive_ns = 5000;
  child->inclusive_page_reads = 7;
  child->inclusive_page_hits = 9;
  obs::OpStats* parent = stats.NewOp("Parent");
  parent->inclusive_ns = 4000;  // less than the child: clamp territory
  parent->inclusive_page_reads = 3;
  parent->inclusive_page_hits = 2;
  parent->children.push_back(child);
  stats.set_root(parent);

  EXPECT_EQ(parent->exclusive_ns(), 0u);
  EXPECT_EQ(parent->exclusive_page_reads(), 0u);
  EXPECT_EQ(parent->exclusive_page_hits(), 0u);
  EXPECT_EQ(child->exclusive_ns(), 5000u);

  std::string rendered = stats.RenderAnalyze();
  EXPECT_NE(rendered.find("exclusive_ms=0.000"), std::string::npos)
      << rendered;
  EXPECT_EQ(rendered.find("exclusive_ms=-"), std::string::npos);
  // A wrapped subtraction would print astronomically many digits.
  EXPECT_EQ(rendered.find("000000000"), std::string::npos) << rendered;
}

// EXPLAIN ANALYZE and the JSON rendering carry the same counters.
TEST(ObsStatsTest, JsonRenderingMatchesTotals) {
  Fixture f = Load("<xdoc><a/></xdoc>");
  auto query = CompileWithStats(f, "/xdoc/a");
  ASSERT_TRUE(query->EvaluateNodes(f.root).ok());
  std::string json = query->Stats()->ToJson();
  EXPECT_NE(json.find("\"label\""), std::string::npos);
  EXPECT_NE(json.find("\"next\""), std::string::npos);
  EXPECT_NE(json.find("\"buffer\""), std::string::npos);
}

}  // namespace
}  // namespace natix
