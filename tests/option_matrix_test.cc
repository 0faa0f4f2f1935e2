// Every combination of the Sec. 4 translation switches must produce the
// same results — the improvements are performance rewrites, never
// semantic ones. Runs a query corpus under all 2^5 option combinations
// and requires agreement with the all-off (canonical) baseline.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/database.h"
#include "obs/lock_ledger.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/trace.h"
#include "server/server.h"

namespace natix {
namespace {

constexpr char kDoc[] =
    "<r><a i='1'><b/><b><c/></b></a><a i='2'><b><c/><c/></b></a>"
    "<a i='3'/>t<a i='4'><b/><b/><b/></a></r>";
// (note: intentionally includes nesting, text, repeated names)

const char* kQueries[] = {
    "//b",
    "//a/b/c",
    "//c/ancestor::a/@i",
    "//b[1]",
    "//b[last()]",
    "//a[b][2]/@i",
    "//a[count(b) > 1]/@i",
    "//a[b/c]/@i",
    "(//b)[3]",
    "(//b/ancestor::a)[last()]/@i",
    "//a[.//c and @i != '9']/@i",
    "count(//a[descendant::c]/following::b)",
    "sum(//@i)",
};

TEST(OptionMatrixTest, AllCombinationsAgree) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("d", kDoc);
  ASSERT_TRUE(info.ok()) << info.status().ToString();

  for (const char* query : kQueries) {
    std::vector<std::string> results;
    for (int mask = 0; mask < 32; ++mask) {
      translate::TranslatorOptions options;
      options.stacked_outer_paths = (mask & 1) != 0;
      options.push_duplicate_elimination = (mask & 2) != 0;
      options.memoize_inner_paths = (mask & 4) != 0;
      options.split_expensive_predicates = (mask & 8) != 0;
      options.simplify_plan = (mask & 16) != 0;
      auto compiled = (*db)->Compile(query, options);
      ASSERT_TRUE(compiled.ok())
          << query << " mask=" << mask << ": "
          << compiled.status().ToString();
      std::string rendered;
      if ((*compiled)->prepared().result_type() == xpath::ExprType::kNodeSet) {
        auto nodes = (*compiled)->EvaluateNodes(info->root);
        ASSERT_TRUE(nodes.ok()) << query << " mask=" << mask;
        for (const auto& node : *nodes) {
          rendered += std::to_string(*node.order()) + " ";
        }
      } else {
        auto value = (*compiled)->EvaluateString(info->root);
        ASSERT_TRUE(value.ok()) << query << " mask=" << mask;
        rendered = *value;
      }
      results.push_back(std::move(rendered));
    }
    for (size_t i = 1; i < results.size(); ++i) {
      EXPECT_EQ(results[i], results[0])
          << query << " diverges at option mask " << i;
    }
  }
}

// The observability surface (tracer, metrics registry, slow-query log)
// is config-agnostic at call sites: the same code compiles under
// NATIX_OBS=ON and =OFF, where every instrument becomes an inline
// no-op. This test runs in both CI configurations.
TEST(OptionMatrixTest, ObservabilitySurfaceWorksInBothBuildConfigs) {
  obs::Tracer::Global().Start();
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("d", kDoc);
  ASSERT_TRUE(info.ok());
  auto nodes = (*db)->QueryNodes("d", "//b");
  ASSERT_TRUE(nodes.ok());
  EXPECT_EQ(nodes->size(), 6u);
  {
    obs::ScopedSpan named("test/span");
    obs::ScopedSpan detailed("test/span", "payload");
  }
  std::string json = Database::StopTrace();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.exec_ns.Record(5);
  metrics.queries_executed.Add();
  EXPECT_FALSE(metrics.SnapshotJson().empty());
  EXPECT_FALSE(metrics.RenderText().empty());
#if defined(NATIX_OBS_DISABLED)
  // Every instrument must have compiled to nothing.
  EXPECT_EQ(obs::MonotonicNowNs(), 0u);
  EXPECT_EQ(metrics.exec_ns.count(), 0u);
  EXPECT_EQ(metrics.queries_executed.value(), 0u);
  EXPECT_FALSE(metrics.slow_log().ShouldLog(~uint64_t{0}));
  EXPECT_NE(metrics.RenderText().find("disabled"), std::string::npos);
  obs::Tracer::Global().Start();
  EXPECT_TRUE(obs::Tracer::Global().Stop().empty());
#else
  EXPECT_GT(obs::MonotonicNowNs(), 0u);
  EXPECT_GE(metrics.exec_ns.count(), 1u);
#endif
}

// The serving-plane additions obey the same discipline: gauges, the
// admission/deadline counters, the queue-wait histogram and the
// Prometheus renderer all compile and behave in both configurations.
TEST(OptionMatrixTest, ServingObservabilitySurfaceWorksInBothConfigs) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.queue_depth.Add(2);
  metrics.queue_depth.Sub(1);
  metrics.requests_in_flight.Set(3);
  metrics.http_requests.Add();
  metrics.requests_rejected.Add();
  metrics.deadline_exceeded.Add();
  metrics.queries_cancelled.Add();
  metrics.queue_wait_ns.Record(1500);

  const std::string exposition = obs::RenderPrometheus(metrics);
#if defined(NATIX_OBS_DISABLED)
  EXPECT_EQ(exposition, "{\"disabled\":true}");
  EXPECT_EQ(metrics.queue_depth.value(), 0);
  EXPECT_EQ(metrics.http_requests.value(), 0u);
  EXPECT_EQ(metrics.queue_wait_ns.count(), 0u);
#else
  EXPECT_EQ(metrics.queue_depth.value(), 1);
  EXPECT_EQ(metrics.requests_in_flight.value(), 3);
  EXPECT_GE(metrics.http_requests.value(), 1u);
  EXPECT_GE(metrics.queue_wait_ns.count(), 1u);
  EXPECT_NE(exposition.find("natix_queue_wait_ns_bucket"),
            std::string::npos);
  EXPECT_NE(exposition.find("natix_deadline_exceeded_total"),
            std::string::npos);
  // A gauge forced negative by a racy Sub clamps at zero for rendering.
  obs::GaugeCell gauge;
  gauge.Sub(5);
  EXPECT_EQ(gauge.value(), 0);
  metrics.requests_in_flight.Set(0);
  metrics.queue_depth.Set(0);
#endif

  // The in-process renderings behind /metrics and /statusz work without
  // a socket in either config.
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", kDoc).ok());
  server::Server server(db->get(), server::ServerOptions());
  const std::string rendered = server.RenderMetrics();
  EXPECT_FALSE(rendered.empty());
#if defined(NATIX_OBS_DISABLED)
  EXPECT_EQ(rendered, "{\"disabled\":true}");
#else
  EXPECT_NE(rendered.find("natix_uptime_seconds"), std::string::npos);
#endif
  EXPECT_NE(server.RenderStatus().find("\"documents\":[\"d\"]"),
            std::string::npos);
}

// The Layer-4 static analyses (resource verifier, lock-order ledger)
// compile cleanly and keep their surfaces with observability off —
// analysis is a compiler concern, not an obs feature; only the ledger's
// runtime recording is obs-gated.
TEST(OptionMatrixTest, StaticAnalysisSurfaceWorksInBothConfigs) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->LoadDocument("d", kDoc).ok());
  auto compiled = (*db)->Compile("//a/b/c");
  ASSERT_TRUE(compiled.ok());
  // Verification (including the Layer-4 resource pass) ran or was
  // skipped per build mode, never rejected a compiler-produced plan.
  EXPECT_FALSE((*compiled)->prepared().VerificationReport().empty());

  // The lock ledger keeps its surface in both configs; under
  // NATIX_OBS_DISABLED it is a no-op.
  obs::LockLedger& ledger = obs::LockLedger::Global();
  const std::string graph = ledger.GraphJson();
  EXPECT_EQ(graph.front(), '{');
#if defined(NATIX_OBS_DISABLED)
  EXPECT_EQ(graph, "{\"disabled\":true}");
#else
  EXPECT_NE(graph.find("\"mode\":"), std::string::npos);
#endif
  EXPECT_FALSE(ledger.HasCycle() && ledger.Cycles().empty());
  EXPECT_NE(server::Server(db->get(), server::ServerOptions())
                .RenderStatus()
                .find("\"lock_ledger\":{"),
            std::string::npos);
}

}  // namespace
}  // namespace natix
