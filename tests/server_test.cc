// End-to-end tests of the natixd serving core (src/server): query
// endpoints over real sockets, the observability plane (/metrics,
// /statusz), per-request deadlines with early pipeline close, and
// admission control. One shared server (default options) covers the
// happy paths; the admission test builds its own tiny-queue server
// over the same database.
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/database.h"
#include "base/clock.h"
#include "gen/xdoc_generator.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "server/http.h"
#include "server/server.h"

namespace natix {
namespace {

constexpr char kBooksXml[] =
    "<catalog>"
    "<book id=\"b1\"><title>First</title><author>Ann</author>"
    "<price>10</price></book>"
    "<book id=\"b2\"><title>Second</title><author>Bob</author>"
    "<price>20</price></book>"
    "</catalog>";

// Axis navigation over the generated document with thousands of results
// (well under a millisecond of execution in a release build): long
// enough for an early abort to show in the drain and to keep an
// execution slot visibly occupied when re-issued back to back.
constexpr char kHeavyQuery[] = "/child::xdoc/desc::*/anc::*/desc::*/@id";

struct ServerFixture {
  std::unique_ptr<Database> db;
  storage::NodeId books_root;
  storage::NodeId xdoc_root;
  std::unique_ptr<server::Server> server;
};

std::unique_ptr<ServerFixture> MakeFixture() {
  auto f = std::make_unique<ServerFixture>();
  auto db = Database::CreateTemp();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  f->db = std::move(db).value();

  auto books = f->db->LoadDocument("books", kBooksXml);
  EXPECT_TRUE(books.ok()) << books.status().ToString();
  f->books_root = books->root;

  gen::XDocOptions options;
  options.max_elements = 2500;
  options.fanout = 6;
  options.depth = 5;
  auto xdoc = f->db->LoadDocument("xdoc", gen::GenerateXDoc(options));
  EXPECT_TRUE(xdoc.ok()) << xdoc.status().ToString();
  f->xdoc_root = xdoc->root;


  f->server = std::make_unique<server::Server>(f->db.get(),
                                               server::ServerOptions());
  Status started = f->server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  return f;
}

/// Owns the server shared by the tests below: started on first use (the
/// binary holds other suites that never need it) and shut down at global
/// tear-down, so no server thread outlives the test program.
class ServerEnvironment : public ::testing::Environment {
 public:
  ServerFixture& Get() {
    if (fixture_ == nullptr) fixture_ = MakeFixture();
    return *fixture_;
  }

  void TearDown() override {
    if (fixture_ == nullptr) return;
    fixture_->server->Shutdown();
    fixture_.reset();
  }

 private:
  std::unique_ptr<ServerFixture> fixture_;
};

ServerEnvironment* const kServerEnvironment =
    static_cast<ServerEnvironment*>(
        ::testing::AddGlobalTestEnvironment(new ServerEnvironment));

ServerFixture& Fixture() { return kServerEnvironment->Get(); }

std::string QueryTarget(const std::string& doc, const std::string& xpath,
                        const std::string& extra = "") {
  return "/query?doc=" + doc + "&q=" + server::UrlEncode(xpath) + extra;
}

TEST(ServerTest, HealthzOverKeepAliveConnection) {
  server::HttpClient client(Fixture().server->port());
  for (int i = 0; i < 2; ++i) {
    auto response = client.Get("/healthz");
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body, "ok\n");
  }
}

TEST(ServerTest, QueryStringValues) {
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get(QueryTarget("books", "//title"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->content_type, "application/json");
  EXPECT_NE(response->body.find("\"count\":2"), std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"results\":[\"First\",\"Second\"]"),
            std::string::npos)
      << response->body;
}

TEST(ServerTest, QueryXmlMode) {
  server::HttpClient client(Fixture().server->port());
  auto response =
      client.Get(QueryTarget("books", "//book[@id='b2']/title",
                             "&mode=xml"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("<title>Second</title>"),
            std::string::npos)
      << response->body;
}

TEST(ServerTest, QueryCountModeOmitsResults) {
  server::HttpClient client(Fixture().server->port());
  auto response =
      client.Get(QueryTarget("books", "//book", "&mode=count"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"count\":2"), std::string::npos);
  EXPECT_EQ(response->body.find("\"results\""), std::string::npos)
      << response->body;
}

TEST(ServerTest, ScalarQueryReturnsValue) {
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get(QueryTarget("books", "count(//book)"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"value\":\"2\""), std::string::npos)
      << response->body;
}

TEST(ServerTest, LimitCapsResultAndClosesPipelineEarly) {
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const uint64_t early_before = metrics.early_exits.value();
  server::HttpClient client(Fixture().server->port());
  auto response =
      client.Get(QueryTarget("xdoc", "//*/@id", "&limit=3&mode=values"));
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_NE(response->body.find("\"count\":3"), std::string::npos)
      << response->body;
#if !defined(NATIX_OBS_DISABLED)
  // The Limit operator reached its bound and closed the input pipeline;
  // the process-wide counter sees it even though the serving execution
  // runs uninstrumented.
  EXPECT_GT(metrics.early_exits.value(), early_before);
#else
  (void)early_before;
#endif
}

TEST(ServerTest, BadRequestsGetStructuredErrors) {
  server::HttpClient client(Fixture().server->port());

  auto missing = client.Get("/query?doc=books");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->status, 400);
  EXPECT_NE(missing->body.find("\"code\":\"InvalidArgument\""),
            std::string::npos);

  auto unknown_doc = client.Get(QueryTarget("nosuch", "//a"));
  ASSERT_TRUE(unknown_doc.ok());
  EXPECT_EQ(unknown_doc->status, 404);

  auto bad_xpath = client.Get(QueryTarget("books", "//["));
  ASSERT_TRUE(bad_xpath.ok());
  EXPECT_EQ(bad_xpath->status, 400);

  auto bad_mode = client.Get(QueryTarget("books", "//a", "&mode=wat"));
  ASSERT_TRUE(bad_mode.ok());
  EXPECT_EQ(bad_mode->status, 400);

  auto bad_endpoint = client.Get("/nosuch");
  ASSERT_TRUE(bad_endpoint.ok());
  EXPECT_EQ(bad_endpoint->status, 404);
  EXPECT_NE(bad_endpoint->body.find("\"code\":\"NotFound\""),
            std::string::npos);
}

TEST(ServerTest, MetricsEndpointServesExposition) {
  server::HttpClient client(Fixture().server->port());
  // At least one query first so the histograms are populated.
  auto warm = client.Get(QueryTarget("books", "//title"));
  ASSERT_TRUE(warm.ok());
  auto response = client.Get("/metrics");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
#if !defined(NATIX_OBS_DISABLED)
  EXPECT_EQ(response->content_type, obs::kPrometheusContentType);
  EXPECT_NE(response->body.find("# TYPE natix_exec_ns histogram"),
            std::string::npos);
  EXPECT_NE(response->body.find("natix_exec_ns_bucket{le=\""),
            std::string::npos);
  EXPECT_NE(response->body.find("natix_exec_ns_sum "), std::string::npos);
  EXPECT_NE(response->body.find("natix_exec_ns_count "),
            std::string::npos);
  EXPECT_NE(response->body.find("# TYPE natix_http_requests_total "
                                "counter"),
            std::string::npos);
  EXPECT_NE(response->body.find("# TYPE natix_queue_wait_ns histogram"),
            std::string::npos);
  EXPECT_NE(response->body.find("# TYPE natix_queue_depth gauge"),
            std::string::npos);
  EXPECT_NE(response->body.find("natix_buffer_resident_pages"),
            std::string::npos);
#else
  // The zero-cost configuration keeps the endpoint but serves the
  // explicit stub instead of empty exposition.
  EXPECT_EQ(response->content_type, "application/json");
  EXPECT_EQ(response->body, "{\"disabled\":true}");
#endif
}

TEST(ServerTest, StatuszReportsServerState) {
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get("/statusz");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->content_type, "application/json");
  EXPECT_NE(response->body.find("\"documents\":[\"books\",\"xdoc\"]"),
            std::string::npos)
      << response->body;
  EXPECT_NE(response->body.find("\"plan_cache\":{\"capacity\":"),
            std::string::npos);
  EXPECT_NE(response->body.find("\"buffer_pool\":{\"pages\":"),
            std::string::npos);
  EXPECT_NE(response->body.find("\"resident_pages\":"), std::string::npos);
  EXPECT_NE(response->body.find("\"admission\":{\"max_concurrency\":"),
            std::string::npos);
  EXPECT_NE(response->body.find("\"slow_queries\":["), std::string::npos);
}

// The deadline is checked only between drained results, so the query
// must still have results ahead well after 1 ms. This one evaluates its
// predicate path once per context node: in a release build the drain's
// first check comes about 8 ms in and the whole run takes ~0.35 s.
// kHeavyQuery finishes in under a millisecond and would race the
// deadline.
constexpr char kSlowFirstResultQuery[] =
    "/child::xdoc/descendant::*[ancestor::*/descendant::*/@id = '1']/@id";

TEST(ServerTest, DeadlineExceededRequestGets504) {
#if !defined(NATIX_OBS_DISABLED)
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const uint64_t deadline_before = metrics.deadline_exceeded.value();
#endif
  server::HttpClient client(Fixture().server->port());
  auto response = client.Get(QueryTarget("xdoc", kSlowFirstResultQuery,
                                         "&deadline_ms=1&mode=count"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504);
  EXPECT_NE(response->body.find("\"code\":\"DeadlineExceeded\""),
            std::string::npos)
      << response->body;
#if !defined(NATIX_OBS_DISABLED)
  EXPECT_GT(metrics.deadline_exceeded.value(), deadline_before);
#endif
}

// The deadline bounds the compile too: a predicate chain at the parser's
// bounds takes several milliseconds to prepare (about 5 ms in a release
// build), so a 1 ms budget is spent before execution could start, on a
// document where executing would cost next to nothing.
TEST(ServerTest, DeadlineCoversCompileTime) {
  std::string chain = "//a[@x = 1";
  for (int i = 2; i <= 125; ++i) chain += " or @x = " + std::to_string(i);
  chain += "]";
  ASSERT_GT(chain.size(), 1000u);
  auto one = Fixture().db->LoadDocument("one", "<a/>");
  ASSERT_TRUE(one.ok()) << one.status().ToString();
#if !defined(NATIX_OBS_DISABLED)
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const uint64_t deadline_before = metrics.deadline_exceeded.value();
  const uint64_t executed_before = metrics.queries_executed.value();
#endif
  server::HttpClient client(Fixture().server->port());
  auto response =
      client.Get(QueryTarget("one", chain, "&deadline_ms=1&mode=count"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504) << response->body.substr(0, 200);
  EXPECT_NE(response->body.find("\"code\":\"DeadlineExceeded\""),
            std::string::npos)
      << response->body.substr(0, 200);
#if !defined(NATIX_OBS_DISABLED)
  EXPECT_GT(metrics.deadline_exceeded.value(), deadline_before);
  EXPECT_EQ(metrics.queries_executed.value(), executed_before);
#endif
}

#if !defined(NATIX_OBS_DISABLED)
// The acceptance check behind the 504: an expired deadline doesn't just
// fail the request, it closes the iterator pipeline after the first
// drain-loop check instead of draining the plan to exhaustion.
TEST(ServerTest, DeadlineClosesPipelineEarly) {
  ServerFixture& f = Fixture();
  auto prepared = f.db->Prepare(kHeavyQuery);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();

  auto full = (*prepared)->NewExecution(/*collect_stats=*/true);
  ASSERT_TRUE(full.ok());
  auto full_nodes = (*full)->EvaluateNodes(f.xdoc_root);
  ASSERT_TRUE(full_nodes.ok()) << full_nodes.status().ToString();
  const uint64_t full_next = (*full)->Stats()->ComputeTotals().next_calls;
  ASSERT_GT(full_next, 0u);

  auto aborted = (*prepared)->NewExecution(/*collect_stats=*/true);
  ASSERT_TRUE(aborted.ok());
  // An absolute deadline in the distant past: Open and the first Next
  // still run (the checks live in the drain loop), then the first check
  // aborts and cascades Close() down the pipeline.
  (*aborted)->SetDeadlineNs(1);
  auto result = (*aborted)->EvaluateNodes(f.xdoc_root);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const uint64_t aborted_next =
      (*aborted)->Stats()->ComputeTotals().next_calls;
  // "Provably early": producing the first tuple costs a sliver of the
  // full drain. Factor 4 leaves headroom for plan-shape changes.
  EXPECT_LT(aborted_next * 4, full_next)
      << "aborted=" << aborted_next << " full=" << full_next;
}

TEST(ServerTest, CancelFlagAbortsExecution) {
  ServerFixture& f = Fixture();
  auto prepared = f.db->Prepare(kHeavyQuery);
  ASSERT_TRUE(prepared.ok());
  auto execution = (*prepared)->NewExecution();
  ASSERT_TRUE(execution.ok());
  std::atomic<bool> cancel{true};
  (*execution)->SetCancelFlag(&cancel);
  auto result = (*execution)->EvaluateNodes(f.xdoc_root);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}
#endif  // !NATIX_OBS_DISABLED

TEST(ServerTest, AdmissionRejectsWhenQueueIsFull) {
  ServerFixture& f = Fixture();
  server::ServerOptions options;
  options.max_concurrency = 1;
  options.queue_capacity = 0;
  server::Server small(f.db.get(), options);
  ASSERT_TRUE(small.Start().ok());

  // One busy thread re-issues the heavy query back-to-back over a
  // keep-alive connection, occupying the only execution slot almost
  // continuously; the probe's cheap query must then hit the full
  // (zero-capacity) queue and bounce with 503. Retried because a probe
  // can land in the sliver between two heavy executions. The busy
  // thread bounces the same way whenever the probe holds the slot.
  const std::string heavy =
      QueryTarget("xdoc", kHeavyQuery, "&mode=count");
  std::atomic<bool> stop{false};
  int busy_ok = 0;
  std::thread busy([&] {
    server::HttpClient client(small.port());
    while (!stop.load(std::memory_order_relaxed)) {
      auto response = client.Get(heavy);
      ASSERT_TRUE(response.ok());
      EXPECT_TRUE(response->status == 200 || response->status == 503)
          << response->status;
      if (response->status == 200) ++busy_ok;
    }
  });

  server::HttpClient probe(small.port());
  server::HttpResponse rejected;
  bool saw_rejection = false;
  for (int i = 0; i < 5000 && !saw_rejection; ++i) {
    auto response = probe.Get(QueryTarget("books", "//title"));
    if (!response.ok()) break;
    if (response->status == 503) {
      rejected = *response;
      saw_rejection = true;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  busy.join();

  ASSERT_TRUE(saw_rejection);
  // The probe only bounces while a busy request holds the slot, and that
  // request is served.
  EXPECT_GT(busy_ok, 0);
  EXPECT_NE(rejected.body.find("\"code\":\"ResourceExhausted\""),
            std::string::npos)
      << rejected.body;
#if !defined(NATIX_OBS_DISABLED)
  EXPECT_GT(obs::MetricsRegistry::Global().requests_rejected.value(), 0u);
#endif
  small.Shutdown();
}

/// The response body between the request id and the timing fields,
/// for byte comparison across requests.
std::string Payload(const std::string& body) {
  const size_t begin = body.find("\"doc\"");
  if (begin == std::string::npos) return body;
  return body.substr(begin, body.find(",\"elapsed_ns\"") - begin);
}

TEST(ServerTest, ConcurrentKeepAliveClientsAllSucceed) {
  // A mixed batch over both documents: scans, counts, aggregates,
  // positional pages and point lookups.
  const std::vector<std::string> targets = {
      QueryTarget("books", "//title"),
      QueryTarget("books", "count(//book)"),
      QueryTarget("books", "//book[@id='b2']/title", "&mode=xml"),
      QueryTarget("xdoc", "//*/@id", "&mode=count"),
      QueryTarget("xdoc", "//*/@id", "&limit=10&mode=values"),
      QueryTarget("xdoc", "/xdoc/n/n/@id", "&limit=1"),
  };
  const int port = Fixture().server->port();
  std::vector<std::string> golden;
  server::HttpClient sequential(port);
  for (const std::string& target : targets) {
    auto response = sequential.Get(target);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_EQ(response->status, 200) << target;
    golden.push_back(Payload(response->body));
  }
#if !defined(NATIX_OBS_DISABLED)
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  const uint64_t rejected_before = metrics.requests_rejected.value();
#endif

  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::HttpClient client(port);
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const size_t k = static_cast<size_t>(c + i) % targets.size();
        auto response = client.Get(targets[k]);
        if (!response.ok() || response->status != 200 ||
            Payload(response->body) != golden[k]) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(failures.load(), 0);
#if !defined(NATIX_OBS_DISABLED)
  // natix_requests_rejected_total stays flat: no request was shed.
  EXPECT_EQ(metrics.requests_rejected.value(), rejected_before);
#endif
}

TEST(ServerTest, DeepQueryGets400AndServerKeepsServing) {
  server::HttpClient client(Fixture().server->port());
  std::string nested_predicates = "/r";
  for (int i = 0; i < 2000; ++i) nested_predicates += "[a";
  nested_predicates += std::string(2000, ']');
  // Over the step bound, but short enough (about 1.2 KB encoded) to pass
  // the HTTP header limit and reach the parser.
  std::string long_path = "/r";
  for (int i = 0; i < 300; ++i) long_path += "/a";
  const struct {
    std::string query;
    const char* message;  // part of the parser's error text
  } cases[] = {
      {std::string(8000, '(') + "1" + std::string(8000, ')'),
       "nested deeper than"},
      {nested_predicates, "XPath parse error"},
      {long_path, "location steps"},
  };
  for (const auto& c : cases) {
    const std::string target = QueryTarget("books", c.query);
    ASSERT_LT(target.size(), 64u * 1024u);
    auto response = client.Get(target);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 400);
    EXPECT_NE(response->body.find("\"code\":\"InvalidArgument\""),
              std::string::npos)
        << response->body.substr(0, 200);
    EXPECT_NE(response->body.find(c.message), std::string::npos)
        << response->body.substr(0, 200);
  }
  auto healthz = client.Get("/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz->status, 200);
}

TEST(ServerTest, UrlCodecRoundTrips) {
  EXPECT_EQ(server::UrlDecode("a%20b+c"), "a b c");
  EXPECT_EQ(server::UrlDecode("%2F%2Fbook%5B%40id%3D%27b1%27%5D"),
            "//book[@id='b1']");
  const std::string raw = "//n[@id='x 1']/desc::*";
  EXPECT_EQ(server::UrlDecode(server::UrlEncode(raw)), raw);
}

}  // namespace
}  // namespace natix
