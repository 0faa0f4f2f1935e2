// serve-mix: natixd's server::Server on loopback under 4 keep-alive
// clients in a closed loop (max_concurrency 4). The store holds a 20k
// publication DBLP plus the auction and xdoc corpora behind a 1024-page
// pool, about 3x smaller than the store. Mostly point and page lookups
// (limit=1 / limit=10, values and xml mode) that stay on the documents'
// hot front pages, with a few percent of value-predicate lookups and
// scans/aggregations that sweep the whole DBLP and so fault and evict.
// Covers the serving path, plan-cache hits, shard contention and the
// fault/eviction path.
#include <cstdio>
#include <string>
#include <utility>

#include "gen/auction_generator.h"
#include "gen/dblp_generator.h"
#include "gen/xdoc_generator.h"
#include "harness.h"
#include "server/http.h"
#include "server/server.h"
#include "storage/buffer_manager.h"

namespace perfbench {

namespace {

enum Class : uint32_t { kPoint, kPage, kLookup, kScan };
const std::vector<std::string> kClassNames = {"point", "page", "lookup",
                                              "scan"};

struct Target {
  Class cls;
  size_t doc;  // index into the corpora: dblp, auction, xdoc
  std::string xpath;
  uint64_t limit;    // 0 = unlimited
  const char* mode;  // values | xml | count
  uint32_t weight;   // copies in a 200-request deck
};

const char* kDocNames[] = {"dblp", "auction", "xdoc"};

// Fresh set-ups before the window (~0.4 s each); each interlude of the
// window adds one more.
constexpr int kSetups = 3;

// Per deck of 200 requests: 148 points, 42 pages, 4 lookups, 6 scans.
// p50 then falls well inside the point class and p99 inside the scan
// class (the slowest, 3% of requests), away from the gaps between them.
std::vector<Target> Targets() {
  return {
      {kPoint, 0, "/dblp/article/title", 1, "values", 30},
      {kPoint, 0, "/dblp/inproceedings/@key", 1, "values", 30},
      {kPoint, 0, "/dblp/*[position() = 7]/author", 1, "xml", 22},
      {kPoint, 1, "/site/people/person/name", 1, "xml", 22},
      {kPoint, 1, "/site/items/item/reserve", 1, "values", 22},
      {kPoint, 2, "/xdoc/n/n/@id", 1, "values", 22},
      {kPage, 0, "/dblp/article/title", 10, "values", 12},
      {kPage, 0, "/dblp/*/@key", 10, "xml", 10},
      {kPage, 1, "/site/people/person", 10, "xml", 10},
      {kPage, 2, "/xdoc/n/n/n", 10, "values", 10},
      {kLookup, 0, "/dblp/inproceedings[@key='conf/er/LockemannM91']/title",
       0, "values", 2},
      {kLookup, 1, "/site/people/person[@id='person1777']/name", 0, "xml",
       2},
      {kScan, 0, "count(/dblp/*/author)", 0, "values", 2},
      {kScan, 0, "/dblp/article[year='1991']/title", 0, "count", 2},
      {kScan, 0, "sum(/dblp/article/volume)", 0, "values", 2},
  };
}

std::string TargetUrl(const Target& t) {
  std::string url = std::string("/query?doc=") + kDocNames[t.doc] +
                    "&q=" + natix::server::UrlEncode(t.xpath) +
                    "&mode=" + t.mode;
  if (t.limit > 0) url += "&limit=" + std::to_string(t.limit);
  return url;
}

OracleMode ModeOf(const Target& t) {
  const std::string mode = t.mode;
  if (mode == "xml") return OracleMode::kXml;
  if (mode == "count") return OracleMode::kCount;
  return OracleMode::kValues;
}

/// Body length without the digits that vary between identical requests
/// (request id, elapsed time, page faults).
uint64_t StableBodyBytes(const std::string& body) {
  uint64_t bytes = body.size();
  for (const char* key : {"\"id\":", "\"elapsed_ns\":", "\"page_faults\":"}) {
    size_t at = body.find(key);
    if (at == std::string::npos) continue;
    for (size_t i = at + std::string(key).size();
         i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i) {
      --bytes;
    }
  }
  return bytes;
}

/// Sum and count of a Prometheus histogram in a /metrics exposition.
bool HistogramSumCount(const std::string& text, const std::string& name,
                       double* sum, double* count) {
  for (auto [suffix, out] : {std::pair{"_sum ", sum}, {"_count ", count}}) {
    const std::string key = "\n" + name + suffix;
    size_t at = text.find(key);
    if (at == std::string::npos) return false;
    *out = std::strtod(text.c_str() + at + key.size(), nullptr);
  }
  return true;
}

}  // namespace

int RunServeMix(const Args& args) {
  Report report(args);
  natix::gen::DblpOptions dblp;
  dblp.publications = 20000;
  dblp.seed = static_cast<uint32_t>(args.seed * 2654435761u + 3);
  natix::gen::AuctionOptions auction;
  auction.people = 2000;
  auction.items = 3000;
  auction.auctions = 2000;
  auction.seed = static_cast<uint32_t>(args.seed * 40503u + 5);
  natix::gen::XDocOptions xdoc;
  xdoc.max_elements = 10000;
  xdoc.fanout = 10;
  xdoc.depth = 5;
  const std::vector<Corpus> corpora = {
      {"dblp", natix::gen::GenerateDblp(dblp)},
      {"auction", natix::gen::GenerateAuctionSite(auction)},
      {"xdoc", natix::gen::GenerateXDoc(xdoc)}};

  const std::vector<Target> targets = Targets();
  std::vector<std::string> urls;
  std::vector<uint32_t> weights;
  for (const Target& t : targets) {
    urls.push_back(TargetUrl(t));
    weights.push_back(t.weight);
  }
  const std::vector<uint16_t> order =
      DeckSequence(weights, args.seed, 1 << 18);
  const std::vector<uint16_t> deck(order.begin(), order.begin() + 200);

  natix::Database::Options db_options;
  db_options.buffer_pages = 1024;
  natix::server::ServerOptions server_options;
  server_options.max_concurrency = 4;
  server_options.queue_capacity = 16;

  // Four clients; ~400 requests per second each on a 4-vCPU VM.
  SampleBuffers buffers = MakeSampleBuffers(args, 4, 2000);

  // Set-up: create, load three documents, prepare every target's plan
  // (the server's Prepare then hits the plan cache), start the server.
  const AfterLoad after_load = [&](Instance* inst, SpanLog* log) {
    for (const Target& t : targets) {
      natix::translate::TranslatorOptions options;
      options.result_limit = t.limit;
      SpanScope span(log, "api.Prepare");
      auto prepared = inst->db->Prepare(t.xpath, options);
      if (!prepared.ok()) {
        std::fprintf(stderr, "prepare %s: %s\n", t.xpath.c_str(),
                     prepared.status().ToString().c_str());
        return false;
      }
      inst->plans.push_back(*prepared);
    }
    inst->server = std::make_unique<natix::server::Server>(inst->db.get(),
                                                           server_options);
    SpanScope span(log, "server.Start");
    natix::Status started = inst->server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start: %s\n", started.ToString().c_str());
    }
    return started.ok();
  };
  SpanLog setup_log("setup");
  setup_log.on = args.trace;
  ProgramTrace program_trace;
  program_trace.Poll(args.trace);
  SetupReport setup;
  std::unique_ptr<Instance> instance = FreshSetups(
      args, corpora, db_options, kSetups, after_load, &setup_log, &setup);
  program_trace.Poll(false);
  if (instance == nullptr) return 2;
  natix::Database* db = instance->db.get();
  const auto& plans = instance->plans;
  const int port = instance->server->port();

  SpanLog scrape_log("scrape");
  scrape_log.on = args.trace;
  auto scrape = [&](double* exec_sum, double* exec_count, double* queue_sum,
                    double* queue_count) {
    natix::server::HttpClient client(port);
    SpanScope span(&scrape_log, "http.GET /metrics");
    auto response = client.Get("/metrics");
    return response.ok() && response->status == 200 &&
           HistogramSumCount(response->body, "natix_exec_ns", exec_sum,
                             exec_count) &&
           HistogramSumCount(response->body, "natix_queue_wait_ns", queue_sum,
                             queue_count);
  };

  // Warm-up: every target once over one connection.
  {
    natix::server::HttpClient client(port);
    for (const std::string& url : urls) client.Get(url);
  }

  std::vector<std::unique_ptr<natix::server::HttpClient>> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(std::make_unique<natix::server::HttpClient>(port));
    clients.back()->Get("/healthz");  // connect before the window
  }
  std::vector<uint64_t> rejected(4, 0);

  double exec_sum0 = 0, exec_count0 = 0, queue_sum0 = 0, queue_count0 = 0;
  double exec_sum1 = 0, exec_count1 = 0, queue_sum1 = 0, queue_count1 = 0;
  if (!scrape(&exec_sum0, &exec_count0, &queue_sum0, &queue_count0)) {
    std::fprintf(stderr, "metrics scrape failed\n");
    return 2;
  }
  const natix::storage::BufferManager* pool = db->store()->buffer_manager();
  const auto pool_before = pool->Snapshot();
  const uint64_t cache_hits_before = db->plan_cache().hit_count();
  const uint64_t cache_misses_before = db->plan_cache().miss_count();
  Window window = RunWindow(
      args, std::move(buffers),
      [&](int c, uint64_t seq, SpanLog* log, Sample* sample) {
        const uint32_t t = order[seq % order.size()];
        sample->cls = targets[t].cls;
        sample->item = t;
        natix::StatusOr<natix::server::HttpResponse> response = kNotRun;
        {
          SpanScope span(log, "http.GET /query", seq);
          response = clients[c]->Get(urls[t]);
        }
        if (!response.ok()) return;
        if (response->status == 503 || response->status == 504) {
          ++rejected[c];
        }
        if (response->status != 200) return;
        SpanScope span(log, "bench.check", seq);
        sample->ok =
            ParseQueryBody(response->body, &sample->sig, &sample->work);
      },
      &program_trace,
      [&] { return SideSetup(args, corpora, db_options, after_load, &setup); });
  const auto pool_after = pool->Snapshot();
  const uint64_t cache_hits = db->plan_cache().hit_count() - cache_hits_before;
  const uint64_t cache_lookups =
      cache_hits + db->plan_cache().miss_count() - cache_misses_before;
  if (!scrape(&exec_sum1, &exec_count1, &queue_sum1, &queue_count1)) {
    std::fprintf(stderr, "metrics scrape failed\n");
    return 2;
  }

  // Exact response size over one pass of the deck.
  uint64_t stable_bytes = 0;
  {
    natix::server::HttpClient client(port);
    for (uint32_t t : deck) {
      auto response = client.Get(urls[t]);
      if (response.ok()) stable_bytes += StableBodyBytes(response->body);
    }
  }
  report.Set("server.response_bytes_per_request",
             static_cast<double>(stable_bytes) / deck.size());

  // Exact counts and per-operator self time, in process over the same
  // plans, one pass of the deck.
  CountingPass(
      deck.size(), pool,
      [&](size_t i, bool collect_stats) -> ExecutionOr {
        const Target& target = targets[deck[i]];
        const natix::PreparedQuery& plan = *plans[deck[i]];
        ExecutionOr exec = plan.NewExecution(collect_stats);
        if (!exec.ok()) return exec;
        Sig sig;
        EvaluateSig(exec->get(),
                    plan.result_type() == natix::xpath::ExprType::kNodeSet,
                    db->Root(kDocNames[target.doc])->id(), &sig, nullptr, 0);
        return exec;
      },
      &report);

  clients.clear();
  instance->server->Shutdown();  // stop the server before the oracle forks

  std::vector<OracleQuery> oracle_queries;
  for (const Target& t : targets) {
    oracle_queries.push_back({t.doc, t.xpath, ModeOf(t), t.limit});
  }
  std::vector<OracleAnswer> answers;
  std::vector<OracleDocInfo> doc_info;
  if (!RunOracle({&corpora[0].xml, &corpora[1].xml, &corpora[2].xml},
                 oracle_queries, &answers, &doc_info)) {
    std::fprintf(stderr, "oracle failed\n");
    return 2;
  }
  std::vector<Sig> expected(targets.size());
  for (size_t t = 0; t < targets.size(); ++t) {
    if (answers[t].ok) expected[t] = answers[t].sig;
  }
  const uint64_t correct = Grade(&window.samples, expected);

  report.WindowMetrics(window, kClassNames);
  report.CompilePhases(program_trace.events());
  report.SetupMetrics(setup);
  report.Set("peak_rss_mb", ProgramPeakRssMb(setup, window));
  for (const std::string& name : kClassNames) {
    report.Set("serve." + name + "_p50_ms", report.ClassP50Ms(name));
  }

  const size_t n = window.samples.size();
  uint64_t rejected_total = 0, client_ns = 0;
  for (uint64_t r : rejected) rejected_total += r;
  for (const Sample& s : window.samples) client_ns += s.latency_ns;
  const double exec_mean =
      exec_count1 > exec_count0
          ? (exec_sum1 - exec_sum0) / (exec_count1 - exec_count0)
          : 0;
  const double queue_mean =
      queue_count1 > queue_count0
          ? (queue_sum1 - queue_sum0) / (queue_count1 - queue_count0)
          : 0;
  report.Set("server.exec_ns_mean", exec_mean);
  report.Set("server.queue_wait_ns_mean", queue_mean);
  report.Set("server.overhead_ns_mean",
             static_cast<double>(client_ns) / n - exec_mean - queue_mean);
  report.Set("server.rejected_ratio", static_cast<double>(rejected_total) / n);
  report.Set("api.plan_cache_hit_ratio",
             cache_lookups > 0
                 ? static_cast<double>(cache_hits) / cache_lookups
                 : 0);
  report.PoolMetrics(pool_before, pool_after, n);

  uint64_t scans = 0, scans_without_fault = 0;
  for (const Sample& s : window.samples) {
    if (s.cls != kScan) continue;
    ++scans;
    if (s.work == 0) ++scans_without_fault;
  }
  report.Check(scans > 0 && scans_without_fault == 0,
               "every scan faults at least one page (" +
                   std::to_string(scans) + " scans, " +
                   std::to_string(scans_without_fault) + " without a fault)");
  report.Check(rejected_total == 0,
               "no 503/504 responses (" + std::to_string(rejected_total) +
                   ")");

  WriteTrace(args, {&setup_log, &scrape_log}, window);
  return report.Finish(n, n - correct);
}

}  // namespace perfbench
