// paper-hot: the paper's own queries on buffer-resident documents. Figs.
// 6, 8 and 9 run on a generated xdoc (10k elements, fanout 10), the 13
// Fig. 10 rows on a synthetic DBLP of 5k publications. Plans are prepared
// at set-up and every request instantiates one Execution, so executor,
// navigation and buffer hits do the work; compile and I/O do none.
// Fig. 7 is left out: its quadratic following::* costs ~1.6 s per
// request at 8000 elements and would starve the sample count.
#include <cstdio>
#include <utility>

#include "gen/dblp_generator.h"
#include "gen/xdoc_generator.h"
#include "harness.h"

namespace perfbench {

namespace {

struct PaperQuery {
  const char* name;
  size_t doc;  // 0 = xdoc, 1 = dblp
  const char* xpath;
};

// Each query is one request class of equal weight. p50 then falls among
// the Fig. 10 bulk-scan rows (a dense band of ~2-3 ms classes) and p99
// inside the Fig. 6 class, the slowest, which holds 1/16 of the requests.
const PaperQuery kQueries[] = {
    {"fig6", 0, "/child::xdoc/descendant::*/ancestor::*/descendant::*/@id"},
    {"fig8", 0, "/child::xdoc/descendant::*/ancestor::*/ancestor::*/@id"},
    {"fig9", 0, "/child::xdoc/child::*/parent::*/descendant::*/@id"},
    {"fig10.article_title", 1, "/dblp/article/title"},
    {"fig10.any_title", 1, "/dblp/*/title"},
    {"fig10.pos3", 1, "/dblp/article[position() = 3]/title"},
    {"fig10.pos_lt_100", 1, "/dblp/article[position() < 100]/title"},
    {"fig10.pos_last", 1, "/dblp/article[position() = last()]/title"},
    {"fig10.pos_last_minus_10", 1,
     "/dblp/article[position()=last()-10]/title"},
    {"fig10.union", 1, "/dblp/article/title | /dblp/inproceedings/title"},
    {"fig10.count_author", 1, "/dblp/article[count(author)=4]/@key"},
    {"fig10.article_year", 1, "/dblp/article[year='1991']/@key"},
    {"fig10.inproc_year", 1, "/dblp/inproceedings[year='1991']/@key"},
    {"fig10.author", 1, "/dblp/*[author='Guido Moerkotte']/@key"},
    {"fig10.key", 1,
     "/dblp/inproceedings[@key='conf/er/LockemannM91']/title"},
    {"fig10.author_last", 1,
     "/dblp/inproceedings[author='Guido Moerkotte'][position()=last()]/title"},
};
constexpr size_t kQueryCount = std::size(kQueries);

// Fresh set-ups before the window (~0.1 s each); each interlude of the
// window adds one more.
constexpr int kSetups = 5;

// Concurrent closed-loop clients on the shared plans and store (~160
// requests per second each on a 4-vCPU VM). More than one, so that a
// run averages over the speeds of several virtual CPUs.
constexpr int kClients = 3;

}  // namespace

int RunPaperHot(const Args& args) {
  Report report(args);
  natix::gen::XDocOptions xdoc;
  xdoc.max_elements = 10000;
  xdoc.fanout = 10;
  xdoc.depth = 5;
  natix::gen::DblpOptions dblp;
  dblp.publications = 5000;
  dblp.seed = static_cast<uint32_t>(args.seed * 2654435761u + 1);
  const std::vector<Corpus> corpora = {
      {"xdoc", natix::gen::GenerateXDoc(xdoc)},
      {"dblp", natix::gen::GenerateDblp(dblp)}};

  // Every block of 16 requests runs each query once, in a seeded order.
  const std::vector<uint16_t> order =
      DeckSequence(std::vector<uint32_t>(kQueryCount, 1), args.seed, 1 << 18);
  const std::vector<uint16_t> deck(order.begin(), order.begin() + kQueryCount);

  SampleBuffers buffers = MakeSampleBuffers(args, kClients, 2000);

  // Set-up: create, load both documents, prepare the 16 plans.
  const AfterLoad after_load = [](Instance* inst, SpanLog* log) {
    for (const PaperQuery& q : kQueries) {
      SpanScope span(log, "api.Prepare");
      auto prepared = inst->db->Prepare(q.xpath);
      if (!prepared.ok()) {
        std::fprintf(stderr, "prepare %s: %s\n", q.name,
                     prepared.status().ToString().c_str());
        return false;
      }
      inst->plans.push_back(*prepared);
    }
    return true;
  };
  SpanLog setup_log("setup");
  setup_log.on = args.trace;
  ProgramTrace program_trace;
  program_trace.Poll(args.trace);
  SetupReport setup;
  std::unique_ptr<Instance> instance =
      FreshSetups(args, corpora, natix::Database::Options(), kSetups,
                  after_load, &setup_log, &setup);
  program_trace.Poll(false);
  if (instance == nullptr) return 2;
  natix::Database* db = instance->db.get();
  const auto& plans = instance->plans;
  const natix::storage::NodeId roots[2] = {db->Root("xdoc")->id(),
                                           db->Root("dblp")->id()};
  std::vector<bool> node_set(kQueryCount);
  for (size_t q = 0; q < kQueryCount; ++q) {
    node_set[q] = plans[q]->result_type() == natix::xpath::ExprType::kNodeSet;
  }

  auto run_once = [&](uint32_t q, bool collect_stats, SpanLog* log,
                      uint64_t seq, Sample* sample) {
    ExecutionOr exec = kNotRun;
    {
      SpanScope span(log, "api.NewExecution", seq);
      exec = plans[q]->NewExecution(collect_stats);
    }
    sample->cls = q;
    sample->item = q;
    sample->ok = exec.ok() && EvaluateSig(exec->get(), node_set[q],
                                          roots[kQueries[q].doc],
                                          &sample->sig, log, seq);
    if (exec.ok()) sample->work = (*exec)->last_stats().step_tuples;
    return exec;
  };

  // Warm-up: one untimed pass over the deck.
  for (uint32_t q : deck) {
    Sample sample;
    run_once(q, false, nullptr, 0, &sample);
  }

  const natix::storage::BufferManager* pool = db->store()->buffer_manager();
  const auto pool_before = pool->Snapshot();
  Window window = RunWindow(
      args, std::move(buffers),
      [&](int, uint64_t seq, SpanLog* log, Sample* sample) {
        run_once(order[seq % order.size()], false, log, seq, sample);
      },
      &program_trace,
      [&] {
        return SideSetup(args, corpora, natix::Database::Options(),
                         after_load, &setup);
      });
  const auto pool_after = pool->Snapshot();

  CountingPass(
      deck.size(), pool,
      [&](size_t i, bool collect_stats) {
        Sample sample;
        return run_once(deck[i], collect_stats, nullptr, 0, &sample);
      },
      &report);

  // Oracle, out of process and after every timed window.
  std::vector<OracleQuery> oracle_queries;
  for (const PaperQuery& q : kQueries) {
    oracle_queries.push_back({q.doc, q.xpath, OracleMode::kNodeRanks, 0});
  }
  std::vector<OracleAnswer> answers;
  std::vector<OracleDocInfo> doc_info;
  std::vector<uint64_t> tables[2];
  if (!RunOracle({&corpora[0].xml, &corpora[1].xml}, oracle_queries,
                 &answers, &doc_info) ||
      !RankTable(*db, "xdoc", doc_info[0], &tables[0]) ||
      !RankTable(*db, "dblp", doc_info[1], &tables[1])) {
    std::fprintf(stderr, "oracle failed\n");
    return 2;
  }
  std::vector<Sig> expected(kQueryCount);
  for (size_t q = 0; q < kQueryCount; ++q) {
    const OracleAnswer& a = answers[q];
    if (!a.ok || a.node_set != node_set[q]) continue;  // never matches
    expected[q] = a.node_set ? NodeIdSig(a.ranks, tables[kQueries[q].doc])
                             : a.sig;
  }
  const uint64_t correct = Grade(&window.samples, expected);

  std::vector<std::string> class_names;
  for (const PaperQuery& q : kQueries) class_names.push_back(q.name);
  report.WindowMetrics(window, class_names);
  report.CompilePhases(program_trace.events());
  report.SetupMetrics(setup);
  report.Set("peak_rss_mb", ProgramPeakRssMb(setup, window));
  const size_t n = window.samples.size();
  report.Check(report.PoolMetrics(pool_before, pool_after, n) == 1.0,
               "buffer hit ratio is 1 in the window (every page resident)");
  WriteTrace(args, {&setup_log}, window);
  return report.Finish(n, n - correct);
}

}  // namespace perfbench
