// adhoc-compile: a seeded stream of distinct XPath texts over the DBLP
// schema, each prepared (a plan-cache miss by construction) and executed
// once on a fixed 300-publication DBLP. The compile pipeline does most of the
// work and navigation very little, so compile and verifier changes show
// here and navigation changes should read flat.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <random>
#include <string>
#include <unordered_set>
#include <utility>

#include "gen/dblp_generator.h"
#include "harness.h"
#include "storage/buffer_manager.h"

namespace perfbench {

namespace {

const char* kPubs[] = {"article", "inproceedings", "book", "phdthesis", "*"};
const char* kFields[] = {"author", "title", "year", "pages",
                         "booktitle", "journal", "volume", "url"};
const char* kNames[] = {"Guido Moerkotte", "Sven Helmer", "Georg Gottlob",
                        "Torsten Grust", "Jennifer Widom", "Alon Halevy"};
const char* kWords[] = {"XML", "Query", "XPath", "Native", "Joins", "Storage"};

/// Random XPath texts over the DBLP schema: location paths with axes,
/// node tests and value / positional / count predicates, unions, and
/// scalar function calls. Every text is valid XPath 1.0 and, on a small
/// DBLP, cheap to execute next to its compile.
class QueryGen {
 public:
  explicit QueryGen(uint64_t seed) : rng_(seed) {}

  std::string Next() {
    const int shape = Uniform(0, 99);
    if (shape < 50) return Path();
    if (shape < 65) return Path() + " | " + Path();
    return Scalar();
  }

 private:
  int Uniform(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  template <size_t N>
  const char* Pick(const char* (&options)[N]) {
    return options[Uniform(0, static_cast<int>(N) - 1)];
  }
  std::string Num(int lo, int hi) { return std::to_string(Uniform(lo, hi)); }

  std::string PubPredicate() {
    switch (Uniform(0, 15)) {
      case 0: return "[year='" + Num(1980, 2004) + "']";
      case 1: return "[year > " + Num(1980, 2004) + "]";
      case 2: return "[year < " + Num(1980, 2004) + "]";
      case 3: return std::string("[author='") + Pick(kNames) + "']";
      case 4: return "[@key='conf/c" + Num(0, 4) + "/p" + Num(0, 299) + "']";
      case 5: return "[position() = " + Num(1, 40) + "]";
      case 6: return "[" + Num(1, 60) + "]";
      case 7: return "[position() < " + Num(2, 50) + "]";
      case 8: return "[last()]";
      case 9: return "[position() = last() - " + Num(0, 20) + "]";
      case 10: return "[count(author) = " + Num(1, 5) + "]";
      case 11: return "[count(author) > " + Num(1, 4) + "]";
      case 12: return std::string("[contains(title, '") + Pick(kWords) + "')]";
      case 13: return "[starts-with(@key, 'journals/j" + Num(0, 4) + "')]";
      case 14: return std::string("[not(") + Pick(kFields) + ")]";
      default:
        return std::string("[") + Pick(kFields) + " and year >= " +
               Num(1980, 2004) + "]";
    }
  }

  std::string FieldPredicate() {
    switch (Uniform(0, 4)) {
      case 0: return "[1]";
      case 1: return "[last()]";
      case 2: return std::string("[. = '") + Pick(kNames) + "']";
      case 3: return std::string("[contains(., '") + Pick(kWords) + "')]";
      default: return "[position() <= " + Num(1, 3) + "]";
    }
  }

  /// A path rooted at /dblp: a publication step with 0-2 predicates and
  /// up to two further steps below or beside it. Most publication steps
  /// first narrow to a short positional prefix (a pushed-down Limit), so
  /// the value predicates after it stay cheap to execute.
  std::string Path() {
    std::string out = "/dblp/";
    out += Pick(kPubs);
    if (Uniform(0, 9) < 8) out += "[position() <= " + Num(1, 30) + "]";
    for (int p = Uniform(0, 2); p > 0; --p) out += PubPredicate();
    switch (Uniform(0, 11)) {
      case 0: break;
      case 1: out += "/@key"; break;
      case 2: out += "/@mdate"; break;
      // Sibling axes start from one selected publication; from every
      // publication they would be quadratic in the document.
      case 3: out += "[" + Num(1, 40) + "]/following-sibling::" +
                     std::string(Pick(kPubs)) + "[" + Num(1, 5) + "]";
              break;
      case 4: out += "[last() - " + Num(0, 40) + "]/preceding-sibling::*[" +
                     Num(1, 5) + "]";
              break;
      case 5: out += "/descendant::author"; break;
      case 6: out += "/" + std::string(Pick(kFields)) + "/text()"; break;
      case 7: out += "/" + std::string(Pick(kFields)) + "/parent::*/@key";
              break;
      case 8: out += "/self::" + std::string(Pick(kPubs)) + "/title"; break;
      default:
        out += "/";
        out += Pick(kFields);
        if (Uniform(0, 1) == 0) out += FieldPredicate();
    }
    return out;
  }

  std::string Scalar() {
    switch (Uniform(0, 9)) {
      case 0: return "count(" + Path() + ")";
      case 1: return "sum(/dblp/article" + PubPredicate() + "/volume)";
      case 2: return "string(" + Path() + ")";
      case 3: return "boolean(" + Path() + ")";
      case 4: return "count(" + Path() + ") > " + Num(0, 50);
      case 5: return "string-length(string(" + Path() + "))";
      case 6: return "concat(string(" + Path() + "), '/', string(" + Path() +
                     "))";
      case 7: return "normalize-space(string(" + Path() + "))";
      case 8: return "substring(string(" + Path() + "), " + Num(1, 5) + ", " +
                     Num(1, 9) + ")";
      default: return "floor(sum(/dblp/*" + PubPredicate() + "/year) div " +
                      Num(2, 9) + ")";
    }
  }

  std::mt19937_64 rng_;
};

/// `count` distinct texts from the stream of `seed`.
std::vector<std::string> DistinctTexts(uint64_t seed, size_t count) {
  QueryGen gen(seed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> texts;
  texts.reserve(count);
  while (texts.size() < count) {
    std::string text = gen.Next();
    if (seen.insert(text).second) texts.push_back(std::move(text));
  }
  return texts;
}

// The clients walk the stream in order and wrap around (a 30 s window
// takes ~220k requests); a text recurs only 100k requests later, far
// beyond the 64-entry plan cache, so every request still misses it.
constexpr size_t kStreamTexts = 100000;
constexpr size_t kWarmupTexts = 300;
constexpr size_t kCountingTexts = 400;
// Fresh set-ups before the window (~0.03 s each); each interlude of the
// window adds one more.
constexpr int kSetups = 5;

// Concurrent closed-loop clients (~2300 requests per second each on a
// 4-vCPU VM). More than one, so that a run averages over the speeds of
// several virtual CPUs.
constexpr int kClients = 3;

}  // namespace

int RunAdhocCompile(const Args& args) {
  Report report(args);
  // The document is the same for every seed (so its store size repeats
  // exactly: at 300 publications one 8 KiB page is 2.5% of the store);
  // the seed drives the query stream.
  natix::gen::DblpOptions dblp;
  dblp.publications = 300;
  const std::vector<Corpus> corpora = {
      {"dblp", natix::gen::GenerateDblp(dblp)}};
  // The stream's last texts warm up, so the window's texts stay unseen.
  std::vector<std::string> texts =
      DistinctTexts(args.seed, kStreamTexts + kWarmupTexts);
  const std::vector<std::string> warmup(texts.end() - kWarmupTexts,
                                        texts.end());
  texts.resize(kStreamTexts);

  SampleBuffers buffers = MakeSampleBuffers(args, kClients, 5000);

  SpanLog setup_log("setup");
  setup_log.on = args.trace;
  SetupReport setup;
  const AfterLoad after_load = [](Instance*, SpanLog*) { return true; };
  std::unique_ptr<Instance> instance =
      FreshSetups(args, corpora, natix::Database::Options(), kSetups,
                  after_load, &setup_log, &setup);
  if (instance == nullptr) return 2;
  natix::Database* db = instance->db.get();
  const natix::storage::NodeId root = db->Root("dblp")->id();

  std::atomic<uint64_t> window_prepare_ns{0};
  auto run_text = [&](const std::string& text, bool collect_stats,
                      SpanLog* log, uint64_t seq, Sample* sample,
                      std::atomic<uint64_t>* prepare_time)
      -> ExecutionOr {
    natix::StatusOr<std::shared_ptr<const natix::PreparedQuery>> prepared =
        kNotRun;
    {
      SpanScope span(log, "api.Prepare", seq);
      const uint64_t t0 = NowNs();
      prepared = db->Prepare(text);
      if (prepare_time != nullptr) {
        prepare_time->fetch_add(NowNs() - t0, std::memory_order_relaxed);
      }
    }
    if (!prepared.ok()) return prepared.status();
    ExecutionOr exec = kNotRun;
    {
      SpanScope span(log, "api.NewExecution", seq);
      exec = (*prepared)->NewExecution(collect_stats);
    }
    if (!exec.ok()) return exec;
    const bool node_set =
        (*prepared)->result_type() == natix::xpath::ExprType::kNodeSet;
    sample->ok =
        EvaluateSig(exec->get(), node_set, root, &sample->sig, log, seq);
    sample->work = (*exec)->last_stats().step_tuples;
    return exec;
  };

  for (const std::string& text : warmup) {
    Sample sample;
    run_text(text, false, nullptr, 0, &sample, nullptr);
  }

  const natix::storage::BufferManager* pool = db->store()->buffer_manager();
  const auto pool_before = pool->Snapshot();
  const uint64_t cache_hits_before = db->plan_cache().hit_count();
  const uint64_t cache_misses_before = db->plan_cache().miss_count();
  ProgramTrace program_trace;
  Window window = RunWindow(
      args, std::move(buffers),
      [&](int, uint64_t seq, SpanLog* log, Sample* sample) {
        sample->item = static_cast<uint32_t>(seq % texts.size());
        run_text(texts[sample->item], false, log, seq, sample,
                 &window_prepare_ns);
      },
      &program_trace,
      [&] {
        return SideSetup(args, corpora, natix::Database::Options(),
                         after_load, &setup);
      });
  const auto pool_after = pool->Snapshot();
  const uint64_t cache_hits = db->plan_cache().hit_count() - cache_hits_before;
  const uint64_t cache_lookups =
      cache_hits + db->plan_cache().miss_count() - cache_misses_before;

  // Exact counts and per-operator self time over the stream's first texts.
  CountingPass(
      kCountingTexts, pool,
      [&](size_t i, bool collect_stats) {
        Sample sample;
        return run_text(texts[i], collect_stats, nullptr, 0, &sample, nullptr);
      },
      &report);

  // Oracle over every distinct text the window executed.
  size_t executed = 0;
  for (const Sample& s : window.samples) {
    executed = std::max<size_t>(executed, s.item + 1);
  }
  std::vector<OracleQuery> oracle_queries;
  oracle_queries.reserve(executed);
  for (size_t i = 0; i < executed; ++i) {
    oracle_queries.push_back({0, texts[i], OracleMode::kNodeRanks, 0});
  }
  std::vector<OracleAnswer> answers;
  std::vector<OracleDocInfo> doc_info;
  std::vector<uint64_t> table;
  if (!RunOracle({&corpora[0].xml}, oracle_queries, &answers, &doc_info) ||
      !RankTable(*db, "dblp", doc_info[0], &table)) {
    std::fprintf(stderr, "oracle failed\n");
    return 2;
  }
  std::vector<Sig> expected(executed);
  for (size_t i = 0; i < executed; ++i) {
    if (!answers[i].ok) continue;
    expected[i] = answers[i].node_set ? NodeIdSig(answers[i].ranks, table)
                                      : answers[i].sig;
  }
  const uint64_t correct = Grade(&window.samples, expected);
  int shown = 0;
  for (const Sample& s : window.samples) {
    if (!s.ok && ++shown <= 20) {
      std::fprintf(stderr, "wrong or failed result: %s\n",
                   texts[s.item].c_str());
    }
  }

  report.WindowMetrics(window, {"adhoc"});
  report.SetupMetrics(setup);
  report.Set("peak_rss_mb", ProgramPeakRssMb(setup, window));
  report.CompilePhases(program_trace.events());
  const size_t n = window.samples.size();
  report.PoolMetrics(pool_before, pool_after, n);

  uint64_t busy_ns = 0;
  for (const Sample& s : window.samples) busy_ns += s.latency_ns;
  const double prepare_share =
      busy_ns > 0 ? static_cast<double>(window_prepare_ns.load()) / busy_ns
                  : 0;
  const double hit_ratio =
      cache_lookups > 0 ? static_cast<double>(cache_hits) / cache_lookups : 0;
  report.Set("api.plan_cache_hit_ratio", hit_ratio);
  if (!args.trace) report.Set("api.prepare_share", prepare_share);
  report.Check(hit_ratio == 0, "plan-cache hit ratio is 0 (every text new)");
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "Prepare takes at least 0.7 of request time (%.3f)",
                prepare_share);
  report.Check(prepare_share >= 0.7, buf);
  WriteTrace(args, {&setup_log}, window);
  return report.Finish(n, n - correct);
}

}  // namespace perfbench
