// Figure 10 reproduction: the thirteen DBLP queries, run on a synthetic
// DBLP document (see gen/dblp_generator.h for the substitution of the
// real 216 MB dump), comparing the algebraic engine against the memoized
// main-memory interpreter (the Xalan stand-in).
//
// Each query runs NATIX_BENCH_REPS times (default 7) per system; the
// table shows medians and BENCH_fig10.json carries min/median/p95 plus
// the process-wide metrics snapshot of the whole run.
//
// Environment: NATIX_DBLP_PUBS overrides the document scale (default
// 50000 publications, ~11 MB of XML; the paper's document holds roughly
// 400k publications at 216 MB).
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "util.h"
#include "gen/dblp_generator.h"
#include "obs/metrics.h"

namespace {

struct Row {
  const char* query;
  size_t results;
  natix::benchutil::RepTimings interp;
  natix::benchutil::RepTimings natix;
  // The final-sort ablation (document-ordered results): "presort"
  // forces the final result sort — what every ordered evaluation paid
  // before property inference; "ordered" lets inference skip the sort
  // when the result stream is provably document-ordered already.
  natix::benchutil::RepTimings natix_presort;
  natix::benchutil::RepTimings natix_ordered;
  // The positional early-exit ablation (docs/LIMIT-PUSHDOWN.md):
  // "no_limit" compiles with the Limit pushdown off, so positional
  // rows drain the full article scan; the default run above ("natix",
  // re-emitted as "natix_limit") closes the pipeline after the k-th
  // binding. early_exits counts the Limit-triggered pipeline closes of
  // one instrumented evaluation (0 when no Limit fired).
  natix::benchutil::RepTimings natix_no_limit;
  uint64_t early_exits = 0;
};

natix::benchutil::RepTimings TimeOrdered(
    natix::benchutil::LoadedDocument& doc, const char* query,
    bool presort) {
  auto compiled = doc.db->Compile(query);
  NATIX_CHECK(compiled.ok());
  (*compiled)->SetForceResultSort(presort);
  return natix::benchutil::TimeRepeated(natix::benchutil::BenchReps(), [&] {
    auto nodes =
        (*compiled)->EvaluateNodes(doc.root, /*document_order=*/true);
    NATIX_CHECK(nodes.ok());
  });
}

void AppendReps(std::string* out, const char* prefix,
                const natix::benchutil::RepTimings& reps) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"%s_min_s\": %.6f, \"%s_median_s\": %.6f, "
                "\"%s_p95_s\": %.6f",
                prefix, reps.min_s, prefix, reps.median_s, prefix,
                reps.p95_s);
  *out += buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void WriteJson(uint64_t publications, const std::vector<Row>& rows) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"figure\": \"fig10\",\n  \"publications\": %llu,\n"
                "  \"reps\": %d,\n  \"rows\": [\n",
                static_cast<unsigned long long>(publications),
                natix::benchutil::BenchReps());
  std::string out = buf;
  for (size_t i = 0; i < rows.size(); ++i) {
    out += "    {\"query\": \"" + JsonEscape(rows[i].query) + "\", ";
    std::snprintf(buf, sizeof(buf), "\"results\": %zu,\n     ",
                  rows[i].results);
    out += buf;
    AppendReps(&out, "interp_memo", rows[i].interp);
    out += ",\n     ";
    AppendReps(&out, "natix", rows[i].natix);
    out += ",\n     ";
    AppendReps(&out, "natix_presort", rows[i].natix_presort);
    out += ",\n     ";
    AppendReps(&out, "natix_ordered", rows[i].natix_ordered);
    out += ",\n     ";
    // natix_limit aliases the default run: the pushdown is on unless
    // ablated, so the "natix" timings ARE the limit-on side.
    AppendReps(&out, "natix_limit", rows[i].natix);
    out += ",\n     ";
    AppendReps(&out, "natix_no_limit", rows[i].natix_no_limit);
    std::snprintf(buf, sizeof(buf), ", \"early_exits\": %llu",
                  static_cast<unsigned long long>(rows[i].early_exits));
    out += buf;
    out += "}";
    out += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  out += "  ],\n  \"metrics\": " +
         natix::obs::MetricsRegistry::Global().SnapshotJson() + "\n}\n";
  std::FILE* f = std::fopen("BENCH_fig10.json", "w");
  if (f == nullptr) return;  // read-only working dir: skip emission
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  std::printf("# wrote BENCH_fig10.json\n");
}

}  // namespace

int main() {
  uint64_t publications = 50000;
  if (const char* env = std::getenv("NATIX_DBLP_PUBS")) {
    publications = std::strtoull(env, nullptr, 10);
  }
  if (std::getenv("NATIX_BENCH_SMALL") != nullptr) publications = 5000;

  natix::gen::DblpOptions options;
  options.publications = publications;
  std::string xml = natix::gen::GenerateDblp(options);
  std::printf(
      "# fig10: DBLP queries on a synthetic document "
      "(%llu publications, %.1f MB, %d reps/query)\n",
      static_cast<unsigned long long>(publications), xml.size() / 1e6,
      natix::benchutil::BenchReps());

  natix::obs::MetricsRegistry::Global().Reset();
  natix::benchutil::LoadedDocument doc = natix::benchutil::LoadAll(xml);

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
      "/dblp/inproceedings[author='Guido Moerkotte']"
      "[position()=last()]/title",
  };

  const natix::translate::TranslatorOptions improved =
      natix::translate::TranslatorOptions::Improved();
  natix::translate::TranslatorOptions no_limit = improved;
  no_limit.limit_pushdown = false;
  std::vector<Row> rows;
  std::printf("%-64s %9s %10s %10s %10s %10s %10s %6s\n", "query",
              "results", "interp[s]", "natix[s]", "presort[s]",
              "ordered[s]", "nolimit[s]", "exits");
  for (const char* query : queries) {
    Row row;
    row.query = query;
    row.results = natix::benchutil::CountNatix(doc, query);
    row.interp =
        natix::benchutil::TimeInterpReps(doc, query, /*memoize=*/true);
    row.natix = natix::benchutil::TimeNatixRepsWith(doc, query, improved);
    row.natix_presort = TimeOrdered(doc, query, /*presort=*/true);
    row.natix_ordered = TimeOrdered(doc, query, /*presort=*/false);
    row.natix_no_limit =
        natix::benchutil::TimeNatixRepsWith(doc, query, no_limit);
    row.early_exits =
        natix::benchutil::TimeNatixWithStats(doc, query).totals.early_exits;
    std::printf("%-64s %9zu %10.4f %10.4f %10.4f %10.4f %10.4f %6llu\n",
                query, row.results, row.interp.median_s,
                row.natix.median_s, row.natix_presort.median_s,
                row.natix_ordered.median_s, row.natix_no_limit.median_s,
                static_cast<unsigned long long>(row.early_exits));
    std::fflush(stdout);
    rows.push_back(row);
  }
  WriteJson(publications, rows);
  return 0;
}
