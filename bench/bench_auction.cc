// id()-join workload (supporting experiment): the XMark-flavored auction
// document exercises the id() dereference operator and the lazily built
// id indexes — a query class the paper's Fig. 5/10 workloads do not
// cover. Compared against the memoized interpreter baseline.
#include <cstdio>
#include <cstdlib>

#include "util.h"
#include "gen/auction_generator.h"

int main() {
  natix::gen::AuctionOptions options;
  bool small = std::getenv("NATIX_BENCH_SMALL") != nullptr;
  options.people = small ? 500 : 5000;
  options.items = small ? 1000 : 10000;
  options.auctions = small ? 800 : 8000;

  natix::benchutil::LoadedDocument doc =
      natix::benchutil::LoadAll(natix::gen::GenerateAuctionSite(options));

  const char* queries[] = {
      "//auction[id(@item)/@category = 'books']",
      "//bid[id(@person)/city = 'Mannheim']",
      "//auction[not(id(@seller)/income)]",
      "//auction[id(@item)/reserve < bid[last()]/amount]",
      "count(//auction[id(@seller)/city = id(@item)/../../"
      "people/person[1]/city])",
      "sum(//auction[id(@item)/@category='art']/closed/final)",
  };

  std::printf(
      "# auction id()-join workload (%llu people, %llu items, %llu "
      "auctions)\n",
      static_cast<unsigned long long>(options.people),
      static_cast<unsigned long long>(options.items),
      static_cast<unsigned long long>(options.auctions));
  std::printf("%-64s %9s %10s %10s\n", "query", "results", "interp[s]",
              "natix[s]");
  for (const char* query : queries) {
    size_t results = 0;
    auto compiled = doc.db->Compile(query);
    NATIX_CHECK(compiled.ok());
    if ((*compiled)->prepared().result_type() ==
        natix::xpath::ExprType::kNodeSet) {
      auto nodes = (*compiled)->EvaluateNodes(doc.root, false);
      NATIX_CHECK(nodes.ok());
      results = nodes->size();
    }
    double interp = natix::benchutil::TimeInterp(doc, query, true);
    double natix = natix::benchutil::TimeNatix(doc, query);
    std::printf("%-64s %9zu %10.4f %10.4f\n", query, results, interp,
                natix);
    std::fflush(stdout);
  }
  return 0;
}
