// Plan explorer: shows how the translator maps an XPath expression onto
// the algebra — canonical translation (Sec. 3) next to the improved one
// (Sec. 4) — and runs it against a generated document.
//
//   ./example_plan_explorer "<xpath>"
//   ./example_plan_explorer            (uses the Fig. 4 showcase query)
#include <cstdio>
#include <string>

#include "analysis/plan_verifier.h"
#include "api/database.h"
#include "gen/xdoc_generator.h"

int main(int argc, char** argv) {
  // The paper's Fig. 4 expression exercises nested paths and full
  // positional predicates at once.
  std::string query = argc > 1
                          ? argv[1]
                          : "/xdoc/n[n/n][position() = last()]/n";

  // Run every compiled plan through the static verifier so the explorer
  // demonstrates the verdict even in release builds.
  natix::analysis::SetVerificationEnabled(true);

  natix::gen::XDocOptions gen_options;
  gen_options.max_elements = 400;
  gen_options.fanout = 3;
  gen_options.depth = 5;
  auto db = natix::Database::CreateTemp();
  if (!db.ok()) return 1;
  auto info = (*db)->LoadDocument("xdoc", natix::gen::GenerateXDoc(gen_options));
  if (!info.ok()) return 1;

  std::printf("query: %s\n", query.c_str());

  auto canonical = (*db)->Compile(
      query, natix::translate::TranslatorOptions::Canonical());
  if (!canonical.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 canonical.status().ToString().c_str());
    return 1;
  }
  std::printf("\n=== canonical translation (Sec. 3) ===\n%s",
              (*canonical)->prepared().ExplainLogical().c_str());

  auto improved = (*db)->Compile(
      query, natix::translate::TranslatorOptions::Improved());
  if (!improved.ok()) return 1;
  std::printf("\n=== improved translation (Sec. 4) ===\n%s",
              (*improved)->prepared().ExplainLogical().c_str());
  std::printf("\n=== physical plan (register assignments) ===\n%s",
              (*improved)->prepared().ExplainPhysical().c_str());
  std::printf("\n=== static verification ===\ncanonical: %s\nimproved:  %s\n",
              (*canonical)->prepared().VerificationReport().c_str(),
              (*improved)->prepared().VerificationReport().c_str());

  if ((*improved)->prepared().result_type() ==
      natix::xpath::ExprType::kNodeSet) {
    auto canonical_nodes = (*canonical)->EvaluateNodes(info->root);
    auto improved_nodes = (*improved)->EvaluateNodes(info->root);
    if (canonical_nodes.ok() && improved_nodes.ok()) {
      std::printf("\nresults: canonical=%zu nodes, improved=%zu nodes%s\n",
                  canonical_nodes->size(), improved_nodes->size(),
                  canonical_nodes->size() == improved_nodes->size()
                      ? " (agree)"
                      : " (MISMATCH!)");
    }
  } else {
    auto value = (*improved)->EvaluateString(info->root);
    if (value.ok()) std::printf("\nresult: %s\n", value->c_str());
  }
  return 0;
}
