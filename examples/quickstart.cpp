// Quickstart: load an XML document into a Natix store and run XPath
// queries through the algebraic pipeline.
//
//   ./example_quickstart
#include <cstdio>

#include "api/database.h"

int main() {
  // 1. Create a scratch database (use Database::Create(path) for a
  //    persistent one).
  auto db = natix::Database::CreateTemp();
  if (!db.ok()) {
    std::fprintf(stderr, "open failed: %s\n", db.status().ToString().c_str());
    return 1;
  }

  // 2. Load a document. The loader streams parser events straight into
  //    the page-based store; no DOM is built.
  const char* xml = R"(<library>
    <shelf topic="databases">
      <book id="k1"><title>Transaction Processing</title><copies>2</copies></book>
      <book id="k2"><title>Readings in Database Systems</title><copies>5</copies></book>
    </shelf>
    <shelf topic="compilers">
      <book id="k3"><title>The Dragon Book</title><copies>1</copies></book>
    </shelf>
  </library>)";
  if (auto info = (*db)->LoadDocument("library", xml); !info.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }

  // 3. Node-set queries return stored-node handles in document order.
  auto titles = (*db)->QueryNodes("library", "//book/title");
  if (!titles.ok()) return 1;
  std::printf("all titles:\n");
  for (const auto& title : *titles) {
    std::printf("  - %s\n", title.string_value()->c_str());
  }

  // 4. Predicates, axes, and functions work exactly as XPath 1.0
  //    specifies.
  auto scarce = (*db)->QueryNodes(
      "library", "//shelf[@topic='databases']/book[copies < 3]/title");
  std::printf("scarce database books:\n");
  for (const auto& title : *scarce) {
    std::printf("  - %s\n", title.string_value()->c_str());
  }

  // 5. Scalar queries produce atomic values.
  auto count = (*db)->QueryNumber("library", "count(//book)");
  auto total = (*db)->QueryNumber("library", "sum(//copies)");
  std::printf("%g books, %g copies in stock\n", *count, *total);

  // 6. Compile once, evaluate many times — with a different context node
  //    or different $variable bindings per run.
  auto query = (*db)->Compile("//book[@id = $which]/title");
  if (!query.ok()) return 1;
  for (const char* id : {"k1", "k3"}) {
    (*query)->SetVariable("which", natix::runtime::Value::String(id));
    auto root = (*db)->Root("library");
    auto result = (*query)->EvaluateNodes(root->id());
    std::printf("book %s: %s\n", id,
                result->empty()
                    ? "(none)"
                    : result->front().string_value()->c_str());
  }

  // 7. Inspect the translated algebra of a query.
  auto explain = (*db)->Compile("//book[position() = last()]");
  std::printf("\nlogical plan of //book[position() = last()]:\n%s",
              (*explain)->prepared().ExplainLogical().c_str());
  return 0;
}
