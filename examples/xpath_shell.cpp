// Interactive XPath shell: load one or more XML files into a store and
// query them from a prompt. Demonstrates the full public API surface:
// loading, compiled-query reuse, plan explain, result serialization.
//
//   ./example_xpath_shell file.xml [more.xml ...]
//   ./example_xpath_shell                (loads a built-in demo document)
//
// Commands at the prompt:
//   <xpath>            evaluate against the first document
//   \doc <name>        switch the context document
//   \explain <xpath>   show the translated logical algebra
//   \canonical <xpath> show the canonical (Sec. 3) translation instead
//   \docs              list loaded documents
//   \quit
#include <cstdio>
#include <iostream>
#include <string>

#include "api/database.h"
#include "xml/writer.h"

namespace {

const char* kDemo = R"(<menu>
  <dish kind="starter" price="6"><name>Soup</name></dish>
  <dish kind="main" price="14"><name>Risotto</name><veggie/></dish>
  <dish kind="main" price="19"><name>Steak</name></dish>
  <dish kind="dessert" price="7"><name>Tiramisu</name><veggie/></dish>
</menu>)";

void Evaluate(natix::Database& db, const std::string& doc,
              const std::string& query) {
  auto root = db.Root(doc);
  if (!root.ok()) {
    std::printf("error: %s\n", root.status().ToString().c_str());
    return;
  }
  auto compiled = db.Compile(query);
  if (!compiled.ok()) {
    std::printf("error: %s\n", compiled.status().ToString().c_str());
    return;
  }
  if ((*compiled)->prepared().result_type() ==
      natix::xpath::ExprType::kNodeSet) {
    auto nodes = (*compiled)->EvaluateNodes(root->id());
    if (!nodes.ok()) {
      std::printf("error: %s\n", nodes.status().ToString().c_str());
      return;
    }
    std::printf("%zu node(s):\n", nodes->size());
    size_t shown = 0;
    for (const auto& node : *nodes) {
      if (++shown > 20) {
        std::printf("  ... (%zu more)\n", nodes->size() - 20);
        break;
      }
      auto xml = natix::xml::OuterXml(node);
      std::string rendered = xml.ok() ? *xml : "<?>";
      if (rendered.size() > 100) rendered = rendered.substr(0, 97) + "...";
      std::printf("  %s\n", rendered.c_str());
    }
  } else {
    auto value = (*compiled)->EvaluateString(root->id());
    if (!value.ok()) {
      std::printf("error: %s\n", value.status().ToString().c_str());
      return;
    }
    std::printf("= %s\n", value->c_str());
  }
}

void Explain(natix::Database& db, const std::string& query,
             bool canonical) {
  auto compiled = db.Compile(
      query, canonical ? natix::translate::TranslatorOptions::Canonical()
                       : natix::translate::TranslatorOptions::Improved());
  if (!compiled.ok()) {
    std::printf("error: %s\n", compiled.status().ToString().c_str());
    return;
  }
  std::printf("%s", (*compiled)->prepared().ExplainLogical().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  auto db = natix::Database::CreateTemp();
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }

  std::string current;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      std::string path = argv[i];
      auto slash = path.find_last_of('/');
      std::string name =
          slash == std::string::npos ? path : path.substr(slash + 1);
      auto info = (*db)->LoadDocumentFile(name, path);
      if (!info.ok()) {
        std::fprintf(stderr, "loading %s: %s\n", path.c_str(),
                     info.status().ToString().c_str());
        return 1;
      }
      std::printf("loaded '%s' (%llu nodes)\n", name.c_str(),
                  static_cast<unsigned long long>(info->node_count));
      if (current.empty()) current = name;
    }
  } else {
    auto info = (*db)->LoadDocument("demo", kDemo);
    if (!info.ok()) return 1;
    current = "demo";
    std::printf("no file given; loaded built-in 'demo' document\n");
  }

  std::printf("XPath shell — \\quit to exit, \\explain <q> for plans\n");
  std::string line;
  while (true) {
    std::printf("%s> ", current.c_str());
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (line.empty()) continue;
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\docs") {
      for (const auto& doc : (*db)->store()->documents()) {
        std::printf("  %s (%llu nodes)\n", doc.name.c_str(),
                    static_cast<unsigned long long>(doc.node_count));
      }
      continue;
    }
    if (line.rfind("\\doc ", 0) == 0) {
      std::string name = line.substr(5);
      if ((*db)->store()->FindDocument(name).ok()) {
        current = name;
      } else {
        std::printf("no such document '%s'\n", name.c_str());
      }
      continue;
    }
    if (line.rfind("\\explain ", 0) == 0) {
      Explain(**db, line.substr(9), /*canonical=*/false);
      continue;
    }
    if (line.rfind("\\canonical ", 0) == 0) {
      Explain(**db, line.substr(11), /*canonical=*/true);
      continue;
    }
    Evaluate(**db, current, line);
  }
  return 0;
}
