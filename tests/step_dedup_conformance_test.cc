// Conformance of the fused step Upsilon^D: a DupElim directly over a
// descendant, descendant-or-self, ancestor, ancestor-or-self, following,
// following-sibling or preceding-sibling step lowers to one UnnestMap^D
// node that prunes its walk by its seen-set (runtime::AxisPrunesByDedup).
// The matrix runs each of those axes with a name test, `*` and node()
// over overlapping contexts — nested descendants, sibling runs, attribute
// contexts — and pins how many fused nodes each physical plan holds.
// The no-fire cases pin the shapes that keep DupElim a node of its own:
// preceding, parent and child steps, a Select or Counter between the
// step and the DupElim, the d-join chains of inner (predicate) paths and
// the canonical translation. Every result is cross-checked against
// interp::Evaluator on two documents loaded into one store, through one
// execution that is re-opened for each.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix {
namespace {

// Nested a/b chains (descendant contexts inside each other), sibling
// runs of mixed names, text, attributes on every element.
constexpr char kDocA[] =
    "<r id='r'>"
    "<a id='a1'><b id='b1'><a id='a2'><b id='b2'/><c id='c1'/>"
    "<b id='b3'>t1</b></a></b><c id='c2'/></a>"
    "<a id='a3'><c id='c3'/><b id='b4'/><c id='c4'><b id='b5'/></c>"
    "<b id='b6'/></a>"
    "<c id='c5'><a id='a4'><b id='b7'>t2</b></a><a id='a5'/></c>"
    "</r>";

// A deep single chain (ancestor walks overlap on every level) next to a
// wide run of siblings.
constexpr char kDocB[] =
    "<r id='s'>"
    "<a id='x1'><a id='x2'><a id='x3'><b id='y1'/><c id='y2'/></a></a>"
    "<b id='y3'><a id='x4'/></b></a>"
    "<b id='y4'/><c id='y5'/><b id='y6'/><a id='x5'>t3</a><c id='y7'/>"
    "</r>";

struct Case {
  const char* query;
  /// UnnestMap^D nodes the improved translation's physical plan holds.
  int fused;
};

const Case kMatrix[] = {
    // descendant: nested a's walk into each other's subtrees.
    {"//a/descendant::b", 1},
    {"//a/descendant::*", 1},
    {"//a/descendant::node()", 1},
    // Contexts out of document order (an ancestor step's output): an
    // outer context's walk meets the subtree of an inner one walked
    // before and must skip it, not stop there.
    {"//b/ancestor::*/descendant::*", 2},
    {"//b/ancestor::*/descendant-or-self::node()", 2},
    // descendant-or-self: the contexts are results of each other.
    {"//a/descendant-or-self::b", 1},
    {"//*/descendant-or-self::*", 1},
    {"//a/descendant-or-self::node()", 1},
    // ancestor and ancestor-or-self: sibling and nested contexts share
    // their ancestors.
    {"//b/ancestor::a", 1},
    {"//b/ancestor::*", 1},
    {"//node()/ancestor::node()", 1},
    {"//b/ancestor-or-self::a", 1},
    {"//*/ancestor-or-self::*", 1},
    {"//text()/ancestor-or-self::node()", 1},
    // following: every later context's walk is a suffix of an earlier.
    {"//b/following::c", 1},
    {"//a/following::*", 1},
    {"//*/following::node()", 1},
    // The sibling axes over sibling runs.
    {"//*/following-sibling::b", 1},
    {"//c/following-sibling::*", 1},
    {"//node()/following-sibling::node()", 1},
    {"//*/preceding-sibling::c", 1},
    {"//b/preceding-sibling::*", 1},
    {"//node()/preceding-sibling::node()", 1},
    // Attribute contexts: ancestors and following start at the owner
    // element; the sibling and descendant walks of an attribute are
    // empty, descendant-or-self is the attribute itself. Mixed with
    // element contexts through a union.
    {"//@id/ancestor::*", 1},
    {"//@id/ancestor-or-self::node()", 1},
    {"//@id/following::b", 1},
    {"(//a | //@id)/descendant-or-self::node()", 1},
    {"(//@id | //a)/descendant::b", 1},
    {"(//@id | //b)/following-sibling::*", 1},
    {"(//@id | //c)/preceding-sibling::node()", 1},
    // Attribute contexts alone are not nested, so these steps need no
    // DupElim, or are empty and folded away.
    {"//@*/descendant-or-self::node()", 0},
    {"//@id/descendant::node()", 0},
    {"//@id/following-sibling::*", 0},
    // Chains of fused steps: the Figs. 6-8 shapes and longer ones.
    {"/r/descendant::*/ancestor::*/descendant::*/@id", 2},
    {"/r/descendant::*/preceding-sibling::*/following::*/@id", 2},
    {"/r/descendant::*/ancestor::*/ancestor::*/@id", 2},
    {"//b/ancestor::a/descendant::c/following-sibling::*", 3},
    {"//c/preceding-sibling::*/descendant-or-self::b/ancestor::*", 3},
    // Predicates around a fused step: their nested plans run on its
    // input or its output.
    {"//b[ancestor::c]/ancestor::a", 1},
    {"//a[descendant::b/ancestor::c]/descendant::*", 1},
    {"//b/ancestor::*/self::*[following-sibling::c]", 1},
    {"count(//b/ancestor::*[b])", 0},
    // No fire: preceding, parent and child keep a separate DupElim (or
    // none at all).
    {"//b/preceding::c", 0},
    {"//b/preceding::*", 0},
    {"//@id/preceding::node()", 0},
    {"//b/parent::*", 0},
    {"//@id/parent::*", 0},
    {"//a/child::b", 0},
    {"(//a | //b)/child::*", 0},
    // No fire: a Select or a Counter between the step and its DupElim.
    {"//b/ancestor::*[@id]", 0},
    {"//b/ancestor::*[2]", 0},
    {"//c/following::*[position() < 3]", 0},
    // No fire: an inner path is a d-join chain, its DupElim sits on the
    // DJoin.
    {"//a[descendant::b/ancestor::c]", 0},
    {"//a[count(descendant::*/following-sibling::*) > 2]", 0},
};

int CountFused(const std::string& physical) {
  int count = 0;
  for (size_t at = physical.find("UnnestMap^D");
       at != std::string::npos; at = physical.find("UnnestMap^D", at + 1)) {
    ++count;
  }
  return count;
}

std::string RenderInterp(const interp::Object& v) {
  std::string out = "nodes:";
  if (v.kind == interp::Object::Kind::kNumber) {
    return "num: " + std::to_string(v.number);
  }
  if (v.kind != interp::Object::Kind::kNodeSet) return "unexpected";
  for (const dom::Node* n : v.nodes) out += " " + std::to_string(n->order);
  return out;
}

/// Renders the engine's result like RenderInterp. The store numbers
/// document order across all its documents; `base` is the order key of
/// the document's root, which the interpreter numbers 0.
StatusOr<std::string> RenderAlgebraic(PreparedQuery::Execution* exec,
                                      storage::NodeId root, uint64_t base) {
  if (exec->prepared().result_type() == xpath::ExprType::kNumber) {
    NATIX_ASSIGN_OR_RETURN(double number, exec->EvaluateNumber(root));
    return "num: " + std::to_string(number);
  }
  NATIX_ASSIGN_OR_RETURN(std::vector<storage::StoredNode> nodes,
                         exec->EvaluateNodes(root));
  std::string out = "nodes:";
  for (const storage::StoredNode& n : nodes) {
    NATIX_ASSIGN_OR_RETURN(uint64_t order, n.order());
    out += " " + std::to_string(order - base);
  }
  return out;
}

TEST(StepDedupConformanceTest, MatrixAgreesWithInterpreterAndPinsFusion) {
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  struct Doc {
    storage::NodeId root;
    uint64_t base;
    std::unique_ptr<dom::Document> dom;
  };
  std::vector<Doc> docs;
  for (const char* xml : {kDocA, kDocB}) {
    const std::string name = "doc" + std::to_string(docs.size());
    auto info = (*db)->LoadDocument(name, xml);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    auto root = (*db)->Root(name);
    ASSERT_TRUE(root.ok());
    auto base = root->order();
    ASSERT_TRUE(base.ok());
    auto dom_doc = dom::ParseDocument(xml);
    ASSERT_TRUE(dom_doc.ok());
    docs.push_back({info->root, *base, std::move(dom_doc.value())});
  }

  for (const Case& c : kMatrix) {
    for (const auto& [options, fused] :
         {std::pair{translate::TranslatorOptions::Improved(), c.fused},
          std::pair{translate::TranslatorOptions::Canonical(), 0}}) {
      auto exec = (*db)->Compile(c.query, options);
      ASSERT_TRUE(exec.ok()) << c.query << ": " << exec.status().ToString();
      const std::string& physical = (*exec)->prepared().ExplainPhysical();
      EXPECT_EQ(CountFused(physical), fused) << c.query << "\n" << physical;
      // One execution, re-opened on each document: the seen-sets must
      // not carry over.
      for (int round = 0; round < 2; ++round) {
        for (const Doc& doc : docs) {
          auto expected = interp::Evaluator::Run(
              doc.dom.get(), c.query, doc.dom->root(),
              interp::EvaluatorOptions());
          ASSERT_TRUE(expected.ok()) << c.query;
          auto actual = RenderAlgebraic(exec->get(), doc.root, doc.base);
          ASSERT_TRUE(actual.ok())
              << c.query << ": " << actual.status().ToString();
          EXPECT_EQ(*actual, RenderInterp(*expected))
              << c.query << "\n" << physical;
        }
      }
    }
  }
}

}  // namespace
}  // namespace natix
