#include "runtime/node_ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/database.h"
#include "dom/dom.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"
#include "storage/document_loader.h"
#include "storage/stored_node.h"

namespace natix::runtime {
namespace {

using dom::Node;
using dom::NodeKind;

/// Test fixture loading the same XML both into the page-based store and
/// into a DOM, so every axis result from AxisCursor can be verified
/// against an independently computed reference. Node identity is matched
/// through document-order ranks, which both loaders assign identically
/// (element, then its attributes, then its children).
class AxisConformance {
 public:
  explicit AxisConformance(const std::string& xml) {
    storage::NodeStore::Options options;
    options.buffer_pages = 64;
    auto store = storage::NodeStore::CreateTemp(options);
    NATIX_CHECK(store.ok());
    store_ = std::move(store.value());
    auto info = storage::LoadDocument(store_.get(), "doc", xml);
    NATIX_CHECK(info.ok());
    root_id_ = info->root;

    auto doc = dom::ParseDocument(xml);
    NATIX_CHECK(doc.ok());
    doc_ = std::move(doc.value());

    IndexDom(doc_->root());
    IndexStore(root_id_);
    NATIX_CHECK(dom_by_order_.size() == store_by_order_.size());
  }

  /// All document-order ranks, ascending.
  std::vector<uint64_t> AllOrders() const {
    std::vector<uint64_t> out;
    for (const auto& [order, node] : dom_by_order_) out.push_back(order);
    return out;
  }

  const Node* DomNode(uint64_t order) const {
    return dom_by_order_.at(order);
  }
  const dom::Document* dom() const { return doc_.get(); }
  /// The dictionary id of `name`, or kInvalidNameId.
  uint32_t NameId(const std::string& name) const {
    return store_->names()->Lookup(name);
  }
  storage::NodeId StoreNode(uint64_t order) const {
    return store_by_order_.at(order);
  }

  /// Runs the cursor and returns the produced order ranks (in cursor
  /// order). `skip_children`, when set, is asked after each produced node
  /// whether the walk should skip that node's subtree.
  std::vector<uint64_t> RunCursor(
      Axis axis, const NodeTest& test, uint64_t context_order,
      bool reverse = false,
      const std::function<bool(uint64_t)>& skip_children = nullptr) const {
    storage::NodeAccessor nodes(store_.get());
    AxisCursor cursor(&nodes);
    NATIX_CHECK(
        cursor.Open(axis, test, StoreNode(context_order), reverse).ok());
    std::vector<uint64_t> out;
    while (true) {
      bool has = false;
      NodeRef node;
      NATIX_CHECK(cursor.Next(&has, &node).ok());
      if (!has) break;
      out.push_back(node.order);
      if (skip_children && skip_children(node.order)) cursor.SkipChildren();
    }
    return out;
  }

  /// `query` evaluated by interp::Evaluator from the context node of
  /// rank `context_order`: the result's ranks in document order.
  std::vector<uint64_t> Interpret(const std::string& query,
                                  uint64_t context_order) const {
    auto result = interp::Evaluator::Run(doc_.get(), query,
                                         DomNode(context_order),
                                         interp::EvaluatorOptions());
    NATIX_CHECK(result.ok());
    std::vector<uint64_t> orders;
    for (const Node* n : result->nodes) orders.push_back(n->order);
    return orders;
  }

  /// Reference axis evaluation over the DOM; returns order ranks in axis
  /// order (reverse axes: descending document order).
  std::vector<uint64_t> Reference(Axis axis, uint64_t context_order) const {
    const Node* ctx = DomNode(context_order);
    std::vector<const Node*> result;
    auto is_ancestor_of_ctx = [&](const Node* n) {
      for (const Node* a = ctx->parent; a != nullptr; a = a->parent) {
        if (a == n) return true;
      }
      return false;
    };
    auto is_descendant_of_ctx = [&](const Node* n) {
      for (const Node* a = n->parent; a != nullptr; a = a->parent) {
        if (a == ctx) return true;
      }
      return false;
    };
    switch (axis) {
      case Axis::kSelf:
        result.push_back(ctx);
        break;
      case Axis::kChild:
        for (const Node* c : ctx->children) result.push_back(c);
        break;
      case Axis::kAttribute:
        for (const Node* a : ctx->attributes) result.push_back(a);
        break;
      case Axis::kParent:
        if (ctx->parent != nullptr) result.push_back(ctx->parent);
        break;
      case Axis::kAncestor:
        for (const Node* a = ctx->parent; a != nullptr; a = a->parent) {
          result.push_back(a);
        }
        break;
      case Axis::kAncestorOrSelf:
        for (const Node* a = ctx; a != nullptr; a = a->parent) {
          result.push_back(a);
        }
        break;
      case Axis::kFollowingSibling: {
        if (ctx->kind == NodeKind::kAttribute) break;
        for (const Node* s = ctx->NextSibling(); s != nullptr;
             s = s->NextSibling()) {
          result.push_back(s);
        }
        break;
      }
      case Axis::kPrecedingSibling: {
        if (ctx->kind == NodeKind::kAttribute) break;
        for (const Node* s = ctx->PreviousSibling(); s != nullptr;
             s = s->PreviousSibling()) {
          result.push_back(s);
        }
        break;
      }
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
        for (const auto& [order, n] : dom_by_order_) {
          if (n == ctx) {
            // The context itself is on descendant-or-self even when it is
            // an attribute node.
            if (axis == Axis::kDescendantOrSelf) result.push_back(n);
            continue;
          }
          if (n->kind == NodeKind::kAttribute) continue;
          if (is_descendant_of_ctx(n)) result.push_back(n);
        }
        break;
      case Axis::kFollowing:
        for (const auto& [order, n] : dom_by_order_) {
          if (n->kind == NodeKind::kAttribute) continue;
          if (order <= context_order) continue;
          if (is_descendant_of_ctx(n)) continue;
          result.push_back(n);
        }
        break;
      case Axis::kPreceding:
        for (const auto& [order, n] : dom_by_order_) {
          if (n->kind == NodeKind::kAttribute) continue;
          if (order >= context_order) continue;
          if (is_ancestor_of_ctx(n)) continue;
          result.push_back(n);
        }
        break;
    }
    std::vector<uint64_t> orders;
    for (const Node* n : result) orders.push_back(n->order);
    // Membership loops above yield ascending order; reverse axes iterate
    // descending. Parent/ancestor chains are already descending.
    if (axis == Axis::kPreceding) {
      std::sort(orders.rbegin(), orders.rend());
    } else if (!AxisIsReverse(axis)) {
      std::sort(orders.begin(), orders.end());
    }
    return orders;
  }

 private:
  void IndexDom(const Node* node) {
    dom_by_order_[node->order] = node;
    for (const Node* a : node->attributes) dom_by_order_[a->order] = a;
    for (const Node* c : node->children) IndexDom(c);
  }
  void IndexStore(storage::NodeId id) {
    storage::StoredNode node(store_.get(), id);
    store_by_order_[*node.order()] = id;
    auto attr = *node.first_attribute();
    while (attr.valid()) {
      store_by_order_[*attr.order()] = attr.id();
      attr = *attr.next_sibling();
    }
    auto child = *node.first_child();
    while (child.valid()) {
      IndexStore(child.id());
      child = *child.next_sibling();
    }
  }

  std::unique_ptr<storage::NodeStore> store_;
  std::unique_ptr<dom::Document> doc_;
  storage::NodeId root_id_;
  std::map<uint64_t, const Node*> dom_by_order_;
  std::map<uint64_t, storage::NodeId> store_by_order_;
};

constexpr Axis kAllAxes[] = {
    Axis::kChild,         Axis::kDescendant,      Axis::kDescendantOrSelf,
    Axis::kParent,        Axis::kAncestor,        Axis::kAncestorOrSelf,
    Axis::kFollowing,     Axis::kFollowingSibling, Axis::kPreceding,
    Axis::kPrecedingSibling, Axis::kAttribute,    Axis::kSelf};

const char* kDocuments[] = {
    // Deeply mixed content with attributes, comments, PIs.
    "<a p='1' q='2'><b><c r='3'>t1</c><d/>t2</b><!--x--><e><f>t3<g/>"
    "</f></e><?pi data?></a>",
    // Wide flat document.
    "<r><x/><x/><x/><x/><x/><y/><x/><z/><x/><x/></r>",
    // Deep chain.
    "<d1><d2><d3><d4><d5>leaf</d5></d4></d3></d2></d1>",
    // Single element.
    "<only/>",
    // Text-heavy siblings.
    "<m>alpha<n>beta</n>gamma<n>delta</n>epsilon</m>",
};

class AxisConformanceTest : public ::testing::TestWithParam<const char*> {};

TEST_P(AxisConformanceTest, EveryAxisFromEveryNodeMatchesReference) {
  AxisConformance fixture(GetParam());
  NodeTest any;
  any.kind = NodeTest::Kind::kAnyKind;
  for (uint64_t context : fixture.AllOrders()) {
    for (Axis axis : kAllAxes) {
      EXPECT_EQ(fixture.RunCursor(axis, any, context),
                fixture.Reference(axis, context))
          << "axis=" << AxisName(axis) << " context order=" << context;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Documents, AxisConformanceTest,
                         ::testing::ValuesIn(kDocuments));

// The axis kernels against interp::Evaluator: every axis, every kind of
// node test, from every node of a document holding every node kind.
constexpr char kMatrixDocument[] =
    "<?t top?><!--c0--><r x='1' y='2'><a id='1'>t1<b/><!--c1--><?t d1?>"
    "<?u d2?><a>t2<b x='3'>t3</b></a></a>t4<b><a/><?t d3?></b><!--c2-->"
    "</r><!--c3--><?u d4?>";

struct MatrixTest {
  const char* text;  // as written in a location step
  NodeTest::Kind kind;
  const char* name;  // resolved through the dictionary, or null
};

constexpr MatrixTest kMatrixTests[] = {
    {"a", NodeTest::Kind::kName, "a"},
    {"x", NodeTest::Kind::kName, "x"},
    {"*", NodeTest::Kind::kAnyName, nullptr},
    {"text()", NodeTest::Kind::kText, nullptr},
    {"comment()", NodeTest::Kind::kComment, nullptr},
    {"processing-instruction()", NodeTest::Kind::kPi, nullptr},
    {"processing-instruction('t')", NodeTest::Kind::kPiTarget, "t"},
    {"node()", NodeTest::Kind::kAnyKind, nullptr},
};

NodeTest Resolve(const AxisConformance& fixture, const MatrixTest& t) {
  NodeTest test;
  test.kind = t.kind;
  if (t.name != nullptr) test.name_id = fixture.NameId(t.name);
  return test;
}

TEST(AxisKernelMatrixTest, EveryAxisTestAndContextKindMatchesInterpreter) {
  AxisConformance fixture(kMatrixDocument);
  std::set<NodeKind> context_kinds;
  for (uint64_t context : fixture.AllOrders()) {
    context_kinds.insert(fixture.DomNode(context)->kind);
    for (Axis axis : kAllAxes) {
      for (const MatrixTest& t : kMatrixTests) {
        std::vector<uint64_t> expected = fixture.Interpret(
            std::string(AxisName(axis)) + "::" + t.text, context);
        // The cursor produces axis order; the interpreter document order.
        if (AxisIsReverse(axis)) {
          std::reverse(expected.begin(), expected.end());
        }
        EXPECT_EQ(fixture.RunCursor(axis, Resolve(fixture, t), context),
                  expected)
            << AxisName(axis) << "::" << t.text << " from "
            << context;
      }
    }
    // Reverse child: the children from the last one backwards.
    for (const MatrixTest& t : kMatrixTests) {
      std::vector<uint64_t> expected =
          fixture.Interpret(std::string("child::") + t.text, context);
      std::reverse(expected.begin(), expected.end());
      EXPECT_EQ(fixture.RunCursor(Axis::kChild, Resolve(fixture, t), context,
                                  /*reverse=*/true),
                expected)
          << "reverse child::" << t.text << " from " << context;
    }
  }
  EXPECT_EQ(context_kinds,
            (std::set<NodeKind>{NodeKind::kDocument, NodeKind::kElement,
                                NodeKind::kAttribute, NodeKind::kText,
                                NodeKind::kComment,
                                NodeKind::kProcessingInstruction}));
}

// Upsilon^D's SkipChildren on the descendant axes: skipping the subtree
// of every produced `a` leaves exactly the interpreter's nodes that have
// no produced `a` above them inside the walk.
TEST(AxisKernelMatrixTest, SkipChildrenPrunesProducedSubtrees) {
  AxisConformance fixture(kMatrixDocument);
  auto is_a = [&](uint64_t order) {
    const Node* n = fixture.DomNode(order);
    return n->kind == NodeKind::kElement && n->name == "a";
  };
  for (uint64_t context : fixture.AllOrders()) {
    for (Axis axis : {Axis::kDescendant, Axis::kDescendantOrSelf}) {
      for (const MatrixTest& t : kMatrixTests) {
        std::vector<uint64_t> expected;
        std::set<const Node*> skipped;
        for (uint64_t order : fixture.Interpret(
                 std::string(AxisName(axis)) + "::" + t.text, context)) {
          const Node* n = fixture.DomNode(order);
          bool below_skipped = false;
          for (const Node* p = n->parent; p != nullptr; p = p->parent) {
            below_skipped = below_skipped || skipped.count(p) != 0;
          }
          if (below_skipped) continue;
          expected.push_back(order);
          if (is_a(order)) skipped.insert(n);
        }
        EXPECT_EQ(fixture.RunCursor(axis, Resolve(fixture, t), context,
                                    /*reverse=*/false, is_a),
                  expected)
            << AxisName(axis) << "::" << t.text << " from " << context;
      }
    }
  }
}

// The NVM step loops compare string-values in place. Each predicate
// below is a one-step child or attribute comparison with a string
// literal, on either side, with = and !=; the engine must agree with the
// interpreter on a 5,000-byte (overflowed) text and attribute, a longer
// multi-chunk one, an element whose string-value spans several text
// nodes, and an empty element.
TEST(StepLoopCompareTest, InPlaceCompareMatchesInterpreter) {
  std::string big;
  while (big.size() < 5000) big += "0123456789";
  std::string huge;
  while (huge.size() < 17000) huge += "abcdefghij";
  const std::string xml =
      "<r><e v='" + big + "'><t>" + big + "</t></e><e v='" + huge +
      "'><t>" + huge + "</t></e><e v='abc'><t>ab<i>c</i></t></e>"
      "<e v=''><t/></e><e v='abcd'><t>a<i/>b<i>c<i>d</i></i></t></e></r>";
  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto info = (*db)->LoadDocument("d", xml);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  std::string big_changed = big;
  big_changed.back() = 'x';
  const std::vector<std::string> constants = {
      big, big_changed, big + "0", big.substr(0, 4999), huge,
      huge.substr(0, 16999), "abc", "ab", "abcd", "", "c"};
  for (const std::string& k : constants) {
    for (const char* form :
         {"/r/e[t = '%']", "/r/e[t != '%']", "/r/e['%' = t]",
          "/r/e['%' != t]", "/r/e[@v = '%']", "/r/e[@v != '%']",
          "/r/e['%' = @v]", "/r/e['%' != @v]"}) {
      std::string query = form;
      query.replace(query.find('%'), 1, k);
      const std::string shown = query.substr(0, 40);
      auto compiled = (*db)->Compile(query);
      ASSERT_TRUE(compiled.ok()) << shown;
      EXPECT_NE(
          (*compiled)->prepared().plan().nvm_listing().find("step_exists"),
          std::string::npos)
          << shown;
      auto got = (*compiled)->EvaluateNodes(info->root);
      ASSERT_TRUE(got.ok()) << shown << ": " << got.status().ToString();
      std::vector<uint64_t> got_orders;
      for (const storage::StoredNode& n : *got) {
        got_orders.push_back(*n.order());
      }
      auto expected = interp::Evaluator::Run(
          dom_doc->get(), query, (*dom_doc)->root(),
          interp::EvaluatorOptions());
      ASSERT_TRUE(expected.ok()) << shown;
      std::vector<uint64_t> expected_orders;
      for (const Node* n : expected->nodes) {
        expected_orders.push_back(n->order);
      }
      EXPECT_EQ(got_orders, expected_orders) << shown;
    }
  }
}

TEST(AxisCursorTest, NameTestFiltersByDictionaryId) {
  AxisConformance fixture("<r><a/><b/><a><a/></a></r>");
  // The store interned names during load; find the id of "a" through a
  // second fixture-independent load is overkill — reuse cursor output:
  // descendant::node() from root and check names via the reference DOM.
  NodeTest any;
  any.kind = NodeTest::Kind::kAnyKind;
  auto all = fixture.RunCursor(Axis::kDescendant, any, 0);
  EXPECT_EQ(all.size(), 5u);  // r, a, b, a, a
}

TEST(AxisCursorTest, TextTestSelectsOnlyText) {
  AxisConformance fixture("<m>alpha<n>beta</n>gamma</m>");
  NodeTest text;
  text.kind = NodeTest::Kind::kText;
  auto texts = fixture.RunCursor(Axis::kDescendant, text, 0);
  EXPECT_EQ(texts.size(), 3u);
  NodeTest any_name;
  any_name.kind = NodeTest::Kind::kAnyName;
  auto elements = fixture.RunCursor(Axis::kDescendant, any_name, 0);
  EXPECT_EQ(elements.size(), 2u);  // m, n
}

TEST(AxisCursorTest, StarOnAttributeAxisMatchesAttributes) {
  AxisConformance fixture("<r a='1' b='2'><c d='3'/></r>");
  NodeTest any_name;
  any_name.kind = NodeTest::Kind::kAnyName;
  // Attribute axis from element r (order 1).
  auto attrs = fixture.RunCursor(Axis::kAttribute, any_name, 1);
  EXPECT_EQ(attrs.size(), 2u);
  // node() on the attribute axis also yields the attributes.
  NodeTest any;
  any.kind = NodeTest::Kind::kAnyKind;
  EXPECT_EQ(fixture.RunCursor(Axis::kAttribute, any, 1).size(), 2u);
}

TEST(AxisCursorTest, InvalidContextYieldsNothing) {
  AxisConformance fixture("<r/>");
  AxisCursor cursor(nullptr);
  NodeTest any;
  // Open with an invalid node id: cursor must be immediately exhausted.
  EXPECT_TRUE(cursor.Open(Axis::kChild, any, storage::kInvalidNodeId).ok());
  bool has = true;
  NodeRef out;
  EXPECT_TRUE(cursor.Next(&has, &out).ok());
  EXPECT_FALSE(has);
}

TEST(NodeOpsTest, PpdClassificationMatchesPaper) {
  EXPECT_TRUE(AxisIsPpd(Axis::kFollowing));
  EXPECT_TRUE(AxisIsPpd(Axis::kFollowingSibling));
  EXPECT_TRUE(AxisIsPpd(Axis::kPreceding));
  EXPECT_TRUE(AxisIsPpd(Axis::kPrecedingSibling));
  EXPECT_TRUE(AxisIsPpd(Axis::kParent));
  EXPECT_TRUE(AxisIsPpd(Axis::kAncestor));
  EXPECT_TRUE(AxisIsPpd(Axis::kAncestorOrSelf));
  EXPECT_TRUE(AxisIsPpd(Axis::kDescendant));
  EXPECT_TRUE(AxisIsPpd(Axis::kDescendantOrSelf));
  EXPECT_FALSE(AxisIsPpd(Axis::kChild));
  EXPECT_FALSE(AxisIsPpd(Axis::kAttribute));
  EXPECT_FALSE(AxisIsPpd(Axis::kSelf));
}

TEST(NodeOpsTest, ReverseAxisClassification) {
  EXPECT_TRUE(AxisIsReverse(Axis::kAncestor));
  EXPECT_TRUE(AxisIsReverse(Axis::kAncestorOrSelf));
  EXPECT_TRUE(AxisIsReverse(Axis::kParent));
  EXPECT_TRUE(AxisIsReverse(Axis::kPreceding));
  EXPECT_TRUE(AxisIsReverse(Axis::kPrecedingSibling));
  EXPECT_FALSE(AxisIsReverse(Axis::kChild));
  EXPECT_FALSE(AxisIsReverse(Axis::kDescendant));
  EXPECT_FALSE(AxisIsReverse(Axis::kFollowing));
  EXPECT_FALSE(AxisIsReverse(Axis::kSelf));
}

}  // namespace
}  // namespace natix::runtime
