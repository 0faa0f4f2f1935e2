// A corrupt store must read as kCorruption, never as a crash or a read
// outside the page: every node read checks its slot against the page's
// slot count, its record's extent against the page and its length
// against the fixed part. Each case below damages one link of a loaded
// document, or the record it points at, and runs one walk over it.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/plan_verifier.h"
#include "api/database.h"
#include "runtime/node_ops.h"
#include "storage/node_store.h"
#include "storage/slotted_page.h"
#include "storage/stored_node.h"

namespace natix {
namespace {

using runtime::Axis;
using runtime::AxisCursor;
using runtime::NodeRef;
using runtime::NodeTest;
using storage::NodeAccessor;
using storage::NodeId;
using storage::NodeStore;

constexpr char kXml[] =
    "<r><a><b>x</b><b>y</b></a><a><b>z</b></a></r>";

/// The loaded document and the ids of its nodes.
struct Doc {
  std::unique_ptr<Database> db;
  NodeId root;  // the document node
  NodeId r, a1, a2, b1, b3;
};

Doc Load(const char* xml = kXml) {
  Doc doc;
  auto db = Database::CreateTemp();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  doc.db = std::move(db).value();
  auto info = doc.db->LoadDocument("d", xml);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  doc.root = info->root;
  storage::StoredNode root(doc.db->store(), doc.root);
  doc.r = root.first_child()->id();
  storage::StoredNode a1 = *storage::StoredNode(doc.db->store(), doc.r)
                                .first_child();
  doc.a1 = a1.id();
  doc.a2 = a1.next_sibling()->id();
  doc.b1 = a1.first_child()->id();
  storage::StoredNode a2 = *a1.next_sibling();
  if (a2.first_child()->valid()) doc.b3 = a2.first_child()->id();
  return doc;
}

/// Drains a cursor over `axis` from `context`; the first error, if any.
Status Walk(const NodeStore* store, Axis axis, NodeId context) {
  NodeAccessor nodes(store);
  AxisCursor cursor(&nodes);
  NATIX_RETURN_IF_ERROR(cursor.Open(axis, NodeTest{}, context));
  bool has = true;
  while (has) {
    NodeRef node;
    NATIX_RETURN_IF_ERROR(cursor.Next(&has, &node));
  }
  return Status::OK();
}

/// One read over one damaged link: the read follows the link (owner,
/// field), which points at `target`, first into the damage.
struct Case {
  const char* name;
  NodeId Doc::* owner;
  NodeStore::LinkField field;
  NodeId Doc::* target;
  std::function<Status(const Doc&)> read;
};

std::vector<Case> Cases() {
  using Field = NodeStore::LinkField;
  auto walk = [](Axis axis, NodeId Doc::* context) {
    return [axis, context](const Doc& doc) {
      return Walk(doc.db->store(), axis, doc.*context);
    };
  };
  return {
      {"child", &Doc::a1, Field::kFirstChild, &Doc::b1,
       walk(Axis::kChild, &Doc::a1)},
      {"descendant", &Doc::a1, Field::kFirstChild, &Doc::b1,
       walk(Axis::kDescendant, &Doc::r)},
      {"following-sibling", &Doc::a1, Field::kNextSibling, &Doc::a2,
       walk(Axis::kFollowingSibling, &Doc::a1)},
      {"preceding-sibling", &Doc::a2, Field::kPrevSibling, &Doc::a1,
       walk(Axis::kPrecedingSibling, &Doc::a2)},
      {"parent", &Doc::b1, Field::kParent, &Doc::a1,
       walk(Axis::kParent, &Doc::b1)},
      {"ancestor", &Doc::b1, Field::kParent, &Doc::a1,
       walk(Axis::kAncestor, &Doc::b1)},
      {"string-value", &Doc::a1, Field::kFirstChild, &Doc::b1,
       [](const Doc& doc) {
         return doc.db->store()->StringValue(doc.a1).status();
       }},
      // A one-step predicate runs as an NVM step loop (checked below).
      {"step-loop predicate", &Doc::a1, Field::kFirstChild, &Doc::b1,
       [](const Doc& doc) {
         auto query = doc.db->Compile("/r/a[b]");
         if (!query.ok()) return query.status();
         return (*query)->EvaluateNodes(doc.root).status();
       }},
  };
}

/// Overwrites the slot directory entry of `node` with (offset, size).
void WriteSlotEntry(const Doc& doc, NodeId node, uint16_t offset,
                    uint16_t size) {
  auto page = doc.db->store()->buffer_manager()->FixPage(node.page);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  uint8_t* entry = page->mutable_data() + storage::SlottedPage::kHeaderSize +
                   node.slot * storage::SlottedPage::kSlotEntrySize;
  std::memcpy(entry, &offset, 2);
  std::memcpy(entry + 2, &size, 2);
}

TEST(StoreCorruptionTest, UndamagedStoreReadsCleanly) {
  Doc doc = Load();
  for (const Case& c : Cases()) {
    EXPECT_TRUE(c.read(doc).ok()) << c.name;
  }
  auto query = doc.db->Compile("/r/a[b]");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_NE((*query)->prepared().plan().nvm_listing().find("step_exists"),
            std::string::npos);
}

// Slot 60000 lies far past the slot count; unchecked, its directory
// entry would be read about 234 KB past an 8 KiB frame.
TEST(StoreCorruptionTest, LinkPastTheSlotCountIsCorruption) {
  for (const Case& c : Cases()) {
    Doc doc = Load();
    NodeId owner = doc.*c.owner;
    ASSERT_TRUE(doc.db->store()
                    ->SetLink(owner, c.field, NodeId{owner.page, 60000})
                    .ok());
    EXPECT_EQ(c.read(doc).code(), StatusCode::kCorruption) << c.name;
  }
}

TEST(StoreCorruptionTest, RecordLeavingItsPageIsCorruption) {
  for (const Case& c : Cases()) {
    Doc doc = Load();
    // Long enough for the fixed part, but running past the page end.
    WriteSlotEntry(doc, doc.*c.target, storage::kPageSize - 40, 100);
    EXPECT_EQ(c.read(doc).code(), StatusCode::kCorruption) << c.name;
  }
}

TEST(StoreCorruptionTest, RecordShorterThanItsFixedPartIsCorruption) {
  for (const Case& c : Cases()) {
    Doc doc = Load();
    WriteSlotEntry(doc, doc.*c.target, 100, 8);
    EXPECT_EQ(c.read(doc).code(), StatusCode::kCorruption) << c.name;
  }
}

// Page 0 is the superblock, not a slotted page: its first bytes read as
// a slot count far beyond what a page's directory can hold.
TEST(StoreCorruptionTest, LinkIntoANonSlottedPageIsCorruption) {
  for (const Case& c : Cases()) {
    Doc doc = Load();
    ASSERT_TRUE(
        doc.db->store()->SetLink(doc.*c.owner, c.field, NodeId{0, 0}).ok());
    EXPECT_EQ(c.read(doc).code(), StatusCode::kCorruption) << c.name;
  }
}

/// Compiles `xpath` without the runtime property oracle, which this test
/// binary otherwise attaches to every plan: a cycle makes a walk repeat
/// nodes, and the oracle reports the first repeat as an Internal
/// violation of the step's duplicate-freedom claim before the walk
/// reaches its read bound. These cases test the bound, which is what a
/// build without verification relies on.
auto CompileUnverified(const Doc& doc, const std::string& xpath) {
  const bool verify = analysis::VerificationEnabled();
  analysis::SetVerificationEnabled(false);
  auto query = doc.db->Compile(xpath);
  analysis::SetVerificationEnabled(verify);
  return query;
}

/// Runs the scalar query `xpath` with `context` (a member of Doc) as the
/// context node; the first error, if any.
std::function<Status(const Doc&)> Query(const char* xpath,
                                        NodeId Doc::* context) {
  return [xpath, context](const Doc& doc) {
    auto query = CompileUnverified(doc, xpath);
    if (!query.ok()) return query.status();
    return (*query)->EvaluateNumber(doc.*context).status();
  };
}

// A link that leads back into its own walk makes a cycle. Every walk
// that follows links bounds its reads by the store's node count, so each
// read below returns Corruption instead of running forever (or, for the
// string-value's explicit stack, growing without bound).
TEST(StoreCorruptionTest, LinkCycleIsCorruption) {
  using Field = NodeStore::LinkField;
  auto walk = [](Axis axis, NodeId Doc::* context) {
    return [axis, context](const Doc& doc) {
      return Walk(doc.db->store(), axis, doc.*context);
    };
  };
  const std::vector<Case> cycles = {
      // Child cycles: a node that is its own first or last child.
      {"child cycle, descendant::*", &Doc::a1, Field::kFirstChild, &Doc::a1,
       Query("count(/r/descendant::*)", &Doc::root)},
      {"child cycle, descendant-or-self", &Doc::a1, Field::kFirstChild,
       &Doc::a1, walk(Axis::kDescendantOrSelf, &Doc::root)},
      {"last-child cycle, preceding", &Doc::a1, Field::kLastChild, &Doc::a1,
       walk(Axis::kPreceding, &Doc::a2)},
      // Sibling cycles.
      {"sibling cycle, child", &Doc::a2, Field::kNextSibling, &Doc::a1,
       walk(Axis::kChild, &Doc::r)},
      {"sibling cycle, preceding-sibling", &Doc::a1, Field::kPrevSibling,
       &Doc::a2, walk(Axis::kPrecedingSibling, &Doc::a2)},
      {"sibling cycle, step loop", &Doc::b1, Field::kNextSibling, &Doc::b1,
       Query("count(/r/a[b = 'q'])", &Doc::root)},
      // Parent cycles: a1 and its first child b1 are each other's parent.
      {"parent cycle, ancestor", &Doc::a1, Field::kParent, &Doc::b1,
       walk(Axis::kAncestor, &Doc::b1)},
      {"parent cycle, preorder climb", &Doc::a2, Field::kParent, &Doc::b3,
       walk(Axis::kFollowing, &Doc::b3)},
      {"parent cycle, root of an absolute path", &Doc::a1, Field::kParent,
       &Doc::b1, Query("count(/r)", &Doc::b1)},
      {"parent cycle, id() index", &Doc::a1, Field::kParent, &Doc::b1,
       Query("count(id('x'))", &Doc::b1)},
      // String-value walks over a child cycle.
      {"string-value", &Doc::a1, Field::kFirstChild, &Doc::a1,
       [](const Doc& doc) {
         return doc.db->store()->StringValue(doc.a1).status();
       }},
      {"string-value compared in place", &Doc::a1, Field::kFirstChild,
       &Doc::a1, Query("count(/r[a = 'q'])", &Doc::root)},
  };
  for (const Case& c : cycles) {
    Doc doc = Load();
    EXPECT_TRUE(c.read(doc).ok()) << c.name << " (before the damage)";
    ASSERT_TRUE(
        doc.db->store()->SetLink(doc.*c.owner, c.field, doc.*c.target).ok());
    Status read = c.read(doc);
    EXPECT_EQ(read.code(), StatusCode::kCorruption)
        << c.name << ": " << read.ToString();
  }
}

// An overflow chunk that links back to itself: the chain would repeat
// its bytes forever. The text is uniform, so the in-place compare
// against the whole text finds no difference before the chain runs past
// the content length.
TEST(StoreCorruptionTest, OverflowChainCycleIsCorruption) {
  const std::string text(20000, 'x');
  Doc doc = Load(("<r><a><b>" + text + "</b></a><a/></r>").c_str());
  const std::string xpath = "count(/r/a[b = '" + text + "'])";
  auto query = doc.db->Compile(xpath);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(*(*query)->EvaluateNumber(doc.root), 1);
  NodeId text_node = storage::StoredNode(doc.db->store(), doc.b1)
                         .first_child()
                         ->id();
  storage::NodeRecord record;
  ASSERT_TRUE(doc.db->store()->ReadNode(text_node, &record).ok());
  ASSERT_TRUE(record.text_overflow);
  auto read = [&] { return doc.db->store()->StringValue(doc.a1).status(); };
  ASSERT_TRUE(read().ok());
  // A chunk record starts with the 6-byte link to the next chunk.
  NodeId head = record.overflow_head;
  auto page = doc.db->store()->buffer_manager()->FixPage(head.page);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  uint8_t* chunk =
      storage::SlottedPage::MutableRecord(page->mutable_data(), head.slot);
  std::memcpy(chunk, &head.page, 4);
  std::memcpy(chunk + 4, &head.slot, 2);
  EXPECT_EQ(read().code(), StatusCode::kCorruption);
  EXPECT_EQ((*query)->EvaluateNumber(doc.root).status().code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace natix
