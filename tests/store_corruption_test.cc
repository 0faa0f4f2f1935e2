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
  NodeId r, a1, a2, b1;
};

Doc Load() {
  Doc doc;
  auto db = Database::CreateTemp();
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  doc.db = std::move(db).value();
  auto info = doc.db->LoadDocument("d", kXml);
  EXPECT_TRUE(info.ok()) << info.status().ToString();
  doc.root = info->root;
  storage::StoredNode root(doc.db->store(), doc.root);
  doc.r = root.first_child()->id();
  storage::StoredNode a1 = *storage::StoredNode(doc.db->store(), doc.r)
                                .first_child();
  doc.a1 = a1.id();
  doc.a2 = a1.next_sibling()->id();
  doc.b1 = a1.first_child()->id();
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

}  // namespace
}  // namespace natix
