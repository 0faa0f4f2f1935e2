#include "storage/node_store.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "storage/buffer_manager.h"
#include "storage/document_loader.h"
#include "storage/paged_file.h"
#include "storage/slotted_page.h"
#include "storage/stored_node.h"

namespace natix::storage {
namespace {

TEST(PagedFileTest, AllocateReadWrite) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  auto p0 = (*file)->AllocatePage();
  auto p1 = (*file)->AllocatePage();
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ((*file)->page_count(), 2u);

  char out[kPageSize];
  char in[kPageSize] = {};
  in[0] = 'x';
  in[kPageSize - 1] = 'y';
  ASSERT_TRUE((*file)->WritePage(1, in).ok());
  ASSERT_TRUE((*file)->ReadPage(1, out).ok());
  EXPECT_EQ(out[0], 'x');
  EXPECT_EQ(out[kPageSize - 1], 'y');
}

TEST(PagedFileTest, OutOfRangeRejected) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  char buf[kPageSize];
  EXPECT_FALSE((*file)->ReadPage(0, buf).ok());
  EXPECT_FALSE((*file)->WritePage(7, buf).ok());
}

TEST(SlottedPageTest, InsertAndRead) {
  uint8_t page[kPageSize];
  SlottedPage::Init(page);
  EXPECT_EQ(SlottedPage::slot_count(page), 0u);
  uint16_t s0 = SlottedPage::Insert(page, "hello", 5);
  uint16_t s1 = SlottedPage::Insert(page, "world!", 6);
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  auto [p0, l0] = SlottedPage::Read(page, s0);
  auto [p1, l1] = SlottedPage::Read(page, s1);
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p0), l0), "hello");
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p1), l1), "world!");
}

TEST(SlottedPageTest, FreeSpaceAccounting) {
  uint8_t page[kPageSize];
  SlottedPage::Init(page);
  size_t before = SlottedPage::FreeSpace(page);
  SlottedPage::Insert(page, "abcd", 4);
  EXPECT_EQ(SlottedPage::FreeSpace(page),
            before - 4 - SlottedPage::kSlotEntrySize);
}

TEST(SlottedPageTest, FillsUpAndReportsNoRoom) {
  uint8_t page[kPageSize];
  SlottedPage::Init(page);
  std::string rec(100, 'r');
  int inserted = 0;
  while (SlottedPage::HasRoomFor(page, rec.size())) {
    SlottedPage::Insert(page, rec.data(), static_cast<uint16_t>(rec.size()));
    ++inserted;
  }
  EXPECT_GT(inserted, 70);  // ~8KB / 104B
  EXPECT_FALSE(SlottedPage::HasRoomFor(page, rec.size()));
  // Everything still readable.
  auto [p, l] = SlottedPage::Read(page, static_cast<uint16_t>(inserted - 1));
  EXPECT_EQ(std::string(reinterpret_cast<const char*>(p), l), rec);
}

TEST(SlottedPageTest, MaxRecordFitsExactly) {
  uint8_t page[kPageSize];
  SlottedPage::Init(page);
  std::string rec(SlottedPage::kMaxRecordSize, 'm');
  ASSERT_TRUE(SlottedPage::HasRoomFor(page, rec.size()));
  uint16_t slot =
      SlottedPage::Insert(page, rec.data(), static_cast<uint16_t>(rec.size()));
  auto [p, l] = SlottedPage::Read(page, slot);
  EXPECT_EQ(l, rec.size());
  EXPECT_EQ(p[0], 'm');
  EXPECT_FALSE(SlottedPage::HasRoomFor(page, 1));
}

TEST(BufferManagerTest, CachesPages) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 4);
  auto page = bm.NewPage();
  ASSERT_TRUE(page.ok());
  page->mutable_data()[0] = 42;
  PageId id = page->page_id();
  page->Release();
  auto again = bm.FixPage(id);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->data()[0], 42);
  EXPECT_EQ(bm.fault_count(), 0u);  // never left the pool
}

TEST(BufferManagerTest, EvictsLruAndWritesBack) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 2);
  PageId ids[3];
  for (int i = 0; i < 3; ++i) {
    auto page = bm.NewPage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    page->mutable_data()[0] = static_cast<uint8_t>(i + 1);
    ids[i] = page->page_id();
  }
  EXPECT_GE(bm.eviction_count(), 1u);
  // The first page was evicted; re-reading it faults it back in with its
  // written-back contents.
  auto page = bm.FixPage(ids[0]);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(page->data()[0], 1);
  EXPECT_GE(bm.fault_count(), 1u);
}

TEST(BufferManagerTest, AllPinnedExhaustsPool) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 2);
  auto a = bm.NewPage();
  auto b = bm.NewPage();
  ASSERT_TRUE(a.ok() && b.ok());
  auto c = bm.NewPage();
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  a->Release();
  auto d = bm.NewPage();
  EXPECT_TRUE(d.ok());
}

TEST(BufferManagerTest, CopyingHandleAddsPin) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 2);
  auto a = bm.NewPage();
  ASSERT_TRUE(a.ok());
  PageHandle copy = *a;
  a->Release();
  // Frame is still pinned by `copy`; allocating two more pages must fail
  // on the second one.
  auto b = bm.NewPage();
  ASSERT_TRUE(b.ok());
  auto c = bm.NewPage();
  EXPECT_FALSE(c.ok());
}

TEST(BufferManagerTest, ClockNeverEvictsPinnedFrames) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  // Two shards of two frames: even pages live in shard 0, odd in shard 1.
  BufferManager bm(file->get(), 4, 2);
  for (int i = 0; i < 8; ++i) {
    auto page = bm.NewPage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_EQ(page->page_id(), static_cast<PageId>(i));
    page->mutable_data()[0] = static_cast<uint8_t>(10 + i);
  }
  // Pin both frames of shard 0. However often the hand sweeps, it may
  // not take either: the next shard-0 fault must fail, cleanly.
  auto p0 = bm.FixPage(0);
  auto p2 = bm.FixPage(2);
  ASSERT_TRUE(p0.ok() && p2.ok());
  auto p4 = bm.FixPage(4);
  ASSERT_FALSE(p4.ok());
  EXPECT_EQ(p4.status().code(), StatusCode::kResourceExhausted);
  // Shard 1 is unaffected.
  auto p1 = bm.FixPage(1);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p1->data()[0], 11);
  // Releasing one pin lets the next fault succeed, and it evicts the
  // released frame, not the pinned one.
  p2->Release();
  p4 = bm.FixPage(4);
  ASSERT_TRUE(p4.ok()) << p4.status().ToString();
  EXPECT_EQ(p4->data()[0], 14);
  EXPECT_EQ(p0->data()[0], 10);
  const uint64_t faults = bm.fault_count();
  auto again = bm.FixPage(0);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(bm.fault_count(), faults);  // p0 stayed resident
}

TEST(BufferManagerTest, ConcurrentFixAndReleaseKeepPagesIntact) {
  // Four threads fix and release random pages among 64 stamped pages
  // through an 8-frame, 2-shard pool: constant eviction, and Unpin
  // (lock-free) racing the clock hand (under the shard mutex). Every
  // read checks that the frame holds the page it was fixed for.
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 8, 2);
  constexpr PageId kPages = 64;
  auto stamp = [](const uint8_t* data) {
    PageId head;
    PageId tail;
    std::memcpy(&head, data, sizeof(head));
    std::memcpy(&tail, data + kPageSize - sizeof(tail), sizeof(tail));
    return head == tail ? head : kInvalidPage;
  };
  for (PageId i = 0; i < kPages; ++i) {
    auto page = bm.NewPage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_EQ(page->page_id(), i);
    uint8_t* data = page->mutable_data();
    std::memcpy(data, &i, sizeof(i));
    std::memcpy(data + kPageSize - sizeof(i), &i, sizeof(i));
  }
  ASSERT_TRUE(bm.FlushAll().ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t + 1));
      for (int i = 0; i < 2000; ++i) {
        PageId id = static_cast<PageId>(rng() % kPages);
        auto page = bm.FixPage(id);
        if (!page.ok() || stamp(page->data()) != id) {
          ++failures;
          continue;
        }
        if (i % 3 == 0) {
          // A handle copy pins without the shard mutex.
          PageHandle copy = *page;
          page->Release();
          if (stamp(copy.data()) != id) ++failures;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(bm.eviction_count(), 0u);
}

NodeStore::Options SmallOptions() {
  NodeStore::Options options;
  options.buffer_pages = 64;
  return options;
}

TEST(NodeStoreTest, LoadsSimpleDocument) {
  auto store = NodeStore::CreateTemp(SmallOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto info = LoadDocument(store->get(), "doc",
                           "<a x='1'><b>text</b><!--c--></a>");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  // document + a + @x + b + text + comment
  EXPECT_EQ(info->node_count, 6u);

  StoredNode root(store->get(), info->root);
  ASSERT_TRUE(root.valid());
  EXPECT_EQ(*root.kind(), StoredNodeKind::kDocument);
  StoredNode a = *root.first_child();
  EXPECT_EQ(*a.kind(), StoredNodeKind::kElement);
  EXPECT_EQ(*a.name(), "a");
  StoredNode x = *a.first_attribute();
  EXPECT_EQ(*x.kind(), StoredNodeKind::kAttribute);
  EXPECT_EQ(*x.name(), "x");
  EXPECT_EQ(*x.content(), "1");
  StoredNode b = *a.first_child();
  EXPECT_EQ(*b.name(), "b");
  EXPECT_EQ(*b.string_value(), "text");
  StoredNode comment = *b.next_sibling();
  EXPECT_EQ(*comment.kind(), StoredNodeKind::kComment);
  EXPECT_EQ(*comment.content(), "c");
  EXPECT_FALSE(comment.next_sibling()->valid());
  EXPECT_EQ(*comment.prev_sibling(), b);
  EXPECT_EQ(*b.parent(), a);
}

TEST(NodeStoreTest, StringValueOfNestedElement) {
  auto store = NodeStore::CreateTemp(SmallOptions());
  ASSERT_TRUE(store.ok());
  auto info = LoadDocument(store->get(), "doc", "<a>x<b>y<c>z</c></b>w</a>");
  ASSERT_TRUE(info.ok());
  StoredNode root(store->get(), info->root);
  EXPECT_EQ(*root.string_value(), "xyzw");
  EXPECT_EQ(*(*root.first_child()).string_value(), "xyzw");
}

TEST(NodeStoreTest, OrderKeysFollowDocumentOrder) {
  auto store = NodeStore::CreateTemp(SmallOptions());
  ASSERT_TRUE(store.ok());
  auto info = LoadDocument(store->get(), "doc", "<a p='v'><b/><c/></a>");
  ASSERT_TRUE(info.ok());
  StoredNode root(store->get(), info->root);
  StoredNode a = *root.first_child();
  StoredNode p = *a.first_attribute();
  StoredNode b = *a.first_child();
  StoredNode c = *b.next_sibling();
  EXPECT_LT(*root.order(), *a.order());
  EXPECT_LT(*a.order(), *p.order());
  EXPECT_LT(*p.order(), *b.order());
  EXPECT_LT(*b.order(), *c.order());
}

TEST(NodeStoreTest, LongTextUsesOverflowChain) {
  auto store = NodeStore::CreateTemp(SmallOptions());
  ASSERT_TRUE(store.ok());
  std::string long_text(100000, 't');
  long_text[0] = 'H';
  long_text[99999] = 'T';
  auto info =
      LoadDocument(store->get(), "doc", "<a>" + long_text + "</a>");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  StoredNode root(store->get(), info->root);
  StoredNode a = *root.first_child();
  auto value = a.string_value();
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(*value, long_text);

  // Overflowed and inline text nodes mixed in one string-value.
  auto mixed = LoadDocument(store->get(), "mixed",
                            "<a>" + long_text + "<b>x</b>y</a>");
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  StoredNode mixed_root(store->get(), mixed->root);
  EXPECT_EQ(*mixed_root.string_value(), long_text + "xy");
}

TEST(NodeStoreTest, ManyNodesSpanManyPages) {
  auto store = NodeStore::CreateTemp(SmallOptions());
  ASSERT_TRUE(store.ok());
  std::string xml = "<root>";
  for (int i = 0; i < 5000; ++i) xml += "<item id='" + std::to_string(i) + "'/>";
  xml += "</root>";
  auto info = LoadDocument(store->get(), "doc", xml);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->node_count, 1u + 1u + 2u * 5000u);
  // Walk all children and verify names + attribute values round-trip.
  StoredNode root(store->get(), info->root);
  StoredNode item = *(*root.first_child()).first_child();
  int count = 0;
  while (item.valid()) {
    EXPECT_EQ(*item.name(), "item");
    EXPECT_EQ(*(*item.first_attribute()).content(), std::to_string(count));
    ++count;
    item = *item.next_sibling();
  }
  EXPECT_EQ(count, 5000);
}

TEST(NodeStoreTest, MultipleDocumentsInOneStore) {
  auto store = NodeStore::CreateTemp(SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(LoadDocument(store->get(), "one", "<a>1</a>").ok());
  ASSERT_TRUE(LoadDocument(store->get(), "two", "<b>2</b>").ok());
  auto one = (*store)->FindDocument("one");
  auto two = (*store)->FindDocument("two");
  ASSERT_TRUE(one.ok() && two.ok());
  EXPECT_EQ(*StoredNode(store->get(), one->root).string_value(), "1");
  EXPECT_EQ(*StoredNode(store->get(), two->root).string_value(), "2");
  EXPECT_FALSE((*store)->FindDocument("three").ok());
}

TEST(NodeStoreTest, DuplicateDocumentNameRejected) {
  auto store = NodeStore::CreateTemp(SmallOptions());
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(LoadDocument(store->get(), "doc", "<a/>").ok());
  auto again = LoadDocument(store->get(), "doc", "<b/>");
  EXPECT_FALSE(again.ok());
}

TEST(NodeStoreTest, PersistsAcrossReopen) {
  std::string path = std::string(::testing::TempDir()) + "/natix_persist.db";
  {
    auto store = NodeStore::Create(path, SmallOptions());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        LoadDocument(store->get(), "doc", "<a x='7'><b>persisted</b></a>")
            .ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  {
    auto store = NodeStore::Open(path, SmallOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto info = (*store)->FindDocument("doc");
    ASSERT_TRUE(info.ok());
    StoredNode root(store->get(), info->root);
    StoredNode a = *root.first_child();
    EXPECT_EQ(*a.name(), "a");
    EXPECT_EQ(*(*a.first_attribute()).content(), "7");
    EXPECT_EQ(*a.string_value(), "persisted");
  }
  std::remove(path.c_str());
}

TEST(NodeStoreTest, WorksWithTinyBufferPool) {
  // Loading + navigating with only 8 frames exercises eviction heavily.
  NodeStore::Options options;
  options.buffer_pages = 8;
  auto store = NodeStore::CreateTemp(options);
  ASSERT_TRUE(store.ok());
  std::string xml = "<root>";
  for (int i = 0; i < 2000; ++i) {
    xml += "<item><sub>" + std::to_string(i) + "</sub></item>";
  }
  xml += "</root>";
  auto info = LoadDocument(store->get(), "doc", xml);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  StoredNode root(store->get(), info->root);
  StoredNode item = *(*root.first_child()).first_child();
  int i = 0;
  while (item.valid()) {
    EXPECT_EQ(*item.string_value(), std::to_string(i));
    ++i;
    item = *item.next_sibling();
  }
  EXPECT_EQ(i, 2000);
  EXPECT_GT((*store)->buffer_manager()->eviction_count(), 0u);
}

TEST(NodeStoreTest, OpenRejectsGarbageFiles) {
  std::string path = std::string(::testing::TempDir()) + "/garbage.db";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::string junk(kPageSize, 'j');
    fwrite(junk.data(), 1, junk.size(), f);
    fclose(f);
  }
  auto store = NodeStore::Open(path, SmallOptions());
  ASSERT_FALSE(store.ok());
  EXPECT_EQ(store.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(NodeStoreTest, OpenRejectsTruncatedFiles) {
  std::string path = std::string(::testing::TempDir()) + "/truncated.db";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::string partial(kPageSize / 2, 'x');  // not a page multiple
    fwrite(partial.data(), 1, partial.size(), f);
    fclose(f);
  }
  auto store = NodeStore::Open(path, SmallOptions());
  EXPECT_FALSE(store.ok());
  std::remove(path.c_str());
}

TEST(NodeStoreTest, OpenRejectsEmptyFiles) {
  std::string path = std::string(::testing::TempDir()) + "/empty.db";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fclose(f);
  }
  auto store = NodeStore::Open(path, SmallOptions());
  EXPECT_FALSE(store.ok());
  std::remove(path.c_str());
}

TEST(NodeIdTest, PackUnpackRoundTrips) {
  NodeId id{12345, 678};
  EXPECT_EQ(NodeId::Unpack(id.Pack()), id);
  EXPECT_FALSE(kInvalidNodeId.valid());
  EXPECT_TRUE(id.valid());
}

}  // namespace
}  // namespace natix::storage
