// Buffer-manager counter semantics: the page hit/miss/write/eviction
// counters surfaced by the observability layer (src/obs) must match a
// hand-computed trace. A 4-frame pool is driven through allocation,
// re-fix, and clock eviction; every counter is asserted exactly.

#include <gtest/gtest.h>

#include "obs/stats.h"
#include "storage/buffer_manager.h"
#include "storage/paged_file.h"

namespace natix::storage {
namespace {

TEST(BufferCountersTest, HandComputedTraceUnderFourPagePool) {
  auto file = PagedFile::OpenTemp();
  ASSERT_TRUE(file.ok());
  BufferManager bm(file->get(), 4);

  // Clock replacement over frames f0..f3 (free frames are handed out
  // lowest index first; the hand starts at f0). Every fix and every new
  // page sets its frame's reference bit; the hand skips pinned frames,
  // clears set bits, and evicts the first unpinned frame whose bit is
  // already clear.
  //
  // Phase 1: allocate six pages p0..p5, dropping each pin immediately.
  // p0..p3 fill f0..f3, all referenced. p4: the hand clears f0..f3 in one
  // sweep, comes back to f0 and evicts p0; p4 takes f0, hand at f1. p5:
  // f1 (p1) is now clear, so p5 evicts p1; hand at f2. NewPage marks
  // frames dirty, so both evictions write a page back. Fresh allocations
  // are not faults: nothing is read from the file.
  // Pool: f0 p4*, f1 p5*, f2 p2, f3 p3 (* = reference bit set).
  PageId ids[6];
  for (int i = 0; i < 6; ++i) {
    auto page = bm.NewPage();
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    page->mutable_data()[0] = static_cast<uint8_t>(i + 1);
    ids[i] = page->page_id();
  }
  EXPECT_EQ(bm.fault_count(), 0u);
  EXPECT_EQ(bm.hit_count(), 0u);
  EXPECT_EQ(bm.eviction_count(), 2u);
  EXPECT_EQ(bm.write_count(), 2u);

  // Phase 2: p0 left the pool, so fixing it faults it back in. The hand
  // at f2 finds p2 clear and evicts it (dirty: third write-back); hand at
  // f3. Pool: f0 p4*, f1 p5*, f2 p0*, f3 p3.
  {
    auto page = bm.FixPage(ids[0]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], 1);  // written back at eviction, reloaded
  }
  EXPECT_EQ(bm.fault_count(), 1u);
  EXPECT_EQ(bm.eviction_count(), 3u);
  EXPECT_EQ(bm.write_count(), 3u);

  // Phase 3: p0 and p3 are resident — two hits, no I/O. p3's bit is set;
  // p0's already was. Pool: f0 p4*, f1 p5*, f2 p0*, f3 p3*.
  { auto page = bm.FixPage(ids[0]); ASSERT_TRUE(page.ok()); }
  { auto page = bm.FixPage(ids[3]); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(bm.hit_count(), 2u);
  EXPECT_EQ(bm.fault_count(), 1u);

  // Phase 4: p1 is not resident. Every bit is set, so the hand (at f3)
  // clears f3, f0, f1 and f2 in one sweep, returns to f3 and evicts dirty
  // p3 — where LRU would have evicted p4, the least recently used page.
  // Pool: f0 p4, f1 p5, f2 p0, f3 p1*; hand at f0.
  {
    auto page = bm.FixPage(ids[1]);
    ASSERT_TRUE(page.ok());
    EXPECT_EQ(page->data()[0], 2);
  }
  EXPECT_EQ(bm.fault_count(), 2u);
  EXPECT_EQ(bm.eviction_count(), 4u);
  EXPECT_EQ(bm.write_count(), 4u);
  // p4 survived: fixing it is a hit.
  { auto page = bm.FixPage(ids[4]); ASSERT_TRUE(page.ok()); }
  EXPECT_EQ(bm.hit_count(), 3u);
  EXPECT_EQ(bm.fault_count(), 2u);

  // Phase 5: FlushAll writes exactly the dirty residents. p4 and p5 are
  // dirty since creation; p0 and p1 were reloaded from disk (clean).
  ASSERT_TRUE(bm.FlushAll().ok());
  EXPECT_EQ(bm.write_count(), 6u);
  ASSERT_TRUE(bm.FlushAll().ok());
  EXPECT_EQ(bm.write_count(), 6u);  // second flush: nothing dirty

  // The obs snapshot mirrors the four counters field by field.
  obs::BufferCounters snap = obs::CaptureBufferCounters(&bm);
  EXPECT_EQ(snap.page_reads, bm.fault_count());
  EXPECT_EQ(snap.page_hits, bm.hit_count());
  EXPECT_EQ(snap.page_writes, bm.write_count());
  EXPECT_EQ(snap.evictions, bm.eviction_count());
}

TEST(BufferCountersTest, NullBufferCapturesZero) {
  obs::BufferCounters snap = obs::CaptureBufferCounters(nullptr);
  EXPECT_EQ(snap.page_reads, 0u);
  EXPECT_EQ(snap.page_hits, 0u);
  EXPECT_EQ(snap.page_writes, 0u);
  EXPECT_EQ(snap.evictions, 0u);
}

}  // namespace
}  // namespace natix::storage
