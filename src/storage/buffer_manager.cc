#include "storage/buffer_manager.h"

#include <cstring>
#include <memory>

#include "base/logging.h"
#include "obs/lock_ledger.h"

namespace natix::storage {

namespace {

/// Ledger instance id of shard `s`: 1-based so 0 keeps its "use the
/// mutex address" meaning in the guard, and ascending with the index —
/// the order Snapshot() takes them in.
uintptr_t ShardInstance(size_t s) { return static_cast<uintptr_t>(s + 1); }

}  // namespace

PageHandle::PageHandle(const PageHandle& other)
    : manager_(other.manager_), page_id_(other.page_id_),
      frame_(other.frame_) {
  if (manager_ != nullptr) manager_->Pin(frame_);
}

PageHandle& PageHandle::operator=(const PageHandle& other) {
  if (this == &other) return *this;
  Release();
  manager_ = other.manager_;
  page_id_ = other.page_id_;
  frame_ = other.frame_;
  if (manager_ != nullptr) manager_->Pin(frame_);
  return *this;
}

PageHandle::PageHandle(PageHandle&& other) noexcept
    : manager_(other.manager_), page_id_(other.page_id_),
      frame_(other.frame_) {
  other.manager_ = nullptr;
}

PageHandle& PageHandle::operator=(PageHandle&& other) noexcept {
  if (this == &other) return *this;
  Release();
  manager_ = other.manager_;
  page_id_ = other.page_id_;
  frame_ = other.frame_;
  other.manager_ = nullptr;
  return *this;
}

PageHandle::~PageHandle() { Release(); }

void PageHandle::Release() {
  if (manager_ != nullptr) {
    manager_->Unpin(frame_);
    manager_ = nullptr;
  }
}

const uint8_t* PageHandle::data() const {
  NATIX_DCHECK(valid());
  return manager_->frames_[frame_].data.get();
}

uint8_t* PageHandle::mutable_data() {
  NATIX_DCHECK(valid());
  manager_->frames_[frame_].dirty.store(true, std::memory_order_relaxed);
  return manager_->frames_[frame_].data.get();
}

BufferManager::BufferManager(PagedFile* file, size_t capacity, size_t shards)
    : file_(file), frames_(capacity), shards_(shards == 0 ? 1 : shards) {
  NATIX_CHECK(capacity >= shards_.size());
  // Distribute frames over shards as evenly as possible; shard s owns a
  // contiguous run of global frame indices.
  size_t next = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    size_t count = capacity / shards_.size() +
                   (s < capacity % shards_.size() ? 1 : 0);
    shards_[s].free_frames.reserve(count);
    size_t begin = next;
    shards_[s].begin = begin;
    shards_[s].count = count;
    for (size_t i = 0; i < count; ++i, ++next) {
      frames_[next].data = std::make_unique<uint8_t[]>(kPageSize);
      // Free frames are handed out lowest-index-first (back of the list),
      // matching the classic single-shard pool's allocation order.
      shards_[s].free_frames.push_back(begin + count - 1 - i);
    }
  }
}

BufferManager::~BufferManager() {
  // Best-effort write-back; callers that care about durability call
  // FlushAll explicitly and check the status.
  (void)FlushAll();
}

void BufferManager::Pin(size_t frame) {
  // Only reachable by copying a valid handle: the frame is already
  // pinned, hence not evictable — a plain increment suffices, no shard
  // lock.
  uint32_t prev =
      frames_[frame].pin_count.fetch_add(1, std::memory_order_relaxed);
  NATIX_DCHECK(prev > 0);
  (void)prev;
}

void BufferManager::Unpin(size_t frame) {
  // Release: the holder's reads and writes of the frame happen before
  // the clock hand (acquire load under the shard mutex) sees the count
  // at zero and reuses the frame.
  uint32_t prev =
      frames_[frame].pin_count.fetch_sub(1, std::memory_order_release);
  NATIX_DCHECK(prev > 0);
  (void)prev;
}

StatusOr<size_t> BufferManager::ClaimFrame(Shard& shard) {
  if (!shard.free_frames.empty()) {
    size_t frame = shard.free_frames.back();
    shard.free_frames.pop_back();
    return frame;
  }
  // No free frame, so every frame of the shard maps a page. The first
  // sweep may only clear reference bits; the second then finds any frame
  // that stayed unpinned.
  for (size_t step = 0; step < 2 * shard.count; ++step) {
    size_t frame = shard.begin + shard.hand;
    shard.hand = shard.hand + 1 == shard.count ? 0 : shard.hand + 1;
    Frame& f = frames_[frame];
    if (f.pin_count.load(std::memory_order_acquire) != 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.dirty.load(std::memory_order_relaxed)) {
      NATIX_RETURN_IF_ERROR(file_->WritePage(f.page_id, f.data.get()));
      f.dirty.store(false, std::memory_order_relaxed);
      shard.writes.fetch_add(1, std::memory_order_relaxed);
    }
    shard.page_table.erase(f.page_id);
    f.page_id = kInvalidPage;
    shard.evictions.fetch_add(1, std::memory_order_relaxed);
    return frame;
  }
  return Status::ResourceExhausted(
      "buffer pool exhausted: all frames of the page's shard are pinned");
}

StatusOr<PageHandle> BufferManager::FixPage(PageId id) {
  const size_t shard_index = ShardOf(id);
  Shard& shard = shards_[shard_index];
  obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                              ShardInstance(shard_index));
  auto it = shard.page_table.find(id);
  if (it != shard.page_table.end()) {
    size_t frame = it->second;
    Frame& f = frames_[frame];
    if (!f.referenced) f.referenced = true;
    f.pin_count.fetch_add(1, std::memory_order_relaxed);
    shard.hits.fetch_add(1, std::memory_order_relaxed);
    return PageHandle(this, id, frame);
  }
  shard.faults.fetch_add(1, std::memory_order_relaxed);
  NATIX_ASSIGN_OR_RETURN(size_t frame, ClaimFrame(shard));
  Frame& f = frames_[frame];
  // The read runs under the shard lock: faults on one stripe serialize,
  // but hits and faults on other stripes proceed (PagedFile reads are
  // positioned pread calls, safe concurrently).
  Status st = file_->ReadPage(id, f.data.get());
  if (!st.ok()) {
    shard.free_frames.push_back(frame);
    return st;
  }
  f.page_id = id;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(false, std::memory_order_relaxed);
  f.referenced = true;
  shard.page_table[id] = frame;
  return PageHandle(this, id, frame);
}

StatusOr<PageHandle> BufferManager::NewPage() {
  PageId id;
  {
    obs::LedgeredMutexLock alloc_lock(alloc_mutex_,
                                      obs::LockClass::kBufferAlloc);
    NATIX_ASSIGN_OR_RETURN(id, file_->AllocatePage());
  }
  const size_t shard_index = ShardOf(id);
  Shard& shard = shards_[shard_index];
  obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                              ShardInstance(shard_index));
  NATIX_ASSIGN_OR_RETURN(size_t frame, ClaimFrame(shard));
  Frame& f = frames_[frame];
  std::memset(f.data.get(), 0, kPageSize);
  f.page_id = id;
  f.pin_count.store(1, std::memory_order_relaxed);
  f.dirty.store(true, std::memory_order_relaxed);
  f.referenced = true;
  shard.page_table[id] = frame;
  return PageHandle(this, id, frame);
}

Status BufferManager::FlushAll() {
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                                ShardInstance(s));
    for (size_t i = shard.begin; i < shard.begin + shard.count; ++i) {
      Frame& f = frames_[i];
      if (f.page_id != kInvalidPage &&
          f.dirty.load(std::memory_order_relaxed)) {
        NATIX_RETURN_IF_ERROR(file_->WritePage(f.page_id, f.data.get()));
        f.dirty.store(false, std::memory_order_relaxed);
        shard.writes.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  return Status::OK();
}

BufferManager::CounterSnapshot BufferManager::Snapshot() const {
  // Lock every shard (in index order — the only multi-shard acquisition,
  // so no ordering conflicts), then read: no increment can interleave.
  std::vector<std::unique_ptr<obs::LedgeredMutexLock>> locks;
  locks.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    locks.push_back(std::make_unique<obs::LedgeredMutexLock>(
        shards_[s].mutex, obs::LockClass::kBufferShard, ShardInstance(s)));
  }
  CounterSnapshot snap;
  for (const Shard& shard : shards_) {
    snap.faults += shard.faults.load(std::memory_order_relaxed);
    snap.hits += shard.hits.load(std::memory_order_relaxed);
    snap.writes += shard.writes.load(std::memory_order_relaxed);
    snap.evictions += shard.evictions.load(std::memory_order_relaxed);
  }
  return snap;
}

std::vector<BufferManager::ShardSnapshot> BufferManager::ShardSnapshots()
    const {
  std::vector<ShardSnapshot> out;
  out.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    const Shard& shard = shards_[s];
    obs::LedgeredMutexLock lock(shard.mutex, obs::LockClass::kBufferShard,
                                ShardInstance(s));
    ShardSnapshot snap;
    snap.faults = shard.faults.load(std::memory_order_relaxed);
    snap.hits = shard.hits.load(std::memory_order_relaxed);
    snap.writes = shard.writes.load(std::memory_order_relaxed);
    snap.evictions = shard.evictions.load(std::memory_order_relaxed);
    snap.resident_pages = shard.page_table.size();
    out.push_back(snap);
  }
  return out;
}

}  // namespace natix::storage
