#ifndef NATIX_STORAGE_BUFFER_MANAGER_H_
#define NATIX_STORAGE_BUFFER_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <memory>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "storage/paged_file.h"

namespace natix::storage {

class BufferManager;

/// RAII pin on a page frame. The referenced memory is valid (and the page
/// cannot be evicted) while the handle is alive. Copying a handle takes an
/// additional pin.
class PageHandle {
 public:
  PageHandle() = default;
  PageHandle(const PageHandle& other);
  PageHandle& operator=(const PageHandle& other);
  PageHandle(PageHandle&& other) noexcept;
  PageHandle& operator=(PageHandle&& other) noexcept;
  ~PageHandle();

  bool valid() const { return manager_ != nullptr; }
  PageId page_id() const { return page_id_; }

  const uint8_t* data() const;
  /// Grants write access and marks the frame dirty.
  uint8_t* mutable_data();

  void Release();

 private:
  friend class BufferManager;
  PageHandle(BufferManager* manager, PageId page_id, size_t frame)
      : manager_(manager), page_id_(page_id), frame_(frame) {}

  BufferManager* manager_ = nullptr;
  PageId page_id_ = kInvalidPage;
  size_t frame_ = 0;
};

/// A striped pin/unpin buffer manager with per-shard clock replacement
/// over a PagedFile — the "Natix page buffer" the paper's physical algebra
/// navigates directly (Sec. 5.2.2).
///
/// The pool is partitioned into `shards` independent stripes; a page
/// belongs to the shard `page_id % shards`, and each shard serializes its
/// own page table, free list and clock hand behind its own mutex, so
/// concurrent read-only executions contend per stripe instead of on one
/// pool-wide lock. A fix takes that mutex once; releasing a pin is one
/// atomic decrement and takes no lock, and neither does copying an
/// already-valid PageHandle (an extra pin on a pinned frame).
///
/// Replacement is the clock (second-chance) algorithm over the shard's
/// contiguous frame range: a fix sets the frame's reference bit, and the
/// hand skips pinned frames and clears set bits until it reaches an
/// unpinned frame whose bit is clear.
///
/// Thread safety: FixPage/NewPage/FlushAll/Snapshot and handle
/// copy/release may be called from any thread. Writers (document
/// loading) must not run concurrently with readers — the caller
/// serializes load vs. query, not the pool.
class BufferManager {
 public:
  /// `capacity` is the number of page frames held in memory, distributed
  /// as evenly as possible over `shards` stripes (capacity must be >=
  /// shards; shards >= 1). One shard gives the classic single-lock pool.
  BufferManager(PagedFile* file, size_t capacity, size_t shards = 1);
  ~BufferManager();

  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  /// Pins page `id`, faulting it in if necessary.
  StatusOr<PageHandle> FixPage(PageId id);

  /// Allocates a fresh page in the file and pins it.
  StatusOr<PageHandle> NewPage();

  /// Writes back all dirty frames.
  Status FlushAll();

  /// A coherent point-in-time snapshot of all four counters: every shard
  /// mutex is held while reading, so no increment can land between the
  /// four reads. Per-query deltas in src/obs subtract two snapshots and
  /// therefore never tear across shards (a torn read could otherwise
  /// show, e.g., a fault without its matching eviction).
  struct CounterSnapshot {
    uint64_t faults = 0;     ///< pages faulted in from the file
    uint64_t hits = 0;       ///< fixes served from the pool
    uint64_t writes = 0;     ///< dirty pages written back
    uint64_t evictions = 0;  ///< resident pages replaced by the clock
  };
  CounterSnapshot Snapshot() const;

  /// Per-shard snapshot in shard order, plus the frames each shard
  /// currently maps (its page-table size). Each shard is read under its
  /// own mutex; unlike Snapshot() the shards are not locked jointly, so
  /// cross-shard sums may skew by in-flight increments — fine for the
  /// /statusz rendering this feeds.
  struct ShardSnapshot {
    uint64_t faults = 0;
    uint64_t hits = 0;
    uint64_t writes = 0;
    uint64_t evictions = 0;
    size_t resident_pages = 0;  ///< pages currently mapped by the shard
  };
  std::vector<ShardSnapshot> ShardSnapshots() const;

  /// Statistics for tests, benchmarks, and the observability layer
  /// (src/obs). Counters are relaxed atomics summed over shards: cheap to
  /// read while other queries run, but a multi-counter read can tear —
  /// use Snapshot() for coherent deltas.
  uint64_t fault_count() const { return SumCounter(&Shard::faults); }
  /// Fixes served from the pool without touching the file.
  uint64_t hit_count() const { return SumCounter(&Shard::hits); }
  /// Dirty pages written back (eviction or FlushAll).
  uint64_t write_count() const { return SumCounter(&Shard::writes); }
  uint64_t eviction_count() const { return SumCounter(&Shard::evictions); }

  size_t capacity() const { return frames_.size(); }
  size_t shard_count() const { return shards_.size(); }
  /// Frames of the smallest shard.
  size_t min_shard_frames() const { return capacity() / shard_count(); }

 private:
  friend class PageHandle;

  struct Frame {
    PageId page_id = kInvalidPage;
    /// Atomic so an extra pin on an already-pinned frame (handle copy)
    /// and Unpin skip the shard mutex. Goes from 0 to 1 only under the
    /// shard mutex (FixPage/NewPage), so the clock hand, which holds it,
    /// never evicts a frame that is being pinned. A frame with
    /// pin_count > 0 is never evicted.
    std::atomic<uint32_t> pin_count{0};
    /// Relaxed atomic: set by writers holding a pin, read by eviction /
    /// flush under the shard mutex.
    std::atomic<bool> dirty{false};
    /// Clock reference bit, guarded by the shard mutex: set by a fix
    /// (only when clear, so repeated hits on a hot frame do not store it
    /// again), cleared by the passing hand.
    bool referenced = false;
    std::unique_ptr<uint8_t[]> data;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::vector<size_t> free_frames;
    /// The shard's frames are the global indices [begin, begin + count).
    size_t begin = 0;
    size_t count = 0;
    /// Clock hand: the next frame offset (within the range) to inspect.
    size_t hand = 0;
    std::unordered_map<PageId, size_t> page_table;
    // Counters are incremented only under `mutex`; atomic so the lock-free
    // accessors above may read them concurrently.
    std::atomic<uint64_t> faults{0};
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> writes{0};
    std::atomic<uint64_t> evictions{0};
  };

  size_t ShardOf(PageId id) const { return id % shards_.size(); }

  uint64_t SumCounter(std::atomic<uint64_t> Shard::* counter) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += (shard.*counter).load(std::memory_order_relaxed);
    }
    return total;
  }

  void Pin(size_t frame);
  void Unpin(size_t frame);
  /// Claims a frame for `shard` from its free list or by evicting the
  /// clock's victim; ResourceExhausted when two full sweeps of the hand
  /// find every frame pinned. Caller holds the shard mutex.
  StatusOr<size_t> ClaimFrame(Shard& shard);

  PagedFile* file_;
  /// Serializes PagedFile::AllocatePage (the file's page counter is not
  /// itself thread-safe).
  std::mutex alloc_mutex_;
  /// Globally indexed so PageHandle stays a (manager, frame) pair; each
  /// frame is owned by exactly one shard and never migrates.
  std::vector<Frame> frames_;
  std::vector<Shard> shards_;
};

}  // namespace natix::storage

#endif  // NATIX_STORAGE_BUFFER_MANAGER_H_
