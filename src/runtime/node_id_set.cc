#include "runtime/node_id_set.h"

#include <algorithm>
#include <utility>

namespace natix::runtime {

namespace {

/// A table with more than this many slots per entry is released by
/// clear() rather than wiped. A table just grown holds one entry per
/// four slots, so only a table much larger than its last fill is
/// released.
constexpr size_t kSlotsPerEntryToRelease = 8;

constexpr size_t kInitialCapacity = 16;

}  // namespace

void NodeIdSet::clear() {
  if (size_ == 0) return;
  if (capacity_ > kSlotsPerEntryToRelease * size_) {
    slots_.reset();
    capacity_ = 0;
    shift_ = 64;
  } else {
    std::fill_n(slots_.get(), capacity_, kEmpty);
    slots_swept_ += capacity_;
  }
  size_ = 0;
  has_empty_key_ = false;
}

void NodeIdSet::Grow() {
  const size_t old_capacity = capacity_;
  std::unique_ptr<uint64_t[]> old = std::move(slots_);
  capacity_ = old_capacity == 0 ? kInitialCapacity : 2 * old_capacity;
  shift_ = 64;
  for (size_t c = capacity_; c > 1; c >>= 1) --shift_;
  slots_ = std::make_unique_for_overwrite<uint64_t[]>(capacity_);
  std::fill_n(slots_.get(), capacity_, kEmpty);
  for (size_t j = 0; j < old_capacity; ++j) {
    const uint64_t id = old[j];
    if (id == kEmpty) continue;
    size_t i = SlotOf(id);
    while (slots_[i] != kEmpty) i = (i + 1) & (capacity_ - 1);
    slots_[i] = id;
  }
  slots_swept_ += old_capacity;
}

}  // namespace natix::runtime
