#ifndef NATIX_RUNTIME_NODE_ID_SET_H_
#define NATIX_RUNTIME_NODE_ID_SET_H_

#include <cstddef>
#include <cstdint>
#include <memory>

namespace natix::runtime {

/// A set of packed node ids (NodeRef::id): a flat open-addressed table
/// with linear probing, at most half full. It is the seen-set of
/// duplicate elimination (Pi^D and the fused step Upsilon^D) and of the
/// runtime property oracle.
///
/// - Nothing is allocated until the first Insert, so an execution that
///   eliminates no duplicates pays no fixed cost.
/// - clear() costs O(entries), not O(capacity): nested plans re-open,
///   and so clear, their operators once per outer tuple. A table that
///   holds few entries for its size is released instead of wiped, and
///   the next Insert starts small again.
///
/// Empty slots hold kEmpty, which no packed node id equals (a packed id
/// is a 32-bit page id above a 16-bit slot). The value is still a legal
/// key: it is tracked by a flag of its own.
class NodeIdSet {
 public:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// Adds `id`; true if it was not in the set before.
  bool Insert(uint64_t id) {
    if (id == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      ++size_;
      return true;
    }
    if (2 * (size_ + 1) > capacity_) Grow();
    for (size_t i = SlotOf(id);; i = (i + 1) & (capacity_ - 1)) {
      if (slots_[i] == id) return false;
      if (slots_[i] == kEmpty) {
        slots_[i] = id;
        ++size_;
        return true;
      }
    }
  }

  bool Contains(uint64_t id) const {
    if (id == kEmpty) return has_empty_key_;
    if (capacity_ == 0) return false;
    for (size_t i = SlotOf(id);; i = (i + 1) & (capacity_ - 1)) {
      if (slots_[i] == id) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  /// Empties the set in O(size()) slot writes.
  void clear();

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots of the current table (0 before the first Insert).
  size_t capacity() const { return capacity_; }
  /// Slots wiped by clear() or re-inserted by growth since construction:
  /// the set's work beyond the probes of Insert and Contains.
  uint64_t slots_swept() const { return slots_swept_; }

 private:
  /// Doubles the table (16 slots on the first Insert) and re-inserts
  /// every key.
  void Grow();

  /// Fibonacci hashing: the top bits of id * 2^64/phi, so consecutive
  /// ids (siblings on one page) spread over the table.
  size_t SlotOf(uint64_t id) const {
    return static_cast<size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  std::unique_ptr<uint64_t[]> slots_;
  size_t capacity_ = 0;
  /// 64 - log2(capacity_).
  unsigned shift_ = 64;
  size_t size_ = 0;
  bool has_empty_key_ = false;
  uint64_t slots_swept_ = 0;
};

}  // namespace natix::runtime

#endif  // NATIX_RUNTIME_NODE_ID_SET_H_
