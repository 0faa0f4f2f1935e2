#ifndef NATIX_STORAGE_SLOTTED_PAGE_H_
#define NATIX_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <cstring>
#include <utility>

#include "storage/paged_file.h"

namespace natix::storage {

/// Static helpers imposing a slotted-record layout on a raw page image:
///
///   [slot_count][free_end][slot 0][slot 1]...        records ...[page end]
///
/// The slot directory grows forward from the header; the record heap grows
/// backward from the end of the page. Records are never moved, so a
/// (page, slot) pair is a stable record id — the basis of node ids.
class SlottedPage {
 public:
  static constexpr size_t kHeaderSize = 4;
  /// Per-insert overhead: one directory entry.
  static constexpr size_t kSlotEntrySize = 4;
  /// Largest record that fits on a freshly initialized page.
  static constexpr size_t kMaxRecordSize =
      kPageSize - kHeaderSize - kSlotEntrySize;
  /// Most directory entries a page can hold; a larger slot count is a
  /// corrupt page header.
  static constexpr size_t kMaxSlots =
      (kPageSize - kHeaderSize) / kSlotEntrySize;

  /// A directory entry: where record `slot` starts and how long it is.
  struct Entry {
    uint16_t offset;
    uint16_t size;
  };

  /// Formats an empty page.
  static void Init(uint8_t* page);

  static uint16_t slot_count(const uint8_t* page) {
    uint16_t count;
    std::memcpy(&count, page, sizeof(count));
    return count;
  }
  static size_t FreeSpace(const uint8_t* page);
  static bool HasRoomFor(const uint8_t* page, size_t record_size);

  /// Appends a record; the caller must have checked HasRoomFor.
  /// Returns the new record's slot number.
  static uint16_t Insert(uint8_t* page, const void* record, uint16_t size);

  /// The directory entry of `slot`, unchecked: the caller must know that
  /// slot < min(slot_count, kMaxSlots).
  static Entry EntryOf(const uint8_t* page, uint16_t slot) {
    Entry entry;
    std::memcpy(&entry, page + kHeaderSize + slot * kSlotEntrySize,
                sizeof(entry));
    return entry;
  }

  /// Read access to record `slot`: pointer and length.
  static std::pair<const uint8_t*, uint16_t> Read(const uint8_t* page,
                                                  uint16_t slot);

  /// Write access to record `slot` for in-place updates that keep the
  /// record length unchanged.
  static uint8_t* MutableRecord(uint8_t* page, uint16_t slot);
};

}  // namespace natix::storage

#endif  // NATIX_STORAGE_SLOTTED_PAGE_H_
