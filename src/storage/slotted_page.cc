#include "storage/slotted_page.h"

#include <cstring>

#include "base/logging.h"

namespace natix::storage {

namespace {

// Header field accessors. All on-page integers are little-endian native;
// the store is not meant to be copied across architectures.
uint16_t LoadU16(const uint8_t* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU16(uint8_t* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }

constexpr size_t kSlotCountOffset = 0;
constexpr size_t kFreeEndOffset = 2;

}  // namespace

void SlottedPage::Init(uint8_t* page) {
  StoreU16(page + kSlotCountOffset, 0);
  StoreU16(page + kFreeEndOffset, static_cast<uint16_t>(kPageSize - 1));
  // kPageSize == 8192 does not fit in uint16; store free_end as
  // (kPageSize - 1) and treat it as exclusive-upper-bound-minus-one.
}

size_t SlottedPage::FreeSpace(const uint8_t* page) {
  size_t free_end = LoadU16(page + kFreeEndOffset) + 1;
  size_t dir_end = kHeaderSize + slot_count(page) * kSlotEntrySize;
  NATIX_DCHECK(free_end >= dir_end);
  return free_end - dir_end;
}

bool SlottedPage::HasRoomFor(const uint8_t* page, size_t record_size) {
  return FreeSpace(page) >= record_size + kSlotEntrySize;
}

uint16_t SlottedPage::Insert(uint8_t* page, const void* record,
                             uint16_t size) {
  NATIX_DCHECK(HasRoomFor(page, size));
  uint16_t count = slot_count(page);
  size_t free_end = LoadU16(page + kFreeEndOffset) + 1;
  size_t offset = free_end - size;
  std::memcpy(page + offset, record, size);
  uint8_t* slot_entry = page + kHeaderSize + count * kSlotEntrySize;
  StoreU16(slot_entry, static_cast<uint16_t>(offset));
  StoreU16(slot_entry + 2, size);
  StoreU16(page + kSlotCountOffset, count + 1);
  StoreU16(page + kFreeEndOffset, static_cast<uint16_t>(offset - 1));
  return count;
}

std::pair<const uint8_t*, uint16_t> SlottedPage::Read(const uint8_t* page,
                                                      uint16_t slot) {
  NATIX_DCHECK(slot < slot_count(page));
  Entry entry = EntryOf(page, slot);
  return {page + entry.offset, entry.size};
}

uint8_t* SlottedPage::MutableRecord(uint8_t* page, uint16_t slot) {
  NATIX_DCHECK(slot < slot_count(page));
  return page + EntryOf(page, slot).offset;
}

}  // namespace natix::storage
