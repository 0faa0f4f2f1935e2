#include "storage/node_store.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "base/logging.h"
#include "storage/slotted_page.h"

namespace natix::storage {

namespace {

using node_record::DecodeHeader;
using node_record::DecodeLink;
using node_record::kFixedSize;
using node_record::kFlagOverflow;
using node_record::kOffContentLen;
using node_record::kOffFirstAttr;
using node_record::kOffFirstChild;
using node_record::kOffFlags;
using node_record::kOffKind;
using node_record::kOffLastChild;
using node_record::kOffNameId;
using node_record::kOffNextSibling;
using node_record::kOffOrder;
using node_record::kOffParent;
using node_record::kOffPrevSibling;

constexpr uint64_t kMagic = 0x3154535849544144ull;  // "NATIXST1" (le)

/// What an empty slot of a page set reads: a page header with no slots.
constexpr uint8_t kNoPage[SlottedPage::kHeaderSize] = {};

/// Content at most this long is stored inline in the node record, keeping
/// several nodes per page; longer content moves to overflow chunks.
constexpr size_t kInlineContentLimit = 4000;

/// Overflow chunk record: [6-byte next chunk id][payload].
constexpr size_t kChunkHeaderSize = 6;
constexpr size_t kChunkPayloadMax = SlottedPage::kMaxRecordSize -
                                    kChunkHeaderSize;

void EncodeLink(uint8_t* p, NodeId id) {
  std::memcpy(p, &id.page, 4);
  std::memcpy(p + 4, &id.slot, 2);
}

size_t LinkOffset(NodeStore::LinkField field) {
  switch (field) {
    case NodeStore::LinkField::kParent:
      return kOffParent;
    case NodeStore::LinkField::kFirstChild:
      return kOffFirstChild;
    case NodeStore::LinkField::kLastChild:
      return kOffLastChild;
    case NodeStore::LinkField::kNextSibling:
      return kOffNextSibling;
    case NodeStore::LinkField::kPrevSibling:
      return kOffPrevSibling;
    case NodeStore::LinkField::kFirstAttr:
      return kOffFirstAttr;
  }
  NATIX_CHECK(false);
  return 0;
}

void AppendU32(std::string* blob, uint32_t v) {
  blob->append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void AppendU64(std::string* blob, uint64_t v) {
  blob->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(std::string_view blob, size_t* pos, uint32_t* v) {
  if (blob.size() - *pos < sizeof(*v)) return false;
  std::memcpy(v, blob.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}
bool ReadU64(std::string_view blob, size_t* pos, uint64_t* v) {
  if (blob.size() - *pos < sizeof(*v)) return false;
  std::memcpy(v, blob.data() + *pos, sizeof(*v));
  *pos += sizeof(*v);
  return true;
}

}  // namespace

NodeStore::NodeStore(std::unique_ptr<PagedFile> file, const Options& options)
    : file_(std::move(file)),
      buffer_(std::make_unique<BufferManager>(file_.get(),
                                              options.buffer_pages,
                                              options.buffer_shards)) {}

StatusOr<std::unique_ptr<NodeStore>> NodeStore::Create(
    const std::string& path, const Options& options) {
  NATIX_ASSIGN_OR_RETURN(std::unique_ptr<PagedFile> file,
                         PagedFile::Open(path, /*create=*/true));
  std::unique_ptr<NodeStore> store(new NodeStore(std::move(file), options));
  NATIX_RETURN_IF_ERROR(store->InitializeNew());
  return store;
}

StatusOr<std::unique_ptr<NodeStore>> NodeStore::CreateTemp(
    const Options& options) {
  NATIX_ASSIGN_OR_RETURN(std::unique_ptr<PagedFile> file,
                         PagedFile::OpenTemp());
  std::unique_ptr<NodeStore> store(new NodeStore(std::move(file), options));
  NATIX_RETURN_IF_ERROR(store->InitializeNew());
  return store;
}

StatusOr<std::unique_ptr<NodeStore>> NodeStore::Open(const std::string& path,
                                                     const Options& options) {
  NATIX_ASSIGN_OR_RETURN(std::unique_ptr<PagedFile> file,
                         PagedFile::Open(path, /*create=*/false));
  std::unique_ptr<NodeStore> store(new NodeStore(std::move(file), options));
  NATIX_RETURN_IF_ERROR(store->LoadExisting());
  return store;
}

Status NodeStore::InitializeNew() {
  NATIX_ASSIGN_OR_RETURN(PageHandle superblock, buffer_->NewPage());
  if (superblock.page_id() != 0) {
    return Status::Internal("superblock must be page 0");
  }
  uint8_t* data = superblock.mutable_data();
  std::memcpy(data, &kMagic, sizeof(kMagic));
  PageId invalid = kInvalidPage;
  std::memcpy(data + 8, &invalid, sizeof(invalid));
  uint64_t zero = 0;
  std::memcpy(data + 12, &zero, sizeof(zero));
  return Status::OK();
}

Status NodeStore::LoadExisting() {
  NATIX_ASSIGN_OR_RETURN(PageHandle superblock, buffer_->FixPage(0));
  const uint8_t* data = superblock.data();
  uint64_t magic;
  std::memcpy(&magic, data, sizeof(magic));
  if (magic != kMagic) return Status::Corruption("bad store magic");
  PageId meta_head;
  std::memcpy(&meta_head, data + 8, sizeof(meta_head));
  std::memcpy(&next_order_key_, data + 12, sizeof(next_order_key_));
  if (meta_head == kInvalidPage) return Status::OK();

  NATIX_ASSIGN_OR_RETURN(std::string blob, ReadBlobChain(meta_head));
  size_t consumed = names_.ParseFrom(blob);
  if (consumed == 0 && !blob.empty()) {
    return Status::Corruption("bad name dictionary");
  }
  std::string_view rest(blob);
  size_t pos = consumed;
  uint32_t doc_count;
  if (!ReadU32(rest, &pos, &doc_count)) {
    return Status::Corruption("bad catalog header");
  }
  documents_.clear();
  node_count_ = 0;
  for (uint32_t i = 0; i < doc_count; ++i) {
    DocumentInfo info;
    uint32_t name_len;
    if (!ReadU32(rest, &pos, &name_len) || rest.size() - pos < name_len) {
      return Status::Corruption("bad catalog entry");
    }
    info.name.assign(rest.substr(pos, name_len));
    pos += name_len;
    uint32_t root_page;
    if (!ReadU32(rest, &pos, &root_page)) {
      return Status::Corruption("bad catalog entry");
    }
    uint32_t root_slot;
    if (!ReadU32(rest, &pos, &root_slot)) {
      return Status::Corruption("bad catalog entry");
    }
    info.root = NodeId{root_page, static_cast<uint16_t>(root_slot)};
    if (!ReadU64(rest, &pos, &info.node_count)) {
      return Status::Corruption("bad catalog entry");
    }
    node_count_ += std::min(info.node_count, UINT64_MAX - node_count_);
    documents_.push_back(std::move(info));
  }
  // Walks bound themselves by this count, so it may not claim more
  // records than the file's pages can hold.
  if (node_count_ > uint64_t{file_->page_count()} * SlottedPage::kMaxSlots) {
    return Status::Corruption("catalog counts more nodes than the file holds");
  }
  return Status::OK();
}

StatusOr<PageId> NodeStore::WriteBlobChain(const std::string& blob) {
  // Each chain page: [u32 next][u32 len][bytes].
  constexpr size_t kChainPayload = kPageSize - 8;
  PageId head = kInvalidPage;
  PageId prev = kInvalidPage;
  size_t offset = 0;
  do {
    size_t len = std::min(kChainPayload, blob.size() - offset);
    NATIX_ASSIGN_OR_RETURN(PageHandle page, buffer_->NewPage());
    uint8_t* data = page.mutable_data();
    PageId invalid = kInvalidPage;
    std::memcpy(data, &invalid, 4);
    uint32_t len32 = static_cast<uint32_t>(len);
    std::memcpy(data + 4, &len32, 4);
    std::memcpy(data + 8, blob.data() + offset, len);
    if (head == kInvalidPage) head = page.page_id();
    if (prev != kInvalidPage) {
      NATIX_ASSIGN_OR_RETURN(PageHandle prev_page, buffer_->FixPage(prev));
      PageId next = page.page_id();
      std::memcpy(prev_page.mutable_data(), &next, 4);
    }
    prev = page.page_id();
    offset += len;
  } while (offset < blob.size());
  return head;
}

StatusOr<std::string> NodeStore::ReadBlobChain(PageId head) const {
  std::string blob;
  PageId current = head;
  while (current != kInvalidPage) {
    NATIX_ASSIGN_OR_RETURN(PageHandle page, buffer_->FixPage(current));
    const uint8_t* data = page.data();
    PageId next;
    std::memcpy(&next, data, 4);
    uint32_t len;
    std::memcpy(&len, data + 4, 4);
    if (len > kPageSize - 8) return Status::Corruption("bad chain page");
    blob.append(reinterpret_cast<const char*>(data + 8), len);
    current = next;
  }
  return blob;
}

Status NodeStore::Flush() {
  std::string blob;
  names_.AppendTo(&blob);
  AppendU32(&blob, static_cast<uint32_t>(documents_.size()));
  for (const DocumentInfo& info : documents_) {
    AppendU32(&blob, static_cast<uint32_t>(info.name.size()));
    blob += info.name;
    AppendU32(&blob, info.root.page);
    AppendU32(&blob, info.root.slot);
    AppendU64(&blob, info.node_count);
  }
  // A fresh chain is written on every flush; superseded chains are not
  // reclaimed (load-mostly store — reclamation is out of scope here).
  NATIX_ASSIGN_OR_RETURN(PageId head, WriteBlobChain(blob));
  {
    NATIX_ASSIGN_OR_RETURN(PageHandle superblock, buffer_->FixPage(0));
    uint8_t* data = superblock.mutable_data();
    std::memcpy(data + 8, &head, sizeof(head));
    std::memcpy(data + 12, &next_order_key_, sizeof(next_order_key_));
  }
  NATIX_RETURN_IF_ERROR(buffer_->FlushAll());
  return file_->Sync();
}

StatusOr<NodeId> NodeStore::WriteOverflow(std::string_view content) {
  // Write chunks back-to-front so each chunk can link to the next.
  NodeId next = kInvalidNodeId;
  size_t full_chunks = content.size() / kChunkPayloadMax;
  size_t first_len = content.size() - full_chunks * kChunkPayloadMax;
  std::vector<std::string_view> chunks;
  size_t off = 0;
  if (first_len > 0) {
    chunks.push_back(content.substr(0, first_len));
    off = first_len;
  }
  for (size_t i = 0; i < full_chunks; ++i) {
    chunks.push_back(content.substr(off, kChunkPayloadMax));
    off += kChunkPayloadMax;
  }
  std::string buf;
  for (size_t i = chunks.size(); i-- > 0;) {
    buf.resize(kChunkHeaderSize + chunks[i].size());
    EncodeLink(reinterpret_cast<uint8_t*>(buf.data()), next);
    std::memcpy(buf.data() + kChunkHeaderSize, chunks[i].data(),
                chunks[i].size());
    // Overflow chunks get their own pages (they are near page-sized).
    NATIX_ASSIGN_OR_RETURN(PageHandle page, buffer_->NewPage());
    SlottedPage::Init(page.mutable_data());
    uint16_t slot = SlottedPage::Insert(page.mutable_data(), buf.data(),
                                        static_cast<uint16_t>(buf.size()));
    next = NodeId{page.page_id(), slot};
  }
  return next;
}

StatusOr<NodeId> NodeStore::AppendNode(const NodeRecord& record) {
  bool overflow = record.inline_text.size() > kInlineContentLimit;
  std::string_view content = record.inline_text;

  NodeId overflow_head = kInvalidNodeId;
  if (overflow) {
    NATIX_ASSIGN_OR_RETURN(overflow_head, WriteOverflow(content));
  }

  size_t size = kFixedSize + (overflow ? kChunkHeaderSize : content.size());
  std::string buf(size, '\0');
  uint8_t* p = reinterpret_cast<uint8_t*>(buf.data());
  p[kOffKind] = static_cast<uint8_t>(record.kind);
  p[kOffFlags] = overflow ? kFlagOverflow : 0;
  std::memcpy(p + kOffNameId, &record.name_id, 4);
  std::memcpy(p + kOffOrder, &record.order, 8);
  EncodeLink(p + kOffParent, record.parent);
  EncodeLink(p + kOffFirstChild, record.first_child);
  EncodeLink(p + kOffLastChild, record.last_child);
  EncodeLink(p + kOffNextSibling, record.next_sibling);
  EncodeLink(p + kOffPrevSibling, record.prev_sibling);
  EncodeLink(p + kOffFirstAttr, record.first_attr);
  uint32_t content_len = static_cast<uint32_t>(content.size());
  std::memcpy(p + kOffContentLen, &content_len, 4);
  if (overflow) {
    EncodeLink(p + kFixedSize, overflow_head);
  } else {
    std::memcpy(p + kFixedSize, content.data(), content.size());
  }

  // Find a page with room, continuing on the current fill page.
  if (fill_page_ != kInvalidPage) {
    NATIX_ASSIGN_OR_RETURN(PageHandle page, buffer_->FixPage(fill_page_));
    if (SlottedPage::HasRoomFor(page.data(), size)) {
      uint16_t slot = SlottedPage::Insert(page.mutable_data(), buf.data(),
                                          static_cast<uint16_t>(size));
      return NodeId{fill_page_, slot};
    }
  }
  NATIX_ASSIGN_OR_RETURN(PageHandle page, buffer_->NewPage());
  SlottedPage::Init(page.mutable_data());
  fill_page_ = page.page_id();
  uint16_t slot = SlottedPage::Insert(page.mutable_data(), buf.data(),
                                      static_cast<uint16_t>(size));
  return NodeId{fill_page_, slot};
}

Status NodeStore::SetLink(NodeId node, LinkField field, NodeId target) {
  NATIX_ASSIGN_OR_RETURN(PageHandle page, buffer_->FixPage(node.page));
  uint8_t* record = SlottedPage::MutableRecord(page.mutable_data(), node.slot);
  EncodeLink(record + LinkOffset(field), target);
  return Status::OK();
}

Status NodeStore::ReadNode(NodeId node, NodeRecord* record) const {
  return NodeAccessor(this).ReadNode(node, record);
}

Status NodeStore::ReadHeader(NodeId node, NodeHeader* header) const {
  return NodeAccessor(this).ReadHeader(node, header);
}

StatusOr<std::string> NodeStore::ReadContent(NodeId node) const {
  return NodeAccessor(this).ReadContent(node);
}

StatusOr<std::string> NodeStore::StringValue(NodeId node) const {
  return NodeAccessor(this).StringValue(node);
}

NodeAccessor::NodeAccessor(const NodeStore* store) : store_(store) {
  for (size_t i = 0; i < kMaxPages; ++i) Clear(i);
  if (store != nullptr &&
      store->buffer_manager()->min_shard_frames() >= kMinShardFrames) {
    slots_ = kMaxPages;
  }
}

void NodeAccessor::Clear(size_t slot) {
  pages_[slot] = kInvalidPage;
  stamps_[slot] = 0;
  data_[slot] = kNoPage;
}

Status NodeAccessor::Miss(NodeId node, size_t min_size, RecordBytes* out) {
  if (!node.valid()) return Status::InvalidArgument("invalid node id");
  if (pages_[current_] != node.page) {
    size_t slot = 0;
    while (slot < slots_ && pages_[slot] != node.page) ++slot;
    if (slot == slots_) {
      // Not in the set: replace the least recently read page (an empty
      // slot has stamp 0).
      slot = 0;
      for (size_t i = 1; i < slots_; ++i) {
        if (stamps_[i] < stamps_[slot]) slot = i;
      }
      NATIX_RETURN_IF_ERROR(Fix(slot, node.page));
    }
    current_ = slot;
    stamps_[slot] = ++tick_;
  }
  if (OnCurrentPage(node, min_size, out)) return Status::OK();
  const std::string where = "node " + std::to_string(node.page) + ":" +
                            std::to_string(node.slot);
  const uint8_t* page = data_[current_];
  const uint16_t count = SlottedPage::slot_count(page);
  if (node.slot >= count) {
    return Status::Corruption(where + ": slot past the page's " +
                              std::to_string(count) + " slots");
  }
  SlottedPage::Entry entry = SlottedPage::EntryOf(page, node.slot);
  if (size_t{entry.offset} + entry.size > kPageSize) {
    return Status::Corruption(where + ": record extent leaves its page");
  }
  return Status::Corruption(where + ": record of " +
                            std::to_string(entry.size) +
                            " bytes, shorter than " +
                            std::to_string(min_size));
}

Status NodeAccessor::Fix(size_t slot, PageId id) {
  handles_[slot].Release();
  Clear(slot);
  BufferManager* pool = store_->buffer_manager_for_accessor();
  StatusOr<PageHandle> fixed = pool->FixPage(id);
  if (!fixed.ok() &&
      fixed.status().code() == StatusCode::kResourceExhausted) {
    // Our own pins may be what fills the shard: drop them and retry once.
    ReleaseAll();
    fixed = pool->FixPage(id);
  }
  if (!fixed.ok()) return fixed.status();
  // The hit path reads directory entries below the slot count unchecked,
  // so a page enters the set only with a directory that fits in it.
  if (SlottedPage::slot_count(fixed->data()) > SlottedPage::kMaxSlots) {
    return Status::Corruption("page " + std::to_string(id) +
                              ": slot count past the page");
  }
  handles_[slot] = std::move(fixed).value();
  pages_[slot] = id;
  data_[slot] = handles_[slot].data();
  return Status::OK();
}

/// The content part of a node record: its inline bytes (a view into the
/// page, valid until the next read), or the head of its overflow chain.
struct NodeAccessor::Content {
  std::string_view inline_bytes;
  NodeId overflow_head;
  uint32_t length = 0;
};

Status NodeAccessor::Decode(NodeId node, NodeHeader* header,
                            Content* content) {
  RecordBytes rec;
  NATIX_RETURN_IF_ERROR(Record(node, kFixedSize, &rec));
  const uint8_t* p = rec.data;
  *content = Content{};
  std::memcpy(&content->length, p + kOffContentLen, 4);
  const bool overflow = (p[kOffFlags] & kFlagOverflow) != 0;
  const size_t needed =
      kFixedSize + (overflow ? kChunkHeaderSize : content->length);
  // A record too short for its content: the miss path says so.
  if (rec.size < needed) return Miss(node, needed, &rec);
  DecodeHeader(p, header);
  if (overflow) {
    content->overflow_head = DecodeLink(p + kFixedSize);
  } else {
    content->inline_bytes = std::string_view(
        reinterpret_cast<const char*>(p + kFixedSize), content->length);
  }
  return Status::OK();
}

Status NodeAccessor::ReadNode(NodeId node, NodeRecord* record) {
  NodeHeader header;
  Content content;
  NATIX_RETURN_IF_ERROR(Decode(node, &header, &content));
  record->kind = header.kind;
  record->name_id = header.name_id;
  record->order = header.order;
  record->parent = header.parent;
  record->first_child = header.first_child;
  record->last_child = header.last_child;
  record->next_sibling = header.next_sibling;
  record->prev_sibling = header.prev_sibling;
  record->first_attr = header.first_attr;
  record->text_overflow = content.overflow_head.valid();
  record->inline_text.assign(content.inline_bytes);
  record->overflow_head = content.overflow_head;
  record->overflow_length = content.overflow_head.valid() ? content.length : 0;
  return Status::OK();
}

template <typename Piece>
Status NodeAccessor::VisitContent(const Content& content, Piece& piece,
                                  bool* more) {
  *more = true;
  if (!content.overflow_head.valid()) {
    *more = piece(content.inline_bytes);
    return Status::OK();
  }
  // A chain holds exactly the record's content length in nonempty
  // chunks, so one that runs longer (a cycle, say) is corrupt.
  uint64_t left = content.length;
  NodeId chunk = content.overflow_head;
  while (chunk.valid() && *more) {
    RecordBytes rec;
    NATIX_RETURN_IF_ERROR(Record(chunk, kChunkHeaderSize, &rec));
    const size_t size = rec.size - kChunkHeaderSize;
    if (size == 0 || size > left) {
      return Status::Corruption("overflow chain longer than its content");
    }
    left -= size;
    chunk = DecodeLink(rec.data);
    *more = piece(std::string_view(
        reinterpret_cast<const char*>(rec.data + kChunkHeaderSize), size));
  }
  return Status::OK();
}

template <typename Piece>
Status NodeAccessor::VisitStringValue(NodeId node, Piece& piece) {
  NodeHeader header;
  Content content;
  bool more = true;
  NATIX_RETURN_IF_ERROR(Decode(node, &header, &content));
  if (header.kind != StoredNodeKind::kElement &&
      header.kind != StoredNodeKind::kDocument) {
    return VisitContent(content, piece, &more);
  }
  // The descendant text nodes in document order, through an explicit
  // stack of siblings to resume at. The walk decodes each descendant
  // once, so one that decodes more nodes than the store holds is on a
  // link cycle.
  uint64_t left = node_count();
  NodeId current = header.first_child;
  std::vector<NodeId> stack;
  while (more && (current.valid() || !stack.empty())) {
    if (!current.valid()) {
      current = stack.back();
      stack.pop_back();
      continue;
    }
    if (left == 0) {
      return Status::Corruption(
          "string-value walk read more nodes than the store holds: a link "
          "cycle");
    }
    --left;
    NATIX_RETURN_IF_ERROR(Decode(current, &header, &content));
    if (header.kind == StoredNodeKind::kText) {
      NATIX_RETURN_IF_ERROR(VisitContent(content, piece, &more));
    }
    if (header.kind == StoredNodeKind::kElement &&
        header.first_child.valid()) {
      if (header.next_sibling.valid()) stack.push_back(header.next_sibling);
      current = header.first_child;
    } else {
      current = header.next_sibling;
    }
  }
  return Status::OK();
}

StatusOr<std::string> NodeAccessor::ReadContent(NodeId node) {
  NodeHeader header;
  Content content;
  NATIX_RETURN_IF_ERROR(Decode(node, &header, &content));
  std::string out;
  auto append = [&out](std::string_view piece) {
    out.append(piece);
    return true;
  };
  bool more;
  NATIX_RETURN_IF_ERROR(VisitContent(content, append, &more));
  return out;
}

StatusOr<std::string> NodeAccessor::StringValue(NodeId node) {
  std::string out;
  auto append = [&out](std::string_view piece) {
    out.append(piece);
    return true;
  };
  NATIX_RETURN_IF_ERROR(VisitStringValue(node, append));
  return out;
}

Status NodeAccessor::StringValueEquals(NodeId node, std::string_view text,
                                       bool* equal) {
  // Match each piece against the next bytes of `text`, in place.
  size_t matched = 0;
  bool same = true;
  auto compare = [&](std::string_view piece) {
    same = text.substr(matched, piece.size()) == piece;
    matched += piece.size();
    return same;
  };
  NATIX_RETURN_IF_ERROR(VisitStringValue(node, compare));
  *equal = same && matched == text.size();
  return Status::OK();
}

void NodeAccessor::ReleaseAll() {
  for (size_t i = 0; i < slots_; ++i) {
    handles_[i].Release();
    Clear(i);
  }
}

size_t NodeAccessor::pinned_pages() const {
  size_t pinned = 0;
  for (size_t i = 0; i < slots_; ++i) {
    if (handles_[i].valid()) ++pinned;
  }
  return pinned;
}

Status NodeStore::AddDocument(const DocumentInfo& info) {
  for (const DocumentInfo& existing : documents_) {
    if (existing.name == info.name) {
      return Status::InvalidArgument("document '" + info.name +
                                     "' already exists");
    }
  }
  documents_.push_back(info);
  node_count_ += std::min(info.node_count, UINT64_MAX - node_count_);
  return Status::OK();
}

StatusOr<DocumentInfo> NodeStore::FindDocument(std::string_view name) const {
  for (const DocumentInfo& info : documents_) {
    if (info.name == name) return info;
  }
  return Status::NotFound("document '" + std::string(name) + "' not found");
}

}  // namespace natix::storage
