#ifndef NATIX_STORAGE_NODE_STORE_H_
#define NATIX_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"
#include "storage/buffer_manager.h"
#include "storage/name_dictionary.h"
#include "storage/paged_file.h"
#include "storage/slotted_page.h"

namespace natix::storage {

/// Stable identifier of a stored node: (page, slot). Never changes while
/// the document exists (records are not relocated).
struct NodeId {
  PageId page = kInvalidPage;
  uint16_t slot = 0;

  bool valid() const { return page != kInvalidPage; }
  friend bool operator==(const NodeId&, const NodeId&) = default;

  /// Packs into a single integer for hashing and register storage.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(page) << 16) | slot;
  }
  static NodeId Unpack(uint64_t v) {
    return NodeId{static_cast<PageId>(v >> 16),
                  static_cast<uint16_t>(v & 0xFFFF)};
  }
};

inline constexpr NodeId kInvalidNodeId{};

/// Node kinds stored on pages. Matches the XPath 1.0 data model.
enum class StoredNodeKind : uint8_t {
  kDocument = 0,
  kElement = 1,
  kAttribute = 2,
  kText = 3,
  kComment = 4,
  kProcessingInstruction = 5
};

/// The navigation header of a stored node: everything the axis cursors
/// need, without touching the (possibly large) content bytes.
struct NodeHeader {
  StoredNodeKind kind = StoredNodeKind::kDocument;
  uint32_t name_id = kInvalidNameId;
  uint64_t order = 0;
  NodeId parent;
  NodeId first_child;
  NodeId last_child;
  NodeId next_sibling;
  NodeId prev_sibling;
  NodeId first_attr;
};

/// On-page layout of a node record (offsets in bytes): a fixed part, then
/// the inline content, or the 6-byte head link of an overflow chain when
/// the overflow flag is set. A link is a 4-byte page and a 2-byte slot.
namespace node_record {
inline constexpr size_t kOffKind = 0;
inline constexpr size_t kOffFlags = 1;
inline constexpr size_t kOffNameId = 2;
inline constexpr size_t kOffOrder = 6;
inline constexpr size_t kOffParent = 14;
inline constexpr size_t kOffFirstChild = 20;
inline constexpr size_t kOffLastChild = 26;
inline constexpr size_t kOffNextSibling = 32;
inline constexpr size_t kOffPrevSibling = 38;
inline constexpr size_t kOffFirstAttr = 44;
inline constexpr size_t kOffContentLen = 50;
inline constexpr size_t kFixedSize = 54;

inline constexpr uint8_t kFlagOverflow = 0x1;

inline NodeId DecodeLink(const uint8_t* p) {
  NodeId id;
  std::memcpy(&id.page, p, 4);
  std::memcpy(&id.slot, p + 4, 2);
  return id;
}

/// Decodes the navigation header from a record's fixed part.
inline void DecodeHeader(const uint8_t* p, NodeHeader* header) {
  header->kind = static_cast<StoredNodeKind>(p[kOffKind]);
  std::memcpy(&header->name_id, p + kOffNameId, 4);
  std::memcpy(&header->order, p + kOffOrder, 8);
  header->parent = DecodeLink(p + kOffParent);
  header->first_child = DecodeLink(p + kOffFirstChild);
  header->last_child = DecodeLink(p + kOffLastChild);
  header->next_sibling = DecodeLink(p + kOffNextSibling);
  header->prev_sibling = DecodeLink(p + kOffPrevSibling);
  header->first_attr = DecodeLink(p + kOffFirstAttr);
}
}  // namespace node_record

/// Decoded image of a stored node record.
struct NodeRecord {
  StoredNodeKind kind = StoredNodeKind::kDocument;
  /// Name dictionary id for elements, attributes and PI targets;
  /// kInvalidNameId otherwise.
  uint32_t name_id = kInvalidNameId;
  /// Document-order key, unique across all documents of one store.
  uint64_t order = 0;
  NodeId parent;
  NodeId first_child;
  /// Last child, maintained so reverse-document-order axes (preceding,
  /// preceding-sibling via deepest-last descent) run in O(1) per step.
  NodeId last_child;
  NodeId next_sibling;
  NodeId prev_sibling;
  /// Head of the attribute chain (elements only; attributes are linked
  /// through next_sibling among themselves).
  NodeId first_attr;
  /// True when the content lives in an overflow chunk chain.
  bool text_overflow = false;
  /// Inline content (attribute value, text, comment, PI data) — filled
  /// only when !text_overflow; otherwise use NodeStore::ReadContent.
  std::string inline_text;
  /// Overflow chain head + total length when text_overflow.
  NodeId overflow_head;
  uint32_t overflow_length = 0;
};

/// A document registered in the store catalog.
struct DocumentInfo {
  std::string name;
  NodeId root;          // the document node
  uint64_t node_count = 0;
};

/// The persistent XML node store: slotted node pages behind a buffer
/// manager, a name dictionary, and a document catalog — the reimplementation
/// of the Natix storage layer the paper's physical algebra navigates
/// directly (Sec. 5.2.2).
class NodeStore {
 public:
  struct Options {
    /// Buffer pool size in frames (pages).
    size_t buffer_pages = 4096;
    /// Number of buffer-pool stripes (each with its own mutex and clock).
    /// 1 reproduces the classic single-lock pool; concurrent read-only
    /// workloads want one stripe per expected thread or so. Must not
    /// exceed buffer_pages.
    size_t buffer_shards = 1;
  };

  /// Creates a new store at `path` (truncating any existing file).
  static StatusOr<std::unique_ptr<NodeStore>> Create(const std::string& path,
                                                     const Options& options);
  /// Creates an anonymous scratch store (tests/benchmarks/examples).
  static StatusOr<std::unique_ptr<NodeStore>> CreateTemp(
      const Options& options);
  /// Opens an existing store.
  static StatusOr<std::unique_ptr<NodeStore>> Open(const std::string& path,
                                                   const Options& options);

  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;

  // -- Node construction (used by DocumentLoader) ------------------------

  /// Appends a node record and returns its id. Links may be invalid and
  /// patched later through the SetLink calls.
  StatusOr<NodeId> AppendNode(const NodeRecord& record);

  enum class LinkField {
    kParent,
    kFirstChild,
    kLastChild,
    kNextSibling,
    kPrevSibling,
    kFirstAttr
  };
  /// Patches one link field of an existing record in place.
  Status SetLink(NodeId node, LinkField field, NodeId target);

  /// Next document-order key (monotone across the whole store).
  uint64_t NextOrderKey() { return next_order_key_++; }

  // -- Node access --------------------------------------------------------
  // One-off reads through a call-local NodeAccessor (see its methods);
  // query execution reads through its own accessor instead.

  Status ReadNode(NodeId node, NodeRecord* record) const;
  Status ReadHeader(NodeId node, NodeHeader* header) const;
  StatusOr<std::string> ReadContent(NodeId node) const;
  StatusOr<std::string> StringValue(NodeId node) const;

  // -- Catalog & dictionary ------------------------------------------------

  NameDictionary* names() { return &names_; }
  const NameDictionary* names() const { return &names_; }

  Status AddDocument(const DocumentInfo& info);
  /// Looks a document up by name; kNotFound when absent.
  StatusOr<DocumentInfo> FindDocument(std::string_view name) const;
  const std::vector<DocumentInfo>& documents() const { return documents_; }
  /// The sum of the catalog's node counts: the bound every walk that
  /// follows links checks its reads against.
  uint64_t node_count() const { return node_count_; }

  /// Persists catalog, dictionary, superblock and all dirty pages.
  Status Flush();

  BufferManager* buffer_manager() { return buffer_.get(); }
  const BufferManager* buffer_manager() const { return buffer_.get(); }

  /// Pinning through a const NodeStore (reads only fault pages in; the
  /// buffer manager's internal state is logically mutable).
  BufferManager* buffer_manager_for_accessor() const { return buffer_.get(); }

 private:
  NodeStore(std::unique_ptr<PagedFile> file, const Options& options);

  Status InitializeNew();
  Status LoadExisting();
  /// Serializes a metadata blob into a fresh chain of raw pages,
  /// returning the head page id.
  StatusOr<PageId> WriteBlobChain(const std::string& blob);
  StatusOr<std::string> ReadBlobChain(PageId head) const;
  /// Stores `content` into overflow chunks, returning the chain head.
  StatusOr<NodeId> WriteOverflow(std::string_view content);

  std::unique_ptr<PagedFile> file_;
  std::unique_ptr<BufferManager> buffer_;
  NameDictionary names_;
  std::vector<DocumentInfo> documents_;
  uint64_t node_count_ = 0;
  /// Page currently receiving node inserts.
  PageId fill_page_ = kInvalidPage;
  uint64_t next_order_key_ = 0;
};

/// The read path for node records: a small set of pinned pages. Each
/// query execution owns one and every node read of the execution goes
/// through it, so reads that land on a page of the set (an axis walk
/// along sibling/child links, the climb to a context's ancestors, the
/// string-value of a subtree) touch no buffer-manager state at all. The
/// NodeStore read methods are thin wrappers over a call-local accessor.
///
/// A read is split in two. The hit path, inline in the caller, serves a
/// record on the page of the previous read: it checks the slot against
/// the page's slot count, that the record lies inside the page and that
/// it is at least as long as the caller needs, then hands out the bytes
/// without building a Status. Everything else goes to one out-of-line
/// miss function: an invalid id, a move to another page of the set, a
/// fix, and every check that fails, each returned as a Status (a bad
/// slot, extent or length is Corruption).
///
/// The set holds kMaxPages pages when every buffer shard has at least
/// kMinShardFrames frames, else one, so a few executions cannot pin a
/// small pool solid. A read of a page outside the set replaces the least
/// recently read page. Every read returns a decoded copy; no pointer into
/// a page outlives the call that produced it. When a fix finds its shard
/// fully pinned, the accessor drops its own pins and retries once.
/// Pins are held until ReleaseAll (or destruction): an execution releases
/// them when each Evaluate* call returns, on every path.
///
/// Single-threaded, like the execution that owns it.
class NodeAccessor {
 public:
  static constexpr size_t kMaxPages = 8;
  static constexpr size_t kMinShardFrames = 64;

  NodeAccessor() : NodeAccessor(nullptr) {}
  explicit NodeAccessor(const NodeStore* store);
  NodeAccessor(const NodeAccessor&) = delete;
  NodeAccessor& operator=(const NodeAccessor&) = delete;
  NodeAccessor(NodeAccessor&&) = default;
  NodeAccessor& operator=(NodeAccessor&&) = default;

  /// Decodes only the navigation header (no content copy).
  [[gnu::always_inline]] Status ReadHeader(NodeId node, NodeHeader* header) {
    RecordBytes rec;
    if (!OnCurrentPage(node, node_record::kFixedSize, &rec)) [[unlikely]] {
      Status missed = Miss(node, node_record::kFixedSize, &rec);
      if (!missed.ok()) return missed;
    }
    node_record::DecodeHeader(rec.data, header);
    return Status::OK();
  }

  /// Decodes the whole record, inline content included.
  Status ReadNode(NodeId node, NodeRecord* record);

  /// The node's content (attribute value / text / comment / PI data),
  /// assembling overflow chains when necessary.
  StatusOr<std::string> ReadContent(NodeId node);

  /// XPath string-value: for elements/documents, the concatenation of all
  /// descendant text nodes; for other kinds the content itself.
  StatusOr<std::string> StringValue(NodeId node);
  /// Whether the node's string-value equals `text`, compared in place
  /// against the record bytes (overflow chunks included) without copying
  /// it; the walk stops at the first difference.
  Status StringValueEquals(NodeId node, std::string_view text, bool* equal);

  /// The store's node count (NodeStore::node_count).
  uint64_t node_count() const {
    return store_ == nullptr ? 0 : store_->node_count();
  }

  /// Unpins every page of the set.
  void ReleaseAll();

  /// Pages currently pinned by the set.
  size_t pinned_pages() const;

 private:
  /// The bytes of a node's record, valid until the next read.
  struct RecordBytes {
    const uint8_t* data = nullptr;
    uint16_t size = 0;
  };

  struct Content;

  /// The hit path: true, with the record in *out, when `node` is on the
  /// page of the previous read, its slot is in the page's directory and
  /// its record lies inside the page and holds at least `min_size` bytes.
  /// An empty set slot reads as a page with no slots, so an invalid id
  /// always misses.
  [[gnu::always_inline]] bool OnCurrentPage(NodeId node, size_t min_size,
                                            RecordBytes* out) const {
    if (pages_[current_] != node.page) return false;
    const uint8_t* page = data_[current_];
    if (node.slot >= SlottedPage::slot_count(page)) return false;
    SlottedPage::Entry entry = SlottedPage::EntryOf(page, node.slot);
    if (entry.size < min_size ||
        size_t{entry.offset} + entry.size > kPageSize) {
      return false;
    }
    *out = RecordBytes{page + entry.offset, entry.size};
    return true;
  }
  /// The miss path of every read: moves to `node`'s page (from the set,
  /// or fixed into it), then serves the record as OnCurrentPage does, or
  /// says why it cannot.
  Status Miss(NodeId node, size_t min_size, RecordBytes* out);
  /// The record of `node`, at least `min_size` bytes long.
  Status Record(NodeId node, size_t min_size, RecordBytes* out) {
    if (OnCurrentPage(node, min_size, out)) [[likely]] return Status::OK();
    return Miss(node, min_size, out);
  }
  /// Pins page `id` into `slot`, unpinning the slot's previous page.
  Status Fix(size_t slot, PageId id);
  /// Empties set slot `slot` (its pin is already released).
  void Clear(size_t slot);
  /// Decodes the header and content of `node`'s record; Corruption when
  /// the record is too short for them.
  Status Decode(NodeId node, NodeHeader* header, Content* content);
  /// Calls `piece` on each run of `content`'s bytes in order, following
  /// its overflow chain, until `piece` returns false (then *more is
  /// false). Corruption when the chain runs past the content length.
  template <typename Piece>
  Status VisitContent(const Content& content, Piece& piece, bool* more);
  /// VisitContent over the node's string-value: its own content, or its
  /// descendant text nodes in document order. Corruption when the walk
  /// reads more nodes than the store holds.
  template <typename Piece>
  Status VisitStringValue(NodeId node, Piece& piece);

  const NodeStore* store_ = nullptr;
  /// Slots in use: kMaxPages, or 1 on a small pool.
  size_t slots_ = 1;
  /// The slot of the latest read, tried first.
  size_t current_ = 0;
  /// Read clock: a slot's stamp is the tick at which reads moved to it
  /// (0 when empty). Reads stay on one slot until they move, so ordering
  /// by stamp is ordering by last read.
  uint64_t tick_ = 0;
  PageId pages_[kMaxPages];
  uint64_t stamps_[kMaxPages] = {};
  /// Each slot's page image; an empty slot points at a page header with
  /// no slots.
  const uint8_t* data_[kMaxPages];
  PageHandle handles_[kMaxPages];
};

/// Releases an accessor's pins when it goes out of scope.
class PageSetRelease {
 public:
  explicit PageSetRelease(NodeAccessor* nodes) : nodes_(nodes) {}
  ~PageSetRelease() { nodes_->ReleaseAll(); }
  PageSetRelease(const PageSetRelease&) = delete;
  PageSetRelease& operator=(const PageSetRelease&) = delete;

 private:
  NodeAccessor* nodes_;
};

}  // namespace natix::storage

#endif  // NATIX_STORAGE_NODE_STORE_H_
