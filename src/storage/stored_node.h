#ifndef NATIX_STORAGE_STORED_NODE_H_
#define NATIX_STORAGE_STORED_NODE_H_

#include <string>

#include "base/statusor.h"
#include "storage/node_store.h"

namespace natix::storage {

/// A convenience handle for navigating stored nodes: a (store, id) pair
/// with accessor methods. Used by examples and tests; the query engine
/// itself navigates through runtime::node_ops for tighter control.
class StoredNode {
 public:
  StoredNode() = default;
  StoredNode(const NodeStore* store, NodeId id) : store_(store), id_(id) {}

  bool valid() const { return store_ != nullptr && id_.valid(); }
  NodeId id() const { return id_; }
  const NodeStore* store() const { return store_; }

  StatusOr<StoredNodeKind> kind() const;
  /// Element/attribute name or PI target ("" for unnamed kinds).
  StatusOr<std::string> name() const;
  /// Attribute value / text / comment / PI content.
  StatusOr<std::string> content() const;
  /// XPath string-value.
  StatusOr<std::string> string_value() const;
  StatusOr<uint64_t> order() const;

  StatusOr<StoredNode> parent() const;
  StatusOr<StoredNode> first_child() const;
  StatusOr<StoredNode> next_sibling() const;
  StatusOr<StoredNode> prev_sibling() const;
  StatusOr<StoredNode> first_attribute() const;

  friend bool operator==(const StoredNode& a, const StoredNode& b) {
    return a.store_ == b.store_ && a.id_ == b.id_;
  }

 private:
  StatusOr<StoredNode> Link(NodeId NodeHeader::* field) const;

  const NodeStore* store_ = nullptr;
  NodeId id_;
};

}  // namespace natix::storage

#endif  // NATIX_STORAGE_STORED_NODE_H_
