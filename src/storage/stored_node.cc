#include "storage/stored_node.h"

namespace natix::storage {

StatusOr<StoredNodeKind> StoredNode::kind() const {
  NodeHeader header;
  NATIX_RETURN_IF_ERROR(store_->ReadHeader(id_, &header));
  return header.kind;
}

StatusOr<std::string> StoredNode::name() const {
  NodeHeader header;
  NATIX_RETURN_IF_ERROR(store_->ReadHeader(id_, &header));
  if (header.name_id == kInvalidNameId) return std::string();
  return store_->names()->NameOf(header.name_id);
}

StatusOr<std::string> StoredNode::content() const {
  return store_->ReadContent(id_);
}

StatusOr<std::string> StoredNode::string_value() const {
  return store_->StringValue(id_);
}

StatusOr<uint64_t> StoredNode::order() const {
  NodeHeader header;
  NATIX_RETURN_IF_ERROR(store_->ReadHeader(id_, &header));
  return header.order;
}

StatusOr<StoredNode> StoredNode::Link(NodeId NodeHeader::* field) const {
  NodeHeader header;
  NATIX_RETURN_IF_ERROR(store_->ReadHeader(id_, &header));
  return StoredNode(store_, header.*field);
}

StatusOr<StoredNode> StoredNode::parent() const {
  return Link(&NodeHeader::parent);
}
StatusOr<StoredNode> StoredNode::first_child() const {
  return Link(&NodeHeader::first_child);
}
StatusOr<StoredNode> StoredNode::next_sibling() const {
  return Link(&NodeHeader::next_sibling);
}
StatusOr<StoredNode> StoredNode::prev_sibling() const {
  return Link(&NodeHeader::prev_sibling);
}
StatusOr<StoredNode> StoredNode::first_attribute() const {
  return Link(&NodeHeader::first_attr);
}

}  // namespace natix::storage
