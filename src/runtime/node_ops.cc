#include "runtime/node_ops.h"

namespace natix::runtime {

using storage::kInvalidNodeId;
using storage::NodeId;
using storage::NodeHeader;
using storage::StoredNodeKind;

const char* AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowing:
      return "following";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPreceding:
      return "preceding";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kSelf:
      return "self";
  }
  return "?";
}

bool AxisIsReverse(Axis axis) {
  switch (axis) {
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kPreceding:
    case Axis::kPrecedingSibling:
      return true;
    default:
      return false;
  }
}

bool AxisIsPpd(Axis axis) {
  // Sec. 4.1: following, following-sibling, preceding, preceding-sibling,
  // parent, ancestor, ancestor-or-self, descendant, descendant-or-self.
  switch (axis) {
    case Axis::kFollowing:
    case Axis::kFollowingSibling:
    case Axis::kPreceding:
    case Axis::kPrecedingSibling:
    case Axis::kParent:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
      return true;
    case Axis::kChild:
    case Axis::kAttribute:
    case Axis::kSelf:
      return false;
  }
  return false;
}

bool AxisPrunesByDedup(Axis axis) {
  switch (axis) {
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf:
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
    case Axis::kFollowing:
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling:
      return true;
    case Axis::kPreceding:
    case Axis::kParent:
    case Axis::kChild:
    case Axis::kAttribute:
    case Axis::kSelf:
      return false;
  }
  return false;
}

std::string NodeTest::DebugString(
    const storage::NameDictionary* names) const {
  switch (kind) {
    case Kind::kName:
      return names != nullptr && name_id != storage::kInvalidNameId
                 ? names->NameOf(name_id)
                 : "name#" + std::to_string(name_id);
    case Kind::kAnyName:
      return "*";
    case Kind::kText:
      return "text()";
    case Kind::kComment:
      return "comment()";
    case Kind::kPi:
      return "processing-instruction()";
    case Kind::kPiTarget:
      return "processing-instruction(" +
             (names != nullptr && name_id != storage::kInvalidNameId
                  ? names->NameOf(name_id)
                  : std::to_string(name_id)) +
             ")";
    case Kind::kAnyKind:
      return "node()";
  }
  return "?";
}

Status AxisCursor::Open(Axis axis, const NodeTest& test, NodeId context,
                        bool reverse) {
  walk_ = Walk::kDone;
  down_ = right_ = up_ = kInvalidNodeId;
  subtree_root_ = skip_ancestor_ = kInvalidNodeId;
  if (!context.valid()) return Status::OK();

  // Resolve the test to a key over (kind << 32 | name id). The principal
  // node kind is attribute on the attribute axis, element elsewhere.
  constexpr uint64_t kKindMask = uint64_t{0xFF} << 32;
  constexpr uint64_t kKeyMask = kKindMask | 0xFFFFFFFF;
  auto kind_key = [](StoredNodeKind kind) {
    return uint64_t{static_cast<uint8_t>(kind)} << 32;
  };
  const StoredNodeKind principal = axis == Axis::kAttribute
                                       ? StoredNodeKind::kAttribute
                                       : StoredNodeKind::kElement;
  test_mask_ = kKindMask;
  switch (test.kind) {
    case NodeTest::Kind::kName:
    case NodeTest::Kind::kPiTarget:
      // A name absent from the dictionary matches nothing.
      if (test.name_id == storage::kInvalidNameId) return Status::OK();
      test_mask_ = kKeyMask;
      test_key_ = kind_key(test.kind == NodeTest::Kind::kName
                               ? principal
                               : StoredNodeKind::kProcessingInstruction) |
                  test.name_id;
      break;
    case NodeTest::Kind::kAnyName:
      test_key_ = kind_key(principal);
      break;
    case NodeTest::Kind::kText:
      test_key_ = kind_key(StoredNodeKind::kText);
      break;
    case NodeTest::Kind::kComment:
      test_key_ = kind_key(StoredNodeKind::kComment);
      break;
    case NodeTest::Kind::kPi:
      test_key_ = kind_key(StoredNodeKind::kProcessingInstruction);
      break;
    case NodeTest::Kind::kAnyKind:
      test_mask_ = 0;
      test_key_ = 0;
      break;
  }
  const uint64_t nodes = nodes_->node_count();
  reads_left_ = nodes > UINT64_MAX / 2 ? UINT64_MAX : 2 * nodes;

  // Self, ancestor-or-self and descendant-or-self start at the context
  // itself; every other walk starts from a link of its header.
  switch (axis) {
    case Axis::kSelf:
      down_ = context;
      walk_ = Walk::kUpwardOnce;
      return Status::OK();
    case Axis::kAncestorOrSelf:
      down_ = context;
      walk_ = Walk::kUpward;
      return Status::OK();
    case Axis::kDescendantOrSelf:
      down_ = subtree_root_ = context;
      walk_ = Walk::kPreorder;
      return Status::OK();
    default:
      break;
  }
  NodeHeader ctx;
  NATIX_RETURN_IF_ERROR(Read(context, &ctx));
  // Attributes have no children and no siblings on the tree axes.
  const bool ctx_is_attribute = ctx.kind == StoredNodeKind::kAttribute;
  switch (axis) {
    case Axis::kChild:
      if (!ctx_is_attribute) {
        down_ = reverse ? ctx.last_child : ctx.first_child;
      }
      walk_ = reverse ? Walk::kReverseSiblings : Walk::kSiblings;
      break;
    case Axis::kAttribute:
      down_ = ctx.first_attr;
      walk_ = Walk::kSiblings;
      break;
    case Axis::kFollowingSibling:
      if (!ctx_is_attribute) down_ = ctx.next_sibling;
      walk_ = Walk::kSiblings;
      break;
    case Axis::kPrecedingSibling:
      if (!ctx_is_attribute) down_ = ctx.prev_sibling;
      walk_ = Walk::kReverseSiblings;
      break;
    case Axis::kParent:
      down_ = ctx.parent;
      walk_ = Walk::kUpwardOnce;
      break;
    case Axis::kAncestor:
      down_ = ctx.parent;
      walk_ = Walk::kUpward;
      break;
    case Axis::kDescendant:
      subtree_root_ = context;
      if (!ctx_is_attribute) down_ = ctx.first_child;
      walk_ = Walk::kPreorder;
      break;
    case Axis::kFollowing:
      // Everything after the context's subtree in document order; for an
      // attribute, that starts with the owning element's children.
      if (ctx_is_attribute) {
        NodeId owner = ctx.parent;
        NATIX_RETURN_IF_ERROR(Read(owner, &ctx));
        down_ = ctx.first_child;
      }
      right_ = ctx.next_sibling;
      up_ = ctx.parent;
      walk_ = Walk::kPreorder;
      break;
    case Axis::kPreceding: {
      // Everything before the context in document order except its
      // ancestors; an attribute's owner is one of them.
      if (ctx_is_attribute) {
        NodeId owner = ctx.parent;
        NATIX_RETURN_IF_ERROR(Read(owner, &ctx));
      }
      down_ = ctx.prev_sibling;
      up_ = skip_ancestor_ = ctx.parent;
      walk_ = Walk::kPreceding;
      break;
    }
    case Axis::kSelf:
    case Axis::kAncestorOrSelf:
    case Axis::kDescendantOrSelf:
      break;  // handled above
  }
  return Status::OK();
}

Status AxisCursor::LinkCycle() const {
  return Status::Corruption(
      "axis walk read more nodes than the store holds: a link cycle");
}

template <bool kReverse>
Status AxisCursor::NextSibling(bool* has, NodeRef* out) {
  NodeId node = down_;
  while (node.valid()) {
    NodeHeader h;
    NATIX_RETURN_IF_ERROR(Read(node, &h));
    const NodeId visited = node;
    node = kReverse ? h.prev_sibling : h.next_sibling;
    if (Passes(h)) {
      down_ = node;
      *has = true;
      *out = NodeRef::Make(visited, h.order);
      return Status::OK();
    }
  }
  down_ = kInvalidNodeId;
  *has = false;
  return Status::OK();
}

Status AxisCursor::NextPreorder(bool* has, NodeRef* out) {
  NodeId down = down_;
  NodeId right = right_;
  NodeId up = up_;
  while (true) {
    NodeId node = down.valid() ? down : right;
    // The subtree is finished: climb to the first ancestor with a next
    // sibling, never past the subtree root.
    while (!node.valid() && up.valid() && up != subtree_root_) {
      NodeHeader a;
      NATIX_RETURN_IF_ERROR(Read(up, &a));
      node = a.next_sibling;
      up = a.parent;
    }
    if (!node.valid()) break;
    NodeHeader h;
    NATIX_RETURN_IF_ERROR(Read(node, &h));
    down = h.first_child;
    if (node == subtree_root_) {
      right = up = kInvalidNodeId;
    } else {
      right = h.next_sibling;
      up = h.parent;
    }
    if (Passes(h)) {
      down_ = down;
      right_ = right;
      up_ = up;
      *has = true;
      *out = NodeRef::Make(node, h.order);
      return Status::OK();
    }
  }
  down_ = right_ = up_ = kInvalidNodeId;
  *has = false;
  return Status::OK();
}

template <bool kOnce>
Status AxisCursor::NextUpward(bool* has, NodeRef* out) {
  NodeId node = down_;
  while (node.valid()) {
    NodeHeader h;
    NATIX_RETURN_IF_ERROR(Read(node, &h));
    const NodeId visited = node;
    node = kOnce ? kInvalidNodeId : h.parent;
    if (Passes(h)) {
      down_ = node;
      *has = true;
      *out = NodeRef::Make(visited, h.order);
      return Status::OK();
    }
  }
  down_ = kInvalidNodeId;
  *has = false;
  return Status::OK();
}

Status AxisCursor::NextPreceding(bool* has, NodeRef* out) {
  NodeId prev = down_;
  NodeId up = up_;
  while (true) {
    NodeId node;
    NodeHeader h;
    if (prev.valid()) {
      // The previous sibling's subtree ends, in document order, with its
      // deepest last descendant: reverse preorder starts there.
      node = prev;
      NATIX_RETURN_IF_ERROR(Read(node, &h));
      while (h.last_child.valid()) {
        node = h.last_child;
        NATIX_RETURN_IF_ERROR(Read(node, &h));
      }
    } else if (up.valid()) {
      node = up;
      NATIX_RETURN_IF_ERROR(Read(node, &h));
      if (node == skip_ancestor_) {
        // An ancestor of the context: not on the axis, but its preceding
        // siblings are.
        skip_ancestor_ = h.parent;
        prev = h.prev_sibling;
        up = h.parent;
        continue;
      }
    } else {
      break;
    }
    prev = h.prev_sibling;
    up = h.parent;
    if (Passes(h)) {
      down_ = prev;
      up_ = up;
      *has = true;
      *out = NodeRef::Make(node, h.order);
      return Status::OK();
    }
  }
  down_ = up_ = kInvalidNodeId;
  *has = false;
  return Status::OK();
}

StatusOr<NodeRef> RootOf(storage::NodeAccessor* nodes, NodeId node) {
  NodeHeader h;
  for (uint64_t left = nodes->node_count(); left > 0; --left) {
    NATIX_RETURN_IF_ERROR(nodes->ReadHeader(node, &h));
    if (!h.parent.valid()) return NodeRef::Make(node, h.order);
    node = h.parent;
  }
  return Status::Corruption(
      "root climb read more nodes than the store holds: a link cycle");
}

StatusOr<NodeRef> AttributeNamed(storage::NodeAccessor* nodes,
                                 NodeId element, uint32_t name_id) {
  AxisCursor attrs(nodes);
  NodeTest test;
  test.kind = NodeTest::Kind::kName;
  test.name_id = name_id;
  NATIX_RETURN_IF_ERROR(attrs.Open(Axis::kAttribute, test, element));
  bool has = false;
  NodeRef attr;
  NATIX_RETURN_IF_ERROR(attrs.Next(&has, &attr));
  return has ? attr : NodeRef{};
}

}  // namespace natix::runtime
