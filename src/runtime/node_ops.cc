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

bool MatchesNodeTest(const NodeHeader& record, const NodeTest& test,
                     bool principal_is_attribute) {
  StoredNodeKind principal = principal_is_attribute
                                 ? StoredNodeKind::kAttribute
                                 : StoredNodeKind::kElement;
  switch (test.kind) {
    case NodeTest::Kind::kName:
      return record.kind == principal && record.name_id == test.name_id &&
             test.name_id != storage::kInvalidNameId;
    case NodeTest::Kind::kAnyName:
      return record.kind == principal;
    case NodeTest::Kind::kText:
      return record.kind == StoredNodeKind::kText;
    case NodeTest::Kind::kComment:
      return record.kind == StoredNodeKind::kComment;
    case NodeTest::Kind::kPi:
      return record.kind == StoredNodeKind::kProcessingInstruction;
    case NodeTest::Kind::kPiTarget:
      return record.kind == StoredNodeKind::kProcessingInstruction &&
             record.name_id == test.name_id &&
             test.name_id != storage::kInvalidNameId;
    case NodeTest::Kind::kAnyKind:
      return true;
  }
  return false;
}

Status AxisCursor::Open(Axis axis, const NodeTest& test, NodeId context,
                        bool reverse) {
  axis_ = axis;
  reverse_ = reverse && axis == Axis::kChild;
  test_ = test;
  context_ = context;
  principal_is_attribute_ = axis == Axis::kAttribute;
  current_ = kInvalidNodeId;
  subtree_root_ = kInvalidNodeId;
  skip_ancestor_ = kInvalidNodeId;
  done_ = !context.valid();
  first_ = true;
  return Status::OK();
}

StatusOr<NodeId> AxisCursor::DeepestLast(NodeId node) {
  NodeHeader record;
  while (true) {
    NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(node, &record));
    if (!record.last_child.valid()) return node;
    node = record.last_child;
  }
}

Status AxisCursor::Step() {
  // Produces the next raw node of the axis walk into current_/record_, or
  // sets done_. All per-axis iteration logic lives here; Next() applies
  // the node test on top.
  NodeHeader ctx_record;

  if (first_) {
    first_ = false;
    NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(context_, &ctx_record));
    const bool ctx_is_attribute =
        ctx_record.kind == StoredNodeKind::kAttribute;
    switch (axis_) {
      case Axis::kSelf:
        current_ = context_;
        record_ = ctx_record;
        return Status::OK();
      case Axis::kChild:
        current_ = ctx_is_attribute ? kInvalidNodeId
                   : reverse_       ? ctx_record.last_child
                                    : ctx_record.first_child;
        break;
      case Axis::kAttribute:
        current_ = ctx_record.first_attr;
        break;
      case Axis::kParent:
      case Axis::kAncestor:
        current_ = ctx_record.parent;
        break;
      case Axis::kAncestorOrSelf:
        current_ = context_;
        record_ = ctx_record;
        return Status::OK();
      case Axis::kDescendantOrSelf:
        subtree_root_ = context_;
        current_ = context_;
        record_ = ctx_record;
        return Status::OK();
      case Axis::kDescendant:
        subtree_root_ = context_;
        current_ = ctx_is_attribute ? kInvalidNodeId : ctx_record.first_child;
        break;
      case Axis::kFollowingSibling:
        current_ =
            ctx_is_attribute ? kInvalidNodeId : ctx_record.next_sibling;
        break;
      case Axis::kPrecedingSibling:
        current_ =
            ctx_is_attribute ? kInvalidNodeId : ctx_record.prev_sibling;
        break;
      case Axis::kFollowing: {
        if (ctx_is_attribute) {
          // Following of an attribute starts with the owning element's
          // subtree (those nodes are after the attribute in document
          // order and are not its descendants).
          NodeHeader owner;
          NATIX_RETURN_IF_ERROR(
              nodes_->ReadHeader(ctx_record.parent, &owner));
          if (owner.first_child.valid()) {
            current_ = owner.first_child;
            break;
          }
          // Fall through to climbing from the owner.
          ctx_record = owner;
        }
        // Skip the context subtree: climb until a next sibling exists.
        NodeHeader walk = ctx_record;
        current_ = kInvalidNodeId;
        while (true) {
          if (walk.next_sibling.valid()) {
            current_ = walk.next_sibling;
            break;
          }
          if (!walk.parent.valid()) break;
          NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(walk.parent, &walk));
        }
        break;
      }
      case Axis::kPreceding: {
        NodeId base = ctx_is_attribute ? ctx_record.parent : context_;
        NodeHeader base_record;
        NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(base, &base_record));
        skip_ancestor_ = base_record.parent;
        // Position the walk at `base` and run the common reverse step
        // below by falling into the !first_ path.
        current_ = base;
        record_ = base_record;
        return Step();  // not first_ anymore: performs one reverse step
      }
    }
    if (!current_.valid()) {
      done_ = true;
      return Status::OK();
    }
    return nodes_->ReadHeader(current_, &record_);
  }

  // Subsequent steps.
  switch (axis_) {
    case Axis::kSelf:
    case Axis::kParent:
      done_ = true;
      return Status::OK();
    case Axis::kChild:
      current_ = reverse_ ? record_.prev_sibling : record_.next_sibling;
      break;
    case Axis::kAttribute:
    case Axis::kFollowingSibling:
      current_ = record_.next_sibling;
      break;
    case Axis::kPrecedingSibling:
      current_ = record_.prev_sibling;
      break;
    case Axis::kAncestor:
    case Axis::kAncestorOrSelf:
      current_ = record_.parent;
      break;
    case Axis::kDescendant:
    case Axis::kDescendantOrSelf: {
      // Preorder within the subtree, using parent links to climb out of
      // exhausted branches (no explicit stack).
      if (record_.first_child.valid()) {
        current_ = record_.first_child;
        break;
      }
      NodeId node = current_;
      NodeHeader record = record_;
      current_ = kInvalidNodeId;
      while (node != subtree_root_) {
        if (record.next_sibling.valid()) {
          current_ = record.next_sibling;
          break;
        }
        node = record.parent;
        if (!node.valid()) break;
        NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(node, &record));
      }
      break;
    }
    case Axis::kFollowing: {
      // Unbounded preorder successor: descend first, else climb.
      if (record_.first_child.valid()) {
        current_ = record_.first_child;
        break;
      }
      NodeId node = current_;
      NodeHeader record = record_;
      current_ = kInvalidNodeId;
      while (true) {
        if (record.next_sibling.valid()) {
          current_ = record.next_sibling;
          break;
        }
        node = record.parent;
        if (!node.valid()) break;
        NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(node, &record));
      }
      break;
    }
    case Axis::kPreceding: {
      // Reverse preorder, skipping ancestors of the context.
      while (true) {
        if (record_.prev_sibling.valid()) {
          NATIX_ASSIGN_OR_RETURN(current_, DeepestLast(record_.prev_sibling));
          NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(current_, &record_));
          return Status::OK();
        }
        current_ = record_.parent;
        if (!current_.valid()) {
          done_ = true;
          return Status::OK();
        }
        NATIX_RETURN_IF_ERROR(nodes_->ReadHeader(current_, &record_));
        if (current_ == skip_ancestor_) {
          skip_ancestor_ = record_.parent;
          continue;  // ancestors are excluded from the preceding axis
        }
        return Status::OK();
      }
    }
  }

  if (!current_.valid()) {
    done_ = true;
    return Status::OK();
  }
  return nodes_->ReadHeader(current_, &record_);
}

Status AxisCursor::Next(bool* has, NodeRef* out) {
  *has = false;
  while (!done_) {
    NATIX_RETURN_IF_ERROR(Step());
    if (done_) break;
    if (MatchesNodeTest(record_, test_, principal_is_attribute_)) {
      *has = true;
      *out = NodeRef::Make(current_, record_.order);
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace natix::runtime
