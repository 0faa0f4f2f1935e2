#ifndef NATIX_RUNTIME_NODE_OPS_H_
#define NATIX_RUNTIME_NODE_OPS_H_

#include <cstdint>
#include <string>

#include "base/status.h"
#include "base/statusor.h"
#include "runtime/node_ref.h"
#include "storage/node_store.h"

namespace natix::runtime {

/// The thirteen XPath axes. The namespace axis is not supported (this
/// build, like the paper's evaluation, does not materialize namespace
/// nodes); the compiler rejects it with kNotSupported.
enum class Axis : uint8_t {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowing,
  kFollowingSibling,
  kPreceding,
  kPrecedingSibling,
  kAttribute,
  kSelf
};

const char* AxisName(Axis axis);

/// True for reverse axes: their natural iteration order — the order the
/// AxisCursor produces, and the order position() counts in — is reverse
/// document order.
bool AxisIsReverse(Axis axis);

/// ppd classification of Sec. 4.1: axes whose step output can contain
/// duplicates (given duplicate-free input) or break document order.
bool AxisIsPpd(Axis axis);

/// Whether a step on `axis` fused with the duplicate elimination above it
/// (the unnest-map Upsilon^D) may prune its walk at a node it emitted
/// before. On these axes what a walk visits after a node n depends on n
/// alone, so the earlier walk that emitted n went on over all of it. A
/// descendant walk also stays inside its context's subtree, so only n's
/// subtree is skipped there; the other axes end the walk at n. Not
/// preceding: the rest of its walk leaves out the context's ancestors,
/// which differ between contexts. Parent and self walks end after one
/// node anyway; child and attribute steps produce no duplicates.
bool AxisPrunesByDedup(Axis axis);

/// A compiled node test. Names are resolved to dictionary ids at compile
/// time; a name absent from the dictionary can never match.
struct NodeTest {
  enum class Kind : uint8_t {
    kName,      // name test: element/attribute name equals name_id
    kAnyName,   // "*": any node of the axis' principal node type
    kText,      // text()
    kComment,   // comment()
    kPi,        // processing-instruction()
    kPiTarget,  // processing-instruction('target')
    kAnyKind    // node()
  };
  Kind kind = Kind::kAnyKind;
  uint32_t name_id = storage::kInvalidNameId;

  std::string DebugString(const storage::NameDictionary* names) const;
};

/// Streaming cursor over one axis from one context node, filtered by a
/// node test: the storage-level navigation primitive behind the
/// unnest-map operator, the NVM step loops and the id() index
/// (Sec. 5.2.2).
///
/// Nodes are produced in axis order: document order for forward axes,
/// reverse document order for reverse axes. Open picks one of four walks
/// (axis kernels), each a tight loop in Next:
///   - siblings: child (forward or reverse), attribute, following- and
///     preceding-sibling follow one sibling link;
///   - preorder: descendant, descendant-or-self and following go down
///     first-child links and climb parent links out of finished
///     subtrees;
///   - upward: parent, ancestor, ancestor-or-self (and self) follow
///     parent links;
///   - preceding: reverse preorder through previous-sibling links and
///     deepest-last-child descents, skipping the context's ancestors.
/// Each loop decodes a node into a local header, so the inlined read
/// loads only the fields that loop uses, and tests it against the node
/// test resolved at Open to a (kind, name) key. A step reads O(1) node
/// headers, each through the execution's page set. The cursor keeps only
/// its walk position, never a header copy or a pin.
///
/// A walk reads each node's header at most twice (once when it moves
/// onto the node, once when it climbs back through it), so a walk that
/// reads more than twice the store's node count is following a link
/// cycle: Next returns Corruption instead of running forever.
class AxisCursor {
 public:
  explicit AxisCursor(storage::NodeAccessor* nodes) : nodes_(nodes) {}

  /// (Re)positions the cursor at `context` for `axis`/`test`. With
  /// `reverse` (child axis only) the children are produced from the last
  /// one backwards, following the stored last-child and previous-sibling
  /// links.
  Status Open(Axis axis, const NodeTest& test, storage::NodeId context,
              bool reverse = false);

  /// Produces the next matching node. Sets *has to false at the end.
  Status Next(bool* has, NodeRef* out) {
    switch (walk_) {
      case Walk::kSiblings:
        return NextSibling<false>(has, out);
      case Walk::kReverseSiblings:
        return NextSibling<true>(has, out);
      case Walk::kPreorder:
        return NextPreorder(has, out);
      case Walk::kUpward:
        return NextUpward<false>(has, out);
      case Walk::kUpwardOnce:
        return NextUpward<true>(has, out);
      case Walk::kPreceding:
        return NextPreceding(has, out);
      case Walk::kDone:
        break;
    }
    *has = false;
    return Status::OK();
  }

  /// Descendant axes: the walk does not enter the subtree of the node
  /// Next produced last; it goes on with that node's following sibling.
  void SkipChildren() { down_ = storage::kInvalidNodeId; }

 private:
  enum class Walk : uint8_t {
    kDone,
    kSiblings,
    kReverseSiblings,
    kPreorder,
    kUpward,
    kUpwardOnce,  // self and parent: the first node of an upward walk
    kPreceding
  };

  /// Whether `header` passes the node test resolved at Open.
  bool Passes(const storage::NodeHeader& header) const {
    const uint64_t key = uint64_t{static_cast<uint8_t>(header.kind)} << 32 |
                         header.name_id;
    return (key & test_mask_) == test_key_;
  }

  /// Reads `node`'s header, charging one read against the walk's bound.
  [[gnu::always_inline]] Status Read(storage::NodeId node,
                                     storage::NodeHeader* header) {
    if (reads_left_ == 0) [[unlikely]] return LinkCycle();
    --reads_left_;
    return nodes_->ReadHeader(node, header);
  }
  Status LinkCycle() const;

  template <bool kReverse>
  Status NextSibling(bool* has, NodeRef* out);
  Status NextPreorder(bool* has, NodeRef* out);
  template <bool kOnce>
  Status NextUpward(bool* has, NodeRef* out);
  Status NextPreceding(bool* has, NodeRef* out);

  storage::NodeAccessor* nodes_;
  Walk walk_ = Walk::kDone;
  /// The node test as a key over (kind << 32 | name id) and the mask
  /// applied before comparing: node() masks everything, "*" and the kind
  /// tests mask the name.
  uint64_t test_key_ = 0;
  uint64_t test_mask_ = 0;
  uint64_t reads_left_ = 0;

  /// The next node to visit (sibling and upward walks), or the walk's
  /// next move down: the first child of the node visited last (preorder)
  /// or the previous sibling to descend from (preceding).
  storage::NodeId down_;
  /// Preorder: the next sibling of the node visited last.
  storage::NodeId right_;
  /// Preorder and preceding: the parent of the node visited last.
  storage::NodeId up_;
  /// Descendant axes: the context, whose subtree the walk never leaves.
  storage::NodeId subtree_root_;
  /// Preceding: the next ancestor of the context to skip.
  storage::NodeId skip_ancestor_;
};

/// The root of `node`'s tree: its topmost ancestor-or-self, the
/// document node of a loaded document. Corruption when the climb reads
/// more headers than the store has nodes (a parent-link cycle).
StatusOr<NodeRef> RootOf(storage::NodeAccessor* nodes, storage::NodeId node);

/// The first attribute of `element` named `name_id`, or an invalid ref.
StatusOr<NodeRef> AttributeNamed(storage::NodeAccessor* nodes,
                                 storage::NodeId element, uint32_t name_id);

/// Document-order comparison key of a node reference (smaller == earlier).
inline uint64_t DocOrderKey(const NodeRef& node) { return node.order; }

}  // namespace natix::runtime

#endif  // NATIX_RUNTIME_NODE_OPS_H_
