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

/// Whether `header` passes `test` on an axis whose principal node type is
/// attribute (`principal_is_attribute`) or element.
bool MatchesNodeTest(const storage::NodeHeader& header, const NodeTest& test,
                     bool principal_is_attribute);

/// Streaming cursor over one axis from one context node, filtered by a
/// node test — the storage-level navigation primitive behind the
/// unnest-map operator and the NVM navigation commands (Sec. 5.2.2).
///
/// Nodes are produced in axis order: document order for forward axes,
/// reverse document order for reverse axes. A step reads O(1) node
/// headers (descendant walks use parent links, and reverse walks use the
/// stored last-child links), each through the execution's page set: a
/// header on a page of the set costs no buffer-manager call. The cursor
/// itself holds only its position (decoded header copies), never a pin.
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
  Status Next(bool* has, NodeRef* out);

  /// Descendant axes: the walk does not enter the subtree of the node
  /// Next produced last; it goes on with that node's following sibling.
  void SkipChildren() { record_.first_child = storage::kInvalidNodeId; }

 private:
  /// Advances the raw axis walk by one node (pre node-test), storing it in
  /// current_/record_. Sets done_ when exhausted.
  Status Step();

  /// Deepest last descendant of `node` (the node itself if childless).
  StatusOr<storage::NodeId> DeepestLast(storage::NodeId node);

  storage::NodeAccessor* nodes_;
  Axis axis_ = Axis::kSelf;
  bool reverse_ = false;
  NodeTest test_;
  bool principal_is_attribute_ = false;

  storage::NodeId context_;
  storage::NodeId current_;
  storage::NodeHeader record_;       // header of current_
  bool done_ = true;
  bool first_ = true;
  /// For kDescendant*: the subtree root we must not escape.
  storage::NodeId subtree_root_;
  /// For kPreceding: the next ancestor of the context to skip.
  storage::NodeId skip_ancestor_;
};

/// Document-order comparison key of a node reference (smaller == earlier).
inline uint64_t DocOrderKey(const NodeRef& node) { return node.order; }

}  // namespace natix::runtime

#endif  // NATIX_RUNTIME_NODE_OPS_H_
