#ifndef NATIX_ANALYSIS_PHYSICAL_MODEL_H_
#define NATIX_ANALYSIS_PHYSICAL_MODEL_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/operator.h"
#include "nvm/program.h"
#include "runtime/node_ops.h"
#include "runtime/register_file.h"

namespace natix::analysis {

/// How a physical operator propagates register definitions to its output
/// under the open/next protocol.
enum class PhysNodeKind : uint8_t {
  /// No children; output definitions = input definitions + writes
  /// (singleton scan).
  kLeaf,
  /// One child evaluated inline; output definitions = the child's
  /// definitions + writes (select, map, counter, unnest-map, unnest,
  /// dup-elim, sort, Tmp^cs, MemoX, id-deref).
  kPipeline,
  /// Two children; the second is (re-)opened per first-child tuple and
  /// sees its definitions. Output carries both sides' definitions
  /// (d-join, cross product).
  kDependent,
  /// Like kDependent, but only the first child's tuple survives to the
  /// output — the probe side's registers are scratch (semi-join,
  /// anti-join, binary grouping).
  kDependentLeft,
  /// One child drained entirely during Next; the output tuple defines
  /// only this node's writes on top of the node's *input* definitions
  /// (the aggregation operator's singleton output).
  kBarrier,
  /// Several children played back to back; downstream consumers may rely
  /// only on registers every branch defines (concat).
  kConcat,
};

const char* PhysNodeKindName(PhysNodeKind kind);

// ---------------------------------------------------------------------------
// Layer-4 resource effects
// ---------------------------------------------------------------------------

/// What kind of tuple spool (materialized state) an iterator keeps between
/// Next calls.
enum class SpoolKind : uint8_t {
  /// No materialized tuples.
  kNone,
  /// One context group at a time (Tmp^cs replay buffer): bounded by the
  /// largest group, must be dropped on Close.
  kGroup,
  /// The entire input (Sort rows, DupElim seen-sets): must be dropped on
  /// Close.
  kFull,
  /// A keyed memo that intentionally outlives Open/Close cycles within
  /// one execution context (MemoX table, chi^mat cache, id-deref
  /// indexes). Exempt from the release-on-close obligation; bounded by
  /// the execution context's lifetime instead.
  kMemo,
};

const char* SpoolKindName(SpoolKind kind);

/// How an iterator's Close() treats one of its children.
enum class ChildClose : uint8_t {
  /// CloseImpl leaves the child as it found it. Legal only if the child
  /// subtree holds no resources (cursors, spools).
  kNone,
  /// Whenever this node is Closed, the child ends closed — either
  /// CloseImpl forwards Close unconditionally, or the node tracks the
  /// child's open state and the guard covers every path (Limit, d-join
  /// right side, concat branches).
  kOnClose,
  /// The child is opened and closed entirely inside a single Next (or
  /// subscript evaluation) on every control path, including error paths
  /// — it is never open between calls, so an external Close never finds
  /// it open (semi/anti-join probe side, BinaryGroup right side, the
  /// aggregate's nested plan).
  kProbeContained,
};

const char* ChildCloseName(ChildClose mode);

/// The declared resource behaviour of one compiled iterator. The code
/// generator states these facts per operator it builds (mirroring the
/// iterator implementations in src/qe/); the Layer-4 verifier proves the
/// plan-wide consequences: page-pin balance, spool lifetime containment,
/// and Close-reachability on all control paths — including early Close
/// via Limit and deadline/cancel abort.
struct ResourceEffects {
  /// Holds a storage cursor (page pins via pinned PageHandles) between
  /// Next calls while active.
  bool holds_cursor = false;
  /// CloseImpl releases the cursor (drops its page pins).
  bool cursor_released_on_close = false;
  /// Materialized tuple state kept between Next calls.
  SpoolKind spool = SpoolKind::kNone;
  /// CloseImpl drops the spool (required for kGroup/kFull).
  bool spool_released_on_close = false;
  /// Per-child Close obligation; must match children.size().
  std::vector<ChildClose> child_close;
};

struct PhysNode;

/// A nested sequence-valued subplan evaluated by its host's subscript
/// (kEvalNested, Sec. 5.2.3) and reduced by an aggregate (Sec. 5.2.5).
struct NestedSite {
  std::unique_ptr<PhysNode> plan;
  /// The register the nested aggregate reads from each plan tuple.
  runtime::RegisterId input = 0;
  algebra::AggKind agg = algebra::AggKind::kExists;
  /// Index into the execution context's nested-plan table: the operand
  /// of the subscript's kEvalNested instruction.
  size_t slot = 0;
};

/// A runtime property-oracle wrapper (qe/property_oracle.h) over one
/// node's iterator. Recorded only when the plan is prepared with
/// verification enabled.
struct OracleSpec {
  runtime::RegisterId reg = 0;
  bool check_order = false;
  bool check_duplicate_free = false;
  /// The Limit contract: at most this many tuples per Open (0: none).
  uint64_t max_tuples = 0;
  std::string label;
};

/// Marks a node without a subscript program.
inline constexpr size_t kNoProgram = static_cast<size_t>(-1);

/// One operator of the lowered physical plan. The code generator lowers
/// the logical plan once, at Prepare; every execution context is then
/// built by walking these nodes (PlanTemplate::NewContext), and the
/// Layer-2 and Layer-4 verifiers walk the very same nodes. The register
/// footprint (reads, writes, row_regs) doubles as the iterator's
/// constructor arguments; the remaining fields are what construction
/// needs beyond it.
struct PhysNode {
  PhysNodeKind kind = PhysNodeKind::kPipeline;
  /// Diagnostic label, e.g. "UnnestMap" or "Map[c1@r3]".
  std::string label;
  /// Registers this iterator reads from each input tuple (subscript
  /// kLoadAttr operands, context/key/sort attributes). The operator's own
  /// operands come first, in constructor order.
  std::vector<runtime::RegisterId> reads;
  /// Registers this iterator writes per output tuple.
  std::vector<runtime::RegisterId> writes;
  /// The SaveRow/RestoreRow register list of materializing iterators.
  std::vector<runtime::RegisterId> row_regs;
  /// Declared resource behaviour (Layer-4 input).
  ResourceEffects effects;
  /// Input iterators, in evaluation order.
  std::vector<std::unique_ptr<PhysNode>> children;
  /// Nested subplans evaluated by this node's subscript.
  std::vector<NestedSite> nested;

  // -- Iterator construction ----------------------------------------------

  /// The iterator to build.
  algebra::OpKind op = algebra::OpKind::kSingletonScan;
  /// UnnestMap: the axis and the node test, its names already resolved
  /// against the store's name dictionary.
  runtime::Axis axis = runtime::Axis::kChild;
  runtime::NodeTest test;
  /// UnnestMap^rev: children from the last one backwards.
  bool reverse = false;
  /// UnnestMap^D: the step fused with the DupElim on its output, pruning
  /// its walk by its own seen-set.
  bool dedup = false;
  /// Aggregate, BinaryGroup: the aggregate function.
  algebra::AggKind agg = algebra::AggKind::kExists;
  /// Limit: the tuple cap.
  uint64_t limit = 0;
  /// Map: chi^mat, cached per binding of key_regs.
  bool materialize = false;
  /// Map^mat cache keys, MemoX memo keys.
  std::vector<runtime::RegisterId> key_regs;
  /// Index of the subscript program in PhysicalModel::programs, or
  /// kNoProgram.
  size_t program = kNoProgram;
  /// The EXPLAIN ANALYZE label of the node's stats entry.
  std::string stats_label;
  /// Oracle wrappers, innermost first.
  std::vector<OracleSpec> oracles;
};

using PhysNodePtr = std::unique_ptr<PhysNode>;

/// One lowered plan: the operator tree, the register file layout, and
/// the table of NVM subscript programs its nodes index (which Layer 3
/// verifies and every execution borrows).
struct PhysicalModel {
  PhysNodePtr root;
  /// Size of the plan-wide register file.
  size_t register_count = 0;
  /// Registers bound by the execution context before Open, in the order
  /// cn, cp0, cs0.
  std::vector<runtime::RegisterId> context_regs;
  /// Register the plan's result is read from.
  runtime::RegisterId result_reg = 0;
  /// Size of the plan's nested-iterator table (bounds kEvalNested).
  size_t nested_count = 0;
  /// Subscript programs with their site labels.
  std::vector<std::pair<std::string, nvm::Program>> programs;
};

}  // namespace natix::analysis

#endif  // NATIX_ANALYSIS_PHYSICAL_MODEL_H_
