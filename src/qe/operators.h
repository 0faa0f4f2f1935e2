#ifndef NATIX_QE_OPERATORS_H_
#define NATIX_QE_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "qe/iterator.h"
#include "qe/subscripts.h"
#include "runtime/node_id_set.h"
#include "runtime/node_ops.h"

namespace natix::qe {

// ---------------------------------------------------------------------------
// Scan / pipeline operators
// ---------------------------------------------------------------------------

/// The singleton scan (Fig. 1): one empty tuple.
class SingletonScanIterator : public Iterator {
 public:
  Status OpenImpl() override {
    done_ = false;
    return Status::OK();
  }
  Status NextImpl(bool* has) override {
    *has = !done_;
    done_ = true;
    return Status::OK();
  }
  Status CloseImpl() override { return Status::OK(); }

 private:
  bool done_ = true;
};

/// Selection sigma_p.
class SelectIterator : public Iterator {
 public:
  SelectIterator(IteratorPtr child, SubscriptPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  Status OpenImpl() override { return child_->Open(); }
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  IteratorPtr child_;
  SubscriptPtr predicate_;
};

/// Map chi_{a := subscript}; with `materialize` it is the chi^mat of
/// Sec. 4.3.2: results are cached per distinct binding of the
/// subscript's free attributes (Hellerstein/Naughton-style caching of
/// expensive predicates).
class MapIterator : public Iterator {
 public:
  MapIterator(ExecutionContext* state, IteratorPtr child, SubscriptPtr subscript,
              runtime::RegisterId out, bool materialize,
              std::vector<runtime::RegisterId> key_regs)
      : state_(state),
        child_(std::move(child)),
        subscript_(std::move(subscript)),
        out_(out),
        materialize_(materialize),
        key_regs_(std::move(key_regs)) {}
  Status OpenImpl() override { return child_->Open(); }
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  ExecutionContext* state_;
  IteratorPtr child_;
  SubscriptPtr subscript_;
  runtime::RegisterId out_;
  bool materialize_;
  std::vector<runtime::RegisterId> key_regs_;
  std::unordered_map<std::string, runtime::Value> cache_;
};

/// The position counter chi_{cp := counter++} (Sec. 3.3.3), resetting
/// whenever the reset attribute's value changes (Sec. 4.3.1) — or only on
/// Open when there is no reset attribute (canonical translation / filter
/// expressions).
class CounterIterator : public Iterator {
 public:
  CounterIterator(ExecutionContext* state, IteratorPtr child,
                  runtime::RegisterId out,
                  std::optional<runtime::RegisterId> reset_reg)
      : state_(state),
        child_(std::move(child)),
        out_(out),
        reset_reg_(reset_reg) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  ExecutionContext* state_;
  IteratorPtr child_;
  runtime::RegisterId out_;
  std::optional<runtime::RegisterId> reset_reg_;
  uint64_t counter_ = 0;
  std::string last_key_;
  bool have_key_ = false;
};

/// Limit: passes the first `limit` tuples through, then reports
/// exhaustion and closes the input pipeline immediately — the
/// whole-query analogue of the smart-aggregation early exit
/// (Sec. 5.2.5) for positional predicates. The early Close() cascades
/// down to the page scans feeding the pipeline; `early_exits` counts
/// every time the cap fired before the child reported exhaustion
/// itself.
class LimitIterator : public Iterator {
 public:
  LimitIterator(IteratorPtr child, uint64_t limit)
      : child_(std::move(child)), limit_(limit) {}
  Status OpenImpl() override {
    count_ = 0;
    child_open_ = true;
    return child_->Open();
  }
  Status NextImpl(bool* has) override;
  Status CloseImpl() override {
    if (!child_open_) return Status::OK();
    child_open_ = false;
    return child_->Close();
  }

 private:
  IteratorPtr child_;
  uint64_t limit_;
  uint64_t count_ = 0;
  bool child_open_ = false;
};

/// The unnest-map Upsilon_{a := c/axis::test} (Sec. 3.2): the location
/// step. Streams the axis nodes of each input tuple's context node,
/// navigating the page buffer directly.
///
/// With `dedup` it is Upsilon^D, the step fused with the duplicate
/// elimination Pi^D[a] above it (AxisPrunesByDedup, runtime/node_ops.h). It
/// emits only the first occurrence of each node, and every node in its
/// seen-set was emitted by a walk that went on over the node's whole
/// closure since Open. So a descendant walk skips a context, and the
/// subtree of a produced node, already in the set; the other pruned axes
/// end a context's walk at the first node in the set. The output is
/// Pi^D's, tuple for tuple.
class UnnestMapIterator : public Iterator {
 public:
  UnnestMapIterator(ExecutionContext* state, IteratorPtr child,
                    runtime::RegisterId ctx, runtime::RegisterId out,
                    runtime::Axis axis, runtime::NodeTest test,
                    bool reverse, bool dedup);
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  /// Deactivates the axis cursor before closing the child, so the
  /// resource ledger sees it inactive after an early Close via Limit or
  /// a deadline/cancel abort. The cursor holds no pins: pages stay in the
  /// execution's page set until the Evaluate* call returns. Upsilon^D
  /// also drops its seen-set (spool containment).
  Status CloseImpl() override;

 private:
  /// Deactivates the cursor, updating the resource ledger.
  void ReleaseCursor();
  /// Empties the seen-set, updating the resource ledger.
  void DropSeen();

  ExecutionContext* state_;
  IteratorPtr child_;
  runtime::RegisterId ctx_;
  runtime::RegisterId out_;
  runtime::Axis axis_;
  runtime::NodeTest test_;
  bool reverse_;
  bool dedup_;
  /// Upsilon^D on a descendant axis: prune by skipping subtrees rather
  /// than by ending the walk.
  bool skip_subtrees_;
  runtime::AxisCursor cursor_;
  bool cursor_active_ = false;
  runtime::NodeIdSet seen_;
};

/// Concatenation ⊕ of several inputs.
class ConcatIterator : public Iterator {
 public:
  explicit ConcatIterator(std::vector<IteratorPtr> children)
      : children_(std::move(children)) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  Status CloseImpl() override;

 private:
  std::vector<IteratorPtr> children_;
  size_t current_ = 0;
  bool open_ = false;
};

// ---------------------------------------------------------------------------
// Join operators
// ---------------------------------------------------------------------------

/// The d-join e1 < e2 > (Sec. 3.1.1): for every left tuple the dependent
/// right side is re-opened, reading the left tuple's attributes as free
/// variables. Also serves as the cross product when the right side is
/// independent.
class DJoinIterator : public Iterator {
 public:
  DJoinIterator(IteratorPtr left, IteratorPtr right)
      : left_(std::move(left)), right_(std::move(right)) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  Status CloseImpl() override;

 private:
  IteratorPtr left_;
  IteratorPtr right_;
  bool right_open_ = false;
};

/// Semi-join (kSemi) and anti-join (kAnti) with existential predicate
/// check over the dependent right side; the probe stops at the first
/// match (Sec. 5.2.5 applies to the embedded existence test).
class SemiJoinIterator : public Iterator {
 public:
  enum class Mode { kSemi, kAnti };
  SemiJoinIterator(Mode mode, IteratorPtr left, IteratorPtr right,
                   SubscriptPtr predicate)
      : mode_(mode),
        left_(std::move(left)),
        right_(std::move(right)),
        predicate_(std::move(predicate)) {}
  Status OpenImpl() override { return left_->Open(); }
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return left_->Close(); }

 private:
  Mode mode_;
  IteratorPtr left_;
  IteratorPtr right_;
  SubscriptPtr predicate_;
};

// ---------------------------------------------------------------------------
// Materializing operators
// ---------------------------------------------------------------------------

/// Duplicate elimination Pi^D on one attribute, preserving the remaining
/// attributes and the input order of first occurrences.
class DupElimIterator : public Iterator {
 public:
  DupElimIterator(ExecutionContext* state, IteratorPtr child,
                  runtime::RegisterId attr)
      : state_(state), child_(std::move(child)), attr_(attr) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  /// Drops the seen-sets with the pipeline: a full spool must not
  /// outlive Close (spool containment).
  Status CloseImpl() override;

 private:
  /// Empties the seen-sets, updating the resource ledger.
  void DropSeen();

  ExecutionContext* state_;
  IteratorPtr child_;
  runtime::RegisterId attr_;
  /// Fast path: node attributes dedup on packed node ids.
  runtime::NodeIdSet seen_nodes_;
  std::unordered_set<std::string> seen_other_;
};

/// Sort by document order of a node attribute (Sec. 3.4.2). Materializes
/// the child's written registers.
class SortIterator : public Iterator {
 public:
  SortIterator(ExecutionContext* state, IteratorPtr child, runtime::RegisterId attr,
               std::vector<runtime::RegisterId> row_regs)
      : state_(state),
        child_(std::move(child)),
        attr_(attr),
        row_regs_(std::move(row_regs)) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  /// Drops the sorted spool with the pipeline (spool containment).
  Status CloseImpl() override;

 private:
  /// Empties the spool, updating the resource ledger.
  void DropRows();

  ExecutionContext* state_;
  IteratorPtr child_;
  runtime::RegisterId attr_;
  std::vector<runtime::RegisterId> row_regs_;
  std::vector<std::pair<uint64_t, runtime::Row>> rows_;
  size_t pos_ = 0;
};

/// Tmp^cs / Tmp^cs_c (Sec. 3.3.4 / 4.3.1 / 5.2.4): materializes one
/// context (the whole input, or the run of tuples sharing the context
/// attribute value), remembers its size, and replays it with the context
/// size attribute attached. One implementation covers both, as in the
/// paper ("Actually, there is just one implementation Tmp^cs_c which
/// covers Tmp^cs as a special case").
class TmpCsIterator : public Iterator {
 public:
  TmpCsIterator(ExecutionContext* state, IteratorPtr child, runtime::RegisterId out,
                std::optional<runtime::RegisterId> ctx_reg,
                std::vector<runtime::RegisterId> row_regs)
      : state_(state),
        child_(std::move(child)),
        out_(out),
        ctx_reg_(ctx_reg),
        row_regs_(std::move(row_regs)) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  /// Drops the group spool and the pending head with the pipeline
  /// (spool containment).
  Status CloseImpl() override;

 private:
  Status FillGroup();
  /// Empties the group spool and pending head, updating the ledger.
  void DropGroup();

  ExecutionContext* state_;
  IteratorPtr child_;
  runtime::RegisterId out_;
  std::optional<runtime::RegisterId> ctx_reg_;
  std::vector<runtime::RegisterId> row_regs_;
  std::vector<runtime::Row> group_;
  size_t replay_pos_ = 0;
  bool child_exhausted_ = false;
  bool have_pending_ = false;
  runtime::Row pending_row_;
  std::string pending_key_;
};

/// The MemoX operator (Sec. 4.2.2): keyed on its free variables, caches
/// the tuple sequence its child produces and replays it on later
/// evaluations with the same key. The memo table survives re-Opens (that
/// is its purpose: the operator sits in the dependent branch of a
/// d-join); entries are only committed when the child was drained
/// completely.
class MemoXIterator : public Iterator {
 public:
  MemoXIterator(ExecutionContext* state, IteratorPtr child,
                std::vector<runtime::RegisterId> key_regs,
                std::vector<runtime::RegisterId> row_regs)
      : state_(state),
        child_(std::move(child)),
        key_regs_(std::move(key_regs)),
        row_regs_(std::move(row_regs)) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  Status CloseImpl() override;

  uint64_t hit_count() const { return hits_; }
  uint64_t miss_count() const { return misses_; }

 private:
  ExecutionContext* state_;
  IteratorPtr child_;
  std::vector<runtime::RegisterId> key_regs_;
  std::vector<runtime::RegisterId> row_regs_;
  std::unordered_map<std::string, std::vector<runtime::Row>> table_;
  // Current evaluation:
  bool replaying_ = false;
  const std::vector<runtime::Row>* replay_rows_ = nullptr;
  size_t replay_pos_ = 0;
  bool recording_ = false;
  bool child_open_ = false;
  std::string current_key_;
  std::vector<runtime::Row> recorded_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

// ---------------------------------------------------------------------------
// Aggregation / remaining Fig. 1 operators
// ---------------------------------------------------------------------------

/// The aggregation operator 𝔄_{a;f}: reduces its input to a singleton
/// tuple carrying the aggregate in `out`.
class AggregateIterator : public Iterator {
 public:
  AggregateIterator(ExecutionContext* state, IteratorPtr child,
                    algebra::AggKind agg, runtime::RegisterId input,
                    runtime::RegisterId out)
      : state_(state), out_(out) {
    nested_.iter = std::move(child);
    nested_.agg = agg;
    nested_.input_reg = input;
  }
  /// Routes the embedded nested-aggregate counters (consumed tuples,
  /// smart-aggregation early exits) onto this operator's stats node.
  void BindNestedStats(obs::OpStats* stats) { nested_.stats = stats; }
  Status OpenImpl() override {
    done_ = false;
    return Status::OK();
  }
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return Status::OK(); }

 private:
  ExecutionContext* state_;
  NestedPlan nested_;
  runtime::RegisterId out_;
  bool done_ = false;
};

/// Binary grouping Gamma (Fig. 1): extends each left tuple with the
/// aggregate of the right tuples whose right_attr equals the left tuple's
/// left_attr. The right side is re-evaluated per left tuple (dependent
/// nested-loop form).
class BinaryGroupIterator : public Iterator {
 public:
  BinaryGroupIterator(ExecutionContext* state, IteratorPtr left, IteratorPtr right,
                      algebra::AggKind agg, runtime::RegisterId left_attr,
                      runtime::RegisterId right_attr,
                      runtime::RegisterId agg_input,
                      runtime::RegisterId out)
      : state_(state),
        left_(std::move(left)),
        right_(std::move(right)),
        agg_(agg),
        left_attr_(left_attr),
        right_attr_(right_attr),
        agg_input_(agg_input),
        out_(out) {}
  Status OpenImpl() override { return left_->Open(); }
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return left_->Close(); }

 private:
  ExecutionContext* state_;
  IteratorPtr left_;
  IteratorPtr right_;
  algebra::AggKind agg_;
  runtime::RegisterId left_attr_;
  runtime::RegisterId right_attr_;
  runtime::RegisterId agg_input_;
  runtime::RegisterId out_;
};

/// Unnest mu_g: explodes a sequence-valued attribute, one output tuple
/// per element, the element placed in `out`.
class UnnestIterator : public Iterator {
 public:
  UnnestIterator(ExecutionContext* state, IteratorPtr child,
                 runtime::RegisterId seq_attr, runtime::RegisterId out)
      : state_(state),
        child_(std::move(child)),
        seq_attr_(seq_attr),
        out_(out) {}
  Status OpenImpl() override {
    pos_ = 0;
    current_.reset();
    return child_->Open();
  }
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  ExecutionContext* state_;
  IteratorPtr child_;
  runtime::RegisterId seq_attr_;
  runtime::RegisterId out_;
  runtime::SequencePtr current_;
  size_t pos_ = 0;
};

/// id() dereferencing (Sec. 3.6.3): resolves whitespace-separated id
/// tokens to the elements carrying a matching `id` attribute (this build
/// treats attributes named "id" as ID-typed; there is no DTD). Tokens
/// come either from the string-values of input nodes (`ctx` set) or from
/// one evaluation of a scalar subscript.
class IdDerefIterator : public Iterator {
 public:
  IdDerefIterator(ExecutionContext* state, IteratorPtr child,
                  std::optional<runtime::RegisterId> ctx,
                  SubscriptPtr scalar, runtime::RegisterId out)
      : state_(state),
        child_(std::move(child)),
        ctx_(ctx),
        scalar_(std::move(scalar)),
        out_(out) {}
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  Status CloseImpl() override { return child_->Close(); }

 private:
  /// Finds (building lazily) the id index of the document containing
  /// `node`.
  StatusOr<const std::unordered_map<std::string, runtime::NodeRef>*>
  IndexFor(runtime::NodeRef node);
  Status LoadTokens();

  ExecutionContext* state_;
  IteratorPtr child_;
  std::optional<runtime::RegisterId> ctx_;
  SubscriptPtr scalar_;
  runtime::RegisterId out_;
  std::vector<runtime::NodeRef> pending_;
  size_t pos_ = 0;
  bool scalar_done_ = false;
};

}  // namespace natix::qe

#endif  // NATIX_QE_OPERATORS_H_
