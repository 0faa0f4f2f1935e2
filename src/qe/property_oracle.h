#ifndef NATIX_QE_PROPERTY_ORACLE_H_
#define NATIX_QE_PROPERTY_ORACLE_H_

#include <string>
#include <unordered_set>

#include "qe/iterator.h"
#include "runtime/node_id_set.h"

namespace natix::qe {

/// The runtime property oracle: a transparent iterator wrapper that
/// dynamically checks the static property-inference claims (document
/// order, duplicate-freedom — src/analysis/property_inference.h) against
/// the actual tuples of one stream. The code generator inserts a wrapper
/// over every operator whose output attribute carries a claim, but only
/// while plan verification is enabled (NATIX_VERIFY_PLANS / ctest /
/// --verify-plans); production plans never pay for it.
///
/// A violated claim is a compiler bug — the inference engine promised a
/// property the rewriter may have relied on — so violations surface as
/// kInternal execution errors naming the stream and claim, failing
/// whichever unit/conformance/fuzz run triggered them.
///
/// Claims hold per Open(): dependent branches are re-opened per outer
/// tuple and promise order/distinctness within each evaluation, so the
/// oracle resets its state on Open.
class PropertyOracleIterator : public Iterator {
 public:
  PropertyOracleIterator(ExecutionContext* state, IteratorPtr child,
                         runtime::RegisterId reg, bool check_order,
                         bool check_duplicate_free, std::string label);

  /// Arms the Limit contract: the wrapped stream must emit at most
  /// `max_tuples` tuples per Open (0 disarms). The code generator sets
  /// this on the wrapper over every Limit operator, so an unsound
  /// pushdown — a cap that the capped iterator fails to honor — aborts
  /// execution instead of silently truncating or over-producing.
  void set_max_tuples(uint64_t max_tuples) { max_tuples_ = max_tuples; }

 protected:
  Status OpenImpl() override;
  Status NextImpl(bool* has) override;
  Status CloseImpl() override;

 private:
  ExecutionContext* state_;
  IteratorPtr child_;
  runtime::RegisterId reg_;
  bool check_order_;
  bool check_duplicate_free_;
  std::string label_;
  /// Limit contract (0 = no bound to enforce).
  uint64_t max_tuples_ = 0;
  uint64_t produced_ = 0;

  /// Document-order key of the last node seen since Open.
  uint64_t last_order_ = 0;
  bool has_last_ = false;
  /// Packed node ids seen since Open (duplicate-freedom); non-node
  /// values are keyed through EncodeValueKey.
  runtime::NodeIdSet seen_nodes_;
  std::unordered_set<std::string> seen_values_;
};

}  // namespace natix::qe

#endif  // NATIX_QE_PROPERTY_ORACLE_H_
