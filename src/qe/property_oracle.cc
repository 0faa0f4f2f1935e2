#include "qe/exec_context.h"
#include "qe/property_oracle.h"

#include <utility>

namespace natix::qe {

PropertyOracleIterator::PropertyOracleIterator(
    ExecutionContext* state, IteratorPtr child, runtime::RegisterId reg,
    bool check_order, bool check_duplicate_free, std::string label)
    : state_(state),
      child_(std::move(child)),
      reg_(reg),
      check_order_(check_order),
      check_duplicate_free_(check_duplicate_free),
      label_(std::move(label)) {}

Status PropertyOracleIterator::OpenImpl() {
  last_order_ = 0;
  has_last_ = false;
  produced_ = 0;
  seen_nodes_.clear();
  seen_values_.clear();
  return child_->Open();
}

Status PropertyOracleIterator::NextImpl(bool* has) {
  NATIX_RETURN_IF_ERROR(child_->Next(has));
  if (!*has) return Status::OK();
  if (max_tuples_ > 0 && ++produced_ > max_tuples_) {
    return Status::Internal(
        "property oracle: stream '" + label_ +
        "' violated its limit contract (more than " +
        std::to_string(max_tuples_) + " tuples)");
  }
  if (!check_order_ && !check_duplicate_free_) return Status::OK();
  const runtime::Value& value = state_->registers[reg_];
  if (value.kind() == runtime::ValueKind::kNode) {
    const runtime::NodeRef node = value.AsNode();
    if (check_order_) {
      if (has_last_ && node.order < last_order_) {
        return Status::Internal(
            "property oracle: stream '" + label_ +
            "' violated its document-order claim (order key " +
            std::to_string(node.order) + " after " +
            std::to_string(last_order_) + ")");
      }
      last_order_ = node.order;
      has_last_ = true;
    }
    if (check_duplicate_free_ && !seen_nodes_.Insert(node.id)) {
      return Status::Internal(
          "property oracle: stream '" + label_ +
          "' violated its duplicate-freedom claim (node id " +
          std::to_string(node.id) + " seen twice)");
    }
  } else if (check_duplicate_free_ &&
             value.kind() != runtime::ValueKind::kNull) {
    // Atomic claims (counters without reset) key by encoded value.
    if (!seen_values_.insert(EncodeValueKey(value)).second) {
      return Status::Internal("property oracle: stream '" + label_ +
                              "' violated its duplicate-freedom claim "
                              "(atomic value seen twice)");
    }
  }
  return Status::OK();
}

Status PropertyOracleIterator::CloseImpl() { return child_->Close(); }

}  // namespace natix::qe
