#include "qe/exec_context.h"
#include "qe/operators.h"

#include "base/strings.h"

namespace natix::qe {

using runtime::NodeRef;
using runtime::Value;
using runtime::ValueKind;

Status AggregateIterator::NextImpl(bool* has) {
  if (done_) {
    *has = false;
    return Status::OK();
  }
  NATIX_ASSIGN_OR_RETURN(Value v, RunNestedAggregate(&nested_, state_));
  state_->registers[out_] = std::move(v);
  done_ = true;
  *has = true;
  return Status::OK();
}

Status BinaryGroupIterator::NextImpl(bool* has) {
  NATIX_RETURN_IF_ERROR(left_->Next(has));
  if (!*has) return Status::OK();
  // Aggregate the matching right tuples for this left tuple. The left
  // tuple's attributes stay in the registers while the right side runs.
  std::string left_key = EncodeValueKey(state_->registers[left_attr_]);
  uint64_t count = 0;
  double sum = 0;
  bool exists = false;
  NATIX_RETURN_IF_ERROR(right_->Open());
  while (true) {
    bool right_has = false;
    Status st = right_->Next(&right_has);
    if (!st.ok()) {
      (void)right_->Close();
      return st;
    }
    if (!right_has) break;
    if (EncodeValueKey(state_->registers[right_attr_]) != left_key) continue;
    switch (agg_) {
      case algebra::AggKind::kCount:
        ++count;
        break;
      case algebra::AggKind::kExists:
        exists = true;
        break;
      case algebra::AggKind::kSum: {
        auto n = runtime::ToNumber(state_->registers[agg_input_],
                                   state_->eval_ctx);
        if (!n.ok()) {
          (void)right_->Close();
          return n.status();
        }
        sum += *n;
        break;
      }
      default:
        (void)right_->Close();
        return Status::NotSupported(
            "binary grouping supports count/sum/exists");
    }
  }
  NATIX_RETURN_IF_ERROR(right_->Close());
  switch (agg_) {
    case algebra::AggKind::kCount:
      state_->registers[out_] = Value::Number(static_cast<double>(count));
      break;
    case algebra::AggKind::kExists:
      state_->registers[out_] = Value::Boolean(exists);
      break;
    default:
      state_->registers[out_] = Value::Number(sum);
      break;
  }
  return Status::OK();
}

Status UnnestIterator::NextImpl(bool* has) {
  while (true) {
    if (current_ != nullptr && pos_ < current_->size()) {
      state_->registers[out_] = (*current_)[pos_];
      ++pos_;
      *has = true;
      return Status::OK();
    }
    current_.reset();
    bool child_has = false;
    NATIX_RETURN_IF_ERROR(child_->Next(&child_has));
    if (!child_has) {
      *has = false;
      return Status::OK();
    }
    const Value& v = state_->registers[seq_attr_];
    if (v.kind() != ValueKind::kSequence) {
      return Status::Internal("unnest input is not sequence-valued");
    }
    current_ = v.AsSequence();
    pos_ = 0;
  }
}

StatusOr<const std::unordered_map<std::string, NodeRef>*>
IdDerefIterator::IndexFor(NodeRef node) {
  storage::NodeAccessor* nodes = state_->eval_ctx.nodes;
  // Climb to the document node.
  storage::NodeId current = node.node_id();
  storage::NodeHeader record;
  while (true) {
    NATIX_RETURN_IF_ERROR(nodes->ReadHeader(current, &record));
    if (!record.parent.valid()) break;
    current = record.parent;
  }
  uint64_t root_key = current.Pack();
  auto it = state_->id_indexes.find(root_key);
  if (it != state_->id_indexes.end()) return &it->second;

  // Build the index: elements carrying an attribute named "id" (treated
  // as ID-typed; this build does not process DTDs).
  std::unordered_map<std::string, NodeRef> index;
  uint32_t id_name = state_->eval_ctx.store->names()->Lookup("id");
  if (id_name != storage::kInvalidNameId) {
    runtime::AxisCursor cursor(nodes);
    runtime::NodeTest any_element;
    any_element.kind = runtime::NodeTest::Kind::kAnyName;
    NATIX_RETURN_IF_ERROR(
        cursor.Open(runtime::Axis::kDescendant, any_element, current));
    while (true) {
      bool has = false;
      NodeRef element;
      NATIX_RETURN_IF_ERROR(cursor.Next(&has, &element));
      if (!has) break;
      NATIX_RETURN_IF_ERROR(nodes->ReadHeader(element.node_id(), &record));
      storage::NodeId attr = record.first_attr;
      while (attr.valid()) {
        storage::NodeHeader attr_record;
        NATIX_RETURN_IF_ERROR(nodes->ReadHeader(attr, &attr_record));
        if (attr_record.name_id == id_name) {
          // The first element wins for duplicate ids.
          NATIX_ASSIGN_OR_RETURN(std::string id, nodes->ReadContent(attr));
          index.emplace(std::move(id), element);
          break;
        }
        attr = attr_record.next_sibling;
      }
    }
  }
  auto [inserted, _] = state_->id_indexes.emplace(root_key, std::move(index));
  return &inserted->second;
}

Status IdDerefIterator::OpenImpl() {
  pending_.clear();
  pos_ = 0;
  scalar_done_ = false;
  return child_->Open();
}

Status IdDerefIterator::LoadTokens() {
  pending_.clear();
  pos_ = 0;
  const Value& ctx_value = state_->registers[*ctx_];
  if (ctx_value.kind() != ValueKind::kNode) {
    return Status::OK();  // no context document: empty result
  }
  NATIX_ASSIGN_OR_RETURN(const auto* index, IndexFor(ctx_value.AsNode()));

  std::string tokens;
  if (scalar_ != nullptr) {
    NATIX_ASSIGN_OR_RETURN(Value v, scalar_->Evaluate());
    NATIX_ASSIGN_OR_RETURN(tokens,
                           runtime::ToStringValue(v, state_->eval_ctx));
  } else {
    NATIX_ASSIGN_OR_RETURN(
        tokens, runtime::NodeStringValue(ctx_value.AsNode(),
                                         state_->eval_ctx));
  }
  for (const std::string& token : SplitWhitespace(tokens)) {
    auto it = index->find(token);
    if (it != index->end()) pending_.push_back(it->second);
  }
  return Status::OK();
}

Status IdDerefIterator::NextImpl(bool* has) {
  while (true) {
    if (pos_ < pending_.size()) {
      state_->registers[out_] = Value::Node(pending_[pos_]);
      ++pos_;
      *has = true;
      return Status::OK();
    }
    if (scalar_ != nullptr && scalar_done_) {
      *has = false;
      return Status::OK();
    }
    bool child_has = false;
    NATIX_RETURN_IF_ERROR(child_->Next(&child_has));
    if (!child_has) {
      *has = false;
      return Status::OK();
    }
    NATIX_RETURN_IF_ERROR(LoadTokens());
    if (scalar_ != nullptr) scalar_done_ = true;
  }
}

}  // namespace natix::qe
