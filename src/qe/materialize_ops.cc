#include "qe/exec_context.h"
#include "qe/operators.h"

#include <algorithm>

#include "obs/trace.h"

namespace natix::qe {

using runtime::Row;
using runtime::Value;
using runtime::ValueKind;

void DupElimIterator::DropSeen() {
  state_->LedgerSpoolDropped(seen_nodes_.size() + seen_other_.size());
  seen_nodes_.clear();
  seen_other_.clear();
}

Status DupElimIterator::OpenImpl() {
  DropSeen();
  return child_->Open();
}

Status DupElimIterator::CloseImpl() {
  DropSeen();
  return child_->Close();
}

Status DupElimIterator::NextImpl(bool* has) {
  while (true) {
    NATIX_RETURN_IF_ERROR(child_->Next(has));
    if (!*has) return Status::OK();
    const Value& v = state_->registers[attr_];
    bool fresh = v.kind() == ValueKind::kNode
                     ? seen_nodes_.Insert(v.AsNode().id)
                     : seen_other_.insert(EncodeValueKey(v)).second;
    if (fresh) {
      state_->LedgerSpoolGrew(1);
      return Status::OK();
    }
  }
}

void SortIterator::DropRows() {
  state_->LedgerSpoolDropped(rows_.size());
  rows_.clear();
  pos_ = 0;
}

Status SortIterator::CloseImpl() {
  DropRows();
  return child_->Close();
}

Status SortIterator::OpenImpl() {
  obs::ScopedSpan span("exec/materialize", "sort");
  DropRows();
  NATIX_RETURN_IF_ERROR(child_->Open());
  while (true) {
    bool has = false;
    NATIX_RETURN_IF_ERROR(child_->Next(&has));
    if (!has) break;
    const Value& key = state_->registers[attr_];
    uint64_t order =
        key.kind() == ValueKind::kNode ? key.AsNode().order : 0;
    Row row;
    state_->registers.SaveRow(row_regs_, &row);
    rows_.emplace_back(order, std::move(row));
    state_->LedgerSpoolGrew(1);
  }
  std::stable_sort(rows_.begin(), rows_.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  return Status::OK();
}

Status SortIterator::NextImpl(bool* has) {
  if (pos_ >= rows_.size()) {
    *has = false;
    return Status::OK();
  }
  state_->registers.RestoreRow(row_regs_, rows_[pos_].second);
  ++pos_;
  *has = true;
  return Status::OK();
}

void TmpCsIterator::DropGroup() {
  state_->LedgerSpoolDropped(group_.size() + (have_pending_ ? 1 : 0));
  group_.clear();
  replay_pos_ = 0;
  have_pending_ = false;
  pending_row_ = Row();
  pending_key_.clear();
}

Status TmpCsIterator::OpenImpl() {
  DropGroup();
  child_exhausted_ = false;
  return child_->Open();
}

Status TmpCsIterator::CloseImpl() {
  DropGroup();
  return child_->Close();
}

Status TmpCsIterator::FillGroup() {
  // Materializes the next context: the whole input when no context
  // attribute is set, otherwise the run of tuples sharing the context
  // attribute's value (Sec. 5.2.4).
  obs::ScopedSpan span("exec/materialize", "tmp-cs");
  state_->LedgerSpoolDropped(group_.size());
  group_.clear();
  replay_pos_ = 0;
  if (have_pending_) {
    // Replaying the previous group overwrote the registers; restore the
    // pipeline frontier (the first tuple of this group) before resuming
    // the child, so operators below that watch their registers (the
    // counter's reset check, our own boundary check) see live values.
    state_->registers.RestoreRow(row_regs_, pending_row_);
    group_.push_back(std::move(pending_row_));
    have_pending_ = false;
  }
  std::string group_key = pending_key_;
  while (!child_exhausted_) {
    bool has = false;
    NATIX_RETURN_IF_ERROR(child_->Next(&has));
    if (!has) {
      child_exhausted_ = true;
      break;
    }
    Row row;
    state_->registers.SaveRow(row_regs_, &row);
    // Each input tuple is pulled from the child and snapshotted exactly
    // once, whether it lands in this group or becomes the pending head
    // of the next one — this is the single-pass materialization counter
    // the behavioral tests pin down.
    NATIX_OBS_COUNT(stats_, spooled_rows, 1);
    state_->LedgerSpoolGrew(1);
    if (ctx_reg_.has_value()) {
      std::string key = EncodeValueKey(state_->registers[*ctx_reg_]);
      if (group_.empty()) {
        group_key = key;
      } else if (key != group_key) {
        // First tuple of the next context: keep it for the next group.
        pending_row_ = std::move(row);
        pending_key_ = std::move(key);
        have_pending_ = true;
        break;
      }
    }
    group_.push_back(std::move(row));
  }
  pending_key_ = have_pending_ ? pending_key_ : std::string();
  if (!group_.empty()) NATIX_OBS_COUNT(stats_, groups, 1);
  return Status::OK();
}

Status TmpCsIterator::NextImpl(bool* has) {
  while (true) {
    if (replay_pos_ < group_.size()) {
      state_->registers.RestoreRow(row_regs_, group_[replay_pos_]);
      state_->registers[out_] =
          Value::Number(static_cast<double>(group_.size()));
      ++replay_pos_;
      NATIX_OBS_COUNT(stats_, replayed_rows, 1);
      *has = true;
      return Status::OK();
    }
    if (child_exhausted_ && !have_pending_) {
      *has = false;
      return Status::OK();
    }
    NATIX_RETURN_IF_ERROR(FillGroup());
    if (group_.empty() && child_exhausted_ && !have_pending_) {
      *has = false;
      return Status::OK();
    }
  }
}

Status MemoXIterator::OpenImpl() {
  // Key on the current binding of the free variables (the context node
  // handed in by the d-join).
  current_key_ = EncodeRowKey(*state_, key_regs_);
  auto it = table_.find(current_key_);
  if (it != table_.end()) {
    replaying_ = true;
    replay_rows_ = &it->second;
    replay_pos_ = 0;
    recording_ = false;
    child_open_ = false;
    ++hits_;
    NATIX_OBS_COUNT(stats_, memo_hits, 1);
    return Status::OK();
  }
  ++misses_;
  NATIX_OBS_COUNT(stats_, memo_misses, 1);
  replaying_ = false;
  recording_ = true;
  state_->LedgerSpoolDropped(recorded_.size());
  recorded_.clear();
  NATIX_RETURN_IF_ERROR(child_->Open());
  child_open_ = true;
  return Status::OK();
}

Status MemoXIterator::NextImpl(bool* has) {
  if (replaying_) {
    if (replay_pos_ >= replay_rows_->size()) {
      *has = false;
      return Status::OK();
    }
    state_->registers.RestoreRow(row_regs_, (*replay_rows_)[replay_pos_]);
    ++replay_pos_;
    NATIX_OBS_COUNT(stats_, replayed_rows, 1);
    *has = true;
    return Status::OK();
  }
  NATIX_RETURN_IF_ERROR(child_->Next(has));
  if (*has) {
    Row row;
    state_->registers.SaveRow(row_regs_, &row);
    recorded_.push_back(std::move(row));
    NATIX_OBS_COUNT(stats_, spooled_rows, 1);
    state_->LedgerSpoolGrew(1);
    return Status::OK();
  }
  // Child drained completely: commit the memo entry (partial drains must
  // not be committed — see Close). Committed rows graduate from the
  // in-flight spool to the keyed memo, which is exempt from the
  // release-on-close obligation (SpoolKind::kMemo).
  if (recording_) {
    state_->LedgerSpoolDropped(recorded_.size());
    table_.emplace(current_key_, std::move(recorded_));
    recorded_.clear();
    recording_ = false;
  }
  return Status::OK();
}

Status MemoXIterator::CloseImpl() {
  // A Close before exhaustion (e.g. an early-exiting exists() above us)
  // leaves the entry uncommitted so a later evaluation recomputes it.
  recording_ = false;
  state_->LedgerSpoolDropped(recorded_.size());
  recorded_.clear();
  replaying_ = false;
  if (child_open_) {
    child_open_ = false;
    return child_->Close();
  }
  return Status::OK();
}

}  // namespace natix::qe
