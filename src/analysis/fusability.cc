#include "analysis/fusability.h"

#include <cstdio>
#include <utility>

#include "analysis/property_inference.h"
#include "nvm/assembler.h"

namespace natix::analysis {

namespace {

using algebra::OpKind;
using algebra::Operator;
using algebra::Scalar;
using algebra::ScalarKind;

/// Whether `scalar` compiles to a nested plan: a nested scalar of the
/// single-step shape becomes an NVM step loop instead (docs/NVM.md).
bool LowersToNestedPlan(const Scalar& scalar) {
  nvm::SingleStep step;
  return scalar.kind == ScalarKind::kNested && scalar.plan != nullptr &&
         !nvm::MatchSingleStep(scalar, &step);
}

/// A subscript that evaluates a nested sequence-valued plan is not
/// effect-free: it opens, drains and closes a whole subplan per tuple.
bool ScalarHasNested(const Scalar& scalar) {
  if (LowersToNestedPlan(scalar)) return true;
  for (const auto& child : scalar.children) {
    if (ScalarHasNested(*child)) return true;
  }
  return false;
}

class Segmenter {
 public:
  Segmentation Run(const Operator& root) {
    Walk(root);
    Flush();
    return std::move(result_);
  }

 private:
  void Flush() {
    if (current_.empty()) return;
    PipelineSegment seg;
    seg.id = next_id_++;
    seg.ops = std::move(current_);
    seg.fusable = true;
    current_.clear();
    result_.segments.push_back(std::move(seg));
  }

  void Boundary(const Operator& op, std::string why) {
    Flush();
    PipelineSegment seg;
    seg.id = next_id_++;
    seg.ops.push_back(OperatorSummary(op));
    seg.fusable = false;
    seg.barrier = std::move(why);
    result_.segments.push_back(std::move(seg));
  }

  void WalkNested(const Scalar& scalar) {
    if (LowersToNestedPlan(scalar)) {
      Walk(*scalar.plan);
      Flush();
    }
    for (const auto& child : scalar.children) WalkNested(*child);
  }

  void Walk(const Operator& op) {
    std::string why;
    if (OperatorFusable(op, &why)) {
      current_.push_back(OperatorSummary(op));
      if (op.children.empty()) {
        Flush();
        return;
      }
      Walk(*op.children[0]);
      return;
    }
    Boundary(op, std::move(why));
    // Each input of a boundary operator starts a fresh segment; nested
    // subscript plans (existential predicates, aggregates) are
    // segmented too — they are pipelines in their own right.
    for (const auto& child : op.children) {
      Walk(*child);
      Flush();
    }
    if (op.scalar != nullptr) WalkNested(*op.scalar);
  }

  Segmentation result_;
  std::vector<std::string> current_;
  int next_id_ = 0;
};

}  // namespace

bool OperatorFusable(const algebra::Operator& op, std::string* why) {
  auto barrier = [why](const char* reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  if (op.scalar != nullptr && ScalarHasNested(*op.scalar)) {
    return barrier("subscript evaluates a nested plan");
  }
  switch (op.kind) {
    case OpKind::kSingletonScan:
    case OpKind::kSelect:
    case OpKind::kCounter:
    case OpKind::kUnnestMap:
    case OpKind::kUnnest:
    case OpKind::kProject:
    case OpKind::kLimit:
      return true;
    case OpKind::kMap:
      if (op.materialize) {
        return barrier("materializing map (chi^mat result cache)");
      }
      return true;
    case OpKind::kSort:
      return barrier("blocking: materializes and sorts the whole input");
    case OpKind::kTmpCs:
      return barrier("materializes one context group (Tmp^cs spool)");
    case OpKind::kMemoX:
      return barrier("keyed memo table survives re-Opens");
    case OpKind::kDupElim:
      return barrier("stateful: duplicate seen-set");
    case OpKind::kAggregate:
      return barrier("blocking: drains the input to one tuple");
    case OpKind::kBinaryGroup:
      return barrier("control-flow boundary: binary grouping");
    case OpKind::kDJoin:
      return barrier("control-flow boundary: dependent join");
    case OpKind::kCross:
      return barrier("control-flow boundary: cross product");
    case OpKind::kSemiJoin:
      return barrier("control-flow boundary: semi-join probe");
    case OpKind::kAntiJoin:
      return barrier("control-flow boundary: anti-join probe");
    case OpKind::kConcat:
      return barrier("control-flow boundary: concatenation");
    case OpKind::kIdDeref:
      return barrier("side effect: lazily built id index");
  }
  return barrier("unknown operator");
}

Segmentation SegmentPlan(const algebra::Operator& root) {
  return Segmenter().Run(root);
}

std::string RenderSegments(const Segmentation& seg) {
  std::string out = "pipeline segments: " +
                    std::to_string(seg.segments.size()) + " (" +
                    std::to_string(seg.fusable_count()) + " fusable)\n";
  for (const PipelineSegment& s : seg.segments) {
    out += "  segment " + std::to_string(s.id) +
           (s.fusable ? " [fusable]" : " [boundary: " + s.barrier + "]") +
           "\n";
    for (const std::string& op : s.ops) {
      out += "    " + op + "\n";
    }
  }
  return out;
}

namespace {

void AppendJsonString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string SegmentsJson(const Segmentation& seg) {
  std::string out = "[";
  for (size_t i = 0; i < seg.segments.size(); ++i) {
    const PipelineSegment& s = seg.segments[i];
    if (i > 0) out += ",";
    out += "{\"id\":" + std::to_string(s.id) +
           ",\"fusable\":" + (s.fusable ? "true" : "false");
    if (!s.fusable) {
      out += ",\"barrier\":";
      AppendJsonString(s.barrier, &out);
    }
    out += ",\"ops\":[";
    for (size_t j = 0; j < s.ops.size(); ++j) {
      if (j > 0) out += ",";
      AppendJsonString(s.ops[j], &out);
    }
    out += "]}";
  }
  out += "]";
  return out;
}

Status VerifySegments(const algebra::Operator& root,
                      const Segmentation& seg) {
  const Segmentation truth = SegmentPlan(root);
  if (truth.segments.size() != seg.segments.size()) {
    return Status::Internal(
        "plan verifier (segments): segmentation claims " +
        std::to_string(seg.segments.size()) + " segments, analysis finds " +
        std::to_string(truth.segments.size()));
  }
  for (size_t i = 0; i < truth.segments.size(); ++i) {
    const PipelineSegment& want = truth.segments[i];
    const PipelineSegment& got = seg.segments[i];
    const std::string where =
        want.ops.empty() ? std::string("<empty>") : want.ops.front();
    if (got.ops != want.ops) {
      return Status::Internal(
          "plan verifier (segments): segment " + std::to_string(want.id) +
          " boundary mismatch at " + where);
    }
    if (got.fusable != want.fusable) {
      return Status::Internal(
          "plan verifier (segments): segment " + std::to_string(want.id) +
          " (" + where + ") is mislabeled " +
          (got.fusable ? "fusable — operator is a " + want.barrier
                       : "non-fusable — all operators are effect-free"));
    }
  }
  return Status::OK();
}

}  // namespace natix::analysis
