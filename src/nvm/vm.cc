#include "nvm/vm.h"

#include <cmath>

#include "base/strings.h"
#include "base/xpath_number.h"
#include "runtime/node_ops.h"

namespace natix::nvm {

namespace {

using runtime::EvalContext;
using runtime::NodeRef;
using runtime::Value;

/// XPath substring(): 1-based positions, round() on the arguments, IEEE
/// comparison semantics so NaN bounds select nothing (rec. Sec. 4.2).
std::string XPathSubstring(const std::string& s, double pos, double len,
                           bool has_len) {
  double start = XPathRound(pos);
  double end = has_len ? start + XPathRound(len) : 0;
  std::string out;
  size_t p = 1;
  for (size_t i = 0; i < s.size(); ++p) {
    size_t before = i;
    Utf8Decode(s, i);
    double dp = static_cast<double>(p);
    bool include = dp >= start && (!has_len ? true : dp < end);
    if (include) out.append(s, before, i - before);
  }
  return out;
}

/// XPath lang(): climbs from the context node looking for xml:lang and
/// compares case-insensitively, allowing a '-' suffix.
StatusOr<bool> LangMatches(const std::string& wanted, NodeRef context,
                           const EvalContext& ctx) {
  if (!context.valid()) return false;
  uint32_t xml_lang = ctx.store->names()->Lookup("xml:lang");
  if (xml_lang == storage::kInvalidNameId) return false;

  storage::NodeHeader record;
  storage::NodeId node = context.node_id();
  NATIX_RETURN_IF_ERROR(ctx.nodes->ReadHeader(node, &record));
  if (record.kind == storage::StoredNodeKind::kAttribute) {
    node = record.parent;
  }
  while (node.valid()) {
    NATIX_RETURN_IF_ERROR(ctx.nodes->ReadHeader(node, &record));
    storage::NodeId attr = record.first_attr;
    while (attr.valid()) {
      storage::NodeHeader attr_record;
      NATIX_RETURN_IF_ERROR(ctx.nodes->ReadHeader(attr, &attr_record));
      if (attr_record.name_id == xml_lang) {
        NATIX_ASSIGN_OR_RETURN(std::string value,
                               ctx.nodes->ReadContent(attr));
        // Case-insensitive compare; exact match or prefix before '-'.
        auto lower = [](std::string s) {
          for (char& c : s) {
            if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
          }
          return s;
        };
        std::string lv = lower(value);
        std::string lw = lower(wanted);
        return lv == lw || (lv.size() > lw.size() &&
                            lv.compare(0, lw.size(), lw) == 0 &&
                            lv[lw.size()] == '-');
      }
      attr = attr_record.next_sibling;
    }
    node = record.parent;
  }
  return false;
}

/// Runs step loop `step` from `context`: counts the nodes passing the
/// node test into *tested and returns how many also pass the comparison,
/// stopping at the first one when `exists`.
StatusOr<uint64_t> RunStepLoop(const StepLoop& step, const Value& context,
                               bool exists, const EvalContext& ctx,
                               std::string* text, uint64_t* tested) {
  if (context.kind() != runtime::ValueKind::kNode) return 0;
  runtime::AxisCursor cursor(ctx.nodes);
  NATIX_RETURN_IF_ERROR(
      cursor.Open(step.axis, step.test, context.AsNode().node_id()));
  // = and != against a string compare string-values directly; every
  // other form takes CompareAtomic's promotion rules.
  const bool string_eq =
      step.compare && step.constant.kind() == runtime::ValueKind::kString &&
      (step.cmp == runtime::CompareOp::kEq ||
       step.cmp == runtime::CompareOp::kNe);
  uint64_t matches = 0;
  while (true) {
    bool has = false;
    NodeRef node;
    NATIX_RETURN_IF_ERROR(cursor.Next(&has, &node));
    if (!has) break;
    ++*tested;
    bool pass = true;
    if (string_eq) {
      NATIX_RETURN_IF_ERROR(ctx.nodes->StringValue(node.node_id(), text));
      pass = (*text == step.constant.AsString()) ==
             (step.cmp == runtime::CompareOp::kEq);
    } else if (step.compare) {
      NATIX_ASSIGN_OR_RETURN(pass,
                             runtime::CompareAtomic(step.cmp, Value::Node(node),
                                                    step.constant, ctx));
    }
    if (!pass) continue;
    ++matches;
    if (exists) break;
  }
  return matches;
}

StatusOr<NodeRef> RootOf(NodeRef node, const EvalContext& ctx) {
  storage::NodeId current = node.node_id();
  storage::NodeHeader record;
  while (true) {
    NATIX_RETURN_IF_ERROR(ctx.nodes->ReadHeader(current, &record));
    if (!record.parent.valid()) {
      return NodeRef::Make(current, record.order);
    }
    current = record.parent;
  }
}

}  // namespace

StatusOr<Value> Vm::Run(
    const runtime::RegisterFile& tuple, const EvalContext& ctx,
    const std::unordered_map<std::string, Value>& variables,
    const NestedEvaluator& nested, uint64_t* retired,
    uint64_t* step_tuples) {
  auto& r = frame_;
  uint64_t tested = 0;
  const std::vector<Instruction>& code = program_->code;

  auto num = [&](uint16_t reg) -> StatusOr<double> {
    return runtime::ToNumber(r[reg], ctx);
  };
  auto str = [&](uint16_t reg) -> StatusOr<std::string> {
    return runtime::ToStringValue(r[reg], ctx);
  };
  auto boolean = [&](uint16_t reg) -> StatusOr<bool> {
    return runtime::ToBoolean(r[reg], ctx);
  };
  auto node = [&](uint16_t reg) -> StatusOr<NodeRef> {
    if (r[reg].kind() != runtime::ValueKind::kNode) {
      return Status::Internal("NVM: register does not hold a node");
    }
    return r[reg].AsNode();
  };

  size_t pc = 0;
  uint64_t executed = 0;
  while (pc < code.size()) {
    const Instruction& ins = code[pc];
    ++executed;
    switch (ins.op) {
      case OpCode::kLoadConst:
        r[ins.a] = program_->constants[ins.b];
        break;
      case OpCode::kLoadAttr:
        r[ins.a] = tuple[ins.b];
        break;
      case OpCode::kLoadVar: {
        const std::string& name = program_->variable_names[ins.b];
        auto it = variables.find(name);
        if (it == variables.end()) {
          return Status::InvalidArgument("unbound variable $" + name);
        }
        r[ins.a] = it->second;
        break;
      }
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kMod: {
        NATIX_ASSIGN_OR_RETURN(double x, num(ins.b));
        NATIX_ASSIGN_OR_RETURN(double y, num(ins.c));
        double out = 0;
        switch (ins.op) {
          case OpCode::kAdd:
            out = x + y;
            break;
          case OpCode::kSub:
            out = x - y;
            break;
          case OpCode::kMul:
            out = x * y;
            break;
          case OpCode::kDiv:
            out = x / y;  // IEEE: 1 div 0 = Infinity, 0 div 0 = NaN
            break;
          default:
            out = std::fmod(x, y);  // sign of the dividend, as XPath mod
            break;
        }
        r[ins.a] = Value::Number(out);
        break;
      }
      case OpCode::kNeg: {
        NATIX_ASSIGN_OR_RETURN(double x, num(ins.b));
        r[ins.a] = Value::Number(-x);
        break;
      }
      case OpCode::kNot: {
        NATIX_ASSIGN_OR_RETURN(bool x, boolean(ins.b));
        r[ins.a] = Value::Boolean(!x);
        break;
      }
      case OpCode::kToBool: {
        NATIX_ASSIGN_OR_RETURN(bool x, boolean(ins.b));
        r[ins.a] = Value::Boolean(x);
        break;
      }
      case OpCode::kToNum: {
        NATIX_ASSIGN_OR_RETURN(double x, num(ins.b));
        r[ins.a] = Value::Number(x);
        break;
      }
      case OpCode::kToStr: {
        NATIX_ASSIGN_OR_RETURN(std::string x, str(ins.b));
        r[ins.a] = Value::String(std::move(x));
        break;
      }
      case OpCode::kCompare: {
        NATIX_ASSIGN_OR_RETURN(
            bool out,
            runtime::CompareAtomic(static_cast<runtime::CompareOp>(ins.d),
                                   r[ins.b], r[ins.c], ctx));
        r[ins.a] = Value::Boolean(out);
        break;
      }
      case OpCode::kJump:
        pc = ins.b;
        continue;
      case OpCode::kJumpIfTrue: {
        NATIX_ASSIGN_OR_RETURN(bool x, boolean(ins.a));
        if (x) {
          pc = ins.b;
          continue;
        }
        break;
      }
      case OpCode::kJumpIfFalse: {
        NATIX_ASSIGN_OR_RETURN(bool x, boolean(ins.a));
        if (!x) {
          pc = ins.b;
          continue;
        }
        break;
      }
      case OpCode::kConcat2: {
        NATIX_ASSIGN_OR_RETURN(std::string x, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(std::string y, str(ins.c));
        r[ins.a] = Value::String(x + y);
        break;
      }
      case OpCode::kStartsWith: {
        NATIX_ASSIGN_OR_RETURN(std::string x, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(std::string y, str(ins.c));
        r[ins.a] = Value::Boolean(StartsWith(x, y));
        break;
      }
      case OpCode::kContains: {
        NATIX_ASSIGN_OR_RETURN(std::string x, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(std::string y, str(ins.c));
        r[ins.a] = Value::Boolean(Contains(x, y));
        break;
      }
      case OpCode::kSubstringBefore: {
        NATIX_ASSIGN_OR_RETURN(std::string x, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(std::string y, str(ins.c));
        r[ins.a] = Value::String(SubstringBefore(x, y));
        break;
      }
      case OpCode::kSubstringAfter: {
        NATIX_ASSIGN_OR_RETURN(std::string x, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(std::string y, str(ins.c));
        r[ins.a] = Value::String(SubstringAfter(x, y));
        break;
      }
      case OpCode::kSubstring2: {
        NATIX_ASSIGN_OR_RETURN(std::string s, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(double pos, num(ins.c));
        r[ins.a] = Value::String(XPathSubstring(s, pos, 0, false));
        break;
      }
      case OpCode::kSubstring3: {
        NATIX_ASSIGN_OR_RETURN(std::string s, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(double pos, num(ins.c));
        NATIX_ASSIGN_OR_RETURN(double len, num(ins.d));
        r[ins.a] = Value::String(XPathSubstring(s, pos, len, true));
        break;
      }
      case OpCode::kStringLength: {
        NATIX_ASSIGN_OR_RETURN(std::string s, str(ins.b));
        r[ins.a] = Value::Number(static_cast<double>(Utf8Length(s)));
        break;
      }
      case OpCode::kNormalizeSpace: {
        NATIX_ASSIGN_OR_RETURN(std::string s, str(ins.b));
        r[ins.a] = Value::String(NormalizeSpace(s));
        break;
      }
      case OpCode::kTranslate: {
        NATIX_ASSIGN_OR_RETURN(std::string s, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(std::string from, str(ins.c));
        NATIX_ASSIGN_OR_RETURN(std::string to, str(ins.d));
        r[ins.a] = Value::String(TranslateChars(s, from, to));
        break;
      }
      case OpCode::kFloor: {
        NATIX_ASSIGN_OR_RETURN(double x, num(ins.b));
        r[ins.a] = Value::Number(std::floor(x));
        break;
      }
      case OpCode::kCeiling: {
        NATIX_ASSIGN_OR_RETURN(double x, num(ins.b));
        r[ins.a] = Value::Number(std::ceil(x));
        break;
      }
      case OpCode::kRound: {
        NATIX_ASSIGN_OR_RETURN(double x, num(ins.b));
        r[ins.a] = Value::Number(XPathRound(x));
        break;
      }
      case OpCode::kRoot: {
        NATIX_ASSIGN_OR_RETURN(NodeRef n, node(ins.b));
        NATIX_ASSIGN_OR_RETURN(NodeRef root, RootOf(n, ctx));
        r[ins.a] = Value::Node(root);
        break;
      }
      case OpCode::kNodeName:
      case OpCode::kNodeLocalName: {
        NATIX_ASSIGN_OR_RETURN(NodeRef n, node(ins.b));
        storage::NodeHeader record;
        NATIX_RETURN_IF_ERROR(ctx.nodes->ReadHeader(n.node_id(), &record));
        std::string name;
        if (record.name_id != storage::kInvalidNameId) {
          name = ctx.store->names()->NameOf(record.name_id);
        }
        if (ins.op == OpCode::kNodeLocalName) {
          auto colon = name.rfind(':');
          if (colon != std::string::npos) name = name.substr(colon + 1);
        }
        r[ins.a] = Value::String(std::move(name));
        break;
      }
      case OpCode::kLang: {
        NATIX_ASSIGN_OR_RETURN(std::string wanted, str(ins.b));
        NATIX_ASSIGN_OR_RETURN(NodeRef n, node(ins.c));
        NATIX_ASSIGN_OR_RETURN(bool match, LangMatches(wanted, n, ctx));
        r[ins.a] = Value::Boolean(match);
        break;
      }
      case OpCode::kEvalNested: {
        NATIX_ASSIGN_OR_RETURN(Value v, nested(ins.b));
        r[ins.a] = std::move(v);
        break;
      }
      case OpCode::kStepExists:
      case OpCode::kStepCount: {
        const bool exists = ins.op == OpCode::kStepExists;
        NATIX_ASSIGN_OR_RETURN(
            uint64_t matches,
            RunStepLoop(program_->steps[ins.c], tuple[ins.b], exists, ctx,
                        &text_, &tested));
        r[ins.a] = exists ? Value::Boolean(matches != 0)
                          : Value::Number(static_cast<double>(matches));
        break;
      }
      case OpCode::kHalt:
        if (retired != nullptr) *retired += executed;
        if (step_tuples != nullptr) *step_tuples += tested;
        return r[ins.a];
    }
    ++pc;
  }
  return Status::Internal("NVM program fell off the end (missing halt)");
}

}  // namespace natix::nvm
