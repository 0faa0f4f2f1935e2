// Differential NVM fuzzing (NATIX_FUZZ_DIFF_NVM): random scalar-heavy
// XPath queries over random documents, each compiled with plan
// verification enabled (so every subscript program has passed Layer 3)
// and executed by the algebraic engine. Node-set and scalar results must
// agree with the src/interp oracle; a miscompiled subscript shows up as
// a divergence.
//
// The query generator is biased toward what the assembler emits
// subscript code for: comparisons of attributes against literals,
// constant arithmetic and string subexpressions, chained conversions,
// and short-circuit logicals (the assembler's branch scaffolding).
//
// NATIX_FUZZ_DIFF_NVM re-rolls the corpus: its value offsets every
// generated seed (unset or 0: the fixed CI corpus).

#include <gtest/gtest.h>

#include <cstdlib>
#include <functional>
#include <random>
#include <string>

#include "api/database.h"
#include "base/xpath_number.h"
#include "dom/dom_builder.h"
#include "interp/evaluator.h"

namespace natix {
namespace {

uint32_t BaseSeed() {
  const char* env = std::getenv("NATIX_FUZZ_DIFF_NVM");
  return env == nullptr
             ? 0u
             : static_cast<uint32_t>(std::strtoul(env, nullptr, 10));
}

class NvmQueryGen {
 public:
  explicit NvmQueryGen(uint32_t seed) : rng_(seed) {}

  std::string TopLevel() {
    switch (Int(8)) {
      case 0:
        return "count(" + Path() + ") + " + Scalar(1);
      case 1:
        return "string(" + Path() + ")";
      case 2:
        return Scalar(0);  // pure scalar: the whole query const-folds
      default:
        return Path();
    }
  }

 private:
  int Int(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  std::string Pick(std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, Int(static_cast<int>(options.size())));
    return *it;
  }

  std::string Attr() { return std::string("@") + Pick({"id", "x", "y"}); }

  std::string Literal() {
    if (Int(2) == 0) return "'" + std::to_string(Int(4)) + "'";
    return std::to_string(Int(4));
  }

  /// A scalar expression; depth limits the recursion.
  std::string Scalar(int depth) {
    if (depth >= 2) return Literal();
    switch (Int(10)) {
      case 0:
        return Scalar(depth + 1) + " + " + Scalar(depth + 1);
      case 1:
        return Scalar(depth + 1) + " * " + Scalar(depth + 1);
      case 2:
        return "string-length(" + Str(depth + 1) + ")";
      case 3:
        return "number(" + Scalar(depth + 1) + ")";
      case 4:
        return "floor(" + Scalar(depth + 1) + " div 2)";
      case 5:
        return "substring(" + Str(depth + 1) + ", 1 + 1, 2)";
      case 6:
        return "concat(" + Str(depth + 1) + ", 'z')";
      default:
        return Literal();
    }
  }

  std::string Str(int /*depth*/) {
    switch (Int(4)) {
      case 0:
        return "'hello'";
      case 1:
        return "string(" + Attr() + ")";
      default:
        return "'" + std::to_string(Int(100)) + "'";
    }
  }

  /// Predicates over the compare, constant and branch code paths.
  std::string Predicate() {
    std::string cmp = Pick({"=", "!=", "<", "<=", ">", ">="});
    switch (Int(10)) {
      case 0:  // attr-vs-literal, both orientations
      case 1:
        return Attr() + " " + cmp + " " + Literal();
      case 2:
        return Literal() + " " + cmp + " " + Attr();
      case 3:  // constant condition
        return Scalar(1) + " " + cmp + " " + Scalar(1);
      case 4:
        return "not(" + Attr() + " " + cmp + " " + Literal() + ")";
      case 5:  // short-circuit scaffolding around a fusable compare
        return Attr() + " " + cmp + " " + Literal() + " " +
               Pick({"and", "or"}) + " " + Scalar(1) + " " + cmp + " " +
               Literal();
      case 6:
        return "boolean(" + Attr() + ")";
      case 7:
        return "position() " + cmp + " " + std::to_string(1 + Int(3));
      default:
        return Attr();
    }
  }

  std::string Step() {
    std::string axis = Pick({"", "", "", "descendant::", "self::"});
    std::string step = axis + Pick({"a", "b", "c", "*"});
    if (Int(2) == 0) step += "[" + Predicate() + "]";
    return step;
  }

  std::string Path() {
    std::string out = Pick({"/", "", "//"});
    int steps = 1 + Int(3);
    for (int i = 0; i < steps; ++i) {
      if (i > 0) out += Pick({"/", "/", "//"});
      out += Step();
    }
    return out;
  }

  std::mt19937 rng_;
};

std::string RandomDocument(uint32_t seed) {
  std::mt19937 rng(seed);
  const char* names[] = {"a", "b", "c"};
  std::uniform_int_distribution<int> name_dist(0, 2);
  std::uniform_int_distribution<int> children_dist(0, 3);
  std::uniform_int_distribution<int> kind_dist(0, 9);
  int id = 0;
  std::string out;
  std::function<void(int)> emit = [&](int depth) {
    const char* name = names[name_dist(rng)];
    out += "<";
    out += name;
    if (kind_dist(rng) < 5) out += " id='n" + std::to_string(id++) + "'";
    if (kind_dist(rng) < 4) {
      out += " x='" + std::to_string(kind_dist(rng) % 4) + "'";
    }
    if (kind_dist(rng) < 2) {
      out += " y='" + std::to_string(kind_dist(rng) % 4) + "'";
    }
    out += ">";
    int children = depth >= 4 ? 0 : children_dist(rng);
    for (int i = 0; i < children; ++i) {
      if (kind_dist(rng) < 7) {
        emit(depth + 1);
      } else {
        out += "t" + std::to_string(kind_dist(rng));
      }
    }
    out += "</";
    out += name;
    out += ">";
  };
  out += "<root>";
  for (int i = 0; i < 3; ++i) emit(1);
  out += "</root>";
  return out;
}

/// Evaluates through the algebraic engine, rendering node results as an
/// ordered list of document-order keys. Scalars render via string(), or
/// with `typed` by kind, as conformance_test.cc's RenderInterp renders
/// the interpreter's.
StatusOr<std::string> RunAlgebraic(Database* db, storage::NodeId root,
                                   const std::string& query,
                                   bool typed = false) {
  NATIX_ASSIGN_OR_RETURN(auto compiled, db->Compile(query));
  if (compiled->prepared().result_type() == xpath::ExprType::kNodeSet) {
    NATIX_ASSIGN_OR_RETURN(std::vector<storage::StoredNode> nodes,
                           compiled->EvaluateNodes(root));
    std::string out = "nodes:";
    for (const storage::StoredNode& n : nodes) {
      NATIX_ASSIGN_OR_RETURN(uint64_t order, n.order());
      out += " " + std::to_string(order);
    }
    return out;
  }
  if (!typed) {
    NATIX_ASSIGN_OR_RETURN(std::string value,
                           compiled->EvaluateString(root));
    return "str: " + value;
  }
  NATIX_ASSIGN_OR_RETURN(runtime::Value value, compiled->EvaluateValue(root));
  switch (value.kind()) {
    case runtime::ValueKind::kBoolean:
      return std::string(value.AsBoolean() ? "bool: true" : "bool: false");
    case runtime::ValueKind::kNumber:
      return "num: " + XPathNumberToString(value.AsNumber());
    default:
      return "str: " + value.AsString();
  }
}

/// The interpreter's result rendered like RunAlgebraic's typed form.
std::string RenderInterp(const interp::Object& v) {
  switch (v.kind) {
    case interp::Object::Kind::kNodeSet: {
      std::string out = "nodes:";
      for (const dom::Node* n : v.nodes) {
        out += " " + std::to_string(n->order);
      }
      return out;
    }
    case interp::Object::Kind::kBoolean:
      return v.boolean ? "bool: true" : "bool: false";
    case interp::Object::Kind::kNumber:
      return "num: " + XPathNumberToString(v.number);
    case interp::Object::Kind::kString:
      return "str: " + v.string;
  }
  return "?";
}

class FuzzDiffNvmTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FuzzDiffNvmTest, ProgramsAgreeWithInterpreter) {
  uint32_t seed = GetParam() + BaseSeed();
  SCOPED_TRACE(::testing::Message()
               << "effective seed " << seed
               << "; rerun with NATIX_FUZZ_DIFF_NVM=" << BaseSeed());
  std::string xml = RandomDocument(seed * 2027 + 11);

  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok());
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  NvmQueryGen gen(seed);
  for (int i = 0; i < 80; ++i) {
    std::string query = gen.TopLevel();
    auto actual = RunAlgebraic(db->get(), info->root, query,
                               /*typed=*/true);
    ASSERT_TRUE(actual.ok())
        << query << ": " << actual.status().ToString()
        << "\ndocument: " << xml;
    interp::EvaluatorOptions oracle_options;
    auto oracle = interp::Evaluator::Run(dom_doc->get(), query,
                                         (*dom_doc)->root(), oracle_options);
    ASSERT_TRUE(oracle.ok()) << query;
    ASSERT_EQ(*actual, RenderInterp(*oracle))
        << "engine diverges from the interpreter on " << query
        << "\ndocument: " << xml;
  }
}

/// Random single-step value predicates — the shapes that compile to the
/// kStepExists / kStepCount loops — over documents whose leaves hold
/// numbers, words, nothing, or text split by a nested element.
class StepLoopQueryGen {
 public:
  explicit StepLoopQueryGen(uint32_t seed) : rng_(seed) {}

  std::string Query() {
    std::string path =
        Pick({"//a", "//b", "/root/*", "//*", "//c/parent::*"});
    std::string out = path + "[" + Predicate() + "]";
    if (Int(4) == 0) out += "/" + Pick({"a", "@x", "b"});
    return Int(5) == 0 ? "count(" + out + ")" : out;
  }

 private:
  int Int(int n) { return std::uniform_int_distribution<int>(0, n - 1)(rng_); }

  std::string Pick(std::initializer_list<const char*> options) {
    auto it = options.begin();
    std::advance(it, Int(static_cast<int>(options.size())));
    return *it;
  }

  std::string Predicate() {
    std::string cmp = Pick({"=", "!=", "<", ">="});
    std::string step = Pick({"a", "b", "c", "zzz", "@x", "@y"});
    std::string lit = Pick({"'0'", "'1'", "'x'", "'1.5'", "''", "0", "1",
                            "2", "1.5"});
    switch (Int(6)) {
      case 0:
        return lit + " " + cmp + " " + step;
      case 1:
        return "count(" + step + ") " + Pick({"=", ">", "<"}) + " " +
               Pick({"0", "1", "2"});
      case 2:
        return step + " = " + Pick({"true()", "false()"});
      case 3:
        return step;
      default:
        return step + " " + cmp + " " + lit;
    }
  }

  std::mt19937 rng_;
};

std::string ValueDocument(uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(0, 9);
  const char* names[] = {"a", "b", "c"};
  const char* texts[] = {"0", "1", "2", "x", "1.5", " 1 ", "", "10"};
  std::function<void(int)> emit;
  std::string out;
  emit = [&](int depth) {
    const char* name = names[pick(rng) % 3];
    out += std::string("<") + name;
    if (pick(rng) < 5) out += " x='" + std::string(texts[pick(rng) % 8]) + "'";
    if (pick(rng) < 2) out += " y='" + std::to_string(pick(rng) % 3) + "'";
    out += ">";
    if (depth >= 3 || pick(rng) < 3) {
      int form = pick(rng);
      if (form < 6) {
        out += texts[pick(rng) % 8];
      } else if (form < 8) {
        // A string-value spanning a nested element: "1" + "0" = "10".
        out += std::string(texts[pick(rng) % 3]) + "<c>" +
               texts[pick(rng) % 3] + "</c>";
      }
    } else {
      int children = pick(rng) % 4;
      for (int i = 0; i < children; ++i) emit(depth + 1);
    }
    out += std::string("</") + name + ">";
  };
  out += "<root>";
  for (int i = 0; i < 4; ++i) emit(1);
  out += "</root>";
  return out;
}

/// Renders the interpreter's result the way RunAlgebraic renders the
/// engine's (numbers through string(), as EvaluateString does).
std::string RenderOracle(const interp::Object& v) {
  if (v.kind == interp::Object::Kind::kNodeSet) {
    std::string out = "nodes:";
    for (const dom::Node* n : v.nodes) out += " " + std::to_string(n->order);
    return out;
  }
  return "str: " + XPathNumberToString(v.number);
}

TEST_P(FuzzDiffNvmTest, StepLoopsAgreeWithInterpreter) {
  uint32_t seed = GetParam() + BaseSeed();
  SCOPED_TRACE(::testing::Message()
               << "effective seed " << seed
               << "; rerun with NATIX_FUZZ_DIFF_NVM=" << BaseSeed());
  std::string xml = ValueDocument(seed * 7919 + 3);

  auto db = Database::CreateTemp();
  ASSERT_TRUE(db.ok());
  auto info = (*db)->LoadDocument("doc", xml);
  ASSERT_TRUE(info.ok()) << xml;
  auto dom_doc = dom::ParseDocument(xml);
  ASSERT_TRUE(dom_doc.ok());

  StepLoopQueryGen gen(seed);
  for (int i = 0; i < 60; ++i) {
    std::string query = gen.Query();
    auto actual = RunAlgebraic(db->get(), info->root, query);
    ASSERT_TRUE(actual.ok())
        << query << ": " << actual.status().ToString();
    interp::EvaluatorOptions oracle_options;
    auto oracle = interp::Evaluator::Run(dom_doc->get(), query,
                                         (*dom_doc)->root(), oracle_options);
    ASSERT_TRUE(oracle.ok()) << query;
    ASSERT_EQ(*actual, RenderOracle(*oracle))
        << "step loop diverges from the interpreter on " << query
        << "\ndocument: " << xml;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzDiffNvmTest, ::testing::Range(1u, 7u));

}  // namespace
}  // namespace natix
