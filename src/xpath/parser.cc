#include "xpath/parser.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "xpath/lexer.h"

namespace natix::xpath {

namespace {

using runtime::Axis;

// Hard input bounds, checked while parsing so that hostile query text
// fails fast with kInvalidArgument instead of exhausting the stack or
// the memory of the parser and of every later pipeline stage.
/// Nesting levels, a bound on the depth of the AST and of the plan
/// translated from it. Each parenthesized expression, function argument,
/// predicate, binary operator and unary minus is one level above its
/// operands. The operands of one node do not add up: a left-deep chain
/// such as `a or b or c`, or a list of predicates on one step, grows by
/// one level per link, not by the height of each operand.
constexpr size_t kMaxNestingDepth = 128;
/// Location steps and predicates in the whole query, including the
/// descendant-or-self steps `//` expands to. Each becomes at least one
/// operator of the plan, and compile time grows superlinearly in their
/// number.
constexpr size_t kMaxStepsAndPredicates = 256;

std::optional<Axis> LookupAxis(std::string_view name) {
  // Standard names plus the abbreviations the paper uses in Fig. 5.
  if (name == "child") return Axis::kChild;
  if (name == "descendant" || name == "desc") return Axis::kDescendant;
  if (name == "descendant-or-self" || name == "desc-or-self") {
    return Axis::kDescendantOrSelf;
  }
  if (name == "parent" || name == "par") return Axis::kParent;
  if (name == "ancestor" || name == "anc") return Axis::kAncestor;
  if (name == "ancestor-or-self" || name == "anc-or-self") {
    return Axis::kAncestorOrSelf;
  }
  if (name == "following" || name == "fol") return Axis::kFollowing;
  if (name == "following-sibling" || name == "fol-sib") {
    return Axis::kFollowingSibling;
  }
  if (name == "preceding" || name == "pre") return Axis::kPreceding;
  if (name == "preceding-sibling" || name == "pre-sib") {
    return Axis::kPrecedingSibling;
  }
  if (name == "attribute" || name == "attr") return Axis::kAttribute;
  if (name == "self") return Axis::kSelf;
  return std::nullopt;
}

bool IsNodeTypeName(std::string_view name) {
  return name == "node" || name == "text" || name == "comment" ||
         name == "processing-instruction";
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<ExprPtr> Parse() {
    NATIX_ASSIGN_OR_RETURN(ExprPtr expr, ParseOrExpr());
    if (Peek().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input");
    }
    return expr;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(TokenKind kind) {
    if (Peek().kind == kind) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(TokenKind kind, std::string_view what) {
    if (!Accept(kind)) return Error(std::string("expected ") + what.data());
    return Status::OK();
  }
  Status Error(std::string_view message) const {
    return Status::InvalidArgument(
        "XPath parse error at offset " + std::to_string(Peek().position) +
        ": " + std::string(message));
  }

  /// True when the next token is the operator name `op` at an operator
  /// position (XPath 3.7 disambiguation: we only call this where a binary
  /// operator is expected).
  bool AcceptOperatorName(std::string_view op) {
    if (Peek().kind == TokenKind::kName && Peek().text == op) {
      ++pos_;
      return true;
    }
    return false;
  }

  // depth_ is the height of the AST built so far on the current parse
  // path (kMaxNestingDepth): a parse function entered at depth_ == d
  // returns with d plus the height of what it built. The operands of one
  // node are parsed from the same base level, and the node lies one
  // level above the highest of them.

  /// Adds one level on top of depth_.
  Status EnterNested() {
    if (++depth_ > kMaxNestingDepth) {
      return Error("expression nested deeper than " +
                   std::to_string(kMaxNestingDepth) + " levels");
    }
    return Status::OK();
  }

  /// Rewinds depth_ to `base` before the next operand of a node and
  /// returns the level the node's earlier operands reached.
  size_t StartOperand(size_t base) {
    const size_t top = depth_;
    depth_ = base;
    return top;
  }

  /// Ends an operand: depth_ becomes the highest level any operand of
  /// the node reached so far.
  void EndOperand(size_t top) { depth_ = std::max(depth_, top); }

  /// Ends one link of a left-deep chain: the new node lies one level
  /// above the higher of the chain so far (`top`) and the operand just
  /// parsed.
  Status EndLink(size_t top) {
    EndOperand(top);
    return EnterNested();
  }

  Status CountStepOrPredicate() {
    if (++steps_and_predicates_ > kMaxStepsAndPredicates) {
      return Error("more than " + std::to_string(kMaxStepsAndPredicates) +
                   " location steps and predicates");
    }
    return Status::OK();
  }

  StatusOr<ExprPtr> Binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs,
                           size_t lhs_top) {
    NATIX_RETURN_IF_ERROR(EndLink(lhs_top));
    ExprPtr e = MakeExpr(ExprKind::kBinary);
    e->op = op;
    e->children.push_back(std::move(lhs));
    e->children.push_back(std::move(rhs));
    return e;
  }

  StatusOr<ExprPtr> ParseOrExpr() {
    NATIX_RETURN_IF_ERROR(EnterNested());
    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr());
    while (AcceptOperatorName("or")) {
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr());
      NATIX_ASSIGN_OR_RETURN(
          lhs, Binary(BinaryOp::kOr, std::move(lhs), std::move(rhs), top));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseAndExpr() {
    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseEqualityExpr());
    while (AcceptOperatorName("and")) {
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseEqualityExpr());
      NATIX_ASSIGN_OR_RETURN(
          lhs, Binary(BinaryOp::kAnd, std::move(lhs), std::move(rhs), top));
    }
    return lhs;
  }

  StatusOr<ExprPtr> ParseEqualityExpr() {
    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseRelationalExpr());
    while (true) {
      BinaryOp op;
      if (Accept(TokenKind::kEq)) {
        op = BinaryOp::kEq;
      } else if (Accept(TokenKind::kNe)) {
        op = BinaryOp::kNe;
      } else {
        return lhs;
      }
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseRelationalExpr());
      NATIX_ASSIGN_OR_RETURN(lhs,
                             Binary(op, std::move(lhs), std::move(rhs), top));
    }
  }

  StatusOr<ExprPtr> ParseRelationalExpr() {
    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditiveExpr());
    while (true) {
      BinaryOp op;
      if (Accept(TokenKind::kLt)) {
        op = BinaryOp::kLt;
      } else if (Accept(TokenKind::kLe)) {
        op = BinaryOp::kLe;
      } else if (Accept(TokenKind::kGt)) {
        op = BinaryOp::kGt;
      } else if (Accept(TokenKind::kGe)) {
        op = BinaryOp::kGe;
      } else {
        return lhs;
      }
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditiveExpr());
      NATIX_ASSIGN_OR_RETURN(lhs,
                             Binary(op, std::move(lhs), std::move(rhs), top));
    }
  }

  StatusOr<ExprPtr> ParseAdditiveExpr() {
    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicativeExpr());
    while (true) {
      BinaryOp op;
      if (Accept(TokenKind::kPlus)) {
        op = BinaryOp::kAdd;
      } else if (Accept(TokenKind::kMinus)) {
        op = BinaryOp::kSub;
      } else {
        return lhs;
      }
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicativeExpr());
      NATIX_ASSIGN_OR_RETURN(lhs,
                             Binary(op, std::move(lhs), std::move(rhs), top));
    }
  }

  StatusOr<ExprPtr> ParseMultiplicativeExpr() {
    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnaryExpr());
    while (true) {
      BinaryOp op;
      if (Accept(TokenKind::kStar)) {
        op = BinaryOp::kMul;
      } else if (AcceptOperatorName("div")) {
        op = BinaryOp::kDiv;
      } else if (AcceptOperatorName("mod")) {
        op = BinaryOp::kMod;
      } else {
        return lhs;
      }
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr());
      NATIX_ASSIGN_OR_RETURN(lhs,
                             Binary(op, std::move(lhs), std::move(rhs), top));
    }
  }

  StatusOr<ExprPtr> ParseUnaryExpr() {
    if (Accept(TokenKind::kMinus)) {
      NATIX_RETURN_IF_ERROR(EnterNested());
      NATIX_ASSIGN_OR_RETURN(ExprPtr operand, ParseUnaryExpr());
      ExprPtr e = MakeExpr(ExprKind::kNegate);
      e->children.push_back(std::move(operand));
      return e;
    }
    return ParseUnionExpr();
  }

  StatusOr<ExprPtr> ParseUnionExpr() {
    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr first, ParsePathExpr());
    if (Peek().kind != TokenKind::kPipe) return first;
    ExprPtr u = MakeExpr(ExprKind::kUnion);
    u->children.push_back(std::move(first));
    while (Accept(TokenKind::kPipe)) {
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr next, ParsePathExpr());
      EndOperand(top);
      u->children.push_back(std::move(next));
    }
    return u;
  }

  /// Whether the upcoming tokens start a FilterExpr (primary expression)
  /// rather than a location path.
  bool StartsFilterExpr() const {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVariable:
      case TokenKind::kLParen:
      case TokenKind::kLiteral:
      case TokenKind::kNumber:
        return true;
      case TokenKind::kName:
        // FunctionName '(' — but node-type names are node tests.
        return Peek(1).kind == TokenKind::kLParen && !IsNodeTypeName(t.text) &&
               !LookupAxis(t.text).has_value();
      default:
        return false;
    }
  }

  StatusOr<ExprPtr> ParsePathExpr() {
    if (!StartsFilterExpr()) return ParseLocationPath();

    const size_t base = depth_;
    NATIX_ASSIGN_OR_RETURN(ExprPtr primary, ParsePrimaryExpr());
    // Predicates make it a filter expression.
    if (Peek().kind == TokenKind::kLBracket) {
      ExprPtr filter = MakeExpr(ExprKind::kFilterExpr);
      filter->children.push_back(std::move(primary));
      NATIX_RETURN_IF_ERROR(ParsePredicatesInto(base, &filter->predicates));
      primary = std::move(filter);
    }
    // Optional trailing relative path: e/π or e//π.
    if (Peek().kind == TokenKind::kSlash ||
        Peek().kind == TokenKind::kDoubleSlash) {
      ExprPtr path = MakeExpr(ExprKind::kPathExpr);
      path->children.push_back(std::move(primary));
      if (Accept(TokenKind::kDoubleSlash)) {
        NATIX_RETURN_IF_ERROR(AddDescendantOrSelfStep(&path->steps));
      } else {
        NATIX_RETURN_IF_ERROR(Expect(TokenKind::kSlash, "'/'"));
      }
      const size_t top = StartOperand(base);
      NATIX_RETURN_IF_ERROR(ParseRelativePathInto(&path->steps));
      EndOperand(top);
      return path;
    }
    return primary;
  }

  StatusOr<ExprPtr> ParsePrimaryExpr() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVariable: {
        ExprPtr e = MakeExpr(ExprKind::kVariable);
        e->name = Advance().text;
        return e;
      }
      case TokenKind::kLiteral: {
        ExprPtr e = MakeExpr(ExprKind::kStringLiteral);
        e->string_value = Advance().text;
        return e;
      }
      case TokenKind::kNumber: {
        ExprPtr e = MakeExpr(ExprKind::kNumberLiteral);
        e->number = Advance().number;
        return e;
      }
      case TokenKind::kLParen: {
        Advance();
        NATIX_ASSIGN_OR_RETURN(ExprPtr e, ParseOrExpr());
        NATIX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        return e;
      }
      case TokenKind::kName: {
        ExprPtr e = MakeExpr(ExprKind::kFunctionCall);
        e->name = Advance().text;
        NATIX_RETURN_IF_ERROR(Expect(TokenKind::kLParen, "'('"));
        if (!Accept(TokenKind::kRParen)) {
          const size_t base = depth_;
          do {
            const size_t top = StartOperand(base);
            NATIX_ASSIGN_OR_RETURN(ExprPtr arg, ParseOrExpr());
            EndOperand(top);
            e->children.push_back(std::move(arg));
          } while (Accept(TokenKind::kComma));
          NATIX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
        }
        return e;
      }
      default:
        return Error("expected a primary expression");
    }
  }

  /// Appends the descendant-or-self::node() step `//` abbreviates.
  Status AddDescendantOrSelfStep(std::vector<Step>* steps) {
    NATIX_RETURN_IF_ERROR(CountStepOrPredicate());
    Step step;
    step.axis = Axis::kDescendantOrSelf;
    step.test.kind = AstNodeTest::Kind::kAnyKind;
    steps->push_back(std::move(step));
    return Status::OK();
  }

  StatusOr<ExprPtr> ParseLocationPath() {
    ExprPtr path = MakeExpr(ExprKind::kLocationPath);
    if (Accept(TokenKind::kDoubleSlash)) {
      path->absolute = true;
      NATIX_RETURN_IF_ERROR(AddDescendantOrSelfStep(&path->steps));
      NATIX_RETURN_IF_ERROR(ParseRelativePathInto(&path->steps));
      return path;
    }
    if (Accept(TokenKind::kSlash)) {
      path->absolute = true;
      // "/" alone selects the document root.
      if (!StartsStep()) return path;
      NATIX_RETURN_IF_ERROR(ParseRelativePathInto(&path->steps));
      return path;
    }
    NATIX_RETURN_IF_ERROR(ParseRelativePathInto(&path->steps));
    return path;
  }

  bool StartsStep() const {
    switch (Peek().kind) {
      case TokenKind::kName:
      case TokenKind::kStar:
      case TokenKind::kAt:
      case TokenKind::kDot:
      case TokenKind::kDotDot:
        return true;
      default:
        return false;
    }
  }

  /// The steps of a path are bounded by kMaxStepsAndPredicates, not by
  /// nesting: each is parsed from the path's own level.
  Status ParseRelativePathInto(std::vector<Step>* steps) {
    const size_t base = depth_;
    while (true) {
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(Step step, ParseStep());
      EndOperand(top);
      steps->push_back(std::move(step));
      if (Accept(TokenKind::kDoubleSlash)) {
        NATIX_RETURN_IF_ERROR(AddDescendantOrSelfStep(steps));
        continue;
      }
      if (Accept(TokenKind::kSlash)) continue;
      return Status::OK();
    }
  }

  StatusOr<Step> ParseStep() {
    NATIX_RETURN_IF_ERROR(CountStepOrPredicate());
    Step step;
    if (Accept(TokenKind::kDot)) {
      step.axis = Axis::kSelf;
      step.test.kind = AstNodeTest::Kind::kAnyKind;
      return step;
    }
    if (Accept(TokenKind::kDotDot)) {
      step.axis = Axis::kParent;
      step.test.kind = AstNodeTest::Kind::kAnyKind;
      return step;
    }
    if (Accept(TokenKind::kAt)) {
      step.axis = Axis::kAttribute;
    } else if (Peek().kind == TokenKind::kName &&
               Peek(1).kind == TokenKind::kDoubleColon) {
      const std::string& axis_name = Peek().text;
      if (axis_name == "namespace") {
        return Status::NotSupported(
            "the namespace axis is not supported (namespace nodes are not "
            "materialized)");
      }
      std::optional<Axis> axis = LookupAxis(axis_name);
      if (!axis.has_value()) {
        return Error("unknown axis '" + axis_name + "'");
      }
      step.axis = *axis;
      Advance();  // axis name
      Advance();  // '::'
    } else {
      step.axis = Axis::kChild;
    }
    NATIX_ASSIGN_OR_RETURN(step.test, ParseNodeTest());
    NATIX_RETURN_IF_ERROR(ParsePredicatesInto(depth_, &step.predicates));
    return step;
  }

  /// Parses `[p1][p2]...`, a chain: each predicate filters the result
  /// of the ones before it, so it adds one level.
  Status ParsePredicatesInto(size_t base, std::vector<ExprPtr>* predicates) {
    while (Accept(TokenKind::kLBracket)) {
      NATIX_RETURN_IF_ERROR(CountStepOrPredicate());
      const size_t top = StartOperand(base);
      NATIX_ASSIGN_OR_RETURN(ExprPtr predicate, ParseOrExpr());
      NATIX_RETURN_IF_ERROR(Expect(TokenKind::kRBracket, "']'"));
      NATIX_RETURN_IF_ERROR(EndLink(top));
      predicates->push_back(std::move(predicate));
    }
    return Status::OK();
  }

  StatusOr<AstNodeTest> ParseNodeTest() {
    AstNodeTest test;
    if (Accept(TokenKind::kStar)) {
      test.kind = AstNodeTest::Kind::kAnyName;
      return test;
    }
    if (Peek().kind != TokenKind::kName) {
      return Error("expected a node test");
    }
    std::string name = Advance().text;
    if (Peek().kind == TokenKind::kLParen && IsNodeTypeName(name)) {
      Advance();  // '('
      if (name == "node") {
        test.kind = AstNodeTest::Kind::kAnyKind;
      } else if (name == "text") {
        test.kind = AstNodeTest::Kind::kText;
      } else if (name == "comment") {
        test.kind = AstNodeTest::Kind::kComment;
      } else {  // processing-instruction, optional target literal
        if (Peek().kind == TokenKind::kLiteral) {
          test.kind = AstNodeTest::Kind::kPiTarget;
          test.name = Advance().text;
        } else {
          test.kind = AstNodeTest::Kind::kPi;
        }
      }
      NATIX_RETURN_IF_ERROR(Expect(TokenKind::kRParen, "')'"));
      return test;
    }
    test.kind = AstNodeTest::Kind::kName;
    test.name = std::move(name);
    return test;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  size_t depth_ = 0;
  size_t steps_and_predicates_ = 0;
};

}  // namespace

StatusOr<ExprPtr> ParseXPath(std::string_view query) {
  obs::ScopedSpan span("compile/parse");
  NATIX_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace natix::xpath
