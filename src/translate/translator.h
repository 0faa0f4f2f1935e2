#ifndef NATIX_TRANSLATE_TRANSLATOR_H_
#define NATIX_TRANSLATE_TRANSLATOR_H_

#include <string>

#include "algebra/operator.h"
#include "algebra/rewriter.h"
#include "base/statusor.h"
#include "xpath/ast.h"

namespace natix::translate {

/// Translation strategy switches. The defaults implement the improved
/// translation of Sec. 4; Canonical() yields the textbook translation of
/// Sec. 3 (used as the ablation baseline in bench/).
struct TranslatorOptions {
  /// Sec. 4.2.1: translate outer location paths as a stacked operator
  /// pipeline instead of a chain of d-joins.
  bool stacked_outer_paths = true;
  /// Sec. 4.1: eliminate duplicates right after every ppd step instead of
  /// only once at the end.
  bool push_duplicate_elimination = true;
  /// Sec. 4.2.2: wrap dependent steps of inner (predicate) paths in the
  /// MemoX operator when their context nodes can repeat.
  bool memoize_inner_paths = true;
  /// Sec. 4.3.2: evaluate cheap predicate conjuncts before expensive
  /// ones, materializing expensive results through chi^mat.
  bool split_expensive_predicates = true;
  /// Extension beyond the paper (its Sec. 4.1 cites Hidders/Michiels [13]
  /// as future work): infer duplicate-freeness and drop redundant
  /// duplicate eliminations; also fold away constant-true selections.
  bool simplify_plan = true;
  /// Positional early exit (docs/LIMIT-PUSHDOWN.md): rewrite
  /// position() = k / < k / <= k predicates (including the numeric
  /// literal form [3]) into a Limit operator pushed down to the
  /// producing scan, so the pipeline closes after the k-th binding.
  /// Effective only together with simplify_plan; off is the ablation
  /// baseline and the differential-fuzz switch.
  bool limit_pushdown = true;
  /// When > 0 and the query yields a node set, cap the result at the
  /// first `result_limit` nodes in document order (paginated serving).
  /// Plans whose result stream is provably doc-ordered close their
  /// pipeline — including the underlying page scans — after the k-th
  /// binding; other plans gain an in-plan document-order sort below the
  /// cap, so the bound is exact either way.
  uint64_t result_limit = 0;

  static TranslatorOptions Canonical() {
    return TranslatorOptions{false, false, false, false, false};
  }
  static TranslatorOptions Improved() { return TranslatorOptions{}; }
};

/// The output of translation: an algebra plan plus how to read its result.
struct TranslationResult {
  algebra::OpPtr plan;
  /// Attribute carrying the result: one node per tuple for node-set
  /// queries, a single scalar tuple otherwise.
  std::string result_attr;
  xpath::ExprType type = xpath::ExprType::kUnknown;
  /// The property-justified simplifications applied to `plan`, each with
  /// the inferred property that proved it sound (empty when the
  /// simplifying rewriter is off).
  algebra::RewriteLog rewrites;
};

/// Reserved attribute names bound by the execution context before the
/// plan runs (the paper's top-level map, Sec. 2.2.2): the context node,
/// context position and context size.
inline constexpr char kContextNodeAttr[] = "cn";
inline constexpr char kContextPositionAttr[] = "cp0";
inline constexpr char kContextSizeAttr[] = "cs0";

/// Translates an analyzed, normalized XPath AST into the logical algebra
/// (step 5 of the compiler pipeline). The AST must have passed Analyze()
/// and Normalize(). With `verify` (the caller's one reading of
/// analysis::VerificationEnabled), the plan is verified (Layer 1) after
/// translation and after every rewrite.
StatusOr<TranslationResult> Translate(const xpath::Expr& root,
                                      const TranslatorOptions& options,
                                      bool verify);

}  // namespace natix::translate

#endif  // NATIX_TRANSLATE_TRANSLATOR_H_
