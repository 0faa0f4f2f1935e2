#ifndef NATIX_XPATH_PARSER_H_
#define NATIX_XPATH_PARSER_H_

#include <string_view>

#include "base/statusor.h"
#include "xpath/ast.h"

namespace natix::xpath {

/// Parses an XPath 1.0 expression into an AST (step 1 of the compiler
/// pipeline, Sec. 5.1). Both full axis names and the paper's Fig. 5
/// abbreviations (desc, anc, fol, pre, par, fol-sib, pre-sib, attr) are
/// accepted. The namespace axis is rejected with kNotSupported; text
/// nested deeper than 128 levels or holding more than 256 location steps
/// and predicates is rejected with kInvalidArgument (limits in
/// parser.cc).
StatusOr<ExprPtr> ParseXPath(std::string_view query);

}  // namespace natix::xpath

#endif  // NATIX_XPATH_PARSER_H_
