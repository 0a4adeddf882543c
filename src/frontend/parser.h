/**
 * @file
 * Recursive-descent parser for MiniC.
 */
#pragma once

#include <memory>
#include <string>

#include "frontend/ast.h"
#include "support/diag.h"

namespace conair::fe {

/** How deep statements and expressions may nest: each nested
 *  statement, parenthesis, unary operator, subscript, call argument or
 *  chained assignment is one level.  Every level costs the parser a
 *  few host stack frames and the later recursive passes a few more —
 *  several KB per level under AddressSanitizer — so the limit is the
 *  C++ minimum of 256 (Annex B), which stays inside half of an 8 MB
 *  stack there.  Deeper input is a "nesting too deep" error, not a
 *  stack overflow. */
constexpr unsigned kMaxNesting = 256;

/** How tall an expression tree may grow, counting every operator,
 *  subscript, call and literal on its longest path.  A flat chain
 *  (`1 + 1 + ... + 1`, `a[0][0]...`) is parsed in a loop and never
 *  meets kMaxNesting, but code generation and the tree's destructor
 *  recurse once per level, so a taller tree is an "expression too
 *  deep" error.  The bound leaves ASan-built code generation well
 *  inside an 8 MB stack. */
constexpr unsigned kMaxExprDepth = 1024;

/**
 * Parses MiniC source into an AST.  Returns nullptr (with diagnostics in
 * @p diags) on error.
 */
std::unique_ptr<Program> parseProgram(const std::string &source,
                                      DiagEngine &diags);

} // namespace conair::fe
