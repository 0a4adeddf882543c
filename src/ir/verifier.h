/**
 * @file
 * Structural and type well-formedness checks for MiniIR modules.
 *
 * Run after the front-end, after mem2reg, and after the ConAir
 * transformation; every pass must leave the module verifier-clean
 * (enforced by tests).
 */
#pragma once

#include "ir/module.h"
#include "support/diag.h"

namespace conair::ir {

/**
 * Verifies @p m; reports problems through @p diags.
 * @return true when the module is well formed.
 */
bool verifyModule(const Module &m, DiagEngine &diags);

} // namespace conair::ir
