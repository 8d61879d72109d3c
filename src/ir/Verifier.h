//===- ir/Verifier.h - Typing and well-formedness ---------------*- C++ -*-===//
//
// Part of the Reticle-C++ project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks that a function is well formed (Section 6.1): names resolve,
/// instructions are well typed, and the dependency graph is acyclic once
/// register instructions are removed. Unlike traditional HDL tools, which
/// silently propagate x-values through combinational loops, Reticle rejects
/// such programs ahead of time.
///
//===----------------------------------------------------------------------===//

#ifndef RETICLE_IR_VERIFIER_H
#define RETICLE_IR_VERIFIER_H

#include "ir/Function.h"
#include "support/Result.h"

#include <vector>

namespace reticle {
namespace ir {

/// Verifies naming, typing, and acyclicity of \p Fn. Runs off the cached
/// DefUse analysis (building it on first use), so a verified function
/// hands every later stage a warm cache. An accepted function's static IR
/// coverage is recorded in \p Ctx.
Status verify(const Function &Fn,
              const obs::Context &Ctx = obs::defaultContext());

/// verify() without the coverage record, for a stage whose function is
/// verified again later in the same compile: the parse pass rejects bad
/// source with it, and selection's verify() then counts the function once
/// (compile(Fn) has no parse pass, so that is the one site every compile
/// reaches).
Status verifyWithoutCoverage(const Function &Fn,
                             const obs::Context &Ctx = obs::defaultContext());

/// Computes a topological order of the non-register instructions of \p Fn
/// (indices into the body). Register instructions are excluded from the
/// graph per Section 6.1, which is what legalizes feedback through state.
/// Fails when a combinational (register-free) cycle exists. Served from
/// the cached DefUse analysis.
Result<std::vector<size_t>>
topoOrder(const Function &Fn, const obs::Context &Ctx = obs::defaultContext());

/// Type-checks a single instruction in the context of \p Fn.
Status checkInstr(const Function &Fn, const Instr &I);

} // namespace ir
} // namespace reticle

#endif // RETICLE_IR_VERIFIER_H
