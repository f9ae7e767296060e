//===- fuzz/Reducer.h - Greedy failing-module reducer ------------*- C++ -*-===//
//
// Part of the sxe project, a reproduction of "Effective Sign Extension
// Elimination" (Kawahito, Komatsu, Nakatani; PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A greedy test-case reducer: shrinks a module while a caller-supplied
/// interestingness predicate (typically "the differential harness still
/// reports the same failure") keeps holding. Transformations, applied to
/// fixpoint in rounds:
///
///   - chunked removal of non-terminator instructions (large runs first,
///     then single instructions — delta-debugging style);
///   - collapsing conditional branches to one successor, then deleting
///     the blocks that become unreachable;
///   - dropping helper functions whose last call site disappeared (the
///     entry function `main` always survives);
///   - narrowing integer constants toward 0 / 1 / half.
///
/// At most 32 rounds run.
///
/// Because the IR is not SSA, removing any non-terminator instruction
/// keeps the module structurally valid (registers are declared per
/// function, not per definition), so candidates only need an ordinary
/// verifier pass before the predicate runs. The result round-trips
/// through the textual format, ready to land in tests/corpus/.
///
//===----------------------------------------------------------------------===//

#ifndef SXE_FUZZ_REDUCER_H
#define SXE_FUZZ_REDUCER_H

#include "ir/Module.h"

#include <functional>
#include <memory>

namespace sxe {

/// Interestingness test: returns true if \p M still exhibits the failure
/// (or property) being minimized. Called on verifier-clean candidates
/// only.
using ReducePredicate = std::function<bool(const Module &M)>;

struct ReductionStats {
  size_t OriginalInstructions = 0;
  size_t ReducedInstructions = 0;
  unsigned Rounds = 0;
  unsigned CandidatesTried = 0;
  unsigned CandidatesAccepted = 0;
};

/// Greedily shrinks \p Failing while \p StillInteresting holds. \p Failing
/// itself must satisfy the predicate; the returned module (always
/// non-null) is the smallest accepted candidate.
std::unique_ptr<Module> reduceModule(const Module &Failing,
                                     const ReducePredicate &StillInteresting,
                                     ReductionStats *Stats = nullptr);

} // namespace sxe

#endif // SXE_FUZZ_REDUCER_H
